"""File formats: trajectories, Tetgen meshes, grasp candidate lists.

Trajectories and grasp lists are line-delimited JSON (one record per line,
so an error names its line); each is read and written as a whole text.
Floats round-trip losslessly through Python's shortest-repr JSON encoding.
The JSON readers check record shape and JSON types; the values are checked
by the type each record builds (TrajectoryHeader, TrajectoryFrame,
ContactPoint, GraspCandidate), whose error is reported with the line.
Meshes use the Tetgen ASCII .node/.ele convention.  The exact schemas live
in docs/formats.md.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass

import numpy as np

from .contact import ContactPoint, TrajectoryFrame
from .errors import InvalidInputError, ParseError, check_fields, finite, vec3
from .fem import GraspCandidate, MaterialParams, TetMesh, tet_volumes

logger = logging.getLogger(__name__)

TRAJECTORY_FORMAT = "softgrasp-trajectory"
TRAJECTORY_VERSION = 1


@dataclass(frozen=True)
class TrajectoryHeader:
    """Identity of a recorded squeeze: object, mass, material, torque scale."""

    object_name: str
    mass: float
    material: MaterialParams
    torque_scale_rho: float

    def __post_init__(self):
        check_fields(self, finite, "mass", "torque_scale_rho", above=0.0)


@dataclass(frozen=True)
class TrajectoryFile:
    header: TrajectoryHeader
    frames: tuple[TrajectoryFrame, ...]


def read_text(path) -> str:
    """A whole input file's text; a file that is not UTF-8 raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from None


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float)]


def _reject_const(value):
    raise ValueError(f"non-finite JSON constant {value!r}")


def _json_line(text: str, lineno: int) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_const)
    except ValueError as exc:
        raise ParseError(f"invalid record: {exc}", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", line=lineno)
    return obj


def _get(obj: dict, key: str, lineno: int):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line=lineno)
    return obj[key]


def _is_number(value) -> bool:
    """A JSON number: int or float, and not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_vec3(obj: dict, key: str, lineno: int) -> list:
    raw = _get(obj, key, lineno)
    if not (isinstance(raw, list) and len(raw) == 3 and all(_is_number(v) for v in raw)):
        raise ParseError(f"field {key!r} must be a list of 3 numbers", line=lineno)
    return raw


def _get_num(obj: dict, key: str, lineno: int):
    raw = _get(obj, key, lineno)
    if not _is_number(raw):
        raise ParseError(f"field {key!r} must be a number", line=lineno)
    return raw


# ---------------------------------------------------------------------------
# Trajectories.


def write_trajectory(frames, header: TrajectoryHeader) -> str:
    """Serialize a header plus frames to line-delimited JSON text."""
    head = {
        "format": TRAJECTORY_FORMAT,
        "version": TRAJECTORY_VERSION,
        "object": str(header.object_name),
        "mass": float(header.mass),
        "material": {f.name: float(getattr(header.material, f.name))
                     for f in dataclasses.fields(MaterialParams)},
        "torque_scale_rho": float(header.torque_scale_rho),
    }
    lines = [json.dumps(head, allow_nan=False)]
    for frame in frames:
        rec = {
            "t": float(frame.time),
            "squeeze_force": float(frame.squeeze_force),
            "com": _float_list(frame.com),
            "mass": float(frame.mass),
            "contacts": [
                {
                    "x": _float_list(c.position),
                    "n": _float_list(c.normal),
                    "f": _float_list(c.force),
                }
                for c in frame.contacts
            ],
        }
        lines.append(json.dumps(rec, allow_nan=False))
    return "\n".join(lines) + "\n"


def _parse_header(obj: dict, lineno: int) -> TrajectoryHeader:
    fmt = _get(obj, "format", lineno)
    if fmt != TRAJECTORY_FORMAT:
        raise ParseError(f"not a trajectory file (format {fmt!r})", line=lineno)
    version = _get(obj, "version", lineno)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ParseError("version must be an integer", line=lineno)
    if version != TRAJECTORY_VERSION:
        raise ParseError(
            f"unsupported trajectory version {version} (supported: {TRAJECTORY_VERSION})",
            line=lineno,
        )
    name = _get(obj, "object", lineno)
    if not isinstance(name, str):
        raise ParseError("object name must be a string", line=lineno)
    mat_raw = _get(obj, "material", lineno)
    if not isinstance(mat_raw, dict):
        raise ParseError("material must be an object", line=lineno)
    material = {f.name: _get_num(mat_raw, f.name, lineno) for f in dataclasses.fields(MaterialParams)}
    mass = _get_num(obj, "mass", lineno)
    rho = _get_num(obj, "torque_scale_rho", lineno)
    try:
        return TrajectoryHeader(object_name=name, mass=mass, material=MaterialParams(**material),
                                torque_scale_rho=rho)
    except InvalidInputError as exc:
        raise ParseError(f"bad header: {exc}", line=lineno) from None


def _parse_frame(obj: dict, lineno: int) -> TrajectoryFrame:
    raw_contacts = _get(obj, "contacts", lineno)
    if not isinstance(raw_contacts, list):
        raise ParseError("contacts must be a list", line=lineno)
    contacts = []
    for c in raw_contacts:
        if not isinstance(c, dict):
            raise ParseError("each contact must be an object", line=lineno)
        x, n, f = (_get_vec3(c, key, lineno) for key in ("x", "n", "f"))
        try:
            contacts.append(ContactPoint(position=x, normal=n, force=f))
        except InvalidInputError as exc:
            raise ParseError(f"bad contact: {exc}", line=lineno) from None
    time, squeeze_force, mass = (_get_num(obj, key, lineno) for key in ("t", "squeeze_force", "mass"))
    com = _get_vec3(obj, "com", lineno)
    try:
        return TrajectoryFrame(time=time, contacts=tuple(contacts), squeeze_force=squeeze_force,
                               com=com, mass=mass)
    except InvalidInputError as exc:
        raise ParseError(f"bad frame: {exc}", line=lineno) from None


def read_trajectory(text: str) -> TrajectoryFile:
    """Parse trajectory text; errors carry the 1-based line number.

    A malformed line reports how many frames before it parsed cleanly, so
    partially written files are diagnosable.
    """
    if not isinstance(text, str):
        raise ParseError("trajectory input must be text")
    lines = text.splitlines()
    stripped = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not stripped:
        raise ParseError("empty trajectory file", line=1)
    head_no, head_line = stripped[0]
    header = _parse_header(_json_line(head_line, head_no), head_no)
    frames: list[TrajectoryFrame] = []
    prev_time = -np.inf
    for lineno, line in stripped[1:]:
        try:
            frame = _parse_frame(_json_line(line, lineno), lineno)
        except ParseError as exc:
            exc.args = (f"{exc.args[0]} (parsed {len(frames)} valid frames before this line)",)
            raise
        if frame.time <= prev_time:
            raise ParseError(
                f"frame times must increase strictly ({frame.time} after {prev_time}; "
                f"parsed {len(frames)} valid frames before this line)",
                line=lineno,
            )
        prev_time = frame.time
        frames.append(frame)
    return TrajectoryFile(header=header, frames=tuple(frames))


def save_trajectory(path, frames, header: TrajectoryHeader) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_trajectory(frames, header))


def load_trajectory(path) -> TrajectoryFile:
    return read_trajectory(read_text(path))


# ---------------------------------------------------------------------------
# Tetgen meshes.


def _data_lines(text: str) -> list:
    """(lineno, tokens) of each line with data: the part of the line before
    its first '#', split at whitespace, when that holds a token."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [(i, toks) for i, toks in enumerate(map(str.split, lines), 1) if toks]


def _to_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"non-integer {what} {token!r}", line=lineno) from None


def _to_float(token: str, lineno: int, what: str) -> float:
    try:
        val = float(token)
    except ValueError:
        raise ParseError(f"non-numeric {what} {token!r}", line=lineno) from None
    if not np.isfinite(val):
        raise ParseError(f"non-finite {what} {token!r}", line=lineno)
    return val


def _convert(tokens: list, kind, dtype) -> np.ndarray:
    """kind(token) for each token (Python's int or float), as a dtype
    array that stops before the first token kind rejects or dtype cannot
    hold."""
    try:
        return np.fromiter(map(kind, tokens), dtype, len(tokens))
    except (ValueError, OverflowError):
        pass
    values = np.empty(len(tokens), dtype)
    for i, token in enumerate(tokens):
        try:
            values[i] = kind(token)
        except (ValueError, OverflowError):
            return values[:i]
    return values


def _first(mask: np.ndarray, default: int) -> int:
    """The index of mask's first True, else default."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def _body(lines: list, count: int, per_line: int):
    """(linenos, tokens, end) of a file's count body lines, end being the
    first line with fewer than per_line tokens (count when none)."""
    linenos, tokens = zip(*lines)
    return linenos, tokens, _first(np.fromiter(map(len, tokens), np.intp, count) < per_line, count)


def _node_line_error(toks: list, lineno: int, row: int, base, n_nodes: int, earlier: np.ndarray):
    """Raise the ParseError of the node body's first bad line, row, whose
    earlier lines passed every check and hold the indices earlier."""
    if len(toks) < 4:
        raise ParseError("node line needs <index> <x> <y> <z>", line=lineno)
    idx = _to_int(toks[0], lineno, "node index")
    if row == 0 and idx not in (0, 1):
        raise ParseError(f"first node index must be 0 or 1, got {idx}", line=lineno)
    if idx in earlier.tolist():
        raise ParseError(f"duplicate node index {idx}", line=lineno)
    if not (base <= idx < base + n_nodes):
        raise ParseError(f"node index {idx} out of range", line=lineno)
    for k in range(3):
        _to_float(toks[1 + k], lineno, "coordinate")
    raise AssertionError("node line passed every check")


def _tet_line_error(toks: list, lineno: int, base: int, n_nodes: int):
    """Raise the ParseError of the ele body's first bad line."""
    if len(toks) < 5:
        raise ParseError("tet line needs <index> and 4 node indices", line=lineno)
    for k in range(4):
        ref = _to_int(toks[1 + k], lineno, "tet node index")
        if not (base <= ref < base + n_nodes):
            raise ParseError(f"tet references unknown node {ref}", line=lineno)
    raise AssertionError("tet line passed every check")


def parse_tet_mesh(node_text: str, ele_text: str) -> TetMesh:
    """Parse Tetgen ASCII .node and .ele contents into a validated TetMesh.

    0- or 1-based numbering is auto-detected from the first node index and
    applied to both files.  '#' starts a comment.  Index errors, non-numeric
    tokens, and inverted tets report the offending line; a mesh that TetMesh
    rejects, such as one with a face shared by three tets, raises
    ParseError too.

    Each file's body is checked in array passes, each over the lines before
    the first line an earlier pass failed; the first failing line is then
    checked token by token, as a line-by-line reader would, to name its
    error.  Tokens are converted with Python's int and float.
    """
    node_lines = _data_lines(node_text)
    if not node_lines:
        raise ParseError("empty node file", line=1)
    lineno, head = node_lines[0]
    if len(head) < 2:
        raise ParseError("node header needs at least <count> <dim>", line=lineno)
    n_nodes = _to_int(head[0], lineno, "node count")
    dim = _to_int(head[1], lineno, "dimension")
    if n_nodes < 1:
        raise ParseError("node count must be >= 1", line=lineno)
    if dim != 3:
        raise ParseError(f"only 3D meshes supported, got dim {dim}", line=lineno)
    body = node_lines[1:]
    if len(body) != n_nodes:
        raise ParseError(
            f"node count {n_nodes} does not match {len(body)} node lines", line=lineno
        )

    linenos, toks, end = _body(body, n_nodes, 4)
    ids = _convert([t[0] for t in toks[:end]], int, np.int64)
    base = int(ids[0]) if ids.size else None
    if base in (0, 1):
        # a line fails when its index is out of range or repeats an earlier one's
        fresh = np.zeros(ids.size, dtype=bool)
        fresh[np.unique(ids, return_index=True)[1]] = True
        end = _first(~fresh | (ids < base) | (ids >= base + n_nodes), ids.size)
    else:
        end = 0
    coords = _convert([c for t in toks[:end] for c in t[1:4]], float, float)
    end = min(end, coords.size // 3, _first(~np.isfinite(coords), coords.size) // 3)
    if end < n_nodes:
        _node_line_error(toks[end], linenos[end], end, base, n_nodes, ids[:end])
    nodes = coords.reshape(n_nodes, 3)
    row_of = np.empty(n_nodes, dtype=int)
    row_of[ids - base] = np.arange(n_nodes)

    ele_lines = _data_lines(ele_text)
    if not ele_lines:
        raise ParseError("empty ele file", line=1)
    lineno, head = ele_lines[0]
    if len(head) < 2:
        raise ParseError("ele header needs at least <count> <nodes-per-tet>", line=lineno)
    n_tets = _to_int(head[0], lineno, "tet count")
    per = _to_int(head[1], lineno, "nodes per tet")
    if n_tets < 1:
        raise ParseError("tet count must be >= 1", line=lineno)
    if per != 4:
        raise ParseError(f"only 4-node tets supported, got {per}", line=lineno)
    body = ele_lines[1:]
    if len(body) != n_tets:
        raise ParseError(f"tet count {n_tets} does not match {len(body)} tet lines", line=lineno)

    tet_linenos, toks, end = _body(body, n_tets, 5)
    refs = _convert([r for t in toks[:end] for r in t[1:5]], int, np.int64)
    # the node indices are base .. base + n_nodes - 1, each on one line
    end = min(end, _first((refs < base) | (refs >= base + n_nodes), refs.size) // 4, refs.size // 4)
    if end < n_tets:
        _tet_line_error(toks[end], tet_linenos[end], base, n_nodes)
    tets = row_of[refs - base].reshape(n_tets, 4)

    try:
        return TetMesh(nodes=nodes, tets=tets)
    except InvalidInputError as exc:
        # a line-numbered inverted tet takes precedence over TetMesh's errors
        vols = tet_volumes(nodes, tets)
        bad = np.flatnonzero(vols <= 0.0)
        if bad.size:
            raise ParseError(
                f"inverted or flat tet (signed volume {vols[bad[0]]:.3e})", line=tet_linenos[bad[0]],
            ) from None
        raise ParseError(str(exc)) from None


def load_tet_mesh(node_path, ele_path) -> TetMesh:
    return parse_tet_mesh(read_text(node_path), read_text(ele_path))


# ---------------------------------------------------------------------------
# Grasp candidates.


def parse_grasp_candidates(text: str) -> list[GraspCandidate]:
    """Parse line-delimited JSON grasp candidates.

    Required keys per line: center, axis, halfwidth, max_force; other keys
    are ignored.  An axis off unit length by at most 1e-3 is normalized and
    logged; more than that is an error.
    """
    if not isinstance(text, str):
        raise ParseError("grasp input must be text")
    out = []
    for lineno_raw, raw in enumerate(text.splitlines()):
        if not raw.strip():
            continue
        lineno = lineno_raw + 1
        obj = _json_line(raw, lineno)
        center, axis = (_get_vec3(obj, key, lineno) for key in ("center", "axis"))
        halfwidth, max_force = (_get_num(obj, key, lineno) for key in ("halfwidth", "max_force"))
        try:
            axis = vec3(axis, "axis")
            norm = float(np.linalg.norm(axis))
            if abs(norm - 1.0) > 1e-3:
                raise ParseError(f"axis norm {norm:.6f} too far from 1", line=lineno)
            if abs(norm - 1.0) > 1e-9:
                logger.warning("grasp line %d: axis normalized (norm was %.6f)", lineno, norm)
            out.append(GraspCandidate(grasp_center=center, approach_axis=axis / norm,
                                      finger_halfwidth=halfwidth, max_force=max_force))
        except InvalidInputError as exc:
            raise ParseError(f"bad grasp candidate: {exc}", line=lineno) from None
    if not out:
        raise ParseError("no grasp candidates in file", line=1)
    return out


def write_grasp_candidates(candidates) -> str:
    lines = []
    for cand in candidates:
        rec = {
            "center": _float_list(cand.grasp_center),
            "axis": _float_list(cand.approach_axis),
            "halfwidth": float(cand.finger_halfwidth),
            "max_force": float(cand.max_force),
        }
        lines.append(json.dumps(rec, allow_nan=False))
    return "\n".join(lines) + "\n"


def load_grasp_candidates(path) -> list[GraspCandidate]:
    return parse_grasp_candidates(read_text(path))
