"""Shared fixture builders for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse.linalg

from softgrasp import ContactPoint, GravityConfig, TrajectoryFrame, frame_quality


def quality(frame, cfg, metric: str, gcfg=GravityConfig(), proxy_dirs=None) -> float:
    """One metric of one frame, read off frame_quality's values."""
    return frame_quality(frame, cfg, gcfg, proxy_dirs).values[metric]


def random_unit(rng, d: int = 3) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_hull_points(rng, dim: int, count: int, scale: float = 1.0) -> np.ndarray:
    """Point cloud whose hull strictly contains the origin.

    Gaussian directions with radii in [0.5, 1.5]*scale; with count >= 4*dim
    the origin is interior with overwhelming probability, which the tests
    re-verify where it matters.
    """
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.5, 1.5, size=count) * scale
    return dirs * radii[:, None]


def random_frame(rng, n_contacts: int = 4, time: float = 0.0) -> TrajectoryFrame:
    """Random multi-contact frame; full-rank GWS for n_contacts >= 3 generically."""
    contacts = []
    for _ in range(n_contacts):
        x = rng.uniform(-1.0, 1.0, size=3)
        n = random_unit(rng)
        f = rng.uniform(0.5, 2.0) * n + 0.2 * rng.normal(size=3)
        contacts.append(ContactPoint(position=x, normal=n, force=f))
    com = rng.uniform(-0.5, 0.5, size=3)
    return TrajectoryFrame(
        time=time,
        contacts=tuple(contacts),
        squeeze_force=float(rng.uniform(1.0, 10.0)),
        com=com,
        mass=float(rng.uniform(0.05, 2.0)),
    )


def dyadic_frame(rng, n_contacts: int = 4, time: float = 0.0) -> TrajectoryFrame:
    """Frame with power-of-two contact count on the 1/8 grid.

    Contact positions, com, and any same-grid translation vector combine
    without floating-point rounding, so translating the scene reproduces
    every wrench bitwise.
    """
    assert n_contacts in (2, 4, 8)
    contacts = []
    for _ in range(n_contacts):
        x = rng.integers(-16, 17, size=3) / 8.0
        n = random_unit(rng)
        f = rng.uniform(0.5, 2.0) * n + 0.2 * rng.normal(size=3)
        contacts.append(ContactPoint(position=x, normal=n, force=f))
    com = rng.integers(-8, 9, size=3) / 8.0
    return TrajectoryFrame(
        time=time,
        contacts=tuple(contacts),
        squeeze_force=float(rng.uniform(1.0, 10.0)),
        com=com,
        mass=float(rng.uniform(0.05, 2.0)),
    )


def translate_frame(frame: TrajectoryFrame, t: np.ndarray) -> TrajectoryFrame:
    contacts = tuple(
        ContactPoint(position=c.position + t, normal=c.normal, force=c.force)
        for c in frame.contacts
    )
    return TrajectoryFrame(
        time=frame.time,
        contacts=contacts,
        squeeze_force=frame.squeeze_force,
        com=frame.com + t,
        mass=frame.mass,
    )


def rotate_frame(frame: TrajectoryFrame, r: np.ndarray) -> TrajectoryFrame:
    contacts = tuple(
        ContactPoint(position=r @ c.position, normal=r @ c.normal, force=r @ c.force)
        for c in frame.contacts
    )
    return TrajectoryFrame(
        time=frame.time,
        contacts=contacts,
        squeeze_force=frame.squeeze_force,
        com=r @ frame.com,
        mass=frame.mass,
    )


def octahedral_rotations() -> list[np.ndarray]:
    """The 24 proper rotations made of signed axis permutations."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                r[row, col] = s
            if np.linalg.det(r) > 0.5:
                out.append(r)
    assert len(out) == 24
    return out


def antipodal_patch_frame(
    offset: float = 0.2,
    radius: float = 1.0,
    mass: float = 0.1,
    force_scale: float = 1.0,
    time: float = 0.0,
) -> TrajectoryFrame:
    """Two-finger pinch of a sphere with two contact points per finger pad.

    A single contact point per pad leaves the wrench set rank-deficient (no
    torque about the line joining the two points), so each pad carries a
    diagonal pair of contacts; the result spans all six wrench coordinates.
    """
    d = offset * radius
    contacts = []
    for sx in (1.0, -1.0):
        for dy, dz in ((d, d), (-d, -d)):
            x = np.array([sx * np.sqrt(radius**2 - dy**2 - dz**2), dy, dz])
            n = -x / np.linalg.norm(x)  # finger pushes toward the center
            contacts.append(
                ContactPoint(position=x, normal=n, force=force_scale * n)
            )
    return TrajectoryFrame(
        time=time,
        contacts=tuple(contacts),
        squeeze_force=2.0 * force_scale,
        com=np.zeros(3),
        mass=mass,
    )


def two_point_pinch_frame(mass: float = 0.1) -> TrajectoryFrame:
    """Plain antipodal pinch: always rank-deficient, every metric zero."""
    contacts = (
        ContactPoint(position=(1.0, 0.0, 0.0), normal=(-1.0, 0.0, 0.0), force=(-1.0, 0.0, 0.0)),
        ContactPoint(position=(-1.0, 0.0, 0.0), normal=(1.0, 0.0, 0.0), force=(1.0, 0.0, 0.0)),
    )
    return TrajectoryFrame(
        time=0.0, contacts=contacts, squeeze_force=1.0, com=np.zeros(3), mass=mass
    )


def tetgen_text(mesh, base=1):
    """Emit a TetMesh in the .node/.ele ASCII convention."""
    node_lines = [f"{mesh.num_nodes} 3 0 0"]
    for i, (x, y, z) in enumerate(mesh.nodes):
        node_lines.append(f"{i + base} {float(x)!r} {float(y)!r} {float(z)!r}")
    ele_lines = [f"{mesh.num_tets} 4 0"]
    for i, tet in enumerate(mesh.tets):
        idx = " ".join(str(int(t) + base) for t in tet)
        ele_lines.append(f"{i + base} {idx}")
    return "\n".join(node_lines) + "\n", "\n".join(ele_lines) + "\n"


def make_header(**overrides):
    from softgrasp import MaterialParams, TrajectoryHeader

    kw = dict(
        object_name="test-box",
        mass=0.108,
        material=MaterialParams(),
        torque_scale_rho=0.052,
    )
    kw.update(overrides)
    return TrajectoryHeader(**kw)


def make_frames(rng, count, contacts_per_frame=3):
    # exercise the full float range JSON must carry losslessly
    specials = [1.0 / 3.0, 5e-324, 1.7e308 / 1e10, -0.0, 2.5e-17]
    frames = []
    for i in range(count):
        contacts = []
        for j in range(contacts_per_frame):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            pos = rng.normal(size=3)
            pos[j % 3] = specials[(i + j) % len(specials)]
            contacts.append(ContactPoint(position=pos, normal=n, force=rng.normal(size=3)))
        frames.append(
            TrajectoryFrame(
                time=0.01 * (i + 1) + 1e-9 * rng.random(),
                contacts=tuple(contacts),
                squeeze_force=float(abs(rng.normal())),
                com=rng.normal(size=3) * 0.01,
                mass=float(rng.uniform(0.01, 2.0)),
            )
        )
    return frames


def assert_frames_equal(a, b):
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert fa.time == fb.time
        assert fa.squeeze_force == fb.squeeze_force
        assert fa.mass == fb.mass
        assert np.array_equal(fa.com, fb.com)
        assert len(fa.contacts) == len(fb.contacts)
        for ca, cb in zip(fa.contacts, fb.contacts):
            assert np.array_equal(ca.position, cb.position)
            assert np.array_equal(ca.normal, cb.normal)
            assert np.array_equal(ca.force, cb.force)


def mutate_text(rng, text):
    """Random structured corruption of a valid file."""
    lines = text.splitlines()
    choice = rng.integers(0, 6)
    if choice == 0:
        return text[: rng.integers(0, len(text) + 1)]
    if choice == 1 and lines:
        i = rng.integers(0, len(lines))
        pos = rng.integers(0, max(1, len(lines[i])))
        ch = chr(rng.integers(32, 127))
        lines[i] = lines[i][:pos] + ch + lines[i][pos + 1 :]
        return "\n".join(lines)
    if choice == 2 and len(lines) > 1:
        perm = rng.permutation(len(lines))
        return "\n".join(lines[int(p)] for p in perm)
    if choice == 3 and lines:
        i = rng.integers(0, len(lines))
        toks = lines[i].split()
        if toks:
            j = rng.integers(0, len(toks))
            toks[j] = ["-", "1e999", "NaN", '"x"', "[[", "0x1f"][rng.integers(0, 6)]
            lines[i] = " ".join(toks)
        return "\n".join(lines)
    if choice == 4:
        junk = bytes(rng.integers(32, 127, size=40)).decode("ascii")
        i = rng.integers(0, len(lines) + 1)
        lines.insert(int(i), junk)
        return "\n".join(lines)
    return text[::-1]


def make_newton_solve_singular(monkeypatch, part: str) -> None:
    """Make every Newton solve hit a singular matrix: the model's sparse
    factor, made at assembly (part "base": SuperLU's RuntimeError), or the
    capacitance matrix (part "capacitance": numpy's LinAlgError)."""
    def singular(*args):
        if part == "base":
            raise RuntimeError("Factor is exactly singular")
        raise np.linalg.LinAlgError("Singular matrix")

    if part == "base":
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    else:
        monkeypatch.setattr(np.linalg, "solve", singular)
