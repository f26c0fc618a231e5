import json

import numpy as np
import pytest

import oracles
from helpers import (
    assert_frames_equal,
    make_frames,
    make_header,
    mutate_text,
    tetgen_text,
)
from softgrasp import (
    ContactPoint,
    GraspCandidate,
    InvalidInputError,
    MaterialParams,
    ParseError,
    TrajectoryFrame,
    TrajectoryHeader,
    load_grasp_candidates,
    load_tet_mesh,
    load_trajectory,
    parse_grasp_candidates,
    parse_tet_mesh,
    read_trajectory,
    save_trajectory,
    write_grasp_candidates,
    write_trajectory,
)


class TestTrajectoryRoundTrip:
    def test_small_round_trip(self, rng):
        header = make_header()
        frames = make_frames(rng, 5)
        out = read_trajectory(write_trajectory(frames, header))
        assert out.header == header
        assert_frames_equal(out.frames, frames)

    def test_thousand_frame_round_trip(self, rng):
        frames = make_frames(rng, 1000, contacts_per_frame=2)
        out = read_trajectory(write_trajectory(frames, make_header()))
        assert_frames_equal(out.frames, frames)

    def test_empty_frame_list(self):
        header = make_header()
        text = write_trajectory([], header)
        assert text.count("\n") == 1
        out = read_trajectory(text)
        assert out.header == header
        assert out.frames == ()

    def test_header_takes_no_version(self):
        # the writer always writes TRAJECTORY_VERSION, the one version the reader reads
        with pytest.raises(TypeError):
            make_header(version=2)
        assert '"version": 1,' in write_trajectory([], make_header())

    @pytest.mark.parametrize("key, value", [
        ("mass", 0.0), ("mass", -1.0), ("mass", np.inf), ("mass", np.nan),
        ("torque_scale_rho", -1.0), ("torque_scale_rho", 0.0), ("torque_scale_rho", np.inf),
    ])
    def test_header_bounds(self, key, value):
        # the header refuses what read_trajectory refuses, so no file is
        # written that cannot be read back
        with pytest.raises(InvalidInputError, match=f"{key} must be > 0"):
            make_header(**{key: value})

    def test_valid_header_round_trips_unchanged(self):
        header = make_header(mass=2, torque_scale_rho=0.5)
        assert (type(header.mass), type(header.torque_scale_rho)) == (float, float)
        assert read_trajectory(write_trajectory([], header)).header == header

    def test_file_round_trip(self, tmp_path, rng):
        path = tmp_path / "traj.jsonl"
        frames = make_frames(rng, 7)
        save_trajectory(path, frames, make_header())
        out = load_trajectory(path)
        assert_frames_equal(out.frames, frames)


class TestTrajectoryErrors:
    def valid_text(self, rng, count=3):
        return write_trajectory(make_frames(rng, count), make_header())

    def test_empty_input(self):
        with pytest.raises(ParseError, match="line 1"):
            read_trajectory("")

    def test_wrong_format_marker(self):
        with pytest.raises(ParseError, match="not a trajectory"):
            read_trajectory('{"format": "something-else", "version": 1}\n')

    def test_unsupported_version(self, rng):
        text = self.valid_text(rng)
        head = json.loads(text.splitlines()[0])
        head["version"] = 99
        bad = "\n".join([json.dumps(head)] + text.splitlines()[1:])
        with pytest.raises(ParseError, match="unsupported trajectory version 99"):
            read_trajectory(bad)

    @pytest.mark.parametrize("key, value", [
        ("mass", -1.0), ("mass", 0.0), ("torque_scale_rho", -0.05), ("torque_scale_rho", 0.0),
    ])
    def test_header_value_not_positive(self, key, value, rng):
        lines = self.valid_text(rng).splitlines()
        head = json.loads(lines[0])
        head[key] = value
        with pytest.raises(ParseError, match=f"{key} must be > 0") as exc:
            read_trajectory("\n".join([json.dumps(head)] + lines[1:]))
        assert exc.value.line == 1

    def test_truncated_last_line_reports_progress(self, rng):
        text = self.valid_text(rng, count=4)
        bad = text.rstrip("\n")[:-20]
        with pytest.raises(ParseError, match=r"parsed 3 valid frames") as exc:
            read_trajectory(bad)
        assert exc.value.line == 5

    def test_non_increasing_times(self, rng):
        frames = make_frames(rng, 3)
        lines = write_trajectory(frames, make_header()).splitlines()
        lines.append(lines[1])  # re-emit the first frame at the end
        with pytest.raises(ParseError, match="increase strictly") as exc:
            read_trajectory("\n".join(lines))
        assert exc.value.line == 5

    def test_rejects_json_nan(self, rng):
        text = self.valid_text(rng, count=1)
        bad = text.replace(text.splitlines()[1][:10], '{"t": NaN,', 1)
        lines = text.splitlines()
        rec = json.loads(lines[1])
        lines[1] = lines[1].replace(f'"t": {rec["t"]}', '"t": NaN')
        with pytest.raises(ParseError):
            read_trajectory("\n".join(lines))
        del bad

    def test_missing_field(self, rng):
        lines = self.valid_text(rng, count=1).splitlines()
        rec = json.loads(lines[1])
        del rec["com"]
        lines[1] = json.dumps(rec)
        with pytest.raises(ParseError, match="com"):
            read_trajectory("\n".join(lines))

    def test_bad_contact_normal(self, rng):
        lines = self.valid_text(rng, count=1).splitlines()
        rec = json.loads(lines[1])
        rec["contacts"][0]["n"] = [2.0, 0.0, 0.0]
        lines[1] = json.dumps(rec)
        with pytest.raises(ParseError, match="bad contact"):
            read_trajectory("\n".join(lines))

    @pytest.mark.parametrize("bad", [["1", 0, 0], [True, False, False]])
    @pytest.mark.parametrize("field", ["com", "x", "n", "f"])
    def test_vector_field_rejects_strings_and_booleans(self, field, bad, rng):
        # JSON strings and booleans are not numbers, even where they would
        # convert to a valid vector
        lines = self.valid_text(rng, count=2).splitlines()
        rec = json.loads(lines[2])
        (rec if field == "com" else rec["contacts"][0])[field] = bad
        lines[2] = json.dumps(rec)
        with pytest.raises(ParseError, match=f"^line 3: field '{field}' must be a list of 3 numbers") as exc:
            read_trajectory("\n".join(lines))
        assert exc.value.line == 3

    @pytest.mark.parametrize("field", ["t", "mass", "x", "com"])
    def test_number_too_large_for_a_float(self, field, rng):
        lines = self.valid_text(rng, count=1).splitlines()
        rec = json.loads(lines[1])
        huge = 10 ** 400
        if field in ("t", "mass"):
            rec[field] = huge
        else:
            (rec if field == "com" else rec["contacts"][0])[field] = [huge, 0, 0]
        lines[1] = json.dumps(rec)
        with pytest.raises(ParseError, match="^line 2: bad (frame|contact)") as exc:
            read_trajectory("\n".join(lines))
        assert exc.value.line == 2

    def test_record_not_object(self, rng):
        text = self.valid_text(rng, count=1) + "[1, 2, 3]\n"
        with pytest.raises(ParseError, match="not an object"):
            read_trajectory(text)

    def test_non_text_input(self):
        with pytest.raises(ParseError):
            read_trajectory(b"bytes")  # type: ignore[arg-type]


UNIT_TET_NODE = """# unit right tetrahedron
4 3 0 0
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 0.0 1.0 0.0
4 0.0 0.0 1.0
"""

UNIT_TET_ELE = """1 4 0
1 1 2 3 4
"""


class TestTetgenParsing:
    def test_single_tet(self):
        mesh = parse_tet_mesh(UNIT_TET_NODE, UNIT_TET_ELE)
        assert mesh.num_nodes == 4
        assert mesh.num_tets == 1
        assert mesh.volume() == pytest.approx(1.0 / 6.0)

    def test_zero_based_equivalent(self):
        node0 = UNIT_TET_NODE.replace("\n1 0.0", "\n0 0.0").replace("\n2 1.0", "\n1 1.0")
        node0 = node0.replace("\n3 0.0 1.0", "\n2 0.0 1.0").replace("\n4 0.0 0.0 1.0", "\n3 0.0 0.0 1.0")
        ele0 = "1 4 0\n0 0 1 2 3\n"
        a = parse_tet_mesh(UNIT_TET_NODE, UNIT_TET_ELE)
        b = parse_tet_mesh(node0, ele0)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.tets, b.tets)

    def test_comments_and_blanks_ignored(self):
        node = "# header comment\n\n" + UNIT_TET_NODE + "\n# trailing\n"
        ele = UNIT_TET_ELE.replace("\n1 1", "  # inline\n1 1")
        mesh = parse_tet_mesh(node, ele)
        assert mesh.num_tets == 1

    def test_generated_mesh_round_trip(self):
        from softgrasp import generate_primitive_mesh

        mesh = generate_primitive_mesh("box", (0.06, 0.04, 0.02), 2)
        for base in (0, 1):
            node_text, ele_text = tetgen_text(mesh, base=base)
            out = parse_tet_mesh(node_text, ele_text)
            assert np.array_equal(out.nodes, mesh.nodes)
            assert np.array_equal(out.tets, mesh.tets)

    def test_unknown_node_reference_line(self):
        ele = "1 4 0\n1 1 2 3 9\n"
        with pytest.raises(ParseError, match="unknown node 9") as exc:
            parse_tet_mesh(UNIT_TET_NODE, ele)
        assert exc.value.line == 2

    def test_non_numeric_coordinate_line(self):
        node = UNIT_TET_NODE.replace("3 0.0 1.0 0.0", "3 0.0 oops 0.0")
        with pytest.raises(ParseError, match="oops") as exc:
            parse_tet_mesh(node, UNIT_TET_ELE)
        assert exc.value.line == 5  # leading comment shifts node 3 to line 5

    def test_inverted_tet_line(self):
        ele = "1 4 0\n1 1 3 2 4\n"
        with pytest.raises(ParseError, match="inverted") as exc:
            parse_tet_mesh(UNIT_TET_NODE, ele)
        assert exc.value.line == 2

    def test_count_mismatch(self):
        node = UNIT_TET_NODE.replace("4 3 0 0", "5 3 0 0")
        with pytest.raises(ParseError, match="does not match"):
            parse_tet_mesh(node, UNIT_TET_ELE)

    def test_wrong_dimension(self):
        node = UNIT_TET_NODE.replace("4 3 0 0", "4 2 0 0")
        with pytest.raises(ParseError, match="3D"):
            parse_tet_mesh(node, UNIT_TET_ELE)

    def test_wrong_nodes_per_tet(self):
        ele = UNIT_TET_ELE.replace("1 4 0", "1 10 0")
        with pytest.raises(ParseError, match="4-node"):
            parse_tet_mesh(UNIT_TET_NODE, ele)

    def test_duplicate_node_index(self):
        node = UNIT_TET_NODE.replace("\n3 0.0 1.0", "\n2 0.0 1.0")
        with pytest.raises(ParseError, match="duplicate"):
            parse_tet_mesh(node, UNIT_TET_ELE)

    def test_first_index_must_anchor_base(self):
        node = UNIT_TET_NODE.replace("\n1 0.0 0.0 0.0", "\n2 0.0 0.0 0.0")
        with pytest.raises(ParseError, match="0 or 1"):
            parse_tet_mesh(node, UNIT_TET_ELE)
        # consistent 2-based numbering: every index in range, none repeated
        node, ele = tetgen_text(parse_tet_mesh(UNIT_TET_NODE, UNIT_TET_ELE), base=2)
        with pytest.raises(ParseError, match="first node index must be 0 or 1, got 2") as exc:
            parse_tet_mesh(node, ele)
        assert exc.value.line == 2

    def test_short_node_line(self):
        node = UNIT_TET_NODE.replace("4 0.0 0.0 1.0", "4 0.0 0.0")
        with pytest.raises(ParseError):
            parse_tet_mesh(node, UNIT_TET_ELE)

    def test_load_from_files(self, tmp_path):
        npath = tmp_path / "m.node"
        epath = tmp_path / "m.ele"
        npath.write_text(UNIT_TET_NODE)
        epath.write_text(UNIT_TET_ELE)
        mesh = load_tet_mesh(npath, epath)
        assert mesh.volume() == pytest.approx(1.0 / 6.0)


def decorated_tetgen_text(mesh, base):
    """tetgen_text of mesh with what Tetgen files may also hold: comment
    lines, trailing comments, blank lines, whitespace runs and the optional
    attribute and boundary-marker columns."""
    node, ele = tetgen_text(mesh, base)
    node_lines = node.splitlines()
    node_lines[0] = f"{mesh.num_nodes} 3 1 1  # nodes, dim, attributes, markers"
    node_lines[1:] = [f"{line}\t0.5 {i % 2}" + ("  # corner" if i % 7 == 0 else "")
                      for i, line in enumerate(node_lines[1:])]
    ele_lines = ele.splitlines()
    ele_lines[0] = f"{mesh.num_tets}  4  1"
    ele_lines[1:] = [f"  {line} {i % 3}" for i, line in enumerate(ele_lines[1:])]
    return ("# Tetgen node file\n\n" + "\n".join(node_lines) + "\n\n",
            "\n".join(ele_lines[:2]) + "\n   \n# a comment\n" + "\n".join(ele_lines[2:]) + "\n")


def parse_outcome(parse, node, ele):
    """A parse's mesh as the bytes, dtype and shape of its nodes and tets,
    or its ParseError's message and line."""
    try:
        mesh = parse(node, ele)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "mesh", mesh.nodes.tobytes(), mesh.nodes.dtype, mesh.nodes.shape, mesh.tets.tobytes(), \
        mesh.tets.dtype, mesh.tets.shape


class TestTetgenParserOracle:
    @pytest.fixture(scope="class")
    def bench_texts(self):
        from softgrasp import cli

        return {(name, base): decorated_tetgen_text(cli.bench_mesh(name), base)
                for name in cli.BENCH_OBJECTS for base in (0, 1)}

    def test_bench_meshes_match_line_reader(self, bench_texts):
        for (name, base), (node, ele) in bench_texts.items():
            got = parse_outcome(parse_tet_mesh, node, ele)
            assert got[0] == "mesh", (name, base)
            assert got == parse_outcome(oracles.line_parse_tet_mesh, node, ele), (name, base)

    def test_mutations_match_line_reader(self, bench_texts):
        # 500 mutated copies of the bench texts, then each text with one or
        # two edited tokens: the same mesh bytes, or the same ParseError
        # message and line, as the line-by-line reader
        rng = np.random.default_rng(34)
        keys = list(bench_texts)
        cases = []
        for _ in range(500):
            node, ele = bench_texts[keys[rng.integers(len(keys))]]
            which = rng.integers(3)
            cases.append((mutate_text(rng, node) if which != 1 else node,
                          mutate_text(rng, ele) if which != 0 else ele))
        huge = "99999999999999999999"  # past int64
        for (_, base), (node, ele) in bench_texts.items():
            past = str(base + len(data_line_numbers(node)) - 1)  # one past the last node index
            node_edits = [[(1, 0, huge)], [(5, 0, huge)], [(5, 0, "-" + huge)], [(5, 0, str(base + 2))],
                          [(5, 0, past)], [(5, 0, str(base - 1))], [(7, 2, "1e999")], [(7, 3, "nan")], [(7, 1, "-inf")],
                          [(9, 3, "1,5")], [(9, 0, huge), (4, 2, "nan")], [(6, 0, "3.0")], [(6, 3, None)]]
            ele_edits = [[(3, 2, huge)], [(3, 1, "x")], [(3, 4, str(base - 1))], [(3, 3, past)], [(6, 4, None)],
                         [(3, 1, "x"), (2, 3, huge)]]
            cases += [(edit_tokens(node, edits), ele) for edits in node_edits]
            cases += [(node, edit_tokens(ele, edits)) for edits in ele_edits]
            cases.append((node, swap_refs(ele, 3)))
            cases.append((node, repeat_line(ele, 4)))
            cases.append((edit_tokens(node, [(8, 1, "nan")]), edit_tokens(ele, [(1, 1, huge)])))
        messages = []
        for node, ele in cases:
            want = parse_outcome(oracles.line_parse_tet_mesh, node, ele)
            assert parse_outcome(parse_tet_mesh, node, ele) == want
            if want[0] == "error":
                messages.append(want[1])
        for part in ("first node index must be 0 or 1, got 99999999999999999999",
                     "node index 99999999999999999999 out of range", "node index -99999999999999999999 out",
                     "duplicate node index", "non-integer node index", "non-numeric coordinate",
                     "non-finite coordinate '1e999'", "non-finite coordinate 'nan'",
                     "non-integer tet node index", "tet references unknown node 99999999999999999999",
                     "node line needs", "tet line needs", "inverted or flat tet", "shared by more than two tets"):
            assert any(part in m for m in messages), part


def data_line_numbers(text):
    """The 0-based numbers of text's lines that hold a token before any '#'."""
    return [i for i, line in enumerate(text.split("\n")) if line.split("#", 1)[0].split()]


def edit_tokens(text, edits):
    """text with, for each (row, col, token) of edits, token col of its
    row-th data line (0: the header) replaced, or cut from there on when
    token is None."""
    lines = text.split("\n")
    rows = data_line_numbers(text)
    for row, col, token in edits:
        toks = lines[rows[row]].split("#", 1)[0].split()
        if token is None:
            del toks[col:]
        else:
            toks[col] = token
        lines[rows[row]] = " ".join(toks)
    return "\n".join(lines)


def swap_refs(ele, row):
    """ele with the first two node references of its row-th tet swapped,
    which turns the tet inside out."""
    toks = ele.split("\n")[data_line_numbers(ele)[row]].split()
    return edit_tokens(ele, [(row, 1, toks[2]), (row, 2, toks[1])])


def repeat_line(ele, row):
    """ele with its row-th tet's references copied onto the next tet, so
    that tet's faces each join a third tet."""
    toks = ele.split("\n")[data_line_numbers(ele)[row]].split()
    return edit_tokens(ele, [(row + 1, col, toks[col]) for col in range(1, 5)])


class TestGraspCandidates:
    def candidates(self):
        return [
            GraspCandidate((0.0, 0.0, 0.01), (1.0, 0.0, 0.0), 0.03, 15.0),
            GraspCandidate((0.01, -0.02, 0.0), (0.0, 0.0, 1.0), 0.02, 5.0),
        ]

    def test_round_trip(self):
        cands = self.candidates()
        out = parse_grasp_candidates(write_grasp_candidates(cands))
        assert len(out) == len(cands)
        for a, b in zip(out, cands):
            assert np.array_equal(a.grasp_center, b.grasp_center)
            assert np.array_equal(a.approach_axis, b.approach_axis)
            assert a.finger_halfwidth == b.finger_halfwidth
            assert a.max_force == b.max_force

    def test_slightly_off_axis_normalized_with_warning(self, caplog):
        line = json.dumps(
            {"center": [0, 0, 0], "axis": [1.0 + 5e-4, 0.0, 0.0], "halfwidth": 0.02, "max_force": 5.0}
        )
        with caplog.at_level("WARNING", logger="softgrasp.fileio"):
            out = parse_grasp_candidates(line + "\n")
        assert np.linalg.norm(out[0].approach_axis) == pytest.approx(1.0, abs=1e-12)
        assert [r.getMessage() for r in caplog.records] == ["grasp line 1: axis normalized (norm was 1.000500)"]

    def test_exact_axis_no_warning(self, caplog):
        text = write_grasp_candidates(self.candidates())
        with caplog.at_level("DEBUG"):
            parse_grasp_candidates(text)
        assert caplog.records == []

    def test_far_off_axis_rejected(self):
        line = json.dumps(
            {"center": [0, 0, 0], "axis": [1.1, 0.0, 0.0], "halfwidth": 0.02, "max_force": 5.0}
        )
        with pytest.raises(ParseError, match="axis norm"):
            parse_grasp_candidates(line + "\n")

    def test_invalid_candidate_values(self):
        line = json.dumps(
            {"center": [0, 0, 0], "axis": [1.0, 0, 0], "halfwidth": -0.02, "max_force": 5.0}
        )
        with pytest.raises(ParseError, match="bad grasp candidate"):
            parse_grasp_candidates(line + "\n")

    @pytest.mark.parametrize("bad", [["1", 0, 0], [True, False, False]])
    @pytest.mark.parametrize("field", ["center", "axis"])
    def test_vector_field_rejects_strings_and_booleans(self, field, bad):
        rec = {"center": [0, 0, 0], "axis": [1.0, 0, 0], "halfwidth": 0.02, "max_force": 5.0}
        rec[field] = bad
        text = write_grasp_candidates(self.candidates()) + json.dumps(rec) + "\n"
        with pytest.raises(ParseError, match=f"^line 3: field '{field}' must be a list of 3 numbers"):
            parse_grasp_candidates(text)

    @pytest.mark.parametrize("field", ["center", "axis", "halfwidth"])
    def test_number_too_large_for_a_float(self, field):
        rec = {"center": [0, 0, 0], "axis": [1.0, 0, 0], "halfwidth": 0.02, "max_force": 5.0}
        rec[field] = 10 ** 400 if field == "halfwidth" else [10 ** 400, 0, 0]
        with pytest.raises(ParseError, match="^line 1: bad grasp candidate"):
            parse_grasp_candidates(json.dumps(rec) + "\n")

    def test_old_force_steps_key_ignored(self):
        # files written before the unused force schedule was dropped still load
        line = json.dumps(
            {"center": [0, 0, 0], "axis": [1.0, 0, 0], "halfwidth": 0.02, "max_force": 5.0, "force_steps": 4}
        )
        (cand,) = parse_grasp_candidates(line + "\n")
        assert cand.max_force == 5.0
        assert "force_steps" not in write_grasp_candidates([cand])

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no grasp candidates"):
            parse_grasp_candidates("\n\n")

    def test_blank_lines_skipped(self):
        text = "\n" + write_grasp_candidates(self.candidates()).replace("\n", "\n\n")
        assert len(parse_grasp_candidates(text)) == 2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "grasps.jsonl"
        path.write_text(write_grasp_candidates(self.candidates()))
        assert len(load_grasp_candidates(path)) == 2


class TestFuzzNeverCrashes:
    def test_trajectory_fuzz(self, rng):
        base = write_trajectory(make_frames(rng, 3), make_header())
        for _ in range(200):
            try:
                read_trajectory(mutate_text(rng, base))
            except ParseError:
                pass

    def test_tetgen_fuzz(self, rng):
        from softgrasp import generate_primitive_mesh

        node, ele = tetgen_text(generate_primitive_mesh("box", (1, 1, 1), 1))
        for _ in range(200):
            try:
                parse_tet_mesh(mutate_text(rng, node), mutate_text(rng, ele))
            except ParseError:
                pass

    def test_grasp_fuzz(self, rng):
        base = write_grasp_candidates(
            [GraspCandidate((0, 0, 0), (0.0, 1.0, 0.0), 0.05, 10.0)]
        )
        for _ in range(200):
            try:
                parse_grasp_candidates(mutate_text(rng, base))
            except ParseError:
                pass
