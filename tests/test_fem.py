import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from helpers import make_newton_solve_singular, run_python
from softgrasp import cli, fem
from softgrasp import (
    GraspCandidate,
    InvalidInputError,
    MaterialParams,
    SimConfig,
    SolverError,
    Squeeze,
    TetMesh,
    assemble_model,
    generate_primitive_mesh,
    load_trajectory,
    mesh_center_of_mass,
    quasi_static_step,
    run_squeeze,
    tet_volumes,
)

NO_PLATFORM = -10.0  # platform far below every test object

# SHA-256 of each bench mesh's nodes (float64) and tets (int64).  Every
# squeeze output depends on node order and tet orientation, so mesh
# generation must stay bit for bit (the sphere is a mapped box grid).
BENCH_MESH_SHA256 = {
    "box": ("039a33affcc83f7e3c5ba72f0274b900e7a4dfc5324991268894bac798594a28",
            "f528f13f0f7a6426ee709d7aa9f61736c0b0f454bbc92978e8c35eec5d9ebe32"),
    "slab": ("f58928fd4959a0da09b40d5c339c748a561d8dcdd4a9108c4200e5224b34652e",
             "8aa959e8b4da15e42bcb74a6e5653af7bd7fa0f1f7456db2062df34e07e7f932"),
    "cylinder": ("05cc26bb60dbb49ebbc0f90d205b719b085d6ed5206a1d763f9d66031e020cc2",
                 "7e9c06f7b2ce6f2c72e7843b9c21d4d07c19b29a06df345c7ff46cc80f319e26"),
    "sphere": ("32685c988e7e9bdefcaa06ccf6b11a90fafce637436ccd95156e82a5c83252d6",
               "8aa959e8b4da15e42bcb74a6e5653af7bd7fa0f1f7456db2062df34e07e7f932"),
}


def surface_edge_counts(faces):
    counts = {}
    for a, b, c in faces:
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            counts[key] = counts.get(key, 0) + 1
    return counts


def max_linear_strain(mesh, u):
    """Largest |entry| of the per-tet small-strain tensor for displacement u."""
    disp = u.reshape(-1, 3)
    worst = 0.0
    for tet in mesh.tets:
        x = mesh.nodes[tet]
        edges = (x[1:] - x[0]).T
        du = (disp[tet][1:] - disp[tet][0]).T
        grad = du @ np.linalg.inv(edges)
        strain = 0.5 * (grad + grad.T)
        worst = max(worst, float(np.abs(strain).max()))
    return worst


class TestMeshGeneration:
    def test_box_resolution2(self):
        m = generate_primitive_mesh("box", (1.0, 1.0, 1.0), 2)
        assert m.num_nodes == 27
        assert m.num_tets == 48
        assert m.volume() == pytest.approx(1.0, abs=1e-12)

    def test_box_volume_exact(self):
        m = generate_primitive_mesh("box", (0.06, 0.04, 0.02), 3)
        assert m.volume() == pytest.approx(0.06 * 0.04 * 0.02, rel=1e-12)

    def test_cylinder_volume(self):
        exact = np.pi * 0.5**2 * 1.0
        m = generate_primitive_mesh("cylinder", (0.5, 1.0), 3)
        assert m.volume() == pytest.approx(exact, rel=0.02)
        coarse = generate_primitive_mesh("cylinder", (0.5, 1.0), 2)
        fine = generate_primitive_mesh("cylinder", (0.5, 1.0), 4)
        err = [abs(x.volume() - exact) for x in (coarse, m, fine)]
        assert err[0] > err[1] > err[2]

    def test_sphereish_volume_default_resolution(self):
        r = 0.035
        m = generate_primitive_mesh("sphere-ish", (r,))
        assert m.volume() == pytest.approx(4.0 / 3.0 * np.pi * r**3, rel=0.05)

    @pytest.mark.parametrize(
        "kind,dims,res",
        [("box", (1, 1, 1), 2), ("cylinder", (0.5, 1.0), 2), ("sphere-ish", (1.0,), 3)],
    )
    def test_watertight_surface(self, kind, dims, res):
        m = generate_primitive_mesh(kind, dims, res)
        counts = surface_edge_counts(m.surface_faces)
        assert all(c == 2 for c in counts.values())
        # closed orientable surface of a solid ball: V - E + F = 2
        v = np.unique(m.surface_faces).size
        assert v - len(counts) + m.surface_faces.shape[0] == 2

    @pytest.mark.parametrize(
        "kind,dims,res",
        [("box", (1, 1, 1), 2), ("cylinder", (0.5, 1.0), 2), ("sphere-ish", (1.0,), 3)],
    )
    def test_surface_faces_outward(self, kind, dims, res):
        m = generate_primitive_mesh(kind, dims, res)
        corners = m.nodes[m.surface_faces]
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        centroids = corners.mean(axis=1)
        # all three primitives are star-shaped around the origin
        assert np.all(np.einsum("ij,ij->i", normals, centroids) > 0.0)

    def test_center_of_mass_origin(self):
        for kind, dims in (("box", (0.06, 0.04, 0.02)), ("sphere-ish", (1.0,))):
            m = generate_primitive_mesh(kind, dims, 3)
            com = mesh_center_of_mass(m.nodes, m.tets)
            assert np.allclose(com, 0.0, atol=1e-12)

    def test_translated(self):
        m = generate_primitive_mesh("box", (1.0, 1.0, 1.0), 2)
        t = np.array([0.5, -1.0, 2.0])
        shifted = m.translated(t)
        assert np.allclose(shifted.nodes, m.nodes + t)
        assert shifted.volume() == pytest.approx(m.volume(), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(BENCH_MESH_SHA256))
    def test_bench_meshes_golden(self, name):
        mesh = cli.bench_mesh(name)
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype=dt).tobytes()).hexdigest()
                        for a, dt in ((mesh.nodes, np.float64), (mesh.tets, np.int64)))
        assert digests == BENCH_MESH_SHA256[name]

    def test_generation_errors(self):
        with pytest.raises(InvalidInputError):
            generate_primitive_mesh("torus", (1.0,), 2)
        with pytest.raises(InvalidInputError):
            generate_primitive_mesh("box", (1.0, -1.0, 1.0), 2)
        with pytest.raises(InvalidInputError):
            generate_primitive_mesh("cylinder", (1.0,), 2)
        with pytest.raises(InvalidInputError):
            generate_primitive_mesh("sphere-ish", (1.0,), 1)
        with pytest.raises(InvalidInputError):
            generate_primitive_mesh("box", (1.0, 1.0, 1.0), 0)

    @pytest.mark.parametrize("kind, dims", [("box", (1.0, 1.0, 1.0)), ("cylinder", (0.5, 1.0)),
                                            ("sphere-ish", (1.0,))])
    def test_fractional_resolution_rejected(self, kind, dims):
        # 2.7 used to be truncated to 2; an integral float still passes
        with pytest.raises(InvalidInputError, match="resolution must be an integer"):
            generate_primitive_mesh(kind, dims, 2.7)
        whole = generate_primitive_mesh(kind, dims, 2.0)
        assert np.array_equal(whole.tets, generate_primitive_mesh(kind, dims, 2).tets)


class TestTetMeshValidation:
    def unit_tet(self):
        return np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])

    def test_single_tet(self):
        m = TetMesh(nodes=self.unit_tet(), tets=[[0, 1, 2, 3]])
        assert m.volume() == pytest.approx(1.0 / 6.0)
        assert m.surface_faces.shape == (4, 3)
        assert np.array_equal(m.surface_nodes, [0, 1, 2, 3])

    @pytest.mark.parametrize("derived", ["surface_faces", "surface_nodes"])
    def test_derived_fields_are_not_parameters(self, derived):
        # they are always derived from tets, so passing one is an error, not ignored
        with pytest.raises(TypeError, match=derived):
            TetMesh(nodes=self.unit_tet(), tets=[[0, 1, 2, 3]], **{derived: np.zeros((0, 3), dtype=int)})

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError, match="tet node index out of range"):
            TetMesh(nodes=self.unit_tet(), tets=[[0, 1, 2, 4]])

    def test_inverted_tet(self):
        with pytest.raises(InvalidInputError, match="tet 0 has non-positive volume"):
            TetMesh(nodes=self.unit_tet(), tets=[[0, 2, 1, 3]])

    def test_degenerate_tet(self):
        nodes = np.vstack([self.unit_tet(), [[0.5, 0.5, 0.0]]])
        with pytest.raises(InvalidInputError, match="tet 0 has non-positive volume"):
            TetMesh(nodes=nodes, tets=[[0, 1, 2, 4]])

    def test_overshared_face(self):
        nodes = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -1.0], [0, 0, -2.0]]
        )
        tets = [[0, 1, 2, 3], [0, 2, 1, 4], [0, 2, 1, 5]]
        with pytest.raises(InvalidInputError, match="shared by more than two tets"):
            TetMesh(nodes=nodes, tets=tets)

    def test_bad_shapes(self):
        with pytest.raises(InvalidInputError, match=re.escape("nodes must be an (n >= 4, 3) array")):
            TetMesh(nodes=self.unit_tet()[:3], tets=[[0, 1, 2, 3]])
        with pytest.raises(InvalidInputError, match=re.escape("tets must be an (m >= 1, 4) array")):
            TetMesh(nodes=self.unit_tet(), tets=np.zeros((0, 4), dtype=int))


def raised_message(fn, *args):
    with pytest.raises(InvalidInputError) as info:
        fn(*args)
    return str(info.value)


class TestSurfaceOracle:
    @pytest.mark.parametrize("name", sorted(cli.BENCH_OBJECTS))
    def test_bench_mesh_matches_loop(self, name):
        tets = cli.bench_mesh(name).tets
        got = fem._extract_surface(tets)
        want = oracles.loop_extract_surface(tets)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_shuffled_tets_match_loop(self):
        rng = np.random.default_rng(3)
        tets = cli.bench_mesh("cylinder").tets
        for _ in range(3):
            tets = tets[rng.permutation(len(tets))]
            tets = np.take_along_axis(tets, rng.permuted(np.tile(np.arange(4), (len(tets), 1)), axis=1), axis=1)
            assert fem._extract_surface(tets).tobytes() == oracles.loop_extract_surface(tets).tobytes()

    def test_node_ids_past_two_to_the_21_match_loop(self):
        # faces (2**20, a, b) and (0, a, b) of a 2**22-node mesh once shared
        # one int64 code, (k0 * n + k1) * n + k2 wrapping past 2**64
        a, b, c = 2**20 + 5, 2**20 + 7, 2**20 + 9
        tets = np.array([[2**20, a, b, 2**22 - 1], [0, a, b, c]])
        want = oracles.loop_extract_surface(tets)
        assert len(want) == 8
        assert fem._extract_surface(tets).tobytes() == want.tobytes()

    def test_face_shared_by_three_tets_raises_like_loop(self):
        # fans of three tets on faces (0, 1, 2) and (6, 7, 8); the first
        # fan's face is seen first, the second's is met a third time first
        tets = np.array([[0, 1, 2, 3], [0, 2, 1, 4], [6, 7, 8, 9], [6, 8, 7, 10], [6, 7, 8, 11], [0, 1, 2, 5]])
        message = raised_message(oracles.loop_extract_surface, tets)
        assert message == "face (6, 7, 8) shared by more than two tets"
        assert raised_message(fem._extract_surface, tets) == message
        assert raised_message(fem._extract_surface, tets[[0, 1, 5]]) == "face (0, 1, 2) shared by more than two tets"

    def test_closed_surface_raises_like_loop(self):
        tets = np.array([[0, 1, 2, 3], [0, 1, 2, 3]])
        message = raised_message(oracles.loop_extract_surface, tets)
        assert message == "mesh has no boundary faces"
        assert raised_message(fem._extract_surface, tets) == message


@pytest.fixture(scope="module")
def cube_mesh():
    return generate_primitive_mesh("box", (1.0, 1.0, 1.0), 3)


@pytest.fixture(scope="module")
def cube_stiffness(cube_mesh):
    return assemble_model(cube_mesh, MaterialParams()).stiffness


class TestAssembly:
    def test_symmetry(self, cube_stiffness):
        k = cube_stiffness
        asym = np.abs((k - k.T).toarray()).max()
        assert asym <= 1e-10 * np.abs(k.toarray()).max()

    def test_rigid_translations_in_null_space(self, cube_mesh, cube_stiffness):
        scale = np.abs(cube_stiffness.toarray()).max()
        for ax in range(3):
            u = np.zeros(3 * cube_mesh.num_nodes)
            u[ax::3] = 1.0
            assert np.abs(cube_stiffness @ u).max() <= 1e-8 * scale

    def test_rigid_rotations_in_null_space(self, cube_mesh, cube_stiffness):
        # linearized rotation u = omega x X produces zero small strain
        scale = np.abs(cube_stiffness.toarray()).max()
        for omega in np.eye(3):
            u = np.cross(np.broadcast_to(omega, cube_mesh.nodes.shape), cube_mesh.nodes)
            assert np.abs(cube_stiffness @ u.ravel()).max() <= 1e-8 * scale

    def test_uniform_strain_resisted(self, cube_mesh, cube_stiffness):
        u = cube_mesh.nodes.copy()
        u[:, 1:] = 0.0  # uniform x stretch
        f = cube_stiffness @ u.ravel()
        assert np.abs(f).max() > 1e-2 * np.abs(cube_stiffness.toarray()).max()

    def test_uniaxial_patch_test(self, cube_mesh, cube_stiffness):
        # traction sigma on the top face, bottom held vertically, lateral
        # faces free: tip displacement must match sigma * L / E
        mesh, k = cube_mesh, cube_stiffness.tolil()
        sigma, length = 1000.0, 1.0
        mat = MaterialParams()
        top = np.abs(mesh.nodes[:, 2] - 0.5) < 1e-9
        bottom = np.abs(mesh.nodes[:, 2] + 0.5) < 1e-9

        f = np.zeros(3 * mesh.num_nodes)
        for tri in mesh.surface_faces:
            if not np.all(top[tri]):
                continue
            corners = mesh.nodes[tri]
            area = 0.5 * np.linalg.norm(
                np.cross(corners[1] - corners[0], corners[2] - corners[0])
            )
            f[3 * tri + 2] += sigma * area / 3.0

        fixed = [3 * i + 2 for i in np.nonzero(bottom)[0]]
        corner = int(np.argmin(np.abs(mesh.nodes - [-0.5, -0.5, -0.5]).sum(axis=1)))
        other = int(np.argmin(np.abs(mesh.nodes - [0.5, -0.5, -0.5]).sum(axis=1)))
        fixed += [3 * corner, 3 * corner + 1, 3 * other + 1]
        free = np.setdiff1d(np.arange(3 * mesh.num_nodes), fixed)

        kk = k.tocsr()[free][:, free].tocsc()
        u = np.zeros(3 * mesh.num_nodes)
        u[free] = spla.spsolve(kk, f[free])
        tip = u[2::3][top].mean()
        assert tip == pytest.approx(sigma * length / mat.youngs_modulus, rel=0.02)

    def test_single_tet_symmetric_with_rigid_null_space(self):
        nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        k = assemble_model(TetMesh(nodes=nodes, tets=[[0, 1, 2, 3]]), MaterialParams()).stiffness.toarray()
        scale = np.abs(k).max()
        assert np.allclose(k, k.T, atol=1e-12 * scale)
        for ax in range(3):
            u = np.zeros(12)
            u[ax::3] = 1.0
            assert np.abs(k @ u).max() <= 1e-12 * scale

    def test_tet_inverted_after_construction_rejected(self):
        mesh = TetMesh(
            nodes=np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
            tets=[[0, 1, 2, 3]],
        )
        mesh.nodes[[1, 2]] = mesh.nodes[[2, 1]]  # node arrays stay mutable
        with pytest.raises(InvalidInputError, match="inverted tet during assembly"):
            assemble_model(mesh, MaterialParams())

    @pytest.mark.parametrize("name", list(cli.BENCH_OBJECTS))
    def test_int32_indices_assemble_the_int64_stiffness(self, name):
        # assemble_model builds its COO indices as int32; K must equal, entry
        # for entry, the assembly from int64 indices that coo_matrix converts
        mesh = cli.bench_mesh(name)
        mat = MaterialParams()
        k = assemble_model(mesh, mat).stiffness
        dofs = (3 * mesh.tets.astype(np.int64)[:, :, None] + np.arange(3)).reshape(-1, 12)
        rows = np.repeat(dofs, 12, axis=1).ravel()
        cols = np.tile(dofs, (1, 12)).ravel()
        ke = fem._tet_stiffness(mesh.nodes[mesh.tets], *mat.lame())
        n3 = 3 * mesh.num_nodes
        expected = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n3, n3)).tocsr()
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(k, part), getattr(expected, part)), part

    def test_assemble_model(self, cube_mesh):
        model = assemble_model(cube_mesh, MaterialParams())
        assert model.reg > 0.0
        assert model.stiffness.shape == (3 * cube_mesh.num_nodes, 3 * cube_mesh.num_nodes)
        assert model.stiffness.has_canonical_format

    def test_material_validation(self):
        with pytest.raises(InvalidInputError):
            MaterialParams(youngs_modulus=-1.0)
        with pytest.raises(InvalidInputError):
            MaterialParams(poisson_ratio=0.5)
        with pytest.raises(InvalidInputError):
            MaterialParams(friction_mu=-0.1)
        with pytest.raises(InvalidInputError):
            MaterialParams(density=0.0)

    def test_grasp_validation(self):
        with pytest.raises(InvalidInputError):
            GraspCandidate((0, 0, 0), (1.0, 1.0, 0.0), 0.05, 10.0)
        with pytest.raises(InvalidInputError):
            GraspCandidate((0, 0, 0), (1.0, 0, 0), -0.05, 10.0)
        with pytest.raises(InvalidInputError):
            GraspCandidate((0, 0, 0), (1.0, 0, 0), 0.05, 0.0)

    def test_simconfig_validation(self):
        with pytest.raises(InvalidInputError):
            SimConfig(penalty_stiffness=0.0)
        with pytest.raises(InvalidInputError):
            SimConfig(platform_height=np.inf)


@pytest.fixture(scope="module")
def box_model():
    mesh = generate_primitive_mesh("box", (0.06, 0.06, 0.06), 3)
    return assemble_model(mesh, MaterialParams())


def box_grasp(max_force=20.0):
    return GraspCandidate(
        grasp_center=(0.0, 0.0, 0.0),
        approach_axis=(1.0, 0.0, 0.0),
        finger_halfwidth=0.05,
        max_force=max_force,
    )


def pinch_config(**overrides):
    kw = dict(platform_height=NO_PLATFORM)
    kw.update(overrides)
    return SimConfig(**kw)


def on_pads(contacts):
    """Row mask of a contact record's finger-pad contacts."""
    return contacts.kind != fem.PLATFORM


def pad_normal_forces(contacts):
    """Pad A's and pad B's normal force sums of a contact record."""
    return tuple(float(contacts.fn[contacts.kind == k].sum()) for k in (fem.PAD_A, fem.PAD_B))


class TestQuasiStaticStep:
    def test_gap_wider_than_object(self, box_model):
        cfg = pinch_config()
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        u, report = quasi_static_step(box_model, Squeeze(box_model, box_grasp(), cfg), 0.2, u0, cfg)
        assert np.all(u == 0.0)
        assert not np.any(on_pads(report.contacts))
        assert pad_normal_forces(report.contacts) == (0.0, 0.0)

    def test_report_is_the_contact_record_and_solver_counts(self, box_model):
        assert [f.name for f in dataclasses.fields(fem.StepReport)] == ["contacts", "residual", "iterations"]
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        cfg = pinch_config()
        _, report = quasi_static_step(box_model, Squeeze(box_model, box_grasp(), cfg), 0.0599, u0, cfg)
        assert isinstance(report.contacts, fem._Contacts)
        assert report.squeeze_force == pad_normal_forces(report.contacts)[0] > 0.0

    def test_nonpositive_gap_rejected(self, box_model):
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        cfg = pinch_config()
        with pytest.raises(InvalidInputError):
            quasi_static_step(box_model, Squeeze(box_model, box_grasp(), cfg), 0.0, u0, cfg)

    def test_pads_bounded_laterally(self, box_model):
        # pads that never overlap the object leave it untouched
        grasp = GraspCandidate((0.0, 0.2, 0.0), (1.0, 0, 0), 0.01, 10.0)
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        cfg = pinch_config()
        u, report = quasi_static_step(box_model, Squeeze(box_model, grasp, cfg), 0.03, u0, cfg)
        assert not np.any(on_pads(report.contacts))

    def test_symmetric_step_balance(self, box_model):
        cfg = pinch_config()
        sq = Squeeze(box_model, box_grasp(), cfg)
        u = np.zeros(3 * box_model.mesh.num_nodes)
        for gap in (0.0601, 0.0599, 0.0597):
            u, report = quasi_static_step(box_model, sq, gap, u, cfg)
        assert np.any(on_pads(report.contacts))
        total = report.contacts.force.sum(axis=0)
        assert np.linalg.norm(total) <= 10.0 * cfg.convergence_tol
        fa, fb = pad_normal_forces(report.contacts)
        assert abs(fa - fb) <= 0.01 * max(fa, fb)
        assert report.residual < cfg.convergence_tol

    def test_platform_reaction(self):
        # object resting on the platform: squeezing bulges it downward and
        # the platform pushes back up
        mesh = generate_primitive_mesh("box", (0.06, 0.06, 0.06), 2).translated(
            (0.0, 0.0, 0.03)
        )
        model = assemble_model(mesh, MaterialParams())
        cfg = SimConfig(platform_height=0.0)
        sq = Squeeze(model, box_grasp(), cfg)
        u = np.zeros(3 * mesh.num_nodes)
        for gap in (0.0598, 0.0594, 0.0590):
            u, report = quasi_static_step(model, sq, gap, u, cfg)
        contacts = report.contacts
        assert contacts.force[contacts.kind == fem.PLATFORM].sum(axis=0)[2] > 0.0
        total = contacts.force.sum(axis=0)
        assert np.linalg.norm(total) <= 10.0 * cfg.convergence_tol

    def test_solver_error_carries_residual(self, box_model):
        cfg = pinch_config(convergence_tol=1e-18, max_fixedpoint_iters=2)
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        with pytest.raises(SolverError) as exc:
            quasi_static_step(box_model, Squeeze(box_model, box_grasp(), cfg), 0.058, u0, cfg)
        assert exc.value.residual > 0.0

    def test_solver_error_carries_step_counts(self, box_model, monkeypatch):
        # a deep first step on a fresh model, cut off after three passes;
        # the model's one factor is made at assembly, none by the step
        splu_calls = count_splu(monkeypatch)
        model = assemble_model(box_model.mesh, MaterialParams(friction_mu=SLIP_MU))
        assert len(splu_calls) == 1
        u0 = np.zeros(3 * model.mesh.num_nodes)
        cfg = pinch_config(max_fixedpoint_iters=3)
        with pytest.raises(SolverError) as exc:
            quasi_static_step(model, Squeeze(model, SLIP_GRASP, cfg), 0.058, u0, cfg)
        assert exc.value.iterations == 3
        assert len(splu_calls) == 1 and splu_calls[0].solved

    @pytest.mark.parametrize("part", ["base", "capacitance"])
    def test_singular_solve_raises_solver_error_with_counts(self, box_model, part, monkeypatch):
        # a singular factor fails at assembly, before any step; a singular
        # capacitance system fails the first Newton solve
        make_newton_solve_singular(monkeypatch, part)
        cfg = pinch_config()
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        with pytest.raises(SolverError, match="singular Newton system") as exc:
            model = assemble_model(box_model.mesh, box_model.mat)
            quasi_static_step(model, Squeeze(model, box_grasp(), cfg), 0.058, u0, cfg)
        if part == "base":
            assert np.isnan(exc.value.residual) and exc.value.iterations == 0
        else:
            assert exc.value.residual > cfg.convergence_tol
            assert exc.value.iterations == 1

    def test_coulomb_cap_per_contact(self, box_model):
        cfg = pinch_config()
        mu = box_model.mat.friction_mu
        u = np.zeros(3 * box_model.mesh.num_nodes)
        grasp = GraspCandidate((0.0, 0.01, 0.005), (1.0, 0, 0), 0.05, 50.0)
        sq = Squeeze(box_model, grasp, cfg)
        for gap in (0.0601, 0.0597, 0.0593):
            u, report = quasi_static_step(box_model, sq, gap, u, cfg)
        pads = on_pads(report.contacts)
        assert np.any(pads)
        for force, normal in zip(report.contacts.force[pads], report.contacts.normal[pads]):
            fn = float(force @ normal)
            ft = float(np.linalg.norm(force - fn * normal))
            assert ft <= mu * fn + 1e-9


@pytest.fixture(scope="module")
def squeeze(box_model):
    cfg = pinch_config()
    frames = run_squeeze(box_model, box_grasp(max_force=6.0), cfg)
    return frames, cfg


class TestRunSqueeze:
    def test_frames_produced(self, squeeze):
        frames, _ = squeeze
        assert len(frames) >= 3

    def test_times_strictly_increasing_on_dt_grid(self, squeeze):
        frames, cfg = squeeze
        t = np.array([f.time for f in frames])
        assert np.all(np.diff(t) > 0.0)
        steps = t / cfg.dt
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_squeeze_force_nondecreasing(self, squeeze):
        frames, cfg = squeeze
        s = np.array([f.squeeze_force for f in frames])
        assert np.all(np.diff(s) >= -cfg.convergence_tol)

    def test_stops_at_max_force(self, squeeze):
        frames, _ = squeeze
        assert frames[-1].squeeze_force >= 6.0
        assert all(f.squeeze_force < 6.0 for f in frames[:-1])

    def test_mass_constant_from_density(self, squeeze, box_model):
        frames, _ = squeeze
        expected = box_model.mat.density * box_model.mesh.volume()
        assert all(f.mass == pytest.approx(expected, rel=1e-12) for f in frames)

    def test_contact_count_nondecreasing(self, squeeze):
        frames, _ = squeeze
        counts = [len(f.contacts) for f in frames]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_coulomb_cap_all_frames(self, squeeze, box_model):
        frames, _ = squeeze
        mu = box_model.mat.friction_mu
        for f in frames:
            for c in f.contacts:
                fn = float(c.force @ c.normal)
                ft = float(np.linalg.norm(c.force - fn * c.normal))
                assert ft <= mu * fn + 1e-9

    def test_com_stays_near_center(self, squeeze):
        frames, _ = squeeze
        for f in frames:
            assert np.linalg.norm(f.com) < 0.01

    def test_energy_and_volume_sanity(self, box_model):
        # replay the squeeze step by step to watch displacement-dependent
        # quantities the frames do not carry
        mesh = box_model.mesh
        cfg = pinch_config()
        grasp = box_grasp()
        reach = float(np.max(np.abs((mesh.nodes - grasp.grasp_center) @ grasp.approach_axis)))
        gap0 = 2.0 * reach + 2.0 * cfg.displacement_increment
        u = np.zeros(3 * mesh.num_nodes)
        energies = []
        rest_volume = mesh.volume()
        sq = Squeeze(box_model, grasp, cfg)
        for step in range(1, 13):
            gap = gap0 - step * cfg.displacement_increment
            u, report = quasi_static_step(box_model, sq, gap, u, cfg)
            if not np.any(on_pads(report.contacts)):
                continue
            energies.append(0.5 * float(u @ (box_model.stiffness @ u)))
            total = report.contacts.force.sum(axis=0)
            assert np.linalg.norm(total) <= 10.0 * cfg.convergence_tol
        assert len(energies) >= 6
        e = np.array(energies)
        noise = 1e-6 * e.max() + 1e-15
        assert np.all(np.diff(e) >= -noise)
        strain = max_linear_strain(mesh, u)
        deformed = tet_volumes(mesh.nodes + u.reshape(-1, 3), mesh.tets).sum()
        assert abs(deformed - rest_volume) <= 3.0 * strain * rest_volume

    def test_miss_returns_empty_with_diagnostic(self, box_model):
        # the empty list is the whole diagnostic: rank and simulate report it
        grasp = GraspCandidate((0.0, 0.5, 0.0), (1.0, 0, 0), 0.005, 10.0)
        assert run_squeeze(box_model, grasp, pinch_config()) == []

    def test_tiny_max_force_stops_immediately(self, box_model):
        frames = run_squeeze(box_model, box_grasp(max_force=1e-6), pinch_config())
        assert len(frames) == 1
        assert frames[0].squeeze_force >= 1e-6

    def test_run_squeeze_wrapper(self):
        # one frame per squeeze_steps step, on the model it is given
        model = assemble_model(generate_primitive_mesh("box", (0.06, 0.06, 0.06), 2), MaterialParams())
        grasp, cfg = box_grasp(max_force=2.0), pinch_config()
        frames = run_squeeze(model, grasp, cfg)
        steps = list(fem.squeeze_steps(model, grasp, cfg))
        assert len(frames) == len(steps) >= 1
        assert [f.time for f in frames] == [step_idx * cfg.dt for step_idx, _, _ in steps]
        assert frames[-1].squeeze_force == steps[-1][2].squeeze_force >= 2.0

    @pytest.mark.xfail(strict=True, raises=SolverError, reason="pad edge on grid nodes: ROADMAP item 3")
    def test_pad_edge_on_grid_nodes_converges(self):
        # a 2 cm halfwidth puts the pad edges on the bench box's 1 cm node
        # grid; the Newton loop stalls at a residual near 0.18 N, while
        # halfwidths 1.9 and 2.1 cm converge to 5.2 N
        grasp = GraspCandidate((0.0, 0.0, 0.03), (1.0, 0, 0), 0.02, 5.0)
        model = assemble_model(cli.bench_mesh("box"), MaterialParams())
        frames = run_squeeze(model, grasp, SimConfig(platform_height=-1.0))
        assert frames[-1].squeeze_force >= 5.0


class TestFrameCenterOfMass:
    @pytest.mark.parametrize("entry", ["run_squeeze", "simulate"])
    def test_com_is_the_deformed_mesh_com(self, box_model, entry, monkeypatch, tmp_path):
        # the displacement of every yielded step, by step index
        us = {}
        real_steps = fem.squeeze_steps

        def steps(*args):
            for step_idx, u, report in real_steps(*args):
                us[step_idx] = u
                yield step_idx, u, report

        monkeypatch.setattr(fem, "squeeze_steps", steps)
        grasp = box_grasp(max_force=6.0)
        if entry == "simulate":
            rc = cli.RunConfig(sim=SimConfig(platform_height=NO_PLATFORM))
            out = tmp_path / "grasp.jsonl"
            cli._simulate_worker((0, box_model.mesh, grasp, rc, out, "box"))
            frames, dt = load_trajectory(out).frames, rc.sim.dt
        else:
            cfg = pinch_config()
            frames = run_squeeze(box_model, grasp, cfg)
            dt = cfg.dt
        assert len(frames) >= 3
        mesh = box_model.mesh
        for frame in frames:
            u = us[round(frame.time / dt)]
            com = mesh_center_of_mass(mesh.nodes + u.reshape(-1, 3), mesh.tets)
            assert frame.com.tobytes() == com.tobytes()


# tilted pads on a low-friction box: the contact patch slides
SLIP_MU = 0.1
SLIP_GRASP = GraspCandidate(
    (0.0, 0.01, 0.005), np.array([0.98, 0.2, 0.0]) / np.hypot(0.98, 0.2), 0.05, 2.0
)


# a tilted pinch of a box on the platform: stick and slip on all three
# surfaces, with the box's bottom edge nodes on a pad and the platform at once
PLATFORM_GRASP = GraspCandidate(
    (0.0, 0.01, 0.035), np.array([1.0, 0.2, 0.0]) / np.hypot(1.0, 0.2), 0.05, 4.0
)


class CountedFactor:
    """A SuperLU factor that records the column count of each solve."""

    def __init__(self, lu):
        self.lu = lu
        self.solved = []

    def solve(self, rhs):
        self.solved.append(rhs.shape[1] if rhs.ndim == 2 else 1)
        return self.lu.solve(rhs)


def count_splu(monkeypatch):
    """Wrap scipy.sparse.linalg.splu, which assemble_model imports at each
    call; the list fills with one CountedFactor per factorization."""
    calls = []
    original_splu = spla.splu

    def splu(a):
        calls.append(CountedFactor(original_splu(a)))
        return calls[-1]

    monkeypatch.setattr(spla, "splu", splu)
    return calls


class TestWoodburySolve:
    @pytest.mark.parametrize(
        "mu,grasp,lift,platform",
        [(0.8, box_grasp(max_force=6.0), 0.0, NO_PLATFORM), (SLIP_MU, SLIP_GRASP, 0.0, NO_PLATFORM),
         (0.8, PLATFORM_GRASP, 0.03, 0.0)],
        ids=["stick_pinch", "low_mu_slip", "platform_repeated_nodes"],
    )
    def test_converged_residual_is_the_full_space_residual(self, box_model, mu, grasp, lift, platform,
                                                           monkeypatch):
        # the contact-space residual of every converged step, against
        # f_ext(u) - K u - reg*u over all 3n dofs with the sparse K
        seen = {"steps": 0, "slip": 0, "repeated": 0}
        original = fem.quasi_static_step

        def checked(model, squeeze, gap, u_start, cfg):
            u, report = original(model, squeeze, gap, u_start, cfg)
            full = np.linalg.norm(oracles.full_space_residual(model, report.contacts, u))
            assert report.residual < cfg.convergence_tol
            assert abs(report.residual - full) <= 1e-9
            seen["steps"] += 1
            seen["slip"] += not report.contacts.stick.all()
            seen["repeated"] += np.unique(report.contacts.nodes).size < report.contacts.nodes.size
            return u, report

        monkeypatch.setattr(fem, "quasi_static_step", checked)
        model = assemble_model(box_model.mesh.translated((0.0, 0.0, lift)), MaterialParams(friction_mu=mu))
        frames = run_squeeze(model, grasp, SimConfig(platform_height=platform))
        assert len(frames) >= 3 and seen["steps"] >= 3
        assert (seen["slip"] > 0) == (mu == SLIP_MU or platform == 0.0)
        assert (seen["repeated"] > 0) == (platform == 0.0)

    def test_one_splu_per_squeeze(self, box_model, monkeypatch):
        # assembly makes the one factor, outside the counted region; the
        # squeeze factors nothing, and its LU solves are one block of
        # compliance columns per batch of nodes new to contact, nothing else
        model = assemble_model(box_model.mesh, MaterialParams(friction_mu=SLIP_MU))
        model = dataclasses.replace(model, lu=CountedFactor(model.lu))
        splu_calls = count_splu(monkeypatch)
        widths = []
        original_add = fem._add_compliance

        def add(model, squeeze, nodes):
            original_add(model, squeeze, nodes)
            widths.append(3 * nodes.size)

        monkeypatch.setattr(fem, "_add_compliance", add)
        reports = []
        original_step = fem.quasi_static_step

        def step(*args):
            u, report = original_step(*args)
            reports.append(report)
            return u, report

        monkeypatch.setattr(fem, "quasi_static_step", step)
        frames = run_squeeze(model, SLIP_GRASP, pinch_config())
        assert len(frames) >= 3
        assert splu_calls == []
        assert model.lu.solved == widths and len(widths) > 1
        assert sum(r.iterations - 1 for r in reports) > len(reports)

    def test_one_pad_frame_per_squeeze(self, box_model, monkeypatch):
        # the pad tangents are made once, by the squeeze's Squeeze, not per
        # step.  The box sits 0.1 mm into the platform, so every gap of the
        # approach is a step, and the platform-only ones make no frame
        tangents, steps = [], []
        real_tangents, real_step = fem.orthonormal_tangents, fem.quasi_static_step

        def counted_tangents(axis):
            tangents.append(1)
            return real_tangents(axis)

        def step(*args):
            steps.append(1)
            return real_step(*args)

        monkeypatch.setattr(fem, "orthonormal_tangents", counted_tangents)
        monkeypatch.setattr(fem, "quasi_static_step", step)
        model = assemble_model(box_model.mesh.translated((0.0, 0.0, 0.03)), box_model.mat)
        frames = run_squeeze(model, SEATED_GRASP, SEATED_CONFIG)
        assert len(frames) >= 3 and len(steps) > len(frames)
        assert len(tangents) == 1

    def test_compliance_rows_solved_once_per_contact_node(self, box_model, monkeypatch):
        asked, squeezes = [], []
        original = fem._add_compliance

        def recorded(model, squeeze, nodes):
            assert np.all(squeeze.compliance_slot[nodes] < 0)
            original(model, squeeze, nodes)
            asked.append(nodes)
            squeezes.append(squeeze)

        monkeypatch.setattr(fem, "_add_compliance", recorded)
        model = assemble_model(box_model.mesh.translated((0.0, 0.0, 0.03)), box_model.mat)
        for _ in fem.squeeze_steps(model, PLATFORM_GRASP, SimConfig(platform_height=0.0)):
            pass
        sq = squeezes[0]
        assert all(s is sq for s in squeezes)
        touched = np.concatenate(asked)
        assert np.array_equal(sq.compliance_nodes, touched)
        assert np.array_equal(sq.compliance_slot[touched], np.arange(touched.size))
        assert sq.compliance.shape == (3 * touched.size, 3 * model.mesh.num_nodes)
        # each row is v = A^-1 P e, A = K + reg*I and P = I - R R^T, e a
        # touched dof's unit load: against a twice-refined direct LU of the
        # bordered system [[A, R], [R^T, 0]] [v; l] = [P e; 0], which is well
        # conditioned where A is not (A's own refined solve is good to only
        # about 1e-7 in its rigid modes), and against A itself
        n3 = 3 * model.mesh.num_nodes
        dofs = fem._node_dofs(touched)
        projected = -model.rigid @ model.rigid[dofs].T
        projected[dofs, np.arange(dofs.size)] += 1.0
        a = model.stiffness + model.reg * sp.identity(n3)
        bordered = sp.bmat([[a, sp.csr_matrix(model.rigid)], [sp.csr_matrix(model.rigid.T), None]], format="csc")
        rhs = np.vstack([projected, np.zeros((6, dofs.size))])
        lu = spla.splu(bordered)
        want = lu.solve(rhs)
        for _ in range(2):
            want += lu.solve(rhs - bordered @ want)
        got = sq.compliance.T
        scale = np.abs(want[:n3]).max()
        np.testing.assert_allclose(got, want[:n3], rtol=0.0, atol=1e-12 * scale)
        assert np.abs(a @ got - projected).max() <= 1e-12
        assert np.abs(model.rigid.T @ got).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "name,stream", [(name, i) for i, name in enumerate(cli.BENCH_OBJECTS)] + [("slab", 0)],
        ids=list(cli.BENCH_OBJECTS) + ["slab_box_stream"],
    )
    def test_bench_candidates_match_direct_lu_squeeze(self, name, stream):
        # the object's candidates of a seed-0 `bench --grasps-per-object 3`
        # (stream is the object's index in the default order), squeezed
        # mid-air to the bench's desired force.  The slab drawn with the
        # box's stream adds a candidate that fails at the direct LU, and one
        # that a Woodbury solve without refinement ends 10 frames early.
        rc = cli.RunConfig()
        cfg = dataclasses.replace(rc.sim, platform_height=-1.0)
        mesh = cli.bench_mesh(name)
        model = assemble_model(mesh, rc.material)
        for cand in cli.sample_grasps(mesh, 3, np.random.default_rng([0, stream]), rc):
            grasp = dataclasses.replace(cand, max_force=rc.desired_force)
            want_status, want = oracles.direct_lu_squeeze(model, grasp, cfg)
            try:
                frames = run_squeeze(model, grasp, cfg)
            except SolverError:
                status, frames = "failed", []
            else:
                status = "ok" if frames else "empty"
            assert (status, len(frames)) == (want_status, len(want))
            for got_frame, want_frame in zip(frames, want):
                assert abs(got_frame.squeeze_force - want_frame.squeeze_force) <= cfg.convergence_tol


def step_bits(steps):
    """Every step of a squeeze_steps iterator, as bytes: its index, u and
    its report's contact record, residual and Newton passes."""
    return [
        (step_idx, u.tobytes(), report.residual, report.iterations)
        + tuple(getattr(report.contacts, name).tobytes() for name in RECORD_FIELDS)
        for step_idx, u, report in steps
    ]


class TestSharedModel:
    def test_squeezes_on_one_model_match_fresh_models(self, box_model):
        # seeded bench candidates on the res-3 box, squeezed mid-air to the
        # bench's desired force one after another on the shared model, in
        # sample order and reversed: each squeeze's steps equal, bit for
        # bit, the same squeeze on a model of its own
        rc = cli.RunConfig()
        cfg = pinch_config()
        grasps = [dataclasses.replace(c, max_force=rc.desired_force)
                  for c in cli.sample_grasps(box_model.mesh, 4, np.random.default_rng([0, 0]), rc)]
        fresh = [step_bits(fem.squeeze_steps(assemble_model(box_model.mesh, box_model.mat), g, cfg))
                 for g in grasps]
        assert all(len(steps) >= 3 for steps in fresh)
        for order in (range(4), reversed(range(4))):
            for i in order:
                assert step_bits(fem.squeeze_steps(box_model, grasps[i], cfg)) == fresh[i], i


# a box seated 0.1 mm into the platform: its first contact is the platform,
# at the first gap
SEATED_GRASP = GraspCandidate((0.0, 0.0, 0.03), (1.0, 0.0, 0.0), 0.05, 6.0)
SEATED_CONFIG = SimConfig(platform_height=1e-4)


class TestSqueezeStepsOracle:
    @pytest.mark.parametrize("case", ["pinch", "miss", "platform_first"])
    def test_steps_match_every_gap_loop(self, box_model, case, monkeypatch):
        # the same steps, bit for bit, as the loop that runs a step at every
        # gap; only the gaps before the first rest contact are not stepped
        model, grasp, cfg = box_model, box_grasp(max_force=6.0), pinch_config()
        if case == "miss":
            grasp = GraspCandidate((0.0, 0.5, 0.0), (1.0, 0, 0), 0.005, 10.0)
        elif case == "platform_first":
            model = assemble_model(box_model.mesh.translated((0.0, 0.0, 0.03)), box_model.mat)
            grasp, cfg = SEATED_GRASP, SEATED_CONFIG
        calls = []
        real_step = fem.quasi_static_step

        def step(*args):
            calls.append(args[2])
            return real_step(*args)

        monkeypatch.setattr(fem, "quasi_static_step", step)
        got = step_bits(fem.squeeze_steps(model, grasp, cfg))
        stepped = len(calls)
        want = step_bits(oracles.every_gap_squeeze_steps(model, grasp, cfg))
        assert got == want
        assert (len(got) == 0) == (case == "miss")
        skipped = len(calls) - 2 * stepped
        assert skipped == {"pinch": 2, "miss": len(calls) - stepped, "platform_first": 0}[case]


def contact_record(kind, nodes, normal, depth, stick, sdir, snorm):
    """A fem._Contacts with the given rows; fn and force, which the Jacobian
    does not read, are zero."""
    m = len(nodes)
    return fem._Contacts(
        kind=np.asarray(kind, dtype=np.int64), nodes=np.asarray(nodes, dtype=np.int64),
        normal=np.asarray(normal, dtype=float).reshape(m, 3), depth=depth, fn=np.zeros(m),
        force=np.zeros((m, 3)), stick=stick, sdir=sdir, snorm=snorm,
    )


def random_contacts(rng, snorm_scale):
    """A contact record on all three surfaces mixing stick and slip nodes,
    two of the surfaces with axis normals."""
    nodes = rng.permutation(200)
    parts = []
    for kind, normal in enumerate((np.array([1.0, 0.0, 0.0]), rng.normal(size=3), np.array([0.0, 0.0, 1.0]))):
        normal = normal / np.linalg.norm(normal)
        k = int(rng.integers(5, 15))
        stick = rng.random(k) < 0.5
        sdir = rng.normal(size=(k, 3))
        sdir -= np.outer(sdir @ normal, normal)
        sdir /= np.linalg.norm(sdir, axis=1)[:, None]
        sdir[stick] = 0.0
        parts.append((np.full(k, kind), np.tile(normal, (k, 1)), rng.uniform(1e-6, 1e-3, k), stick, sdir,
                      snorm_scale * rng.random(k)))
    kind, normal, depth, stick, sdir, snorm = (np.concatenate(f) for f in zip(*parts))
    return contact_record(kind, nodes[:kind.size], normal, depth, stick, sdir, snorm)


class TestContactBlocksOracle:
    @pytest.mark.parametrize("snorm_scale", [1e-4, 1e-12, 0.0])
    def test_matches_per_node_loop(self, snorm_scale):
        rng = np.random.default_rng(7)
        kp, mu = 1e6, 0.3
        for _ in range(5):
            contacts = random_contacts(rng, snorm_scale)
            got = fem._contact_blocks(contacts, kp, mu)
            want = oracles.loop_contact_blocks(contacts, kp, mu)
            assert got.dtype == want.dtype and got.shape == want.shape == (contacts.nodes.size, 3, 3)
            assert got.tobytes() == want.tobytes()

    def test_matches_per_node_loop_on_a_sliding_squeeze(self, box_model, monkeypatch):
        checked = []
        original = fem._contact_blocks

        def checked_blocks(contacts, kp, mu):
            got = original(contacts, kp, mu)
            want = oracles.loop_contact_blocks(contacts, kp, mu)
            checked.append(
                (np.unique(contacts.kind).size, not contacts.stick.all(),
                 got.shape == want.shape and got.tobytes() == want.tobytes())
            )
            return got

        monkeypatch.setattr(fem, "_contact_blocks", checked_blocks)
        model = assemble_model(box_model.mesh, MaterialParams(friction_mu=SLIP_MU))
        run_squeeze(model, SLIP_GRASP, pinch_config())
        assert all(same for _, _, same in checked)
        assert any(slip for _, slip, _ in checked)
        assert any(n >= 2 for n, _, _ in checked)

    def test_no_contacts_gives_no_blocks(self):
        empty = contact_record([], [], np.empty((0, 3)), np.empty(0), np.empty(0, dtype=bool),
                               np.empty((0, 3)), np.empty(0))
        assert fem._contact_blocks(empty, 1e6, 0.8).shape == (0, 3, 3)


RECORD_FIELDS = ("kind", "nodes", "normal", "depth", "fn", "force", "stick", "sdir", "snorm")


def assert_state_matches_surface_loop(contacts, *args):
    """contacts, fem._contact_state's record on args, bit for bit against
    oracles.loop_contact_state's result: the record's forces summed onto
    their nodes row by row against f_ext, and each record field against the
    pieces' values, surface after surface."""
    want_f, pieces = oracles.loop_contact_state(*args)
    f_ext = np.zeros_like(want_f)
    np.add.at(f_ext.reshape(-1, 3), contacts.nodes, contacts.force)
    assert f_ext.tobytes() == want_f.tobytes()
    for name in RECORD_FIELDS:
        got = getattr(contacts, name)
        want = [np.broadcast_to(p[name], p["nodes"].shape + got.shape[1:]) for p in pieces]
        want = np.concatenate(want) if want else np.empty_like(got)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestContactStateOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_states_match_surface_loop(self, seed):
        # a box seated just into the platform, pinched by tilted pads that
        # press into both faces; random displacements and step starts mix
        # stick and slip on every surface
        rng = np.random.default_rng([11, seed])
        mesh = generate_primitive_mesh("box", (0.06, 0.06, 0.06), 3).translated((0.0, 0.0, 0.03))
        model = assemble_model(mesh, MaterialParams(friction_mu=rng.uniform(0.2, 1.0)))
        axis = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.1, 0.1, 3)
        grasp = GraspCandidate((0.0, rng.uniform(-0.01, 0.01), 0.03), axis / np.linalg.norm(axis), 0.05, 10.0)
        cfg = SimConfig(platform_height=1e-4)
        sq = Squeeze(model, grasp, cfg)
        u = rng.normal(0.0, 2e-5, 3 * mesh.num_nodes)
        # slips from far inside to far outside the friction cones
        slip = rng.normal(size=(mesh.num_nodes, 3)) * 10.0 ** rng.uniform(-7.0, -2.0, (mesh.num_nodes, 1))
        u_start = u - slip.ravel()
        args = (model, sq, 0.0598, u, u_start, cfg)
        contacts = fem._contact_state(*args)
        assert_state_matches_surface_loop(contacts, *args)
        assert set(contacts.kind) == {fem.PAD_A, fem.PAD_B, fem.PLATFORM}
        for kind in (fem.PAD_A, fem.PAD_B, fem.PLATFORM):
            stick = contacts.stick[contacts.kind == kind]
            assert stick.any() and not stick.all()

    def test_no_contact_matches_surface_loop(self, box_model):
        cfg = pinch_config()
        sq = Squeeze(box_model, box_grasp(), cfg)
        u = np.zeros(3 * box_model.mesh.num_nodes)
        args = (box_model, sq, 0.2, u, u, cfg)
        contacts = fem._contact_state(*args)
        assert_state_matches_surface_loop(contacts, *args)
        assert contacts.nodes.size == 0

    @pytest.mark.parametrize("case", ["midair_pinch", "squeeze_platform_box00"])
    def test_every_state_matches_stacked_state(self, box_model, case, monkeypatch, request):
        # every contact state of a squeeze, field for field and byte for
        # byte, against the record built by stacking and masking the three
        # surfaces
        if case == "midair_pinch":
            # tilted pads sliding on a low-friction box
            model = assemble_model(box_model.mesh, MaterialParams(friction_mu=SLIP_MU))
            grasp, cfg = SLIP_GRASP, pinch_config()
        else:
            # the benchmark's seed-0 squeeze-platform candidate box/00: the
            # bench box on the platform, squeezed to 15 N.  The benchmark
            # runs it on one BLAS thread; the squeeze's dense solves sum in a
            # thread-dependent order, and on two threads it does not converge
            # (see README), so under any other count this case reruns in a
            # fresh interpreter on one thread
            if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
                test_id = f"{__file__}::{request.node.nodeid.split('::', 1)[1]}"
                proc = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", test_id,
                                  OPENBLAS_NUM_THREADS="1")
                assert proc.returncode == 0 and re.search(r"^1 passed", proc.stdout, re.M), proc.stdout + proc.stderr
                return
            rc = cli.RunConfig()
            mesh = cli.bench_mesh("box")
            model, cfg = assemble_model(mesh, rc.material), rc.sim
            grasp = dataclasses.replace(
                cli.sample_grasps(mesh, 1, np.random.default_rng([0, 0]), rc)[0], max_force=15.0)
        seen = []
        original = fem._contact_state

        def checked(*args):
            got = original(*args)
            want = oracles.stacked_contact_state(*args)
            for name in RECORD_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
            seen.append((fem.PLATFORM in got.kind, not got.stick.all()))
            return got

        monkeypatch.setattr(fem, "_contact_state", checked)
        assert len(run_squeeze(model, grasp, cfg)) >= 3
        assert any(slip for _, slip in seen)
        assert any(platform for platform, _ in seen) == (case != "midair_pinch")

    def test_every_state_of_a_platform_squeeze_matches_surface_loop(self, box_model, monkeypatch):
        # the tilted pinch of a box on the platform
        kinds = []
        original = fem._contact_state

        def checked(*args):
            contacts = original(*args)
            assert_state_matches_surface_loop(contacts, *args)
            kinds.append(set(contacts.kind))
            return contacts

        monkeypatch.setattr(fem, "_contact_state", checked)
        model = assemble_model(box_model.mesh.translated((0.0, 0.0, 0.03)), box_model.mat)
        frames = run_squeeze(model, PLATFORM_GRASP, SimConfig(platform_height=0.0))
        assert len(frames) >= 3
        assert {fem.PAD_A, fem.PAD_B, fem.PLATFORM} in kinds
