import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from softgrasp import cli, fem
from softgrasp import (
    GraspCandidate,
    InvalidInputError,
    MaterialParams,
    MeshError,
    SimConfig,
    SolverError,
    TetMesh,
    assemble_model,
    assemble_stiffness,
    generate_primitive_mesh,
    load_trajectory,
    mesh_center_of_mass,
    quasi_static_step,
    run_squeeze,
    tet_volumes,
)

NO_PLATFORM = -10.0  # platform far below every test object


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


class TestTetMeshValidation:
    def unit_tet(self):
        return np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])

    def test_single_tet(self):
        m = TetMesh(nodes=self.unit_tet(), tets=[[0, 1, 2, 3]])
        assert m.volume() == pytest.approx(1.0 / 6.0)
        assert m.surface_faces.shape == (4, 3)
        assert np.array_equal(m.surface_nodes, [0, 1, 2, 3])

    def test_index_out_of_range(self):
        with pytest.raises(MeshError):
            TetMesh(nodes=self.unit_tet(), tets=[[0, 1, 2, 4]])

    def test_inverted_tet(self):
        with pytest.raises(MeshError, match="volume"):
            TetMesh(nodes=self.unit_tet(), tets=[[0, 2, 1, 3]])

    def test_degenerate_tet(self):
        nodes = np.vstack([self.unit_tet(), [[0.5, 0.5, 0.0]]])
        with pytest.raises(MeshError, match="volume"):
            TetMesh(nodes=nodes, tets=[[0, 1, 2, 4]])

    def test_overshared_face(self):
        nodes = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -1.0], [0, 0, -2.0]]
        )
        tets = [[0, 1, 2, 3], [0, 2, 1, 4], [0, 2, 1, 5]]
        with pytest.raises(MeshError, match="shared"):
            TetMesh(nodes=nodes, tets=tets)

    def test_bad_shapes(self):
        with pytest.raises(MeshError):
            TetMesh(nodes=self.unit_tet()[:3], tets=[[0, 1, 2, 3]])
        with pytest.raises(MeshError):
            TetMesh(nodes=self.unit_tet(), tets=np.zeros((0, 4), dtype=int))


def raised_message(fn, *args):
    with pytest.raises(MeshError) as info:
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
    return assemble_stiffness(cube_mesh, MaterialParams())


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
        k = assemble_stiffness(TetMesh(nodes=nodes, tets=[[0, 1, 2, 3]]), MaterialParams()).toarray()
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
        with pytest.raises(MeshError, match="inverted"):
            assemble_stiffness(mesh, MaterialParams())

    def test_assemble_model(self, cube_mesh):
        model = assemble_model(cube_mesh, MaterialParams())
        assert model.reg > 0.0
        assert model.stiffness.shape == (3 * cube_mesh.num_nodes, 3 * cube_mesh.num_nodes)

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


class TestQuasiStaticStep:
    def test_gap_wider_than_object(self, box_model):
        cfg = pinch_config()
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        u, report = quasi_static_step(box_model, box_grasp(), 0.2, u0, cfg)
        assert np.all(u == 0.0)
        assert report.contacts == ()
        assert report.finger_normal_forces == (0.0, 0.0)

    def test_nonpositive_gap_rejected(self, box_model):
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        with pytest.raises(InvalidInputError):
            quasi_static_step(box_model, box_grasp(), 0.0, u0, pinch_config())

    def test_pads_bounded_laterally(self, box_model):
        # pads that never overlap the object leave it untouched
        grasp = GraspCandidate((0.0, 0.2, 0.0), (1.0, 0, 0), 0.01, 10.0)
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        u, report = quasi_static_step(box_model, grasp, 0.03, u0, pinch_config())
        assert report.contacts == ()

    def test_symmetric_step_balance(self, box_model):
        cfg = pinch_config()
        u = np.zeros(3 * box_model.mesh.num_nodes)
        for gap in (0.0601, 0.0599, 0.0597):
            u, report = quasi_static_step(box_model, box_grasp(), gap, u, cfg)
        assert len(report.contacts) > 0
        total = sum(c.force for c in report.contacts) + report.platform_force
        assert np.linalg.norm(total) <= 10.0 * cfg.convergence_tol
        fa, fb = report.finger_normal_forces
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
        u = np.zeros(3 * mesh.num_nodes)
        for gap in (0.0598, 0.0594, 0.0590):
            u, report = quasi_static_step(model, box_grasp(), gap, u, cfg)
        assert report.platform_force[2] > 0.0
        total = sum(c.force for c in report.contacts) + report.platform_force
        assert np.linalg.norm(total) <= 10.0 * cfg.convergence_tol

    def test_solver_error_carries_residual(self, box_model):
        cfg = pinch_config(convergence_tol=1e-18, max_fixedpoint_iters=2)
        u0 = np.zeros(3 * box_model.mesh.num_nodes)
        with pytest.raises(SolverError) as exc:
            quasi_static_step(box_model, box_grasp(), 0.058, u0, cfg)
        assert exc.value.residual > 0.0

    def test_coulomb_cap_per_contact(self, box_model):
        cfg = pinch_config()
        mu = box_model.mat.friction_mu
        u = np.zeros(3 * box_model.mesh.num_nodes)
        grasp = GraspCandidate((0.0, 0.01, 0.005), (1.0, 0, 0), 0.05, 50.0)
        for gap in (0.0601, 0.0597, 0.0593):
            u, report = quasi_static_step(box_model, grasp, gap, u, cfg)
        assert len(report.contacts) > 0
        for c in report.contacts:
            fn = float(c.force @ c.normal)
            ft = float(np.linalg.norm(c.force - fn * c.normal))
            assert ft <= mu * fn + 1e-9


@pytest.fixture(scope="module")
def squeeze(box_model):
    cfg = pinch_config()
    frames = run_squeeze(box_model.mesh, box_model.mat, box_grasp(max_force=6.0), cfg)
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
        for step in range(1, 13):
            gap = gap0 - step * cfg.displacement_increment
            u, report = quasi_static_step(box_model, grasp, gap, u, cfg)
            if len(report.contacts) == 0:
                continue
            energies.append(0.5 * float(u @ (box_model.stiffness @ u)))
            total = sum(c.force for c in report.contacts) + report.platform_force
            assert np.linalg.norm(total) <= 10.0 * cfg.convergence_tol
        assert len(energies) >= 6
        e = np.array(energies)
        noise = 1e-6 * e.max() + 1e-15
        assert np.all(np.diff(e) >= -noise)
        strain = max_linear_strain(mesh, u)
        deformed = tet_volumes(mesh.nodes + u.reshape(-1, 3), mesh.tets).sum()
        assert abs(deformed - rest_volume) <= 3.0 * strain * rest_volume

    def test_miss_returns_empty_with_diagnostic(self, box_model, caplog):
        grasp = GraspCandidate((0.0, 0.5, 0.0), (1.0, 0, 0), 0.005, 10.0)
        with caplog.at_level("WARNING", logger="softgrasp.fem"):
            frames = run_squeeze(box_model.mesh, box_model.mat, grasp, pinch_config())
        assert frames == []
        assert any("no contact frames" in r.message for r in caplog.records)

    def test_tiny_max_force_stops_immediately(self, box_model):
        frames = run_squeeze(box_model.mesh, box_model.mat, box_grasp(max_force=1e-6), pinch_config())
        assert len(frames) == 1
        assert frames[0].squeeze_force >= 1e-6

    def test_run_squeeze_wrapper(self):
        mesh = generate_primitive_mesh("box", (0.06, 0.06, 0.06), 2)
        frames = run_squeeze(mesh, MaterialParams(), box_grasp(max_force=2.0), pinch_config())
        assert len(frames) >= 1
        assert frames[-1].squeeze_force >= 2.0


class TestFrameCenterOfMass:
    @pytest.mark.parametrize("entry", ["run_squeeze", "simulate"])
    def test_com_is_the_deformed_mesh_com(self, box_model, entry, monkeypatch, tmp_path):
        # the displacement of every step, in step order
        us = []
        real_step = fem.quasi_static_step

        def step(*args):
            u, report = real_step(*args)
            us.append(u)
            return u, report

        monkeypatch.setattr(fem, "quasi_static_step", step)
        grasp = box_grasp(max_force=6.0)
        if entry == "simulate":
            rc = cli.RunConfig(platform_height=NO_PLATFORM)
            out = tmp_path / "grasp.jsonl"
            cli._simulate_worker((0, box_model.mesh, grasp, rc, out, "box"))
            frames, dt = load_trajectory(out).frames, rc.dt
        else:
            cfg = pinch_config()
            frames = run_squeeze(box_model.mesh, box_model.mat, grasp, cfg)
            dt = cfg.dt
        assert len(frames) >= 3
        mesh = box_model.mesh
        for frame in frames:
            u = us[round(frame.time / dt) - 1]
            com = mesh_center_of_mass(mesh.nodes + u.reshape(-1, 3), mesh.tets)
            assert frame.com.tobytes() == com.tobytes()


def frame_bytes(frames):
    """Every number of a frame list, as raw bytes, for bit-for-bit comparison."""
    parts = []
    for f in frames:
        parts.append(np.array([f.time, f.squeeze_force, f.mass]).tobytes() + f.com.tobytes())
        for c in f.contacts:
            parts.append(c.position.tobytes() + c.normal.tobytes() + c.force.tobytes())
    return b"".join(parts)


# tilted pads on a low-friction box: the contact patch slides
SLIP_MU = 0.1
SLIP_GRASP = GraspCandidate(
    (0.0, 0.01, 0.005), np.array([0.98, 0.2, 0.0]) / np.hypot(0.98, 0.2), 0.05, 2.0
)


def record_factorize(monkeypatch, clear_cache=False):
    """Wrap fem._factorize; count solves, fresh LUs and solves with slip blocks."""
    stats = {"solves": 0, "fresh": 0, "slip_solves": 0}
    original = fem._factorize

    def wrapped(model, pieces, kp):
        if clear_cache:
            model.stick_lus.clear()
        stats["solves"] += 1
        stats["slip_solves"] += any(not p["stick"].all() for p in pieces)
        lu, fresh = original(model, pieces, kp)
        stats["fresh"] += fresh
        return lu, fresh

    monkeypatch.setattr(fem, "_factorize", wrapped)
    return stats


class TestFactorReuse:
    @pytest.mark.parametrize(
        "mu,grasp,slips",
        [(0.8, box_grasp(max_force=6.0), False), (SLIP_MU, SLIP_GRASP, True)],
        ids=["box_pinch", "low_mu_slip"],
    )
    def test_reuse_bit_identical_to_refactorizing(self, box_model, mu, grasp, slips, monkeypatch):
        mat = MaterialParams(friction_mu=mu)
        cfg = pinch_config()
        with monkeypatch.context() as m:
            reused = record_factorize(m)
            frames = run_squeeze(box_model.mesh, mat, grasp, cfg)
        with monkeypatch.context() as m:
            fresh = record_factorize(m, clear_cache=True)
            reference = run_squeeze(box_model.mesh, mat, grasp, cfg)
        assert len(frames) >= 3
        assert frame_bytes(frames) == frame_bytes(reference)
        assert reused["fresh"] < reused["solves"] == fresh["fresh"] == fresh["solves"]
        assert (reused["slip_solves"] > 0) == slips

    def test_no_stale_slot_across_grasps(self, box_model):
        cfg = pinch_config()
        grasp_a = box_grasp(max_force=6.0)
        grasp_b = GraspCandidate((0.0, 0.01, 0.005), (0.0, 1.0, 0.0), 0.04, 4.0)
        model = assemble_model(box_model.mesh, box_model.mat)
        for _ in fem.squeeze_steps(model, grasp_a, cfg):
            pass
        assert model.stick_lus
        frames_b = [fem.step_frame(model, cfg, *step) for step in fem.squeeze_steps(model, grasp_b, cfg)]
        fresh_b = run_squeeze(box_model.mesh, box_model.mat, grasp_b, cfg)
        assert len(frames_b) >= 3
        assert frame_bytes(frames_b) == frame_bytes(fresh_b)

    def test_splu_calls_match_reported_factorizations(self, box_model, monkeypatch):
        splu_calls = []
        original_splu = fem.spla.splu
        monkeypatch.setattr(fem.spla, "splu", lambda a: splu_calls.append(1) or original_splu(a))
        reports = []
        original_step = fem.quasi_static_step

        def step(*args):
            u, report = original_step(*args)
            reports.append(report)
            return u, report

        monkeypatch.setattr(fem, "quasi_static_step", step)
        stats = record_factorize(monkeypatch)
        frames = run_squeeze(box_model.mesh, box_model.mat, box_grasp(max_force=6.0), pinch_config())
        assert len(frames) >= 3
        assert len(splu_calls) == sum(r.factorizations for r in reports) == stats["fresh"]
        assert 0 < len(splu_calls) < stats["solves"]
        # every pass but the converged one solves
        assert stats["solves"] == sum(r.iterations - 1 for r in reports)

    def test_only_stick_lus_are_kept(self, box_model, monkeypatch):
        original = fem._factorize
        slip_lus = []
        stick_calls = []

        def checked(model, pieces, kp):
            lu, fresh = original(model, pieces, kp)
            held = list(model.stick_lus.values())
            if all(p["stick"].all() for p in pieces):
                stick_calls.append(len(held))
                assert any(h is lu for h in held)
            else:
                slip_lus.append(lu)
            assert len(held) <= fem.STICK_LUS == 2
            assert not any(h is s for h in held for s in slip_lus)
            return lu, fresh

        monkeypatch.setattr(fem, "_factorize", checked)
        run_squeeze(box_model.mesh, MaterialParams(friction_mu=SLIP_MU), SLIP_GRASP, pinch_config())
        assert slip_lus
        assert max(stick_calls) == 2

    def test_factorizations_match_stick_lru_replay(self, box_model, monkeypatch):
        # a tilted pinch of a box on the platform: stick sets recur between
        # slip solves, and a second LU pays
        keys = []
        original = fem._factorize

        def recorded(model, pieces, kp):
            stick = all(p["stick"].all() for p in pieces)
            keys.append((kp, tuple(n for p in pieces for n in p["nodes"])) if stick else None)
            return original(model, pieces, kp)

        reports = []
        original_step = fem.quasi_static_step

        def step(*args):
            u, report = original_step(*args)
            reports.append(report)
            return u, report

        monkeypatch.setattr(fem, "_factorize", recorded)
        monkeypatch.setattr(fem, "quasi_static_step", step)
        grasp = GraspCandidate((0.0, 0.01, 0.035), np.array([1.0, 0.2, 0.0]) / np.hypot(1.0, 0.2), 0.05, 4.0)
        frames = run_squeeze(box_model.mesh.translated((0.0, 0.0, 0.03)), box_model.mat, grasp,
                             SimConfig(platform_height=0.0))
        assert len(frames) >= 3
        assert None in keys
        total = sum(r.factorizations for r in reports)
        assert total == oracles.lru_factorizations(keys, 2) < oracles.lru_factorizations(keys, 1)

    def test_penalty_stiffness_change_forces_fresh_lu(self):
        mesh = generate_primitive_mesh("box", (0.06, 0.06, 0.06), 2)
        model = assemble_model(mesh, MaterialParams())
        nodes = mesh.surface_nodes[:5]
        pieces = [{"kind": fem.PAD_A, "nodes": nodes, "normal": np.array([1.0, 0.0, 0.0]),
                   "depths": np.full(5, 1e-4), "stick": np.ones(5, dtype=bool),
                   "sdir": np.zeros((5, 3)), "snorm": np.zeros(5)}]
        lu_a, fresh_a = fem._factorize(model, pieces, 1e6)
        lu_again, fresh_again = fem._factorize(model, pieces, 1e6)
        lu_b, fresh_b = fem._factorize(model, pieces, 4e6)
        assert (fresh_a, fresh_again, fresh_b) == (True, False, True)
        assert lu_again is lu_a and lu_b is not lu_a
        dofs = (3 * nodes[:, None] + np.arange(3)).ravel()
        j = model.regularized.tolil()
        j[dofs, dofs] = j[dofs, dofs].toarray().ravel() + 4e6
        rhs = np.random.default_rng(5).normal(size=3 * mesh.num_nodes)
        assert lu_b.solve(rhs).tobytes() == spla.splu(j.tocsc()).solve(rhs).tobytes()

    def test_jacobian_csc_matches_csr_route(self, box_model, monkeypatch):
        # the Jacobian is built in CSC directly; its arrays must equal the
        # coo -> csr, csr + csr, tocsc route's
        triplets = []
        checked = []
        original_blocks = fem._contact_blocks
        original_splu = fem.spla.splu

        def blocks(pieces, kp, mu):
            triplets.append(original_blocks(pieces, kp, mu))
            return triplets[-1]

        def splu(j):
            rows, cols, vals = triplets[-1]
            n3 = 3 * box_model.mesh.num_nodes
            want = box_model.stiffness + box_model.reg * sp.identity(n3, format="csr")
            if vals.size:
                want = want + sp.coo_matrix((vals, (rows, cols)), shape=want.shape).tocsr()
            want = want.tocsc()
            checked.append(vals.size)
            for name in ("data", "indices", "indptr"):
                got_a, want_a = getattr(j, name), getattr(want, name)
                assert got_a.dtype == want_a.dtype and got_a.tobytes() == want_a.tobytes()
            return original_splu(j)

        monkeypatch.setattr(fem, "_contact_blocks", blocks)
        monkeypatch.setattr(fem.spla, "splu", splu)
        run_squeeze(box_model.mesh, MaterialParams(friction_mu=SLIP_MU), SLIP_GRASP, pinch_config())
        assert len(checked) > 10


def random_pieces(rng, snorm_scale):
    """Contact pieces mixing stick and slip nodes, some with axis normals."""
    pieces = []
    nodes = rng.permutation(200)
    start = 0
    for normal in (np.array([1.0, 0.0, 0.0]), rng.normal(size=3), np.array([0.0, 0.0, 1.0])):
        normal = normal / np.linalg.norm(normal)
        k = int(rng.integers(5, 15))
        stick = rng.random(k) < 0.5
        sdir = rng.normal(size=(k, 3))
        sdir -= np.outer(sdir @ normal, normal)
        sdir /= np.linalg.norm(sdir, axis=1)[:, None]
        sdir[stick] = 0.0
        pieces.append(
            {
                "nodes": nodes[start:start + k],
                "normal": normal,
                "depths": rng.uniform(1e-6, 1e-3, k),
                "stick": stick,
                "sdir": sdir,
                "snorm": snorm_scale * rng.random(k),
            }
        )
        start += k
    return pieces


class TestContactBlocksOracle:
    @pytest.mark.parametrize("snorm_scale", [1e-4, 1e-12, 0.0])
    def test_matches_per_node_loop(self, snorm_scale):
        rng = np.random.default_rng(7)
        kp, mu = 1e6, 0.3
        for _ in range(5):
            pieces = random_pieces(rng, snorm_scale)
            got = fem._contact_blocks(pieces, kp, mu)
            want = oracles.loop_contact_blocks(pieces, kp, mu)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()

    def test_matches_per_node_loop_on_a_sliding_squeeze(self, box_model, monkeypatch):
        checked = []
        original = fem._contact_blocks

        def checked_blocks(pieces, kp, mu):
            got = original(pieces, kp, mu)
            want = oracles.loop_contact_blocks(pieces, kp, mu)
            checked.append(
                (len(pieces), any(not p["stick"].all() for p in pieces),
                 all(g.tobytes() == w.tobytes() for g, w in zip(got, want)))
            )
            return got

        monkeypatch.setattr(fem, "_contact_blocks", checked_blocks)
        run_squeeze(box_model.mesh, MaterialParams(friction_mu=SLIP_MU), SLIP_GRASP, pinch_config())
        assert all(same for _, _, same in checked)
        assert any(slip for _, slip, _ in checked)
        assert any(n >= 2 for n, _, _ in checked)

    def test_no_pieces_gives_empty_triplets(self):
        rows, cols, vals = fem._contact_blocks([], 1e6, 0.8)
        assert rows.size == cols.size == vals.size == 0
