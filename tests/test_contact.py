from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import (
    antipodal_patch_frame,
    dyadic_frame,
    octahedral_rotations,
    random_frame,
    rotate_frame,
    translate_frame,
    two_point_pinch_frame,
)
from softgrasp import (
    ContactPoint,
    InvalidInputError,
    TrajectoryFrame,
    WrenchSpaceConfig,
    build_gws,
    contact_centroid,
    default_torque_scale,
    frame_wrenches,
    min_facet_distance,
    orthonormal_tangents,
    polytope_volume,
)
from softgrasp.fileio import load_trajectory

FIXTURE_TRAJECTORY = Path(__file__).parent / "data" / "hull_info_fixture.jsonl"


def make_frame(contacts, mass=1.0, com=(0.0, 0.0, 0.0)):
    return TrajectoryFrame(
        time=0.0, contacts=tuple(contacts), squeeze_force=1.0, com=com, mass=mass
    )


def contact(pos, normal, force=None):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return ContactPoint(position=pos, normal=n, force=n if force is None else force)


class TestContactPoint:
    def test_normal_must_be_unit(self):
        with pytest.raises(InvalidInputError):
            ContactPoint(position=(0, 0, 0), normal=(0, 0, 2.0), force=(0, 0, 1.0))
        with pytest.raises(InvalidInputError):
            ContactPoint(position=(0, 0, 0), normal=(0, 0, 0), force=(0, 0, 1.0))

    def test_frame_validation(self):
        c = contact((0, 0, 0), (0, 0, 1))
        with pytest.raises(InvalidInputError):
            TrajectoryFrame(time=-1.0, contacts=(c,), squeeze_force=1.0, com=(0, 0, 0), mass=1.0)
        with pytest.raises(InvalidInputError):
            TrajectoryFrame(time=0.0, contacts=(c,), squeeze_force=1.0, com=(0, 0, 0), mass=0.0)
        with pytest.raises(InvalidInputError):
            TrajectoryFrame(time=0.0, contacts=(c,), squeeze_force=-1.0, com=(0, 0, 0), mass=1.0)


class TestContactCentroid:
    def test_antipodal_pair(self):
        f = make_frame([contact((1, 0, 0), (-1, 0, 0)), contact((-1, 0, 0), (1, 0, 0))])
        assert np.allclose(contact_centroid(f), 0.0)

    def test_single_contact(self):
        f = make_frame([contact((0.3, -0.2, 0.7), (0, 0, 1))])
        assert np.allclose(contact_centroid(f), (0.3, -0.2, 0.7))

    def test_face_centers(self):
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
        f = make_frame([contact(p, (0, 0, 1)) for p in pts])
        assert np.allclose(contact_centroid(f), 0.0)

    def test_empty_frame(self):
        f = TrajectoryFrame(time=0.0, contacts=(), squeeze_force=0.0, com=(0, 0, 0), mass=1.0)
        with pytest.raises(InvalidInputError, match="frame has no contacts"):
            contact_centroid(f)


class TestContactWrench:
    """Each contact's rows in frame_wrenches are (f, ((x - centroid) x f) / rho).

    With mu = 0 every pyramid edge is the contact normal, so row 3*i is
    contact i's wrench.
    """

    def wrench_rows(self, contacts, rho=1.0, mode="unit-edge"):
        cfg = WrenchSpaceConfig(
            friction_mu=0.0, cone_edges=3, torque_scale_rho=rho, force_normalization=mode
        )
        return frame_wrenches(make_frame(contacts), cfg)

    def pair(self):
        return [contact((1, 0, 0), (0, 0, 1)), contact((-1, 0, 0), (0, 0, 1))]

    def test_cross_product_example(self):
        w = self.wrench_rows(self.pair())
        assert np.allclose(w[0], (0, 0, 1, 0, -1, 0), atol=1e-15)
        assert np.allclose(w[3], (0, 0, 1, 0, 1, 0), atol=1e-15)

    def test_zero_force(self):
        c = contact((1, 2, 3), (0, 0, 1), force=(0, 0, 0))
        w = self.wrench_rows([c, contact((0, 0, 0), (1, 0, 0))], mode="reported-force")
        assert np.allclose(w[:3], 0.0)

    def test_zero_arm(self):
        c = contact((1, 2, 3), (4, 5, 6), force=(4, 5, 6))
        w = self.wrench_rows([c], mode="reported-force")
        assert np.allclose(w[0, 3:], 0.0)
        assert np.allclose(w[0, :3], (4, 5, 6))

    def test_rho_scales_torque_only(self):
        w1 = self.wrench_rows(self.pair(), rho=1.0)
        w2 = self.wrench_rows(self.pair(), rho=2.0)
        assert np.allclose(w2[:, :3], w1[:, :3])
        assert np.allclose(w2[:, 3:], w1[:, 3:] / 2.0)

    def test_bad_rho(self):
        with pytest.raises(InvalidInputError):
            WrenchSpaceConfig(torque_scale_rho=0.0)


class TestTangentBasis:
    def test_orthonormal_right_handed(self, rng):
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            t1, t2 = orthonormal_tangents(n)
            assert abs(np.linalg.norm(t1) - 1) < 1e-12
            assert abs(np.linalg.norm(t2) - 1) < 1e-12
            assert abs(t1 @ n) < 1e-12
            assert abs(t2 @ n) < 1e-12
            assert np.allclose(np.cross(t1, t2), n, atol=1e-12)

    def test_deterministic(self):
        n = np.array([0.3, -0.5, 0.81])
        n /= np.linalg.norm(n)
        a1 = orthonormal_tangents(n)
        a2 = orthonormal_tangents(n.copy())
        assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])

    def test_stack_matches_single_normals(self, rng):
        n = rng.normal(size=(20, 3))
        n[:5, rng.integers(0, 3)] = 0.0
        n /= np.linalg.norm(n, axis=1)[:, None]
        t1, t2 = orthonormal_tangents(n)
        assert t1.shape == t2.shape == (20, 3)
        for i in range(20):
            s1, s2 = orthonormal_tangents(n[i])
            assert s1.tobytes() == t1[i].tobytes() and s2.tobytes() == t2[i].tobytes()

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (0.0, 0.0, 0.0, 1.0), [(0.0, 1.0)], (np.nan, 0.0, 1.0)])
    def test_rejects_non_3_vectors(self, bad):
        with pytest.raises(InvalidInputError):
            orthonormal_tangents(bad)


class TestFrictionPyramid:
    """The edge columns of a one-contact frame's wrench set are the m edges
    of the contact's linearized friction cone."""

    @staticmethod
    def edges(normal, mu, m):
        cfg = WrenchSpaceConfig(friction_mu=mu, cone_edges=m)
        w = frame_wrenches(make_frame([contact((0.1, -0.2, 0.3), normal)]), cfg)
        assert w.shape == (m + 1, 6)
        return w[:m, :3]

    def test_zero_mu_collapses_to_normal(self):
        edges = self.edges((0, 0, 1), 0.0, 8)
        assert np.allclose(edges, (0, 0, 1), atol=1e-15)

    def test_analytic_first_edge(self):
        edges = self.edges((0, 0, 1), 1.0, 4)
        assert np.allclose(edges[0], np.array([1.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_edge_mean_parallel_to_normal(self, rng):
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            mu = rng.uniform(0.0, 2.0)
            m = int(rng.integers(3, 12))
            edges = self.edges(n, mu, m)
            mean = edges.mean(axis=0)
            assert np.linalg.norm(np.cross(mean, n)) <= 1e-9

    def test_edges_unit_and_on_cone(self, rng):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        mu = 0.8
        edges = self.edges(n, mu, 8)
        assert np.allclose(np.linalg.norm(edges, axis=1), 1.0, atol=1e-12)
        # every edge sits at the cone half-angle: n . e = 1/sqrt(1+mu^2)
        assert np.allclose(edges @ n, 1.0 / np.sqrt(1 + mu * mu), atol=1e-12)


class TestFrameWrenchesVsLoop:
    """frame_wrenches stacks every contact's cone; the per-contact loop in
    oracles.loop_frame_wrenches must give the same bytes."""

    @staticmethod
    def assert_same_bytes(frame, cfg):
        w = frame_wrenches(frame, cfg)
        ref = oracles.loop_frame_wrenches(frame, cfg)
        assert w.shape == ref.shape and w.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mode", ["unit-edge", "reported-force"])
    def test_random_frames(self, rng, mode):
        for _ in range(100):
            frame = random_frame(rng, int(rng.integers(1, 13)))
            cfg = WrenchSpaceConfig(
                friction_mu=float(rng.uniform(0.0, 2.0)),
                cone_edges=int(rng.integers(3, 12)),
                torque_scale_rho=float(rng.uniform(0.05, 3.0)),
                force_normalization=mode,
            )
            self.assert_same_bytes(frame, cfg)

    @pytest.mark.parametrize("mode", ["unit-edge", "reported-force"])
    def test_fixture_frames(self, mode):
        traj = load_trajectory(FIXTURE_TRAJECTORY)
        cfg = WrenchSpaceConfig(
            friction_mu=traj.header.material.friction_mu,
            torque_scale_rho=traj.header.torque_scale_rho,
            force_normalization=mode,
        )
        frames = [f for f in traj.frames if f.contacts]
        assert frames
        for frame in frames:
            self.assert_same_bytes(frame, cfg)


class TestWrenchSpaceConfig:
    def test_defaults(self):
        cfg = WrenchSpaceConfig()
        assert cfg.friction_mu == 0.8
        assert cfg.cone_edges == 8
        assert cfg.force_normalization == "unit-edge"

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WrenchSpaceConfig(friction_mu=-1.0)
        with pytest.raises(InvalidInputError):
            WrenchSpaceConfig(cone_edges=2)
        with pytest.raises(InvalidInputError):
            WrenchSpaceConfig(torque_scale_rho=0.0)
        with pytest.raises(InvalidInputError):
            WrenchSpaceConfig(force_normalization="nope")


class TestBuildGws:
    def test_single_contact_zero_mu_degenerate(self):
        f = make_frame([contact((0.5, 0, 0), (0, 0, 1))])
        cfg = WrenchSpaceConfig(friction_mu=0.0)
        p = build_gws(f, cfg)
        assert p.affine_rank == 1
        assert min_facet_distance(p) == 0.0

    def test_two_point_pinch_is_rank_deficient(self):
        # two contact points produce no torque about their joining axis, so
        # the wrench set spans at most five dimensions no matter the cone
        f = two_point_pinch_frame()
        cfg = WrenchSpaceConfig(friction_mu=0.5, cone_edges=8)
        p = build_gws(f, cfg)
        assert p.affine_rank == 5
        assert not p.is_full_dimensional
        assert min_facet_distance(p) == 0.0

    def test_antipodal_patch_full_dimensional(self):
        f = antipodal_patch_frame()
        cfg = WrenchSpaceConfig(friction_mu=0.5, cone_edges=8)
        p = build_gws(f, cfg)
        assert p.affine_rank == 6
        mfd = min_facet_distance(p)
        assert mfd > 0.0
        # exact LP ray-exit oracle on the same wrench set, one LP per facet
        wrenches = frame_wrenches(f, cfg)
        along_normals = [oracles.lp_ray_exit(wrenches, n) for n in p.facet_normals]
        assert min(along_normals) == pytest.approx(mfd, abs=1e-6)

    def test_zero_wrench_always_included(self, rng):
        f = random_frame(rng, 3)
        w = frame_wrenches(f, WrenchSpaceConfig())
        assert np.allclose(w[-1], 0.0)
        assert w.shape == (3 * 8 + 1, 6)

    def test_empty_frame(self):
        f = TrajectoryFrame(time=0.0, contacts=(), squeeze_force=0.0, com=(0, 0, 0), mass=1.0)
        with pytest.raises(InvalidInputError, match="frame has no contacts"):
            build_gws(f, WrenchSpaceConfig())

    def test_translation_invariance_bitwise(self, rng):
        cfg = WrenchSpaceConfig()
        for _ in range(10):
            f = dyadic_frame(rng, 4)
            t = rng.integers(-16, 17, size=3) / 8.0
            w0 = frame_wrenches(f, cfg)
            w1 = frame_wrenches(translate_frame(f, t), cfg)
            assert np.array_equal(w0, w1)

    def test_rotation_equivariance_octahedral(self, rng):
        cfg = WrenchSpaceConfig()
        f = random_frame(rng, 4)
        p0 = build_gws(f, cfg)
        v0 = polytope_volume(p0)
        m0 = min_facet_distance(p0)
        for r in octahedral_rotations()[:8]:
            p1 = build_gws(rotate_frame(f, r), cfg)
            assert abs(polytope_volume(p1) - v0) <= 1e-9 * max(1.0, v0)
            assert abs(min_facet_distance(p1) - m0) <= 1e-9
            # vertices map by blockdiag(R, R)
            block = np.zeros((6, 6))
            block[:3, :3] = r
            block[3:, 3:] = r
            mapped = np.asarray(p0.vertices) @ block.T
            a = np.array(sorted(map(tuple, np.round(mapped, 9))))
            b = np.array(sorted(map(tuple, np.round(np.asarray(p1.vertices), 9))))
            assert a.shape == b.shape
            assert np.allclose(a, b, atol=1e-9)

    def test_adding_contact_never_shrinks(self, rng):
        cfg = WrenchSpaceConfig()
        for _ in range(5):
            f = random_frame(rng, 4)
            extra = contact(rng.uniform(-1, 1, 3), rng.normal(size=3))
            bigger = make_frame(list(f.contacts) + [extra], mass=f.mass, com=f.com)
            assert min_facet_distance(build_gws(bigger, cfg)) >= (
                min_facet_distance(build_gws(f, cfg)) - 1e-12
            )

    def test_force_scaling_modes(self, rng):
        f = random_frame(rng, 4)
        scaled = make_frame(
            [
                ContactPoint(position=c.position, normal=c.normal, force=3.0 * c.force)
                for c in f.contacts
            ],
            mass=f.mass,
            com=f.com,
        )
        unit = WrenchSpaceConfig(force_normalization="unit-edge")
        rep = WrenchSpaceConfig(force_normalization="reported-force")
        assert np.array_equal(frame_wrenches(f, unit), frame_wrenches(scaled, unit))
        w0 = frame_wrenches(f, rep)
        w1 = frame_wrenches(scaled, rep)
        assert np.allclose(w1, 3.0 * w0, rtol=1e-12, atol=1e-13 * np.abs(w0).max())


class TestDefaultTorqueScale:
    def test_max_distance(self):
        nodes = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, -3.0]])
        assert default_torque_scale(nodes, (0, 0, 0)) == pytest.approx(3.0)

    def test_degenerate_cloud(self):
        nodes = np.zeros((4, 3))
        assert default_torque_scale(nodes, (0, 0, 0)) == 1.0
