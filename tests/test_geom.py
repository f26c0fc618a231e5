import logging
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

import oracles
from helpers import antipodal_patch_frame, dyadic_frame, random_frame, random_hull_points
from softgrasp import geom
from softgrasp import (
    HullError,
    InvalidInputError,
    affine_rank_of,
    convex_hull,
    min_facet_distance,
    polytope_volume,
    ray_exit_distances,
    WrenchSpaceConfig,
    frame_wrenches,
)

DATA = Path(__file__).parent / "data"


def cube_points(d):
    return np.array(
        [[(1.0 if (i >> k) & 1 else -1.0) for k in range(d)] for i in range(2**d)]
    )


def cross_points(d):
    return np.vstack([np.eye(d), -np.eye(d)])


def unit_dirs(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def recording_qhull(monkeypatch, failures=0):
    """Patch geom.ConvexHull to record the options of every call and to
    raise on the first failures calls; returns the list of options."""
    options = []

    def qhull(points, qhull_options=None):
        options.append(qhull_options)
        if len(options) <= failures:
            raise QhullError("QH6271 forced failure\nmore detail")
        return ConvexHull(points, qhull_options=qhull_options)

    monkeypatch.setattr(geom, "ConvexHull", qhull)
    return options


class TestConvexHull:
    def test_cube_3d(self):
        p = convex_hull(cube_points(3), 3)
        assert p.dim == 3
        assert p.affine_rank == 3
        assert len(p.vertices) == 8
        assert len(p.facet_normals) == 6
        assert np.allclose(p.facet_offsets, 1.0, atol=1e-12)

    def test_cross_polytope_with_interior_origin(self):
        pts = np.vstack([cross_points(3), np.zeros(3)])
        p = convex_hull(pts, 3)
        assert len(p.vertices) == 6
        assert len(p.facet_normals) == 8
        # origin is interior, not a vertex
        assert not any(np.allclose(v, 0.0) for v in p.vertices)

    def test_support_function_generators_vs_padded(self, rng):
        gens = random_hull_points(rng, 6, 12)
        weights = rng.dirichlet(np.ones(12), size=50)
        inside = weights @ gens
        padded = np.vstack([gens, inside])
        dirs = unit_dirs(rng, 1000, 6)
        h_gen = oracles.brute_support(convex_hull(gens, 6).vertices, dirs)
        h_pad = oracles.brute_support(convex_hull(padded, 6).vertices, dirs)
        assert np.max(np.abs(h_gen - h_pad)) <= 1e-9

    def test_hull_idempotence(self, rng):
        for d in (2, 3, 4, 6):
            pts = random_hull_points(rng, d, 6 * d)
            p1 = convex_hull(pts, d)
            p2 = convex_hull(p1.vertices, d)
            a = np.array(sorted(map(tuple, np.round(p1.vertices, 12))))
            b = np.array(sorted(map(tuple, np.round(p2.vertices, 12))))
            assert a.shape == b.shape
            assert np.allclose(a, b, atol=1e-12)

    def test_every_input_point_inside_facets(self, rng):
        pts = random_hull_points(rng, 4, 40)
        p = convex_hull(pts, 4)
        slack = pts @ np.asarray(p.facet_normals).T - np.asarray(p.facet_offsets)
        assert np.max(slack) <= 1e-7

    def test_facet_normals_unit(self, rng):
        pts = random_hull_points(rng, 6, 40)
        p = convex_hull(pts, 6)
        norms = np.linalg.norm(np.asarray(p.facet_normals), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_degenerate_inputs(self, rng, monkeypatch):
        # flat sets get their affine rank only, without a qhull call
        monkeypatch.setattr(geom, "ConvexHull", None)
        planar = np.hstack([rng.normal(size=(10, 2)), np.zeros((10, 1))])
        line = np.outer(np.linspace(-2, 2, 9), np.array([1.0, 1.0, 0.0]))
        for pts, rank in ((planar, 2), (np.array([[1.0, 2.0, 3.0]]), 0), (line, 1)):
            p = convex_hull(pts, 3)
            assert p.affine_rank == rank
            assert not p.is_full_dimensional
            assert p.vertices.shape == p.facet_normals.shape == (0, 3)
            assert p.facet_offsets.shape == (0,)
            assert p.volume == 0.0

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            convex_hull(np.array([[1.0, np.nan, 0.0]]), 3)
        with pytest.raises(InvalidInputError):
            convex_hull(np.zeros((4, 7)), 7)
        with pytest.raises(InvalidInputError):
            convex_hull(np.zeros((4, 1)), 1)
        with pytest.raises(InvalidInputError):
            convex_hull(np.zeros((0, 3)), 3)

    def test_affine_rank_tolerance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-12]])
        assert affine_rank_of(pts) == 1
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-3]])
        assert affine_rank_of(pts) == 2


    def test_joggle_retry_logged(self, rng, monkeypatch, caplog):
        options = recording_qhull(monkeypatch, failures=1)
        pts = random_hull_points(rng, 6, 40)
        with caplog.at_level(logging.INFO, logger="softgrasp.geom"):
            poly = convex_hull(pts)
        assert options == [None, "QJ Qx"]
        assert poly.is_full_dimensional
        [record] = caplog.records
        assert record.levelno == logging.INFO
        assert "40 points in 6D" in record.getMessage()
        assert "QJ" in record.getMessage()


class TestRayExit:
    def test_cube_axis(self):
        p = convex_hull(cube_points(3), 3)
        assert ray_exit_distances(p, [[1.0, 0.0, 0.0]])[0] == pytest.approx(1.0, abs=1e-12)

    def test_cube_diagonal(self):
        p = convex_hull(cube_points(3), 3)
        u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert ray_exit_distances(p, [u])[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_vs_lp_and_bisection_oracles(self, rng):
        half = random_hull_points(rng, 6, 10)
        pts = np.vstack([half, -half])  # symmetric set: origin interior
        p = convex_hull(pts, 6)
        dirs = unit_dirs(rng, 25, 6)
        exits = ray_exit_distances(p, dirs)
        for u, s in zip(dirs, exits):
            assert s == pytest.approx(oracles.lp_ray_exit(pts, u), abs=1e-7)
            assert s == pytest.approx(oracles.bisect_ray_exit(pts, u, tol=1e-10), abs=1e-6)

    def test_exit_point_on_boundary(self, rng):
        pts = random_hull_points(rng, 4, 30)
        p = convex_hull(pts, 4)
        dirs = unit_dirs(rng, 50, 4)
        normals = np.asarray(p.facet_normals)
        offsets = np.asarray(p.facet_offsets)
        for u, s in zip(dirs, ray_exit_distances(p, dirs)):
            slack = normals @ (s * u) - offsets
            assert np.max(slack) <= 1e-7
            assert np.min(np.abs(slack)) <= 1e-7  # at least one facet active

    def test_origin_outside_returns_zero(self, rng):
        pts = random_hull_points(rng, 3, 20) + np.array([5.0, 0.0, 0.0])
        p = convex_hull(pts, 3)
        assert ray_exit_distances(p, [[1.0, 0.0, 0.0]])[0] == 0.0

    def test_degenerate_raises(self, rng):
        planar = np.hstack([rng.normal(size=(10, 2)), np.zeros((10, 1))])
        p = convex_hull(planar, 3)
        with pytest.raises(InvalidInputError, match="ray exit undefined for a flat polytope"):
            ray_exit_distances(p, [[1.0, 0.0, 0.0]])

    def test_cube_exits(self):
        p = convex_hull(cube_points(3), 3)
        dirs = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0] / np.sqrt(2.0)])
        assert ray_exit_distances(p, dirs) == pytest.approx([1.0, np.sqrt(2.0)])

    def test_origin_on_boundary_clamps_to_zero(self):
        # the origin sits 1e-10 outside the facet x >= 1e-10: its offset is
        # a roundoff-sized negative, so the exit through it clamps to 0
        p = convex_hull(cube_points(3) + np.array([1.0 + 1e-10, 0.0, 0.0]), 3)
        assert -1e-9 < float(p.facet_offsets.min()) < 0.0
        exits = ray_exit_distances(p, np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert exits[0] == 0.0
        assert exits[1] == pytest.approx(2.0)

    def test_non_unit_direction_rejected(self, rng):
        p = convex_hull(cube_points(3), 3)
        with pytest.raises(InvalidInputError):
            ray_exit_distances(p, [[1.0, 1.0, 0.0]])


class TestMinFacetDistance:
    def test_cross_polytope_6d(self):
        p = convex_hull(cross_points(6), 6)
        assert min_facet_distance(p) == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-9)

    def test_cube_6d(self):
        p = convex_hull(cube_points(6), 6)
        assert min_facet_distance(p) == pytest.approx(1.0, abs=1e-9)

    def test_origin_outside(self, rng):
        pts = random_hull_points(rng, 3, 20)
        pts[:, 0] = np.abs(pts[:, 0]) + 0.1  # first coordinate >= 0.1
        p = convex_hull(pts, 3)
        assert min_facet_distance(p) == 0.0

    def test_degenerate_returns_zero(self, rng):
        planar = np.hstack([rng.normal(size=(8, 2)), np.zeros((8, 1))])
        assert min_facet_distance(convex_hull(planar, 3)) == 0.0

    def test_is_min_over_all_ray_exits(self, rng):
        pts = random_hull_points(rng, 5, 40)
        p = convex_hull(pts, 5)
        dirs = unit_dirs(rng, 400, 5)
        exits = ray_exit_distances(p, dirs)
        mfd = min_facet_distance(p)
        assert np.all(exits >= mfd - 1e-12)
        # equality is achieved along the facet normals themselves
        along_normals = ray_exit_distances(p, np.asarray(p.facet_normals))
        assert np.min(along_normals) == pytest.approx(mfd, rel=1e-9)

    def test_offsets_match_brute_support(self, rng):
        pts = random_hull_points(rng, 4, 30)
        p = convex_hull(pts, 4)
        brute = oracles.brute_support(pts, np.asarray(p.facet_normals))
        assert np.max(np.abs(brute - np.asarray(p.facet_offsets))) <= 1e-9


class TestVolume:
    def test_cube_6d(self):
        p = convex_hull(cube_points(6), 6)
        assert polytope_volume(p) == pytest.approx(64.0, rel=1e-9)

    def test_cross_polytope_6d_closed_form(self):
        p = convex_hull(cross_points(6), 6)
        exact = 2.0**6 / math.factorial(6)
        assert polytope_volume(p) == pytest.approx(exact, abs=1e-9)

    def test_cross_polytope_6d_monte_carlo(self, rng):
        # membership in conv{+-e_i} is the closed form ||x||_1 <= 1
        p = convex_hull(cross_points(6), 6)
        samples = rng.uniform(-1.0, 1.0, size=(1_000_000, 6))
        hits = np.sum(np.abs(samples).sum(axis=1) <= 1.0)
        mc = 2.0**6 * hits / samples.shape[0]
        assert polytope_volume(p) == pytest.approx(mc, rel=0.01)

    def test_vs_delaunay_oracle(self, rng):
        for d in (3, 4):
            pts = random_hull_points(rng, d, 15 * d)
            p = convex_hull(pts, d)
            assert polytope_volume(p) == pytest.approx(
                oracles.delaunay_volume(pts), rel=1e-9
            )

    def test_linear_image_of_cube(self, rng):
        for d in (5, 6):
            a = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            pts = oracles.cube_image_points(a)
            p = convex_hull(pts, d)
            assert polytope_volume(p) == pytest.approx(
                oracles.cube_image_volume(a), rel=1e-9
            )

    def test_continuous_under_jitter_of_a_real_wrench_set(self, monkeypatch):
        # the scored frame of a mid-air slab squeeze, whose hull merges many
        # near-coplanar facets: a simplex fan over qhull's triangulated
        # facets overshoots here and moved by 2.2e-3 to 2.3e-3 relative under
        # this jitter; the seeds are ones whose hull qhull builds on its first
        # try (a joggled retry's volume is the joggled input's)
        pts = np.loadtxt(DATA / "slab04_scored_wrenches.txt")
        assert pts.shape == (289, 6)
        options = recording_qhull(monkeypatch)
        ref = polytope_volume(convex_hull(pts, 6))
        scale = 1e-12 * np.max(np.abs(pts))
        for seed in (0, 12, 13):
            jittered = pts + scale * np.random.default_rng(seed).normal(size=pts.shape)
            assert polytope_volume(convex_hull(jittered, 6)) == pytest.approx(ref, rel=1e-8)
        assert options == [None] * 4
        assert ref == pytest.approx(oracles.delaunay_volume(pts), rel=1e-6)

    def test_degenerate_zero(self, rng):
        flat = np.hstack([rng.normal(size=(5, 3)), np.zeros((5, 3))])
        assert polytope_volume(convex_hull(flat, 6)) == 0.0

    def test_permutation_and_rotation_invariance(self, rng):
        pts = random_hull_points(rng, 4, 40)
        ref = polytope_volume(convex_hull(pts, 4))
        perm = rng.permutation(len(pts))
        assert polytope_volume(convex_hull(pts[perm], 4)) == pytest.approx(ref, rel=1e-9)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert polytope_volume(convex_hull(pts @ q.T, 4)) == pytest.approx(ref, rel=1e-9)


def qhull_distinct_rows(hull):
    """qhull's normalized (normal, offset) rows with exact repeats removed."""
    lens = np.linalg.norm(hull.equations[:, :-1], axis=1)
    rows = np.column_stack([hull.equations[:, :-1], -hull.equations[:, -1]]) / lens[:, None]
    return np.unique(rows, axis=0)


class TestQhullFacets:
    def test_real_wrench_hulls_are_qhulls_distinct_planes(self, rng):
        cfg = WrenchSpaceConfig()
        frames = [antipodal_patch_frame(), dyadic_frame(rng, 4), dyadic_frame(rng, 8)]
        frames += [random_frame(rng, n) for n in (3, 4, 6, 8)]
        for frame in frames:
            pts = frame_wrenches(frame, cfg)
            p = convex_hull(pts, 6)
            want = qhull_distinct_rows(ConvexHull(pts))
            assert np.array_equal(np.column_stack([p.facet_normals, p.facet_offsets]), want)

    def test_joggled_epsilon_is_qhulls_min_offset(self, monkeypatch):
        # a joggled hull's planes are qhull's own: epsilon is their minimum
        # offset, not that of a looser near-coplanar plane
        pts = np.loadtxt(DATA / "joggled_hull_wrenches.txt")
        options = recording_qhull(monkeypatch)
        got = min_facet_distance(convex_hull(pts, 6))
        assert options == [None, "QJ Qx"]
        hull = ConvexHull(pts, qhull_options="QJ Qx")
        offsets = -hull.equations[:, -1] / np.linalg.norm(hull.equations[:, :-1], axis=1)
        assert got == max(0.0, float(offsets.min()))

    def test_third_attempt_builds_hull(self, monkeypatch):
        pts = np.loadtxt(DATA / "qhull_retry_wrenches.txt")
        assert pts.shape == (329, 6)
        options = recording_qhull(monkeypatch)
        p = convex_hull(pts, 6)
        assert options == [None, "QJ Qx", "QJ"]
        assert p.is_full_dimensional
        # qhull's own hulls of these points differ by about 1e-6 relative
        assert polytope_volume(p) == pytest.approx(oracles.delaunay_volume(pts), rel=1e-5)

    @pytest.mark.parametrize("dim, tried", [(3, [None, "QJ"]), (6, [None, "QJ Qx", "QJ"])])
    def test_every_attempt_failing_raises_hull_error(self, dim, tried, rng, monkeypatch):
        options = recording_qhull(monkeypatch, failures=3)
        pts = random_hull_points(rng, dim, 8 * dim)
        with pytest.raises(HullError, match=f"{8 * dim} points in {dim}D: QH6271 forced failure$"):
            convex_hull(pts, dim)
        assert options == tried
