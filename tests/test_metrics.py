import dataclasses
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import oracles
from helpers import (
    antipodal_patch_frame,
    dyadic_frame,
    octahedral_rotations,
    quality,
    random_frame,
    rotate_frame,
    translate_frame,
    two_point_pinch_frame,
)
from softgrasp import (
    ContactPoint,
    GravityConfig,
    InvalidInputError,
    TrajectoryFrame,
    WrenchSpaceConfig,
    build_gws,
    contact_centroid,
    desired_force_index,
    fibonacci_sphere,
    frame_quality,
    min_facet_distance,
    monotonicity,
    saturation_index,
)
from softgrasp import cli, metrics
from softgrasp.contact import frame_wrenches
from softgrasp.metrics import METRIC_NAMES, SCORE_NAMES


def frame_with_forces(frame, k):
    contacts = tuple(
        ContactPoint(position=c.position, normal=c.normal, force=k * c.force)
        for c in frame.contacts
    )
    return TrajectoryFrame(
        time=frame.time,
        contacts=contacts,
        squeeze_force=frame.squeeze_force,
        com=frame.com,
        mass=frame.mass,
    )


def score_frames(frames, cfg, gcfg=GravityConfig(), proxy_dirs=None):
    """Per-frame values of each metric, scored the way the metric command
    scores a trajectory: frame_quality mapped over the frames."""
    per_frame = cli._map_frames(lambda f: frame_quality(f, cfg, gcfg, proxy_dirs).values, frames)
    return {m: np.array([v[m] for v in per_frame]) for m in per_frame[0]}


def with_mass(frame, mass):
    return TrajectoryFrame(
        time=frame.time,
        contacts=frame.contacts,
        squeeze_force=frame.squeeze_force,
        com=frame.com,
        mass=mass,
    )


class TestDirections:
    def test_fibonacci_sphere_unit(self):
        d = fibonacci_sphere(16)
        assert d.shape == (16, 3)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)

    def test_fibonacci_sphere_spread(self):
        # near-uniform lattice: no two directions closer than ~half the
        # mean spacing for K = 16
        d = fibonacci_sphere(16)
        dots = d @ d.T
        np.fill_diagonal(dots, -1.0)
        assert np.max(dots) < 0.95

    def test_gravity_config_defaults(self):
        g = GravityConfig()
        assert g.num_directions == 16
        assert g.gravity_accel == 9.81
        assert g.directions.shape == (16, 3)

    def test_gravity_config_validation(self):
        with pytest.raises(InvalidInputError):
            GravityConfig(num_directions=3)
        with pytest.raises(InvalidInputError):
            GravityConfig(gravity_accel=0.0)
        with pytest.raises(InvalidInputError):
            GravityConfig(custom_directions=[[1.0, 1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            GravityConfig(custom_directions=np.eye(3))  # fewer than 4 directions

    def test_custom_directions(self):
        dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        g = GravityConfig(custom_directions=dirs)
        assert np.allclose(g.directions, dirs)
        assert g.num_directions == 4

    def test_directions_built_once(self, rng, monkeypatch):
        g = GravityConfig()
        assert np.array_equal(g.directions, fibonacci_sphere(16))
        assert dataclasses.replace(g, num_directions=32).directions.shape == (32, 3)
        monkeypatch.setattr(metrics, "fibonacci_sphere", lambda count: pytest.fail("lattice rebuilt"))
        for _ in range(3):
            assert quality(random_frame(rng, 4), WrenchSpaceConfig(), "gravity", g) > 0.0


class TestEpsilonVolume:
    def test_single_contact_epsilon_zero(self):
        c = ContactPoint(position=(0, 0, 0), normal=(0, 0, 1.0), force=(0, 0, 1.0))
        f = TrajectoryFrame(time=0.0, contacts=(c,), squeeze_force=1.0, com=(0, 0, 0), mass=1.0)
        assert quality(f, WrenchSpaceConfig(friction_mu=0.0), "epsilon") == 0.0
        assert quality(f, WrenchSpaceConfig(friction_mu=0.0), "volume") == 0.0

    def test_antipodal_patch_epsilon_vs_oracle(self):
        cfg = WrenchSpaceConfig(friction_mu=0.5, cone_edges=8)
        f = antipodal_patch_frame()
        eps = quality(f, cfg, "epsilon")
        assert eps > 0.0
        p = build_gws(f, cfg)
        wrenches = frame_wrenches(f, cfg)
        # exact LP ray exit along each facet normal, one LP per facet
        oracle = min(oracles.lp_ray_exit(wrenches, n) for n in p.facet_normals)
        assert eps == pytest.approx(oracle, abs=1e-6)

    def test_rotation_invariance(self, rng):
        cfg = WrenchSpaceConfig()
        f = random_frame(rng, 4)
        e0 = quality(f, cfg, "epsilon")
        v0 = quality(f, cfg, "volume")
        for r in octahedral_rotations()[:4]:
            g = rotate_frame(f, r)
            assert quality(g, cfg, "epsilon") == pytest.approx(e0, abs=1e-9)
            assert quality(g, cfg, "volume") == pytest.approx(v0, rel=1e-9)

    def test_volume_scales_as_force_sixth_power(self, rng):
        cfg = WrenchSpaceConfig(force_normalization="reported-force")
        f = random_frame(rng, 4)
        v1 = quality(f, cfg, "volume")
        v2 = quality(frame_with_forces(f, 2.0), cfg, "volume")
        assert v2 == pytest.approx(64.0 * v1, rel=1e-6)

    def test_volume_vs_monte_carlo(self, rng):
        cfg = WrenchSpaceConfig()
        f = random_frame(rng, 4)
        vol = quality(f, cfg, "volume")
        wrenches = frame_wrenches(f, cfg)
        hull = ConvexHull(wrenches)  # independent H-representation
        a = hull.equations[:, :-1]
        b = hull.equations[:, -1]
        verts = wrenches[hull.vertices]
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        box = float(np.prod(hi - lo))
        n_total, hits = 1_000_000, 0
        for _ in range(10):
            s = rng.uniform(lo, hi, size=(n_total // 10, 6))
            hits += int(np.sum(np.all(s @ a.T + b <= 1e-12, axis=1)))
        mc = box * hits / n_total
        assert vol == pytest.approx(mc, rel=0.02)


class TestGravityQuality:
    def test_degenerate_frame_zero(self):
        c = ContactPoint(position=(0, 0, 0), normal=(0, 0, 1.0), force=(0, 0, 1.0))
        f = TrajectoryFrame(time=0.0, contacts=(c,), squeeze_force=1.0, com=(0, 0, 0), mass=1.0)
        assert quality(f, WrenchSpaceConfig(friction_mu=0.0), "gravity", GravityConfig()) == 0.0

    def test_two_point_pinch_zero(self):
        f = two_point_pinch_frame()
        assert quality(f, WrenchSpaceConfig(), "gravity", GravityConfig()) == 0.0

    def test_cap_limited_regime_exact(self):
        # huge reported forces make the hull enormous; with com at the
        # centroid every ray caps at exactly m*g
        f = antipodal_patch_frame(force_scale=1e4, mass=0.1)
        cfg = WrenchSpaceConfig(friction_mu=0.5, force_normalization="reported-force")
        q = quality(f, cfg, "gravity", GravityConfig())
        assert q == pytest.approx(0.1 * 9.81, rel=1e-12)

    def test_cap_law(self, rng):
        cfg = WrenchSpaceConfig()
        gcfg = GravityConfig()
        for _ in range(20):
            f = random_frame(rng, 4)
            q = quality(f, cfg, "gravity", gcfg)
            arm = f.com - contact_centroid(f)
            dirs = gcfg.directions
            v = np.hstack([dirs, np.cross(np.broadcast_to(arm, dirs.shape), dirs)])
            max_cap = f.mass * gcfg.gravity_accel * np.linalg.norm(v, axis=1).max()
            assert q <= max_cap + 1e-12

    def test_vs_subspace_oracle(self, rng):
        cfg = WrenchSpaceConfig(friction_mu=0.5, cone_edges=8)
        gcfg = GravityConfig()
        frames = [antipodal_patch_frame()] + [random_frame(rng, 4) for _ in range(10)]
        for f in frames:
            q = quality(f, cfg, "gravity", gcfg)
            oracle = oracles.subspace_gravity_quality(
                frame_wrenches(f, cfg),
                f.com - contact_centroid(f),
                cfg.torque_scale_rho,
                gcfg.directions,
                f.mass,
                gcfg.gravity_accel,
            )
            assert q == pytest.approx(oracle, rel=1e-4, abs=1e-12)

    def test_translation_invariance(self, rng):
        cfg = WrenchSpaceConfig()
        gcfg = GravityConfig()
        for _ in range(5):
            f = dyadic_frame(rng, 4)
            t = rng.integers(-16, 17, size=3) / 8.0
            q0 = quality(f, cfg, "gravity", gcfg)
            q1 = quality(translate_frame(f, t), cfg, "gravity", gcfg)
            assert q0 == q1  # bitwise: arms reproduce exactly on the grid


class TestInstabilityProxy:
    def test_degenerate_zero(self):
        f = two_point_pinch_frame()
        assert quality(f, WrenchSpaceConfig(), "proxy", proxy_dirs=fibonacci_sphere(8)) == 0.0

    def test_mass_halves_proxy(self, rng):
        cfg = WrenchSpaceConfig()
        dirs = fibonacci_sphere(8)
        f = random_frame(rng, 4)
        p1 = quality(f, cfg, "proxy", proxy_dirs=dirs)
        p2 = quality(with_mass(f, 2.0 * f.mass), cfg, "proxy", proxy_dirs=dirs)
        assert p2 == pytest.approx(0.5 * p1, rel=1e-15)

    def test_symmetric_grasp_direction_symmetry(self):
        f = antipodal_patch_frame()
        cfg = WrenchSpaceConfig(friction_mu=0.5, cone_edges=8)
        d = np.array([[0.3, -0.5, 0.81]])
        d /= np.linalg.norm(d)
        p_fwd = quality(f, cfg, "proxy", proxy_dirs=d)
        p_bwd = quality(f, cfg, "proxy", proxy_dirs=-d)
        assert p_fwd == pytest.approx(p_bwd, abs=1e-9)

    def test_min_direction_bounds_mean(self, rng):
        cfg = WrenchSpaceConfig()
        dirs = fibonacci_sphere(16)
        f = random_frame(rng, 4)
        per_dir = [quality(f, cfg, "proxy", proxy_dirs=dirs[i : i + 1]) for i in range(16)]
        mean_proxy = quality(f, cfg, "proxy", proxy_dirs=dirs)
        assert min(per_dir) <= mean_proxy + 1e-12

    def test_non_unit_dirs_rejected(self, rng):
        f = random_frame(rng, 4)
        with pytest.raises(InvalidInputError):
            quality(f, WrenchSpaceConfig(), "proxy", proxy_dirs=np.array([[1.0, 1.0, 0.0]]))


class TestMonotonicity:
    def test_identical_rankings(self):
        assert monotonicity([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(100.0)

    def test_reversed_rankings(self):
        assert monotonicity([4, 3, 2, 1], [10, 20, 30, 40]) == pytest.approx(-100.0)

    def test_constant_series_nan_with_warning(self):
        # NaN is the whole report: bench prints it in its table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = monotonicity([1.0, 1.0, 1.0], [1, 2, 3])
        assert np.isnan(out)

    def test_ties_use_average_ranks(self):
        # scipy reference value for a tied series
        from scipy import stats

        a = [1.0, 2.0, 2.0, 3.0]
        b = [1.0, 2.0, 3.0, 4.0]
        assert monotonicity(a, b) == pytest.approx(stats.spearmanr(a, b).statistic * 100)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy_spearman_on_random_ties(self, seed):
        # series of 3 to 40 values drawn from few levels, so most carry ties
        from scipy import stats

        rng = np.random.default_rng([5, seed])
        for _ in range(50):
            n = int(rng.integers(3, 41))
            a = rng.integers(0, int(rng.integers(2, 8)), n) * 0.25
            b = rng.normal(size=n).round(int(rng.integers(0, 3)))
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            want = stats.spearmanr(a, b).statistic * 100.0
            assert monotonicity(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            monotonicity([1, 2], [1, 2])
        with pytest.raises(InvalidInputError):
            monotonicity([1, 2, 3], [1, 2])
        with pytest.raises(InvalidInputError):
            monotonicity([1, 2, np.inf], [1, 2, 3])


class TestSaturation:
    def test_plateau_detection(self):
        v = np.array([1.0, 2.0, 3.0, 3.01, 3.02, 3.0])
        assert saturation_index(v) == 2

    def test_still_rising(self):
        assert saturation_index(np.array([1.0, 2.0, 3.0, 4.0])) is None

    def test_last_frame_never_counts(self):
        assert saturation_index(np.array([1.0, 2.0])) is None
        assert saturation_index(np.array([2.0, 1.0])) == 0

    def test_all_zero(self):
        assert saturation_index(np.zeros(4)) == 0

    def test_desired_force_index(self):
        frames = [
            antipodal_patch_frame(force_scale=k, time=float(k)) for k in (1.0, 2.0, 3.0)
        ]
        assert desired_force_index(frames, 4.5) == 2
        assert desired_force_index(frames, 100.0) is None


class TestQualityTrace:
    def make_trajectory(self, scales):
        return [
            antipodal_patch_frame(force_scale=s, time=0.1 * (i + 1))
            for i, s in enumerate(scales)
        ]

    def test_identical_frames_constant_trace(self):
        traj = self.make_trajectory([1.0, 1.0, 1.0])
        cfg = WrenchSpaceConfig(friction_mu=0.5)
        values = score_frames(traj, cfg)["epsilon"]
        assert np.allclose(values, values[0])
        assert saturation_index(values) == 0

    def test_growing_contacts_nondecreasing_epsilon(self, rng):
        cfg = WrenchSpaceConfig()
        base = random_frame(rng, 3, time=0.1)
        frames = [base]
        contacts = list(base.contacts)
        for i in range(3):
            x = rng.uniform(-1, 1, 3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            contacts = contacts + [ContactPoint(position=x, normal=n, force=n)]
            frames.append(
                TrajectoryFrame(
                    time=0.1 * (i + 2),
                    contacts=tuple(contacts),
                    squeeze_force=base.squeeze_force,
                    com=base.com,
                    mass=base.mass,
                )
            )
        values = score_frames(frames, cfg)["epsilon"]
        assert np.all(np.diff(values) >= -1e-12)

    def test_gravity_and_proxy_traces(self):
        traj = self.make_trajectory([1.0, 2.0, 3.0])
        cfg = WrenchSpaceConfig(friction_mu=0.5, force_normalization="reported-force")
        values = score_frames(traj, cfg, proxy_dirs=fibonacci_sphere(16))
        assert values["gravity"].shape == (3,)
        assert values["proxy"].shape == (3,)
        assert np.all(np.diff(values["gravity"]) >= -1e-12)


class TestFrameQuality:
    def frames(self, rng):
        flat = random_frame(rng, 1)
        return [random_frame(rng, n) for n in (3, 4, 6)] + [
            flat,  # one contact: flat hull
            two_point_pinch_frame(),  # rank-deficient pinch
            antipodal_patch_frame(),
        ]

    def test_hull_counts_and_flat_hulls_score_zero(self, rng):
        dirs = fibonacci_sphere(12)
        gcfg = GravityConfig()
        for cfg in (WrenchSpaceConfig(), WrenchSpaceConfig(friction_mu=0.0)):
            for f in self.frames(rng):
                q = frame_quality(f, cfg, gcfg, dirs)
                gws = build_gws(f, cfg)
                assert (q.vertices, q.facets, q.affine_rank) == (
                    gws.vertices.shape[0], gws.facet_offsets.shape[0], gws.affine_rank
                )
                if q.affine_rank < 6:
                    assert all(v == 0.0 for v in q.values.values())

    def test_one_hull_per_frame(self, rng, monkeypatch):
        built = []

        def counting_build_gws(frame, cfg):
            built.append(frame)
            return build_gws(frame, cfg)

        monkeypatch.setattr(metrics, "build_gws", counting_build_gws)
        frames = [random_frame(rng, n, time=0.1 * (n + 1)) for n in (4, 3, 5)]
        frame_quality(frames[0], WrenchSpaceConfig(), GravityConfig())
        assert len(built) == 1
        values = score_frames(frames, WrenchSpaceConfig(), proxy_dirs=fibonacci_sphere(12))
        assert len(built) == 1 + len(frames)
        assert set(values) == set(SCORE_NAMES)

    def test_value_keys(self, rng):
        f = random_frame(rng, 4)
        q = frame_quality(f, WrenchSpaceConfig(), GravityConfig())
        assert tuple(q.values) == METRIC_NAMES
        q = frame_quality(f, WrenchSpaceConfig(), GravityConfig(), fibonacci_sphere(12))
        assert tuple(q.values) == SCORE_NAMES

    def test_contact_free_frame_scores_zero(self):
        f = TrajectoryFrame(time=0.0, contacts=(), squeeze_force=0.0, com=np.zeros(3), mass=0.1)
        q = frame_quality(f, WrenchSpaceConfig(), GravityConfig())
        assert q.values == {m: 0.0 for m in METRIC_NAMES}
        assert (q.vertices, q.facets, q.affine_rank) == (0, 0, 0)
        assert quality(f, WrenchSpaceConfig(), "epsilon") == 0.0


def bind_cpus(monkeypatch, count):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: count)


class TestConcurrentFrames:
    def trajectory(self, rng):
        counts = (3, 1, 4, 6, 2, 5, 8, 4, 3)
        frames = [random_frame(rng, n, time=0.1 * (i + 1)) for i, n in enumerate(counts)]
        return frames + [
            TrajectoryFrame(time=1.0, contacts=(), squeeze_force=0.0, com=np.zeros(3), mass=0.1)
        ]

    def test_traces_bit_equal_for_any_cpu_count(self, rng, monkeypatch):
        frames = self.trajectory(rng)
        cfg, gcfg, dirs = WrenchSpaceConfig(), GravityConfig(), fibonacci_sphere(12)
        serial = [frame_quality(f, cfg, gcfg, dirs).values for f in frames]
        for cpus in (1, 2, 4):
            bind_cpus(monkeypatch, cpus)
            traces = score_frames(frames, cfg, gcfg, dirs)
            for m in SCORE_NAMES:
                values = np.array([q[m] for q in serial])
                assert np.array_equal(traces[m], values)
                assert saturation_index(traces[m]) == saturation_index(values)

    # first, later: the failing frames; the first fails only after the later
    # one has.  With 2 CPUs and 12 frames the caller walks 11, 10, 9, ... while
    # the pool thread starts at 0, so frame 9 fails on the caller first.
    @pytest.mark.parametrize(
        "cpus, first, later",
        [
            pytest.param(1, 3, 7, id="1"),
            pytest.param(2, 3, 7, id="2"),
            pytest.param(4, 3, 7, id="4"),
            pytest.param(2, 2, 9, id="caller-fails-first"),
        ],
    )
    def test_lowest_index_failure_is_raised(self, cpus, first, later, monkeypatch):
        bind_cpus(monkeypatch, cpus)
        later_failed = threading.Event()

        def score(i):
            if i == first:
                if cpus > 1:  # fail only after the later frame has failed
                    later_failed.wait(timeout=5.0)
                raise ValueError(f"frame {first}")
            if i == later:
                later_failed.set()
                raise KeyError(f"frame {later}")
            return i

        with pytest.raises(ValueError, match=f"frame {first}"):
            cli._map_frames(score, range(12))
        assert later_failed.is_set() == (cpus > 1)

    # threads: the pool threads started beside the calling thread
    @pytest.mark.parametrize("cpus, count, threads", [(1, 8, 0), (4, 1, 0), (2, 8, 1)])
    def test_threads_started(self, cpus, count, threads, rng, monkeypatch):
        bind_cpus(monkeypatch, cpus)
        before = threading.active_count()
        seen, scorers = [], set()

        def counting_build_gws(frame, cfg):
            seen.append(threading.active_count())
            scorers.add(threading.get_ident())
            return build_gws(frame, cfg)

        monkeypatch.setattr(metrics, "build_gws", counting_build_gws)
        frames = [random_frame(rng, 3, time=0.1 * (i + 1)) for i in range(count)]
        score_frames(frames, WrenchSpaceConfig())
        assert len(seen) == count
        assert max(seen) == before + threads
        assert threading.get_ident() in scorers
        assert threading.active_count() == before

    def test_stress_more_workers_than_cores(self, monkeypatch):
        bind_cpus(monkeypatch, 8)
        calls, out = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: out.append(
                    cli._map_frames(lambda i: calls.append(i) or i * i, range(500))
                )
            )
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert out == [[i * i for i in range(500)]]
        assert sorted(calls) == list(range(500))

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert cli._usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1


class TestHullMonotonicityAcrossMetrics:
    def test_adding_contact_never_decreases_any_metric(self, rng):
        cfg = WrenchSpaceConfig()
        gcfg = GravityConfig()
        for _ in range(5):
            f = random_frame(rng, 4)
            x = rng.uniform(-1, 1, 3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            bigger = TrajectoryFrame(
                time=f.time,
                contacts=f.contacts + (ContactPoint(position=x, normal=n, force=n),),
                squeeze_force=f.squeeze_force,
                com=f.com,
                mass=f.mass,
            )
            # same centroid is required for hull nesting; rebuild the small
            # frame's wrench set about the bigger frame's centroid instead
            small_w = oracles.loop_frame_wrenches(f, cfg, centroid=contact_centroid(bigger))
            from softgrasp import convex_hull, polytope_volume

            small = convex_hull(small_w, 6)
            big = build_gws(bigger, cfg)
            assert min_facet_distance(big) >= min_facet_distance(small) - 1e-12
            assert polytope_volume(big) >= polytope_volume(small) - 1e-12
