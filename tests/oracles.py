"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and simple: linear programs over the
raw point sets, bisection on convex membership, and alternative volume
decompositions.  Nothing imports the geometry code under test beyond plain
data containers.  The one exception is full_squeeze_evaluation, which
checks the rank/bench squeeze's stopping rule, not its physics or metrics,
and so scores with the library's own metrics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, Delaunay


def lp_membership(points: np.ndarray, x: np.ndarray) -> bool:
    """Is x a convex combination of the rows of points? (exact LP feasibility)"""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    a_eq = np.vstack([pts.T, np.ones((1, n))])
    b_eq = np.concatenate([np.asarray(x, dtype=float), [1.0]])
    res = linprog(
        c=np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * n, method="highs"
    )
    return res.status == 0


def lp_ray_exit(points: np.ndarray, direction: np.ndarray) -> float:
    """max t such that t*direction is a convex combination of points."""
    pts = np.asarray(points, dtype=float)
    d = np.asarray(direction, dtype=float)
    n = pts.shape[0]
    # variables: (lambda_1..lambda_n, t); maximize t
    a_eq = np.vstack([np.hstack([pts.T, -d[:, None]]), np.hstack([np.ones(n), [0.0]])])
    b_eq = np.concatenate([np.zeros(d.size), [1.0]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(
        c=c,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        return 0.0
    return float(res.x[-1])


def bisect_ray_exit(points: np.ndarray, direction: np.ndarray, tol: float = 1e-9) -> float:
    """Boundary distance along a ray from the origin via membership bisection."""
    pts = np.asarray(points, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not lp_membership(pts, np.zeros(d.size)):
        return 0.0
    hi = float(np.max(pts @ d) / (d @ d))  # support bound: exit <= h(d)/||d||^2
    if hi <= 0.0:
        return 0.0
    if lp_membership(pts, hi * d):
        return hi
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if lp_membership(pts, mid * d):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_support(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """h(d) = max_p p . d, one value per direction row."""
    return np.max(np.asarray(directions, dtype=float) @ np.asarray(points, dtype=float).T, axis=1)


def delaunay_volume(points: np.ndarray) -> float:
    """Total volume of a Delaunay tessellation of the point set."""
    pts = np.asarray(points, dtype=float)
    tri = Delaunay(pts)
    simplices = pts[tri.simplices]
    edges = simplices[:, 1:, :] - simplices[:, :1, :]
    dets = np.abs(np.linalg.det(edges))
    return float(dets.sum() / math.factorial(pts.shape[1]))


def cube_image_points(matrix: np.ndarray) -> np.ndarray:
    """Vertices of matrix @ [-1, 1]^d; volume is exactly |det| * 2^d."""
    a = np.asarray(matrix, dtype=float)
    d = a.shape[0]
    corners = np.array(
        [[(1.0 if (i >> k) & 1 else -1.0) for k in range(d)] for i in range(2**d)]
    )
    return corners @ a.T


def cube_image_volume(matrix: np.ndarray) -> float:
    a = np.asarray(matrix, dtype=float)
    return float(abs(np.linalg.det(a)) * 2.0 ** a.shape[0])


def monte_carlo_volume(points: np.ndarray, n_samples: int, rng) -> float:
    """Hit-or-miss volume estimate with LP membership (slow; small n only)."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    box = float(np.prod(hi - lo))
    samples = rng.uniform(lo, hi, size=(n_samples, pts.shape[1]))
    hits = sum(1 for s in samples if lp_membership(pts, s))
    return box * hits / n_samples


def subspace_gravity_quality(
    wrenches: np.ndarray,
    arm: np.ndarray,
    rho: float,
    directions: np.ndarray,
    mass: float,
    gravity_accel: float = 9.81,
    span_tol: float = 1e-9,
) -> float:
    """Gravity quality from an H-representation built in the wrench span.

    Projects the wrench set onto its own linear span, takes the facet
    halfspaces of the hull there, and intersects each gravity-wrench ray
    with them; rays leaving the span, or a span smaller than the full
    6-dimensional wrench space, score zero.
    """
    w = np.asarray(wrenches, dtype=float)
    _, svals, vt = np.linalg.svd(w, full_matrices=False)
    rank = int(np.sum(svals > span_tol * svals[0])) if svals.size and svals[0] > 0 else 0
    if rank < 6:
        return 0.0
    basis = vt[:rank].T  # 6 x rank, orthonormal columns
    y = w @ basis
    hull = ConvexHull(y)
    normals = hull.equations[:, :-1]
    offsets = -hull.equations[:, -1]

    dirs = np.asarray(directions, dtype=float)
    v = np.hstack([dirs, np.cross(np.broadcast_to(arm, dirs.shape), dirs) / rho])
    norms = np.linalg.norm(v, axis=1)
    quality = np.inf
    for vk, nk in zip(v, norms):
        u = vk / nk
        if np.linalg.norm(u - basis @ (basis.T @ u)) > span_tol:
            return 0.0
        yu = basis.T @ u
        dots = normals @ yu
        ahead = dots > 1e-12
        if not np.any(ahead):
            return 0.0
        exit_dist = float(np.min(offsets[ahead] / dots[ahead]))
        if exit_dist <= 0.0:
            return 0.0
        quality = min(quality, min(exit_dist, mass * gravity_accel * nk))
    return float(quality)


def sequential_dedupe_facets(normals: np.ndarray, offsets: np.ndarray, tol: float = 1e-9):
    """Facet merge as one greedy pass over the sorted (normal, offset) rows.

    A row is dropped when it is within tol componentwise of the last row
    kept before it.  This is the reference the vectorized merge in
    geom._dedupe_facets must reproduce row for row.
    """
    rows = np.column_stack([normals, offsets])
    rows = np.unique(rows, axis=0)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    keep = np.ones(rows.shape[0], dtype=bool)
    last = 0
    for i in range(1, rows.shape[0]):
        if np.max(np.abs(rows[i] - rows[last])) <= tol:
            keep[i] = False
        else:
            last = i
    rows = rows[keep]
    return rows[:, :-1], rows[:, -1]


def loop_contact_blocks(pieces, kp: float, mu: float):
    """Penalty contact triplets built node by node and entry by entry.

    The per-node loop the Newton Jacobian was first assembled with: a k_p I
    block for a sticking node, the cap-plus-rotation slip block otherwise,
    each block scanned row-major with exact zeros dropped.  This is the
    reference the vectorized fem._contact_blocks must reproduce entry for
    entry, in the same order.
    """
    eye = np.eye(3)
    rows, cols, vals = [], [], []
    for piece in pieces:
        normal = piece["normal"]
        nn = np.outer(normal, normal)
        iso = kp * eye
        for idx, (node, stick) in enumerate(zip(piece["nodes"], piece["stick"])):
            if stick:
                block = iso
            else:
                sdir = piece["sdir"][idx]
                ratio = piece["depths"][idx] / max(piece["snorm"][idx], 1e-12)
                block = kp * (
                    nn
                    - mu * np.outer(sdir, normal)
                    + mu * ratio * (eye - nn - np.outer(sdir, sdir))
                )
            base = 3 * node
            for r in range(3):
                for c in range(3):
                    v = block[r, c]
                    if v != 0.0:
                        rows.append(base + r)
                        cols.append(base + c)
                        vals.append(v)
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=float),
    )


def loop_extract_surface(tets: np.ndarray) -> np.ndarray:
    """Boundary triangles found face by face with a dict.

    The loop TetMesh first extracted its surface with: faces keyed by their
    sorted node ids in first-seen order, a face met twice dropped, a face
    met a third time raising MeshError.  fem._extract_surface must give the
    same faces in the same order and raise on the same face.
    """
    from softgrasp.errors import MeshError
    from softgrasp.fem import _TET_FACES

    seen = {}
    for tet in tets:
        for fa, fb, fc in _TET_FACES:
            tri = (int(tet[fa]), int(tet[fb]), int(tet[fc]))
            key = tuple(sorted(tri))
            if key in seen:
                if seen[key] is None:
                    raise MeshError(f"face {key} shared by more than two tets")
                seen[key] = None
            else:
                seen[key] = tri
    boundary = [tri for tri in seen.values() if tri is not None]
    if not boundary:
        raise MeshError("mesh has no boundary faces")
    return np.array(boundary, dtype=int)


def lru_factorizations(keys, size: int) -> int:
    """Fresh factorizations of a Jacobian key sequence under an LRU of size.

    A key of None is a Jacobian that is never kept (one with slip blocks);
    any other key is looked up, and on a miss stored, evicting the least
    recently used key once size are held.
    """
    held = []
    fresh = 0
    for key in keys:
        if key is not None and key in held:
            held.remove(key)
            held.append(key)
            continue
        fresh += 1
        if key is not None:
            held = (held + [key])[-size:]
    return fresh


def full_squeeze_evaluation(frames, mesh_nodes, rc, index: int):
    """A rank/bench candidate scored from every frame of its full squeeze.

    frames is the squeeze run on to the grasp's own max_force.  The score is
    taken at the first frame that reaches rc.desired_force, else at the last
    frame, and frames counts every frame emitted.  This is the reference
    that cli._run_candidate, which stops the squeeze at the scored frame,
    must reproduce in every field but frames.
    """
    from softgrasp.cli import GraspEvaluation
    from softgrasp.contact import contact_centroid
    from softgrasp.metrics import desired_force_index, fibonacci_sphere, frame_quality

    if not frames:
        return GraspEvaluation(
            index=index, status="empty", frames=0, reached=False, eval_force=0.0,
            epsilon=0.0, volume=0.0, gravity=0.0, proxy=0.0,
            message="no contact frames",
        )
    rho = rc.resolve_rho(mesh_nodes, contact_centroid(frames[0]))
    idx = desired_force_index(frames, rc.desired_force)
    frame = frames[idx] if idx is not None else frames[-1]
    q = frame_quality(
        frame, rc.wrench_config(rho), rc.gravity_config(),
        proxy_dirs=fibonacci_sphere(rc.proxy_directions),
    )
    return GraspEvaluation(
        index=index,
        status="ok",
        frames=len(frames),
        reached=idx is not None,
        eval_force=frame.squeeze_force,
        **q.values,
    )
