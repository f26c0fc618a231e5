"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and simple: linear programs over the
raw point sets, bisection on convex membership, and alternative volume
decompositions.  Nothing imports the geometry code under test beyond plain
data containers.  There are two exceptions.  full_squeeze_evaluation
checks the rank/bench squeeze's stopping rule, not its physics or metrics,
and so scores with the library's own metrics.  direct_lu_squeeze checks
the contact-space Newton solve, and so runs a full-space Newton loop of
its own, with a direct sparse LU per step, on the library's model,
contact law and frames.  The earlier forms of faster library code are kept
here too, each to be matched bit for bit: the stacked contact state, the
squeeze that runs a step at every gap, and the line-by-line Tetgen reader.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
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


def loop_contact_state(model, pads, gap, u, u_step_start, cfg):
    """Penalty contact law evaluated surface by surface.

    The form fem._contact_state had before its contact record: a
    penetration query per surface (pad A, pad B, platform) and, for each
    surface that touches, its forces, stick flags and slip directions as
    one dict.  Returns (f_ext, pieces); fem._contact_state must give the
    same f_ext and, row for row, the pieces' values in its _Contacts.
    """
    surf = model.mesh.surface_nodes
    x = model.mesh.nodes[surf] + u.reshape(-1, 3)[surf]
    kp = cfg.penalty_stiffness
    mu = model.mat.friction_mu
    s = (x - pads.center) @ pads.axis
    lat1 = np.abs((x - pads.center) @ pads.t1) <= pads.halfwidth
    lat2 = np.abs((x - pads.center) @ pads.t2) <= pads.halfwidth
    in_pad = lat1 & lat2
    half = gap / 2.0
    surfaces = (
        (0, in_pad, -half - s, pads.axis),
        (1, in_pad, s - half, -pads.axis),
        (2, np.ones_like(in_pad), pads.platform_height - x[:, 2], np.array([0.0, 0.0, 1.0])),
    )
    f_ext = np.zeros(3 * model.mesh.num_nodes)
    pieces = []
    for kind, inside, depth, normal in surfaces:
        rows = np.nonzero(inside & (depth > 0.0))[0]
        if not rows.size:
            continue
        depths = depth[rows]
        nodes_g = surf[rows]
        fn = kp * depths
        slip = (u - u_step_start).reshape(-1, 3)[nodes_g]
        slip_t = slip - np.outer(slip @ normal, normal)
        ft = -kp * slip_t
        ft_norm = np.linalg.norm(ft, axis=1)
        cap = mu * fn
        slipping = ft_norm > cap
        scale = np.ones_like(ft_norm)
        nz = ft_norm > 0.0
        scale[nz & slipping] = cap[nz & slipping] / ft_norm[nz & slipping]
        ft = ft * scale[:, None]
        forces = np.outer(fn, normal) + ft
        np.add.at(f_ext.reshape(-1, 3), nodes_g, forces)
        sdir = np.zeros_like(slip_t)
        if np.any(slipping):
            sdir[slipping] = slip_t[slipping] * (kp / ft_norm[slipping])[:, None]
        pieces.append({
            "kind": kind, "nodes": nodes_g, "normal": normal, "depth": depths, "fn": fn,
            "force": forces, "stick": ~slipping, "sdir": sdir, "snorm": ft_norm / kp,
        })
    return f_ext, pieces


def loop_contact_blocks(contacts, kp: float, mu: float):
    """Penalty contact blocks built node by node, (k, 3, 3).

    The per-node loop the Newton Jacobian was first assembled with: a k_p I
    block for a sticking node, the cap-plus-rotation slip block otherwise.
    contacts is a fem._Contacts record (only its nodes, normal, depth,
    stick, sdir and snorm are read).  This is the reference the vectorized
    fem._contact_blocks must reproduce bit for bit, row for row.
    """
    eye = np.eye(3)
    blocks = np.empty((contacts.nodes.size, 3, 3))
    for idx, stick in enumerate(contacts.stick):
        if stick:
            blocks[idx] = kp * eye
            continue
        normal = contacts.normal[idx]
        nn = np.outer(normal, normal)
        sdir = contacts.sdir[idx]
        ratio = contacts.depth[idx] / max(contacts.snorm[idx], 1e-12)
        blocks[idx] = kp * (
            nn
            - mu * np.outer(sdir, normal)
            + mu * ratio * (eye - nn - np.outer(sdir, sdir))
        )
    return blocks


def direct_jacobian(model, contacts, kp: float):
    """The Newton Jacobian K + reg*I plus each record row's
    loop_contact_blocks block on its node's dofs, assembled as one sparse
    matrix (CSC)."""
    n3 = model.stiffness.shape[0]
    rows, cols, vals = [], [], []
    for node, block in zip(contacts.nodes, loop_contact_blocks(contacts, kp, model.mat.friction_mu)):
        for r in range(3):
            for c in range(3):
                rows.append(3 * node + r)
                cols.append(3 * node + c)
                vals.append(block[r, c])
    extra = sp.csc_matrix((vals, (rows, cols)), shape=(n3, n3))
    return (model.stiffness + model.reg * sp.identity(n3) + extra).tocsc()


def direct_newton_direction(model, contacts, kp: float, r):
    """A full-space Newton step: r solved by a fresh sparse LU of
    direct_jacobian."""
    return spla.splu(direct_jacobian(model, contacts, kp)).solve(r)


def full_space_residual(model, contacts, u):
    """f_ext(u) - K u - reg*u over all 3n dofs, f_ext the record's forces
    summed onto their nodes."""
    f_ext = np.zeros(u.size)
    np.add.at(f_ext.reshape(-1, 3), contacts.nodes, contacts.force)
    return f_ext - model.stiffness @ u - model.reg * u


def direct_quasi_static_step(model, squeeze, gap, u_start, cfg):
    """(u, StepReport) of one closing increment, solved by a Newton loop on
    the full displacement: the clamp, the five-scale line search that keeps
    the least residual, and the tolerance of fem.quasi_static_step, each
    step solved by direct_newton_direction.  squeeze is a fem.Squeeze, of
    which only the pad frame is read.  Raises SolverError as it does."""
    from softgrasp import fem
    from softgrasp.errors import SolverError

    def state_at(u):
        contacts = fem._contact_state(model, squeeze, gap, u, u_start, cfg)
        r = full_space_residual(model, contacts, u)
        return r, float(np.linalg.norm(r)), contacts

    u = u_start.copy()
    residual, res_norm, contacts = state_at(u)
    clamp = 20.0 * cfg.displacement_increment
    iterations = 0
    for iterations in range(1, cfg.max_fixedpoint_iters + 1):
        if res_norm < cfg.convergence_tol:
            return u, fem.StepReport(contacts, res_norm, iterations)
        try:
            du = direct_newton_direction(model, contacts, cfg.penalty_stiffness, residual)
        except RuntimeError as exc:
            raise SolverError(f"singular Newton system ({exc})") from exc
        step = float(np.max(np.abs(du)))
        if step > clamp:
            du *= clamp / step
        trial = None
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            u_try = u + scale * du
            state = (u_try,) + state_at(u_try)
            if trial is None or state[2] < trial[2]:
                trial = state
            if state[2] < cfg.convergence_tol:
                break
        u, residual, res_norm, contacts = trial
    if res_norm < cfg.convergence_tol:
        return u, fem.StepReport(contacts, res_norm, iterations)
    raise SolverError(f"no convergence after {cfg.max_fixedpoint_iters} iterations")


def direct_lu_squeeze(model, grasp, cfg):
    """(status, frames) of fem.run_squeeze on model with every step solved by
    direct_quasi_static_step: "ok" with its frames, "empty" without frames,
    or "failed" with none when a step raises SolverError.  The gap schedule
    and the stop at max_force are fem.squeeze_steps'."""
    from softgrasp import fem
    from softgrasp.errors import SolverError

    mesh = model.mesh
    squeeze = fem.Squeeze(model, grasp, cfg)
    reach = float(np.max(np.abs((mesh.nodes - grasp.grasp_center) @ grasp.approach_axis)))
    gap0 = 2.0 * reach + 2.0 * cfg.displacement_increment
    u = np.zeros(3 * mesh.num_nodes)
    frames = []
    gap = gap0
    step_idx = 0
    while gap - cfg.displacement_increment > 0.0:
        step_idx += 1
        gap = gap0 - step_idx * cfg.displacement_increment
        try:
            u, report = direct_quasi_static_step(model, squeeze, gap, u, cfg)
        except SolverError:
            return "failed", []
        if np.all(report.contacts.kind == fem.PLATFORM):
            continue
        frames.append(fem.step_frame(model, cfg, step_idx, u, report))
        if report.squeeze_force >= grasp.max_force:
            break
    return ("ok" if frames else "empty"), frames


def loop_extract_surface(tets: np.ndarray) -> np.ndarray:
    """Boundary triangles found face by face with a dict.

    The loop TetMesh first extracted its surface with: faces keyed by their
    sorted node ids in first-seen order, a face met twice dropped, a face
    met a third time raising InvalidInputError.  fem._extract_surface must
    give the same faces in the same order and raise on the same face.
    """
    from softgrasp.errors import InvalidInputError
    from softgrasp.fem import _TET_FACES

    seen = {}
    for tet in tets:
        for fa, fb, fc in _TET_FACES:
            tri = (int(tet[fa]), int(tet[fb]), int(tet[fc]))
            key = tuple(sorted(tri))
            if key in seen:
                if seen[key] is None:
                    raise InvalidInputError(f"face {key} shared by more than two tets")
                seen[key] = None
            else:
                seen[key] = tri
    boundary = [tri for tri in seen.values() if tri is not None]
    if not boundary:
        raise InvalidInputError("mesh has no boundary faces")
    return np.array(boundary, dtype=int)


def loop_frame_wrenches(frame, cfg, centroid=None) -> np.ndarray:
    """A frame's wrench set built contact by contact.

    The loop contact.frame_wrenches had before it stacked the contacts: for
    each contact, renormalize the normal, seed t1 from the coordinate axis
    least aligned with it, take the m edges
    normalize(n + mu (cos(2 pi j/m) t1 + sin(2 pi j/m) t2)), scale them by
    |force| in reported-force mode and append (edge, arm x edge / rho).
    The torques are about centroid, the contacts' mean when None.
    frame_wrenches must give the same bytes.
    """
    if centroid is None:
        centroid = np.mean([c.position for c in frame.contacts], axis=0)
    m = cfg.cone_edges
    rows = []
    for c in frame.contacts:
        n = c.normal / float(np.linalg.norm(c.normal))
        a = int(np.argmin(np.abs(n)))
        e = np.zeros(3)
        e[a] = 1.0
        t1 = e - n[a] * n
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        theta = 2.0 * np.pi * np.arange(m) / m
        edges = n[None, :] + cfg.friction_mu * (
            np.cos(theta)[:, None] * t1 + np.sin(theta)[:, None] * t2
        )
        edges = edges / np.linalg.norm(edges, axis=1)[:, None]
        if cfg.force_normalization == "reported-force":
            edges = edges * float(np.linalg.norm(c.force))
        arm = c.position - centroid
        torques = np.cross(np.broadcast_to(arm, edges.shape), edges) / cfg.torque_scale_rho
        rows.append(np.hstack([edges, torques]))
    rows.append(np.zeros((1, 6)))
    return np.vstack(rows)


def full_squeeze_evaluation(frames, mesh_nodes, rc, index: int):
    """A rank/bench candidate scored from every frame of its full squeeze.

    frames is the squeeze run on to the grasp's own max_force.  The score is
    taken at the first frame that reaches rc.desired_force, else at the last
    frame.  This is the reference that cli._run_candidate, which stops the
    squeeze at the scored frame, must reproduce.
    """
    from softgrasp.cli import GraspEvaluation
    from softgrasp.contact import contact_centroid
    from softgrasp.metrics import desired_force_index, fibonacci_sphere, frame_quality

    if not frames:
        return GraspEvaluation(index=index, status="empty", message="no contact frames")
    rho = rc.resolve_rho(mesh_nodes, contact_centroid(frames[0]))
    idx = desired_force_index(frames, rc.desired_force)
    frame = frames[idx] if idx is not None else frames[-1]
    q = frame_quality(
        frame, rc.wrench_config(rho), rc.gravity,
        proxy_dirs=fibonacci_sphere(rc.proxy_directions),
    )
    return GraspEvaluation(
        index=index,
        status="ok",
        reached=idx is not None,
        eval_force=frame.squeeze_force,
        **q.values,
    )


def stacked_contact_state(model, squeeze, gap, u, u_step_start, cfg):
    """fem._contact_state as it was before it sliced rows by surface: the
    three surfaces' depths stacked and masked at once, each surface's
    rows gathered by mask, and the Coulomb scale applied to every row.
    fem._contact_state must give the same record, field for field, byte
    for byte."""
    from softgrasp import fem

    surf = model.mesh.surface_nodes
    x = model.mesh.nodes[surf] + u.reshape(-1, 3)[surf]
    kp = cfg.penalty_stiffness
    mu = model.mat.friction_mu
    rel = x - squeeze.center
    s = rel @ squeeze.axis
    in_pad = (np.abs(rel @ squeeze.t1) <= squeeze.halfwidth) & (np.abs(rel @ squeeze.t2) <= squeeze.halfwidth)
    half = gap / 2.0
    depth = np.stack([-half - s, s - half, squeeze.platform_height - x[:, 2]])
    kind, rows = np.nonzero((depth > 0.0) & np.stack([in_pad, in_pad, np.ones_like(in_pad)]))
    depth = depth[kind, rows]
    nodes = surf[rows]
    normal = squeeze.normals[kind]
    fn = kp * depth
    du = u.reshape(-1, 3)[nodes] - u_step_start.reshape(-1, 3)[nodes]
    along = np.concatenate([du[kind == k] @ n for k, n in enumerate(squeeze.normals)])
    slip_t = du - along[:, None] * normal
    ft = -kp * slip_t
    ft_norm = np.linalg.norm(ft, axis=1)
    cap = mu * fn
    slipping = ft_norm > cap
    scale = np.ones_like(ft_norm)
    scale[slipping] = cap[slipping] / ft_norm[slipping]
    ft = ft * scale[:, None]
    force = fn[:, None] * normal + ft
    sdir = np.zeros_like(slip_t)
    if np.any(slipping):
        sdir[slipping] = slip_t[slipping] * (kp / ft_norm[slipping])[:, None]
    return fem._Contacts(
        kind=kind, nodes=nodes, normal=normal, depth=depth, fn=fn, force=force,
        stick=~slipping, sdir=sdir, snorm=ft_norm / kp,
    )


def every_gap_squeeze_steps(model, grasp, cfg):
    """fem.squeeze_steps as it was before it skipped the contact-free
    approach: fem.quasi_static_step runs at every gap from just outside the
    object, and the same steps are yielded."""
    from softgrasp import fem

    mesh = model.mesh
    reach = float(np.max(np.abs((mesh.nodes - grasp.grasp_center) @ grasp.approach_axis)))
    gap0 = 2.0 * reach + 2.0 * cfg.displacement_increment
    squeeze = fem.Squeeze(model, grasp, cfg)
    u = np.zeros(3 * mesh.num_nodes)
    gap = gap0
    step_idx = 0
    while gap - cfg.displacement_increment > 0.0:
        step_idx += 1
        gap = gap0 - step_idx * cfg.displacement_increment
        u, report = fem.quasi_static_step(model, squeeze, gap, u, cfg)
        if np.all(report.contacts.kind == fem.PLATFORM):
            continue
        yield step_idx, u, report
        if report.squeeze_force >= grasp.max_force:
            return


def line_parse_tet_mesh(node_text: str, ele_text: str):
    """fileio.parse_tet_mesh as it was before it read in array passes: line
    by line, token by token, each check raising at the first line and token
    that fails it.  parse_tet_mesh must give the same nodes and tets, or
    raise the same ParseError message with the same line."""
    from softgrasp.errors import InvalidInputError, ParseError
    from softgrasp.fem import TetMesh, tet_volumes

    def data_lines(text):
        for i, raw in enumerate(text.splitlines()):
            body = raw.split("#", 1)[0].strip()
            if body:
                yield i + 1, body.split()

    def to_int(token, lineno, what):
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"non-integer {what} {token!r}", line=lineno) from None

    def to_float(token, lineno, what):
        try:
            val = float(token)
        except ValueError:
            raise ParseError(f"non-numeric {what} {token!r}", line=lineno) from None
        if not np.isfinite(val):
            raise ParseError(f"non-finite {what} {token!r}", line=lineno)
        return val

    node_lines = list(data_lines(node_text))
    if not node_lines:
        raise ParseError("empty node file", line=1)
    lineno, head = node_lines[0]
    if len(head) < 2:
        raise ParseError("node header needs at least <count> <dim>", line=lineno)
    n_nodes = to_int(head[0], lineno, "node count")
    dim = to_int(head[1], lineno, "dimension")
    if n_nodes < 1:
        raise ParseError("node count must be >= 1", line=lineno)
    if dim != 3:
        raise ParseError(f"only 3D meshes supported, got dim {dim}", line=lineno)
    body = node_lines[1:]
    if len(body) != n_nodes:
        raise ParseError(f"node count {n_nodes} does not match {len(body)} node lines", line=lineno)

    base = None
    ids = {}
    coords = np.empty((n_nodes, 3))
    for row, (ln, toks) in enumerate(body):
        if len(toks) < 4:
            raise ParseError("node line needs <index> <x> <y> <z>", line=ln)
        idx = to_int(toks[0], ln, "node index")
        if base is None:
            if idx not in (0, 1):
                raise ParseError(f"first node index must be 0 or 1, got {idx}", line=ln)
            base = idx
        if idx in ids:
            raise ParseError(f"duplicate node index {idx}", line=ln)
        if not (base <= idx < base + n_nodes):
            raise ParseError(f"node index {idx} out of range", line=ln)
        ids[idx] = row
        for k in range(3):
            coords[row, k] = to_float(toks[1 + k], ln, "coordinate")

    ele_lines = list(data_lines(ele_text))
    if not ele_lines:
        raise ParseError("empty ele file", line=1)
    lineno, head = ele_lines[0]
    if len(head) < 2:
        raise ParseError("ele header needs at least <count> <nodes-per-tet>", line=lineno)
    n_tets = to_int(head[0], lineno, "tet count")
    per = to_int(head[1], lineno, "nodes per tet")
    if n_tets < 1:
        raise ParseError("tet count must be >= 1", line=lineno)
    if per != 4:
        raise ParseError(f"only 4-node tets supported, got {per}", line=lineno)
    body = ele_lines[1:]
    if len(body) != n_tets:
        raise ParseError(f"tet count {n_tets} does not match {len(body)} tet lines", line=lineno)

    tets = np.empty((n_tets, 4), dtype=int)
    tet_linenos = np.empty(n_tets, dtype=int)
    for row, (ln, toks) in enumerate(body):
        if len(toks) < 5:
            raise ParseError("tet line needs <index> and 4 node indices", line=ln)
        for k in range(4):
            ref = to_int(toks[1 + k], ln, "tet node index")
            if ref not in ids:
                raise ParseError(f"tet references unknown node {ref}", line=ln)
            tets[row, k] = ids[ref]
        tet_linenos[row] = ln

    vols = tet_volumes(coords, tets)
    bad = np.nonzero(vols <= 0.0)[0]
    if bad.size:
        raise ParseError(
            f"inverted or flat tet (signed volume {vols[bad[0]]:.3e})",
            line=int(tet_linenos[bad[0]]),
        )
    try:
        return TetMesh(nodes=coords, tets=tets)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from None
