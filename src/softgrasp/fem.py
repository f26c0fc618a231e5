"""Quasi-static tetrahedral FEM squeeze simulator.

Two rigid square finger pads close along an approach axis on a linear-elastic
tet mesh resting on a platform plane.  Contact is penalty-based (normal force
k_p * depth plus Coulomb-capped tangential force against the tangential slip
accumulated within the step), and every closing increment is solved to elastic
equilibrium with a Newton loop on the residual.  Converged increments with
finger contact are emitted as TrajectoryFrames for the metric pipeline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contact import ContactPoint, TrajectoryFrame, _vec3, orthonormal_tangents
from .errors import InvalidInputError, MeshError, SolverError

logger = logging.getLogger(__name__)

# Tikhonov factor anchoring the six rigid modes of the free-floating object,
# relative to the mean stiffness diagonal.
RIGID_REG_REL = 1e-9

# LUs of all-stick Newton Jacobians a model keeps for reuse.  A squeeze
# alternates between a few all-stick contact sets; a Jacobian with a slipping
# node depends on u and, in practice, never repeats.
STICK_LUS = 2


# ---------------------------------------------------------------------------
# Mesh and material types.


@dataclass(frozen=True, eq=False)
class TetMesh:
    """Tetrahedral mesh in its rest configuration.

    Tets must have positive signed volume.  surface_faces (outward-oriented
    boundary triangles) and surface_nodes are derived at construction;
    a face shared by three or more tets marks a broken mesh.
    """

    nodes: np.ndarray
    tets: np.ndarray
    surface_faces: np.ndarray = None
    surface_nodes: np.ndarray = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        tets = np.asarray(self.tets, dtype=int)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or nodes.shape[0] < 4:
            raise MeshError("nodes must be an (n >= 4, 3) array")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("non-finite node coordinates")
        if tets.ndim != 2 or tets.shape[1] != 4 or tets.shape[0] < 1:
            raise MeshError("tets must be an (m >= 1, 4) array")
        if tets.min() < 0 or tets.max() >= nodes.shape[0]:
            raise MeshError("tet node index out of range")
        vols = tet_volumes(nodes, tets)
        bad = np.nonzero(vols <= 0.0)[0]
        if bad.size:
            raise MeshError(f"tet {bad[0]} has non-positive volume {vols[bad[0]]:.3e}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tets", tets)
        faces = _extract_surface(tets)
        object.__setattr__(self, "surface_faces", faces)
        object.__setattr__(self, "surface_nodes", np.unique(faces))

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]

    def volume(self) -> float:
        return float(tet_volumes(self.nodes, self.tets).sum())

    def translated(self, offset) -> "TetMesh":
        return TetMesh(nodes=self.nodes + _vec3(offset, "offset"), tets=self.tets)


def tet_volumes(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volumes of each tet (positive for well-oriented tets)."""
    corners = nodes[tets]
    edges = corners[:, 1:, :] - corners[:, :1, :]
    return np.linalg.det(edges) / 6.0


def mesh_center_of_mass(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Volume-weighted mean of tet centroids (uniform density cancels)."""
    vols = tet_volumes(nodes, tets)
    centroids = nodes[tets].mean(axis=1)
    total = vols.sum()
    if total <= 0.0:
        raise MeshError("mesh has non-positive total volume")
    return (vols[:, None] * centroids).sum(axis=0) / total


# Faces of tet (a,b,c,d), wound so their normals point out of the tet.
_TET_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))


def _extract_surface(tets: np.ndarray) -> np.ndarray:
    """Outward-oriented boundary triangles: faces owned by exactly one tet.

    Faces come in first-seen order (tet by tet, _TET_FACES order within a
    tet); a face met a third time raises, naming the earliest such face.
    """
    tris = tets[:, _TET_FACES].reshape(-1, 3)
    keys = np.sort(tris, axis=1).astype(np.int64)
    n = int(tets.max()) + 1  # the int64 code holds n**3 for n below 2**21 nodes
    codes = (keys[:, 0] * n + keys[:, 1]) * n + keys[:, 2]
    order = np.argsort(codes, kind="stable")
    _, starts, counts = np.unique(codes[order], return_index=True, return_counts=True)
    if counts.max() > 2:
        third = order[starts[counts > 2] + 2].min()
        raise MeshError(f"face {tuple(int(v) for v in keys[third])} shared by more than two tets")
    boundary = np.sort(order[starts[counts == 1]])
    if not boundary.size:
        raise MeshError("mesh has no boundary faces")
    return tris[boundary]


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic linear elasticity plus surface friction and density."""

    youngs_modulus: float = 2e5
    poisson_ratio: float = 0.3
    friction_mu: float = 0.8
    density: float = 500.0

    def __post_init__(self):
        if not (np.isfinite(self.youngs_modulus) and self.youngs_modulus > 0.0):
            raise InvalidInputError("youngs_modulus must be > 0")
        if not (0.0 < self.poisson_ratio < 0.5):
            raise InvalidInputError("poisson_ratio must lie in (0, 0.5)")
        if not (np.isfinite(self.friction_mu) and self.friction_mu >= 0.0):
            raise InvalidInputError("friction_mu must be >= 0")
        if not (np.isfinite(self.density) and self.density > 0.0):
            raise InvalidInputError("density must be > 0")

    def lame(self) -> tuple[float, float]:
        e, nu = self.youngs_modulus, self.poisson_ratio
        lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        mu = e / (2.0 * (1.0 + nu))
        return lam, mu


@dataclass(frozen=True)
class GraspCandidate:
    """Parallel-jaw grasp: pad pose, pad size, and the force to close to."""

    grasp_center: np.ndarray
    approach_axis: np.ndarray
    finger_halfwidth: float
    max_force: float

    def __post_init__(self):
        object.__setattr__(self, "grasp_center", _vec3(self.grasp_center, "grasp_center"))
        axis = _vec3(self.approach_axis, "approach_axis")
        if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-6:
            raise InvalidInputError("approach_axis must be unit length")
        object.__setattr__(self, "approach_axis", axis)
        if not (np.isfinite(self.finger_halfwidth) and self.finger_halfwidth > 0.0):
            raise InvalidInputError("finger_halfwidth must be > 0")
        if not (np.isfinite(self.max_force) and self.max_force > 0.0):
            raise InvalidInputError("max_force must be > 0")


@dataclass(frozen=True)
class SimConfig:
    """Solver knobs for the penalty-contact quasi-static loop.

    platform_height may be any finite value (put it below the object to
    disable the platform); dt is the nominal time per closing increment
    used only to stamp frames.
    """

    penalty_stiffness: float = 1e6
    max_fixedpoint_iters: int = 80
    displacement_increment: float = 1e-4
    convergence_tol: float = 1e-3
    platform_height: float = 0.0
    dt: float = 0.01

    def __post_init__(self):
        for name in ("penalty_stiffness", "max_fixedpoint_iters", "displacement_increment", "convergence_tol", "dt"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0.0):
                raise InvalidInputError(f"{name} must be > 0")
        if not np.isfinite(self.platform_height):
            raise InvalidInputError("platform_height must be finite")
        object.__setattr__(self, "max_fixedpoint_iters", int(self.max_fixedpoint_iters))


# ---------------------------------------------------------------------------
# Primitive mesh generation.

# Kuhn split of the unit cell: six tets around the main diagonal, one per
# axis-insertion order.  Face diagonals always run low corner to high corner,
# so translated copies tile conformingly.
_KUHN_ORDERS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


def _box_mesh(dims, resolution: int) -> TetMesh:
    lx, ly, lz = dims
    n = int(resolution)
    xs = np.linspace(-lx / 2.0, lx / 2.0, n + 1)
    ys = np.linspace(-ly / 2.0, ly / 2.0, n + 1)
    zs = np.linspace(-lz / 2.0, lz / 2.0, n + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def nid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for order in _KUHN_ORDERS:
                    corners = [base.copy()]
                    cur = base.copy()
                    for axis in order:
                        cur = cur.copy()
                        cur[axis] += 1
                        corners.append(cur)
                    idx = [nid(*c) for c in corners]
                    tets.append(idx)
    tets = np.array(tets, dtype=int)
    vols = tet_volumes(nodes, tets)
    flip = vols < 0.0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return TetMesh(nodes=nodes, tets=tets)


def _split_prism(v) -> list[tuple[int, int, int, int]]:
    """Three tets for prism (v0,v1,v2 bottom, v3,v4,v5 top), index-consistent.

    Every quad face takes the diagonal through its smallest global index, so
    neighboring prisms always agree on shared faces.  Achieved by rotating
    (and flipping, when the smallest index is on top) the prism so that the
    overall smallest index sits at v0; the one quad not touching v0 picks
    its diagonal by direct comparison.
    """
    v = list(v)
    if min(v[3:]) < min(v[:3]):
        v = [v[3], v[5], v[4], v[0], v[2], v[1]]
    best = int(np.argmin(v[:3]))
    r = [(best + i) % 3 for i in range(3)]
    v0, v1, v2 = (v[i] for i in r)
    v3, v4, v5 = (v[3 + i] for i in r)
    if min(v1, v5) < min(v2, v4):
        return [(v0, v1, v2, v5), (v0, v1, v5, v4), (v0, v4, v5, v3)]
    return [(v0, v1, v2, v4), (v0, v4, v2, v5), (v0, v4, v5, v3)]


def _disk_points_and_tris(radius: float, rings: int, ntheta: int):
    """Fan-plus-annulus triangulation of a disk; returns (points2d, triangles)."""
    pts = [(0.0, 0.0)]
    ring_start = [None]
    for k in range(1, rings + 1):
        r = radius * k / rings
        ring_start.append(len(pts))
        for j in range(ntheta):
            th = 2.0 * np.pi * j / ntheta
            pts.append((r * np.cos(th), r * np.sin(th)))
    tris = []
    s1 = ring_start[1]
    for j in range(ntheta):
        tris.append((0, s1 + j, s1 + (j + 1) % ntheta))
    for k in range(1, rings):
        sa, sb = ring_start[k], ring_start[k + 1]
        for j in range(ntheta):
            a0, a1 = sa + j, sa + (j + 1) % ntheta
            b0, b1 = sb + j, sb + (j + 1) % ntheta
            # split the quad (a0, a1, b1, b0) along the diagonal through its
            # smallest index so neighbors agree
            if min(a0, b1) < min(a1, b0):
                tris.append((a0, a1, b1))
                tris.append((a0, b1, b0))
            else:
                tris.append((a0, a1, b0))
                tris.append((a1, b1, b0))
    return np.array(pts), np.array(tris, dtype=int)


def _cylinder_mesh(radius: float, height: float, resolution: int) -> TetMesh:
    rings = max(1, int(resolution))
    ntheta = max(16, 8 * int(resolution))
    layers = max(1, int(resolution))
    pts2d, tris = _disk_points_and_tris(radius, rings, ntheta)
    npl = pts2d.shape[0]
    zs = np.linspace(-height / 2.0, height / 2.0, layers + 1)
    nodes = np.vstack([np.column_stack([pts2d, np.full(npl, z)]) for z in zs])
    tets = []
    for layer in range(layers):
        lo = layer * npl
        hi = (layer + 1) * npl
        for a, b, c in tris:
            prism = [lo + a, lo + b, lo + c, hi + a, hi + b, hi + c]
            tets.extend(_split_prism(prism))
    tets = np.array(tets, dtype=int)
    vols = tet_volumes(nodes, tets)
    flip = vols < 0.0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return TetMesh(nodes=nodes, tets=tets)


def _sphereish_mesh(radius: float, resolution: int) -> TetMesh:
    """Ball-like mesh: a box grid mapped radially onto the sphere.

    Each node of the [-1, 1]^3 grid scales by ||p||_inf / ||p||_2 blended
    toward the identity near the center, which keeps interior tets from
    inverting while the boundary lands on the sphere.
    """
    box = _box_mesh((2.0, 2.0, 2.0), resolution)
    p = box.nodes
    linf = np.max(np.abs(p), axis=1)
    l2 = np.linalg.norm(p, axis=1)
    scale = np.ones(p.shape[0])
    mask = l2 > 1e-12
    t = linf[mask]  # 0 at center, 1 on the box surface
    s_surface = linf[mask] / l2[mask]
    scale[mask] = (1.0 - t) + t * s_surface
    nodes = radius * p * scale[:, None]
    return TetMesh(nodes=nodes, tets=box.tets)


def generate_primitive_mesh(kind: str, dims, resolution: int = 6) -> TetMesh:
    """Structured tet mesh of a primitive solid.

    kind "box": dims (lx, ly, lz), resolution cells per edge.
    kind "cylinder": dims (radius, height).
    kind "sphere-ish": dims (radius,) or scalar.
    All meshes are centered at the origin.
    """
    if int(resolution) < 1:
        raise InvalidInputError("resolution must be >= 1")
    resolution = int(resolution)
    if kind == "box":
        d = np.asarray(dims, dtype=float).reshape(-1)
        if d.size != 3 or np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise InvalidInputError("box dims must be three positive lengths")
        return _box_mesh(d, resolution)
    if kind == "cylinder":
        d = np.asarray(dims, dtype=float).reshape(-1)
        if d.size != 2 or np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise InvalidInputError("cylinder dims must be (radius, height)")
        return _cylinder_mesh(float(d[0]), float(d[1]), resolution)
    if kind == "sphere-ish":
        d = np.asarray(dims, dtype=float).reshape(-1)
        if d.size != 1 or d[0] <= 0.0 or not np.isfinite(d[0]):
            raise InvalidInputError("sphere-ish dims must be (radius,)")
        if resolution < 2:
            raise InvalidInputError("sphere-ish needs resolution >= 2")
        return _sphereish_mesh(float(d[0]), resolution)
    raise InvalidInputError(f"unknown primitive kind {kind!r}")


# ---------------------------------------------------------------------------
# Stiffness assembly.


def _elastic_matrix(lam: float, mu: float) -> np.ndarray:
    """6x6 isotropic elasticity matrix in Voigt order (xx, yy, zz, xy, yz, zx)."""
    d = np.zeros((6, 6))
    d[:3, :3] = lam
    d[0, 0] = d[1, 1] = d[2, 2] = lam + 2.0 * mu
    d[3, 3] = d[4, 4] = d[5, 5] = mu
    return d


def _tet_stiffness(coords: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """Element stiffness for a batch of linear tets.

    ``coords`` is (m, 4, 3).  Returns ``ke`` of shape (m, 12, 12).  Raises
    MeshError when any element has non-positive volume, before inverting.
    """
    m = coords.shape[0]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    vols = np.linalg.det(edges) / 6.0
    if np.any(vols <= 0.0):
        raise MeshError("inverted tet during assembly")
    # gradient of shape function i (i=1..3) is column i-1 of inv(edges)
    grads_rest = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads = np.empty((m, 4, 3))
    grads[:, 1:, :] = grads_rest
    grads[:, 0, :] = -grads_rest.sum(axis=1)
    b = np.zeros((m, 6, 12))
    for a in range(4):
        gx = grads[:, a, 0]
        gy = grads[:, a, 1]
        gz = grads[:, a, 2]
        c = 3 * a
        b[:, 0, c] = gx
        b[:, 1, c + 1] = gy
        b[:, 2, c + 2] = gz
        b[:, 3, c] = gy
        b[:, 3, c + 1] = gx
        b[:, 4, c + 1] = gz
        b[:, 4, c + 2] = gy
        b[:, 5, c] = gz
        b[:, 5, c + 2] = gx
    dmat = _elastic_matrix(lam, mu)
    ke = np.einsum("mja,jk,mkb->mab", b, dmat, b, optimize=True)
    ke *= vols[:, None, None]
    return ke


def assemble_stiffness(mesh: TetMesh, mat: MaterialParams) -> sp.csr_matrix:
    """Global stiffness (3n x 3n, CSR) from constant-strain tets."""
    lam, mu = mat.lame()
    coords = mesh.nodes[mesh.tets]
    ke = _tet_stiffness(coords, lam, mu)
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    n3 = 3 * mesh.num_nodes
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n3, n3)).tocsr()
    k.sum_duplicates()
    return k


@dataclass(eq=False)
class AssembledModel:
    """Mesh plus its factor-ready stiffness and the rigid-mode regularizer.

    regularized is K + reg*I in CSC, the contact-free part of every Newton
    Jacobian.  mass is the rest mesh's mass, stamped on every frame.
    stick_lus holds the LUs of the last STICK_LUS all-stick Jacobians,
    least recently used first; see _factorize.
    """

    mesh: TetMesh
    mat: MaterialParams
    stiffness: sp.csr_matrix
    reg: float
    regularized: sp.csc_matrix
    mass: float
    stick_lus: dict = field(default_factory=dict, init=False, repr=False)


def assemble_model(mesh: TetMesh, mat: MaterialParams) -> AssembledModel:
    k = assemble_stiffness(mesh, mat)
    reg = RIGID_REG_REL * float(k.diagonal().mean())
    regularized = (k + reg * sp.identity(3 * mesh.num_nodes, format="csr")).tocsc()
    return AssembledModel(
        mesh=mesh, mat=mat, stiffness=k, reg=reg, regularized=regularized,
        mass=mat.density * mesh.volume(),
    )


# ---------------------------------------------------------------------------
# Penalty contact solve.

PAD_A, PAD_B, PLATFORM = 0, 1, 2


@dataclass(frozen=True)
class StepReport:
    """Converged-step summary: contacts, per-surface force sums, solver stats.

    iterations counts Newton loop passes, i.e. solves + 1 on a step that
    converged before the iteration cap.  factorizations counts the fresh LU
    factorizations among those solves; the rest reused an all-stick LU the
    model kept (see _factorize).
    """

    contacts: tuple[ContactPoint, ...]
    finger_normal_forces: tuple[float, float]
    platform_force: np.ndarray
    residual: float
    iterations: int
    factorizations: int


class _PadGeometry:
    """Cached pad frame: axis, tangents, and the lateral bound test."""

    def __init__(self, grasp: GraspCandidate, platform_height: float):
        self.axis = grasp.approach_axis
        self.center = grasp.grasp_center
        self.halfwidth = grasp.finger_halfwidth
        self.t1, self.t2 = orthonormal_tangents(self.axis)
        self.platform_height = platform_height

    def contact_candidates(self, x: np.ndarray, gap: float):
        """Active-contact pieces per surface for deformed node positions x.

        Returns a list of (kind, node_rows, depths, normal) with depths > 0.
        """
        s = (x - self.center) @ self.axis
        lat1 = np.abs((x - self.center) @ self.t1) <= self.halfwidth
        lat2 = np.abs((x - self.center) @ self.t2) <= self.halfwidth
        in_pad = lat1 & lat2
        half = gap / 2.0
        out = []
        depth_a = -half - s
        rows = np.nonzero(in_pad & (depth_a > 0.0))[0]
        if rows.size:
            out.append((PAD_A, rows, depth_a[rows], self.axis))
        depth_b = s - half
        rows = np.nonzero(in_pad & (depth_b > 0.0))[0]
        if rows.size:
            out.append((PAD_B, rows, depth_b[rows], -self.axis))
        depth_p = self.platform_height - x[:, 2]
        rows = np.nonzero(depth_p > 0.0)[0]
        if rows.size:
            out.append((PLATFORM, rows, depth_p[rows], np.array([0.0, 0.0, 1.0])))
        return out


def _contact_state(model, pads, gap, u, u_step_start, cfg):
    """Evaluate penalty contact forces at displacement u.

    Returns (f_ext flat array, pieces) where each piece carries the surface
    kind, global node ids, depths, normal, force vectors, and stick flags.
    Tangential forces oppose the slip accumulated since the step start and
    are capped by the Coulomb cone.
    """
    surf = model.mesh.surface_nodes
    x = model.mesh.nodes[surf] + u.reshape(-1, 3)[surf]
    kp = cfg.penalty_stiffness
    mu = model.mat.friction_mu
    f_ext = np.zeros(3 * model.mesh.num_nodes)
    pieces = []
    for kind, rows, depths, normal in pads.contact_candidates(x, gap):
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
        # unit slip directions and magnitudes for the capped nodes
        # (ft_norm = kp * ||slip_t|| before capping)
        sdir = np.zeros_like(slip_t)
        snorm = ft_norm / kp
        if np.any(slipping):
            sdir[slipping] = slip_t[slipping] * (kp / ft_norm[slipping])[:, None]
        pieces.append(
            {
                "kind": kind,
                "nodes": nodes_g,
                "depths": depths,
                "normal": normal,
                "fn": fn,
                "forces": forces,
                "stick": ~slipping,
                "sdir": sdir,
                "snorm": snorm,
            }
        )
    return f_ext, pieces


def quasi_static_step(
    model: AssembledModel,
    grasp: GraspCandidate,
    gap: float,
    u_start: np.ndarray,
    cfg: SimConfig,
) -> tuple[np.ndarray, StepReport]:
    """Solve one closing increment to equilibrium.

    u_start is the converged flat displacement vector (3n,) of the previous
    increment; the finger gap is the new, smaller opening.  Returns the new
    displacement vector and a contact report.  Raises SolverError when the
    residual fails to reach convergence_tol.
    """
    if gap <= 0.0:
        raise InvalidInputError("finger gap must be > 0")
    pads = _PadGeometry(grasp, cfg.platform_height)
    kp = cfg.penalty_stiffness

    def state_at(u):
        f_ext, pieces = _contact_state(model, pads, gap, u, u_start, cfg)
        r = f_ext - model.stiffness @ u - model.reg * u
        return r, float(np.linalg.norm(r)), pieces

    u = u_start.copy()
    residual, res_norm, pieces = state_at(u)
    best = (u, res_norm, pieces)
    clamp = 20.0 * cfg.displacement_increment
    iterations = 0
    factorizations = 0
    for iterations in range(1, cfg.max_fixedpoint_iters + 1):
        if res_norm < cfg.convergence_tol:
            break
        lu, fresh = _factorize(model, pieces, kp)
        factorizations += fresh
        du = lu.solve(residual)
        # only model.stick_lus may keep an LU: a slip LU is freed here, and
        # an evicted stick LU in the next _factorize, before splu runs
        del lu
        step = float(np.max(np.abs(du)))
        if step > clamp:
            du *= clamp / step
        # The force law is affine while the active/stick sets hold, so the
        # full step lands exactly on the current sets' equilibrium; smaller
        # scales probe past set flips.  Keep whichever truly reduces the
        # residual, else average toward the full step to break set cycling.
        trial = None
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            u_try = u + scale * du
            r_try, rn_try, p_try = state_at(u_try)
            if trial is None or rn_try < trial[2]:
                trial = (u_try, r_try, rn_try, p_try)
            if rn_try < cfg.convergence_tol:
                break
        # accept the least-bad trial even without strict descent; the next
        # linearization starts from its (possibly different) contact sets
        u, residual, res_norm, pieces = trial
        if res_norm < best[1]:
            best = (u, res_norm, pieces)
    if best[1] < cfg.convergence_tol:
        u, res_norm, pieces = best
        return u, _build_report(model, u, pieces, res_norm, iterations, factorizations)
    raise SolverError(
        f"no convergence after {cfg.max_fixedpoint_iters} iterations "
        f"(residual {best[1]:.3e} N, tol {cfg.convergence_tol:.3e} N)",
        residual=best[1],
    )


def _contact_blocks(pieces, kp: float, mu: float):
    """Penalty contact blocks of the Newton Jacobian as (rows, cols, vals).

    A sticking node adds an isotropic k_p block (normal and tangential hold).
    A slipping node's tangential force sits on the cone boundary,
    -mu*k_p*depth * s(u), so its derivative has a cap part (-mu s n^T, the
    cone shrinking with depth) and a rotation part ((mu depth/||slip||)
    (I - n n^T - s s^T), the slip direction turning with u).  The slip block
    is nonsymmetric, hence the LU solve.  Entries come node by node, each
    block row-major, exact zeros dropped.
    """
    eye = np.eye(3)
    rows, cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for piece in pieces:
        normal = piece["normal"]
        nn = np.outer(normal, normal)
        slip = ~piece["stick"]
        blocks = np.broadcast_to(kp * eye, (slip.size, 3, 3)).copy()
        if np.any(slip):
            sdir = piece["sdir"][slip]
            ratio = piece["depths"][slip] / np.maximum(piece["snorm"][slip], 1e-12)
            blocks[slip] = kp * (
                nn
                - mu * (sdir[:, :, None] * normal)
                + (mu * ratio)[:, None, None] * (eye - nn - sdir[:, :, None] * sdir[:, None, :])
            )
        base = 3 * piece["nodes"][:, None, None]
        r = np.broadcast_to(base + np.arange(3)[None, :, None], blocks.shape)
        c = np.broadcast_to(base + np.arange(3)[None, None, :], blocks.shape)
        keep = blocks != 0.0
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(blocks[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _factorize(model, pieces, kp: float):
    """LU of elastic stiffness + rigid-mode regularizer + contact blocks.

    Returns (lu, fresh).  An all-stick Jacobian is K + reg*I plus k_p on the
    diagonal of its active nodes' dofs, so (k_p, active node ids in piece
    order) fixes it bit for bit.  The model keeps the LUs of its last
    STICK_LUS such Jacobians; a hit hands one back (fresh False), and its
    solve is bit-identical to refactorizing.  A Jacobian with slip blocks is
    factorized for its one solve and never kept.  A stick miss with
    STICK_LUS held evicts the least recently used LU before splu runs, so at
    most STICK_LUS + 1 factors are alive at once.
    """
    stick = all(p["stick"].all() for p in pieces)
    if stick:
        key = (kp, b"".join(p["nodes"].tobytes() for p in pieces))
        lu = model.stick_lus.pop(key, None)
        if lu is not None:
            model.stick_lus[key] = lu
            return lu, False
        while len(model.stick_lus) >= STICK_LUS:
            del model.stick_lus[next(iter(model.stick_lus))]
    j = model.regularized
    rows, cols, vals = _contact_blocks(pieces, kp, model.mat.friction_mu)
    if vals.size:
        j = j + sp.csc_matrix((vals, (rows, cols)), shape=j.shape)
    lu = spla.splu(j)
    if stick:
        model.stick_lus[key] = lu
    return lu, True


def _build_report(model, u, pieces, res_norm, iterations, factorizations) -> StepReport:
    contacts = []
    fn_a = 0.0
    fn_b = 0.0
    platform_force = np.zeros(3)
    x_all = model.mesh.nodes + u.reshape(-1, 3)
    for piece in pieces:
        normal = piece["normal"]
        if piece["kind"] == PAD_A:
            fn_a += float(piece["fn"].sum())
        elif piece["kind"] == PAD_B:
            fn_b += float(piece["fn"].sum())
        else:
            platform_force += piece["forces"].sum(axis=0)
        if piece["kind"] != PLATFORM:
            for node, force in zip(piece["nodes"], piece["forces"]):
                contacts.append(
                    ContactPoint(position=x_all[node], normal=normal, force=force)
                )
    return StepReport(
        contacts=tuple(contacts),
        finger_normal_forces=(fn_a, fn_b),
        platform_force=platform_force,
        residual=res_norm,
        iterations=iterations,
        factorizations=factorizations,
    )


def run_squeeze(
    mesh: TetMesh,
    mat: MaterialParams,
    grasp: GraspCandidate,
    cfg: SimConfig,
) -> list[TrajectoryFrame]:
    """Close the fingers on the object and record contact frames.

    One frame per squeeze_steps increment (time = global step index * dt,
    squeeze_force = pad A's normal force sum, com recomputed from the
    deformed mesh).  A squeeze that never touches the object returns an
    empty list.
    """
    model = assemble_model(mesh, mat)
    return [step_frame(model, cfg, *step) for step in squeeze_steps(model, grasp, cfg)]


def squeeze_steps(model: AssembledModel, grasp: GraspCandidate, cfg: SimConfig):
    """Yield (step_idx, u, report) for each converged step with finger contact.

    The gap shrinks by displacement_increment per step from just outside the
    object.  Stops after the first step whose squeeze force (pad A's normal
    force sum) reaches grasp.max_force, or when the gap runs out.  Raises
    SolverError from the first step that does not converge.
    """
    mesh = model.mesh
    axis = grasp.approach_axis
    span = (mesh.nodes - grasp.grasp_center) @ axis
    reach = float(np.max(np.abs(span)))
    gap0 = 2.0 * reach + 2.0 * cfg.displacement_increment

    touched = False
    u = np.zeros(3 * mesh.num_nodes)
    gap = gap0
    step_idx = 0
    while gap - cfg.displacement_increment > 0.0:
        step_idx += 1
        gap = gap0 - step_idx * cfg.displacement_increment
        u, report = quasi_static_step(model, grasp, gap, u, cfg)
        if not report.contacts:
            continue
        touched = True
        yield step_idx, u, report
        if report.finger_normal_forces[0] >= grasp.max_force:
            return
    if not touched:
        logger.warning(
            "squeeze produced no contact frames (grasp center %s, axis %s)",
            np.array2string(grasp.grasp_center, precision=4),
            np.array2string(axis, precision=4),
        )


def step_frame(model: AssembledModel, cfg: SimConfig, step_idx: int, u, report) -> TrajectoryFrame:
    """The frame of one squeeze_steps increment, with its deformed center of mass."""
    deformed = model.mesh.nodes + u.reshape(-1, 3)
    return TrajectoryFrame(
        time=step_idx * cfg.dt,
        contacts=report.contacts,
        squeeze_force=report.finger_normal_forces[0],
        com=mesh_center_of_mass(deformed, model.mesh.tets),
        mass=model.mass,
    )
