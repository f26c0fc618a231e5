"""Quasi-static tetrahedral FEM squeeze simulator.

Two rigid square finger pads close along an approach axis on a linear-elastic
tet mesh resting on a platform plane.  Contact is penalty-based (normal force
k_p * depth plus Coulomb-capped tangential force against the tangential slip
accumulated within the step), and every closing increment is solved to elastic
equilibrium with a Newton loop on the residual.  Converged increments with
finger contact are emitted as TrajectoryFrames for the metric pipeline.

assemble_model is the one caller of SuperLU, so it imports
scipy.sparse.linalg on its first call: a process that scores trajectories
and never assembles a mesh (metric, hull-info) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .contact import ContactPoint, TrajectoryFrame, orthonormal_tangents
from .errors import InvalidInputError, SolverError, check_fields, finite, integer, vec3

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla

# Tikhonov factor anchoring the six rigid modes of the free-floating object,
# relative to the mean stiffness diagonal.
RIGID_REG_REL = 1e-9


# ---------------------------------------------------------------------------
# Mesh and material types.


@dataclass(frozen=True, eq=False)
class TetMesh:
    """Tetrahedral mesh in its rest configuration.

    Tets must have positive signed volume.  rest_volumes (each tet's
    tet_volumes), surface_faces (outward-oriented boundary triangles) and
    surface_nodes are derived at construction, not passed; a face shared by
    three or more tets marks a broken mesh.
    """

    nodes: np.ndarray
    tets: np.ndarray
    rest_volumes: np.ndarray = field(init=False)
    surface_faces: np.ndarray = field(init=False)
    surface_nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        tets = np.asarray(self.tets, dtype=int)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or nodes.shape[0] < 4:
            raise InvalidInputError("nodes must be an (n >= 4, 3) array")
        if not np.all(np.isfinite(nodes)):
            raise InvalidInputError("non-finite node coordinates")
        if tets.ndim != 2 or tets.shape[1] != 4 or tets.shape[0] < 1:
            raise InvalidInputError("tets must be an (m >= 1, 4) array")
        if tets.min() < 0 or tets.max() >= nodes.shape[0]:
            raise InvalidInputError("tet node index out of range")
        vols = tet_volumes(nodes, tets)
        bad = np.nonzero(vols <= 0.0)[0]
        if bad.size:
            raise InvalidInputError(f"tet {bad[0]} has non-positive volume {vols[bad[0]]:.3e}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "rest_volumes", vols)
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
        return float(self.rest_volumes.sum())

    def translated(self, offset) -> "TetMesh":
        return TetMesh(nodes=self.nodes + vec3(offset, "offset"), tets=self.tets)


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
        raise InvalidInputError("mesh has non-positive total volume")
    return (vols[:, None] * centroids).sum(axis=0) / total


# Faces of tet (a,b,c,d), wound so their normals point out of the tet.
_TET_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))


def _extract_surface(tets: np.ndarray) -> np.ndarray:
    """Outward-oriented boundary triangles: faces owned by exactly one tet.

    Faces come in first-seen order (tet by tet, _TET_FACES order within a
    tet); a face met a third time raises, naming the earliest such face.
    """
    tris = tets[:, _TET_FACES].reshape(-1, 3)
    keys = np.sort(tris, axis=1)
    # stable sort by (k0, k1, k2): equal faces end up adjacent, in first-seen order
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.flatnonzero(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)])
    counts = np.diff(np.r_[starts, len(ranked)])
    if counts.max() > 2:
        third = order[starts[counts > 2] + 2].min()
        raise InvalidInputError(f"face {tuple(int(v) for v in keys[third])} shared by more than two tets")
    boundary = np.sort(order[starts[counts == 1]])
    if not boundary.size:
        raise InvalidInputError("mesh has no boundary faces")
    return tris[boundary]


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic linear elasticity plus surface friction and density."""

    youngs_modulus: float = 2e5
    poisson_ratio: float = 0.3
    friction_mu: float = 0.8
    density: float = 500.0

    def __post_init__(self):
        check_fields(self, finite, "youngs_modulus", "density", above=0.0)
        check_fields(self, finite, "poisson_ratio", above=0.0, below=0.5)
        check_fields(self, finite, "friction_mu", least=0.0)

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
        check_fields(self, vec3, "grasp_center")
        check_fields(self, vec3, "approach_axis", unit=True)
        check_fields(self, finite, "finger_halfwidth", "max_force", above=0.0)


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
        check_fields(self, finite, "penalty_stiffness", "displacement_increment", "convergence_tol",
                     "dt", above=0.0)
        check_fields(self, finite, "platform_height")
        check_fields(self, integer, "max_fixedpoint_iters", least=1)


# ---------------------------------------------------------------------------
# Primitive mesh generation.

# Kuhn split of the unit cell: six tets around the main diagonal, one per
# axis-insertion order.  Face diagonals always run low corner to high corner,
# so translated copies tile conformingly.
_KUHN_ORDERS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


def _box_mesh(dims, n: int) -> TetMesh:
    lx, ly, lz = dims
    xs = np.linspace(-lx / 2.0, lx / 2.0, n + 1)
    ys = np.linspace(-ly / 2.0, ly / 2.0, n + 1)
    zs = np.linspace(-lz / 2.0, lz / 2.0, n + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    # cells in (i, j, k) order, six tets each in _KUHN_ORDERS order; a tet's
    # corners walk from the cell's low corner one axis step at a time
    cells = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1).reshape(-1, 1, 1, 3)
    steps = np.cumsum(np.eye(3, dtype=int)[list(_KUHN_ORDERS)], axis=1)
    walks = np.concatenate([np.zeros((len(_KUHN_ORDERS), 1, 3), dtype=int), steps], axis=1)
    i, j, k = np.moveaxis(cells + walks, -1, 0)
    tets = ((i * (n + 1) + j) * (n + 1) + k).reshape(-1, 4)
    return TetMesh(nodes=nodes, tets=_positive_tets(nodes, tets))


def _positive_tets(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """tets, each one of negative signed volume flipped by swapping its last
    two corners (in place)."""
    flip = tet_volumes(nodes, tets) < 0.0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return tets


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
    rings = layers = resolution
    ntheta = max(16, 8 * resolution)
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
    return TetMesh(nodes=nodes, tets=_positive_tets(nodes, tets))


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


# Each primitive kind's dims, in order, and its least resolution.
_PRIMITIVES = {
    "box": (("lx", "ly", "lz"), 1),
    "cylinder": (("radius", "height"), 1),
    "sphere-ish": (("radius",), 2),
}


def generate_primitive_mesh(kind: str, dims, resolution: int = 6) -> TetMesh:
    """Structured tet mesh of a primitive solid.

    kind "box": dims (lx, ly, lz), resolution cells per edge.
    kind "cylinder": dims (radius, height).
    kind "sphere-ish": dims (radius,) or scalar; resolution >= 2.
    Every dim must be a positive length and resolution a whole number.
    All meshes are centered at the origin.
    """
    if kind not in _PRIMITIVES:
        raise InvalidInputError(f"unknown primitive kind {kind!r}")
    names, least = _PRIMITIVES[kind]
    d = np.asarray(dims, dtype=float).reshape(-1)
    if d.size != len(names):
        raise InvalidInputError(f"{kind} dims must be ({', '.join(names)})")
    lengths = [finite(v, f"{kind} {name}", above=0.0) for name, v in zip(names, d)]
    resolution = integer(resolution, "resolution", least)
    if kind == "box":
        return _box_mesh(lengths, resolution)
    if kind == "cylinder":
        return _cylinder_mesh(*lengths, resolution)
    return _sphereish_mesh(*lengths, resolution)


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
    InvalidInputError when any element has non-positive volume, before
    inverting.
    """
    m = coords.shape[0]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    vols = np.linalg.det(edges) / 6.0
    if np.any(vols <= 0.0):
        raise InvalidInputError("inverted tet during assembly")
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


@dataclass(frozen=True, eq=False)
class AssembledModel:
    """Mesh plus its stiffness, the rigid-mode anchor and the factor of A.

    The elastic operator is A = K + reg*I; reg anchors the six rigid modes,
    rigid (3n, 6) their orthonormal basis R, and lu is A's one sparse LU,
    made at assembly.  mass is the rest mesh's mass, stamped on every frame.
    No squeeze changes a model: what a squeeze builds up lives in its own
    Squeeze, so any number of squeezes can share one model.
    """

    mesh: TetMesh
    mat: MaterialParams
    stiffness: sp.csr_matrix
    reg: float
    rigid: np.ndarray
    mass: float
    lu: spla.SuperLU = field(repr=False)


def assemble_model(mesh: TetMesh, mat: MaterialParams) -> AssembledModel:
    """The mesh's model: its global stiffness K (3n x 3n, CSR) from
    constant-strain tets, and the one factor of A = K + reg*I.

    The only place a mesh is assembled and factored; every squeeze reads the
    model it is given.  Raises InvalidInputError on an inverted tet and
    SolverError when A has a singular factor.
    """
    import scipy.sparse.linalg as spla  # loaded by the first assembly only

    lam, mu = mat.lame()
    ke = _tet_stiffness(mesh.nodes[mesh.tets], lam, mu)
    # int32 indices: coo_matrix would convert int64 ones to int32 (3n fits
    # it for any mesh whose ke fits in memory), so it takes these uncopied
    dofs = (3 * mesh.tets.astype(np.int32)[:, :, None] + np.arange(3, dtype=np.int32)).reshape(-1, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    n3 = 3 * mesh.num_nodes
    # tocsr sums the duplicate entries and leaves K in canonical CSR
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n3, n3)).tocsr()
    reg = RIGID_REG_REL * float(k.diagonal().mean())
    try:
        lu = spla.splu((k + reg * sp.identity(k.shape[0], format="csr")).tocsc())
    except RuntimeError as exc:
        # SuperLU's singular factor; A is the base of every Newton system
        raise SolverError(f"singular Newton system ({exc})") from exc
    return AssembledModel(
        mesh=mesh, mat=mat, stiffness=k, reg=reg, rigid=_rigid_modes(mesh.nodes),
        mass=mat.density * mesh.volume(), lu=lu,
    )


def _rigid_modes(nodes: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3n, 6) of the rigid motions of the nodes: three
    translations and three small rotations about their centroid."""
    rel = nodes - nodes.mean(axis=0)
    modes = np.zeros((nodes.shape[0], 3, 6))
    modes[:, :, :3] = np.eye(3)
    for a, axis in enumerate(np.eye(3)):
        modes[:, :, 3 + a] = np.cross(axis, rel)
    return np.linalg.qr(modes.reshape(-1, 6))[0]


# ---------------------------------------------------------------------------
# Penalty contact solve.

PAD_A, PAD_B, PLATFORM = 0, 1, 2
_SURFACES = np.arange(3)


class Squeeze:
    """One squeeze's state, passed to each of its steps: its grasp's pad
    frame, and the compliance of the nodes it has touched, on a model that
    it only reads.

    axis, center, halfwidth, t1 and t2 place the pads, platform_height the
    platform; surface_rest holds the rest positions of the mesh's
    surface_nodes.  compliance holds the deflated rows (A^-1 P E_i)^T, P = I
    - R R^T, for the three dofs of each node i touched so far, E_i selecting
    them (see _add_compliance): three rows per node, at 3 *
    compliance_slot[i] (-1: none yet), the nodes in slot order being
    compliance_nodes, and compliance_rigid holds R's rows of the same dofs.
    A^-1 E_i itself is that row plus R R^T E_i / reg.
    """

    def __init__(self, model: AssembledModel, grasp: GraspCandidate, cfg: SimConfig):
        self.axis = grasp.approach_axis
        self.center = grasp.grasp_center
        self.halfwidth = grasp.finger_halfwidth
        self.t1, self.t2 = orthonormal_tangents(self.axis)
        self.platform_height = cfg.platform_height
        # rows indexed by PAD_A, PAD_B, PLATFORM
        self.normals = np.array([self.axis, -self.axis, (0.0, 0.0, 1.0)])
        self.surface_rest = model.mesh.nodes[model.mesh.surface_nodes]
        self.compliance = np.empty((0, 3 * model.mesh.num_nodes))
        self.compliance_slot = np.full(model.mesh.num_nodes, -1)
        self.compliance_nodes = np.empty(0, dtype=int)
        self.compliance_rigid = np.empty((0, 6))

    def contact_candidates(self, x: np.ndarray, gap: float):
        """Penetrating nodes of deformed surface node positions x, surface
        by surface.

        Returns (kind, rows, depths, counts) with depths > 0: pad A's rows,
        then pad B's, then the platform's, each ascending, counts[k] being
        surface k's number of rows.
        """
        rel = x - self.center
        s = rel @ self.axis
        in_pad = (np.abs(rel @ self.t1) <= self.halfwidth) & (np.abs(rel @ self.t2) <= self.halfwidth)
        half = gap / 2.0
        depths = (-half - s, s - half, self.platform_height - x[:, 2])
        rows = [((depths[PAD_A] > 0.0) & in_pad).nonzero()[0], ((depths[PAD_B] > 0.0) & in_pad).nonzero()[0],
                (depths[PLATFORM] > 0.0).nonzero()[0]]
        counts = [r.size for r in rows]
        return (_SURFACES.repeat(counts), np.concatenate(rows),
                np.concatenate([d[r] for d, r in zip(depths, rows)]), counts)


@dataclass(frozen=True, eq=False)
class _Contacts:
    """Penalty contact state at one displacement, one row per penetrating node.

    Rows run pad A's, then pad B's, then the platform's (see
    Squeeze.contact_candidates).  fn is the normal force k_p * depth,
    force the total force on the node; a slipping node (stick False) has its
    tangential force capped by the Coulomb cone, with sdir the unit
    tangential slip and snorm the slip length.  A sticking node has sdir 0.
    """

    kind: np.ndarray
    nodes: np.ndarray
    normal: np.ndarray
    depth: np.ndarray
    fn: np.ndarray
    force: np.ndarray
    stick: np.ndarray
    sdir: np.ndarray
    snorm: np.ndarray


@dataclass(frozen=True)
class StepReport:
    """A converged step: its contact record and its solver counts.

    iterations counts Newton loop passes, i.e. solves + 1 on a step that
    converged before the iteration cap.
    """

    contacts: _Contacts
    residual: float
    iterations: int

    @property
    def squeeze_force(self) -> float:
        """Pad A's normal force sum."""
        return float(self.contacts.fn[self.contacts.kind == PAD_A].sum())


def _contact_state(model, squeeze, gap, u, u_step_start, cfg) -> _Contacts:
    """Penalty contact state at displacement u.

    Tangential forces oppose the slip accumulated since the step start and
    are capped by the Coulomb cone.
    """
    surf = model.mesh.surface_nodes
    disp = u.reshape(-1, 3)
    x = squeeze.surface_rest + disp[surf]
    kp = cfg.penalty_stiffness
    mu = model.mat.friction_mu
    kind, rows, depth, counts = squeeze.contact_candidates(x, gap)
    nodes = surf[rows]
    normal = squeeze.normals[kind]
    fn = kp * depth
    du = disp[nodes] - u_step_start.reshape(-1, 3)[nodes]
    # A matvec's bits depend on its rows (BLAS blocks them), so each surface's
    # normal slip is the matvec of that surface's rows alone.
    along = np.concatenate([du[end - count:end] @ n
                            for end, count, n in zip(accumulate(counts), counts, squeeze.normals)])
    slip_t = du - along[:, None] * normal
    ft = -kp * slip_t
    ft_norm = np.linalg.norm(ft, axis=1)
    cap = mu * fn
    slipping = ft_norm > cap
    # unit slip directions and magnitudes for the capped nodes
    # (ft_norm = kp * ||slip_t|| before capping)
    sdir = np.zeros(slip_t.shape)
    if slipping.any():
        ft[slipping] *= (cap[slipping] / ft_norm[slipping])[:, None]
        sdir[slipping] = slip_t[slipping] * (kp / ft_norm[slipping])[:, None]
    force = fn[:, None] * normal + ft
    return _Contacts(
        kind=kind, nodes=nodes, normal=normal, depth=depth, fn=fn, force=force,
        stick=~slipping, sdir=sdir, snorm=ft_norm / kp,
    )


def _force_residual(squeeze: Squeeze, contacts: _Contacts, g: np.ndarray):
    """Contact force minus the carried force g, per compliance slot, and the
    squared norm of the force on contact nodes that have no slot yet."""
    slot = squeeze.compliance_slot[contacts.nodes]
    held = slot >= 0
    r = -g
    if held.all():
        np.add.at(r.reshape(-1, 3), slot, contacts.force)
        return r, 0.0
    np.add.at(r.reshape(-1, 3), slot[held], contacts.force[held])
    _, node = np.unique(contacts.nodes[~held], return_inverse=True)
    loose = np.zeros((node.size, 3))
    np.add.at(loose, node, contacts.force[~held])
    return r, float(np.sum(loose * loose))


def quasi_static_step(
    model: AssembledModel,
    squeeze: Squeeze,
    gap: float,
    u_start: np.ndarray,
    cfg: SimConfig,
) -> tuple[np.ndarray, StepReport]:
    """Solve one closing increment of squeeze to equilibrium.

    u_start is the converged flat displacement vector (3n,) of the
    squeeze's previous increment (zero before the first); the finger gap is
    the new, smaller opening.  Returns the new displacement vector and the
    step's report.  Raises SolverError when the residual fails to reach
    convergence_tol or a Newton system is singular.

    The loads act on contact nodes only, so every iterate is
    u = u_start + A^-1 E (g - g_start), E selecting the dofs of the nodes
    that have been in contact in this squeeze and g the elastic force A u
    on them: after one product A u_start, the Newton loop runs on g and
    those nodes' compliance columns, with no sparse solve or product.  Its
    residual is the contact force minus g, the full residual f_ext(u) - A u
    but for the roundoff that A u_start leaves on the other nodes (counted
    in the norm).  u is updated alongside g, so the rigid-mode amplitudes
    R^T u = R^T g / reg are never formed by dividing by reg.
    """
    if gap <= 0.0:
        raise InvalidInputError("finger gap must be > 0")
    kp = cfg.penalty_stiffness
    force = model.stiffness @ u_start + model.reg * u_start
    g = force[_node_dofs(squeeze.compliance_nodes)]
    # A u_start off the slotted nodes: roundoff when a step made u_start
    off = float(np.sum(force.reshape(-1, 3)[squeeze.compliance_slot < 0] ** 2))

    def state_at(u, g):
        contacts = _contact_state(model, squeeze, gap, u, u_start, cfg)
        r, loose = _force_residual(squeeze, contacts, g)
        return r, float(np.sqrt(r @ r + loose + off)), contacts

    u = u_start.copy()
    residual, res_norm, contacts = state_at(u, g)
    least = res_norm
    clamp = 20.0 * cfg.displacement_increment
    iterations = 0
    for iterations in range(1, cfg.max_fixedpoint_iters + 1):
        if res_norm < cfg.convergence_tol:
            break
        try:
            new = contacts.nodes[squeeze.compliance_slot[contacts.nodes] < 0]
            if new.size:
                new = np.unique(new)
                _add_compliance(model, squeeze, new)
                # their share of A u_start is roundoff, counted in off
                g = np.concatenate([g, np.zeros(3 * new.size)])
                residual = _force_residual(squeeze, contacts, g)[0]
            dg, du = _newton_direction(model, squeeze, contacts, kp, residual)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular Newton system ({exc}; residual {least:.3e} N, tol {cfg.convergence_tol:.3e} N)",
                residual=least, iterations=iterations,
            ) from exc
        step = float(np.abs(du).max())
        if step > clamp:
            dg *= clamp / step
            du *= clamp / step
        # The force law is affine while the active/stick sets hold, so the
        # full step lands exactly on the current sets' equilibrium; smaller
        # scales probe past set flips.  Keep whichever truly reduces the
        # residual, else average toward the full step to break set cycling.
        trial = None
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            u_try, g_try = u + scale * du, g + scale * dg
            r_try, rn_try, c_try = state_at(u_try, g_try)
            if trial is None or rn_try < trial[3]:
                trial = (u_try, g_try, r_try, rn_try, c_try)
            if rn_try < cfg.convergence_tol:
                break
        # accept the least-bad trial even without strict descent; the next
        # linearization starts from its (possibly different) contact sets
        u, g, residual, res_norm, contacts = trial
        least = min(least, res_norm)
    # the loop stops at the first converged state, so only the current one
    # can be converged; least is the smallest residual seen, for the error
    if res_norm < cfg.convergence_tol:
        return u, StepReport(contacts, res_norm, iterations)
    raise SolverError(
        f"no convergence after {cfg.max_fixedpoint_iters} iterations "
        f"(residual {least:.3e} N, tol {cfg.convergence_tol:.3e} N)",
        residual=least, iterations=iterations,
    )


def _contact_blocks(contacts: _Contacts, kp: float, mu: float) -> np.ndarray:
    """Penalty contact blocks of the Newton Jacobian, (k, 3, 3), one per
    row of the record.

    A sticking node adds an isotropic k_p block (normal and tangential hold).
    A slipping node's tangential force sits on the cone boundary,
    -mu*k_p*depth * s(u), so its derivative has a cap part (-mu s n^T, the
    cone shrinking with depth) and a rotation part ((mu depth/||slip||)
    (I - n n^T - s s^T), the slip direction turning with u).  The slip block
    is nonsymmetric and singular along the slip direction.
    """
    eye = np.eye(3)
    slip = ~contacts.stick
    blocks = np.empty((slip.size, 3, 3))
    blocks[:] = kp * eye
    if slip.any():
        normal = contacts.normal[slip][:, None, :]
        nn = normal.transpose(0, 2, 1) * normal
        sdir = contacts.sdir[slip]
        ratio = contacts.depth[slip] / np.maximum(contacts.snorm[slip], 1e-12)
        blocks[slip] = kp * (
            nn
            - mu * (sdir[:, :, None] * normal)
            + (mu * ratio)[:, None, None] * (eye - nn - sdir[:, :, None] * sdir[:, None, :])
        )
    return blocks


def _node_dofs(nodes: np.ndarray) -> np.ndarray:
    """The flat dofs 3*node + (0, 1, 2) of each node, node by node."""
    return (3 * nodes[:, None] + np.arange(3)).ravel()


def _add_compliance(model: AssembledModel, squeeze: Squeeze, nodes: np.ndarray) -> None:
    """Solve the deflated compliance rows of nodes (unique, without a slot
    yet in squeeze) in one multi-right-hand-side solve with the model's LU,
    and give them the squeeze's next slots.

    A row v = A^-1 P e, P = I - R R^T, is the first block of the bordered
    system [[A, R], [R^T, 0]] [v; l] = [P e; 0], whose six extra unknowns
    hold v orthogonal to the rigid modes.  It is solved with A's LU as
    P A^-1 P e: A's six near-zero eigenvalues (reg) amplify the solve's
    roundoff along the rigid modes only, where the outer P removes it.  On
    the bench meshes this form matches a twice-refined LU of the bordered
    matrix to 1e-15 relative, where P A^-1 e is off by 4e-9 to 2e-8; and
    that LU, slowed by the border's dense rows, takes 1.2 to 4 times as
    long as A's.
    """
    dofs = _node_dofs(nodes)
    rigid = model.rigid[dofs]
    projected = -model.rigid @ rigid.T
    projected[dofs, np.arange(dofs.size)] += 1.0
    y = model.lu.solve(projected)
    squeeze.compliance_slot[nodes] = squeeze.compliance_nodes.size + np.arange(nodes.size)
    squeeze.compliance_nodes = np.concatenate([squeeze.compliance_nodes, nodes])
    squeeze.compliance_rigid = np.concatenate([squeeze.compliance_rigid, rigid])
    squeeze.compliance = np.concatenate([squeeze.compliance, (y - model.rigid @ (model.rigid.T @ y)).T])


def _newton_direction(model: AssembledModel, squeeze: Squeeze, contacts: _Contacts, kp: float, r: np.ndarray):
    """The Newton step (dg, du) from the force residual r, per slot of
    squeeze; every record row's node must have a slot.

    u moves by du = V^T dg + R da, V the squeeze's compliance rows, da the
    change of the rigid-mode amplitudes.  With B the rows' _contact_blocks
    (block-diagonal, a node on two surfaces having two rows), H selecting
    the rows' dofs and S summing rows into slots, the contact force changes
    by -S c with c = B H du, so dg = r - S c, and c and da solve the
    bordered capacitance system

        [I + B W   -B R_H] [c ]   [B H V^T r]
        [R_H^T     reg I ] [da] = [R_T^T r  ]

    where W = H V^T S is the rows' deflated compliance, R_H = H R, and R_T
    is R on the slotted dofs: the second row keeps g's net force and torque
    equal to the anchor's, reg times the rigid amplitudes.  reg enters only
    that 6x6 block, and no entry carries its 1/reg, so the step's roundoff
    scales with r.  This form needs no B^-1, which a slip block lacks.
    Raises np.linalg.LinAlgError for a singular system.
    """
    nodes = contacts.nodes
    k = nodes.size
    n = 3 * k
    blocks = _contact_blocks(contacts, kp, model.mat.friction_mu)
    dofs = _node_dofs(nodes)
    z = squeeze.compliance[:, dofs]
    rigid_h = model.rigid[dofs]
    w = z[_node_dofs(squeeze.compliance_slot[nodes])].T
    # filled block by block; the identity's zeros would change no bit but a
    # zero's sign, so only its diagonal is added
    capacitance = np.empty((n + 6, n + 6))
    capacitance[:n, :n] = np.matmul(blocks, w.reshape(k, 3, n)).reshape(n, n)
    np.negative(np.matmul(blocks, rigid_h.reshape(k, 3, 6)).reshape(n, 6), out=capacitance[:n, n:])
    capacitance[n:, :n] = rigid_h.T
    capacitance[n:, n:] = 0.0
    diagonal = capacitance.reshape(-1)[::n + 7]
    diagonal[:n] += 1.0
    diagonal[n:] = model.reg
    rhs = np.concatenate([
        np.matmul(blocks, (z.T @ r).reshape(k, 3, 1)).ravel(),
        squeeze.compliance_rigid.T @ r,
    ])
    solution = np.linalg.solve(capacitance, rhs)
    dg = r.copy()
    np.subtract.at(dg.reshape(-1, 3), squeeze.compliance_slot[nodes], solution[:n].reshape(k, 3))
    return dg, squeeze.compliance.T @ dg + model.rigid @ solution[n:]


def run_squeeze(model: AssembledModel, grasp: GraspCandidate, cfg: SimConfig) -> list[TrajectoryFrame]:
    """Close the fingers on the model's object and record contact frames.

    One frame per squeeze_steps increment (time = global step index * dt,
    squeeze_force = pad A's normal force sum, com recomputed from the
    deformed mesh).  A squeeze that never touches the object returns an
    empty list: that is the miss signal, which the command reports.
    """
    return [step_frame(model, cfg, *step) for step in squeeze_steps(model, grasp, cfg)]


def squeeze_steps(model: AssembledModel, grasp: GraspCandidate, cfg: SimConfig):
    """Yield (step_idx, u, report) for each converged step with finger contact.

    The gap shrinks by displacement_increment per step from just outside the
    object.  Steps are run from the first gap at which a rest node touches a
    pad or the platform: before it, a step would converge at once to u = 0
    and yield nothing.  Stops after the first step whose squeeze force (pad
    A's normal force sum) reaches grasp.max_force, or when the gap runs out.
    Yields nothing when the pads never touch the object.  Raises SolverError
    from the first step that does not converge.
    """
    mesh = model.mesh
    axis = grasp.approach_axis
    span = (mesh.nodes - grasp.grasp_center) @ axis
    reach = float(np.max(np.abs(span)))
    gap0 = 2.0 * reach + 2.0 * cfg.displacement_increment

    squeeze = Squeeze(model, grasp, cfg)
    u = np.zeros(3 * mesh.num_nodes)
    gap = gap0
    step_idx = 0
    touched = False
    while gap - cfg.displacement_increment > 0.0:
        step_idx += 1
        gap = gap0 - step_idx * cfg.displacement_increment
        # the contact-free approach is not stepped; quasi_static_step still
        # refuses a gap <= 0
        touched = touched or gap <= 0.0 or squeeze.contact_candidates(squeeze.surface_rest, gap)[1].size > 0
        if not touched:
            continue
        u, report = quasi_static_step(model, squeeze, gap, u, cfg)
        if np.all(report.contacts.kind == PLATFORM):
            continue
        yield step_idx, u, report
        if report.squeeze_force >= grasp.max_force:
            return


def step_frame(model: AssembledModel, cfg: SimConfig, step_idx: int, u, report) -> TrajectoryFrame:
    """The frame of one squeeze_steps increment: its pad contacts at their
    deformed positions, and its deformed center of mass."""
    deformed = model.mesh.nodes + u.reshape(-1, 3)
    c = report.contacts
    on_pad = c.kind != PLATFORM
    return TrajectoryFrame(
        time=step_idx * cfg.dt,
        contacts=tuple(
            ContactPoint(position=p, normal=n, force=f)
            for p, n, f in zip(deformed[c.nodes[on_pad]], c.normal[on_pad], c.force[on_pad])
        ),
        squeeze_force=report.squeeze_force,
        com=mesh_center_of_mass(deformed, model.mesh.tets),
        mass=model.mass,
    )
