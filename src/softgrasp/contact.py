"""Contact wrenches and the contact-centered grasp wrench space.

A frame's wrench space is the convex hull of friction-pyramid edge wrenches
from every contact plus the zero wrench.  Torques are taken about the mean
contact location and divided by a length scale rho so all six coordinates
carry force units.  frame_wrenches builds every contact's edges and torques
as (k, m, 3) arrays in one pass; orthonormal_tangents, the tangent rule it
shares with the squeeze pads and grasp sampling, takes one normal or a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_fields, finite, integer, vec3
from .geom import Polytope, convex_hull

FORCE_MODES = ("unit-edge", "reported-force")


@dataclass(frozen=True)
class ContactPoint:
    """One contact: deformed location, pushing direction, total force.

    ``normal`` is the unit direction the finger (or platform) pushes the
    object along at this contact.  Forces whose component along the normal
    is not positive are kept as they are, since sliding frames can be
    tangential-dominant.
    """

    position: np.ndarray
    normal: np.ndarray
    force: np.ndarray

    def __post_init__(self):
        check_fields(self, vec3, "position", "force")
        check_fields(self, vec3, "normal", unit=True)


@dataclass(frozen=True)
class TrajectoryFrame:
    """Contact snapshot at one time: who touches, how hard, where the mass is."""

    time: float
    contacts: tuple[ContactPoint, ...]
    squeeze_force: float
    com: np.ndarray
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "contacts", tuple(self.contacts))
        check_fields(self, vec3, "com")
        check_fields(self, finite, "time", "squeeze_force", least=0.0)
        check_fields(self, finite, "mass", above=0.0)


@dataclass(frozen=True)
class WrenchSpaceConfig:
    """Friction-cone discretization and wrench normalization settings."""

    friction_mu: float = 0.8
    cone_edges: int = 8
    torque_scale_rho: float = 1.0
    force_normalization: str = "unit-edge"

    def __post_init__(self):
        check_fields(self, finite, "friction_mu", least=0.0)
        check_fields(self, integer, "cone_edges", least=3)
        check_fields(self, finite, "torque_scale_rho", above=0.0)
        if self.force_normalization not in FORCE_MODES:
            raise InvalidInputError(
                f"force_normalization must be one of {FORCE_MODES}, got {self.force_normalization!r}"
            )


def contact_centroid(frame: TrajectoryFrame) -> np.ndarray:
    """Arithmetic mean of the contact positions."""
    if len(frame.contacts) == 0:
        raise InvalidInputError("frame has no contacts")
    return np.mean([c.position for c in frame.contacts], axis=0)


def _row_lengths(v: np.ndarray) -> np.ndarray:
    """Each row's length, as np.linalg.norm takes it of one 3-vector: sqrt(row . row)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def orthonormal_tangents(normal) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed tangent basis (t1, t2) for a unit normal, or
    one per row of a (k, 3) stack.  t1 is seeded from the coordinate axis least
    aligned with the normal, so the basis is reproducible and never degenerate.
    """
    given = np.asarray(normal, dtype=float)
    n = np.atleast_2d(given)
    if n.ndim != 2 or n.shape[1] != 3 or not np.all(np.isfinite(n)):
        raise InvalidInputError("normal must be a finite 3-vector or (k, 3) stack")
    rows, a = np.arange(len(n)), np.argmin(np.abs(n), axis=1)
    e = np.zeros_like(n)
    e[rows, a] = 1.0
    t1 = e - n[rows, a][:, None] * n
    t1 /= _row_lengths(t1)[:, None]
    t2 = np.cross(n, t1)
    return (t1, t2) if given.ndim == 2 else (t1[0], t2[0])


def frame_wrenches(frame: TrajectoryFrame, cfg: WrenchSpaceConfig) -> np.ndarray:
    """All pyramid-edge wrenches of a frame plus the zero wrench, (k*m+1, 6).

    Contact i with unit normal n and tangents (t1, t2) gives the m unit
    edges of its linearized Coulomb cone,
    edge_j = normalize(n + mu * (cos(2*pi*j/m) t1 + sin(2*pi*j/m) t2)),
    scaled by |force| in reported-force mode, each with its torque
    ((x_i - centroid) x edge_j) / rho.  Rows run contact by contact, m rows
    each, and end with the zero wrench.
    """
    centroid = contact_centroid(frame)
    normals = np.array([c.normal for c in frame.contacts])
    n = normals / _row_lengths(normals)[:, None]
    t1, t2 = (t[:, None, :] for t in orthonormal_tangents(n))
    theta = 2.0 * np.pi * np.arange(cfg.cone_edges)[:, None] / cfg.cone_edges
    edges = n[:, None, :] + cfg.friction_mu * (np.cos(theta) * t1 + np.sin(theta) * t2)
    edges = edges / np.linalg.norm(edges, axis=2)[:, :, None]
    if cfg.force_normalization == "reported-force":
        forces = np.array([c.force for c in frame.contacts])
        edges = edges * _row_lengths(forces)[:, None, None]
    arms = np.array([c.position for c in frame.contacts]) - centroid
    torques = np.cross(arms[:, None, :], edges) / cfg.torque_scale_rho
    rows = np.concatenate([edges, torques], axis=2).reshape(-1, 6)
    return np.vstack([rows, np.zeros((1, 6))])


def build_gws(frame: TrajectoryFrame, cfg: WrenchSpaceConfig) -> Polytope:
    """Contact-centered grasp wrench space of one frame as a 6D hull."""
    return convex_hull(frame_wrenches(frame, cfg), 6)


def default_torque_scale(mesh_nodes, centroid) -> float:
    """Length scale for torque homogenization.

    The maximum distance from the given centroid (typically the first
    contact centroid) to any mesh node; falls back to 1 for a degenerate
    all-coincident cloud.
    """
    nodes = np.asarray(mesh_nodes, dtype=float)
    c = vec3(centroid, "centroid")
    r = float(np.max(np.linalg.norm(nodes - c, axis=1)))
    return r if r > 0.0 else 1.0
