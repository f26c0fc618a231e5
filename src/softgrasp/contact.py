"""Contact wrenches and the contact-centered grasp wrench space.

A frame's wrench space is the convex hull of friction-pyramid edge wrenches
from every contact plus the zero wrench.  Torques are taken about the mean
contact location and divided by a length scale rho so all six coordinates
carry force units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyFrameError, InvalidInputError, check_fields, finite, integer, vec3
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
        raise EmptyFrameError("frame has no contacts")
    return np.mean([c.position for c in frame.contacts], axis=0)


def orthonormal_tangents(normal) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed tangent basis (t1, t2) for a unit normal.

    Seeds t1 from the coordinate axis least aligned with the normal, so the
    basis is reproducible across runs and never degenerate.
    """
    n = vec3(normal, "normal")
    a = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[a] = 1.0
    t1 = e - n[a] * n
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def friction_pyramid(normal, mu: float, m: int) -> np.ndarray:
    """m unit edge directions of the linearized Coulomb cone around normal.

    edge_j = normalize(n + mu * (cos(2*pi*j/m) t1 + sin(2*pi*j/m) t2)).
    """
    n = vec3(normal, "normal")
    length = float(np.linalg.norm(n))
    if length < 1e-12:
        raise InvalidInputError("zero contact normal")
    m = integer(m, "m", 3)
    mu = finite(mu, "mu", least=0.0)
    n = n / length
    t1, t2 = orthonormal_tangents(n)
    theta = 2.0 * np.pi * np.arange(m) / m
    edges = n[None, :] + mu * (np.cos(theta)[:, None] * t1 + np.sin(theta)[:, None] * t2)
    return edges / np.linalg.norm(edges, axis=1)[:, None]


def frame_wrenches(frame: TrajectoryFrame, cfg: WrenchSpaceConfig) -> np.ndarray:
    """All pyramid-edge wrenches of a frame plus the zero wrench, (N*m+1, 6)."""
    if len(frame.contacts) == 0:
        raise EmptyFrameError("frame has no contacts")
    centroid = contact_centroid(frame)
    rho = cfg.torque_scale_rho
    rows = []
    for c in frame.contacts:
        edges = friction_pyramid(c.normal, cfg.friction_mu, cfg.cone_edges)
        if cfg.force_normalization == "reported-force":
            edges = edges * float(np.linalg.norm(c.force))
        arm = c.position - centroid
        torques = np.cross(np.broadcast_to(arm, edges.shape), edges) / rho
        rows.append(np.hstack([edges, torques]))
    rows.append(np.zeros((1, 6)))
    return np.vstack(rows)


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
