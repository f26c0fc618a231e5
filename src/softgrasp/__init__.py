"""Time-dependent grasp wrench spaces and quality metrics for soft objects.

The pipeline: squeeze a tetrahedral FEM mesh between parallel jaws
(fem.squeeze_frames), turn each contact snapshot into a friction-cone
wrench hull (contact, geom), and score grasps with epsilon, volume, and
gravity-resistant quality metrics (metrics).  fileio persists meshes,
trajectories, and grasp candidates; cli ties it all together.
"""

from .contact import (
    ContactPoint,
    TrajectoryFrame,
    WrenchSpaceConfig,
    build_gws,
    contact_centroid,
    default_torque_scale,
    frame_wrenches,
    orthonormal_tangents,
)
from .errors import (
    ConfigError,
    HullError,
    InvalidInputError,
    ParseError,
    SoftGraspError,
    SolverError,
)
from .fem import (
    GraspCandidate,
    MaterialParams,
    SimConfig,
    Squeeze,
    StepReport,
    TetMesh,
    assemble_model,
    generate_primitive_mesh,
    mesh_center_of_mass,
    quasi_static_step,
    squeeze_frames,
    tet_volumes,
)
from .fileio import (
    TrajectoryFile,
    TrajectoryHeader,
    load_grasp_candidates,
    load_tet_mesh,
    load_trajectory,
    parse_grasp_candidates,
    parse_tet_mesh,
    read_trajectory,
    save_trajectory,
    write_grasp_candidates,
    write_trajectory,
)
from .geom import (
    Polytope,
    affine_rank_of,
    convex_hull,
    min_facet_distance,
    polytope_volume,
    ray_exit_distances,
)
from .metrics import (
    FrameQuality,
    GravityConfig,
    desired_force_index,
    fibonacci_sphere,
    frame_quality,
    monotonicity,
    saturation_index,
)

__version__ = "0.1.0"
