"""Cross-view person association toolkit.

Matches an ego-downward motion stream (pose deltas plus rigid-motion
increments) against the people a static third view is tracking, by
reconstructing the wearer's action clip and planar trajectory in third-view
coordinates and scoring each candidate. Includes a deterministic multi-person
simulator, a Bayes identity filter, and an evaluation CLI.
"""

from .action_codebook import (
    ActionCodebook,
    action_agreement,
    assign_label,
    fit_codebook,
    label_scores,
    load_codebook,
    save_codebook,
)
from .bayes_filter import FilterState, init_filter, map_identity, predict, update
from .geometry import RotationDelta, error_quaternion, se3_compose, warp_to_third_2d
from .motion import (
    BoundingBox,
    bbox_trajectory,
    integrate_ego_motion,
    trajectory_l1_loss,
)
from .simulator import (
    ClipObservation,
    Crossing,
    GaitParams,
    NoiseParams,
    PersonSpec,
    Scenario,
    ego_deltas_from_truth,
    generate_scene,
    group_scenario,
    load_scenario,
    save_scenario,
    three_person_scenario,
    two_person_scenario,
)
from .skeleton import (
    CLIP_LEN,
    JOINT_NAMES,
    DegeneratePoseError,
    body_frame,
    integrate_pose_deltas,
    pose_clip_vector,
)
from .verification import (
    CandidateObservation,
    EgoObservation,
    InsufficientObservationError,
    ScoringConfig,
    VerificationScore,
    localize,
    score_scene,
    verify_pair,
)

__version__ = "0.1.0"
