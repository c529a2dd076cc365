"""Cross-view verification: does an ego motion stream belong to a candidate?

The ego-downward camera sees only the wearer's body, so an ego observation
holds only two relative streams, as read-only arrays: pose deltas (7, 19, 3)
and rigid-motion increments (7, 2, 3), each step a rotation vector and then a
translation. Scoring runs two channels per candidate, both anchored at that
candidate's own first observed pose (each hypothesis is tried in its own
frame):

* action: the ego pose deltas are integrated from the candidate's frame-0
  pose and the resulting clip is compared, through codebook label scores,
  against the candidate's observed pose clip (a cross-entropy in each
  direction);
* motion: the ego rigid-motion increments are integrated from the body frame
  of the candidate's frame-0 pose and compared by L1 against the candidate's
  bounding-box track; a second L1 checks the candidate's own pose-derived
  track against the same boxes. Tracks are (8, 2) arrays re-based at frame 0.

The total is a weighted sum of the four terms and the match probability is
exp(-total / sigma). localize scores all of a clip's candidates in one array
pass: the ego pose-delta array is summed and the ego increments integrated
once per clip (as start-frame offsets, rotated into each candidate's body
frame), and both action clips of every candidate go through one distance
product against the centroids. verify_pair scores one pair at a time and is
the per-pair reference the batched pass is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action_codebook import DEFAULT_TAU, ActionCodebook, action_agreement, cross_entropies, label_scores
from .geometry import frozen_array
from .motion import (
    BoundingBox,
    bbox_trajectory,
    ego_offsets,
    integrate_ego_motion,
    trajectory_l1_loss,
)
from .skeleton import (
    CLIP_LEN,
    N_JOINTS,
    DegeneratePoseError,
    PoseSequence,
    body_axes,
    body_center,
    body_centers,
    body_frame,
    integrate_pose_deltas,
)

__all__ = [
    "InsufficientObservationError",
    "ScoringConfig",
    "EgoObservation",
    "CandidateObservation",
    "VerificationScore",
    "verify_pair",
    "localize",
    "score_record",
]


class InsufficientObservationError(ValueError):
    """Raised when a candidate has no valid frame to verify against."""


@dataclass(frozen=True)
class ScoringConfig:
    """Channel weights and scales. All default to the unit configuration."""

    action_weight: float = 1.0
    motion_weight: float = 1.0
    sigma: float = 1.0
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        for name in ("action_weight", "motion_weight", "sigma", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("action_weight", "motion_weight"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("sigma", "tau"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


class EgoObservation:
    """One clip's ego stream of the wearer's body, as read-only arrays.

    pose_deltas is (7, 19, 3), the joint-space steps between consecutive
    frames; motion_deltas is (7, 2, 3), per step the rotation vector and then
    the translation of the rigid-motion increment.
    """

    __slots__ = ("pose_deltas", "motion_deltas")

    def __init__(self, pose_deltas, motion_deltas):
        self.pose_deltas = frozen_array(pose_deltas, "pose_deltas", (CLIP_LEN - 1, N_JOINTS, 3))
        self.motion_deltas = frozen_array(motion_deltas, "motion_deltas", (CLIP_LEN - 1, 2, 3))


class CandidateObservation:
    """One tracked person in the third view over a clip window."""

    __slots__ = ("person_id", "poses", "boxes", "valid")

    def __init__(self, person_id, poses: PoseSequence, boxes, valid=None):
        self.person_id = int(person_id)
        if not isinstance(poses, PoseSequence) or not poses.is_clip():
            raise ValueError("candidate poses must be a full 8-pose sequence")
        boxes = tuple(boxes)
        if len(boxes) != CLIP_LEN:
            raise ValueError(f"expected {CLIP_LEN} bounding boxes, got {len(boxes)}")
        for b in boxes:
            if not isinstance(b, BoundingBox):
                raise ValueError("boxes entries must be BoundingBox")
        if valid is None:
            valid = (True,) * CLIP_LEN
        valid = tuple(bool(v) for v in valid)
        if len(valid) != CLIP_LEN:
            raise ValueError(f"expected {CLIP_LEN} validity flags, got {len(valid)}")
        self.poses = poses
        self.boxes = boxes
        self.valid = valid

    def fully_valid(self):
        return all(self.valid)


@dataclass(frozen=True)
class VerificationScore:
    """Per-channel losses, their weighted total, and the match probability."""

    total: float
    action_ego_ce: float
    action_third_ce: float
    motion_ego_l1: float
    motion_third_l1: float
    match_probability: float


def verify_pair(
    ego: EgoObservation,
    candidate: CandidateObservation,
    codebook: ActionCodebook,
    config: ScoringConfig = ScoringConfig(),
) -> VerificationScore:
    """Score one candidate against the ego stream.

    Raises InsufficientObservationError when every frame of the candidate is
    occluded, and DegeneratePoseError when its frame-0 pose cannot anchor a
    body frame.
    """
    _require_valid_frame(candidate)
    seed_pose = candidate.poses[0]

    ego_sequence = integrate_pose_deltas(seed_pose, ego.pose_deltas)
    ego_scores = label_scores(codebook, ego_sequence, tau=config.tau)
    third_scores = label_scores(codebook, candidate.poses, tau=config.tau)
    ego_ce, third_ce = action_agreement(ego_scores, third_scores, codebook)

    box_track = bbox_trajectory(candidate.boxes)
    ego_track = integrate_ego_motion(body_frame(seed_pose), ego.motion_deltas)
    motion_ego_l1 = trajectory_l1_loss(ego_track, box_track)
    centres = np.array([body_center(p)[:2] for p in candidate.poses])
    motion_third_l1 = trajectory_l1_loss(centres - centres[0], box_track)

    total = config.action_weight * (ego_ce + third_ce) + config.motion_weight * (motion_ego_l1 + motion_third_l1)
    return VerificationScore(
        total=total,
        action_ego_ce=ego_ce,
        action_third_ce=third_ce,
        motion_ego_l1=motion_ego_l1,
        motion_third_l1=motion_third_l1,
        match_probability=float(np.exp(-total / config.sigma)),
    )


def _require_valid_frame(candidate: CandidateObservation):
    if not any(candidate.valid):
        raise InsufficientObservationError(
            f"candidate {candidate.person_id} has no valid frame in this clip"
        )


def localize(ego, candidates, codebook, config: ScoringConfig = ScoringConfig()):
    """Pick the wearer among candidates by maximum match probability.

    Scores every candidate as verify_pair does, all in one array pass.
    Returns (person_id, scores) with scores ordered like the input candidate
    list; ties go to the lowest person id. Raises like verify_pair on the
    first candidate, in input order, that cannot be scored.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("localize requires at least one candidate")
    n = len(candidates)
    observed = np.array([[p.joints for p in c.poses] for c in candidates])  # (n, 8, 19, 3)
    axes, defined = body_axes(observed[:, 0])
    for candidate, ok in zip(candidates, defined):
        _require_valid_frame(candidate)
        if not ok:
            raise DegeneratePoseError(
                f"candidate {candidate.person_id}: shoulder and neck joints are collinear; body frame undefined"
            )

    offsets = np.concatenate([np.zeros((1, N_JOINTS, 3)), np.cumsum(ego.pose_deltas, axis=0)])
    ego_clips = observed[:, :1] + offsets
    ego_ce, third_ce = cross_entropies(codebook, ego_clips.reshape(n, -1), observed.reshape(n, -1), config.tau)

    corners = np.array([[b.corners() for b in c.boxes] for c in candidates])  # (n, 8, 4)
    box_centres = (corners[..., :2] + corners[..., 2:]) / 2.0
    box_track = box_centres - box_centres[:, :1]
    # row 0 of the offsets is zero, so each rotated track starts at (0, 0)
    ego_track = ego_offsets(ego.motion_deltas) @ axes[:, :2, :].transpose(0, 2, 1)
    pose_centres = body_centers(observed)[..., :2]
    pose_track = pose_centres - pose_centres[:, :1]
    motion_ego_l1 = np.abs(ego_track - box_track).reshape(n, -1).sum(axis=1)
    motion_third_l1 = np.abs(pose_track - box_track).reshape(n, -1).sum(axis=1)

    total = config.action_weight * (ego_ce + third_ce) + config.motion_weight * (motion_ego_l1 + motion_third_l1)
    probability = np.exp(-total / config.sigma)
    scores = [
        VerificationScore(*(float(v) for v in row))
        for row in zip(total, ego_ce, third_ce, motion_ego_l1, motion_third_l1, probability)
    ]
    best = min(range(n), key=lambda i: (-scores[i].match_probability, candidates[i].person_id))
    return candidates[best].person_id, scores


def score_record(clip_id, person_id, score: VerificationScore) -> dict:
    """JSON-ready record for one scored (clip, candidate) pair."""
    return {
        "clip_id": clip_id,
        "person_id": person_id,
        "components": {
            "action_ego_ce": score.action_ego_ce,
            "action_third_ce": score.action_third_ce,
            "motion_ego_l1": score.motion_ego_l1,
            "motion_third_l1": score.motion_third_l1,
        },
        "total": score.total,
        "match_probability": score.match_probability,
    }
