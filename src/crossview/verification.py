"""Cross-view verification: does an ego motion stream belong to a candidate?

The ego-downward camera sees only the wearer's body, so an ego observation
holds only two relative streams, as read-only arrays: pose deltas (7, 19, 3)
and rigid-motion increments (7, 2, 3), each step a rotation vector and then a
translation. A third-view candidate holds its observed pose clip as one
read-only (8, 19, 3) array, next to its 8 boxes and validity flags. Scoring
runs two channels per candidate, both anchored at that candidate's own first
observed pose (each hypothesis is tried in its own frame):

* action: the ego pose deltas are integrated from the candidate's frame-0
  pose and the resulting clip is compared, through codebook label scores,
  against the candidate's observed pose clip (a cross-entropy in each
  direction);
* motion: the ego rigid-motion increments are integrated from the body frame
  of the candidate's frame-0 pose and compared by L1 against the candidate's
  bounding-box track; a second L1 checks the candidate's own pose-derived
  track against the same boxes. Tracks are (8, 2) arrays re-based at frame 0.

The total is a weighted sum of the four terms and the match probability is
exp(-total / sigma). score_scene scores a scene in blocks of whole clips,
with one call each to cross_entropies, body_axes and exp_rotations per block;
localize is that pass over one clip, so both share one code path. On
OpenBLAS a distance product of rows x centroids <= 1200 (1 to 3 rows at
k=400) gives a row other bits than a larger product, so each clip keeps a
product of its own shape inside one stacked call and score_scene gives
localize's bits. verify_pair scores one pair and is the per-pair reference
the batched pass is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import groupby

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
    body_axes,
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
    "score_scene",
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
    """One tracked person in the third view over a clip window.

    poses is the observed clip as a read-only (8, 19, 3) array.
    """

    __slots__ = ("person_id", "poses", "boxes", "valid")

    def __init__(self, person_id, poses, boxes, valid=None):
        self.person_id = int(person_id)
        poses = frozen_array(poses, "poses", (CLIP_LEN, N_JOINTS, 3))
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
    centres = body_centers(candidate.poses)[:, :2]
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


BLOCK_PAIRS = 256  # pairs per score_scene block; one block for the scene costs memory, not time
SCORE_FIELDS = tuple(f.name for f in fields(VerificationScore))


def localize(ego, candidates, codebook, config: ScoringConfig = ScoringConfig()):
    """Pick the wearer among candidates by maximum match probability: score_scene's pass over one clip.

    Returns (person_id, scores) with scores ordered like the input candidate
    list; ties go to the lowest person id. Raises like verify_pair on the
    first candidate, in input order, that cannot be scored.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("localize requires at least one candidate")
    (person_id,), columns = _score_block([(ego, candidates)], codebook, config)
    return person_id, [VerificationScore(*row) for row in zip(*(column.tolist() for column in columns))]


def score_scene(clips, codebook, config: ScoringConfig = ScoringConfig()):
    """Score every (clip, candidate) pair of a scene in blocks of whole clips.

    A block is a run of clips with one candidate count and at most
    BLOCK_PAIRS pairs (or a single clip). Returns (decisions, columns): each
    clip's raw decision as localize picks it, and a dict of the SCORE_FIELDS,
    each a (P,) array over the pairs in scene order, with localize's bits.
    Raises like localize on the first pair, in scene order, that cannot be
    scored.
    """
    decisions, blocks = [], []
    for n, run in groupby(clips, key=lambda clip: len(clip.candidates)):
        run = [(clip.ego, clip.candidates) for clip in run]
        step = max(1, BLOCK_PAIRS // n)
        for i in range(0, len(run), step):
            picked, columns = _score_block(run[i : i + step], codebook, config)
            decisions += picked
            blocks.append(columns)
    if not blocks:
        raise ValueError("score_scene requires at least one clip")
    return decisions, {name: np.concatenate(column) for name, column in zip(SCORE_FIELDS, zip(*blocks))}


def _score_block(clips, codebook, config):
    # Every pair of c (ego, candidates) clips of n candidates each in one
    # array pass; returns each clip's decision and the (c * n,) columns in
    # SCORE_FIELDS order. Ego streams are integrated once per clip, the motion
    # as start-frame offsets rotated into each candidate's body frame.
    candidates = [candidate for _, group in clips for candidate in group]
    c = len(clips)
    n = len(candidates) // c
    observed = np.stack([candidate.poses for candidate in candidates])  # (c * n, 8, 19, 3)
    axes, defined = body_axes(observed[:, 0])
    for candidate, ok in zip(candidates, defined):
        _require_valid_frame(candidate)
        if not ok:
            raise DegeneratePoseError(
                f"candidate {candidate.person_id}: shoulder and neck joints are collinear; body frame undefined"
            )

    pose_sums = np.cumsum([ego.pose_deltas for ego, _ in clips], axis=1)
    offsets = np.concatenate([np.zeros((c, 1, N_JOINTS, 3)), pose_sums], axis=1)
    ego_clips = observed.reshape(c, n, CLIP_LEN, N_JOINTS, 3)[:, :, :1] + offsets[:, None]
    # one distance product per clip, of the shape localize gives
    stacked = cross_entropies(codebook, ego_clips.reshape(c, n, -1), observed.reshape(c, n, -1), config.tau)
    ego_ce, third_ce = (column.reshape(-1) for column in stacked)

    corners = np.array([[b.corners() for b in candidate.boxes] for candidate in candidates])  # (c * n, 8, 4)
    box_centres = (corners[..., :2] + corners[..., 2:]) / 2.0
    box_track = box_centres - box_centres[:, :1]
    # row 0 of the offsets is zero, so each rotated track starts at (0, 0)
    motion_offsets = np.repeat(ego_offsets([ego.motion_deltas for ego, _ in clips]), n, axis=0)
    ego_track = motion_offsets @ axes[:, :2, :].transpose(0, 2, 1)
    pose_centres = body_centers(observed)[..., :2]
    pose_track = pose_centres - pose_centres[:, :1]
    motion_ego_l1 = np.abs(ego_track - box_track).reshape(c * n, -1).sum(axis=1)
    motion_third_l1 = np.abs(pose_track - box_track).reshape(c * n, -1).sum(axis=1)

    total = config.action_weight * (ego_ce + third_ce) + config.motion_weight * (motion_ego_l1 + motion_third_l1)
    probability = np.exp(-total / config.sigma)
    # each clip's least (-probability, person id): ties go to the lowest id
    keys = list(zip((-probability).tolist(), [candidate.person_id for candidate in candidates]))
    decisions = [min(keys[i : i + n])[1] for i in range(0, c * n, n)]
    return decisions, (total, ego_ce, third_ce, motion_ego_l1, motion_third_l1, probability)
