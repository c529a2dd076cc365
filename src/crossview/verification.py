"""Cross-view verification: does an ego motion stream belong to a candidate?

The ego-downward camera sees only the wearer's body, so an ego observation
holds two relative streams: pose deltas (7, 19, 3) and rigid-motion
increments (7, 2, 3), per step a rotation vector and then a translation. A
third-view candidate holds its (8, 19, 3) pose clip, 8 boxes and validity
flags. Both channels are anchored at the candidate's own frame-0 pose:

* action: the ego pose deltas, integrated from that pose, against the
  observed clip through codebook label scores (a cross-entropy each way);
* motion: the ego increments, integrated from that pose's body frame, and
  the candidate's pose-derived track, each by L1 against its box track.
  Tracks are (8, 2) arrays re-based at frame 0.

The total is a weighted sum of the four terms and the match probability is
exp(-total / sigma). score_scene scores a Scene of arrays in blocks of whole
clips; localize is that pass over one clip. On OpenBLAS a distance product
of rows x centroids <= 1200 gives a row other bits than a larger one, so each
clip keeps a product of its own shape inside one stacked call. verify_pair is
the per-pair reference the batched pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

import numpy as np

from ._files import _checked_fields, _number, frozen_array
from .action_codebook import DEFAULT_TAU, ActionCodebook, _cross_entropies, action_agreement, label_scores
from .motion import (
    BoundingBox,
    bbox_trajectory,
    _ego_offsets,
    box_centers,
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
    "Scene",
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
        _checked_fields(self, ("action_weight", "motion_weight"), low=0)
        _checked_fields(self, ("sigma", "tau"), positive=True)


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

    @classmethod
    def _unchecked(cls, pose_deltas, motion_deltas):  # read-only views of a checked Scene, not checked again
        ego = object.__new__(cls)
        ego.pose_deltas, ego.motion_deltas = pose_deltas, motion_deltas
        return ego


class CandidateObservation:
    """One tracked person in the third view over a clip window.

    poses is the observed clip as a read-only (8, 19, 3) array.
    """

    __slots__ = ("person_id", "poses", "boxes", "valid")

    def __init__(self, person_id, poses, boxes, valid=None):
        self.person_id = _number(person_id, "person_id", integer=True)
        self.poses = frozen_array(poses, "poses", (CLIP_LEN, N_JOINTS, 3))
        self.boxes = tuple(boxes)
        if len(self.boxes) != CLIP_LEN:
            raise ValueError(f"expected {CLIP_LEN} bounding boxes, got {len(self.boxes)}")
        for b in self.boxes:
            if not isinstance(b, BoundingBox):
                raise ValueError("boxes entries must be BoundingBox")
        self.valid = (True,) * CLIP_LEN
        if valid is not None:
            self.valid = tuple(frozen_array(valid, "valid", (CLIP_LEN,), bool, copy=False).tolist())

    @classmethod
    def _unchecked(cls, person_id, poses, corners, valid):  # a checked Scene's id, pose view, corner and flag rows
        candidate = object.__new__(cls)
        candidate.person_id, candidate.poses, candidate.valid = person_id, poses, tuple(valid)
        candidate.boxes = tuple(map(BoundingBox._unchecked, corners))
        return candidate

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
    _require_valid_frame(candidate.person_id, candidate.valid)
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


def _require_valid_frame(person_id, valid):
    if not any(valid):
        raise InsufficientObservationError(f"candidate {person_id} has no valid frame in this clip")


BLOCK_PAIRS = 128  # pairs per score_scene block: larger ones cost memory, not time (at 256, evaluate peaks here)
SCORE_FIELDS = tuple(f.name for f in fields(VerificationScore))
_CORNERS = attrgetter(*BoundingBox.__slots__)  # a box's (lx, ly, rx, ry), as BoundingBox.corners gives them
_PERSON_ID, _POSES, _BOXES, _VALID = map(attrgetter, ("person_id", "poses", "boxes", "valid"))


@dataclass(frozen=True, eq=False)
class Scene:
    """Every clip of a scene as read-only arrays over C clips of the same N candidates.

    Per candidate frame: poses (C, N, 8, 19, 3), box corners (C, N, 8, 4) as
    (lx, ly, rx, ry) and valid (C, N, 8); per clip the ego pose deltas
    (C, 7, 19, 3) and motion increments (C, 7, 2, 3); person ids (N,), clip
    ids (C,) and the true wearer's id. Checked once here; errors name the
    field. The arrays are read-only views, not copies.
    """

    poses: np.ndarray
    corners: np.ndarray
    valid: np.ndarray
    pose_deltas: np.ndarray
    motion_deltas: np.ndarray
    person_ids: np.ndarray
    clip_ids: np.ndarray
    wearer: int

    def __post_init__(self):
        object.__setattr__(self, "valid", frozen_array(self.valid, "valid", ("C", "N", CLIP_LEN), bool, copy=False))
        c, n = self.valid.shape[:2]
        for name, dtype, shape in (
            ("poses", float, (c, n, CLIP_LEN, N_JOINTS, 3)),
            ("corners", float, (c, n, CLIP_LEN, 4)),
            ("pose_deltas", float, (c, CLIP_LEN - 1, N_JOINTS, 3)),
            ("motion_deltas", float, (c, CLIP_LEN - 1, 2, 3)),
            ("person_ids", int, (n,)),
            ("clip_ids", int, (c,)),
        ):
            object.__setattr__(self, name, frozen_array(getattr(self, name), name, shape, dtype, copy=False))
        object.__setattr__(self, "wearer", _number(self.wearer, "wearer", integer=True))
        if (self.corners[..., :2] > self.corners[..., 2:]).any():
            raise ValueError("corners must have lx <= rx and ly <= ry")
        if len(set(self.person_ids.tolist())) != n or self.wearer not in self.person_ids:
            raise ValueError(f"person_ids must be distinct and hold the wearer {self.wearer}")


def localize(ego, candidates, codebook, config: ScoringConfig = ScoringConfig()):
    """Pick the wearer among candidates by maximum match probability: score_scene's pass over one clip.

    Returns (person_id, scores) with scores ordered like the input candidate
    list; ties go to the lowest person id. Raises like verify_pair on the
    first candidate, in input order, that cannot be scored.
    """
    candidates = list(candidates)
    n = len(candidates)
    if not n:
        raise ValueError("localize requires at least one candidate")
    corners = chain.from_iterable(map(_CORNERS, chain.from_iterable(map(_BOXES, candidates))))
    (person_id,), table = _score_block(
        ego.pose_deltas[None],
        ego.motion_deltas[None],
        np.array([list(map(_POSES, candidates))]),
        np.fromiter(corners, float, n * CLIP_LEN * 4).reshape(1, n, CLIP_LEN, 4),
        np.fromiter(chain.from_iterable(map(_VALID, candidates)), bool, n * CLIP_LEN).reshape(1, n, CLIP_LEN),
        np.array(list(map(_PERSON_ID, candidates))),
        codebook,
        config,
    )
    scores = [object.__new__(VerificationScore) for _ in candidates]
    for score, row in zip(scores, table.T.tolist()):  # VerificationScore(*row) without one setattr call per field
        score.__dict__.update(zip(SCORE_FIELDS, row))
    return person_id, scores


def score_scene(scene: Scene, codebook, config: ScoringConfig = ScoringConfig()):
    """Score every (clip, candidate) pair of a Scene in blocks of whole clips.

    A block is at most BLOCK_PAIRS pairs (or a single clip). Returns
    (decisions, columns): each clip's raw decision as localize picks it, and
    a dict of the SCORE_FIELDS, each a (P,) array over the pairs in scene
    order, with localize's bits. Raises like localize on the first pair, in
    scene order, that cannot be scored.
    """
    c, n = scene.valid.shape[:2]
    step = max(1, BLOCK_PAIRS // n)
    arrays = (scene.pose_deltas, scene.motion_deltas, scene.poses, scene.corners, scene.valid)
    ids = scene.person_ids
    blocks = (_score_block(*(a[i : i + step] for a in arrays), ids, codebook, config) for i in range(0, c, step))
    decisions, tables = zip(*blocks)
    return list(chain.from_iterable(decisions)), dict(zip(SCORE_FIELDS, np.concatenate(tables, axis=1)))


def _score_block(pose_deltas, motion_deltas, poses, corners, valid, ids, codebook, config):
    # Every pair of c clips of the same n candidates in one array pass, from a Scene's arrays over those clips and
    # the (n,) person ids; returns each clip's decision and a (6, c * n) table, one row per SCORE_FIELDS entry. Ego
    # streams are integrated once per clip, the motion as start-frame offsets rotated into each candidate's body frame.
    c, n = valid.shape[:2]
    observed = poses.reshape(c * n, CLIP_LEN, N_JOINTS, 3)
    axes, defined = body_axes(observed[:, 0])
    scorable = np.logical_or.reduce(valid, axis=-1).reshape(-1) & defined
    if not np.logical_and.reduce(scorable, axis=None):
        first = int(np.argmin(scorable))
        pid = int(ids[first % n])
        _require_valid_frame(pid, valid.reshape(-1, CLIP_LEN)[first])
        raise DegeneratePoseError(f"candidate {pid}: shoulder and neck joints are collinear; body frame undefined")

    offsets = np.zeros((c, 1, CLIP_LEN, N_JOINTS, 3))  # frame 0's stays zero
    pose_deltas.cumsum(axis=1, out=offsets[:, 0, 1:])
    # each clip's ego, then observed clips, in one buffer: one distance product per clip, of localize's shape
    rows = np.empty((c, 2 * n, CLIP_LEN, N_JOINTS, 3))
    np.add(poses[:, :, :1], offsets, out=rows[:, :n])
    rows[:, n:] = poses
    ego_ce, third_ce = _cross_entropies(codebook, rows.reshape(c, 2 * n, -1), config.tau)

    centres = box_centers(corners)
    box_track = (centres - centres[:, :, :1]).reshape(c * n, -1)
    # row 0 of the offsets is zero, so each rotated track starts at (0, 0)
    ego_track = _ego_offsets(motion_deltas).repeat(n, axis=0) @ axes[:, :2, :].transpose(0, 2, 1)
    pose_centres = body_centers(observed[..., :2])
    tracks = np.concatenate([ego_track, pose_centres - pose_centres[:, :1]]).reshape(2, c * n, -1)
    l1 = np.add.reduce(np.abs(tracks - box_track), axis=2).reshape(2, c, n)  # the ego, then the pose track's

    total = config.action_weight * (ego_ce + third_ce) + config.motion_weight * (l1[0] + l1[1])
    probability = np.exp(total / -config.sigma)  # the bits of exp(-total / sigma)
    # each clip's least (-probability, person id): ties go to the lowest id
    decisions = [min(zip(row, ids.tolist()))[1] for row in (-probability).tolist()]
    return decisions, np.concatenate((total, ego_ce, third_ce, l1, probability), axis=None).reshape(6, -1)
