"""Deterministic multi-person scene generator.

Synthesizes ground-truth third-view observations (pose clips as (8, 19, 3)
arrays, bounding boxes, occlusion flags) and the matching ego observables
(pose deltas, rigid-motion increments) with configurable Gaussian noise. The
clip starting at frame t has clip_id t, and a clip file lists its frames as
clip_id ... clip_id + 7. Scenes are reproducible: all randomness comes from
per-clip substreams derived from (seed, clip_id), so generation order cannot
change the output. Each clip draws its standard normals in this order, and
the clip-file goldens hold it as a contract:

1. the ego pose-delta block, (7, 19, 3);
2. per motion increment, its rotation (3) and then its translation (3);
3. one discarded pose-sized draw, (19, 3);
4. the candidate block, (persons, 8, 57 + 2): per person (sorted by id) and
   frame, the 57 pose columns and then the 2 box-shift columns.

A group whose sigma is 0 is skipped, not drawn.

People walk piecewise-linear waypoint paths at constant speed with a
procedural gait: arm and leg pairs swing sinusoidally along the facing
direction, in antiphase and with equal amplitude, driven by distance
travelled (a standing person holds a fixed pose). Two design points matter
for exactness guarantees downstream:

* all ground-truth joint coordinates are snapped to a 2^-20 m binary grid,
  so frame-to-frame deltas and their cumulative sums are exact in double
  precision and re-integration reproduces the ground truth bit for bit;
* limb offsets are mirrored pairs about the body center, so the box extent
  center coincides with the torso center and the ego-integrated track equals
  the box-center track to machine precision when noise is zero.

Occlusion is scheduled, not geometric: during a crossing interval the paired
people keep their boxes (the tracker coasts) but their observed poses freeze
at the last unoccluded frame, and validity flags are cleared.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._files import (
    _checked_fields, _known_keys, _list, _number, _object, _required, _schema_version, frozen_array, read_json
)
# se3_compose and body_frame are not called here; perfbench/tracer.py wraps
# them under these names to count calls, which now read 0
from .geometry import relative_motions, se3_compose  # noqa: F401
from .motion import BoundingBox
from .skeleton import CLIP_LEN, N_JOINTS, body_frame, body_poses  # noqa: F401
from .verification import CandidateObservation, EgoObservation, Scene

__all__ = [
    "GaitParams",
    "PersonSpec",
    "NoiseParams",
    "Crossing",
    "Scenario",
    "ClipObservation",
    "generate_scene",
    "scene_arrays",
    "ego_deltas_from_truth",
    "scenario_to_json",
    "scenario_from_json",
    "save_scenario",
    "load_scenario",
    "save_scene",
    "load_scene",
    "two_person_scenario",
    "three_person_scenario",
    "group_scenario",
]

SCHEMA_VERSION = 1

# Ground-truth coordinates live on this binary grid (about 1 micrometer), so
# sums and differences of joint positions are exact in double precision.
GRID = 2.0 ** -20

BOX_PAD = 0.1

# Clips whose noise is drawn and added together: about 0.5 MB of normals on the 8-person group scene.
_DRAW_BLOCK = 16

# Per joint: (lateral offset toward the right side, constant forward offset,
# height, swing multiplier applied to the arm or leg swing along the facing
# direction). Planar (lateral, forward) entries come in exact +/- pairs so the
# planar joint extent stays centered on the path position at every gait
# phase. The neck leans forward and the head top leans back by the same
# amount: the lean gives the shoulder-neck triangle planar area, which keeps
# the body-frame z sign rule away from its knife edge under observation
# noise, and the pairing preserves the extent symmetry.
_ARM = "arm"
_LEG = "leg"
_NECK_LEAN = 0.15
_BODY_LAYOUT = (
    (+0.12, 0.0, 0.08, _LEG, -1.0),  # right ankle
    (+0.12, 0.0, 0.50, _LEG, -0.5),  # right knee
    (+0.13, 0.0, 0.95, None, 0.0),  # right hip
    (-0.13, 0.0, 0.95, None, 0.0),  # left hip
    (-0.12, 0.0, 0.50, _LEG, +0.5),  # left knee
    (-0.12, 0.0, 0.08, _LEG, +1.0),  # left ankle
    (+0.24, 0.0, 0.85, _ARM, +1.0),  # right wrist
    (+0.22, 0.0, 1.15, _ARM, +0.5),  # right elbow
    (+0.20, 0.0, 1.45, None, 0.0),  # right shoulder
    (-0.20, 0.0, 1.45, None, 0.0),  # left shoulder
    (-0.22, 0.0, 1.15, _ARM, -0.5),  # left elbow
    (-0.24, 0.0, 0.85, _ARM, -1.0),  # left wrist
    (0.0, +_NECK_LEAN, 1.55, None, 0.0),  # neck
    (0.0, -_NECK_LEAN, 1.78, None, 0.0),  # head top
    (0.0, 0.0, 1.68, None, 0.0),  # nose
    (-0.05, 0.0, 1.70, None, 0.0),  # left eye
    (+0.05, 0.0, 1.70, None, 0.0),  # right eye
    (-0.09, 0.0, 1.66, None, 0.0),  # left ear
    (+0.09, 0.0, 1.66, None, 0.0),  # right ear
)
_LATERAL, _LEAN, _HEIGHT, _KIND, _MULT = (np.array(column) for column in zip(*_BODY_LAYOUT))
_IS_ARM = _KIND == _ARM


@dataclass(frozen=True)
class GaitParams:
    """Sinusoidal limb swing: amplitudes in meters, one cycle per stride."""

    arm_amplitude: float = 0.22
    leg_amplitude: float = 0.26
    stride_length: float = 0.6
    phase: float = 0.0

    def __post_init__(self):
        _checked_fields(self, ("arm_amplitude", "leg_amplitude"), low=0)
        _checked_fields(self, ("stride_length",), positive=True)
        _checked_fields(self, ("phase",))


@dataclass(frozen=True)
class PersonSpec:
    """One simulated person: a waypoint path, a gait, and the wearer flag."""

    person_id: int
    waypoints: tuple
    speed: float
    gait: GaitParams = GaitParams()
    is_wearer: bool = False
    heading: float = 0.0  # used when the path has no extent

    def __post_init__(self):
        _checked_fields(self, ("person_id",), integer=True)
        _checked_fields(self, ("speed",), low=0)
        _checked_fields(self, ("heading",))
        wps = tuple(map(tuple, frozen_array(self.waypoints, "waypoints", ("n", 2), copy=False).tolist()))
        object.__setattr__(self, "waypoints", wps)
        if not isinstance(self.is_wearer, bool):
            raise ValueError(f"is_wearer must be true or false, got {self.is_wearer!r}")
        if self.speed > 0.0 and any(a == b for a, b in zip(wps, wps[1:])):
            raise ValueError("consecutive waypoints must be distinct")


@dataclass(frozen=True)
class NoiseParams:
    """Standard deviations of the injected zero-mean Gaussian noise."""

    sigma_pose: float = 0.0
    sigma_odo_trans: float = 0.0
    sigma_odo_rot: float = 0.0
    sigma_bbox: float = 0.0

    def __post_init__(self):
        _checked_fields(self, ("sigma_pose", "sigma_odo_trans", "sigma_odo_rot", "sigma_bbox"), low=0)


@dataclass(frozen=True)
class Crossing:
    """Half-open frame interval [start, end) during which a pair occludes."""

    person_a: int
    person_b: int
    start: int
    end: int

    def __post_init__(self):
        _checked_fields(self, ("person_a", "person_b", "start", "end"), integer=True)


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration: int
    persons: tuple
    noise: NoiseParams = NoiseParams()
    crossings: tuple = ()
    time_offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "persons", tuple(self.persons))
        object.__setattr__(self, "crossings", tuple(self.crossings))
        _checked_fields(self, ("seed",), integer=True, low=0)
        _checked_fields(self, ("duration",), integer=True, low=CLIP_LEN)
        _checked_fields(self, ("time_offset",), integer=True)
        if not self.persons:
            raise ValueError("scenario needs at least one person")
        ids = [p.person_id for p in self.persons]
        if len(set(ids)) != len(ids):
            raise ValueError("person ids must be unique")
        wearers = [p for p in self.persons if p.is_wearer]
        if len(wearers) != 1:
            raise ValueError(f"exactly one person must be the wearer, got {len(wearers)}")
        for c in self.crossings:
            if c.person_a not in ids or c.person_b not in ids:
                raise ValueError(f"crossing references unknown person: {c}")
            if not (0 <= c.start < c.end <= self.duration):
                raise ValueError(f"crossing interval out of range: {c}")
        if abs(self.time_offset) > self.duration - CLIP_LEN:
            raise ValueError("time_offset leaves no aligned clip window")


@dataclass(frozen=True)
class ClipObservation:
    """One 8-frame window: ego observables, all candidates, and the answer key."""

    clip_id: int
    ego: EgoObservation
    candidates: tuple
    ground_truth_wearer: int


def _quantize(values):
    return np.round(values / GRID) * GRID


def _skeletons(centers_xy, headings, gait: GaitParams, travelled):
    """(T, 19, 3) grid-snapped joints at T planar positions, headings and distances travelled.

    The sines and cosines are taken per frame with math, the rest is one
    array expression over the frames: the same IEEE operations, element by
    element, as for a single frame.
    """
    phi = gait.phase + 2.0 * math.pi * travelled / gait.stride_length
    swing = np.array([math.sin(p) for p in phi])
    arm = gait.arm_amplitude * swing
    leg = gait.leg_amplitude * swing
    fx = np.array([math.cos(h) for h in headings])[:, None]
    fy = np.array([math.sin(h) for h in headings])[:, None]
    rx, ry = fy, -fx  # right-hand side of the walker
    center = _quantize(np.column_stack([centers_xy, np.zeros(len(centers_xy))]))
    # joints without a swing have multiplier 0, so they keep their lean
    forward = _LEAN + _MULT * np.where(_IS_ARM, arm[:, None], leg[:, None])
    height = np.broadcast_to(_HEIGHT, forward.shape)
    offsets = _quantize(np.stack([_LATERAL * rx + forward * fx, _LATERAL * ry + forward * fy, height], axis=-1))
    return center[:, None, :] + offsets


def _path_states(spec: PersonSpec, duration):
    """Positions (T, 2), headings (T,) and distances travelled (T,) over the first T frames."""
    pts = np.array(spec.waypoints)
    if len(pts) == 1 or spec.speed == 0.0:
        return np.tile(pts[0], (duration, 1)), [spec.heading] * duration, np.zeros(duration)
    segments = np.diff(pts, axis=0)
    lengths = np.linalg.norm(segments, axis=1)
    headings = [math.atan2(dy, dx) for dx, dy in segments]
    ends = np.cumsum(lengths)  # a running sum, added in path order
    starts = np.concatenate([[0.0], ends[:-1]])
    travelled = np.minimum(spec.speed * np.arange(duration), float(lengths.sum()))
    # the first segment whose end the walker has not passed; the last one past the path's end
    seg = np.minimum(np.searchsorted(ends, travelled), len(lengths) - 1)
    u = (travelled - starts[seg]) / lengths[seg]
    return pts[seg] + u[:, None] * segments[seg], [headings[i] for i in seg], travelled


def _ego_steps(frames):
    """Joint-space deltas (n-1, 19, 3) and rigid-motion increments (n-1, 2, 3) of an (n, 19, 3) array.

    Both are array passes over all frames; the increments are the relative
    transforms between consecutive body frames (see relative_motions).
    """
    return np.diff(frames, axis=0), relative_motions(*body_poses(frames))


def ego_deltas_from_truth(frames):
    """Derive the ego observables for an (8, 19, 3) window of one person's joints.

    Returns (pose_deltas, motion_deltas) as (7, 19, 3) and (7, 2, 3) arrays:
    the pose deltas are plain frame differences, the motion increments the
    relative transforms between consecutive body frames (rotation vector,
    then translation).
    """
    return _ego_steps(frozen_array(frames, "frames", (CLIP_LEN, N_JOINTS, 3), copy=False))


def _freeze_sources(occluded):
    """Per person (row of occluded) and frame, the frame whose pose the tracker reports.

    That is the last visible frame, stale during occlusion, or the first
    visible frame for an occlusion from frame 0.
    """
    visible = ~occluded
    if not visible.any(axis=-1).all():
        raise ValueError("a person is occluded for the entire scenario")
    frames = np.where(visible, np.arange(occluded.shape[-1]), visible.argmax(axis=-1)[:, None])
    return np.maximum.accumulate(frames, axis=-1)


def _clip_draws(scenario: Scenario):
    """The one generation pass: (person ids, wearer id, clip ids, draws).

    Person ids are sorted. draws yields, for each block of B <= _DRAW_BLOCK
    consecutive clips, the candidates' poses (B, N, 8, 19, 3), box corners
    (B, N, 8, 4) and valid flags (B, N, 8), then the ego pose deltas (B, 7,
    19, 3) and motion increments (B, 7, 2, 3): a Scene's fields for those
    clips, in its order. Each clip's generator fills its row of one block
    buffer with all of its normals in one call, which draws them as the
    module docstring's calls would; each zero-sigma column group is skipped
    in the draws, and a group's noise is added as 0.0 + sigma * z, which is
    what rng.normal(0.0, sigma) returns bit for bit.
    """
    persons = sorted(scenario.persons, key=lambda p: p.person_id)
    wearer_row = next(i for i, p in enumerate(persons) if p.is_wearer)
    duration = scenario.duration
    noise = scenario.noise

    # ground truth, once per person: joints (N, T, 19, 3), box corners
    # (N, T, 4) and, per frame, the frame whose pose the tracker reports
    joints = []
    for spec in persons:
        positions, headings, travelled = _path_states(spec, duration)
        joints.append(_skeletons(positions, headings, spec.gait, travelled))
    joints = np.stack(joints)
    xy = joints[..., :2]
    corners = np.concatenate([xy.min(axis=2) - BOX_PAD, xy.max(axis=2) + BOX_PAD], axis=-1)
    occluded = np.zeros((len(persons), duration), dtype=bool)
    for row, spec in enumerate(persons):
        for c in scenario.crossings:
            if spec.person_id in (c.person_a, c.person_b):
                occluded[row, c.start : c.end] = True
    sources = _freeze_sources(occluded)
    rows = np.arange(len(persons))[:, None]  # against (B, 1, 8) frames: (B, N, 8)

    offset = scenario.time_offset
    first = max(0, -offset)
    last = duration - CLIP_LEN - max(0, offset)  # inclusive
    # the wearer's frames seen by any window, with every consecutive step
    # computed once; window t0 starts at index t0 - first
    wearer_frames = joints[wearer_row, first + offset : last + offset + CLIP_LEN]
    wearer_pose_steps, wearer_motion_steps = _ego_steps(wearer_frames)
    motion_sigmas = np.array([noise.sigma_odo_rot, noise.sigma_odo_trans])
    motion_groups = np.flatnonzero(motion_sigmas > 0.0)
    pose_width = N_JOINTS * 3 * (noise.sigma_pose > 0.0)
    candidate_width = pose_width + 2 * (noise.sigma_bbox > 0.0)
    # each normal's sigma, in a clip's draw order (see the module docstring);
    # the discarded pose-sized draw keeps the candidate block at its position
    ego = np.full((CLIP_LEN - 1) * pose_width, noise.sigma_pose)
    motion = np.tile(np.repeat(motion_sigmas[motion_groups], 3), CLIP_LEN - 1)
    candidate = np.repeat([noise.sigma_pose, noise.sigma_bbox], [pose_width, candidate_width - pose_width])
    scale = np.concatenate([ego, motion, np.zeros(pose_width), np.tile(candidate, len(persons) * CLIP_LEN)])
    splits = np.cumsum([ego.size, motion.size, pose_width])

    def draws():
        z = np.empty((_DRAW_BLOCK, scale.size))
        for start in range(first, last + 1, _DRAW_BLOCK):
            t0 = np.arange(start, min(start + _DRAW_BLOCK, last + 1))
            for row, t in zip(z, t0.tolist()):
                np.random.default_rng([scenario.seed, t]).standard_normal(out=row)
            # scaled in place to 0.0 + sigma * z
            block = z[: t0.size]
            block *= scale
            block += 0.0
            pose_noise, motion_noise, _, candidate_noise = np.split(block, splits, axis=1)

            windows = (t0 - first)[:, None] + np.arange(CLIP_LEN - 1)
            pose_deltas = wearer_pose_steps[windows]
            motion_deltas = wearer_motion_steps[windows]
            if noise.sigma_pose > 0.0:
                pose_deltas += pose_noise.reshape(pose_deltas.shape)
            # a skipped group is left alone, since adding 0.0 would turn -0.0 into 0.0
            motion_deltas[:, :, motion_groups] += motion_noise.reshape(t0.size, CLIP_LEN - 1, motion_groups.size, 3)

            frames = t0[:, None, None] + np.arange(CLIP_LEN)
            observed = joints[rows, sources[rows, frames]]  # stale during occlusion
            boxes = corners[rows, frames]
            candidate_noise = candidate_noise.reshape(t0.size, len(persons), CLIP_LEN, candidate_width)
            if noise.sigma_pose > 0.0:
                observed += candidate_noise[..., : N_JOINTS * 3].reshape(observed.shape)
            if noise.sigma_bbox > 0.0:
                boxes += np.tile(candidate_noise[..., -2:], 2)
            yield observed, boxes, ~occluded[rows, frames], pose_deltas, motion_deltas

    ids = [p.person_id for p in persons]
    return ids, ids[wearer_row], range(first, last + 1), draws()


def generate_scene(scenario: Scenario):
    """Materialize every sliding-window clip of a scenario, noise included, as ClipObservation objects."""
    ids, wearer, clip_ids, draws = _clip_draws(scenario)
    clips = (clip for block in draws for clip in zip(*block))
    return [
        ClipObservation(
            t0,
            EgoObservation(pose_deltas, motion_deltas),
            tuple(
                CandidateObservation(pid, poses[row], map(BoundingBox._unchecked, corners[row].tolist()), valid[row])
                for row, pid in enumerate(ids)
            ),
            wearer,
        )
        for t0, (poses, corners, valid, pose_deltas, motion_deltas) in zip(clip_ids, clips)
    ]


def _filled(count, blocks):
    """A Scene's five per-clip arrays over count clips, copied block of clips by block into arrays of their shapes."""
    arrays = None
    start = 0
    for values in blocks:
        if arrays is None:  # a scenario and a manifest have at least one clip
            arrays = [np.empty((count,) + value.shape[1:], value.dtype) for value in values]
        for array, value in zip(arrays, values):
            array[start : start + len(value)] = value
        start += len(values[0])
    return arrays


def scene_arrays(scenario: Scenario) -> Scene:
    """generate_scene's clips, bit for bit, as one Scene filled block by block: no per-candidate object."""
    ids, wearer, clip_ids, draws = _clip_draws(scenario)
    return Scene(*_filled(len(clip_ids), draws), ids, clip_ids, wearer)


# ---------------------------------------------------------------------------
# serialization


def _scenario_obj(s: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": s.seed,
        "duration": s.duration,
        "time_offset": s.time_offset,
        "noise": asdict(s.noise),
        "persons": [
            {
                "id": p.person_id,
                "waypoints": [list(w) for w in p.waypoints],
                "speed": p.speed,
                "heading": p.heading,
                "is_wearer": p.is_wearer,
                "gait": asdict(p.gait),
            }
            for p in s.persons
        ],
        "crossings": [
            {"pair": [c.person_a, c.person_b], "start": c.start, "end": c.end} for c in s.crossings
        ],
    }


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(_scenario_obj(s), sort_keys=True, indent=2)


def _person(p) -> PersonSpec:
    _known_keys(p, ("id", "waypoints", "speed", "heading", "is_wearer", "gait"), "a person")
    return PersonSpec(
        person_id=_number(_required(p, "id", "a person"), "id", integer=True),
        waypoints=_list(_required(p, "waypoints", "a person"), "waypoints"),
        speed=_required(p, "speed", "a person"),
        heading=p.get("heading", 0.0),
        is_wearer=p.get("is_wearer", False),
        gait=GaitParams(**_known_keys(p.get("gait", {}), [f.name for f in fields(GaitParams)], "gait")),
    )


def scenario_from_json(text: str) -> Scenario:
    """The Scenario of a scenario_to_json text; a misread field raises a ValueError naming it."""
    return _scenario_from_obj(json.loads(text))


def _scenario_from_obj(obj) -> Scenario:
    keys = ("schema_version", "seed", "duration", "time_offset", "noise", "persons", "crossings")
    _known_keys(obj, keys, "a scenario")
    _schema_version(obj, SCHEMA_VERSION)
    return Scenario(
        seed=_required(obj, "seed", "a scenario"),
        duration=_required(obj, "duration", "a scenario"),
        time_offset=obj.get("time_offset", 0),
        noise=NoiseParams(**_known_keys(obj.get("noise", {}), [f.name for f in fields(NoiseParams)], "noise")),
        persons=tuple(_person(p) for p in _list(_required(obj, "persons", "a scenario"), "persons")),
        crossings=tuple(_crossing(c) for c in _list(obj.get("crossings", []), "crossings")),
    )


def _crossing(c) -> Crossing:
    _known_keys(c, ("pair", "start", "end"), "a crossing")
    pair = _required(c, "pair", "a crossing")
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"pair must be a list of 2 numbers, got {pair!r}")
    start, end = (_required(c, k, "a crossing") for k in ("start", "end"))
    return Crossing(*(_number(v, "pair", integer=True) for v in pair), start, end)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_json(s))


def load_scenario(path) -> Scenario:
    return read_json(path, "scenario file", _scenario_from_obj)


def clip_to_obj(scene: Scene, i) -> dict:
    """Clip i of a Scene as a clip file's JSON object, built from its rows' tolist()."""
    clip_id = int(scene.clip_ids[i])
    rows = zip(scene.person_ids.tolist(), *(a[i].tolist() for a in (scene.poses, scene.corners, scene.valid)))
    return {
        "schema_version": SCHEMA_VERSION,
        "clip_id": clip_id,
        "ground_truth_wearer": scene.wearer,
        "ego": {
            "pose_deltas": scene.pose_deltas[i].tolist(),
            "motion": {"deltas": [{"rotation": r, "translation": t} for r, t in scene.motion_deltas[i].tolist()]},
        },
        "candidates": [
            {"person_id": pid, "frames": list(range(clip_id, clip_id + CLIP_LEN)), "poses": p, "boxes": b, "valid": v}
            for pid, p, b, v in rows
        ],
    }


def clip_from_obj(obj) -> Scene:
    """The one-clip Scene of a clip_to_obj object; other keys, such as an older file's ego start pose, are ignored.

    Each candidate's frames must be clip_id ... clip_id + 7. A missing key, a misread field (a schema_version
    other than 1, a fractional id, an array that frozen_array rejects, a candidate or ego part that is not an
    object) or a wearer who is not a candidate raises ValueError naming it.
    """
    try:
        _schema_version(_object(obj, "a clip file"), SCHEMA_VERSION)
        clip_id = _number(obj["clip_id"], "clip_id", integer=True)
        frames = list(range(clip_id, clip_id + CLIP_LEN))
        candidates = _list(obj["candidates"], "candidates")
        for c in candidates:
            if _object(c, "a candidate")["frames"] != frames:
                raise ValueError(f"candidate {c['person_id']} frames must be {frames}, got {c['frames']}")
        ego = _object(obj["ego"], "ego")
        deltas = _list(_object(ego["motion"], "ego.motion")["deltas"], "ego.motion.deltas")
        return Scene(
            poses=[[c["poses"] for c in candidates]],
            corners=frozen_array([c["boxes"] for c in candidates], "boxes", (len(candidates), CLIP_LEN, 4))[None],
            valid=[[c["valid"] for c in candidates]],
            pose_deltas=[ego["pose_deltas"]],
            motion_deltas=[[(_object(d, "a motion delta")["rotation"], d["translation"]) for d in deltas]],
            person_ids=[_number(c["person_id"], "person_id", integer=True) for c in candidates],
            clip_ids=[clip_id],
            wearer=_number(obj["ground_truth_wearer"], "ground_truth_wearer", integer=True),
        )
    except KeyError as exc:
        raise ValueError(f"clip file lacks the key {exc}") from exc


def save_scene(scene: Scene, directory, scenario: Scenario | None = None) -> None:
    """Write one JSON file per clip of a Scene plus a manifest with seed and config hash."""
    os.makedirs(directory, exist_ok=True)
    clip_ids = scene.clip_ids.tolist()
    manifest = {"schema_version": SCHEMA_VERSION, "clip_count": len(clip_ids), "clip_ids": clip_ids}
    if scenario is not None:
        manifest.update(seed=scenario.seed, config_hash=hashlib.sha256(scenario_to_json(scenario).encode()).hexdigest())
    for i, clip_id in enumerate(clip_ids):
        with open(os.path.join(directory, f"clip_{clip_id:05d}.json"), "w", encoding="utf-8") as fh:
            # json.dumps takes the C encoder, json.dump the pure-Python one
            fh.write(json.dumps(clip_to_obj(scene, i)))
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _manifest_clip_ids(manifest):
    _schema_version(_object(manifest, "a scene manifest"), SCHEMA_VERSION)
    clip_ids = _list(_required(manifest, "clip_ids", "a scene manifest"), "clip_ids")
    if not clip_ids:
        raise ValueError("clip_ids must list at least one clip")
    clip_count = _number(manifest.get("clip_count", len(clip_ids)), "clip_count", integer=True)
    if clip_count != len(clip_ids):
        raise ValueError(f"clip_count is {clip_count}, but clip_ids lists {len(clip_ids)} clips")
    return [_number(clip_id, "clip_ids", integer=True) for clip_id in clip_ids]


def load_scene(directory) -> Scene:
    """The Scene of a save_scene directory, filled clip file by clip file. A manifest whose schema_version is
    not 1 or whose clip_count is not the number of its clip_ids raises a ValueError naming the file and the
    field. A clip file must hold the clip id the manifest lists for it and the first clip's person ids and
    wearer, or a ValueError names both files."""
    clip_ids = read_json(os.path.join(directory, "manifest.json"), "scene manifest", _manifest_clip_ids)
    first = []  # the first clip file's path and (person ids, wearer)

    def clips():
        for clip_id in clip_ids:
            path = os.path.join(directory, f"clip_{clip_id:05d}.json")
            clip = read_json(path, "clip file", clip_from_obj)
            ids = (clip.person_ids.tolist(), clip.wearer)
            first[:] = first or [path, ids]
            if (clip.clip_ids[0], ids) != (clip_id, first[1]):
                raise ValueError(
                    f"clip file {path} holds clip_id {clip.clip_ids[0]} and (person ids, wearer) {ids}, but the "
                    f"manifest lists clip_id {clip_id} and clip file {first[0]} holds {first[1]}"
                )
            yield clip.poses, clip.corners, clip.valid, clip.pose_deltas, clip.motion_deltas

    arrays = _filled(len(clip_ids), clips())
    ids, wearer = first[1]
    return Scene(*arrays, ids, clip_ids, wearer)


# ---------------------------------------------------------------------------
# scenario presets mirroring the usual test taxonomy


def _gait_for(index, same_gait=False):
    if same_gait:
        index = 0
    return GaitParams(
        arm_amplitude=0.20 + 0.02 * index,
        leg_amplitude=0.24 + 0.02 * index,
        stride_length=0.60 + 0.07 * index,
        phase=0.7 * index,
    )


def _clip_crossings(crossings, duration):
    kept = []
    for c in crossings:
        end = min(c.end, duration)
        if c.start < end:
            kept.append(Crossing(c.person_a, c.person_b, c.start, end))
    return tuple(kept)


def two_person_scenario(*, crossing=False, same_gait=False, duration=88, seed=0, noise=None, time_offset=0):
    """Wearer walks +x; the other person walks back toward them, faster.

    Distinct speeds keep the motion channel informative; a straight walker's
    heading is invisible to it (each candidate is integrated in its own body
    frame), so only the speed profile and the action channel can separate
    people on straight paths.
    """
    noise = noise or NoiseParams()
    if crossing:
        # same speed as the wearer, head-on: the confusable condition
        other = PersonSpec(1, ((12.0, 0.5), (-0.6, -0.5)), 0.08, _gait_for(1, same_gait))
        crossings = _clip_crossings([Crossing(0, 1, 73, 78)], duration)  # paths meet near t=75
    else:
        # speed gap of 0.08 units/frame keeps the motion margin above the
        # worst-case codebook boundary penalty of 2 log 2
        other = PersonSpec(1, ((16.0, 1.6), (-0.6, 1.6)), 0.16, _gait_for(1, same_gait))
        crossings = ()
    persons = (
        PersonSpec(0, ((0.0, 0.0), (16.6, 0.0)), 0.08, _gait_for(0), is_wearer=True),
        other,
    )
    return Scenario(seed, duration, persons, noise, crossings, time_offset)


def three_person_scenario(*, crossing=False, same_gait=False, duration=88, seed=0, noise=None, time_offset=0):
    noise = noise or NoiseParams()
    if crossing:
        paths = (((16.0, 0.4), (-0.6, -0.4)), ((4.0, -2.0), (4.0, 3.0)))
        # wearer meets person 1 near t=80 and walks through person 2's lane near t=50
        crossings = _clip_crossings([Crossing(0, 1, 78, 83), Crossing(0, 2, 48, 52)], duration)
    else:
        paths = (((16.0, 1.5), (-0.6, 1.5)), ((0.0, 3.0), (8.3, 3.0)))
        crossings = ()
    speeds = (0.12, 0.04) if crossing else (0.16, 0.02)
    persons = (
        PersonSpec(0, ((0.0, 0.0), (16.6, 0.0)), 0.08, _gait_for(0), is_wearer=True),
        PersonSpec(1, paths[0], speeds[0], _gait_for(1, same_gait)),
        PersonSpec(2, paths[1], speeds[1], _gait_for(2, same_gait)),
    )
    return Scenario(seed, duration, persons, noise, crossings, time_offset)


def group_scenario(n_persons=6, *, duration=96, seed=0, noise=None, same_gait=False):
    """Dense crossing traffic around the wearer: the documented failure regime.

    Lanes sit 0.2 apart (inside the filter's default position-gate scale),
    everyone walks at the wearer's speed, and the wearer is occluded in
    5-frame bursts every 9 frames against a rotating partner, so almost every
    clip is corrupted. With 8 people, 400 frames, the benchmark noise and
    k=400, seeds 7 and 19 give raw accuracy 0.010 and 0.015 (chance 0.125)
    and filtered 0.997, which comes from the occlusion schedule (0.008 with
    the occlusion mask all False; see README); seeds 0-3 give raw 0.260,
    0.654, 0.013 and 0.005, filtered 1.0, 0.997, 0.997 and 0.997. Nobody is
    occluded for 8 consecutive frames (a fully occluded clip is unscorable).
    """
    n_persons = _number(n_persons, "n_persons", integer=True, low=2)
    noise = noise or NoiseParams()
    persons = [PersonSpec(0, ((0.0, 0.0), (10.0, 0.0)), 0.08, _gait_for(0), is_wearer=True)]
    for i in range(1, n_persons):
        lane = 0.2 * ((i + 1) // 2) * (1 if i % 2 else -1)
        if i % 2 == 1:
            path = ((10.0, lane), (0.0, lane))
        else:
            path = ((0.0, lane), (10.0, lane))
        persons.append(PersonSpec(i, path, 0.08, _gait_for(0 if same_gait else i)))
    crossings = []
    start, partner = 8, 1
    while start + 5 <= duration:
        crossings.append(Crossing(0, partner, start, start + 5))
        partner = 1 + (partner % (n_persons - 1))
        start += 9
    return Scenario(seed, duration, tuple(persons), noise, _clip_crossings(crossings, duration), 0)
