"""K-means action codebook over flattened 8-pose clips.

A clip's discrete action label is the index of its nearest centroid. Soft
label scores are softmax(-distance / tau) over the centroids, a geometric
stand-in for a classifier's softmax output. Two score vectors are compared by
the cross-entropy of each against the other's argmax as a one-hot indicator.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ._files import _number, _required, read_json
from .skeleton import CLIP_LEN, N_JOINTS, pose_clip_vector

__all__ = [
    "CLIP_DIM",
    "DEFAULT_K",
    "ActionCodebook",
    "fit_codebook",
    "assign_label",
    "label_scores",
    "action_agreement",
    "cross_entropies",
    "save_codebook",
    "load_codebook",
]

CLIP_DIM = CLIP_LEN * N_JOINTS * 3  # 456
DEFAULT_K = 400
DEFAULT_TAU = 0.1

# Log arguments are clamped here so cross-entropies stay finite.
_EPS_LOG = 1e-12

# Below about -745.13, the log of half the smallest subnormal, exp rounds to
# +0.0; this cut leaves a margin under it.
_EXP_CUT = -746.0

_SCHEMA_VERSION = 1


class ActionCodebook:
    """Immutable set of K centroids in clip-vector space."""

    __slots__ = ("_centroids", "_centroid_sq", "seed", "sse_history")

    def __init__(self, centroids, seed=None, sse_history=()):
        c = np.asarray(centroids, dtype=float)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] != CLIP_DIM:
            raise ValueError(f"centroids must be (k, {CLIP_DIM}) with k >= 1, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroids must be finite")
        if _distinct_count(c) != c.shape[0]:
            raise ValueError("centroids must be pairwise distinct")
        self._centroids = c.copy()
        self._centroids.setflags(write=False)
        # the centroids are read-only, so their norms are computed once
        self._centroid_sq = _sq_norms(self._centroids)
        self.seed = seed
        self.sse_history = tuple(sse_history)

    @property
    def centroids(self):
        return self._centroids

    @property
    def k(self):
        return self._centroids.shape[0]

    def distances(self, vector):
        """Euclidean distance from a clip vector to every centroid."""
        v = np.asarray(vector, dtype=float)
        if v.shape != (CLIP_DIM,):
            raise ValueError(f"clip vector must have {CLIP_DIM} components, got shape {v.shape}")
        return np.sqrt(self._sq_distances(v[None, :])[0])

    def _sq_distances(self, vectors):
        return _pairwise_sq_distances(vectors, _sq_norms(vectors), self._centroids, self._centroid_sq)


def _distinct_count(x):
    # the number of distinct rows of a finite (m, d) array, by an exact
    # bytes-set count; adding 0.0 turns -0.0 into 0.0, so rows equal as
    # numbers have equal bytes
    return len({row.tobytes() for row in x + 0.0})


def _sq_norms(x):
    return (x * x).sum(axis=-1)


def _pairwise_sq_distances(a, a_sq, b, b_sq):
    # |a|^2 + |b|^2 - 2 a.b from the rows' squared norms a_sq = _sq_norms(a)
    # and b_sq = _sq_norms(b), which the caller computes once per array;
    # clipped against tiny negatives from cancellation. Fitted codebooks and
    # decisions depend on these bits: keep the expression, its operand order
    # and the a @ b.T product shape. a may be a stack of (m, d) arrays, each
    # multiplied on its own.
    return np.maximum(a_sq[..., None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0)


def _seed_centroids(vectors, sq, k, rng):
    # Distance-weighted seeding: each new seed is drawn with probability
    # proportional to squared distance from the already chosen set. Each draw
    # depends on the previous minimum, so the loop stays sequential; with the
    # rows' squared norms sq given, a step costs one product.
    n = vectors.shape[0]

    def distances_to(idx):
        return _pairwise_sq_distances(vectors, sq, vectors[idx][None, :], sq[idx : idx + 1])[:, 0]

    chosen = [int(rng.integers(n))]
    d2 = distances_to(chosen[-1])
    for _ in range(1, k):
        total = float(d2.sum())
        # every weight can still round to 0 on near-duplicate rows, though
        # fit_codebook has checked that k distinct rows exist
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, distances_to(idx))
    return vectors[chosen].copy()


def fit_codebook(clips, k, seed, max_iters=300) -> ActionCodebook:
    """Lloyd's algorithm on clip vectors, deterministic for a given seed.

    clips is an (M, 8, 19, 3) array, such as a Scene's poses reshaped, which
    is read in place, or a list of (8, 19, 3) clips. Stops when assignments
    stabilize or after max_iters. Empty clusters are re-seeded from the point
    currently farthest from its assigned centroid. The per-iteration sum of
    squared errors is recorded on the returned codebook and is
    non-increasing. Raises ValueError, naming the cause, for k < 1,
    max_iters < 1, clips of another shape, or fewer than k clips or distinct
    clips.
    """
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    clips = np.asarray(clips, dtype=float)
    if len(clips) < k:
        raise ValueError(f"need at least {k} clips to fit {k} clusters, got {len(clips)}")
    if clips.shape[1:] != (CLIP_LEN, N_JOINTS, 3):
        raise ValueError(f"clips must each have shape {(CLIP_LEN, N_JOINTS, 3)}, got {clips.shape[1:]}")
    vectors = clips.reshape(len(clips), CLIP_DIM)
    # an exact count: the seeding weights of repeated rows come out of the
    # norm expansion as rounding residue, not as 0
    distinct = _distinct_count(vectors)
    if distinct < k:
        raise ValueError(f"need at least {k} distinct clips to fit {k} clusters, got {distinct}")
    sq = _sq_norms(vectors)
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(vectors, sq, k, rng)

    n = vectors.shape[0]
    history = []
    previous = None
    reseeded = False
    for _ in range(max_iters):
        # the corpus norms are fixed; only the centroids move between passes
        d2 = _pairwise_sq_distances(vectors, sq, centroids, _sq_norms(centroids))
        labels = np.argmin(d2, axis=1)
        # SSE from explicit differences; the norm-expansion shortcut used for
        # the argmin loses absolute accuracy through cancellation
        history.append(float(((vectors - centroids[labels]) ** 2).sum()))
        if previous is not None and np.array_equal(labels, previous):
            break
        # a cluster that kept its members would get the same rows in the same
        # order, so the same bits: recompute only the means of clusters a row
        # left or joined, and every mean on the first pass and after a reseed
        if previous is None or reseeded:
            stale = np.arange(k)
        else:
            moved = labels != previous
            stale = np.union1d(labels[moved], previous[moved])
        previous = labels

        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for j in stale[counts[stale] > 0]:
            new_centroids[j] = vectors[labels == j].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        reseeded = empty.size > 0
        if reseeded:
            # farthest points first, each used at most once
            order = np.argsort(-d2[np.arange(n), labels], kind="stable")
            for j, idx in zip(empty, order):
                new_centroids[j] = vectors[idx]
        centroids = new_centroids

    return ActionCodebook(centroids, seed=seed, sse_history=history)


def assign_label(codebook: ActionCodebook, clip) -> int:
    """Nearest centroid index; ties go to the lowest index."""
    return int(np.argmin(codebook.distances(pose_clip_vector(clip))))


def label_scores(codebook: ActionCodebook, clip, tau=DEFAULT_TAU) -> np.ndarray:
    """softmax(-distance / tau) over the centroids; sums to 1."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return _row_scores(codebook, pose_clip_vector(clip)[None, :], tau)[0]


def _row_scores(codebook, vectors, tau):
    # label scores of every row of an (..., m, CLIP_DIM) array, one distance
    # product per (m, CLIP_DIM) array. A row's bits depend on the product's
    # shape: OpenBLAS 0.3.31 takes a small-matrix kernel up to m * k = 1200,
    # so at k=400 every 1-, 2- and 3-row block of 600 crossing3 rows differed
    # from the same rows in the full product and no 4- or 6-row block did; at
    # some k (300, 404, 500) larger products differ with m too.
    w = np.sqrt(codebook._sq_distances(vectors))
    w -= w.min(axis=-1, keepdims=True)
    w /= -tau  # the bits of -(d - d_min) / tau: IEEE rounding is symmetric in sign
    # exp is +0.0 below _EXP_CUT, where numpy's SIMD exp takes a slow path:
    # those entries get exp(0.0) and are then set to +0.0, so that exp runs
    # over the whole array at once (exp with where= runs on the short gaps)
    below = w < _EXP_CUT
    w[below] = 0.0
    np.exp(w, out=w)
    w[below] = 0.0
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _check_scores(scores, k, name):
    s = np.asarray(scores, dtype=float)
    if s.shape != (k,):
        raise ValueError(f"{name} must have {k} entries, got shape {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        raise ValueError(f"{name} must be finite and non-negative")
    if abs(float(s.sum()) - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1 within 1e-6, got {float(s.sum())}")
    return s


def action_agreement(ego_label_scores, third_label_scores, codebook: ActionCodebook):
    """Cross-entropies of two label distributions against each other's argmax.

    Returns (ego_ce, third_ce): the ego scores' cross-entropy against the
    third-view argmax as a one-hot indicator, and the reverse. Both are 0
    when the two distributions are the same one-hot.
    """
    ego = _check_scores(ego_label_scores, codebook.k, "ego_label_scores")
    third = _check_scores(third_label_scores, codebook.k, "third_label_scores")
    ego_ce = -math.log(max(float(ego[int(np.argmax(third))]), _EPS_LOG))
    third_ce = -math.log(max(float(third[int(np.argmax(ego))]), _EPS_LOG))
    return ego_ce, third_ce


def cross_entropies(codebook: ActionCodebook, ego_vectors, third_vectors, tau=DEFAULT_TAU):
    """The two cross-entropies of action_agreement for each row pair, batched.

    ego_vectors and third_vectors are (..., n, CLIP_DIM) clip vectors; row i
    of one is paired with row i of the other. The 2n rows of each (n,
    CLIP_DIM) pair of arrays are scored against the centroids with one
    distance product, the ego rows first, so a stack of them gets the bits
    each gets alone. Returns (ego_ce, third_ce), two (..., n) arrays.
    """
    n = ego_vectors.shape[-2]
    scores = _row_scores(codebook, np.concatenate([ego_vectors, third_vectors], axis=-2), tau)
    labels = scores.argmax(axis=-1)
    # each row's score at the label of its partner row in the other half
    partner = labels.reshape(-1, 2, n)[:, ::-1].reshape(-1)
    picked = scores.reshape(partner.size, -1)[np.arange(partner.size), partner]
    ce = -np.log(np.maximum(picked, _EPS_LOG)).reshape(labels.shape)
    return ce[..., :n], ce[..., n:]


def save_codebook(codebook: ActionCodebook, path) -> None:
    """Write the codebook as JSON; floats round-trip bit-exactly."""
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "kind": "action_codebook",
        "k": codebook.k,
        "dim": CLIP_DIM,
        "seed": codebook.seed,
        "centroids": codebook.centroids.tolist(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # json.dumps without indent uses the C encoder; json.dump always
        # takes the pure-Python path, for the same bytes
        fh.write(json.dumps(payload))
    os.replace(tmp, path)


def load_codebook(path) -> ActionCodebook:
    """The codebook save_codebook wrote; a malformed file raises a ValueError naming the file and the field."""
    return read_json(path, "codebook file", _codebook_from_obj)


def _codebook_from_obj(payload) -> ActionCodebook:
    if not isinstance(payload, dict) or payload.get("kind") != "action_codebook":
        raise ValueError("it is not an action codebook file: a JSON object with 'kind', 'dim' and 'centroids'")
    if _number(_required(payload, "dim", "a codebook"), "dim", integer=True) != CLIP_DIM:
        raise ValueError(f"codebook dimension {payload['dim']} does not match {CLIP_DIM}")
    centroids = _required(payload, "centroids", "a codebook")
    seed = None if payload.get("seed") is None else _number(payload["seed"], "seed", integer=True)
    try:
        codebook = ActionCodebook(np.array(centroids, dtype=float), seed=seed)
    except (TypeError, ValueError) as exc:  # ragged rows, non-numbers, or what ActionCodebook rejects
        raise ValueError(f"malformed 'centroids': {exc}") from exc
    if _number(_required(payload, "k", "a codebook"), "k", integer=True) != codebook.k:
        raise ValueError(f"k is {payload['k']}, but the file holds {codebook.k} centroids")
    return codebook
