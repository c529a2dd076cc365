"""K-means action codebook over flattened 8-pose clips.

A clip's discrete action label is the index of its nearest centroid. Soft
label scores are softmax(-distance / tau) over the centroids, a geometric
stand-in for a classifier's softmax output. Two score vectors are compared by
the cross-entropy of each against the other's argmax as a one-hot indicator.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re

import numpy as np

from ._files import _number, _required, _schema_version, frozen_array, read_json
from .skeleton import CLIP_LEN, N_JOINTS, pose_clip_vector

__all__ = [
    "CLIP_DIM",
    "DEFAULT_K",
    "ActionCodebook",
    "fit_codebook",
    "label_scores",
    "action_agreement",
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

# The first "centroids" key given an array, after "{", "," or a space; a byte of each string, object, true, false, null
_ROWS = re.compile(rb'"centroids"(?<=[{, \t\n\r]"centroids")[ \t\n\r]*:[ \t\n\r]*\[')
_NOT_NUMBERS = b'"{tfn'

_EPS = np.finfo(float).eps

# The most elements of a leaf of the SSE's summation tree (_tree_sum), and the rows of the fit's block scratch,
# which holds any leaf's rows: a leaf starting anywhere in a row spans at most _LEAF // CLIP_DIM + 2 rows
_LEAF = 1 << 15
_BLOCK_ROWS = _LEAF // CLIP_DIM + 2

# Two evaluations of |a|^2 + |b|^2 - 2 a.b for rows of norms r and s, in
# products of any shape, summation order or thread count, differ by at most
# _ROUNDING * (r + s)**2, and so does either one from the real value: a
# d-term dot product is within about d/2 units in the last place of r * s,
# the squared norms within that of r**2 and s**2, and the sums, the
# difference and the clip at 0 add a few more. This is twice that.
_ROUNDING = 2.0 * (CLIP_DIM + 8) * _EPS

# The relative widening of each bound built from _ROUNDING that covers the
# rounding of the bound's own arithmetic.
_SLACK = 1e-9


class ActionCodebook:
    """Immutable set of K centroids in clip-vector space."""

    __slots__ = ("_centroids", "_centroid_sq", "seed", "sse_history")

    def __init__(self, centroids, seed=None, sse_history=()):
        self._centroids = frozen_array(centroids, "centroids", ("k", CLIP_DIM))
        if _distinct_count(self._centroids) != self.k:
            raise ValueError("centroids must be pairwise distinct")
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

    def _sq_distances(self, vectors):
        return _pairwise_sq_distances(vectors, _sq_norms(vectors), self._centroids, self._centroid_sq)


def _distinct_count(x, stop=None):
    # the number of distinct rows of a finite (m, d) array, by an exact
    # bytes-set count, or stop once stop of them are seen; adding 0.0 turns
    # -0.0 into 0.0, so rows equal as numbers have equal bytes. Row by row,
    # so the corpus is not copied.
    seen = set()
    for row in x:
        seen.add((row + 0.0).tobytes())
        if len(seen) == stop:
            break
    return len(seen)


def _sq_norms(x):
    return np.add.reduce(x * x, axis=-1)


def _pairwise_sq_distances(a, a_sq, b, b_sq, out=None, sums=None):
    # |a|^2 + |b|^2 - 2 a.b from the rows' squared norms a_sq = _sq_norms(a)
    # and b_sq = _sq_norms(b), which the caller computes once per array;
    # clipped against tiny negatives from cancellation. Fitted codebooks and
    # decisions depend on these bits: keep the expression, its operand order
    # and the a @ b.T product shape. a may be a stack of (m, d) arrays, each
    # multiplied on its own. The result is written to out, which must be
    # C-contiguous, so that the product is written in place with the bits of
    # a fresh one; both are allocated at the result's shape when not given.
    # The norm sums go to sums: a sums with fewer rows than out is a scratch,
    # and the elementwise steps run over out in row blocks of its length.
    shape = a.shape[:-1] + b.shape[:1]
    out = np.empty(shape) if out is None else out
    sums = np.empty(shape) if sums is None else sums
    step = sums.shape[0]
    np.matmul(a, b.T, out=out)
    for start in range(0, shape[0], step):
        rows = out[start : start + step]
        block = sums[: rows.shape[0]]
        np.add(a_sq[start : start + step, ..., None], b_sq[None, :], out=block)
        rows *= 2.0
        np.subtract(block, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return out


def _scratch_rows(scratch, m):
    # the flat scratch as a C-contiguous (rows, m) array of as many rows as it holds
    return scratch[: scratch.size // m * m].reshape(-1, m)


def _tree_sum(leaf, size, start=0, most=_LEAF):
    # np.add.reduce over a contiguous float64 array of size elements from leaf(begin, end), the reduce of its
    # elements begin to end, for ranges of at most most >= 128 elements. numpy sums such an array as a pairwise
    # tree: a range of more than 128 elements is split at the largest multiple of 8 up to its half and its two
    # sums added, so adding the leaves' sums in the tree's order gives the same bits.
    if size <= most:
        return leaf(start, start + size)
    half = size // 2 - size // 2 % 8
    return _tree_sum(leaf, half, start, most) + _tree_sum(leaf, size - half, start + half, most)


def _sse(vectors, centroids, labels, scratch):
    # float(np.add.reduce(diff)) of diff = (vectors - centroids[labels])**2 as one (n, CLIP_DIM) array, whose
    # differences are written only a leaf's rows at a time, into the scratch of min(n, _BLOCK_ROWS) rows or more
    def leaf(start, end):
        first, last = start // CLIP_DIM, -(-end // CLIP_DIM)
        rows = scratch[: (last - first) * CLIP_DIM].reshape(-1, CLIP_DIM)
        # take's default mode="raise" would buffer out; labels are in range, so "clip" gathers straight into rows
        np.take(centroids, labels[first:last], axis=0, mode="clip", out=rows)
        np.subtract(vectors[first:last], rows, out=rows)
        np.square(rows, out=rows)
        return np.add.reduce(scratch[start - first * CLIP_DIM : end - first * CLIP_DIM])

    return float(_tree_sum(leaf, vectors.size))


def _seed_centroids(vectors, sq, k, seed, bound, gather):
    # Distance-weighted seeding: each new seed is drawn with probability
    # proportional to squared distance from the already chosen set, as
    # rng.choice(n, p=d2 / total) with rng = np.random.default_rng(seed)
    # draws it from d2, the running minimum of one full (n, 1) product per
    # seed; returns the (k, CLIP_DIM) seeds. A product over some rows does
    # not keep the full one's bits, so each row's d2 is kept within err of
    # the full products' minimum, and a draw is accepted only when values
    # within err cannot give another index (_draw). A row whose minimum
    # provably cannot fall is skipped: reach is its distance widened by the
    # bounds and by the norms' rounding. Its distance to the new seed is at
    # least the gap between their norms, so the row is skipped once that gap
    # reaches reach. Where that leaves more than half as many rows as there
    # are seeds, one (j, 1) product over the seeds also skips each row left
    # once the new seed's distance to the seed that set the row's d2 (owner)
    # reaches twice reach, as the row itself lies within reach of its owner.
    # The other rows are gathered into gather, an (n // 2, CLIP_DIM) buffer,
    # and multiplied there, or all rows are when more than half are needed.
    # When a draw cannot be certified, the seeding restarts from the seed
    # with every row on the full product, which keeps err at 0: that is the
    # plain computation.
    # Also returns pass 1's labels, owner, when they are certified to be the
    # argmin of the full (n, k) product over the seeds, else None. reach
    # widens a row's value by three bounds, so a skipped seed lies, in any
    # product, more than bound farther from the row than its owner; second,
    # the lowest value a row got from any other seed, must lie above its d2
    # by more than twice the bound.
    n = vectors.shape[0]
    centroids = np.empty((k, CLIP_DIM))
    chosen = np.empty(k, dtype=np.intp)
    column, sums = np.empty((2, n, 1))
    # each computed norm lies within about sqrt(bound / 8) of the real one,
    # so a gap between two lies within margin of the real gap
    norms = np.sqrt(sq)
    margin = math.sqrt(bound)
    prune = True
    while True:
        rng = np.random.default_rng(seed)
        chosen[0] = rng.integers(n)
        centroids[0] = vectors[chosen[0]]
        d2 = _pairwise_sq_distances(vectors, sq, centroids[:1], sq[chosen[:1]], column, sums)[:, 0].copy()
        err = np.zeros(n)
        owner = np.zeros(n, dtype=np.intp)
        second = np.full(n, np.inf)
        reach = np.sqrt(d2 + 3.0 * bound) * (1.0 + 2.0 * _SLACK) + margin
        for j in range(1, k):
            idx = _draw(rng, d2, float(np.add.reduce(err)))
            if idx is None:
                break
            chosen[j] = idx
            centroids[j] = vectors[idx]
            row, row_sq = centroids[j : j + 1], sq[idx : idx + 1]
            rows = None
            if prune:
                apart = np.abs(norms - norms[idx])
                # not apart < reach: a NaN skips no row
                rows = (~(apart >= reach)).nonzero()[0]
                if 2 * rows.size > j:
                    # how far at least each row's owner lies from the new seed
                    gap = _pairwise_sq_distances(centroids[:j], sq[chosen[:j]], row, row_sq)[:, 0]
                    gap -= bound
                    np.maximum(gap, 0.0, out=gap)
                    apart = np.sqrt(gap, out=gap)[owner[rows]]
                    apart *= 0.5 - 0.5 * _SLACK
                    rows = rows[~(apart >= reach[rows])]
            if rows is None or 2 * rows.size > n:
                # the full product's values are d2's own, so err stays
                new = _pairwise_sq_distances(vectors, sq, row, row_sq, column, sums)[:, 0]
                np.minimum(second, np.maximum(new, d2), out=second)
                near = (new < d2).nonzero()[0]
                value = new[near]
                np.minimum(d2, new, out=d2)
            else:
                block = gather[: rows.size]
                vectors.take(rows, axis=0, out=block, mode="clip")
                new = _pairwise_sq_distances(block, sq[rows], row, row_sq, column[: rows.size], sums[: rows.size])[:, 0]
                old = d2[rows]
                second[rows] = np.minimum(second[rows], np.maximum(new, old))
                closer = new < old
                near, value = rows[closer], new[closer]
                d2[near] = value
                err[rows] = bound
            owner[near] = j
            reach[near] = np.sqrt(value + 3.0 * bound) * (1.0 + 2.0 * _SLACK) + margin
        else:
            certified = (second > (d2 + 2.0 * bound) * (1.0 + _SLACK)).all()
            return centroids, owner if certified else None
        prune = False


def _draw(rng, d2, slack):
    # The index that rng.choice(n, p=d2 / total) draws, with total =
    # float(d2.sum()), or rng.integers(n) when total is not positive, for
    # every weight vector whose absolute differences from d2 sum to at most
    # slack; None when two such vectors could draw different indices. With
    # slack 0 the draw is choice's own. Otherwise it is replayed as the one
    # rng.random() u that choice searches in its cdf, p.cumsum() / cdf[-1],
    # and accepted when u lies farther from both ends of its interval than
    # the two cdfs can differ: 2 * slack / total from the weights, and at
    # most 3n units in the last place of rounding in each.
    n = d2.size
    if slack == 0.0:
        total = float(d2.sum())
        # every weight can still round to 0 on near-duplicate rows, though
        # fit_codebook has checked that k distinct rows exist
        return int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
    cdf = d2.cumsum()
    lowest = float(cdf[-1]) * (1.0 - _SLACK) - slack * (1.0 + _SLACK)
    if not lowest > 0.0:
        return None
    cdf /= cdf[-1]
    u = rng.random()
    idx = int(cdf.searchsorted(u, side="right"))
    margin = 2.0 * slack * (1.0 + _SLACK) / lowest + 8.0 * (n + 2) * _EPS
    if u + margin < cdf[idx] and (idx == 0 or cdf[idx - 1] + margin < u):
        return idx
    return None


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
    k, max_iters = _number(k, "k", integer=True, low=1), _number(max_iters, "max_iters", integer=True, low=1)
    clips = frozen_array(clips, "clips", ("M", CLIP_LEN, N_JOINTS, 3), copy=False)
    if len(clips) < k:
        raise ValueError(f"need at least {k} clips to fit {k} clusters, got {len(clips)}")
    vectors = clips.reshape(len(clips), CLIP_DIM)
    # an exact count: the seeding weights of repeated rows come out of the
    # norm expansion as rounding residue, not as 0. Every row is counted only
    # for the error.
    if _distinct_count(vectors, stop=k) < k:
        raise ValueError(f"need at least {k} distinct clips to fit {k} clusters, got {_distinct_count(vectors)}")
    sq = _sq_norms(vectors)
    # every seed and centroid is a row or a mean of rows, so no longer than
    # the longest row: any product's distance lies within bound of the full
    # product's and of the real one
    bound = _ROUNDING * 4.0 * float(sq.max())
    # the fit's buffers, each allocated once: the seeding's gathered rows,
    # freed before d2 holds the Lloyd passes' (n, k) distances, and a block
    # scratch of _BLOCK_ROWS rows of max(k, CLIP_DIM) floats for their norm
    # sums and SSE differences
    n = len(vectors)
    gather = np.empty((n // 2, CLIP_DIM))
    centroids, labels = _seed_centroids(vectors, sq, k, seed, bound, gather)
    del gather
    d2 = np.empty((n, k))
    scratch = np.empty(min(n, _BLOCK_ROWS) * max(k, CLIP_DIM))
    history = _lloyd(vectors, sq, centroids, labels, max_iters, bound, d2, scratch)
    # freed before the codebook copies the centroids
    del d2, scratch
    return ActionCodebook(centroids, seed=seed, sse_history=history)


def _lloyd(vectors, sq, centroids, labels, max_iters, bound, d2, scratch):
    # Lloyd passes from the seeded centroids, which are updated in place;
    # returns the SSE history. Pass 1 takes the labels the seeding certified,
    # if any, when they leave no cluster empty, and runs no product: pass 2
    # recomputes every centroid, so it reads no column of d2 from pass 1.
    # The flat scratch holds a row block of the norm sums of the full
    # expansion, and then a leaf's rows of the SSE differences (_sse), whose
    # sum keeps the bits of one over a fresh (n, CLIP_DIM) array. After the
    # first pass, a pass that moved at most half of the centroids recomputes
    # only their columns of d2 (_certified_labels); more would cost about the
    # full product. A pass whose labels cannot be certified, or that empties
    # a cluster, whose reseed reads d2, runs the full expansion.
    n, k = d2.shape
    sums = _scratch_rows(scratch, k)
    history = []
    previous = stale = None
    reseeded = False
    for _ in range(max_iters):
        if stale is not None:
            certify = 2 * stale.size <= k
            labels = _certified_labels(vectors, sq, centroids, stale, bound, d2, scratch) if certify else None
        if labels is not None and np.bincount(labels, minlength=k).min() == 0:
            labels = None
        if labels is None:
            # the corpus norms are fixed; only the centroids move between passes
            _pairwise_sq_distances(vectors, sq, centroids, _sq_norms(centroids), d2, sums)
            labels = np.argmin(d2, axis=1)
        # SSE from explicit differences; the norm-expansion shortcut used for
        # the argmin loses absolute accuracy through cancellation
        history.append(_sse(vectors, centroids, labels, scratch))
        if previous is not None and np.array_equal(labels, previous):
            break
        # a cluster that kept its members would get the same rows in the same
        # order, so the same bits: recompute only the means of clusters a row
        # left or joined, and every mean on the first pass and after a reseed
        if previous is None or reseeded:
            stale = np.arange(k)
        else:
            # a mask, not np.union1d: np.unique imports numpy.ma, about
            # 15 ms, on its first call in a process
            moved = labels != previous
            touched = np.zeros(k, dtype=bool)
            touched[labels[moved]] = True
            touched[previous[moved]] = True
            stale = np.flatnonzero(touched)
        previous = labels

        # the new means and reseeds read only the rows and d2, not the
        # centroids, so they are written over them; a stable sort lists each
        # cluster's rows in the order of vectors[labels == j], so each mean
        # keeps the bits of one over that mask
        counts = np.bincount(labels, minlength=k)
        members = np.argsort(labels, kind="stable")
        ends = np.cumsum(counts)
        # np.mean sums from +0.0, so the mean of one row is that row plus
        # 0.0: -0.0 becomes 0.0 and every other value is kept
        single = stale[counts[stale] == 1]
        centroids[single] = vectors[members[ends[single] - 1]] + 0.0
        for j in stale[counts[stale] > 1]:
            centroids[j] = vectors[members[ends[j] - counts[j] : ends[j]]].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        reseeded = empty.size > 0
        if reseeded:
            # farthest points first, each used at most once
            order = np.argsort(-d2[np.arange(n), labels], kind="stable")
            for j, idx in zip(empty, order):
                centroids[j] = vectors[idx]
    return history


def _certified_labels(vectors, sq, centroids, stale, bound, d2, scratch):
    # Writes the columns of d2 of the centroids in stale, from one product
    # over those centroids into a C-contiguous (n, stale.size) block, and
    # returns argmin(d2, axis=1) when it is certified to be the full
    # product's argmin, else None. The norm sums take the flat scratch in row
    # blocks. Every value in d2, from this product or from an earlier one of
    # a centroid that has kept its bits, lies within bound of the full
    # product's, whatever the bits of either: a row's label is certified when
    # its lowest value is lower than every other by more than twice the bound.
    n, k = d2.shape
    moved = centroids[stale]
    block = np.empty((n, stale.size))
    _pairwise_sq_distances(vectors, sq, moved, _sq_norms(moved), block, _scratch_rows(scratch, stale.size))
    d2[:, stale] = block
    labels = np.argmin(d2, axis=1)
    rows = np.arange(n)
    best = d2[rows, labels]
    d2[rows, labels] = np.inf
    second = d2.min(axis=1)
    d2[rows, labels] = best
    return labels if (second > best + 2.0 * bound).all() else None


def label_scores(codebook: ActionCodebook, clip, tau=DEFAULT_TAU) -> np.ndarray:
    """softmax(-distance / tau) over the centroids; sums to 1."""
    _number(tau, "tau", positive=True)
    return _row_scores(codebook, pose_clip_vector(clip)[None, :], tau)[0]


def _row_scores(codebook, vectors, tau):
    # label scores of every row of an (..., m, CLIP_DIM) array, one distance
    # product per (m, CLIP_DIM) array. A row's bits depend on the product's
    # shape: OpenBLAS 0.3.31 takes a small-matrix kernel up to m * k = 1200,
    # so at k=400 every 1-, 2- and 3-row block of 600 crossing3 rows differed
    # from the same rows in the full product and no 4- or 6-row block did; at
    # some k (300, 404, 500) larger products differ with m too.
    w = np.sqrt(codebook._sq_distances(vectors))
    w -= np.minimum.reduce(w, axis=-1, keepdims=True)
    w /= -tau  # the bits of -(d - d_min) / tau: IEEE rounding is symmetric in sign
    # exp is +0.0 below _EXP_CUT, where numpy's SIMD exp takes a slow path:
    # those entries get exp(0.0) and are then set to +0.0, so that exp runs
    # over the whole array at once (exp with where= runs on the short gaps)
    below = w < _EXP_CUT
    np.putmask(w, below, 0.0)
    np.exp(w, out=w)
    np.putmask(w, below, 0.0)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


def _check_scores(scores, k, name):
    s = frozen_array(scores, name, (k,), copy=False)
    if (s < 0.0).any():
        raise ValueError(f"{name} must be non-negative")
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


def _cross_entropies(codebook, rows, tau):
    # The two cross-entropies of action_agreement for each row pair of a checked (..., 2n, CLIP_DIM) stack,
    # the n ego rows first, row i paired with row n + i. Each (2n, CLIP_DIM) array gets one distance product,
    # so a stack of them gets the bits each gets alone. Returns (ego_ce, third_ce), two (..., n) arrays.
    scores = _row_scores(codebook, rows, tau)
    labels = scores.argmax(axis=-1)
    n = labels.shape[-1] // 2
    # each row's score at the label of its partner row in the other half
    partner = labels.reshape(-1, 2, n)[:, ::-1].reshape(-1)
    picked = scores.reshape(-1)[np.arange(0, scores.size, codebook.k) + partner]
    ce = -np.log(np.maximum(picked, _EPS_LOG)).reshape(labels.shape)
    return ce[..., :n], ce[..., n:]


def save_codebook(codebook: ActionCodebook, path) -> None:
    """Write the codebook as JSON; floats round-trip bit-exactly."""
    head = json.dumps(
        {
            "schema_version": _SCHEMA_VERSION,
            "kind": "action_codebook",
            "k": codebook.k,
            "dim": CLIP_DIM,
            "seed": codebook.seed,
            "centroids": [],
        }
    )
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            # the bytes of json.dumps of the whole payload, written one
            # centroid row at a time: the head up to the centroids' "[", the
            # rows joined by ", ", then "]}". json.dumps without indent uses
            # the C encoder; json.dump always takes the pure-Python path, for
            # the same bytes
            fh.write(head[:-2])
            for i, row in enumerate(codebook.centroids):
                fh.write((", " if i else "") + json.dumps(row.tolist()))
            fh.write(head[-2:])
        os.replace(tmp, path)
    except BaseException:
        # a failed write leaves path as it was and no temporary file behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_codebook(path) -> ActionCodebook:
    """The codebook save_codebook wrote; a malformed file raises a ValueError naming the file and the field."""
    return read_json(path, "codebook file", _codebook_from_bytes, raw=True)


def _codebook_from_bytes(data) -> ActionCodebook:
    # What json.load reads, with no tree of Python floats. From the first "centroids" array on, each "[" before the
    # next "]" opens a row up to it, which nests no list: with no string, object, true, false or null (no byte of
    # _NOT_NUMBERS) it holds numbers only, parsed alone into one array. The envelope, the file with each row emptied
    # to "[]", is parsed whole: its top-level "centroids" must be those "[]" and the file's one "centroids" key
    # (_loads). Another file is parsed whole, for its messages. The bytes go before the codebook copies the array.
    at, cuts = next((found.end() for found in _ROWS.finditer(data)), len(data)), [0]  # no match holds data on
    while 0 <= (start := data.find(b"[", at)) < (at := data.find(b"]", at) + 1):
        cuts += start, at  # a row's first byte and the one after its last
    try:
        centroids = np.empty((len(cuts) // 2, CLIP_DIM))
        for i, (start, end) in enumerate(zip(cuts[1::2], cuts[2::2])):
            row = data[start:end]
            if any(byte in row for byte in _NOT_NUMBERS) or len(values := json.loads(row.decode("utf-8"))) != CLIP_DIM:
                raise ValueError("not a row of numbers")
            centroids[i] = values
        envelope = b"[]".join(data[a:b] for a, b in zip(cuts[::2], cuts[1::2] + [None])) if len(centroids) else b""
        payload = _loads(envelope.decode("utf-8"))
        if not (isinstance(payload, dict) and payload.get("centroids") == [[]] * len(centroids)):
            raise ValueError("not the rows of the top-level 'centroids'")
        payload["centroids"] = centroids
    except (ValueError, OverflowError):  # another layout, or a fault that the whole file's parse names
        payload = _loads(data.decode("utf-8"))
    del data
    if not isinstance(payload, dict) or payload.get("kind") != "action_codebook":
        raise ValueError("it is not an action codebook file: a JSON object with 'kind', 'dim' and 'centroids'")
    _schema_version(payload, _SCHEMA_VERSION)
    if _number(_required(payload, "dim", "a codebook"), "dim", integer=True) != CLIP_DIM:
        raise ValueError(f"codebook dimension {payload['dim']} does not match {CLIP_DIM}")
    centroids, seed = _required(payload, "centroids", "a codebook"), payload.get("seed")
    codebook = ActionCodebook(centroids, seed=None if seed is None else _number(seed, "seed", integer=True))
    if _number(_required(payload, "k", "a codebook"), "k", integer=True) != codebook.k:
        raise ValueError(f"k is {payload['k']}, but the file holds {codebook.k} centroids")
    return codebook


def _loads(text):
    pairs = []
    payload = json.loads(text, object_pairs_hook=lambda p: pairs.extend(p) or dict(p))
    if [key for key, _ in pairs].count("centroids") > 1:
        raise ValueError("the key 'centroids' is given more than once")
    return payload
