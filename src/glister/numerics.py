"""Deterministic dense linear algebra helpers and seeded randomness.

Everything here is 64-bit float / 64-bit unsigned integer.  The random
generator is a fixed splitmix64 stream (counter-based), never the platform
default, so traces reproduce bit-for-bit across machines and Python versions.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "SeededRng",
    "log_sum_exp",
    "row_max",
    "row_sum",
    "pairwise_sq_dists",
    "finite_diff_grad",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of splitmix64
_NORMAL_BLOCK = 1 << 15  # values per block of `SeededRng.normals`
# `row_max` and `row_sum` go column by column on a last axis this short ...
_COLUMNS_MAX_WIDTH = 12
# ... with at least this many rows per entry
_COLUMNS_MIN_ROWS = 40


def _mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


class SeededRng:
    """Counter-based splitmix64 generator.

    The i-th raw draw is ``mix64(seed + (i+1) * GAMMA)``, so bulk and scalar
    generation produce identical streams.  Identical seeds give byte-identical
    sequences on every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            states = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
        return _mix64_array(states)

    def next_u64(self) -> int:
        return int(self._raw(1)[0])

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller; two uniforms consumed per value.
        Drawn in blocks of `_NORMAL_BLOCK` values into one output array: the
        stream is counter-based, so the values and the counter advance are
        those of one draw of 2n uniforms, without its n-sized temporaries."""
        out = np.empty(n)
        for start in range(0, n, _NORMAL_BLOCK):
            part = out[start:start + _NORMAL_BLOCK]
            u = self._raw(2 * len(part))
            # shift into (0, 1] so the log never sees zero
            u1 = ((u[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
            u2 = (u[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            np.multiply(np.sqrt(-2.0 * np.log(u1)), np.cos(2.0 * math.pi * u2), out=part)
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n).  Scaled-double construction (documented bias
        below 2^-40 for the sizes used here)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return min(int(self.random() * n), n - 1)

    def _randints(self, bounds: np.ndarray) -> list[int]:
        """One `randint(b)` per bound b, all from a single bulk draw: the same
        values and the same counter advance as calling `randint` in turn."""
        u = self.uniforms(len(bounds))
        return np.minimum((u * bounds).astype(np.int64), bounds - 1).tolist()

    def shuffle(self, items: Sequence | np.ndarray) -> np.ndarray:
        """Fisher-Yates shuffle along the first axis; returns a new array,
        input untouched."""
        out = np.asarray(items)
        n = len(out)
        perm = list(range(n))
        swaps = self._randints(np.arange(n, 1, -1))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            perm[i], perm[j] = perm[j], perm[i]
        return out[np.asarray(perm, dtype=np.intp)]

    def choice_no_replace(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} of {n}")
        pool = list(range(n))
        for i, r in enumerate(self._randints(np.arange(n, n - k, -1))):
            j = i + r
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:k], dtype=np.int_)

    def sample(self, pool: np.ndarray, k: int) -> np.ndarray:
        """k entries of the sorted array `pool` at `choice_no_replace` positions, sorted."""
        return pool[np.sort(self.choice_no_replace(len(pool), k))]

    def split(self, index: int) -> "SeededRng":
        """Child generator for stream `index`; never shares this stream."""
        return SeededRng(_mix64(self.seed ^ _mix64(((index + 1) * _GAMMA) & _MASK)))


def log_sum_exp(v: np.ndarray) -> float:
    """log(sum(exp(v))) over every entry: the vector case of
    `log_sum_exp_rows`; raises on empty input."""
    v = np.ravel(np.asarray(v, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empty vector")
    return float(log_sum_exp_rows(v))


def log_sum_exp_rows(m: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp over the last axis (the rows of a 2-D array),
    reduced by `row_max` and `row_sum`."""
    m = np.asarray(m, dtype=np.float64)
    shift = row_max(m)
    e = m - shift[..., None]
    np.exp(e, out=e)
    return shift + np.log(row_sum(e))


def _by_columns(m: np.ndarray) -> bool:
    """Whether `row_max` and `row_sum` reduce m one column at a time: a last
    axis of 1 to `_COLUMNS_MAX_WIDTH` entries and at least
    `_COLUMNS_MIN_ROWS` rows per entry.  numpy reduces a short last axis
    one row at a time, about 40 ns a row, so a call per column wins on many
    rows; on few rows (a vector, a mini-batch), or on a wider axis, whose
    columns lie far apart in memory, numpy's one call wins."""
    width = m.shape[-1]
    return 0 < width <= _COLUMNS_MAX_WIDTH and m.size >= _COLUMNS_MIN_ROWS * width * width


def row_max(m: np.ndarray) -> np.ndarray:
    """``m.max(axis=-1)``, one column at a time where `_by_columns` says
    that is faster.  Max is exact in any order, so every value is numpy's;
    only the sign of a zero maximum may differ, as numpy's own sign follows
    the lane order of its SIMD path.  numpy raises on an empty last axis."""
    m = np.asarray(m, dtype=np.float64)
    if not _by_columns(m):
        return m.max(axis=-1)
    out = m[..., 0].copy()
    for j in range(1, m.shape[-1]):
        np.maximum(out, m[..., j], out=out)
    return out


def row_sum(m: np.ndarray) -> np.ndarray:
    """``m.sum(axis=-1)`` bit for bit (NaN payloads aside), one column at a
    time where `_by_columns` says that is faster, in numpy's pairwise order
    for a contiguous last axis of at most 12 entries: below 8 they are
    added in turn to 0.0; otherwise the first 8 are joined as
    ``((m0+m1)+(m2+m3))+((m4+m5)+(m6+m7))``, the rest added in turn, and
    then ``+ 0.0``, numpy's initial value, so signed zeros match too.  A
    numpy that changes that order fails `tests/test_numerics.py`."""
    m = np.asarray(m, dtype=np.float64)
    if not _by_columns(m):
        return m.sum(axis=-1)
    width = m.shape[-1]
    if width < 8:
        out = m[..., 0] + 0.0
        for j in range(1, width):
            out += m[..., j]
        return out
    out = m[..., 0] + m[..., 1]  # three arrays in all: a new array per sum costs more
    part = m[..., 2] + m[..., 3]
    out += part
    np.add(m[..., 4], m[..., 5], out=part)
    right = m[..., 6] + m[..., 7]
    part += right
    out += part
    for j in range(8, width):
        out += m[..., j]
    out += 0.0
    return out


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances from the rows of `a` to those of `b`
    (default `a` itself), by the steps of
    ``sq_a[:, None] + sq_b[None, :] - 2 a b^T`` clipped at zero, run in order
    and in place, from two n x m arrays, not three or more.  Without `b` the
    diagonal is set to exactly zero, and the matrix is exactly symmetric:
    `a` is taken C-contiguous, numpy computes ``a @ a.T`` of such an array
    as an exactly symmetric product, and IEEE addition commutes.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    c = a if b is None else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or c.ndim != 2 or a.shape[0] < 1 or c.shape[0] < 1:
        raise ValueError("need 2-D arrays with at least one row")
    sq = np.einsum("ij,ij->i", a, a)
    g = a @ c.T
    g *= 2.0
    d = np.add.outer(sq, sq if b is None else np.einsum("ij,ij->i", c, c))
    d -= g
    np.clip(d, 0.0, None, out=d)
    if b is None:
        np.fill_diagonal(d, 0.0)
    return d


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient (f(x+h e_i) - f(x-h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError("non-finite function value in finite differences")
        g.flat[i] = (fp - fm) / (2.0 * h)
    return g
