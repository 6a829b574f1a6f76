"""Dataset ingestion, splitting, corruption injectors, and synthetic blobs.

Datasets are immutable after construction: arrays are copied in and marked
read-only, and every operation returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import SeededRng

__all__ = [
    "Dataset",
    "SplitSpec",
    "parse_libsvm",
    "serialize_libsvm",
    "split",
    "split_sizes",
    "inject_label_noise",
    "inject_class_imbalance",
    "gen_synthetic",
    "standardize",
    "discretize_features",
    "SYNTHETIC_KINDS",
]


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Dense features with integer class labels and per-row provenance flags.

    `noise_flipped[i]` records whether row i had its label flipped by the
    noise injector; `original_label[i]` is the pre-flip label (equal to
    `labels[i]` for clean rows).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    noise_flipped: np.ndarray = field(default=None)
    original_label: np.ndarray = field(default=None)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be 2-D")
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if self.num_classes < 1:
            raise ValueError("need at least one class")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        flips = self.noise_flipped
        orig = self.original_label
        if flips is None:
            flips = np.zeros(feats.shape[0], dtype=bool)
        if orig is None:
            orig = labels.copy()
        flips = np.asarray(flips, dtype=bool)
        orig = np.asarray(orig, dtype=np.int64)
        if flips.shape != (feats.shape[0],) or orig.shape != (feats.shape[0],):
            raise ValueError("flag arrays must have one entry per row")
        if np.any(~flips & (orig != labels)):
            raise ValueError("clean rows must keep original_label == labels")
        object.__setattr__(self, "features", _frozen(feats, np.float64))
        object.__setattr__(self, "labels", _frozen(labels, np.int64))
        object.__setattr__(self, "noise_flipped", _frozen(flips, bool))
        object.__setattr__(self, "original_label", _frozen(orig, np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """New Dataset holding the given rows (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx],
            self.labels[idx],
            self.num_classes,
            self.noise_flipped[idx],
            self.original_label[idx],
        )

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float
    seed: int

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise ValueError("each fraction must lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")


def parse_libsvm(text: str | bytes) -> Dataset:
    """Parse LIBSVM text: `<label> <idx>:<val> ...`, 1-based strictly
    increasing indices, `#` starts a comment, blank lines allowed.

    Raw labels are remapped to 0..C-1 by sorting the distinct values
    ascending; the feature dimension is the largest index seen.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    raw_labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
        pairs: list[tuple[int, float]] = []
        prev = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ValueError(f"line {lineno}: malformed feature token {tok!r}")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric token {tok!r}") from None
            if idx < 1:
                raise ValueError(f"line {lineno}: index {idx} not 1-based")
            if idx <= prev:
                raise ValueError(f"line {lineno}: index {idx} not strictly increasing")
            prev = idx
            pairs.append((idx, val))
        max_idx = max(max_idx, prev)
        raw_labels.append(label)
        rows.append(pairs)
    if not rows:
        raise ValueError("no samples found")
    distinct = sorted(set(raw_labels))
    remap = {v: i for i, v in enumerate(distinct)}
    features = np.zeros((len(rows), max_idx), dtype=np.float64)
    for r, pairs in enumerate(rows):
        for idx, val in pairs:
            features[r, idx - 1] = val
    labels = np.array([remap[v] for v in raw_labels], dtype=np.int64)
    return Dataset(features, labels, num_classes=len(distinct))


def serialize_libsvm(ds: Dataset) -> str:
    """Write every feature densely (indices 1..d) so parsing round-trips."""
    lines = []
    for i in range(ds.n):
        parts = [str(int(ds.labels[i]))]
        parts.extend(f"{j + 1}:{float(ds.features[i, j])!r}" for j in range(ds.d))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def split_sizes(m: int, spec: SplitSpec) -> tuple[int, int, int]:
    """The (train, val, test) sizes `split` gives a class of m rows: val and
    test floored, the rest to train."""
    n_val = int(math.floor(spec.val_frac * m))
    n_test = int(math.floor(spec.test_frac * m))
    return m - n_val - n_test, n_val, n_test


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified disjoint split; per class, val/test sizes are floored and
    the remainder goes to train.  Shuffling is driven by `spec.seed`."""
    rng = SeededRng(spec.seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    test_idx: list[int] = []
    for c in range(ds.num_classes):
        rows = np.flatnonzero(ds.labels == c)
        rows = rng.shuffle(rows)
        n_train, n_val, _ = split_sizes(len(rows), spec)
        train_idx.extend(rows[:n_train])
        val_idx.extend(rows[n_train:n_train + n_val])
        test_idx.extend(rows[n_train + n_val:])
    parts = (sorted(train_idx), sorted(val_idx), sorted(test_idx))
    if any(len(p) == 0 for p in parts):
        raise ValueError("split produced an empty part")
    return tuple(ds.take(p) for p in parts)


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip exactly round(rate * n) labels to a uniformly chosen different
    class (round half away from zero).  Flags record the flip."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    if ds.num_classes < 2:
        raise ValueError("need at least two classes to flip labels")
    count = int(math.floor(rate * ds.n + 0.5))  # rate * n >= 0
    rng = SeededRng(seed)
    chosen = rng.choice_no_replace(ds.n, count)
    # one randint(C - 1) per chosen row, in the order chosen
    offsets = 1 + np.array(rng._randints(np.full(count, ds.num_classes - 1)), dtype=np.int64)
    labels = ds.labels.copy()
    labels[chosen] = (labels[chosen] + offsets) % ds.num_classes
    flips = ds.noise_flipped.copy()
    orig = ds.original_label.copy()
    fresh = chosen[~flips[chosen]]  # a row flipped before keeps its first original
    orig[fresh] = ds.labels[fresh]
    flips[chosen] = True
    return Dataset(ds.features, labels, ds.num_classes, flips, orig)


def inject_class_imbalance(
    ds: Dataset, affected_class_frac: float, keep_frac: float, seed: int
) -> Dataset:
    """Drop rows from ceil(affected_class_frac * C) seed-chosen classes,
    keeping ceil(keep_frac * count) rows of each (per-class seeded choice).
    Rows of unaffected classes are untouched."""
    if not (0.0 < affected_class_frac < 1.0 and 0.0 < keep_frac < 1.0):
        raise ValueError("fractions must lie in (0, 1)")
    rng = SeededRng(seed)
    n_affected = int(math.ceil(affected_class_frac * ds.num_classes))
    affected = set(int(c) for c in rng.choice_no_replace(ds.num_classes, n_affected))
    keep_mask = np.ones(ds.n, dtype=bool)
    for c in sorted(affected):
        rows = np.flatnonzero(ds.labels == c)
        if len(rows) == 0:
            continue
        n_keep = int(math.ceil(keep_frac * len(rows)))
        if n_keep == 0:
            raise ValueError(f"class {c} emptied by imbalance injection")
        keep_mask[rows] = False
        keep_mask[rng.split(c).sample(rows, n_keep)] = True
    return ds.take(np.flatnonzero(keep_mask))


# Blob centers and spreads per synthetic kind (2-D isotropic Gaussians).
# The separable kinds use a tight spread so the classes genuinely do not
# overlap; the slack/overlapping kinds use unit spread on purpose.
_CENTERS = {
    "separable-2": ([(-2.0, 0.0), (2.0, 0.0)], 0.45),
    "separable-4": ([(-3.0, -3.0), (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0)], 0.45),
    "overlapping-4": ([(-1.2, -1.2), (-1.2, 1.2), (1.2, -1.2), (1.2, 1.2)], 1.0),
    "binary-slack": ([(-1.0, 0.0), (1.0, 0.0)], 1.0),
}
# Companion-validation kinds translate every blob center by this offset.
SHIFT_OFFSET = (1.0, 1.0)
_SHIFTED = {
    "shifted-validation-2": "separable-2",
    "shifted-validation-4": "overlapping-4",
}
SYNTHETIC_KINDS = tuple(_CENTERS) + tuple(_SHIFTED)


def _blobs(centers, sigma: float, n_per_class: int, rng: SeededRng) -> Dataset:
    feats = []
    labels = []
    for c, (cx, cy) in enumerate(centers):
        pts = rng.normals(2 * n_per_class).reshape(n_per_class, 2) * sigma
        pts[:, 0] += cx
        pts[:, 1] += cy
        feats.append(pts)
        labels.extend([c] * n_per_class)
    return Dataset(np.vstack(feats), np.array(labels), num_classes=len(centers))


def gen_synthetic(kind: str, n_per_class: int, seed: int):
    """2-D Gaussian blob datasets at fixed per-kind centers.

    Plain kinds return one Dataset.  The shifted-validation kinds return a
    (train, validation) pair whose validation blob centers are translated by
    ``SHIFT_OFFSET`` exactly.
    """
    if n_per_class < 2:
        raise ValueError("n_per_class must be at least 2")
    if kind in _CENTERS:
        centers, sigma = _CENTERS[kind]
        return _blobs(centers, sigma, n_per_class, SeededRng(seed))
    if kind in _SHIFTED:
        centers, sigma = _CENTERS[_SHIFTED[kind]]
        rng = SeededRng(seed)
        train = _blobs(centers, sigma, n_per_class, rng.split(0))
        shifted = [(cx + SHIFT_OFFSET[0], cy + SHIFT_OFFSET[1]) for cx, cy in centers]
        val = _blobs(shifted, sigma, n_per_class, rng.split(1))
        return train, val
    raise ValueError(f"unknown synthetic kind {kind!r}")


@dataclass(frozen=True)
class StandardizeStats:
    mean: np.ndarray
    std: np.ndarray


def standardize(train: Dataset, others: tuple[Dataset, ...] = ()):
    """Per-feature zero-mean unit-variance computed on train, applied to the
    companion datasets.  Returns (train', others', stats); constant features
    keep std 1 to avoid division blowups."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)

    def apply(ds: Dataset) -> Dataset:
        return Dataset(
            (ds.features - mean) / std,
            ds.labels,
            ds.num_classes,
            ds.noise_flipped,
            ds.original_label,
        )

    train_s = apply(train)
    others_s = tuple(apply(ds) for ds in others)
    return train_s, others_s, StandardizeStats(mean, std)


def discretize_features(
    train: Dataset, others: tuple[Dataset, ...] = (), bins: int = 10
):
    """Equal-width binning into integer bin ids 0..bins-1.

    Edges come from the train min/max per feature; companion datasets are
    clipped into that range so they share the alphabet.
    """
    if bins < 2:
        raise ValueError("need at least two bins")
    lo = train.features.min(axis=0)
    hi = train.features.max(axis=0)
    width = np.where(hi - lo < 1e-12, 1.0, hi - lo)

    def apply(ds: Dataset) -> Dataset:
        scaled = (np.clip(ds.features, lo, hi) - lo) / width
        ids = np.minimum((scaled * bins).astype(np.int64), bins - 1)
        return Dataset(
            ids.astype(np.float64),
            ds.labels,
            ds.num_classes,
            ds.noise_flipped,
            ds.original_label,
        )

    return (apply(train),) + tuple(apply(ds) for ds in others)
