import math

import numpy as np
import pytest

from glister.data import (
    Dataset,
    SplitSpec,
    discretize_features,
    gen_synthetic,
    inject_class_imbalance,
    inject_label_noise,
    parse_libsvm,
    serialize_libsvm,
    split,
    standardize,
    SHIFT_OFFSET,
)
from glister.models import LossKind, accuracy, output_width, init_params, sgd_epoch
from glister.numerics import SeededRng


def test_parse_single_line():
    ds = parse_libsvm("1 1:0.5 3:2.0")
    assert ds.features.tolist() == [[0.5, 0.0, 2.0]]
    assert ds.labels.tolist() == [0]
    assert ds.num_classes == 1


def test_parse_label_remap_sorted():
    ds = parse_libsvm("-1 1:1.0\n+1 1:2.0\n-1 1:3.0")
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.num_classes == 2


def test_parse_comments_blank_lines_crlf():
    text = "# header comment\r\n1 1:1.0  # trailing\r\n\r\n2 2:3.5\n"
    ds = parse_libsvm(text.encode())
    assert ds.n == 2
    assert ds.features[1, 1] == 3.5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm("1 1:1.0\n1 1:oops")
    with pytest.raises(ValueError, match="not 1-based"):
        parse_libsvm("1 0:1.0")
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_libsvm("1 2:1.0 2:2.0")


def test_roundtrip_preserves_features_and_labels():
    rng = SeededRng(4)
    feats = rng.normals(15).reshape(5, 3)
    ds = Dataset(feats, np.array([0, 1, 2, 1, 0]), 3)
    back = parse_libsvm(serialize_libsvm(ds))
    assert np.allclose(back.features, ds.features, atol=1e-12)
    assert np.array_equal(back.labels, ds.labels)


def test_roundtrip_keeps_trailing_zero_column():
    ds = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0, 1]), 2)
    back = parse_libsvm(serialize_libsvm(ds))
    assert back.d == 2


def test_split_sizes_80_10_10():
    full = gen_synthetic("separable-2", 50, seed=0)
    tr, va, te = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    assert (tr.n, va.n, te.n) == (80, 10, 10)


def test_split_deterministic():
    full = gen_synthetic("separable-2", 50, seed=0)
    a = split(full, SplitSpec(0.8, 0.1, 0.1, seed=5))
    b = split(full, SplitSpec(0.8, 0.1, 0.1, seed=5))
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)


def test_split_stratified_balance():
    full = gen_synthetic("separable-2", 100, seed=2)
    tr, va, te = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    for part in (tr, va, te):
        counts = part.class_counts()
        assert abs(counts[0] - counts[1]) <= 1


def test_split_parts_disjoint_cover():
    full = gen_synthetic("separable-2", 30, seed=3)
    tr, va, te = split(full, SplitSpec(0.6, 0.2, 0.2, seed=9))
    assert tr.n + va.n + te.n == full.n
    rows = np.vstack([tr.features, va.features, te.features])
    assert np.array_equal(
        np.sort(rows, axis=0), np.sort(np.asarray(full.features), axis=0)
    )


def test_split_rejects_zero_fraction():
    with pytest.raises(ValueError):
        SplitSpec(0.9, 0.1, 0.0, seed=1)


def test_noise_exact_count_and_flags():
    full = gen_synthetic("separable-2", 500, seed=1)
    noisy = inject_label_noise(full, 0.3, seed=2)
    assert int(noisy.noise_flipped.sum()) == round(0.3 * full.n)
    flipped = noisy.noise_flipped
    assert np.all(noisy.labels[flipped] != noisy.original_label[flipped])
    assert np.all(noisy.labels[~flipped] == noisy.original_label[~flipped])


def test_noise_rate_zero_is_identity():
    full = gen_synthetic("separable-2", 20, seed=1)
    out = inject_label_noise(full, 0.0, seed=2)
    assert np.array_equal(out.labels, full.labels)
    assert not out.noise_flipped.any()


def test_noise_preserves_shape_and_classes():
    full = gen_synthetic("separable-4", 50, seed=1)
    out = inject_label_noise(full, 0.25, seed=3)
    assert (out.n, out.d, out.num_classes) == (full.n, full.d, full.num_classes)
    assert np.array_equal(out.features, full.features)


def _noise_by_loop(ds, rate, seed):
    """inject_label_noise's labels and flags drawn row by row, one scalar
    randint per chosen row: the reference for its single bulk draw."""
    rng = SeededRng(seed)
    labels, flips, orig = ds.labels.copy(), ds.noise_flipped.copy(), ds.original_label.copy()
    for i in rng.choice_no_replace(ds.n, int(math.floor(rate * ds.n + 0.5))):
        old = labels[i]
        labels[i] = (old + 1 + rng.randint(ds.num_classes - 1)) % ds.num_classes
        if not flips[i]:
            orig[i] = old
            flips[i] = True
    return labels, flips, orig


@pytest.mark.parametrize("kind", ["separable-2", "separable-4", "overlapping-4"])
@pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 0.5, 0.9])
def test_noise_matches_row_by_row_draws(kind, rate):
    """The same flips as the scalar loop, also when an already-noisy set is
    noised again (a row flipped twice keeps its first original label)."""
    for seed in range(3):
        ds = gen_synthetic(kind, 30, seed=seed)
        for noise_seed in (10 + seed, 20 + seed):
            expect = _noise_by_loop(ds, rate, noise_seed)
            ds = inject_label_noise(ds, rate, noise_seed)
            for got, want in zip((ds.labels, ds.noise_flipped, ds.original_label), expect):
                assert np.array_equal(got, want)


def test_noise_rejects_rate_one():
    full = gen_synthetic("separable-2", 10, seed=1)
    with pytest.raises(ValueError):
        inject_label_noise(full, 1.0, seed=0)


def test_imbalance_counts():
    full = gen_synthetic("separable-4", 100, seed=4)
    out = inject_class_imbalance(full, 0.3, 0.1, seed=5)
    counts = out.class_counts()
    # ceil(0.3 * 4) = 2 affected classes at ceil(0.1 * 100) = 10 rows
    assert sorted(counts.tolist()) == [10, 10, 100, 100]


def test_imbalance_untouched_classes_identical():
    full = gen_synthetic("separable-4", 40, seed=6)
    out = inject_class_imbalance(full, 0.3, 0.2, seed=7)
    for c in range(4):
        before = full.features[full.labels == c]
        after = out.features[out.labels == c]
        if len(after) == len(before):
            assert np.array_equal(before, after)
        else:
            # kept rows are a subset in original order
            assert all(any(np.array_equal(r, b) for b in before) for r in after)


def test_imbalance_keep_frac_near_one():
    full = gen_synthetic("separable-2", 1000, seed=8)
    out = inject_class_imbalance(full, 0.49, 0.999, seed=9)
    assert sorted(out.class_counts().tolist()) == [999, 1000]


def test_gen_synthetic_row_count():
    ds = gen_synthetic("separable-4", 2, seed=0)
    assert ds.n == 8


def test_gen_synthetic_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        gen_synthetic("nope", 10, seed=0)


def test_shifted_validation_offset_exact():
    train, val = gen_synthetic("shifted-validation-2", 200, seed=3)
    for c in (0, 1):
        t_mean = train.features[train.labels == c].mean(axis=0)
        v_mean = val.features[val.labels == c].mean(axis=0)
        # empirical means approximate the documented center translation
        assert np.allclose(v_mean - t_mean, SHIFT_OFFSET, atol=0.2)


def test_separable_probe_reaches_99_train_acc():
    ds = gen_synthetic("separable-2", 30, seed=11)
    cfg_rng = SeededRng(1)
    params = init_params([2, output_width(LossKind.CROSS_ENTROPY, 2)], "identity", cfg_rng)
    for t in range(300):
        params = sgd_epoch(params, ds, list(range(ds.n)), 0.005, 10, SeededRng(2).split(t))
    assert accuracy(params, ds) >= 0.99


def test_standardize_train_stats_and_r():
    full = gen_synthetic("separable-2", 100, seed=4)
    tr, va, te = split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))
    tr_s, (va_s, te_s), _ = standardize(tr, (va, te))
    assert np.allclose(tr_s.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(tr_s.features.std(axis=0), 1.0, atol=1e-12)


def test_discretize_bins_within_range():
    full = gen_synthetic("separable-2", 50, seed=5)
    (binned,) = discretize_features(full, bins=10)
    vals = binned.features
    assert vals.min() >= 0 and vals.max() <= 9
    assert np.array_equal(vals, vals.astype(np.int64).astype(np.float64))


def test_dataset_arrays_read_only():
    ds = gen_synthetic("separable-2", 10, seed=0)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
