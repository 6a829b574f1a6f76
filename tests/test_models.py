import numpy as np
import pytest

from glister.data import gen_synthetic
from glister.models import (
    LossKind,
    ModelParams,
    ModelSpec,
    accuracy,
    flatten_grads,
    forward,
    grad_full,
    hypothesized_labels,
    init_params,
    last_layer_per_sample_grads,
    loss_value,
    output_width,
    sgd_epoch,
    sgd_epoch_stack,
)
from glister.numerics import SeededRng, finite_diff_grad

ALL_LOSSES = list(LossKind)


def make_instance(kind, arch, seed):
    rng = SeededRng(seed)
    d, n = 3, 6
    c = 4 if kind == LossKind.CROSS_ENTROPY else 2
    dims = [d, output_width(kind, c)] if arch == "logistic" else [d, 5, output_width(kind, c)]
    params = init_params(dims, "relu", rng)
    x = rng.split(1).normals(n * d).reshape(n, d)
    y = np.array([rng.split(2).randint(c) for _ in range(n)])
    return params, x, y


def test_forward_zero_params_zero_logits():
    params = ModelParams(((np.zeros((3, 2)), np.zeros(2)),))
    assert np.array_equal(forward(params, np.ones((4, 3))), np.zeros((4, 2)))


def test_params_pack_into_one_read_only_theta():
    w0, b0 = np.arange(6.0).reshape(2, 3), np.array([0.5, -1.0, 2.0])
    w1, b1 = np.ones((3, 1)), np.array([7.0])
    params = ModelParams(((w0, b0), (w1, b1)), "relu")
    assert np.array_equal(params.theta, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    assert not params.theta.flags.writeable
    for given, held in zip((w0, b0, w1, b1), (a for layer in params.layers for a in layer)):
        assert np.array_equal(given, held) and np.shares_memory(held, params.theta) and not held.flags.writeable
    w0[0, 0], b1[0] = 99.0, 99.0
    assert params.layers[0][0][0, 0] == 0.0 and params.layers[1][1][0] == 7.0
    again = params.with_theta(params.theta)
    assert again.activation == "relu"
    for (w, b), (wa, ba) in zip(params.layers, again.layers):
        assert np.array_equal(w, wa) and np.array_equal(b, ba)
    with pytest.raises(ValueError, match="does not match"):
        params.with_theta(params.theta[:-1])
    bad = params.theta.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        params.with_theta(bad)


def test_forward_identity_layer():
    params = ModelParams(((np.eye(3), np.zeros(3)),))
    x = SeededRng(1).normals(9).reshape(3, 3)
    assert np.allclose(forward(params, x), x, atol=1e-15)


def test_forward_matches_loop_oracle():
    params, x, _ = make_instance(LossKind.CROSS_ENTROPY, "mlp", 3)
    got = forward(params, x)
    for i in range(x.shape[0]):
        h = x[i]
        for li, (w, b) in enumerate(params.layers):
            z = np.array([float(h @ w[:, j]) + b[j] for j in range(w.shape[1])])
            h = np.maximum(z, 0.0) if li < len(params.layers) - 1 else z
        assert np.allclose(got[i], h, atol=1e-12)


def test_forward_shape_mismatch():
    params = ModelParams(((np.zeros((3, 2)), np.zeros(2)),))
    with pytest.raises(ValueError):
        forward(params, np.ones((4, 5)))


def test_cross_entropy_zero_logits():
    params = ModelParams(((np.zeros((3, 2)), np.zeros(2)),))
    x = np.ones((5, 3))
    y = np.array([0, 1, 0, 1, 1])
    assert loss_value(params, x, y, LossKind.CROSS_ENTROPY) == pytest.approx(5 * np.log(2))


def test_hinge_zero_at_margin_two():
    # single weight mapping x -> 2x so y=+1, x=1 gives margin 2
    params = ModelParams(((np.array([[2.0]]), np.zeros(1)),))
    assert loss_value(params, np.array([[1.0]]), np.array([1]), LossKind.HINGE) == 0.0


@pytest.mark.parametrize("kind", ALL_LOSSES)
def test_loss_matches_direct_formula(kind):
    params, x, y = make_instance(kind, "logistic", 17)
    z = forward(params, x)
    if kind == LossKind.CROSS_ENTROPY:
        expect = sum(
            np.log(np.sum(np.exp(z[i]))) - z[i, y[i]] for i in range(len(y))
        )
    else:
        s = 2.0 * y - 1.0
        f = z[:, 0]
        m = s * f
        if kind == LossKind.LOGISTIC:
            expect = float(np.sum(np.log1p(np.exp(-m))))
        elif kind == LossKind.SQUARED:
            expect = float(np.sum((f - s) ** 2))
        elif kind == LossKind.HINGE:
            expect = float(np.sum(np.maximum(0, 1 - m)))
        else:
            expect = float(np.sum(np.maximum(0, -m)))
    assert loss_value(params, x, y, kind) == pytest.approx(expect, abs=1e-10)


def test_loss_label_out_of_range():
    params, x, _ = make_instance(LossKind.CROSS_ENTROPY, "logistic", 1)
    with pytest.raises(ValueError):
        loss_value(params, x, np.array([0, 1, 9, 0, 1, 0]), LossKind.CROSS_ENTROPY)


def test_loss_permutation_invariant():
    params, x, y = make_instance(LossKind.CROSS_ENTROPY, "mlp", 23)
    base = loss_value(params, x, y, LossKind.CROSS_ENTROPY)
    perm = SeededRng(5).shuffle(np.arange(len(y)))
    assert loss_value(params, x[perm], y[perm], LossKind.CROSS_ENTROPY) == pytest.approx(base)


def test_hinge_zero_gradient_at_large_margin():
    params = ModelParams(((np.array([[3.0]]), np.zeros(1)),))
    g = grad_full(params, np.array([[1.0], [-1.0]]), np.array([1, 0]), LossKind.HINGE)
    assert np.allclose(g[0][0], 0.0) and np.allclose(g[0][1], 0.0)


@pytest.mark.parametrize("arch", ["logistic", "mlp"])
@pytest.mark.parametrize("kind", ALL_LOSSES)
def test_grad_matches_finite_differences(kind, arch):
    params, x, y = make_instance(kind, arch, 31)
    g = flatten_grads(grad_full(params, x, y, kind))
    fd = finite_diff_grad(lambda v: loss_value(params.with_theta(v), x, y, kind), params.theta, 1e-6)
    rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-10)
    assert rel <= 1e-5


def test_grad_sum_linearity():
    params, x, y = make_instance(LossKind.CROSS_ENTROPY, "mlp", 41)
    total = flatten_grads(grad_full(params, x, y, LossKind.CROSS_ENTROPY))
    parts = sum(
        flatten_grads(grad_full(params, x[i:i + 1], y[i:i + 1], LossKind.CROSS_ENTROPY))
        for i in range(len(y))
    )
    assert np.allclose(total, parts, atol=1e-10)


def test_per_sample_rows_sum_to_last_layer_grad():
    for kind in ALL_LOSSES:
        params, x, y = make_instance(kind, "mlp", 47)
        table = last_layer_per_sample_grads(params, x, y, kind)
        gw, gb = grad_full(params, x, y, kind)[-1]
        assert np.allclose(table.sum(axis=0), np.concatenate([gw.ravel(), gb]), atol=1e-10)


def test_per_sample_row_confident_correct_is_tiny():
    # huge positive logit for the true class makes p ~ 1 and the row ~ 0
    params = ModelParams(((np.array([[40.0, -40.0]]), np.zeros(2)),))
    table = last_layer_per_sample_grads(
        params, np.array([[1.0]]), np.array([0]), LossKind.CROSS_ENTROPY
    )
    assert np.linalg.norm(table[0]) < 1e-6


def test_per_sample_matches_finite_differences_on_last_layer():
    params, x, y = make_instance(LossKind.CROSS_ENTROPY, "mlp", 53)
    i = 2
    table = last_layer_per_sample_grads(params, x, y, LossKind.CROSS_ENTROPY)
    vec = params.last_layer_vector()

    def f(v):
        p2 = params.with_last_layer_vector(v)
        return loss_value(p2, x[i:i + 1], y[i:i + 1], LossKind.CROSS_ENTROPY)

    fd = finite_diff_grad(f, vec, 1e-6)
    rel = np.linalg.norm(table[i] - fd) / max(np.linalg.norm(fd), 1e-10)
    assert rel <= 1e-5


def test_sgd_lr_zero_keeps_params():
    ds = gen_synthetic("separable-2", 20, seed=1)
    params = init_params([2, 2], "identity", SeededRng(0))
    out = sgd_epoch(params, ds, list(range(ds.n)), 0.0, 8, SeededRng(1))
    assert np.array_equal(params.theta, out.theta)


def test_sgd_full_batch_equals_single_step():
    ds = gen_synthetic("separable-2", 10, seed=2)
    params = init_params([2, 2], "identity", SeededRng(0))
    out = sgd_epoch(params, ds, list(range(ds.n)), 0.01, 1000, SeededRng(1))
    g = grad_full(params, ds.features, ds.labels, LossKind.CROSS_ENTROPY)
    expect_w = params.layers[0][0] - 0.01 * g[0][0]
    expect_b = params.layers[0][1] - 0.01 * g[0][1]
    assert np.allclose(out.layers[0][0], expect_w, atol=1e-12)
    assert np.allclose(out.layers[0][1], expect_b, atol=1e-12)


def test_sgd_deterministic_given_seed():
    ds = gen_synthetic("separable-2", 30, seed=3)
    params = init_params([2, 4, 2], "relu", SeededRng(0))
    a = sgd_epoch(params, ds, list(range(ds.n)), 0.01, 8, SeededRng(7))
    b = sgd_epoch(params, ds, list(range(ds.n)), 0.01, 8, SeededRng(7))
    assert np.array_equal(a.theta, b.theta)


def _assert_same_params(got, want):
    assert got.activation == want.activation and np.array_equal(got.theta, want.theta)


def reference_sgd_epoch(params, ds, subset, lr, batch_size, rng, kind):
    """Per-batch `grad_full` steps, each validated as a new `ModelParams`."""
    order = rng.shuffle(np.asarray(subset, dtype=np.int64))
    current = params
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        grads = grad_full(current, ds.features[batch], ds.labels[batch], kind)
        layers = tuple((w - lr * gw, b - lr * gb) for (w, b), (gw, gb) in zip(current.layers, grads))
        current = ModelParams(layers, current.activation)
    return current


@pytest.mark.parametrize("arch", ["logistic", "mlp"])
@pytest.mark.parametrize("kind", ALL_LOSSES)
def test_sgd_epoch_matches_per_batch_grad_full(kind, arch):
    ds = gen_synthetic("separable-2", 40, seed=5)
    dims = ModelSpec(arch, hidden=6).layer_dims(ds.d, output_width(kind, 2))
    params = init_params(dims, "relu", SeededRng(2))
    subset = list(range(0, ds.n, 3))
    got, want = params, params
    for t in range(3):
        got = sgd_epoch(got, ds, subset, 0.05, 7, SeededRng(4).split(t), kind)
        want = reference_sgd_epoch(want, ds, subset, 0.05, 7, SeededRng(4).split(t), kind)
    _assert_same_params(got, want)


@pytest.mark.parametrize("arch", ["logistic", "mlp"])
@pytest.mark.parametrize("kind", ALL_LOSSES)
@pytest.mark.parametrize(
    "size,batch_size,lr",
    [
        pytest.param(23, 5, 0.05, id="ragged-last-batch"),
        pytest.param(9, 50, 0.05, id="batch-larger-than-subset"),
        pytest.param(12, 1, 0.05, id="batch-1"),
        pytest.param(23, 5, 0.0, id="lr-0"),
    ],
)
def test_sgd_epoch_edge_cases_match_per_batch_grad_full(kind, arch, size, batch_size, lr):
    ds = gen_synthetic("separable-2", 30, seed=6)
    dims = ModelSpec(arch, hidden=5).layer_dims(ds.d, output_width(kind, 2))
    params = init_params(dims, "relu", SeededRng(3))
    subset = list(range(1, 1 + 2 * size, 2))
    got = sgd_epoch(params, ds, subset, lr, batch_size, SeededRng(8), kind)
    want = reference_sgd_epoch(params, ds, subset, lr, batch_size, SeededRng(8), kind)
    _assert_same_params(got, want)
    if lr == 0.0:
        _assert_same_params(got, params)


STACK_DATA = ("separable-2", "binary-slack")


def _stack_instance(kind, arch, runs, seed):
    """`runs` runs on two-class data drawn from alternating generators and
    seeds, each with its own initial parameters, subset and shuffle seed."""
    dims = ModelSpec(arch, hidden=5).layer_dims(2, output_width(kind, 2))
    datasets = [gen_synthetic(STACK_DATA[i % 2], 15 + 3 * i, seed=seed + i) for i in range(runs)]
    params = [init_params(dims, "relu", SeededRng(seed + 10 * i)) for i in range(runs)]
    return datasets, params


@pytest.mark.parametrize("arch", ["logistic", "mlp"])
@pytest.mark.parametrize("kind", ALL_LOSSES)
@pytest.mark.parametrize("runs", [1, 2, 5])
@pytest.mark.parametrize(
    "size,batch_size",
    [
        pytest.param(23, 5, id="ragged-last-batch"),
        pytest.param(9, 50, id="batch-larger-than-subset"),
        pytest.param(20, 4, id="whole-batches"),
    ],
)
def test_sgd_epoch_stack_matches_each_run_alone(kind, arch, runs, size, batch_size):
    datasets, params = _stack_instance(kind, arch, runs, seed=runs + size)
    subsets = [SeededRng(40 + i).sample(np.arange(ds.n), size) for i, ds in enumerate(datasets)]
    got = list(params)
    want = list(params)
    for t in range(2):
        rngs = [SeededRng(7 + i).split(t) for i in range(runs)]
        got = sgd_epoch_stack(got, datasets, subsets, 0.05, batch_size, rngs, kind)
        want = [
            reference_sgd_epoch(p, ds, s, 0.05, batch_size, SeededRng(7 + i).split(t), kind)
            for i, (p, ds, s) in enumerate(zip(want, datasets, subsets))
        ]
    assert len(got) == runs
    for g, w in zip(got, want):
        _assert_same_params(g, w)


def test_sgd_epoch_stack_rejects_subsets_of_different_sizes():
    datasets, params = _stack_instance(LossKind.CROSS_ENTROPY, "mlp", 2, seed=1)
    with pytest.raises(ValueError, match="one size"):
        sgd_epoch_stack(params, datasets, [[0, 1, 2], [0, 1]], 0.01, 2,
                        [SeededRng(1), SeededRng(2)])


def test_sgd_epoch_stack_rejects_mixed_architectures():
    ds = gen_synthetic("separable-2", 10, seed=1)
    params = [init_params([2, 3, 2], "relu", SeededRng(0)), init_params([2, 4, 2], "relu", SeededRng(0))]
    with pytest.raises(ValueError, match="architecture"):
        sgd_epoch_stack(params, [ds, ds], [[0, 1], [2, 3]], 0.01, 2, [SeededRng(1), SeededRng(2)])


def test_sgd_epoch_stack_names_the_run_that_diverged():
    """A run that goes non-finite raises the `ModelParams` error, prefixed
    with its name; the finite run beside it neither hides it nor is named."""
    ds = gen_synthetic("separable-2", 20, seed=1)
    tame = init_params([2, 1], "identity", SeededRng(0))
    wild = ModelParams(((tame.layers[0][0] * 1e306, tame.layers[0][1]),))
    rows = list(range(ds.n))
    sgd_epoch(tame, ds, rows, 1.0, 4, SeededRng(1), LossKind.SQUARED)  # finite alone
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^run b: parameters must be finite"):
        sgd_epoch_stack([tame, wild], [ds, ds], [rows, rows], 1.0, 4,
                        [SeededRng(1), SeededRng(1)], LossKind.SQUARED, names=["run a", "run b"])


def test_sgd_epoch_leaves_input_params_unchanged():
    ds = gen_synthetic("separable-2", 30, seed=6)
    params = init_params([2, 7, 2], "relu", SeededRng(3))
    before = [(w.copy(), b.copy()) for w, b in params.layers]
    out = sgd_epoch(params, ds, list(range(ds.n)), 0.05, 4, SeededRng(8))
    for (w, b), (w0, b0), (w1, b1) in zip(params.layers, before, out.layers):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
        assert not np.shares_memory(w, w1) and not np.shares_memory(b, b1)
        assert not np.array_equal(w, w1)


@pytest.mark.parametrize("kind", [LossKind.CROSS_ENTROPY, LossKind.HINGE])
def test_sgd_epoch_rejects_out_of_range_label(kind):
    ds = gen_synthetic("separable-4", 10, seed=1)
    params = init_params([2, output_width(kind, 2)], "identity", SeededRng(0))
    subset = [int(np.flatnonzero(ds.labels == 0)[0]), int(np.flatnonzero(ds.labels == 3)[0])]
    with pytest.raises(ValueError, match="label"):
        sgd_epoch(params, ds, subset, 0.01, 1, SeededRng(1), kind)


def test_sgd_diverging_lr_raises():
    ds = gen_synthetic("separable-2", 20, seed=1)
    params = init_params([2, 1], "identity", SeededRng(0))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        sgd_epoch(params, ds, list(range(ds.n)), 1e300, 4, SeededRng(1), LossKind.SQUARED)


def test_sgd_rejects_empty_subset():
    ds = gen_synthetic("separable-2", 10, seed=4)
    params = init_params([2, 2], "identity", SeededRng(0))
    with pytest.raises(ValueError):
        sgd_epoch(params, ds, [], 0.01, 8, SeededRng(1))


def test_hypothesized_zero_logits_all_class_zero():
    params = ModelParams(((np.zeros((2, 3)), np.zeros(3)),))
    labels = hypothesized_labels(params, np.ones((5, 2)))
    assert labels.tolist() == [0] * 5


def test_hypothesized_unique_max():
    params = ModelParams(((np.eye(3), np.zeros(3)),))
    x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert hypothesized_labels(params, x).tolist() == [1, 2]


def test_hypothesized_after_training_matches_truth():
    ds = gen_synthetic("separable-2", 100, seed=5)
    params = init_params([2, 2], "identity", SeededRng(0))
    for t in range(200):
        params = sgd_epoch(params, ds, list(range(ds.n)), 0.002, 20, SeededRng(2).split(t))
    assert accuracy(params, ds) >= 0.99


def test_mlp_last_layer_positive_homogeneity():
    params, x, _ = make_instance(LossKind.CROSS_ENTROPY, "mlp", 61)
    w, b = params.layers[-1]
    for c in (0.5, 2.0, 7.0):
        scaled = ModelParams(params.layers[:-1] + ((c * w, c * b),), params.activation)
        assert np.allclose(forward(scaled, x), c * forward(params, x), atol=1e-12)


def test_margin_loss_requires_two_classes():
    with pytest.raises(ValueError):
        output_width(LossKind.HINGE, 3)


def test_model_spec_dims():
    assert ModelSpec("logistic").layer_dims(4, 3) == [4, 3]
    assert ModelSpec("mlp", hidden=7).layer_dims(4, 3) == [4, 7, 3]
    for hidden in (2.5, True, "7", 0):
        with pytest.raises(ValueError):
            ModelSpec("mlp", hidden=hidden)
