import math
from dataclasses import replace

import numpy as np
import pytest

from glister.core import (
    _SELECT_STREAM,
    GlisterConfig,
    exact_gain,
    exact_objective,
    glister_online_train,
    greedy_dss,
    init_model_params,
    make_gain_state,
    monitor_theorem2,
    monitor_theorem3,
    subset_digest,
    taylor_gain,
    taylor_proxy,
)
from glister.core import EpochRecord, RunTrace, _selection_loop, glister_run
from glister.data import Dataset, SplitSpec, gen_synthetic, split
from glister.experiments import glister_config
from glister.models import (
    LossKind,
    ModelSpec,
    grad_full,
    init_params,
    last_layer_per_sample_grads,
    output_width,
    sgd_epoch,
)
from glister.numerics import SeededRng
from glister.submodular import (
    SetFunctionOracle, _top_ranked, exhaustive_max, from_callable, lazy_greedy, naive_greedy,
)


def last_layer_grad_sum(params, x, y, kind):
    """Summed last-layer loss gradient as a flat vector [W row-major, b]."""
    gw, gb = grad_full(params, x, y, kind)[-1]
    return np.concatenate([gw.ravel(), gb])


@pytest.fixture(scope="module")
def blob_data():
    full = gen_synthetic("separable-2", 100, seed=3)
    return split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))


def linear_params(train, kind=LossKind.CROSS_ENTROPY, seed=8):
    dims = ModelSpec("logistic").layer_dims(train.d, output_width(kind, train.num_classes))
    return init_params(dims, "identity", SeededRng(seed))


def fresh_state(train, val, params, eta=0.01, kind=LossKind.CROSS_ENTROPY, subset=()):
    state = make_gain_state(params, train, kind, eta)
    state.add(list(subset))
    state.refresh(val)
    return state


def test_taylor_gain_zero_row(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    state = fresh_state(train, val, params)
    state.logit_grads = state.logit_grads.copy()
    state.logit_grads[5] = 0.0
    assert taylor_gain(state, 5) == 0.0


def test_taylor_gain_linear_in_row(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    state = fresh_state(train, val, params)
    g = taylor_gain(state, 3)
    state.logit_grads = state.logit_grads.copy()
    state.logit_grads[3] *= 2.0
    assert taylor_gain(state, 3) == pytest.approx(2 * g, rel=1e-12)


def test_gain_state_lookahead_invariant(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    kind = LossKind.CROSS_ENTROPY
    state = make_gain_state(params, train, kind, 0.05)
    assert state.cand_features is train.features and state.cand_labels is train.labels
    state.refresh(val)
    state.add(np.array([1, 4, 9]))
    rows = -last_layer_per_sample_grads(params, train.features, train.labels, kind)
    expect = params.last_layer_vector() + 0.05 * rows[[1, 4, 9]].sum(axis=0)
    assert np.allclose(state.theta_lookahead, expect, atol=1e-10)
    state.refresh(val)
    assert state.refresh_count == 2


def table_greedy_dss(train, val, params, cfg, k):
    """GreedyDSS scored from the full per-sample gradient table, with the
    randomized variant re-sorting the pool on every pick: the reference for
    the factored state (regularizer "none" only)."""
    eta = cfg.lr if cfg.eta is None else cfg.eta
    rng = SeededRng(cfg.seed).split(_SELECT_STREAM)
    theta = params.last_layer_vector()
    remaining = np.arange(train.n)
    order = []
    r = cfg.resolve_r(k)
    base = k // r
    for count in [base] * (r - 1) + [k - base * (r - 1)]:
        look = params.with_last_layer_vector(theta)
        table = -last_layer_per_sample_grads(look, train.features, train.labels, cfg.loss)
        v = -last_layer_grad_sum(look, val.features, val.labels, cfg.loss)
        pool = remaining
        if cfg.greedy == "stochastic":
            per_step = int(math.ceil((train.n / k) * math.log(1.0 / cfg.epsilon)))
            s = min(len(remaining), max(count * per_step, count))
            pool = remaining[np.sort(rng.choice_no_replace(len(remaining), s))]
        scores = eta * (table[pool] @ v)
        if cfg.greedy == "randomized":
            picked = []
            live, live_scores = pool.copy(), scores.copy()
            for _ in range(count):
                top = np.lexsort((live, -live_scores))[: min(k, len(live))]
                pos = int(top[int(rng.randint(len(top)))])
                picked.append(int(live[pos]))
                live = np.delete(live, pos)
                live_scores = np.delete(live_scores, pos)
            picked = np.array(picked, dtype=np.int64)
        else:
            picked = pool[np.lexsort((pool, -scores))[:count]]
        theta = theta + eta * table[picked].sum(axis=0)
        order.extend(int(p) for p in picked)
        remaining = np.setdiff1d(remaining, picked)
    return order


@pytest.mark.parametrize("arch", ["logistic", "mlp"])
@pytest.mark.parametrize("kind", list(LossKind))
def test_factored_state_matches_gradient_table(blob_data, kind, arch):
    train, val, _ = blob_data
    spec = ModelSpec(arch, hidden=8)
    dims = spec.layer_dims(train.d, output_width(kind, train.num_classes))
    params = init_params(dims, "relu", SeededRng(11))
    eta = 0.05
    state = make_gain_state(params, train, kind, eta)
    state.add([0, 7])
    state.refresh(val)
    look = state.lookahead_params()
    table = -last_layer_per_sample_grads(look, train.features, train.labels, kind)
    v = -last_layer_grad_sum(look, val.features, val.labels, kind)
    assert np.array_equal(state.val_grad_at_lookahead, v)
    expect = eta * (table @ v)
    scores = np.array([taylor_gain(state, e) for e in range(train.n)])
    assert np.allclose(scores, expect, rtol=1e-10, atol=1e-10 * np.abs(expect).max())

    before = state.theta_lookahead
    state.add([1, 4, 9])
    assert np.array_equal(state.theta_lookahead, before + eta * table[[1, 4, 9]].sum(axis=0))

    for greedy in ("naive", "stochastic", "randomized"):
        cfg = GlisterConfig(k=12, refreshes=3, lr=eta, greedy=greedy, loss=kind, seed=5)
        assert greedy_dss(train, val, params, cfg) == table_greedy_dss(
            train, val, params, cfg, 12
        ), greedy


def ten_class_blobs(seed, n, stream, d=10, classes=10):
    """`n` rows of unit-variance Gaussian blobs around centers drawn from
    `seed`, row i of class i mod classes, noise from sub-stream `stream`."""
    rng = SeededRng(seed)
    centers = rng.split(0).normals(classes * d).reshape(classes, d)
    labels = np.arange(n) % classes
    return Dataset(centers[labels] + rng.split(stream).normals(n * d).reshape(n, d), labels, classes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_dss_ten_classes_matches_gradient_table(seed):
    """Ten classes reach numpy's pairwise row sums (from 8 columns on).  Naive
    and randomized rounds score nearly all 400 rows, stochastic's samples
    188 of them; each indexes the refresh's projection of every row."""
    train = ten_class_blobs(seed, 400, stream=1)
    val = ten_class_blobs(seed, 100, stream=2)
    dims = ModelSpec("mlp", hidden=8).layer_dims(train.d, 10)
    params = init_params(dims, "relu", SeededRng(seed).split(3))
    for greedy in ("naive", "stochastic", "randomized"):
        cfg = GlisterConfig(k=40, refreshes=10, lr=0.05, greedy=greedy, seed=seed)
        assert greedy_dss(train, val, params, cfg) == table_greedy_dss(
            train, val, params, cfg, 40
        ), greedy


def test_exact_objective_eta_zero_constant(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    base = exact_objective(params, train, val, LossKind.CROSS_ENTROPY, [], 0.0)
    for e in (0, 5, 11):
        assert exact_gain(params, train, val, LossKind.CROSS_ENTROPY, [], e, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert exact_objective(params, train, val, LossKind.CROSS_ENTROPY, [1, 2], 0.0) == pytest.approx(base)


def test_taylor_matches_exact_to_first_order(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    errs = []
    etas = (1e-1, 1e-2, 1e-3)
    for eta in etas:
        state = fresh_state(train, val, params, eta=eta, subset=[0, 7])
        tg = taylor_gain(state, 12)
        eg = exact_gain(params, train, val, LossKind.CROSS_ENTROPY, [0, 7], 12, eta)
        errs.append(abs(tg - eg))
    slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
    assert slope >= 1.7


def test_proxy_marginal_chain_diminishing(blob_data):
    train, val, _ = blob_data
    params = linear_params(train, kind=LossKind.LOGISTIC)
    f = taylor_proxy(params, train, val, LossKind.LOGISTIC, 0.01, 10)
    rng = SeededRng(4)
    for _ in range(100):
        chain = [int(v) for v in rng.choice_no_replace(f.n, 8)]
        gains = [f.marginal(chain[i], chain[:i]) for i in range(len(chain))]
        # greedy reorders by gain; sampled chains only check the proxy is
        # well defined, so sort to emulate the greedy pick order
        ordered = []
        remaining = list(range(f.n))
        s = []
        for _ in range(6):
            gs = f.marginals(remaining, s)
            best = remaining[int(np.lexsort((remaining, -gs))[0])]
            ordered.append(float(f.marginal(best, s)))
            s.append(best)
            remaining.remove(best)
        assert all(ordered[i] >= ordered[i + 1] - 1e-9 for i in range(len(ordered) - 1))
        break  # the greedy chain is deterministic; one pass suffices


@pytest.mark.parametrize("name", ["separable-2", "overlapping-4"])
def test_cross_entropy_proxy_marginals(name):
    """Vectorized marginals match value differences and are all positive
    (the oracle is monotone); greedy agrees with lazy greedy."""
    full = gen_synthetic(name, 40, seed=3)
    train, val, _ = split(full, SplitSpec(0.75, 0.125, 0.125, seed=1))
    params = init_params([2, full.num_classes], "identity", SeededRng(13))
    f = taylor_proxy(params, train, val, LossKind.CROSS_ENTROPY, 0.05, 8)
    assert f.monotone
    rng = SeededRng(5)
    cand = np.arange(f.n)
    for size in (0, 1, 4, 8):
        s = [int(v) for v in rng.choice_no_replace(f.n, size)]
        got = f.marginals(cand, s)
        assert np.all(got > 0)
        np.testing.assert_allclose(got, SetFunctionOracle.marginals(f, cand, s), rtol=1e-9, atol=0)
    assert naive_greedy(f, 5) == list(lazy_greedy(f, 5))


def test_greedy_dss_r1_is_topk_taylor(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    cfg = GlisterConfig(k=10, refreshes=1, lr=0.01, seed=0)
    sel = greedy_dss(train, val, params, cfg)
    state = fresh_state(train, val, params, eta=0.01)
    gains = np.array([taylor_gain(state, e) for e in range(train.n)])
    expect = np.lexsort((np.arange(train.n), -gains))[:10]
    assert sel == [int(i) for i in expect]


@pytest.mark.parametrize("ties", ["continuous", "tied", "tied-nan"])
def test_top_ranked_matches_full_lexsort(ties):
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        pool = np.sort(rng.choice(500, n, replace=False))
        if ties == "continuous":
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(-3, 4, n).astype(np.float64)
            scores[scores == 0] = rng.choice([0.0, -0.0], int((scores == 0).sum()))
        if ties == "tied-nan":
            scores[rng.random(n) < 0.3] = np.nan
        for m in sorted({1, 2, n // 2 or 1, n - 1 or 1, n, n + 5}):
            want = pool[np.lexsort((pool, -scores))][:m]
            assert np.array_equal(_top_ranked(pool, scores, m), want)


def test_greedy_dss_budget_exact(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    for k in (1, 7, 24):
        cfg = GlisterConfig(k=k, r_frac=0.3, lr=0.01, seed=1)
        sel = greedy_dss(train, val, params, cfg)
        assert len(sel) == k and len(set(sel)) == k


def test_greedy_dss_r_too_large(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    cfg = GlisterConfig(k=5, refreshes=9, lr=0.01, seed=0)
    with pytest.raises(ValueError):
        greedy_dss(train, val, params, cfg)


def test_greedy_dss_deterministic(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    for greedy in ("naive", "stochastic", "randomized"):
        cfg = GlisterConfig(k=12, refreshes=3, lr=0.01, greedy=greedy, seed=5)
        a = greedy_dss(train, val, params, cfg)
        b = greedy_dss(train, val, params, cfg)
        assert a == b, greedy


def test_greedy_dss_random_mixing_counts(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    cfg = GlisterConfig(k=20, refreshes=2, lr=0.01, regularizer="random", lam=0.9, seed=3)
    sel = greedy_dss(train, val, params, cfg)
    assert len(sel) == 20
    # lam = 0.9 puts round(0.9k) = 18 gain picks first, then 2 random ones
    gain_cfg = GlisterConfig(k=18, refreshes=2, lr=0.01, seed=3)
    gain_sel = greedy_dss(train, val, params, gain_cfg)
    assert sel[:18] == gain_sel
    assert len(set(sel[18:]) - set(gain_sel)) == 2


def test_greedy_dss_random_mixing_clamps_refreshes(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    # round(0.3 * 10) = 3 gain picks cannot fill 5 refresh rounds; r drops to 3
    cfg = GlisterConfig(k=10, refreshes=5, lr=0.01, regularizer="random", lam=0.3, seed=3)
    sel = greedy_dss(train, val, params, cfg)
    assert len(sel) == 10 and len(set(sel)) == 10
    gain_sel = greedy_dss(train, val, params, GlisterConfig(k=3, refreshes=3, lr=0.01, seed=3))
    assert sel[:3] == gain_sel


def test_greedy_dss_fl_regularizer_changes_selection(blob_data):
    train, val, _ = blob_data
    params = linear_params(train)
    plain = greedy_dss(train, val, params, GlisterConfig(k=10, refreshes=2, lr=0.01, seed=0))
    reg = greedy_dss(
        train, val, params,
        GlisterConfig(k=10, refreshes=2, lr=0.01, regularizer="facility_location", lam=1.0, seed=0),
    )
    assert plain != reg  # the additive marginal must be able to flip picks


# greedy_dss picks on blob_data (k=16, r=4, epsilon=0.5, so the stochastic
# pool is a sample), pinned so that a rewrite of the scoring keeps them
PINNED_PICKS = {
    ("none", "naive"): [38, 10, 13, 66, 72, 68, 75, 25, 37, 64, 4, 31, 125, 141, 146, 148],
    ("none", "stochastic"): [66, 77, 72, 57, 75, 42, 38, 23, 64, 67, 50, 24, 133, 31, 52, 26],
    ("none", "randomized"): [54, 38, 3, 77, 40, 26, 25, 33, 75, 60, 14, 95, 110, 146, 67, 141],
    ("facility_location", "naive"): [51, 69, 73, 18, 89, 94, 118, 159, 102, 99, 114, 152, 105, 123, 129, 117],
    ("facility_location", "stochastic"): [76, 12, 39, 58, 118, 151, 90, 111, 106, 148, 99, 125, 129, 128, 54, 15],
    ("facility_location", "randomized"): [7, 51, 39, 59, 93, 142, 159, 134, 152, 153, 122, 99, 85, 13, 26, 4],
    ("diversity", "naive"): [38, 10, 13, 66, 156, 129, 104, 117, 20, 22, 75, 4, 101, 143, 157, 100],
    ("diversity", "stochastic"): [66, 77, 72, 57, 75, 105, 150, 42, 137, 131, 91, 100, 6, 79, 60, 31],
    ("diversity", "randomized"): [54, 38, 3, 77, 25, 105, 129, 84, 75, 37, 50, 104, 122, 81, 156, 111],
    ("random", "naive"): [38, 10, 72, 13, 66, 68, 75, 25, 1, 2, 42, 44, 82, 83, 116, 144],
    ("random", "stochastic"): [66, 77, 68, 1, 13, 51, 46, 27, 37, 54, 65, 112, 115, 127, 134, 151],
    ("random", "randomized"): [54, 38, 3, 10, 76, 25, 26, 66, 5, 55, 56, 64, 116, 122, 133, 158],
}
PINNED_LAMBDA = {"none": 0.0, "facility_location": 1.0, "diversity": 0.01, "random": 0.5}


@pytest.mark.parametrize("regularizer, greedy", list(PINNED_PICKS))
def test_greedy_dss_pinned_picks(blob_data, regularizer, greedy):
    train, val, _ = blob_data
    cfg = GlisterConfig(k=16, refreshes=4, lr=0.05, epsilon=0.5, regularizer=regularizer,
                        lam=PINNED_LAMBDA[regularizer], greedy=greedy, seed=5)
    assert greedy_dss(train, val, linear_params(train), cfg) == PINNED_PICKS[regularizer, greedy]


def test_greedy_dss_r_equals_k_beats_ratio(blob_data):
    train, val, _ = blob_data
    small = train.take(range(12))
    params = linear_params(small)
    k = 4
    cfg = GlisterConfig(k=k, refreshes=k, lr=0.01, seed=2)
    sel = greedy_dss(small, val, params, cfg)
    base = exact_objective(params, small, val, LossKind.CROSS_ENTROPY, [], 0.01)

    def norm_value(subset):
        return exact_objective(params, small, val, LossKind.CROSS_ENTROPY, subset, 0.01) - base

    f = from_callable(12, norm_value, False)
    _, opt = exhaustive_max(f, k)
    assert norm_value(sel) >= (1 - 1 / math.e) * opt - 1e-9


def test_online_loop_selection_cadence(blob_data):
    train, val, test = blob_data
    spec = ModelSpec("logistic")
    cfg = GlisterConfig(budget_frac=0.25, select_every=4, lr=0.003, batch_size=10, seed=1)
    _, _, trace = glister_online_train(train, val, test, spec, cfg, epochs=10)
    sel_epochs = [r.epoch for r in trace.selection_records()]
    assert sel_epochs == [0, 4, 8]


def test_online_loop_single_selection_when_l_exceeds_t(blob_data):
    train, val, test = blob_data
    spec = ModelSpec("logistic")
    cfg = GlisterConfig(budget_frac=0.25, select_every=50, lr=0.003, batch_size=10, seed=1)
    _, _, trace = glister_online_train(train, val, test, spec, cfg, epochs=6)
    assert len(trace.selection_records()) == 1
    digests = {r.subset_digest for r in trace.records}
    assert len(digests) == 1


def test_unrecorded_run_steps_as_recorded_and_keeps_no_records(blob_data):
    train, val, test = blob_data
    cfg = GlisterConfig(budget_frac=0.3, select_every=2, lr=0.003, batch_size=10, seed=5)
    run = glister_run(train, val, test, ModelSpec("mlp", hidden=6), cfg)
    (p0, s0, t0), (p1, s1, t1) = _selection_loop([run, replace(run, monitor=None, record=False)], 5)
    assert s0 == s1 and len(t0.records) == 5
    assert t1.records == [] and t1.sgd_s == t0.sgd_s > 0
    assert np.array_equal(p0.theta, p1.theta)


def test_online_loop_k_equals_n_matches_plain_sgd(blob_data):
    train, val, test = blob_data
    spec = ModelSpec("logistic")
    cfg = GlisterConfig(k=train.n, select_every=3, lr=0.003, batch_size=10, seed=9)
    params, subset, _ = glister_online_train(train, val, test, spec, cfg, epochs=7)
    assert sorted(subset) == list(range(train.n))
    manual = init_model_params(train, spec, cfg)
    root = SeededRng(cfg.seed)
    for t in range(7):
        manual = sgd_epoch(manual, train, list(range(train.n)), cfg.lr, cfg.batch_size,
                           root.split(t), cfg.loss)
    assert np.array_equal(params.theta, manual.theta)


def test_online_loop_regularizer_none_ignores_lambda(blob_data):
    train, val, test = blob_data
    spec = ModelSpec("logistic")
    base = GlisterConfig(budget_frac=0.25, select_every=4, lr=0.003, batch_size=10,
                         regularizer="none", lam=0.0, seed=4)
    lam = GlisterConfig(budget_frac=0.25, select_every=4, lr=0.003, batch_size=10,
                        regularizer="none", lam=123.0, seed=4)
    _, s0, t0 = glister_online_train(train, val, test, spec, base, epochs=8)
    _, s1, t1 = glister_online_train(train, val, test, spec, lam, epochs=8)
    assert s0 == s1
    assert [r.subset_digest for r in t0.records] == [r.subset_digest for r in t1.records]
    assert [r.val_loss for r in t0.records] == [r.val_loss for r in t1.records]


def synthetic_trace(rows):
    trace = RunTrace(lr=0.01)
    for i, (val_loss, dot, bound) in enumerate(rows):
        rec = EpochRecord(
            epoch=i, wall_s=float(i), sel_s=0.0, train_loss=1.0, full_train_loss=1.0,
            val_loss=val_loss, test_acc=0.5, subset_digest="x",
        )
        if dot is not None:
            rec.dot_vt = dot
            rec.cos_theta = 0.9
            rec.grad_norm_t = 1.0
            rec.lr_bound = bound
            rec.grad_norm_v = 1.0
        trace.records.append(rec)
    return trace


def test_monitor_theorem2_clean_trace_no_violations():
    trace = synthetic_trace([(1.0, 0.5, 1.0), (0.9, None, None), (0.8, 0.4, 1.0), (0.7, None, None)])
    report = monitor_theorem2(trace)
    assert report["violations"] == 0
    assert all(r["violation"] is False for r in report["rows"])


def test_monitor_theorem2_vacuous_when_dot_negative():
    # validation loss rises but the alignment condition is unmet: no violation
    trace = synthetic_trace([(1.0, -0.5, 1.0), (2.0, None, None)])
    report = monitor_theorem2(trace)
    assert report["violations"] == 0
    assert report["rows"][0]["dot_nonneg"] is False


def test_monitor_theorem2_flags_true_violation():
    trace = synthetic_trace([(1.0, 0.5, 1.0), (2.0, None, None)])
    assert monitor_theorem2(trace)["violations"] == 1


def test_monitor_theorem3_bound_nonnegative_and_cos_one_kills_sum():
    trace = synthetic_trace([(1.0, 0.5, 1.0), (0.9, None, None)])
    for rec in trace.selection_records():
        rec.cos_theta = 1.0
    report = monitor_theorem3(trace)
    assert report["bound"] >= 0
    # with cos = 1 only the 1/sqrt(T) term remains
    expect = report["radius"] * report["sigma_t"] / (report["delta_min"] * math.sqrt(len(trace.records)))
    assert report["bound"] == pytest.approx(expect)


def test_monitor_requires_selection_records():
    trace = synthetic_trace([(1.0, None, None)])
    with pytest.raises(ValueError):
        monitor_theorem2(trace)


def test_subset_digest_order_invariant():
    assert subset_digest([3, 1, 2]) == subset_digest([1, 2, 3])
    assert subset_digest([1, 2]) != subset_digest([1, 3])


@pytest.mark.parametrize(
    "regularizer, lam", [("none", 0.0), ("random", 0.9), ("facility_location", 100.0), ("diversity", 1.0)]
)
def test_lambda_defaults_to_its_regularizers(regularizer, lam):
    assert GlisterConfig(regularizer=regularizer).resolve_lam() == lam
    assert glister_config({"regularizer": regularizer}).resolve_lam() == lam
    assert glister_config({"regularizer": regularizer, "lambda": None}).resolve_lam() == lam
    assert GlisterConfig(regularizer=regularizer, lam=0.5).resolve_lam() == 0.5


def test_replace_takes_the_new_regularizers_lambda():
    # a default lambda follows the regularizer; a given one stays
    assert replace(GlisterConfig(), regularizer="random").resolve_lam() == 0.9
    assert replace(GlisterConfig(regularizer="random"), regularizer="none").resolve_lam() == 0.0
    assert replace(GlisterConfig(lam=0.5), regularizer="random").resolve_lam() == 0.5
    with pytest.raises(ValueError, match="lambda in"):
        replace(GlisterConfig(lam=2.0), regularizer="random")


def test_config_validation():
    with pytest.raises(ValueError):
        GlisterConfig(regularizer="bogus")
    with pytest.raises(ValueError):
        GlisterConfig(greedy="bogus")
    with pytest.raises(ValueError):
        GlisterConfig(greedy="lazy")
    with pytest.raises(ValueError):
        GlisterConfig(regularizer="random", lam=1.5)
    with pytest.raises(ValueError):
        GlisterConfig(k=5, budget_frac=0.2).resolve_k(100)
    with pytest.raises(ValueError):
        GlisterConfig().resolve_k(100)
    assert GlisterConfig(budget_frac=0.3).resolve_k(100) == 30
    assert GlisterConfig(k=100).resolve_r(100) == 3  # ceil(0.03 * 100)
    assert GlisterConfig(k=100, r_frac=1.0).resolve_r(100) == 100
    for bad in (
        {"select_every": 2.5},
        {"batch_size": 2.5},
        {"refreshes": 2.5},
        {"refreshes": 0},
        {"r_frac": -1},
        {"r_frac": 5.0},
        {"select_every": None},
        {"r_frac": True},
        {"lr": True},
        {"eta": True},
        {"lam": True},
        {"lam": "1"},
        {"lam": float("inf")},
        {"epsilon": "0.1"},
    ):
        with pytest.raises(ValueError):
            GlisterConfig(k=10, **bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"lr": 0.0},
        {"lr": -0.1},
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"eta": 0.0},
        {"eta": -1.0},
        {"batch_size": 0},
        {"batch_size": -3},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_config_rejects_bad_optimizer_settings(bad):
    with pytest.raises(ValueError):
        GlisterConfig(k=10, **bad)
