import numpy as np
import pytest

from glister import active
from glister.active import PoolState, fass_acquire, initial_labeled, random_acquire, run_active
from glister.core import GlisterConfig, _selection_loop
from glister.data import Dataset, SplitSpec, gen_synthetic, split
from glister.models import LossKind, ModelParams, ModelSpec, init_params, sgd_epoch
from glister.core import init_model_params
from glister.numerics import SeededRng


@pytest.fixture(scope="module")
def pool_data():
    full = gen_synthetic("separable-2", 125, seed=4)
    return split(full, SplitSpec(0.8, 0.1, 0.1, seed=1))


def small_cfg(seed=1):
    return GlisterConfig(k=10, refreshes=1, lr=0.003, batch_size=10,
                         loss=LossKind.CROSS_ENTROPY, seed=seed)


def test_pool_state_invariants_enforced():
    st = PoolState(5, [1, 0])
    st.acquire([4, 2])
    assert st.labeled == [0, 1, 2, 4]
    assert st.unlabeled.tolist() == [3]
    assert st.batches == [[2, 4]]


@pytest.mark.parametrize(
    "batch", [[1], [2, 2], [-1], [5], [3, 5]], ids=["labeled", "repeated", "negative", "n", "n-in-batch"]
)
def test_pool_state_acquire_rejects_bad_rows(batch):
    st = PoolState(5, [0, 1])
    with pytest.raises(ValueError):
        st.acquire(batch)
    assert st.labeled == [0, 1]
    assert st.batches == []


@pytest.mark.parametrize(
    "initial", [lambda n: [-1, 2], lambda n: [0, n], lambda n: [3, 3]], ids=["negative", "n", "repeated"]
)
def test_run_active_rejects_bad_initial_labels(pool_data, initial):
    pool, val, test = pool_data
    with pytest.raises(ValueError, match="rows must"):
        run_active("random", pool, val, test, initial(pool.n), ModelSpec("logistic"), small_cfg(), 1, 5, 1)


@pytest.mark.parametrize(
    "counts, n, quota",
    [
        ([500, 500, 7, 7], 20, [9, 9, 1, 1]),  # at least one each, trimmed from the largest
        ([5, 5, 5, 5], 10, [3, 3, 2, 2]),  # 2.5 rounds to 2: topped up to n
    ],
)
def test_initial_labeled_quotas(counts, n, quota):
    labels = np.repeat(np.arange(len(counts)), counts)
    pool = Dataset(np.zeros((len(labels), 1)), labels, len(counts))
    picked = initial_labeled(pool, n, SeededRng(4))
    assert len(set(picked)) == n
    assert np.bincount(labels[picked], minlength=len(counts)).tolist() == quota


def test_initial_labeled_rejects_fewer_labels_than_classes():
    labels = np.repeat(np.arange(4), [9, 3, 3, 3])
    pool = Dataset(np.zeros((len(labels), 1)), labels, 4)
    with pytest.raises(ValueError, match="cannot cover 4 classes"):
        initial_labeled(pool, 3, SeededRng(4))
    assert len(initial_labeled(pool, 4, SeededRng(4))) == 4


def test_random_acquire_basics():
    unl = np.arange(1, 21)
    assert random_acquire(unl, 0, SeededRng(1)) == []
    a = random_acquire(unl, 5, SeededRng(2))
    b = random_acquire(unl, 5, SeededRng(2))
    assert a == b
    assert set(a) <= set(unl.tolist())
    with pytest.raises(ValueError):
        random_acquire(unl, 21, SeededRng(3))


def test_fass_filter_mult_one_is_pure_uncertainty(pool_data):
    pool, _, _ = pool_data
    unl = np.arange(pool.n)
    params = init_params([2, 2], "identity", SeededRng(5))
    batch = 6
    sel = fass_acquire(pool, unl, params, batch, 1.0)
    from glister.active import _predictive_entropy

    ent = _predictive_entropy(params, pool.features)
    expect = sorted(int(i) for i in np.lexsort((np.arange(pool.n), -ent))[:batch])
    assert sel == expect


def test_fass_huge_filter_mult_keeps_every_row(pool_data):
    """A filter_mult whose product with the batch overflows to inf keeps
    the whole unlabeled pool, as one of exactly len(unlabeled) / batch does."""
    pool, _, _ = pool_data
    unl = np.arange(0, pool.n, 2)
    params = init_params([2, 2], "identity", SeededRng(5))
    assert fass_acquire(pool, unl, params, 5, 1e308) == fass_acquire(pool, unl, params, 5, len(unl) / 5)


def test_fass_zero_logit_ties_break_by_index(pool_data):
    pool, _, _ = pool_data
    unl = np.arange(pool.n)
    params = ModelParams(((np.zeros((2, 2)), np.zeros(2)),))
    sel = fass_acquire(pool, unl, params, 4, 1.0)
    assert sel == [0, 1, 2, 3]


def test_fass_beats_random_coverage(pool_data):
    pool, _, _ = pool_data
    unl = np.arange(pool.n)
    params = init_params([2, 2], "identity", SeededRng(6))
    from glister.models import hypothesized_labels
    from glister.submodular import facility_location

    batch, mult = 8, 3.0
    sel = fass_acquire(pool, unl, params, batch, mult)
    from glister.active import _predictive_entropy

    ent = _predictive_entropy(params, pool.features)
    keep = np.lexsort((np.arange(pool.n), -ent))[: int(mult * batch)]
    cand = np.sort(keep)
    hyp = hypothesized_labels(params, pool.features[cand])
    oracle = facility_location(pool.features[cand], hyp, per_class=True)
    pos = {int(c): i for i, c in enumerate(cand)}
    fass_val = oracle.value([pos[i] for i in sel])
    rand_vals = []
    for s in range(20):
        rng = SeededRng(100 + s)
        picks = rng.choice_no_replace(len(cand), batch)
        rand_vals.append(oracle.value(list(picks)))
    assert fass_val >= np.mean(rand_vals)


def test_active_batches_disjoint_and_partition(pool_data):
    pool, val, test = pool_data
    init = initial_labeled(pool, 10, SeededRng(3))
    spec = ModelSpec("logistic")
    _, state, trace = run_active(
        "glister", pool, val, test, init, spec, small_cfg(), rounds=4, batch=10,
        epochs_per_round=5,
    )
    flat = [i for b in state.batches for i in b]
    assert len(flat) == len(set(flat)) == 40
    # the seed labels and the batches are exactly the labeled rows
    assert sorted(init + flat) == state.labeled == np.flatnonzero(state.mask).tolist()
    assert state.unlabeled.tolist() == sorted(set(range(pool.n)) - set(state.labeled))
    assert [r.labeled_count for r in trace.rounds] == [20, 30, 40, 50]


def test_active_deterministic(pool_data):
    pool, val, test = pool_data
    init = initial_labeled(pool, 10, SeededRng(3))
    spec = ModelSpec("logistic")
    runs = [
        run_active("glister", pool, val, test, init, spec, small_cfg(), 3, 10, 5)
        for _ in range(2)
    ]
    assert runs[0][1].batches == runs[1][1].batches
    assert runs[0][2].final_test_acc == runs[1][2].final_test_acc


def test_active_acquire_all_equals_warm_start_then_full_train(pool_data):
    pool, val, test = pool_data
    init = initial_labeled(pool, 10, SeededRng(3))
    spec = ModelSpec("logistic")
    cfg = small_cfg(7)
    epochs = 6
    batch = pool.n - len(init)
    params, state, _ = run_active("glister", pool, val, test, init, spec, cfg, 1, batch, epochs)
    assert sorted(state.labeled) == list(range(pool.n))
    # replay: warm-start training on the seed set, then the same epochs on everything
    manual = init_model_params(pool, spec, cfg)
    root = SeededRng(cfg.seed)
    for t in range(epochs):
        manual = sgd_epoch(manual, pool, init, cfg.lr, cfg.batch_size, root.split(t), cfg.loss)
    for t in range(epochs, 2 * epochs):
        manual = sgd_epoch(manual, pool, state.labeled, cfg.lr, cfg.batch_size, root.split(t), cfg.loss)
    assert np.array_equal(params.theta, manual.theta)


def test_active_pool_exhausted(pool_data):
    pool, val, test = pool_data
    init = list(range(pool.n - 5))
    spec = ModelSpec("logistic")
    with pytest.raises(ValueError, match="exhausted"):
        run_active("glister", pool, val, test, init, spec, small_cfg(), 2, 10, 2)


def test_active_pool_exhausted_before_any_acquisition(pool_data, monkeypatch):
    """Round 0 fits but round 1 does not: the run fails before it trains or
    acquires anything."""
    pool, val, test = pool_data
    calls = []

    def counting(*args):
        calls.append(args)
        return random_acquire(*args)

    monkeypatch.setattr(active, "random_acquire", counting)
    init = list(range(pool.n - 15))
    with pytest.raises(ValueError, match="unlabeled pool exhausted"):
        active.run_active("random", pool, val, test, init, ModelSpec("logistic"), small_cfg(), 2, 10, 2)
    assert calls == []


@pytest.mark.parametrize(
    "strategy, acquirer",
    [("glister", "greedy_dss"), ("random", "random_acquire"), ("fass", "fass_acquire")],
)
def test_active_calls_its_acquirer_through_the_module(pool_data, monkeypatch, strategy, acquirer):
    """The benchmark times acquisition by patching these `glister.active`
    names, so each round must look its acquirer up there."""
    pool, val, test = pool_data
    calls = []
    original = getattr(active, acquirer)
    monkeypatch.setattr(active, acquirer, lambda *a, **k: calls.append(1) or original(*a, **k))
    init = initial_labeled(pool, 10, SeededRng(3))
    active.run_active(strategy, pool, val, test, init, ModelSpec("logistic"), small_cfg(), 2, 5, 1)
    assert len(calls) == 2


class _TaintedLabels(np.ndarray):
    """Label array recording which row indices were ever read."""

    def __new__(cls, base):
        obj = np.asarray(base).view(cls)
        obj.reads = set()
        return obj

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", set())

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            self.reads.add(int(idx))
        elif isinstance(idx, (list, np.ndarray)):
            arr = np.asarray(idx)
            if arr.dtype == bool:
                self.reads.update(np.flatnonzero(arr).tolist())
            else:
                self.reads.update(int(i) for i in arr.ravel())
        elif isinstance(idx, slice):
            self.reads.update(range(*idx.indices(len(self))))
        return super().__getitem__(idx)


def test_active_never_reads_unlabeled_truth_before_reveal(pool_data):
    pool, val, test = pool_data
    tainted = _TaintedLabels(np.asarray(pool.labels))
    shadow = Dataset(pool.features, pool.labels, pool.num_classes)
    object.__setattr__(shadow, "labels", tainted)
    init = initial_labeled(pool, 10, SeededRng(3))
    spec = ModelSpec("logistic")
    _, state, _ = run_active("glister", shadow, val, test, init, spec, small_cfg(), 3, 10, 4)
    allowed = set(state.labeled)  # everything read must have been revealed
    assert tainted.reads <= allowed
    never_acquired = set(range(pool.n)) - allowed
    assert never_acquired, "test needs some rows to stay unlabeled"
    assert not (tainted.reads & never_acquired)


def test_active_run_keeps_no_epoch_records(pool_data):
    """An epoch record's `full_train_loss` reads every pool label, revealed
    or not, so an active run is unrecorded and the loop leaves its trace
    without records."""
    pool, val, test = pool_data
    init = initial_labeled(pool, 10, SeededRng(3))
    run, _, _ = active.active_run("random", pool, val, test, init, ModelSpec("logistic"), small_cfg(), 2, 5, 2)
    assert run.record is False
    ((_, _, trace),) = _selection_loop([run], 3 * 2)
    assert trace.records == []
