import math

import numpy as np
import pytest

from glister.numerics import (
    _COLUMNS_MAX_WIDTH,
    _COLUMNS_MIN_ROWS,
    _NORMAL_BLOCK,
    _by_columns,
    SeededRng,
    finite_diff_grad,
    log_sum_exp,
    log_sum_exp_rows,
    pairwise_sq_dists,
    row_max,
    row_sum,
)
from glister.submodular import cross_facility_location


def test_log_sum_exp_symmetry():
    assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)


def test_log_sum_exp_max_shift_no_overflow():
    assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(1000 + math.log(2))


def test_log_sum_exp_matches_direct_sum():
    rng = SeededRng(5)
    v = rng.normals(5)
    direct = math.log(float(np.sum(np.exp(v))))
    assert log_sum_exp(v) == pytest.approx(direct, abs=1e-12)


def test_log_sum_exp_shift_invariance():
    rng = SeededRng(9)
    v = rng.normals(8)
    for c in (-3.0, 0.5, 10.0):
        assert log_sum_exp(v + c) == pytest.approx(log_sum_exp(v) + c, abs=1e-12)


def test_log_sum_exp_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        log_sum_exp(np.array([]))


def same_bits(a, b) -> bool:
    """Same shape, NaN at the same entries, every other entry with the same
    bits (signed zeros included); NaN payloads are not compared."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


def class_axis_inputs(shape, seed):
    """Three arrays of `shape`: finite values spanning many magnitudes, so
    the order of a sum shows in its bits; zeros of both signs, with a first
    row of -0.0 alone; and the first with sparse zeros of both signs,
    infinities and NaNs."""
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=shape) * np.exp(4.0 * rng.normal(size=shape))
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    zeros.reshape(-1, shape[-1])[0] = -0.0
    special = wide.copy()
    hit = rng.random(shape)
    special[hit < 0.02] = np.inf
    special[(hit >= 0.02) & (hit < 0.04)] = -np.inf
    special[(hit >= 0.04) & (hit < 0.06)] = np.nan
    special[(hit >= 0.06) & (hit < 0.10)] = -0.0
    special[(hit >= 0.10) & (hit < 0.14)] = 0.0
    return wide, zeros, special


CLASS_AXIS_LENGTHS = list(range(1, 301)) + [513, 1000]

# last-axis length -> shape; the "by columns" layouts have the rows that
# `row_max` and `row_sum` need to go column by column
LAYOUTS = {
    "1-D": lambda c: (c,),
    "2-D": lambda c: (23, c),
    "3-D": lambda c: (3, 4, c),
    "2-D by columns": lambda c: (_COLUMNS_MIN_ROWS * c, c),
    "3-D by columns": lambda c: (4, _COLUMNS_MIN_ROWS // 4 * c, c),
}


def class_axis_cases(layout):
    """(last-axis length, array) pairs of a layout: lengths 1-300, 513 and
    1000, or with the rows of a column loop, 1 to 4 past its widest.  Each
    array is checked to take the path its layout names."""
    by_columns = "columns" in layout
    lengths = range(1, _COLUMNS_MAX_WIDTH + 5) if by_columns else CLASS_AXIS_LENGTHS
    for c in lengths:
        for m in class_axis_inputs(LAYOUTS[layout](c), c):
            assert _by_columns(m) == (by_columns and c <= _COLUMNS_MAX_WIDTH), (layout, c)
            yield c, m


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_row_sum_equals_numpy_bit_for_bit(layout):
    with np.errstate(invalid="ignore", over="ignore"):
        for c, m in class_axis_cases(layout):
            assert same_bits(row_sum(m), m.sum(axis=-1)), c


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_row_max_equals_numpy_bit_for_bit(layout):
    """Bit for bit, except that a zero maximum is compared by value: numpy's
    own sign for it follows the lane order of its SIMD path, and no caller
    can see it (a shift of +0 or -0 gives the same exp and log-sum-exp)."""
    for c, m in class_axis_cases(layout):
        got, expect = np.asarray(row_max(m)), np.asarray(m.max(axis=-1))
        zero = expect == 0.0
        assert np.array_equal(got[zero], expect[zero]), c
        assert same_bits(got[~zero], expect[~zero]), c


def test_row_max_rejects_an_empty_last_axis():
    with pytest.raises(ValueError):
        row_max(np.zeros((3, 0)))
    assert row_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


def old_log_sum_exp_rows(m):
    shift = m.max(axis=-1, keepdims=True)
    return (shift + np.log(np.exp(m - shift).sum(axis=-1, keepdims=True)))[..., 0]


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (10,), (137,), (1000,), (50000,), (500, 10), (2000, 4), (5, 100, 3), (7, 9), (3, 40, 17)]
)
def test_log_sum_exp_rows_match_numpy_reductions(shape):
    """Vectors and few rows take numpy's reductions, many rows of a short
    last axis the column loop; both give the old formula's bits."""
    with np.errstate(invalid="ignore", over="ignore"):
        for m in class_axis_inputs(shape, len(shape)):
            assert _by_columns(m) == (shape in [(500, 10), (2000, 4), (5, 100, 3)])
            assert same_bits(log_sum_exp_rows(m), old_log_sum_exp_rows(m))
            if m.ndim == 1:
                assert same_bits(log_sum_exp(m), float(old_log_sum_exp_rows(m)))


def old_normals(rng, n):
    """`SeededRng.normals` as one draw of 2n uniforms, the reference for
    the blocked draw."""
    u = rng._raw(2 * n)
    u1 = ((u[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (u[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


@pytest.mark.parametrize("n", [0, 1, _NORMAL_BLOCK - 1, _NORMAL_BLOCK, _NORMAL_BLOCK + 1, 3 * _NORMAL_BLOCK + 7])
def test_rng_blocked_normals_match_one_draw(n):
    a, b = SeededRng(29), SeededRng(29)
    a.uniforms(3), b.uniforms(3)  # start off the stream's origin
    got, expect = a.normals(n), old_normals(b, n)
    assert got.shape == (n,) and got.dtype == np.float64
    assert got.tobytes() == expect.tobytes()
    assert a.next_u64() == b.next_u64()


def test_pairwise_single_row():
    assert pairwise_sq_dists(np.array([[1.0, 2.0]])).tolist() == [[0.0]]


def test_pairwise_345_triangle():
    d = pairwise_sq_dists(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d[0, 1] == pytest.approx(25.0)
    assert d[1, 0] == pytest.approx(25.0)
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0


def test_pairwise_matches_loop_oracle():
    rng = SeededRng(3)
    a = rng.normals(18).reshape(6, 3)
    d = pairwise_sq_dists(a)
    for i in range(6):
        for j in range(6):
            expect = float(np.sum((a[i] - a[j]) ** 2))
            assert d[i, j] == pytest.approx(expect, abs=1e-10)


def test_pairwise_exactly_symmetric():
    rng = SeededRng(11)
    a = rng.normals(40).reshape(10, 4)
    d = pairwise_sq_dists(a)
    assert np.array_equal(d, d.T)


def test_finite_diff_square():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-5)
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant():
    g = finite_diff_grad(lambda x: 7.5, np.array([1.0, -2.0, 0.3]), 1e-5)
    assert np.allclose(g, 0.0)


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: float("nan"), np.array([0.0]), 1e-5)


# golden first draws for seed 42, frozen so any platform drift is caught
GOLDEN_SEED42 = [13679457532755275413, 2949826092126892291, 5139283748462763858]


def test_rng_golden_sequence():
    rng = SeededRng(42)
    assert [rng.next_u64() for _ in range(3)] == GOLDEN_SEED42


def test_rng_equal_seeds_identical_streams():
    a, b = SeededRng(7), SeededRng(7)
    assert np.array_equal(a._raw(256), b._raw(256))


def test_rng_scalar_bulk_agree():
    a, b = SeededRng(1234), SeededRng(1234)
    scalar = np.array([a.next_u64() for _ in range(16)], dtype=np.uint64)
    assert np.array_equal(scalar, b._raw(16))


def test_rng_uniform_range():
    u = SeededRng(0).uniforms(1000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_rng_normals_moments():
    z = SeededRng(1).normals(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_rng_shuffle_is_permutation():
    rng = SeededRng(6)
    out = rng.shuffle(np.arange(50))
    assert sorted(out.tolist()) == list(range(50))


def test_rng_choice_no_replace_distinct():
    rng = SeededRng(8)
    picks = rng.choice_no_replace(30, 12)
    assert len(set(picks.tolist())) == 12
    assert all(0 <= p < 30 for p in picks)


def test_rng_split_streams_differ_and_reproduce():
    root = SeededRng(99)
    a = root.split(0).uniforms(4)
    b = root.split(1).uniforms(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(SeededRng(99).split(1).uniforms(4), b)


def scalar_shuffle(rng, items):
    """Fisher-Yates with one `randint` per swap: the stream `shuffle` pins."""
    out = np.array(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randint(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def scalar_choice(rng, n, k):
    """Partial Fisher-Yates with one `randint` per pick."""
    pool = np.arange(n)
    for i in range(k):
        j = i + rng.randint(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


@pytest.mark.parametrize("n", [0, 1, 2, 50, 5000])
def test_rng_shuffle_pins_scalar_stream(n):
    for seed in (0, 3, 41):
        ref, bulk = SeededRng(seed), SeededRng(seed)
        for items in (np.arange(n) * 7, np.linspace(0.0, 1.0, n)):
            want = scalar_shuffle(ref, items)
            got = bulk.shuffle(items)
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert bulk._counter == ref._counter


@pytest.mark.parametrize("n", [0, 1, 2, 50, 5000])
def test_rng_choice_no_replace_pins_scalar_stream(n):
    for seed in (0, 3, 41):
        ref, bulk = SeededRng(seed), SeededRng(seed)
        for k in sorted({0, min(1, n), n // 3, n}):
            want = scalar_choice(ref, n, k)
            got = bulk.choice_no_replace(n, k)
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert bulk._counter == ref._counter


@pytest.mark.parametrize("n", [0, 1, 2, 50, 500])
def test_rng_sample_pins_sorted_choice(n):
    for seed in (0, 3, 41):
        ref, rng = SeededRng(seed), SeededRng(seed)
        pool = np.sort(SeededRng(seed + 1).choice_no_replace(3 * n, n)) * 3 + 1
        for k in sorted({0, min(1, n), n // 3, n}):
            want = np.array(sorted(pool[ref.choice_no_replace(n, k)]), dtype=pool.dtype)
            got = rng.sample(pool, k)
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert rng._counter == ref._counter


def test_rng_shuffle_permutes_rows_of_2d_input():
    x = np.arange(10).reshape(5, 2)
    out = SeededRng(0).shuffle(x)
    perm = SeededRng(0).shuffle(np.arange(5))
    assert np.array_equal(out, x[perm])
    assert sorted(map(tuple, out.tolist())) == sorted(map(tuple, x.tolist()))
    assert np.array_equal(x, np.arange(10).reshape(5, 2))  # input untouched


def _pairwise_by_formula(a):
    """The distance formula `pairwise_sq_dists` evaluates in place."""
    sq = np.einsum("ij,ij->i", a, a)
    d = sq[:, None] + sq[None, :] - 2.0 * (a @ a.T)
    d = 0.5 * (d + d.T)
    np.clip(d, 0.0, None, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _cross_by_formula(g, c):
    """The cross-set formula `pairwise_sq_dists(a, b)` evaluates in place, as
    `cross_facility_location` once spelled it out."""
    g2 = np.einsum("ij,ij->i", g, g)
    c2 = np.einsum("ij,ij->i", c, c)
    return np.clip(g2[:, None] + c2[None, :] - 2.0 * (g @ c.T), 0.0, None)


def test_pairwise_non_contiguous_input_is_exactly_symmetric():
    """A Fortran-ordered array or a column-strided view is taken C-contiguous,
    so its distances are exactly symmetric with a zero diagonal and equal
    those of its contiguous copy.  They are not compared with
    `_pairwise_by_formula`: on such a layout the old symmetrizing formula
    can round the last bit differently, and no package caller passes one."""
    x = SeededRng(23).normals(300 * 10).reshape(300, 10) * 2.0
    for a in (np.asfortranarray(x), x[:, ::2]):
        d = pairwise_sq_dists(a)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.array_equal(d, pairwise_sq_dists(np.ascontiguousarray(a)))


def test_pairwise_in_place_steps_match_formula():
    rng = SeededRng(21)
    pts = rng.normals(300 * 7).reshape(300, 7) * 3.0
    wide = rng.normals(12 * 200).reshape(12, 200)
    cases = [
        pts,
        np.vstack([pts[:40], pts[:40], pts[5:9]]),  # duplicate rows
        pts[:1],
        wide,  # wide: n < d
        pts[:, :1] + 1e8,  # cancellation leaves tiny negatives to clip
        SeededRng(22).normals(1002 * 202).reshape(1002, 202),  # online-noise's CRAIG gradients
        SeededRng(22).normals(250 * 2).reshape(250, 2),  # FASS's candidates on active-rare
    ]
    for a in cases:
        assert np.array_equal(pairwise_sq_dists(a), _pairwise_by_formula(a))
    cross = [
        (pts[:170], pts[170:]),
        (np.vstack([pts[:40], pts[:40]]), np.vstack([pts[5:9], pts[:40]])),  # duplicate rows
        (pts[:1], pts[1:]),
        (pts, pts[7:8]),
        (wide[:5], wide[5:]),  # wide: n < d
        (pts[:, :1] + 1e8, pts[:50, :1] + 1e8),
        (pts, pts),  # the same array on both sides, as knnsub_train passes it
    ]
    for a, b in cross:
        assert np.array_equal(pairwise_sq_dists(a, b), _cross_by_formula(a, b))
    # the cross oracle's similarity equals the build it once did itself
    ground_labels = np.array([rng.randint(3) for _ in range(170)])
    cover_labels = np.array([rng.randint(3) for _ in range(130)])
    for ground, cover in [(pts[:170], pts[170:]), (pts[:170], pts[:130])]:
        dists = _cross_by_formula(ground, cover)
        sim = dists.max() - dists
        sim[ground_labels[:, None] != cover_labels[None, :]] = 0.0
        got = cross_facility_location(ground, ground_labels, cover, cover_labels)._sim
        assert np.array_equal(got, sim)
