import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearcrit import pgf
from nearcrit.errors import NotADistributionError
from oracles import (
    centered_by_binomials,
    centered_value,
    cp_atoms_loop,
    nb_coeffs_loop,
    poisson_coeffs_loop,
    x_basis_by_binomials,
)


def bern(p):
    return pgf.Pmf(np.array([1.0 - p, p]))


def test_pmf_tracks_deficiency():
    p = pgf.Pmf(np.array([0.5, 0.25]))
    assert p.deficiency == pytest.approx(0.25, abs=1e-15)
    assert len(p) == 2


def test_pmf_leaves_callers_array_writable():
    a = np.array([0.5, 0.5])
    p = pgf.Pmf(a)
    a[0] = 0.25
    assert p.coeffs.tolist() == [0.5, 0.5]
    assert not p.coeffs.flags.writeable
    window = np.array([0.2, 0.3, 0.5, 0.0])
    q = pgf.Pmf(window[:3])
    window[0] = 0.9
    assert q.coeffs.tolist() == [0.2, 0.3, 0.5]


def test_pmf_clamps_roundoff_negatives():
    p = pgf.Pmf(np.array([1.0, -1e-14]))
    assert p.coeffs[1] == 0.0


def test_pmf_rejects_real_negatives():
    with pytest.raises(NotADistributionError):
        pgf.Pmf(np.array([1.0, -1e-9]))


@pytest.mark.parametrize(
    "bad",
    [[0.5, math.nan], [0.5, math.inf], [0.5, -math.inf], [0.2, math.inf, -math.inf]],
)
def test_pmf_rejects_non_finite(bad):
    with pytest.raises(NotADistributionError):
        pgf.Pmf(np.array(bad))


def test_pmf_deficiency_comes_from_clamped_sum():
    p = pgf.Pmf(np.array([0.5, -1e-13, 0.25]))
    assert p.coeffs[1] == 0.0
    assert p.deficiency == 0.25


def test_convolve_identity_element():
    p = pgf.Pmf(np.array([0.2, 0.5, 0.3]))
    out = pgf.convolve(pgf.Pmf.delta(0), p, 3)
    assert np.allclose(out.coeffs, p.coeffs, atol=1e-15)


def test_convolve_two_coins():
    out = pgf.convolve(bern(0.5), bern(0.5), 3)
    assert np.allclose(out.coeffs, [0.25, 0.5, 0.25], atol=1e-15)


def test_convolve_thinned_then_shifted():
    # Bernoulli(0.4) thinned by 0.5 is Bernoulli(0.2); adding Bernoulli(0.1)
    # gives P(0)=0.72, P(1)=0.26, P(2)=0.02 by hand convolution.
    thinned = pgf.compound(bern(0.4), bern(0.5), 3)
    out = pgf.convolve(thinned, bern(0.1), 3)
    assert np.allclose(out.coeffs, [0.72, 0.26, 0.02], atol=1e-15)


def test_convolve_rejects_bad_truncation():
    with pytest.raises(ValueError):
        pgf.convolve(bern(0.5), bern(0.5), 0)


def test_compound_thinning():
    out = pgf.compound(bern(0.6), bern(0.5), 3)
    assert np.allclose(out.coeffs, [0.7, 0.3, 0.0], atol=1e-15)


def test_compound_delta_count_is_self_convolution():
    g = pgf.Pmf(np.array([0.3, 0.7]))
    out = pgf.compound(pgf.Pmf.delta(2), g, 4)
    want = pgf.convolve(g, g, 4)
    assert np.allclose(out.coeffs, want.coeffs, atol=1e-15)


def test_compound_identity_count():
    g = pgf.Pmf(np.array([0.1, 0.2, 0.7]))
    out = pgf.compound(pgf.Pmf.delta(1, 4), g, 3)
    assert np.allclose(out.coeffs, g.coeffs, atol=1e-15)


def test_compound_with_unit_jump_is_exact():
    count = pgf.Pmf(np.array([0.125, 0.5, 0.25, 0.125]))
    out = pgf.compound(count, pgf.Pmf.delta(1, 2), 4)
    assert np.array_equal(out.coeffs, count.coeffs)


def test_compound_keeps_a_tiny_count_term():
    # no suffix of the count law is dropped for being small: a term of
    # 1e-20 at k = 25 reaches every output coefficient it feeds, to
    # rounding, and the trailing zeros behind it change nothing
    raw = np.zeros(40)
    raw[:2] = 0.5, 0.5 - 1e-20
    raw[25] = 1e-20
    out = pgf.compound(pgf.Pmf(raw), bern(0.5), 64)
    want = [1e-20 * math.comb(25, k) * 0.5**25 for k in range(2, 26)]
    assert np.allclose(out.coeffs[2:26], want, rtol=1e-13, atol=0.0)
    assert not out.coeffs[26:].any()
    assert np.array_equal(out.coeffs, pgf.compound(pgf.Pmf(raw[:26]), bern(0.5), 64).coeffs)


def test_evaluate_normalization():
    p = pgf.Pmf(np.array([0.4, 0.6]))
    assert pgf.evaluate(p, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert pgf.evaluate(pgf.Pmf.delta(0), 0.3) == 1.0


def test_evaluate_poisson_closed_form():
    p = pgf.Pmf(pgf.poisson_coeffs(1.0, 40))
    assert pgf.evaluate(p, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_evaluate_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        pgf.evaluate(bern(0.5), 1.5)
    with pytest.raises(ValueError):
        pgf.evaluate(bern(0.5), -0.1)


def test_factorial_moments_two_point():
    assert pgf.factorial_moment(bern(0.3), 1) == pytest.approx(0.3, abs=1e-15)
    assert pgf.factorial_moment(bern(0.3), 2) == 0.0


def test_factorial_moment_point_mass():
    assert pgf.factorial_moment(pgf.Pmf.delta(3), 2) == 6.0


def test_factorial_moment_poisson():
    p = pgf.Pmf(pgf.poisson_coeffs(1.0, 60))
    assert pgf.factorial_moment(p, 3) == pytest.approx(1.0, abs=1e-10)


def test_exp_centered_poisson():
    c = pgf.CenteredSeries(np.array([0.0, 1.0]))
    out = pgf.exp_centered(c, 30)
    assert out.coeffs[0] == pytest.approx(math.exp(-1.0), abs=1e-14)
    assert np.allclose(out.coeffs, pgf.poisson_coeffs(1.0, 30), atol=1e-14)


def test_exp_centered_zero_series_is_point_mass():
    out = pgf.exp_centered(pgf.CenteredSeries(np.zeros(5)), 4)
    assert np.allclose(out.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_exp_centered_inverse_square_value_at_zero():
    # c_l = 1/l^2: P(0) = exp(sum (-1)^l / l^2) = exp(-pi^2/12); only the
    # zeroth column is computable for this CP-divergent series.
    l = np.arange(1, 2001)
    c = np.concatenate([[0.0], 1.0 / l**2])
    out = pgf.exp_centered(pgf.CenteredSeries(c), 1)
    assert out.coeffs[0] == pytest.approx(math.exp(-math.pi**2 / 12), abs=1e-6)


def test_exp_centered_requires_vanishing_constant():
    with pytest.raises(ValueError):
        pgf.exp_centered(pgf.CenteredSeries(np.array([0.5, 1.0])), 4)


def test_shift_basis_point_mass():
    c = pgf.taylor_shift(pgf.Pmf.delta(0).coeffs, 1.0, 1)
    assert np.allclose(c, [1.0], atol=1e-15)


def test_shift_basis_two_point():
    c = pgf.taylor_shift(bern(0.4).coeffs, 1.0, 2)
    assert np.allclose(c, [1.0, 0.4], atol=1e-15)


def test_shift_basis_roundtrip_poisson():
    p = pgf.Pmf(pgf.poisson_coeffs(2.0, 50))
    back = pgf.taylor_shift(pgf.taylor_shift(p.coeffs, 1.0, len(p)), -1.0, len(p))
    assert np.max(np.abs(back - p.coeffs)) <= 1e-10


def _shift_magnitude(c, b: float) -> np.ndarray:
    """sum_l |c_l| C(l,k) b^(l-k) for every k: the scale of the rounding
    error of any summation of the shift of c by +-b."""
    c = np.abs(np.asarray(c, dtype=float))
    return np.array([sum(c[l] * math.comb(l, k) * b ** (l - k)
                         for l in range(k, len(c))) for k in range(len(c))])


def _rounding_bound(c, b: float) -> np.ndarray:
    # each coefficient takes at most len(c) multiply-adds on either route
    return 4 * (len(c) + 1) * np.finfo(float).eps * _shift_magnitude(c, b) + 1e-300


signed_vectors = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                          min_size=1, max_size=12)


@given(signed_vectors, st.sampled_from([1.0, -1.0]), st.integers(1, 15))
@settings(max_examples=100, deadline=None)
def test_taylor_shift_matches_binomial_columns(c, a, k):
    got = pgf.taylor_shift(c, a, k)
    assert got.shape == (k,)
    want = centered_by_binomials(c) if a == 1.0 else x_basis_by_binomials(c, len(c))
    bound = _rounding_bound(c, 1.0)
    m = min(k, len(c))
    assert np.all(np.abs(got[:m] - want[:m]) <= bound[:m])
    assert np.all(got[m:] == 0.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=1),
    st.lists(st.floats(min_value=0.01, max_value=3.0), max_size=5),
    st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_taylor_shift_gives_the_compound_poisson_atoms(first, rest, zeros):
    # admissible sequences: nonnegative, ending in zeros that never stop
    lam = first + rest + [0.0] * zeros
    c = [0.0] + [v / math.factorial(l) for l, v in enumerate(lam, start=1)]
    got = pgf.taylor_shift(c, -1.0, len(lam))[1:]
    bound = _rounding_bound(c, 1.0)[1 : len(lam)]
    assert np.all(np.abs(got - cp_atoms_loop(lam)) <= bound)


@given(signed_vectors, st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_taylor_shift_round_trip(c, a):
    back = pgf.taylor_shift(pgf.taylor_shift(c, a, len(c)), -a, len(c))
    assert np.all(np.abs(back - c) <= 2 * _rounding_bound(c, 2.0 * abs(a)))


small_pmfs = (
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6)
    .filter(lambda ws: sum(ws) > 0.1)
    .map(lambda ws: pgf.Pmf(np.array(ws) / sum(ws)))
)


@given(small_pmfs, small_pmfs)
@settings(max_examples=80, deadline=None)
def test_mass_conservation_under_convolve(a, b):
    out = pgf.convolve(a, b, len(a) + len(b))
    assert out.coeffs.sum() + out.deficiency == pytest.approx(1.0, abs=1e-12)


@given(small_pmfs, small_pmfs, st.floats(min_value=0.0, max_value=1.0))
# a normalized jump law whose PGF rounds to 1 + eps at x = 1
@example(
    pgf.Pmf(np.array([1.0])),
    pgf.Pmf(np.array([0.29876053530986624, 0.2987605753098562,
                      0.27530289117427725, 0.12717599820600048])),
    1.0,
)
@settings(max_examples=80, deadline=None)
def test_compound_is_pgf_composition(count, jump, x):
    if count.deficiency > 1e-12 or jump.deficiency > 1e-12:
        return
    out = pgf.compound(count, jump, (len(count) - 1) * (len(jump) - 1) + 1)
    # the oracle's inner PGF value can round above 1, outside evaluate's domain
    inner = min(pgf.evaluate(jump, x), 1.0)
    assert pgf.evaluate(out, x) == pytest.approx(
        pgf.evaluate(count, inner), abs=1e-9
    )


@given(small_pmfs, small_pmfs)
@settings(max_examples=80, deadline=None)
def test_convolution_adds_means(a, b):
    out = pgf.convolve(a, b, len(a) + len(b))
    assert pgf.factorial_moment(out, 1) == pytest.approx(
        pgf.factorial_moment(a, 1) + pgf.factorial_moment(b, 1), abs=1e-10
    )


@given(
    st.lists(st.floats(min_value=-0.4, max_value=0.4), min_size=1, max_size=5)
)
@settings(max_examples=60, deadline=None)
def test_exp_centered_matches_log_of_eval(tail):
    c = pgf.CenteredSeries(np.array([0.0] + tail))
    try:
        out = pgf.exp_centered(c, 80)
    except NotADistributionError:
        return  # arbitrary tails need not define a distribution
    if out.deficiency > 1e-11:
        return
    for x in np.arange(0.1, 1.0, 0.1):
        logv = math.log(pgf.evaluate(out, float(x)))
        assert logv == pytest.approx(centered_value(c, float(x)), abs=1e-9)


def weights(max_size):
    return st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=max_size).filter(lambda ws: sum(ws) > 0.0)


@given(
    weights(40),
    weights(8),
    st.floats(min_value=0.5, max_value=1.0),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_compound_matches_plain_power_sum(count_ws, jump_ws, mass, k_trunc):
    count = pgf.Pmf(mass * np.array(count_ws) / sum(count_ws))
    jump = pgf.Pmf(np.array(jump_ws) / sum(jump_ws))
    # oracle: sum_k count_k J^k over every k, no early exit
    acc = np.zeros(k_trunc)
    power = np.zeros(k_trunc)
    power[0] = 1.0
    for c in count.coeffs:
        acc += c * power
        power = np.convolve(power, jump.coeffs)[:k_trunc]
    oracle = pgf.Pmf(acc)
    out = pgf.compound(count, jump, k_trunc)
    assert np.all(out.coeffs <= oracle.coeffs + 1e-15)
    tol = 1e-15 + 1e-13 * oracle.coeffs.max()
    assert np.max(np.abs(out.coeffs - oracle.coeffs)) <= tol
    assert out.deficiency >= oracle.deficiency - 1e-15


# Each route rounds at most four times per coefficient step (a ratio of up
# to three operations and the running product), so coefficient k of the two
# differs by at most 8 k half-ulps: 4 K eps relative over K coefficients.
# The bound holds while the coefficients are normal floats; past that both
# routes have underflowed to below the smallest normal.
_K = 256
_COEFF_RTOL = 4 * _K * np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _agree(got, want):
    normal = want >= _TINY
    return (np.all(np.abs(got - want)[normal] <= _COEFF_RTOL * want[normal])
            and np.all(got[~normal] < _TINY))


@pytest.mark.parametrize("lam", [0.0, 1e-300, 1e-3, 0.5, 2.0, 30.0, 700.0])
def test_poisson_coeffs_match_the_loop_recurrence(lam):
    got, want = pgf.poisson_coeffs(lam, _K), poisson_coeffs_loop(lam, _K)
    assert _agree(got, want)
    if lam == 0.0:
        assert got.tolist() == [1.0] + [0.0] * (_K - 1)


@pytest.mark.parametrize("r, p", [(2.0, 0.0), (0.0, 0.5), (2.0, 1.0 / 3.0),
                                  (0.5, 0.9), (40.0, 0.2), (1e-3, 1e-3)])
def test_nb_coeffs_match_the_loop_recurrence(r, p):
    got, want = pgf.nb_coeffs(r, p, _K), nb_coeffs_loop(r, p, _K)
    assert _agree(got, want)
    if p == 0.0 or r == 0.0:
        assert got.tolist() == [1.0] + [0.0] * (_K - 1)


def test_kernels_return_the_kind_they_were_given():
    a, b = bern(0.3), pgf.Pmf(np.array([0.2, 0.5, 0.3]))
    for kernel in (pgf.convolve, pgf.compound):
        typed = kernel(a, b, 4)
        raw = kernel(a.coeffs, b.coeffs, 4)
        assert isinstance(typed, pgf.Pmf)
        assert type(raw) is np.ndarray
        assert np.array_equal(typed.coeffs, raw)


# table entries: ordinary masses, roundoff negatives the clamp removes, and
# now and then an entry no law may hold
_entries = st.one_of(
    st.floats(0.0, 0.3),
    st.floats(-1e-12, 0.0),
    st.sampled_from([-1e-9, 0.9, math.nan, math.inf, -math.inf]),
)


@pytest.mark.filterwarnings("error")
@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_coeff_table_checks_each_row_as_pmf_does(rows, width, data):
    raw = np.array(data.draw(st.lists(
        st.lists(_entries, min_size=width, max_size=width),
        min_size=rows, max_size=rows)))
    laws, errors = [], set()
    for row in raw:
        try:
            laws.append(pgf.Pmf(row))
        except Exception as exc:  # noqa: BLE001 - the class is compared
            errors.add(type(exc))
    if errors:
        with pytest.raises(Exception) as info:
            pgf.coeff_table(raw)
        assert type(info.value) in errors
        return
    table = pgf.coeff_table(raw)
    for row, law in zip(table, laws):
        assert np.array_equal(row, law.coeffs)


@pytest.mark.filterwarnings("error")
def test_coeff_table_rejects_a_minus_inf_that_a_nan_hides():
    # the nan of row 0 makes the minimum nan, so row 1's -inf passes the
    # negative check and its sum is inf - inf
    with pytest.raises(NotADistributionError, match="finite"):
        pgf.coeff_table(np.array([[math.nan, 0.1], [math.inf, -math.inf]]))


@pytest.mark.parametrize("raw", [np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2, 2))])
def test_coeff_table_needs_a_non_empty_2d_array(raw):
    with pytest.raises(ValueError, match="2-D"):
        pgf.coeff_table(raw)


def test_poisson_coeffs_map_over_an_array_of_means():
    lams = np.array([0.0, 0.5, 2.0, 30.0])
    rows = pgf.poisson_coeffs(lams, 40)
    assert rows.shape == (4, 40)
    for row, lam in zip(rows, lams):
        assert _agree(row, poisson_coeffs_loop(float(lam), 40))
    with pytest.raises(ValueError, match="nonnegative"):
        pgf.poisson_coeffs(np.array([1.0, -0.5]), 8)


_PRODUCT_K = 64


def _padded(a, k):
    """``a`` cut at ``k`` coefficients or zero-padded up to them."""
    out = np.zeros(k)
    out[: min(len(a), k)] = a[:k]
    return out


@pytest.mark.parametrize("width", [1, 2, 3, _PRODUCT_K // 2, _PRODUCT_K])
@pytest.mark.parametrize("rows", [1, 2, 255, 256])
def test_product_matches_a_running_convolution(width, rows):
    # row coefficients decay geometrically towards 1e-200 at index K - 1, so
    # every product coefficient below K stays a normal float; rows of width
    # K/2 are the widest that are multiplied pairwise. The product is the
    # running convolution zero-padded to K
    k = _PRODUCT_K
    rng = np.random.default_rng(width * 1000 + rows)
    decay = 10.0 ** (-200.0 * np.arange(width) / (k - 1))
    terms = rng.uniform(0.5, 1.0, (rows, width)) * decay
    want = np.ones(1)
    for row in terms:
        want = np.convolve(want, row)[:k]
    (got,) = pgf.product(terms, k, [(0, rows)])
    assert got.shape == (k,)
    assert not got[want.shape[0]:].any()
    assert float(np.max(np.abs(got[: want.shape[0]] - want) / want)) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 63, 64, 257])
def test_short_product_keeps_the_first_k_coefficients(k):
    # operands narrower than, as wide as and wider than K, each cut at K or
    # zero-padded up to it, all through one pad. Both routes sum the same
    # nonnegative terms in their own order: 4.3 ulps apart at worst over
    # 300 seeds at K = 257
    rng = np.random.default_rng(k)
    widths = sorted({1, max(1, k // 2), k, k + 3})
    tail, times = pgf._short_products(k)
    for wb in widths:
        b = rng.uniform(size=wb)
        for wa in widths[::-1]:
            a = rng.uniform(size=wa)
            want = np.convolve(a, b)[:k]
            tail[:] = _padded(a, k)
            got = times(_padded(b, k)[::-1])
            assert got.shape == (k,)
            assert not got[want.shape[0]:].any(), (wa, wb)
            rel = np.abs(got[: want.shape[0]] - want) / want
            assert float(rel.max()) <= 8 * np.finfo(float).eps, (wa, wb)


@pytest.mark.parametrize("width", [40, 64])
def test_product_of_wide_rows_is_a_running_short_product_bit_for_bit(width):
    # rows wider than _PAIR_WIDTH are zero-padded to K, reversed once, and
    # each goes in by one correlate on a shared pad: the arithmetic of one
    # short product per row on the K-wide series
    k = 64
    t = np.random.default_rng(width).uniform(size=(9, width)) / width
    tail, times = pgf._short_products(k)
    want = _padded(t[0], k)
    for row in t[1:]:
        tail[:] = want
        want = times(_padded(row, k)[::-1])
    (got,) = pgf.product(t, k, [(0, t.shape[0])])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [2, 5, 40])
def test_product_of_pieces_matches_a_running_convolution_per_piece(width):
    # pieces of 1, 2, 5, 16 and 33 rows and one of none: widths 2 and 5 are
    # multiplied in paired long-double levels across the pieces, where each
    # odd piece gets a unit row, and width 40 by running short products; a
    # level widens a short piece's product by exact zeros
    k = _PRODUCT_K
    sizes = [1, 2, 5, 0, 16, 33]
    cuts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    pieces = list(zip(cuts, cuts[1:]))
    rng = np.random.default_rng(width)
    decay = 10.0 ** (-200.0 * np.arange(width) / (k - 1))
    terms = rng.uniform(0.5, 1.0, (cuts[-1], width)) * decay
    got = pgf.product(terms, k, pieces)
    assert len(got) == len(pieces)
    for (lo, hi), piece in zip(pieces, got):
        want = np.ones(1)
        for row in terms[lo:hi]:
            want = np.convolve(want, row)[:k]
        assert piece.shape == (k,)
        assert not piece[want.shape[0]:].any()
        rel = np.abs(piece[: want.shape[0]] - want) / want
        assert float(rel.max()) <= 1e-14, (lo, hi)
    assert got[sizes.index(0)].tolist() == _padded([1.0], k).tolist()


def test_product_of_no_rows_is_one():
    (got,) = pgf.product(np.zeros((0, 3)), 8, [(0, 0)])
    assert got.tolist() == _padded([1.0], 8).tolist()


def test_compound_at_large_k_matches_horner():
    # q s K > 2^18, where OpenBLAS runs the block product on its threads
    k = 520
    rng = np.random.default_rng(3)
    count, jump = rng.uniform(size=k), rng.uniform(size=k)
    count, jump = count / count.sum(), jump / jump.sum()
    want = np.array([count[-1]])
    for c in count[-2::-1]:
        want = np.convolve(want, jump)[:k]
        want[0] += c
    got = pgf.compound(count, jump, k)
    big = want >= 1e-300
    assert float(np.max(np.abs(got[big] - want[big]) / want[big])) <= 1e-12
