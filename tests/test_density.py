import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import expected_missing_diffs_by_subsets, missing_sum_probs_by_subsets
from gensumset import (
    Regime,
    SeriesConvergenceError,
    SignedCombination,
    b_constant,
    b_constant_finiteN_oracle,
    classify_regime,
    expected_missing_diffs_h2,
    expected_missing_sums_h2,
    g_closed_form_h2,
    g_series,
    limit_density,
    missing_sum_probability_h2,
    phase_constants,
    predicted_ratio,
    predicted_xk,
    rep_count,
)
from gensumset.density import missing_sums_asymptote_h2, quadrature_order


def test_limit_density_examples():
    assert limit_density(1.0, 2) == pytest.approx(1.0, abs=1e-14)
    assert limit_density(0.5, 2) == pytest.approx(0.5, abs=1e-14)
    assert limit_density(-0.1, 3) == 0.0
    assert limit_density(3.1, 3) == 0.0


def test_limit_density_matches_scaled_rep_count():
    # finite-N oracle: rep_count(n)/N^(h-1) at n' = u*N approaches the density
    N = 4000
    for h, combo in ((2, SignedCombination(1, 1)), (3, SignedCombination(2, 1)),
                     (4, SignedCombination(2, 2))):
        for u in (0.25, 0.5, 1.0, h / 2, h - 0.75):
            nprime = round(u * N)
            n = nprime - combo.d * N
            scaled = rep_count(n, combo, N) / N ** (h - 1)
            assert scaled == pytest.approx(limit_density(u, h), abs=5e-3), (h, u)


def test_limit_density_symmetry_and_peak():
    for h in range(2, 7):
        peak = limit_density(h / 2, h)
        for i in range(100):
            u = h * (i + 0.5) / 100
            assert limit_density(u, h) == pytest.approx(
                limit_density(h - u, h), abs=1e-12
            )
            assert limit_density(u, h) <= peak + 1e-12


def test_b_constant_h2_closed_form():
    for k in range(1, 11):
        assert b_constant(2, k) == pytest.approx(2 / math.factorial(k + 1), abs=1e-12)


def test_b_constant_normalization():
    for h in range(2, 7):
        assert b_constant(h, 1) == pytest.approx(1.0, abs=1e-12)


def test_b_constant_h3_exact_values():
    # hand integration of the piecewise polynomial: f3 is u^2/2 on [0,1] and
    # (-2u^2+6u-3)/2 on [1,2]; the square integrates to 11/20 over [0,3]
    assert b_constant(3, 1) == pytest.approx(1.0, abs=1e-12)
    assert b_constant(3, 2) == pytest.approx(11 / 40, abs=1e-12)


def test_phase_constants_table():
    table = phase_constants(4, 6)
    assert table.b[0] == pytest.approx(1.0, abs=1e-10)
    assert all(b > 0 for b in table.b)
    assert all(a > b for a, b in zip(table.b, table.b[1:]))
    assert table.quadrature_nodes == tuple(
        quadrature_order(4, k) for k in range(1, 7)
    )
    assert quadrature_order(2, 1) == 1
    assert quadrature_order(4, 3) == 5  # degree 9 needs 5 nodes


def test_finiteN_oracle_converges():
    assert b_constant_finiteN_oracle(2, 1, SignedCombination(1, 1), 1000) == (
        pytest.approx(1.0, abs=0.01)
    )
    assert b_constant_finiteN_oracle(2, 2, SignedCombination(1, 1), 2000) == (
        pytest.approx(1 / 3, abs=0.01)
    )
    got = b_constant_finiteN_oracle(3, 2, SignedCombination(2, 1), 2000)
    assert got == pytest.approx(b_constant(3, 2), rel=0.05)


def test_finiteN_oracle_gap_decreasing():
    cases = {2: SignedCombination(1, 1), 3: SignedCombination(2, 1),
             4: SignedCombination(2, 2)}
    for h, combo in cases.items():
        for k in (1, 2, 3):
            gaps = [
                abs(b_constant_finiteN_oracle(h, k, combo, N) - b_constant(h, k))
                for N in (250, 500, 1000, 2000)
            ]
            assert all(b < a for a, b in zip(gaps, gaps[1:])), (h, k, gaps)


def test_g_series_vs_closed_form():
    one_one = SignedCombination(1, 1)
    two_zero = SignedCombination(2, 0)
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        got = g_series(c, one_one, k_max=100)
        assert abs(got.value - g_closed_form_h2(c * c)) <= 1e-8
        got = g_series(c, two_zero, k_max=100)
        assert abs(got.value - g_closed_form_h2(c * c / 2)) <= 1e-8


def test_g_series_nonconvergence_is_reported():
    with pytest.raises(SeriesConvergenceError):
        g_series(4.0, SignedCombination(1, 1))  # default k_max=60 is not enough


def test_g_series_leading_term():
    for combo in (SignedCombination(1, 1), SignedCombination(2, 1)):
        c = 1e-3
        lead = c**combo.h / combo.block_permutations
        assert g_series(c, combo).value == pytest.approx(lead, rel=1e-3)


def _g_by_quadrature(c, combo, nodes=60):
    # independent route: integral of 1 - exp(-lambda * density) over [0, h]
    import numpy as np

    lam = c**combo.h / combo.block_permutations
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for j in range(combo.h):
        u = j + (x + 1.0) / 2.0
        f = np.array([limit_density(float(ui), combo.h) for ui in u])
        total += 0.5 * float(np.sum(w * -np.expm1(-lam * f)))
    return total


def test_g_series_vs_exponential_integral():
    for combo in (SignedCombination(1, 1), SignedCombination(2, 0),
                  SignedCombination(2, 1), SignedCombination(3, 0),
                  SignedCombination(2, 2)):
        for c in (0.5, 1.0, 2.0):
            series = g_series(c, combo, k_max=120).value
            assert series == pytest.approx(_g_by_quadrature(c, combo), abs=1e-9)


def test_g_series_monotonicity():
    grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    for combo in (SignedCombination(1, 1), SignedCombination(2, 1),
                  SignedCombination(3, 0)):
        values = [g_series(c, combo, k_max=100).value for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
    # fewer block permutations means a larger set at the same c and h
    for c in grid:
        assert (
            g_series(c, SignedCombination(1, 1), k_max=100).value
            > g_series(c, SignedCombination(2, 0), k_max=100).value
        )
        assert (
            g_series(c, SignedCombination(2, 1), k_max=100).value
            > g_series(c, SignedCombination(3, 0), k_max=100).value
        )


def test_g_closed_form_values():
    assert g_closed_form_h2(1.0) == pytest.approx(0.7357588823428847, abs=1e-12)
    # small-x expansion g(x) = x - x^2/3 + ...
    for x in (1e-7, 1e-4, 1e-2):
        assert g_closed_form_h2(x) == pytest.approx(x - x * x / 3, rel=1e-3)
    assert g_closed_form_h2(0.0) == 0.0
    assert g_closed_form_h2(50.0) == pytest.approx(2.0 - 2.0 / 50 * 49 / 50, rel=1e-2)


@given(st.floats(1e-6, 100.0))
def test_g_closed_form_range(x):
    assert 0.0 < g_closed_form_h2(x) < 2.0


def test_predicted_xk_examples():
    N, c, delta = 1000, 1.3, Fraction(3, 5)
    got = predicted_xk(2, 1, SignedCombination(2, 0), c, delta, N)
    assert got == pytest.approx(c**2 * N ** (2 - 2 * float(delta)) / 2, rel=1e-12)
    got = predicted_xk(2, 1, SignedCombination(1, 1), c, delta, N)
    assert got == pytest.approx(c**2 * N ** (2 - 2 * float(delta)), rel=1e-12)
    # at the critical exponent the N power collapses to N
    for h, combo in ((2, SignedCombination(1, 1)), (3, SignedCombination(2, 1))):
        got = predicted_xk(h, 1, combo, c, Fraction(h - 1, h), N)
        assert got == pytest.approx(c**h * N / combo.block_permutations, rel=1e-12)


def test_classify_regime():
    assert classify_regime(3, Fraction(7, 10)) is Regime.FAST
    assert classify_regime(3, Fraction(2, 3)) is Regime.CRITICAL
    assert classify_regime(2, Fraction(3, 10)) is Regime.SLOW_H2
    assert classify_regime(3, Fraction(1, 2)) is Regime.SLOW
    with pytest.raises(TypeError):
        classify_regime(2, 0.5)
    with pytest.raises(ValueError):
        classify_regime(2, Fraction(3, 2))


def test_predicted_ratio():
    assert predicted_ratio(
        SignedCombination(2, 1), SignedCombination(3, 0), Regime.FAST
    ) == pytest.approx(3.0)
    assert predicted_ratio(
        SignedCombination(1, 1), SignedCombination(2, 0), Regime.FAST
    ) == pytest.approx(2.0)
    combo = SignedCombination(2, 1)
    assert predicted_ratio(combo, combo, Regime.FAST) == 1.0
    got = predicted_ratio(
        SignedCombination(1, 1), SignedCombination(2, 0), Regime.CRITICAL, c=1.0
    )
    assert got == pytest.approx(g_closed_form_h2(1.0) / g_closed_form_h2(0.5), rel=1e-9)
    with pytest.raises(ValueError):
        predicted_ratio(SignedCombination(1, 1), SignedCombination(2, 0), Regime.SLOW_H2)
    with pytest.raises(ValueError):
        predicted_ratio(SignedCombination(1, 1), SignedCombination(2, 1), Regime.FAST)


def test_fast_ratio_favors_more_minus_signs():
    # whenever the first combo has strictly more minus signs, the predicted
    # ratio is at least 1
    combos = [SignedCombination(s, d) for s in range(1, 5) for d in range(s + 1)
              if s + d >= 2]
    for c1 in combos:
        for c2 in combos:
            if c1.h == c2.h and c1.d > c2.d:
                assert predicted_ratio(c1, c2, Regime.FAST) >= 1.0


def test_missing_sum_probability_examples():
    for p in (0.1, 0.5, 0.9):
        assert missing_sum_probability_h2(0, 10, p) == pytest.approx(1 - p, abs=1e-15)
        assert missing_sum_probability_h2(1, 10, p) == pytest.approx(
            1 - p * p, abs=1e-15
        )
        # reflection across the top of the range
        assert missing_sum_probability_h2(20, 10, p) == pytest.approx(
            1 - p, abs=1e-15
        )


@pytest.mark.parametrize("p", [0.3, 0.5, 0.71])
@pytest.mark.parametrize("N", [1, 4, 9, 12])
def test_missing_sum_probability_vs_subset_enumeration(N, p):
    oracle = missing_sum_probs_by_subsets(N, p)
    for n in range(2 * N + 1):
        assert abs(missing_sum_probability_h2(n, N, p) - oracle[n]) < 1e-12, (N, p, n)


def test_expected_missing_sums():
    for p in (0.3, 0.5):
        for N in (2, 6, 10):
            oracle = math.fsum(missing_sum_probs_by_subsets(N, p))
            assert expected_missing_sums_h2(N, p) == pytest.approx(oracle, abs=1e-12)
    assert expected_missing_sums_h2(0, 0.25) == pytest.approx(0.75)
    assert expected_missing_sums_h2(5000, 0.5) == pytest.approx(10.0, abs=0.01)
    assert expected_missing_sums_h2(10**6, 0.01) == pytest.approx(
        missing_sums_asymptote_h2(0.01), rel=0.01
    )


def test_expected_missing_diffs():
    for p in (0.3, 0.5):
        for N in (1, 4, 8, 10):
            oracle = expected_missing_diffs_by_subsets(N, p)
            assert expected_missing_diffs_h2(N, p) == pytest.approx(oracle, abs=1e-12)
    # the fixed p = 1/2 limit is 6; p -> 0 behaves like 2/p^2
    assert expected_missing_diffs_h2(400, 0.5) == pytest.approx(6.0, abs=0.01)
    assert expected_missing_diffs_h2(10**6, 0.01) == pytest.approx(
        2.0 / 0.01**2, rel=0.01
    )


@given(st.integers(1, 9), st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_missing_sum_law_hypothesis(N, p):
    oracle = missing_sum_probs_by_subsets(N, p)
    for n in range(2 * N + 1):
        assert abs(missing_sum_probability_h2(n, N, p) - oracle[n]) < 1e-12


# The per-value loops the two exact laws were first written as.  The laws now
# share chain recurrences and work in numpy, and must keep every bit.


def _expected_missing_sums_loop(N, p):
    if N == 0:
        return 1.0 - p
    terms = [missing_sum_probability_h2(N, N, p)]
    for n in range(N):
        t = missing_sum_probability_h2(n, N, p)
        terms.append(2.0 * t)
        if t < 1e-30 and n % 2 == 1:
            break
    return math.fsum(terms)


def _expected_missing_diffs_loop(N, p):
    q = 1.0 - p
    pair_free = math.log1p(-p * p)
    terms = [q ** (N + 1)]
    for n in range(1, N + 1):
        if (N + 1 - n) * pair_free / 2.0 < -70.0:
            continue
        length, longer = divmod(N + 1, n)
        prev, cur = 1.0, 1.0
        for _ in range(length):
            prev, cur = cur, q * cur + p * q * prev
        missing = cur**longer * prev ** (n - longer)
        terms.append(2.0 * missing)
    return math.fsum(terms)


@pytest.mark.parametrize(
    "N, p",
    [
        (100, 0.5),
        (1000, 0.1),
        (10**4, 0.03),
        (2 * 10**5, (2 * 10**5) ** -0.3),
        (10**6, (10**6) ** -0.3),
        (3 * 10**6, (3 * 10**6) ** -0.3),
    ],
)
def test_missing_laws_equal_the_loops_bit_for_bit(N, p):
    assert expected_missing_sums_h2(N, p) == _expected_missing_sums_loop(N, p)
    assert expected_missing_diffs_h2(N, p) == _expected_missing_diffs_loop(N, p)


@given(st.integers(0, 400), st.floats(0.01, 0.99))
@example(400, 0.9)
@example(399, 0.9)
@example(1, 0.5)
@settings(max_examples=80, deadline=None)
def test_missing_laws_equal_the_loops_small_n(N, p):
    # Covers both parities of N, sums cut short by the 1e-30 tail and sums
    # run to the midpoint, and differences with and without skipped n.
    assert expected_missing_sums_h2(N, p) == _expected_missing_sums_loop(N, p)
    assert expected_missing_diffs_h2(N, p) == _expected_missing_diffs_loop(N, p)
