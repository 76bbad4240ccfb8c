import math
import random
from collections import Counter
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    expected_missing_diffs_by_subsets,
    missing_sum_probs_by_subsets,
    peak_traced_bytes,
)
from gensumset import (
    Regime,
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
    predicted_ratio,
    predicted_xk,
    rep_count,
)
from gensumset import density
from gensumset.density import _pieces, _times, missing_sums_asymptote_h2


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


def test_b_constant_is_the_correctly_rounded_rational():
    for k in range(1, 31):
        assert b_constant(2, k) == float(Fraction(2, math.factorial(k + 1)))
    assert b_constant(3, 2) == 11 / 40
    assert b_constant(4, 2) == float(Fraction(151, 630))


def test_b_table_is_built_once_per_h(monkeypatch):
    # b(h, 1..k) costs k products of the pieces, however k grows, and each
    # value is the exact rational for its own k rounded once, whatever was
    # asked for before it.
    products = []

    def counted(p, q):
        products.append(1)
        return _times(p, q)

    monkeypatch.setattr(density, "_B_TABLES", {})
    monkeypatch.setattr(density, "_times", counted)
    for k in range(1, 41):
        b_constant(4, k)
    assert len(products) == 4 * 40
    b_constant(4, 25)
    assert len(products) == 4 * 40
    monkeypatch.undo()
    for h, k in [(2, 9), (3, 17), (4, 40), (6, 12)]:
        power = [(1,)] * h
        for _ in range(k):
            power = list(map(_times, power, _pieces(h)))
        exact = sum(Fraction(a, m + 1) for m, a in enumerate(map(sum, zip(*power))))
        assert b_constant(h, k) == float(
            exact / (math.factorial(h - 1) ** k * math.factorial(k)))


def test_b_constant_normalization():
    for h in range(2, 7):
        assert b_constant(h, 1) == pytest.approx(1.0, abs=1e-12)


def test_b_constant_h3_exact_values():
    # hand integration of the piecewise polynomial: f3 is u^2/2 on [0,1] and
    # (-2u^2+6u-3)/2 on [1,2]; the square integrates to 11/20 over [0,3]
    assert b_constant(3, 1) == pytest.approx(1.0, abs=1e-12)
    assert b_constant(3, 2) == pytest.approx(11 / 40, abs=1e-12)


def test_phase_constants_table():
    table = [b_constant(4, k) for k in range(1, 7)]
    assert table[0] == pytest.approx(1.0, abs=1e-10)
    assert all(b > 0 for b in table)
    assert all(a > b for a, b in zip(table, table[1:]))


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
        got = g_series(c, one_one)
        assert abs(got - g_closed_form_h2(c * c)) <= 1e-8
        got = g_series(c, two_zero)
        assert abs(got - g_closed_form_h2(c * c / 2)) <= 1e-8
    # the closed form itself is good to about 1e-15 relative
    for i in range(80):
        c = 0.25 + i * 0.25
        for combo, x in ((one_one, c * c), (two_zero, c * c / 2)):
            assert g_series(c, combo) == pytest.approx(g_closed_form_h2(x), rel=2e-15)


def test_g_series_large_c_evaluates():
    # from c = 4 on, the alternating series' terms grow past 10^4 before
    # they cancel, more than double precision can sum
    for s, d in ((1, 1), (2, 0), (2, 1), (3, 0), (2, 2), (3, 1)):
        combo = SignedCombination(s, d)
        values = [g_series(c, combo) for c in (4.0, 6.0, 20.0)]
        assert 0.0 < values[0] < values[1] < values[2] < combo.h, (s, d, values)


@lru_cache(maxsize=None)
def _b_exact(h, terms):
    # b(h, k) for k = 1..terms as exact rationals: (1/k!) * integral of f^k
    # over the density's integer pieces, before any rounding.
    powers, table = [(1,)] * h, []
    for k in range(1, terms + 1):
        powers = list(map(_times, powers, _pieces(h)))
        integral = sum(Fraction(a, m + 1) for m, a in enumerate(map(sum, zip(*powers))))
        table.append(integral / (math.factorial(h - 1) ** k * math.factorial(k)))
    return tuple(table)


def test_g_series_is_the_correctly_rounded_series():
    # Oracle: the alternating series summed exactly in rationals at the exact
    # y of the float c.  For c <= 3 and h <= 5 the terms past k = 130 are
    # below 1e-80, far under half an ulp of g.
    for s, d in ((1, 1), (2, 0), (2, 1), (3, 0), (2, 2), (3, 1), (4, 0), (3, 2)):
        combo = SignedCombination(s, d)
        for c in (0.001, 0.5, 2.0, 3.0):
            y = Fraction(c) ** combo.h / combo.block_permutations
            total, power = Fraction(0), Fraction(1)
            for k, b in enumerate(_b_exact(combo.h, 130), start=1):
                power *= y
                total += b * power if k % 2 else -b * power
            assert g_series(c, combo) == float(total), (s, d, c)


def test_g_series_refuses_bad_c():
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            g_series(c, SignedCombination(1, 1))


def test_g_series_leading_term():
    for combo in (SignedCombination(1, 1), SignedCombination(2, 1)):
        c = 1e-3
        lead = c**combo.h / combo.block_permutations
        assert g_series(c, combo) == pytest.approx(lead, rel=1e-3)


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
            series = g_series(c, combo)
            assert series == pytest.approx(_g_by_quadrature(c, combo), abs=1e-9)


def test_g_series_monotonicity():
    grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    for combo in (SignedCombination(1, 1), SignedCombination(2, 1),
                  SignedCombination(3, 0)):
        values = [g_series(c, combo) for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
    # fewer block permutations means a larger set at the same c and h
    for c in grid:
        assert (
            g_series(c, SignedCombination(1, 1))
            > g_series(c, SignedCombination(2, 0))
        )
        assert (
            g_series(c, SignedCombination(2, 1))
            > g_series(c, SignedCombination(3, 0))
        )
    # increasing and below h also where the series' terms cancel heavily
    wide = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0]
    for combo in (SignedCombination(2, 1), SignedCombination(3, 2),
                  SignedCombination(5, 0)):
        values = [g_series(c, combo) for c in wide]
        assert all(b > a for a, b in zip(values, values[1:])), combo
        assert values[-1] < combo.h


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


def _rounded_once(x, k):
    """x**k rounded once to a double: by exact rationals where they are cheap,
    else by 80-digit decimal powering, asserted far enough from every
    rounding midpoint for its few roundings not to matter."""
    if k <= 256:
        return float(Fraction(x) ** k)
    with localcontext(Context(prec=80)):
        power = Decimal(x) ** k
        y = float(power)
        if y == 0.0:
            assert power < Decimal(2) ** -1075 * (1 - Decimal(10) ** -60)
            return y
        for side in (-1, 1):
            midpoint = (Decimal(y) + Decimal(math.nextafter(y, side * math.inf))) / 2
            assert abs(power - midpoint) > power * Decimal(10) ** -60, (x, k)
    return y


# Bases 1 - p^2 over a sweep of p, slow_h2's among them; and 0.75 and 0.5625,
# whose short mantissas put some powers exactly on a rounding midpoint.
_POWER_BASES = [1.0 - p * p for p in (1e-4, (10**6) ** -0.3, 0.02, 0.1, 0.3, 0.5, 0.9)]
_POWER_BASES += [0.75, 0.5625]


@pytest.mark.parametrize("step", [1, 2, 3, -1, -2, -3])
@pytest.mark.parametrize("base", _POWER_BASES)
def test_powers_round_once(base, step):
    rng = random.Random(f"{base}/{step}")
    # Runs from about 2**-1000 into the subnormals, for bases whose powers
    # get there by 2**20.
    below_normal = min(int(-1000 / math.log2(base)), 2**20 - (1 << 14) * abs(step))
    starts = [0, 1, 30, below_normal, rng.randrange(2**20), 2**20 - (1 << 14) * abs(step)]
    for start in starts:
        for count in (1, 300, 5000, 1 << 14):
            first = start if step > 0 else start + (count - 1) * -step
            powers = density._powers(base, first, step, count)
            for i in {0, count - 1, *rng.sample(range(count), min(count, 8))}:
                k = first + i * step
                assert powers[i] == _rounded_once(base, k), (base, k)


def test_powers_settle_exact_midpoints_exactly(monkeypatch):
    # 0.75**34 = 3**34 / 2**68 has 54 significant bits: it lies on a rounding
    # midpoint, which no double-double error bound can decide.
    exact = []
    power = density._power
    monkeypatch.setattr(density, "_power", lambda x, k: exact.append(k) or power(x, k))
    assert density._powers(0.75, 0, 1, 64)[34] == float(Fraction(3, 4) ** 34)
    assert 34 in exact


@pytest.mark.parametrize("N, p", [(10**6, (10**6) ** -0.3), (100, 0.5), (9, 0.71)])
def test_missing_sum_probability_rounds_its_power_once(N, p):
    q = 1.0 - p * p
    for n in [*range(12), N - 1, N, 2 * N - 7]:
        m = min(n, 2 * N - n)
        expected = (_rounded_once(q, (m + 1) // 2) if m % 2
                    else _rounded_once(q, m // 2) * (1.0 - p))
        assert missing_sum_probability_h2(n, N, p) == expected, n


# The per-value loops the two exact laws were first written as.  The laws now
# share chain recurrences, take runs of correctly rounded powers, and sum
# every term exactly in chunks, stopping only once the rest cannot change the
# rounded sum; they must keep every bit.  The loops keep their old cutoffs
# (terms below 1e-30, n whose disjoint-pair bound is below e**-70), which drop
# only terms that never reach the rounding at the tested (N, p); without them
# the differences loop would run its recurrence about N ln N steps at
# N = 3 * 10**6.  The loops take each power on its own, correctly rounded,
# since libm's pow may round either way.


def _rounded_powers(N):
    """A function x, k -> x**k correctly rounded.  Up to N = 10**4 it is
    density._power, which rounds exact integer bounds of the power and
    shares no code with the laws' double-double runs.  Above, a million
    calls of it would take about 10 s, so each x asked for more than 64
    times reads a table of density._powers(x, 0, 1, .) from then on.  The
    laws take their powers from the same function, so each table's first
    and last entries and 32 sampled ones are checked against exact
    rationals or 80-digit decimals (_rounded_once) when it is built.
    """
    if N <= 10**4:
        return density._power
    tables, asked = {}, Counter()

    def power(x, k):
        try:
            return tables[x][k]
        except (KeyError, IndexError):
            asked[x] += 1
            if asked[x] <= 64:
                return density._power(x, k)
            table = density._powers(x, 0, 1, 2 * k + 2)
            rng = random.Random(f"{x}/{k}")
            for i in {0, table.size - 1, *rng.sample(range(table.size), min(table.size, 32))}:
                assert table[i] == _rounded_once(x, i), (x, i)
            tables[x] = memoryview(table)
            return tables[x][k]

    return power


def _expected_missing_sums_loop(N, p):
    if N == 0:
        return 1.0 - p
    q = 1.0 - p * p
    power = _rounded_powers(N)

    def probability(n):  # missing_sum_probability_h2(n, N, p)
        if n > N:
            n = 2 * N - n
        return power(q, (n + 1) // 2) if n % 2 else power(q, n // 2) * (1.0 - p)

    terms = [probability(N)]
    for n in range(N):
        t = probability(n)
        terms.append(2.0 * t)
        if t < 1e-30 and n % 2 == 1:
            break
    return math.fsum(terms)


def _expected_missing_diffs_loop(N, p):
    q = 1.0 - p
    power = _rounded_powers(N)
    pair_free = math.log1p(-p * p)
    terms = [power(q, N + 1)]
    for n in range(1, N + 1):
        if (N + 1 - n) * pair_free / 2.0 < -70.0:
            continue
        length, longer = divmod(N + 1, n)
        prev, cur = 1.0, 1.0
        for _ in range(length):
            prev, cur = cur, q * cur + p * q * prev
        missing = power(cur, longer) * power(prev, n - longer)
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
        # the differences law settles after 6 chunks, inside the 250k n of
        # chain length 1
        (499_999, 499_999**-0.3),
        # sums run to the midpoint across several chunks, at both parities of
        # N; the loops' cutoffs drop no term, and chain length 3 alone spans
        # 16.7k n
        (10**5, 0.001),
        (10**5 + 1, 0.001),
        (2 * 10**5, 0.02),
        # both laws sum a whole first chunk of 2**14 powers, far past the
        # loops' cutoffs, most of them zero
        (10**5, 0.5),
    ],
)
def test_missing_laws_equal_the_loops_bit_for_bit(N, p):
    assert expected_missing_sums_h2(N, p) == _expected_missing_sums_loop(N, p)
    assert expected_missing_diffs_h2(N, p) == _expected_missing_diffs_loop(N, p)


@given(st.integers(0, 400), st.floats(0.01, 0.99))
@example(400, 0.9)
@example(399, 0.9)
@example(1, 0.5)
@example(300, 2**-30)
@example(301, 1 - 2**-30)
@settings(max_examples=80, deadline=None)
def test_missing_laws_equal_the_loops_small_n(N, p):
    # Covers both parities of N, and loops cut short by their cutoffs or run
    # to the end; the laws sum every term either way.  At p = 2**-30,
    # 1 - p**2 is 1.0: no sums term decays, so no stop fires before the
    # midpoint.
    assert expected_missing_sums_h2(N, p) == _expected_missing_sums_loop(N, p)
    assert expected_missing_diffs_h2(N, p) == _expected_missing_diffs_loop(N, p)


def test_missing_laws_stop_once_settled(monkeypatch):
    counted = []
    powers = density._powers
    monkeypatch.setattr(density, "_powers", lambda base, start, step, count, out=None:
                        counted.append(count) or powers(base, start, step, count, out))
    # At slow_h2's N and p the laws stop long before the loops' cutoffs:
    # they evaluated 892,928 powers when they ran to them.
    N = 10**6
    p = N**-0.3
    expected_missing_sums_h2(N, p)
    expected_missing_diffs_h2(N, p)
    assert sum(counted) <= 400_000
    # Every n is kept and chain length 1 ends at n = 10**5.  The differences
    # law evaluated 293,216 powers here while its stop bounded the terms of
    # longer chains by the square root of their disjoint-pair bound.
    counted.clear()
    expected_missing_diffs_h2(2 * 10**5, 0.02)
    assert sum(counted) <= 100_000


# Non-negative finite doubles: zeros, subnormals, the largest binades, and
# long runs inside one binade whose mantissas fill every bit, so that the
# per-exponent half sums reach their largest.
_doubles = st.one_of(
    st.floats(0.0, 2.0**1000),
    st.floats(0.0, 2.0**-1000),
    st.sampled_from([0.0, 5e-324, math.ldexp(1.0 - 2.0**-52, -1022), 2.0**-1022]),
)
_runs = st.builds(lambda x, k: [x] * k, st.one_of(_doubles, st.sampled_from(
    [math.ldexp(2.0 - 2.0**-52, e) for e in (-1022, -1, 0, 52, 999)])),
    st.integers(1, 1 << 14))


@given(st.lists(st.one_of(_doubles.map(lambda x: [x]), _runs), max_size=12),
       st.sampled_from([[], [2.0**1023], [math.ldexp(2.0 - 2.0**-52, 1022)]]))
@settings(max_examples=200, deadline=None)
def test_exact_sum_rounds_as_fsum(pieces, huge):
    terms = [x for piece in pieces for x in piece] + huge
    assert density._exact_sum(np.array(terms, dtype=float)) / 2**1126 == math.fsum(terms)


@given(st.floats(2.0**-1022, 2.0**1000), st.floats(5e-324, 2.0**1000))
@settings(max_examples=200, deadline=None)
def test_a_total_on_a_midpoint_that_rounds_down_never_settles(x, tail):
    if int.from_bytes(np.float64(x).tobytes(), "little") & 1:
        x = math.nextafter(x, 0.0)  # an even mantissa, so x + ulp/2 rounds to x
    midpoint = density._units(x) + density._units(math.ulp(x)) // 2
    assert midpoint / 2**1126 == x
    assert not density._settled(midpoint, tail)
    assert density._settled(midpoint, 0.0)


@given(st.floats(2.0**-1022, 2.0**1000))
@settings(max_examples=200, deadline=None)
def test_a_total_far_from_a_midpoint_settles(x):
    total = density._units(x)
    assert density._settled(total, math.ulp(x) / 4)
    assert density._settled(total, math.nextafter(math.ulp(x) / 2, 0.0))
    assert not density._settled(total, math.ulp(x))
    assert not density._settled(total, math.inf)


def test_missing_laws_stream_their_terms():
    # Each law holds no full-length array: its traced peak stays below
    # 1.25 MB, where slow_h2's 557k terms alone take 4.5 MB.  At (10**5,
    # 0.001) the differences law keeps every n, over 631 chain lengths.
    for N, p in [(10**6, (10**6) ** -0.3), (10**5, 0.001)]:
        for law in (expected_missing_sums_h2, expected_missing_diffs_h2):
            peak = peak_traced_bytes(lambda: law(N, p))
            assert peak < 1.25 * 2**20, (law.__name__, N, peak)
