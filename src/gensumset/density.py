"""Limit densities, phase constants, and closed-form predictions.

Scaled by N**(h-1), the representation counts converge to the density of a
sum of h independent uniform [0,1] variables (the Irwin-Hall density); the
overlap moments of that density are the constants b_{h,k} driving the
critical-decay series g(c; s, d).  This module evaluates all of them in
double precision, plus the exact missing-value laws for the two-summand
slow-decay regime.

Everything is a pure function; the constant tables are cached and safe for
concurrent reads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, takewhile
from typing import NamedTuple

import numpy as np

from .combinat import SignedCombination, rep_counts_all

# Large-N limiting fraction of subsets at p = 1/2 whose sumset beats their
# difference set (literature value); experiments assert a window around it.
SUM_DOMINATED_LIMIT_FRACTION = 4.5e-4

# Slow-decay limit of (missing sums) / (missing differences) for two summands.
COMPLEMENT_RATIO_LIMIT_H2 = 2.0


def missing_sums_asymptote_h2(p: float) -> float:
    """Leading-order missing-sum count 4/p^2 in the two-summand slow regime."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return 4.0 / (p * p)


class SeriesConvergenceError(RuntimeError):
    """The alternating series did not meet its tolerance within the term cap."""


class SeriesValue(NamedTuple):
    value: float
    terms_used: int


class Regime(Enum):
    FAST = "fast"
    CRITICAL = "critical"
    SLOW_H2 = "slow-h2"
    SLOW = "slow"


@dataclass(frozen=True)
class PhaseConstants:
    """Table of the overlap-moment constants for one h.

    b[k-1] holds the order-k constant; quadrature_nodes[k-1] records how many
    Gauss-Legendre nodes per unit interval were used (enough to integrate the
    degree-(h-1)k piecewise polynomial exactly).
    """

    h: int
    k_max: int
    b: tuple[float, ...]
    quadrature_nodes: tuple[int, ...]


def limit_density(u: float, h: int) -> float:
    """Density of a sum of h uniform [0,1] variables, evaluated at u.

    This is the scaling limit of rep_count(n)/N**(h-1) at u = (n + dN)/N.
    Evaluated on the left half and reflected: the density is symmetric about
    h/2 and the alternating sum is much better conditioned for small u.
    """
    if h < 2:
        raise ValueError(f"h must be at least 2, got {h}")
    if u < 0.0 or u > h:
        return 0.0
    if u > h / 2:
        u = h - u
    terms = []
    for i in range(math.floor(u) + 1):
        t = math.comb(h, i) * (u - i) ** (h - 1)
        terms.append(-t if i & 1 else t)
    return math.fsum(terms) / math.factorial(h - 1)


@lru_cache(maxsize=256)
def _gauss_legendre(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def quadrature_order(h: int, k: int) -> int:
    """Nodes per unit interval that integrate degree-(h-1)k polynomials exactly."""
    return ((h - 1) * k + 2) // 2


@lru_cache(maxsize=4096)
def b_constant(h: int, k: int) -> float:
    """Order-k overlap moment of the limit density: (1/k!) * integral of f^k.

    Per-unit-interval Gauss-Legendre quadrature; the integrand is polynomial
    of degree (h-1)k between integer breakpoints, so the fixed order is exact
    up to rounding.  b(h, 1) = 1 for every h (the density has unit mass).
    """
    if h < 2:
        raise ValueError(f"h must be at least 2, got {h}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    nodes, weights = _gauss_legendre(quadrature_order(h, k))
    contributions = []
    for j in range(h):
        for x, w in zip(nodes, weights):
            u = j + (x + 1.0) / 2.0
            contributions.append(0.5 * w * limit_density(u, h) ** k)
    return math.fsum(contributions) / math.factorial(k)


def phase_constants(h: int, k_max: int) -> PhaseConstants:
    """Tabulate b(h, k) for k = 1..k_max with quadrature metadata."""
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    return PhaseConstants(
        h=h,
        k_max=k_max,
        b=tuple(b_constant(h, k) for k in range(1, k_max + 1)),
        quadrature_nodes=tuple(quadrature_order(h, k) for k in range(1, k_max + 1)),
    )


def _falling_binom(x: float, k: int) -> float:
    """x(x-1)...(x-k+1)/k! for real x."""
    out = 1.0
    for i in range(k):
        out *= x - i
    return out / math.factorial(k)


def b_constant_finiteN_oracle(
    h: int, k: int, combo: SignedCombination, N: int
) -> float:
    """Finite-N estimate of b(h, k) from exact representation counts.

    Sums the k-subset counts of the per-value representation classes and
    rescales by (s!d!)^k / N^((h-1)k+1); converges to b_constant(h, k) as N
    grows.  Independent of the quadrature path, so the two arbitrate each
    other.
    """
    if combo.h != h:
        raise ValueError(f"combo {combo} has h={combo.h}, expected {h}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    perm = combo.block_permutations
    table = rep_counts_all(combo, N)
    total = math.fsum(_falling_binom(c / perm, k) for c in table.counts)
    return total * perm**k / N ** ((h - 1) * k + 1)


def g_series(
    c: float, combo: SignedCombination, k_max: int = 60, tol: float = 1e-14
) -> SeriesValue:
    """Critical-decay cardinality constant: alternating series in b(h, k).

    Sums (-1)^(k-1) b(h,k) (c^h / (s!d!))^k until two consecutive terms drop
    below tol times the running partial sum; raises if k_max terms are not
    enough.  The returned value is the exactly-rounded sum of the evaluated
    terms, which matters: mid-series terms can exceed the limit by orders of
    magnitude when c is large.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    y = c**combo.h / combo.block_permutations
    terms: list[float] = []
    partial = 0.0
    previous_small = False
    for k in range(1, k_max + 1):
        t = b_constant(combo.h, k) * y**k
        if k % 2 == 0:
            t = -t
        terms.append(t)
        partial += t
        small = abs(t) <= tol * abs(partial)
        if small and previous_small:
            return SeriesValue(math.fsum(terms), k)
        previous_small = small
    raise SeriesConvergenceError(
        f"series for c={c}, combo={combo} did not reach tol={tol} "
        f"within k_max={k_max} terms"
    )


def g_closed_form_h2(x: float) -> float:
    """Two-summand closed form 2(exp(-x) - (1 - x))/x, extended by 0 at x = 0.

    Strictly increasing from 0 to 2.  The critical-decay series for two
    summands sums to exactly this at x = c^2/(s!d!).
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < 1e-5:
        # Taylor head; the expm1 form loses relative accuracy as x -> 0.
        return x * (1.0 - x / 3.0 + x * x / 12.0)
    return 2.0 * (math.expm1(-x) + x) / x


def predicted_xk(
    h: int,
    k: int,
    combo: SignedCombination,
    c: float,
    delta: Fraction | float,
    N: int,
) -> float:
    """Expected number of k-fold collision classes among sampled h-tuples.

    b(h,k) c^(hk) / (s!d!)^k * N^((h-1)k + 1 - hk*delta).  At the critical
    exponent delta = (h-1)/h the N-power collapses to N itself.
    """
    if combo.h != h:
        raise ValueError(f"combo {combo} has h={combo.h}, expected {h}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    exponent = (h - 1) * k + 1 - h * k * float(delta)
    return b_constant(h, k) * c ** (h * k) / combo.block_permutations**k * N**exponent


def classify_regime(h: int, delta: Fraction) -> Regime:
    """Place a decay exponent relative to the transition point (h-1)/h.

    delta must be exact (Fraction, or a string like "2/3"); floats are
    rejected because equality with the transition point must be decidable.
    """
    if h < 2:
        raise ValueError(f"h must be at least 2, got {h}")
    if isinstance(delta, float):
        raise TypeError("delta must be an exact rational (Fraction or string), not float")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    boundary = Fraction(h - 1, h)
    if delta > boundary:
        return Regime.FAST
    if delta == boundary:
        return Regime.CRITICAL
    return Regime.SLOW_H2 if h == 2 else Regime.SLOW


def predicted_ratio(
    combo1: SignedCombination,
    combo2: SignedCombination,
    regime: Regime,
    c: float | None = None,
) -> float:
    """Predicted |A_{s1,d1}| / |A_{s2,d2}| in the fast or critical regime."""
    if combo1.h != combo2.h:
        raise ValueError(
            f"combos must share the total summand count, got {combo1} and {combo2}"
        )
    if regime is Regime.FAST:
        return combo2.block_permutations / combo1.block_permutations
    if regime is Regime.CRITICAL:
        if c is None:
            raise ValueError("critical-regime ratio needs the coefficient c")
        return g_series(c, combo1).value / g_series(c, combo2).value
    raise ValueError(f"no general ratio prediction in regime {regime.value}")


def missing_sum_probability_h2(n: int, N: int, p: float) -> float:
    """Probability that n is missing from A+A under the binomial model.

    Exact for every n in [0, 2N]: the pair representations of n are disjoint
    element sets for n <= N, and n > N reduces to 2N - n by reflecting the
    ground set.
    """
    if not 0 <= n <= 2 * N:
        raise ValueError(f"n must lie in [0, {2 * N}], got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if n > N:
        n = 2 * N - n
    q = 1.0 - p * p
    if n % 2 == 0:
        return q ** (n // 2) * (1.0 - p)
    return q ** ((n + 1) // 2)


def expected_missing_sums_h2(N: int, p: float) -> float:
    """Expected count of values in [0, 2N] missing from A+A; exact.

    Direct sum of the per-value missing probabilities, folded across the
    midpoint; terms below 1e-30 are dropped (the truncated tail is smaller
    than 2N * 1e-30).  Tends to 4/p^2 as p -> 0 with N p^2 -> infinity.
    Powers come from Python's pow, term by term, and the rest is correctly
    rounded elementwise arithmetic, so every term has the bits of the
    per-value loop over missing_sum_probability_h2.
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if N == 0:
        return 1.0 - p
    q = 1.0 - p * p
    # odd[m-1] = q**m is the missing probability of the odd value 2m-1 < N.
    # Odd-value probabilities dominate every later term, so the sum stops at
    # the first one below 1e-30.
    half = N // 2
    odd = np.fromiter(takewhile((1e-30).__le__, map(q.__pow__, range(1, half + 1))),
                      dtype=float)
    if odd.size < half:
        odd = np.append(odd, q ** (odd.size + 1))
        n_even = odd.size
    else:
        n_even = (N + 1) // 2
    even = np.concatenate(([1.0], odd[: n_even - 1])) * (1.0 - p)  # values 0, 2, ...
    middle = missing_sum_probability_h2(N, N, p)
    return math.fsum(chain((middle,), 2.0 * odd, 2.0 * even))


@lru_cache(maxsize=64)
def expected_missing_diffs_h2(N: int, p: float) -> float:
    """Expected count of values in [-N, N] missing from A-A; exact.

    A difference n >= 1 is present iff some residue chain {r, r+n, r+2n, ...}
    contains two adjacent chosen elements, and distinct chains are disjoint,
    so the missing probability is a product of per-chain no-adjacent-pair
    probabilities (a linear three-term recurrence in the chain length).
    Tends to 2(1-p^2)/p^2 as N -> infinity; 6 at p = 1/2.

    Every n with the same chain length (N+1)//n shares the recurrence's
    value, so it runs once, up to the longest chain, and the n of one
    length are done together with Python's pow and elementwise products:
    each term has the bits of a per-n loop.
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    q = 1.0 - p
    pq = p * q
    pair_free = math.log1p(-p * p)  # log P(one disjoint adjacent pair not chosen)

    # The chains jointly contain N+1-n adjacent pairs, at least half of them
    # disjoint, which bounds the missing probability from above; interior n
    # whose bound is already negligible are skipped.  The bound grows with n.
    def kept(n):
        return not (N + 1 - n) * pair_free / 2.0 < -70.0

    first = 1 + bisect_left(range(1, N + 1), True, key=kept)
    terms = [np.array([q ** (N + 1)])]  # 0 is missing iff A is empty
    prev, cur = 1.0, 1.0  # no-pair probabilities for chain lengths 0 and 1
    steps = 0
    hi = N
    while hi >= first:
        length = (N + 1) // hi
        lo = max(first, (N + 1) // (length + 1) + 1)
        for _ in range(length - steps):
            prev, cur = cur, q * cur + pq * prev
        steps = length
        # For n in [lo, hi], N+1 - length*n chains have length + 1 elements
        # and the other (length+1)*n - (N+1) have length.
        count = hi - lo + 1
        longer = range(N + 1 - length * lo, N - length * hi, -length)
        shorter = range((length + 1) * lo - N - 1, (length + 1) * hi - N, length + 1)
        missing = np.fromiter(map(cur.__pow__, longer), dtype=float, count=count)
        if length > 1:  # else prev is 1.0, and 1.0 ** k is exactly 1.0
            missing *= np.fromiter(map(prev.__pow__, shorter), dtype=float, count=count)
        missing *= 2.0
        terms.append(missing)
        hi = lo - 1
    return math.fsum(chain.from_iterable(terms))
