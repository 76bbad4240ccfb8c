"""Limit densities, phase constants, and closed-form predictions.

Scaled by N**(h-1), the representation counts converge to the density of a
sum of h independent uniform [0,1] variables (the Irwin-Hall density); the
overlap moments b_{h,k} of that density and the critical-decay constant
g(c; s, d), the sum of a series in them, are integrals over one table of
integer polynomial pieces, each computed past double precision and rounded
once.  Also here: the exact missing-value laws for two-summand slow decay,
sums of terms built from correctly rounded powers, largest first, added
exactly in chunks and rounded once; each law stops as soon as a bound on
the terms it has not yet added proves that they cannot change the rounded
sum.  The powers come in runs, each a cached table of double-doubles
times the run's first power (_powers): one run a chunk for the sums law,
its odd terms, whose products by 1 - p are its even ones, and two runs a
chunk for the differences law.  Each table is built once per size, from
its cached half.  Each rounding is certified against one relative error
bound, _EPS = 2**-96, and exact integer bounds decide the few it cannot,
so no term depends on the platform's libm.
libm is left only in the stop bounds' pow, whose error _SLACK covers.

Everything is a pure function; the constant tables are cached and safe for
concurrent reads.
"""

from __future__ import annotations

import math
import threading
from decimal import Context, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinat import SignedCombination, rep_counts_all

# Large-N limiting fraction of subsets at p = 1/2 whose sumset beats their
# difference set (literature value); experiments assert a window around it.
SUM_DOMINATED_LIMIT_FRACTION = 4.5e-4

# Slow-decay limit of (missing sums) / (missing differences) for two summands.
COMPLEMENT_RATIO_LIMIT_H2 = 2.0

_G_DIGITS = 34  # working digits of g_series
_FIRST = 1 << 8  # terms in the first chunk of either slow-h2 law; each next chunk doubles
_CHUNK = 1 << 14  # terms of either law's largest chunk, each chunk summed exactly at once
_UNIT = 2**1126  # every finite double is a whole number of 2**-1126 (see _exact_sum)
_SLACK = 1.0 + 2.0**-20  # raises each slow-h2 tail bound past its rounding errors
_PREC = 128  # bits of _bounds' first try, beyond the exponent's
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 26-bit halves of a double
_BLOCK = 1 << 12  # powers per double-double table block
_EPS = 2.0**-96  # relative error that _powers certifies a rounding against
_TINY = 2.0**-960  # double-double powers below this go to _power


def missing_sums_asymptote_h2(p: float) -> float:
    """Leading-order missing-sum count 4/p^2 in the two-summand slow regime."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return 4.0 / (p * p)


class Regime(Enum):
    FAST = "fast"
    CRITICAL = "critical"
    SLOW_H2 = "slow-h2"
    SLOW = "slow"


def _times(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two polynomials given by their coefficients from t^0 up."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for m, b in enumerate(q):
            out[i + m] += a * b
    return tuple(out)


@lru_cache(maxsize=64)
def _pieces(h: int) -> tuple[tuple[int, ...], ...]:
    """(h-1)! times the Irwin-Hall density on [j, j+1], for j = 0..h-1.

    Piece j is an integer polynomial in t = u - j, given by its coefficients
    from t^0 up: the sum over i <= j of (-1)^i C(h, i) (t + j - i)^(h-1).
    """
    return tuple(
        tuple(
            math.comb(h - 1, m)
            * sum((-1) ** i * math.comb(h, i) * (j - i) ** (h - 1 - m) for i in range(j + 1))
            for m in range(h)
        )
        for j in range(h)
    )


def limit_density(u: float, h: int) -> float:
    """Density of a sum of h uniform [0,1] variables, evaluated at u.

    This is the scaling limit of rep_count(n)/N**(h-1) at u = (n + dN)/N.
    Evaluated on the left half and reflected: the density is symmetric about
    h/2 and its pieces are better conditioned for small u.
    """
    if h < 2:
        raise ValueError(f"h: must be at least 2, got {h}")
    if u < 0.0 or u > h:
        return 0.0
    if u > h / 2:
        u = h - u
    j = math.floor(u)
    value = 0.0
    for a in reversed(_pieces(h)[j]):  # Horner in t = u - j
        value = value * (u - j) + a
    return value / math.factorial(h - 1)


# Per h: the k-th powers of the pieces and [b(h, 1), ..., b(h, k)], extended
# in place as larger k are asked for, under the lock.
_B_TABLES: dict[int, tuple[list[tuple[int, ...]], list[float]]] = {}
_B_LOCK = threading.Lock()


def b_constant(h: int, k: int) -> float:
    """Order-k overlap moment of the limit density: (1/k!) * integral of f^k.

    Exact: on each unit interval f^k is an integer polynomial over (h-1)!^k,
    so the integral is a rational number, rounded once to the nearest float.
    b(h, 1) = 1 for every h (the density has unit mass).
    """
    if h < 2:
        raise ValueError(f"h: must be at least 2, got {h}")
    if k < 1:
        raise ValueError(f"k: must be positive, got {k}")
    with _B_LOCK:
        powers, table = _B_TABLES.setdefault(h, ([(1,)] * h, []))
        while len(table) < k:
            powers[:] = map(_times, powers, _pieces(h))
            j = len(table) + 1
            # The integral over [0, 1] of sum_m a_m t^m is sum_m a_m / (m+1).
            integral = sum(Fraction(a, m + 1) for m, a in enumerate(map(sum, zip(*powers))))
            table.append(float(integral / (math.factorial(h - 1) ** j * math.factorial(j))))
        return table[k - 1]


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
    grows.  Independent of the density's polynomial pieces, so the two check each
    other.
    """
    if combo.h != h:
        raise ValueError(f"combo {combo} has h={combo.h}, expected {h}")
    if N < 1:
        raise ValueError(f"N: must be positive, got {N}")
    perm = combo.block_permutations
    table = rep_counts_all(combo, N)
    total = math.fsum(_falling_binom(c / perm, k) for c in table.counts)
    return total * perm**k / N ** ((h - 1) * k + 1)


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[tuple[Decimal, Decimal], ...]:
    """n Gauss-Legendre nodes and weights on [0, 1] (n even), in Decimal.

    Newton's method on the Legendre recurrence from cosine estimates, with
    guard digits, since the weights near the ends divide by 1 - x^2.
    """
    with localcontext(Context(prec=_G_DIGITS + 6)):
        rule = []
        for i in range(n // 2):
            x, step = Decimal(math.cos(math.pi * (i + 0.75) / (n + 0.5))), 1
            while abs(step) > Decimal(10) ** -(_G_DIGITS + 2):
                p0, p1 = 1, x
                for m in range(2, n + 1):
                    p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
                slope = n * (x * p1 - p0) / (x * x - 1)
                step = p1 / slope
                x -= step
            weight = 1 / ((1 - x * x) * slope * slope)  # half the weight on [-1, 1]
            rule += [((1 - x) / 2, weight), ((1 + x) / 2, weight)]
    return tuple(rule)


def g_series(c: float, combo: SignedCombination) -> float:
    """Critical-decay cardinality constant g(c; s, d), rounded once.

    The series sum_k (-1)^(k-1) b(h,k) y^k, y = c^h/(s!d!), sums to the
    integral over [0, h] of 1 - exp(-y f(u)), f the Irwin-Hall density.  It
    is taken over the density's pieces, on [0, h/2] by symmetry, in Decimal,
    by Gauss-Legendre rules of 16, 32, ... nodes until two agree to 1e-22.
    For large c the exponent rises steeply near u = 0, so [0, 1] is halved
    towards 0 until the exponent at the cut is at most 1.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be positive and finite, got {c}")
    h = combo.h
    with localcontext(Context(prec=_G_DIGITS)):
        a = Decimal(c) ** h / (combo.block_permutations * math.factorial(h - 1))
        cuts = [Decimal(1)]
        while a * cuts[-1] ** (h - 1) > 1:
            cuts.append(cuts[-1] / 2)
        # (piece j, start, width) in t = u - j of each interval of [0, h/2]
        parts = [(0, lo, hi - lo) for lo, hi in zip(cuts[1:] + [0], cuts)]
        parts += [(j, 0, Decimal(min(1, h / 2 - j))) for j in range(1, (h + 1) // 2)]

        def estimate(n):
            total = Decimal(0)
            for j, lo, width in parts:
                for t, weight in _gauss_legendre(n):
                    t, x = lo + width * t, 0
                    for coefficient in reversed(_pieces(h)[j]):  # Horner
                        x = x * t + coefficient
                    x *= a
                    with localcontext() as ctx:
                        ctx.prec += max(0, -x.adjusted())  # 1 - exp(-x) cancels for small x
                        rise = 1 - (-x).exp()
                    total += width * weight * rise
            return 2 * total

        n, previous, current = 32, estimate(16), estimate(32)
        while abs(current - previous) > Decimal("1e-22") * current:
            n *= 2
            previous, current = current, estimate(n)
        return float(current)


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
        raise ValueError(f"h: must be at least 2, got {h}")
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
        return g_series(c, combo1) / g_series(c, combo2)
    raise ValueError(f"no general ratio prediction in regime {regime.value}")


def missing_sum_probability_h2(n: int, N: int, p: float) -> float:
    """Probability that n is missing from A+A under the binomial model.

    Exact for every n in [0, 2N]: the pair representations of n are disjoint
    element sets for n <= N, and n > N reduces to 2N - n by reflecting the
    ground set.  The power of 1 - p^2 is correctly rounded (_power), so the
    result does not depend on the platform's libm.
    """
    if not 0 <= n <= 2 * N:
        raise ValueError(f"n must lie in [0, {2 * N}], got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if n > N:
        n = 2 * N - n
    q = 1.0 - p * p
    if n % 2 == 0:
        return _power(q, n // 2) * (1.0 - p)
    return _power(q, (n + 1) // 2)


# Correctly rounded powers x**k of a double 0 <= x <= 1, k >= 0.  Write
# x = m / 2**s with m odd, so that x**k = m**k / 2**(s*k), and u = 2**-53.

def _bounds(m: int, k: int, prec: int) -> tuple[int, int, int]:
    """Integers lo <= hi and e with lo * 2**e <= m**k <= hi * 2**e.

    Binary powering in which every product longer than prec bits is cut to
    prec bits, down for lo and up for hi.  A cut moves a value by less than
    2**(1 - prec) relative, and the cuts of a factor are raised with it, so
    hi and lo are within k cuts of m**k: (hi - lo) / lo is below about
    k * 2**(2 - prec).  A product that is never cut is exact, so at
    prec >= m**k's bit length lo == hi == m**k.
    """
    lo = hi = 1
    e = 0
    base_lo = base_hi = m
    base_e = 0
    while True:
        if k & 1:
            lo *= base_lo
            hi *= base_hi
            e += base_e
            cut = hi.bit_length() - prec
            if cut > 0:
                lo >>= cut
                hi = -(-hi >> cut)
                e += cut
        k >>= 1
        if not k:
            return lo, hi, e
        base_lo *= base_lo
        base_hi *= base_hi
        base_e *= 2
        cut = base_hi.bit_length() - prec
        if cut > 0:
            base_lo >>= cut
            base_hi = -(-base_hi >> cut)
            base_e += cut


def _scaled(m: int, e: int) -> float:
    """m * 2**e for an integer m, rounded once, half to even (int / int is)."""
    if m.bit_length() + e <= -1075:  # below half the least subnormal: 0
        return 0.0 * m
    return float(m << e) if e >= 0 else m / (1 << -e)


def _power(x: float, k: int) -> float:
    """x**k correctly rounded, half to even, for a double 0 <= x <= 1 and k >= 0.

    Rounds the two ends of _bounds at rising precision until they round
    alike.  That ends at the latest once the bounds are exact, so it also
    settles exact midpoints, such as 0.75**34 = 3**34 / 2**68 (54 bits).
    About 15 us at k near 10**6; Fraction(x)**k would hold m**k itself.
    """
    m, d = x.as_integer_ratio()
    shift = (d.bit_length() - 1) * k
    prec = _PREC + k.bit_length()
    while True:
        lo, hi, e = _bounds(m, k, prec)
        low = _scaled(lo, e - shift)
        if low == _scaled(hi, e - shift):
            return low
        prec *= 2


def _dd_power(x: float, k: int) -> tuple[float, float]:
    """x**k as a double-double h + l, within 1.001 u**2 of it relative.

    h rounds hi * 2**e of _bounds at _PREC + log2(k) bits, within 2**-125
    of x**k relative, and l rounds the exact rest, so |l| <= ulp(h)/2 and l
    is within u * |l| <= u**2 * h of it (while h >= _TINY).
    """
    m, d = x.as_integer_ratio()
    _, hi, e = _bounds(m, k, _PREC + k.bit_length())
    e -= (d.bit_length() - 1) * k
    h = _scaled(hi, e)
    a, b = h.as_integer_ratio()  # h = a / 2**t
    t = b.bit_length() - 1
    if e + t >= 0:
        return h, _scaled((hi << (e + t)) - a, -t)
    return h, _scaled(hi - (a << (-e - t)), e)


def _dd_times(a_hi, a_lo, b: tuple[float, float], hi, lo, work) -> None:
    """hi + lo = (a_hi + a_lo) * (b[0] + b[1]): arrays of double-doubles times one.

    Dekker's product: a_hi and b[0] are split into 26-bit halves
    (Veltkamp), so a_hi * b[0] - fl(a_hi * b[0]) is computed exactly, and the
    cross terms a_hi * b[1] and a_lo * b[0] are added to it; a_lo * b[1],
    below u**2 of the product, is dropped.  With |a_lo| <= u |a_hi| and
    |b[1]| <= u |b[0]|, the result is within 9 u**2 of the product relative,
    and hi, lo are renormalized, |lo| <= ulp(hi)/2.  Exact splits and
    products need the product to be at least about 2**-969.  b is split
    once, as two floats; work holds two scratch rows of the arrays' length.
    """
    b_hi, b_lo = b
    b_big = b_hi * _SPLIT
    b1 = b_big - (b_big - b_hi)
    b2 = b_hi - b1
    a1, a2 = work
    np.multiply(a_hi, _SPLIT, out=a1)
    np.subtract(a1, a_hi, out=a2)
    a1 -= a2
    np.subtract(a_hi, a1, out=a2)
    np.multiply(a_hi, b_hi, out=hi)
    np.multiply(a1, b1, out=lo)
    lo -= hi
    a1 *= b2
    lo += a1
    np.multiply(a2, b1, out=a1)
    lo += a1
    a2 *= b2
    lo += a2  # the exact error of hi
    np.multiply(a_hi, b_lo, out=a1)
    lo += a1
    np.multiply(a_lo, b_hi, out=a1)
    lo += a1
    np.add(hi, lo, out=a1)
    np.subtract(a1, hi, out=a2)
    lo -= a2
    np.copyto(hi, a1)


@lru_cache(maxsize=32)
def _table(base: float, step: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The double-doubles (base**step)**i for i < size (a power of two), read-only.

    Size 1 is exactly (1, 0).  A larger table is the cached table of half
    its size, m entries, followed by those times _dd_power(base, step * m),
    so each doubling is computed once per (base, step), and the 32 cached
    tables hold the chains of sizes of two bases.  Entry i is a product of
    popcount(i) such factors, each within about u**2, in as many _dd_times:
    within 11 u**2 popcount(i) relative.
    """
    if size == 1:
        hi, lo = np.array([[1.0], [0.0]])
    else:
        m = size // 2
        half_hi, half_lo = _table(base, step, m)
        hi, lo = np.empty((2, size))
        hi[:m], lo[:m] = half_hi, half_lo
        _dd_times(half_hi, half_lo, _dd_power(base, step * m), hi[m:], lo[m:], np.empty((2, m)))
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


def _powers(base: float, start: int, step: int, count: int, out=None) -> np.ndarray:
    """base**(start + i*step) for i < count, each correctly rounded, half to even.

    For a double 0 <= base <= 1 and exponents >= 0; step may be negative.
    Written into out (length count) if given, else into a new array.

    Each block of exponents is one vectorized _dd_times of the _table of
    (base, |step|) by _dd_power(base, first exponent); the table, and so
    the block, is the least power of two that holds count, up to _BLOCK
    entries.  That is within (11 * 12 + 1 + 9) u**2 < 2**-98 of the power
    relative, and _settle certifies it against _EPS = 2**-96.
    """
    out = np.empty(count) if out is None else out
    run = out
    if step < 0:  # the same exponents, ascending, written backwards
        start, step, run = start + (count - 1) * step, -step, out[::-1]
    size = min(_BLOCK, 1 << max(count - 1, 0).bit_length())
    t_hi, t_lo = _table(base, step, size)
    lo, a, b = np.empty((3, size))
    for first in range(0, count, size):
        n = min(size, count - first)
        hi = run[first:first + n]
        _dd_times(t_hi[:n], t_lo[:n], _dd_power(base, start + first * step), hi, lo[:n],
                  (a[:n], b[:n]))
        _settle(hi, lo[:n], base, start + step * (first + np.arange(n)), (a[:n], b[:n]))
    return out


def _settle(hi, lo, base, exponents, work) -> None:
    """Keep each power hi that is certainly base**exponents rounded; redo the rest.

    hi + lo is within 2**-98 of the power relative (_powers), so _EPS * hi,
    2**-96 hi, exceeds its error by at least 2 u**2 hi.  hi is then the
    rounded power when hi + (lo - _EPS * hi) and hi + (lo + _EPS * hi) both
    round to hi: that test's own roundings move its ends by about u**2 hi,
    and rounding is monotone, so it is certain.  A term fails it with odds
    near _EPS / u = 2**-43, unless it is near a rounding midpoint or on one
    (a short-mantissa base such as 0.75 has them), or hi < _TINY, where
    products lose bits.  Those terms are taken by _power; but a term with
    k log2(base) < -1080 is below 2**-1076 and rounds to 0 (the margin
    dwarfs any log2's error, so this does not depend on libm).  work holds
    two scratch rows of hi's length.
    """
    a, b = work
    np.multiply(hi, _EPS, out=a)
    np.subtract(lo, a, out=b)
    b += hi
    doubt = b != hi
    np.add(lo, a, out=b)
    b += hi
    doubt |= b != hi
    doubt |= hi < _TINY
    doubted = np.flatnonzero(doubt)
    if not doubted.size:
        return
    k = exponents[doubted]
    hi[doubted] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # log2(0) is -inf
        near = ~(k * np.log2(base) < -1080.0)
    for i, exponent in zip(doubted[near].tolist(), k[near].tolist()):
        hi[i] = _power(base, exponent)


def _units(x: float) -> int:
    """A finite double x >= 0 in units of 2**-1126, exactly."""
    numerator, denominator = x.as_integer_ratio()  # denominator divides 2**1074
    return numerator * (_UNIT // denominator)


def _exact_sum(terms: np.ndarray) -> int:
    """The sum of fewer than 2**26 finite doubles >= 0, in units of 2**-1126, exactly.

    np.frexp writes each term as m * 2**e with m in [1/2, 1) and e >= -1073,
    so the term is the 53-bit integer m * 2**53 times 2**(e + 1073) units.
    That integer's high 27 and low 26 bits are summed per exponent by
    np.bincount: every float64 partial sum is an integer below 2**27 times
    the term count, so below 2**53 and exact.  terms is overwritten.
    """
    e = np.empty(terms.shape, np.intp)
    m, _ = np.frexp(terms, out=(terms, e))
    e += 1073
    m *= 2.0**27
    high = np.floor(m)
    highs = np.bincount(e, high)
    m -= high
    m *= 2.0**26
    lows = np.bincount(e, m)
    # A nonzero term has a high half of at least 2**26, so the bins with a
    # zero high sum hold zero terms only.
    shifts = np.flatnonzero(highs)
    return sum(((int(hi) << 26) + int(lo)) << s for s, hi, lo in
               zip(shifts.tolist(), highs[shifts].tolist(), lows[shifts].tolist()))


def _settled(total: int, bound: float) -> bool:
    """Whether total + t rounds to the double of total for every t in [0, bound].

    total is in units of 2**-1126, and int / int is correctly rounded, half
    to even, as fsum is.  Rounding is monotone, so total + bound rounding
    the same as total settles every tail between.  An infinite bound never
    settles.
    """
    return bound < math.inf and total / _UNIT == (total + _units(bound)) / _UNIT


def _geometric(count: int, gap: float) -> float:
    """A bound on the sum of r**k for 0 <= k < count, for any r in [0, 1 - gap]:
    the smaller of count and 1/gap (either one is a bound)."""
    return float(count) if gap * count <= 1.0 else 1.0 / gap


def _settled_sum(total: int, chunks) -> float:
    """total plus twice every term of chunks, summed exactly and rounded once.

    total is in units of 2**-1126.  chunks yields pairs (terms, bound): an
    array of doubles >= 0, which is overwritten, and a bound on twice the
    sum of every term of the later chunks.  Each chunk is summed exactly
    (_exact_sum), and the result is the whole sum rounded once: the bits of
    an fsum of the same terms.  The sum stops early after a chunk whose
    bound proves that no tail can change its rounding (_settled), so every
    stop is exact, and a sum that never settles adds every term.
    """
    for terms, bound in chunks:
        total += 2 * _exact_sum(terms)
        if _settled(total, bound):
            break
    return total / _UNIT


def _sum_terms(N: int, p: float):
    """The terms of expected_missing_sums_h2 for the values 1 to N-1, in
    chunks of at most _FIRST terms at first, twice as many in each next one
    up to _CHUNK, each yielded with the bound on the terms after it, lazily.

    q**j is the missing probability of the odd value 2j-1 < N, and
    q**j * (1-p) that of 2j if below N.  A chunk takes chunk // 2 exponents
    j and holds their odd terms, then their even terms, in one buffer.
    """
    q = 1.0 - p * p
    half, last_even = N // 2, (N - 1) // 2  # largest j with 2j-1 < N, with 2j < N
    terms = np.empty(min(_CHUNK, 2 * half))
    lo, chunk = 1, _FIRST
    while lo <= half:
        size = min(chunk // 2, half + 1 - lo)
        even = min(size, last_even + 1 - lo)
        odd = _powers(q, lo, 1, size, out=terms[:size])
        np.multiply(odd[:even], 1.0 - p, out=terms[size:size + even])
        lo, chunk = lo + size, min(2 * chunk, _CHUNK)  # lo is the next exponent J
        bound = _SLACK * 4.0 * math.pow(q, lo) * _geometric(half + 1 - lo, 1.0 - q)
        yield terms[:size + even], bound


def expected_missing_sums_h2(N: int, p: float) -> float:
    """Expected count of values in [0, 2N] missing from A+A; exact.

    Direct sum of the per-value missing probabilities, folded across the
    midpoint, correctly rounded (_settled_sum).  Tends to 4/p^2 as p -> 0
    with N p^2 -> infinity.  Powers are correctly rounded (_powers), and the
    rest is correctly rounded elementwise arithmetic, so every term has the
    bits of the per-value loop over missing_sum_probability_h2, on any
    platform.

    The terms come in chunks, j rising, each the odd terms of its run of
    powers q**j and then the even ones, the first of _FIRST terms and each
    next one twice as many, up to _CHUNK (_sum_terms): a sum that settles
    early, as at a large p, evaluates few powers.
    The terms left from the next exponent J on are 2 q**j and 2 (q**j (1-p))
    for J <= j <= N//2, at most 4 q**j each, and so sum to at most
    4 q**J min(N//2 + 1 - J, 1/(1 - q)).  The bound is raised by _SLACK,
    which covers the terms' roundings (half an ulp in each power and half
    an ulp more in its product by 1-p), libm pow's error of under 1 ulp on
    q**J, and the few roundings of the bound itself (about 10 * 2**-53 in
    all).
    """
    if N < 0:
        raise ValueError(f"N: must be non-negative, got {N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if N == 0:
        return 1.0 - p
    # The values 0 and N, which the chunks do not hold.
    total = _units(2.0 * (1.0 - p)) + _units(missing_sum_probability_h2(N, N, p))
    return _settled_sum(total, _sum_terms(N, p))


def _difference_terms(N: int, q: float, pq: float):
    """The terms of expected_missing_diffs_h2 for n = N down to 1, in chunks
    of n of one chain length, each yielded with the bound on the terms after
    it, lazily.  The chunks hold at most _FIRST n at first, twice as many
    in each next one up to _CHUNK, across chain lengths.

    Walks the chain lengths from n = N down, running the recurrence f
    once up to each, and takes each length's n a chunk at a time, as two
    runs of powers from cached tables (_powers): f(length + 1)'s exponents
    rise by length as n falls, and f(length)'s fall by length + 1.  At
    length 1 prev is 1.0, and 1.0 ** k is exactly 1.0, so no power of it
    is taken.
    """
    lam = min(1.0, (q + math.sqrt(q * q + 4.0 * pq)) / 2.0 * (1.0 + 2.0**-48))
    missings, factors = np.empty((2, min(_CHUNK, N)))
    prev, cur, steps, n, chunk = 1.0, 1.0, 0, N, _FIRST
    while n >= 1:
        length = (N + 1) // n
        for _ in range(length - steps):
            prev, cur = cur, q * cur + pq * prev
        steps = length
        end = (N + 1) // (length + 1)  # the n of this length are end + 1 to n
        while n > end:
            part = min(chunk, n - end)
            missing = _powers(cur, N + 1 - length * n, length, part, out=missings[:part])
            if length > 1:
                missing *= _powers(prev, (length + 1) * n - (N + 1), -(length + 1), part,
                                   out=factors[:part])
            n, chunk = n - part, min(2 * chunk, _CHUNK)
            yield missing, _SLACK * 2.0 * math.pow(lam, N + 1 - n) * _geometric(n, 1.0 - lam)


def expected_missing_diffs_h2(N: int, p: float) -> float:
    """Expected count of values in [-N, N] missing from A-A; exact.

    A difference n >= 1 is present iff some residue chain {r, r+n, r+2n, ...}
    contains two adjacent chosen elements, and distinct chains are disjoint,
    so the missing probability is a product of per-chain no-adjacent-pair
    probabilities f(L) for chains of L elements: f(0) = f(1) = 1 and
    f(L+1) = q f(L) + pq f(L-1), q = 1-p.  Tends to 2(1-p^2)/p^2 as
    N -> infinity; 6 at p = 1/2.  The result is the sum of every term,
    correctly rounded (_settled_sum).

    Every n with the same chain length L = (N+1)//n shares the recurrence's
    values, so it runs once, up to the longest chain.  Of the chains of n,
    N+1 - Ln have L+1 elements and (L+1)n - (N+1) have L, so as n falls
    the two exponents run by steps of L and L+1: the n of one length take
    two runs of powers from cached tables (_powers), each rounding
    certified against _EPS = 2**-96, and one elementwise product
    (_difference_terms), so each term has the bits of a per-n loop.

    Let lam be the largest root of x^2 = qx + pq.  By induction
    f(L) <= lam**(L-1) (for L = 0 and 1 since lam < 1), so the term of n,
    f(L+1)**(N+1-Ln) * f(L)**((L+1)n - (N+1)), is at most lam**(N+1-n);
    lam > 1 - p^2, the term of chain length 1.  With m the next n, the
    terms left sum to at most 2 lam**(N+1-m) min(m, 1/(1 - lam)).

    That holds for the computed values too, with lam raised by 2**-48
    relative (clipped at 1): the computed q, pq define the recurrence, each
    step's two roundings raise its values by at most (1 + 2**-53)**2, which
    lifts its largest root by at most as much, and lam's own evaluation is
    within a few roundings.  Each term is within 3 more roundings of its
    bound (two powers and their product), and the bound is raised by
    _SLACK, which covers them, libm pow's error of under 1 ulp and the
    bound's own roundings.
    """
    if N < 0:
        raise ValueError(f"N: must be non-negative, got {N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    q = 1.0 - p
    # 0 is missing iff A is empty.
    return _settled_sum(_units(_power(q, N + 1)), _difference_terms(N, q, p * q))
