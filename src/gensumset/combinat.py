"""Exact counting of signed h-tuple representations over {0, ..., N}.

A signed combination (s, d) turns an h-tuple (a_1, ..., a_h), h = s + d,
into the value a_1 + ... + a_s - a_{s+1} - ... - a_h.  rep_count gives the
number of ordered h-tuples from {0, ..., N} generating a value n; it is
evaluated by inclusion-exclusion over bounded compositions.  Brute-force
enumeration oracles live here too, so the closed formula is always checked
against something that cannot be wrong in the same way.

All counts are Python ints: representation counts grow like N**(h-1) and
overflow 64-bit machine words long before the interesting parameter range.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from typing import Iterator

DEFAULT_TUPLE_BUDGET = 10**8   # ordered tuples an enumeration oracle will visit
DEFAULT_ENTRY_BUDGET = 5 * 10**7  # table entries rep_counts_all will materialize


class BudgetError(RuntimeError):
    """Raised when an operation refuses to run within its configured budget."""


@dataclass(frozen=True)
class SignedCombination:
    """Shape of a generalized sumset: s plus signs, d minus signs."""

    s: int
    d: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.d < 0:
            raise ValueError(f"need s >= 1 and d >= 0, got (s={self.s}, d={self.d})")
        if self.d > self.s:
            raise ValueError(f"convention requires d <= s, got (s={self.s}, d={self.d})")
        if self.h < 2:
            raise ValueError("need at least two summands (s + d >= 2)")

    @property
    def h(self) -> int:
        return self.s + self.d

    @property
    def block_permutations(self) -> int:
        """s! * d!: ordered tuples per representation class when all entries differ."""
        return math.factorial(self.s) * math.factorial(self.d)

    def value_range(self, N: int) -> tuple[int, int]:
        """Smallest and largest generatable value over {0, ..., N}."""
        return (-self.d * N, self.s * N)

    def __str__(self) -> str:
        return f"({self.s},{self.d})"


@dataclass(frozen=True)
class RepresentationCounts:
    """Exact representation counts for every value n in [-dN, sN].

    counts[m] holds the count for n = m - d*N.  The vector sums to
    (N+1)**h and is symmetric under n -> (s-d)*N - n.
    """

    combo: SignedCombination
    N: int
    counts: tuple[int, ...]

    def count_at(self, n: int) -> int:
        lo, hi = self.combo.value_range(self.N)
        if n < lo or n > hi:
            return 0
        return self.counts[n - lo]

    def total(self) -> int:
        return sum(self.counts)

    def items(self) -> Iterator[tuple[int, int]]:
        lo = -self.combo.d * self.N
        for m, count in enumerate(self.counts):
            yield lo + m, count


def ext_binom(a: int, b: int) -> int:
    """Binomial coefficient extended by C(a, b) = 0 for a < b, including a < 0."""
    if b < 0:
        raise ValueError(f"lower index must be non-negative, got {b}")
    if a < 0:
        return 0
    return math.comb(a, b)


def stars_and_bars(n: int, k: int) -> int:
    """Number of ordered k-tuples of non-negative integers summing to n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 1:
        raise ValueError(f"k: must be positive, got {k}")
    return ext_binom(n + k - 1, k - 1)


def rep_count(n: int, combo: SignedCombination, N: int) -> int:
    """Ordered h-tuples from {0, ..., N} whose signed sum equals n.

    Inclusion-exclusion over compositions with parts capped at N, applied to
    n' = n + dN; the substitution a -> N - a on the minus block reduces the
    signed problem to the all-plus one.  The i-sum runs over the full range
    0..h; extended binomials kill the out-of-range terms.
    """
    if N < 0:
        raise ValueError(f"N: must be non-negative, got {N}")
    lo, hi = combo.value_range(N)
    if n < lo or n > hi:
        return 0
    h = combo.h
    nprime = n + combo.d * N
    total = 0
    for i in range(h + 1):
        m = nprime - i * (N + 1)
        if m < 0:
            break
        term = math.comb(h, i) * math.comb(m + h - 1, h - 1)
        total += -term if i & 1 else term
    return total


def rep_counts_all(
    combo: SignedCombination, N: int, entry_budget: int = DEFAULT_ENTRY_BUDGET
) -> RepresentationCounts:
    """rep_count for every n in [-dN, sN] as one table.

    Builds the composition counts C(n'+h-1, h-1) by h-1 prefix sums over
    ones and adds the h signed copies shifted by i(N+1), which is
    term-for-term the rep_count sum, without one binomial per entry.
    """
    if N < 0:
        raise ValueError(f"N: must be non-negative, got {N}")
    h = combo.h
    span = h * N + 1
    if span > entry_budget:
        raise BudgetError(
            f"rep_counts_all needs {span} entries, exceeding the budget of {entry_budget}"
        )
    # unbounded[m] = C(m+h-1, h-1), compositions of m into h non-negative parts
    unbounded = [1] * span
    for _ in range(h - 1):
        unbounded = list(accumulate(unbounded))
    counts = list(unbounded)
    for i in range(1, h + 1):
        shift = i * (N + 1)
        sign = (-1) ** i * math.comb(h, i)
        counts[shift:] = [a + sign * b for a, b in zip(counts[shift:], unbounded)]
    return RepresentationCounts(combo=combo, N=N, counts=tuple(counts))


@lru_cache(maxsize=32)
def _bruteforce_table(s: int, d: int, N: int) -> Counter:
    combo = SignedCombination(s, d)
    table: Counter = Counter()
    for tup in product(range(N + 1), repeat=combo.h):
        table[sum(tup[:s]) - sum(tup[s:])] += 1
    return table


def rep_count_bruteforce(
    n: int, combo: SignedCombination, N: int, tuple_budget: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """Exhaustive-enumeration oracle for rep_count."""
    if N < 0:
        raise ValueError(f"N: must be non-negative, got {N}")
    if (N + 1) ** combo.h > tuple_budget:
        raise BudgetError(
            f"enumerating {(N + 1) ** combo.h} ordered tuples exceeds the budget "
            f"of {tuple_budget}"
        )
    return _bruteforce_table(combo.s, combo.d, N)[n]


def class_tally(elements, combo: SignedCombination) -> Counter:
    """Representation classes per generated value, entries drawn from elements.

    A class is a pair (multiset of s plus-entries, multiset of d minus-entries);
    classes with equal block sums generate the same value, so tallying per
    block sum and convolving counts every class exactly once.
    """
    plus_sums = Counter(sum(c) for c in combinations_with_replacement(elements, combo.s))
    minus_sums = Counter(sum(c) for c in combinations_with_replacement(elements, combo.d))
    table: Counter = Counter()
    for vp, cp in plus_sums.items():
        for vm, cm in minus_sums.items():
            table[vp - vm] += cp * cm
    return table


@lru_cache(maxsize=32)
def _class_table(combo: SignedCombination, N: int) -> Counter:
    return class_tally(range(N + 1), combo)


def distinct_class_count(
    n: int, combo: SignedCombination, N: int, tuple_budget: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """Representation classes of n: ordered tuples up to permuting within blocks."""
    if N < 0:
        raise ValueError(f"N: must be non-negative, got {N}")
    n_classes = math.comb(N + combo.s, combo.s) * math.comb(N + combo.d, combo.d)
    if n_classes > tuple_budget:
        raise BudgetError(
            f"enumerating {n_classes} representation classes exceeds the budget "
            f"of {tuple_budget}"
        )
    return _class_table(combo, N)[n]
