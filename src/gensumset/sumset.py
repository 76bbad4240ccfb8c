"""Generalized sumsets of concrete sets, plus collision statistics.

The workhorse is a shift-or kernel on bit-vectors: adding a set B to an
accumulated membership vector is the OR of the vector shifted by each
element of B, so one fold costs |B| shifts.  Minus blocks are handled by
reflecting A to {N - a} and adding, which keeps every intermediate index
non-negative; the stored vector is indexed by n + dN over [0, hN].

There are two folds, chosen by N alone.  Below BYTE_FOLD_MIN_N = 2^15 the
vector is an arbitrary-size int and each shift is a big-int shift and OR.
From 2^15 up it is packed little-endian bytes in a numpy uint8 array: each
of the eight bit-shifted copies is built once per fold, and each shift ORs
one of them in place at its byte offset, so no shift allocates.  Both give
the same int.  The threshold is the measured crossover (2 cores, numpy
2.4.6, h = 2 and 3, p from 0.001 to 1/2): the byte fold ran at 0.5-1.0x
the big-int fold's speed at N = 2^14, at 1.0-2.3x at 2^15 and at 1.8-3.0x
at 2^16, and at N = 10^6 it is 1.7x (|A| ~ 12) to 8-10x (|A| ~ 15.8k)
faster.  Only APIs of numpy 1.22, the declared minimum, are used: the
cardinality comes from int.bit_count, not np.bitwise_count (numpy 2.0).

An exhaustive enumeration oracle and class-collision tallies (the X_k
statistics) are provided at small scale, guarded by tuple budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinat import DEFAULT_TUPLE_BUDGET, BudgetError, SignedCombination, class_tally
from .sampling import SampledSet

DEFAULT_BIT_BUDGET = 10**9
BYTE_FOLD_MIN_N = 1 << 15

SUM_DOMINATED = "sum-dominated"
BALANCED = "balanced"
DIFFERENCE_DOMINATED = "difference-dominated"


@dataclass(frozen=True)
class GenSumsetResult:
    """Membership of a generalized sumset over its full value range [-dN, sN].

    bits holds the vector as an int with bit n + dN set iff n is generated;
    cardinality + complement_count = hN + 1 always.
    """

    combo: SignedCombination
    N: int
    bits: int
    cardinality: int
    complement_count: int

    @property
    def span(self) -> int:
        return self.combo.h * self.N + 1

    def contains(self, n: int) -> bool:
        offset = n + self.combo.d * self.N
        if offset < 0 or offset >= self.span:
            return False
        return bool((self.bits >> offset) & 1)

    def values(self) -> list[int]:
        lo = -self.combo.d * self.N
        bits = self.bits
        out = []
        while bits:
            low = bits & -bits
            out.append(lo + low.bit_length() - 1)
            bits ^= low
        return out

    def summary(self) -> dict:
        return {
            "s": self.combo.s,
            "d": self.combo.d,
            "N": self.N,
            "cardinality": self.cardinality,
            "complement_count": self.complement_count,
        }

    def write_membership_csv(self, out) -> None:
        """Rows `n,member` with member in {0, 1}, over the whole range."""
        out.write("n,member\n")
        lo = -self.combo.d * self.N
        for offset in range(self.span):
            out.write(f"{lo + offset},{(self.bits >> offset) & 1}\n")


@dataclass(frozen=True)
class TupleStatistics:
    """Per-value representation-class counts r_v and the collision sums X_k.

    X[k] counts unordered k-sets of classes sharing a generated value, so
    the alternating sum over all k recovers the sumset cardinality exactly.
    """

    combo: SignedCombination
    N: int
    class_counts: dict[int, int]
    x: dict[int, int]

    def alternating_sum(self) -> int:
        return sum(v if k % 2 == 1 else -v for k, v in self.x.items())

    @property
    def cardinality(self) -> int:
        return len(self.class_counts)


def _shift_or(bits: int, shifts: list[int]) -> int:
    out = 0
    for e in shifts:
        out |= bits << e
    return out


def _shift_or_bytes(acc: np.ndarray, shifts: list[int]) -> np.ndarray:
    """_shift_or on a vector packed as little-endian bytes (numpy uint8).

    Shifts are grouped by e & 7.  For each residue r in use, the copy of acc
    shifted by r bits is built once, word-wise, and shift e ORs it in place
    at byte offset e >> 3, so no shift allocates and one copy is alive at a
    time.
    """
    n = acc.size
    base = np.zeros((n + 8) // 8, dtype="<u8")  # n + 1 bytes: room for 7 more bits
    base.view(np.uint8)[:n] = acc
    row = np.empty_like(base)
    copy = row.view(np.uint8)[: n + 1]
    offsets = [[] for _ in range(8)]
    for e in shifts:
        offsets[e & 7].append(e >> 3)
    out = np.zeros(n + (max(shifts) >> 3) + 1, dtype=np.uint8)
    for r, starts in enumerate(offsets):
        if not starts:
            continue
        np.left_shift(base, r, out=row)
        if r:
            row[1:] |= base[:-1] >> (64 - r)
        for b in starts:
            view = out[b : b + n + 1]
            np.bitwise_or(view, copy, out=view)
    return out


def _empty_result(combo: SignedCombination, N: int) -> GenSumsetResult:
    return GenSumsetResult(
        combo=combo, N=N, bits=0, cardinality=0, complement_count=combo.h * N + 1
    )


def gen_sumset(
    A: SampledSet, combo: SignedCombination, bit_budget: int = DEFAULT_BIT_BUDGET
) -> GenSumsetResult:
    """Membership and cardinality of the generalized sumset of A.

    Folds ascending: s copies of A, then d copies of the reflection
    {N - a}.  Set addition is associative and commutative, so the order is
    semantically irrelevant; fixing it keeps runs reproducible.  Each fold
    shifts the accumulated (dense) vector by the elements of the sparser
    base set, on a big int below N = BYTE_FOLD_MIN_N and on packed bytes
    from there up (see the module docstring); the result is the same.
    """
    span = combo.h * A.N + 1
    if span > bit_budget:
        raise BudgetError(
            f"membership vector needs {span} bits, exceeding the budget of {bit_budget}"
        )
    if A.size == 0:
        return _empty_result(combo, A.N)
    elements = A.elements.tolist()
    reflected = [A.N - a for a in reversed(elements)]
    folds = [elements] * (combo.s - 1) + [reflected] * combo.d
    if A.N < BYTE_FOLD_MIN_N:
        acc = A.bitmask()
        for shifts in folds:
            acc = _shift_or(acc, shifts)
    else:
        packed = A.packed_bits()
        for shifts in folds:
            packed = _shift_or_bytes(packed, shifts)
        acc = int.from_bytes(packed.tobytes(), "little")
    cardinality = acc.bit_count()
    return GenSumsetResult(
        combo=combo,
        N=A.N,
        bits=acc,
        cardinality=cardinality,
        complement_count=span - cardinality,
    )


def gen_sumset_naive(
    A: SampledSet, combo: SignedCombination, tuple_budget: int = DEFAULT_TUPLE_BUDGET
) -> GenSumsetResult:
    """Oracle: materialize the signed sums of all |A|^h ordered tuples."""
    if A.size**combo.h > tuple_budget:
        raise BudgetError(
            f"enumerating {A.size ** combo.h} ordered tuples exceeds the budget "
            f"of {tuple_budget}"
        )
    if A.size == 0:
        return _empty_result(combo, A.N)
    arr = A.elements
    values = np.zeros(1, dtype=np.int64)
    for _ in range(combo.s):
        values = (values[:, None] + arr[None, :]).ravel()
    for _ in range(combo.d):
        values = (values[:, None] - arr[None, :]).ravel()
    span = combo.h * A.N + 1
    mask = np.zeros(span, dtype=bool)
    mask[np.unique(values) + combo.d * A.N] = True
    bits = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    cardinality = bits.bit_count()
    return GenSumsetResult(
        combo=combo,
        N=A.N,
        bits=bits,
        cardinality=cardinality,
        complement_count=span - cardinality,
    )


def tuple_statistics(
    A: SampledSet,
    combo: SignedCombination,
    k_max: int | None = None,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> TupleStatistics:
    """Tally representation classes per generated value and the X_k sums.

    A class is an ordered h-tuple up to permutations inside the plus block
    and inside the minus block, i.e. a pair of multisets; enumerating sorted
    block combinations visits each class exactly once.  k_max defaults to
    the largest class count, which makes the alternating-sum identity exact.
    """
    if A.size**combo.h > tuple_budget:
        raise BudgetError(
            f"enumerating {A.size ** combo.h} ordered tuples exceeds the budget "
            f"of {tuple_budget}"
        )
    class_counts = class_tally(A.elements.tolist(), combo)
    if k_max is None:
        k_max = max(class_counts.values(), default=0)
    x = {
        k: sum(math.comb(r, k) for r in class_counts.values())
        for k in range(1, k_max + 1)
    }
    return TupleStatistics(combo=combo, N=A.N, class_counts=dict(class_counts), x=x)


def mstd_classify(A: SampledSet) -> str:
    """Compare |A+A| against |A-A|: sum-dominated, balanced, or difference-dominated."""
    sums = gen_sumset(A, SignedCombination(2, 0)).cardinality
    diffs = gen_sumset(A, SignedCombination(1, 1)).cardinality
    if sums > diffs:
        return SUM_DOMINATED
    if sums < diffs:
        return DIFFERENCE_DOMINATED
    return BALANCED
