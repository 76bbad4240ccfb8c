"""Generalized sumsets of concrete sets, plus collision statistics.

The workhorse is a shift-or kernel on bit-vectors: adding a set B to an
accumulated membership vector is the OR of the vector shifted by each
element of B, so one fold costs |B| shifts.  Minus blocks are handled by
reflecting A to {N - a} and adding, which keeps every intermediate index
non-negative; the stored vector is indexed by n + dN over [0, hN].

There are three kernels, chosen by kernel_branch from N, h and |A| alone;
all three give the same sumset.

- Below BYTE_FOLD_MIN_N = 2^15 ("int") the vector is an arbitrary-size int
  and each shift is a big-int shift and OR.
- From 2^15 up ("bytes") it is packed little-endian bytes in a numpy uint8
  array: each of the eight bit-shifted copies is built once per fold, and
  each shift ORs one of them in place at its byte offset, so no shift
  allocates.  The threshold is the measured crossover (2 cores, numpy
  2.4.6, h = 2 and 3, p from 0.001 to 1/2): the byte fold ran at 0.5-1.0x
  the big-int fold's speed at N = 2^14, at 1.0-2.3x at 2^15 and at
  1.8-3.0x at 2^16, and at N = 10^6 it is 1.7x (|A| ~ 12) to 8-10x
  (|A| ~ 15.8k) faster.  Each byte fold is an _edge_fold: for ascending
  shifts B and K = ceil(_EDGE_COVERS * span(B) / |B|), _EDGE_COVERS = 14
  (ROADMAP.md lists the values tried), it ORs only the K lowest and K
  highest shifts, which decide the output's two end windows, and _sieve
  tests each zero bit left between them against the middle shifts.  A
  slow-decay sumset misses values only near its ends, so at N = 10^6 and
  p = N^(-3/10) (|A| ~ 15.8k, K ~ 880) a fold ORs 1.76k shifts, not
  15.8k, and sieves 0-17 values: a set's two folds took 24-30 ms, against
  52-86 ms when the ORs were limited to windows narrowed as they filled
  (warm process, 2 cores, numpy 2.4.6).  When more than one byte per
  _SIEVE_BYTES = 64 of the input stays open between the end windows, as
  a set with gaps all over leaves, the middle shifts are ORed instead: a
  value whose search spans the whole middle took 59 us to sieve, and the
  middle of a slow_h2 fold 86 ms, about 1,460 such values (and 2,000
  open bytes).  A short B, |B| <= 2K, is folded whole with no scan of the
  input: critical-decay folds (|A| ~ 200 at N = 10^6, K ~ 70,000) are.
- From 2^15 up, while 17|A|^h <= (4h - 3)N/8 ("enumerate"), the sums are
  enumerated instead: each fold takes the outer sum of the distinct values
  so far with the sorted elements (or their reflection), sorts it and
  drops equal neighbours.  gen_sumset scatters the distinct offsets into
  zeroed bytes; _trial_record counts them.  Its cost follows |A|^h, not N.
  The rule is a memory cap: the last outer sum holds at most |A|^h int64
  entries, so with its sort mask and its distinct copy its temporaries take
  at most 17|A|^h bytes, and (4h - 3)N/8 bytes is the byte fold's own
  working set (its input, two word copies and its output; tracemalloc read
  0.77N, 1.35N and 1.86-1.97N bytes for h = 2, 3 and 4 at N = 10^6).
  Inside the cap the enumeration is also the faster kernel.  Against the
  byte fold (2 cores, numpy 2.4.6, all combos with h <= 4) it ran 11-30x
  as fast at N = 10^6 and
  |A|^h/N ~ 0.001, 1.5-5.3x near the cap's edge (h = 2 at |A| = 192,
  h = 3 at |A| = 32, h = 4 at |A| = 16), and 0.5-1.7x further out (h = 2 at
  |A| = 256, h = 3 at |A| = 48-64, h = 4 at |A| = 24); at N = 2^15 it ran
  2.6-6.4x as fast inside the cap and crossed near |A|^h/N ~ 0.3-0.6.  At
  N = 10^6 the cap admits |A| up to 191, 40 and 17 for h = 2, 3 and 4,
  which covers the fast-decay sets (|A| ~ 32 for h = 2 and 16 for h = 3).

The cardinality is the enumeration's length, the big int's bit_count, or,
after the byte fold, a SWAR popcount over little-endian uint64 words in
blocks of 64 KB.  Only APIs of numpy 1.22, the declared minimum, are used:
no np.bitwise_count (numpy 2.0).

records(params, trials, combos, probes, threads) is the experiment
pipeline's one entry, and every kernel decision is made below it.  It
samples each trial of a range and yields its integer record (|A|, |A_combo|
for each combo, missing-sum mask), in trial order.  The kernels only count;
the mask, whose bit j says that probes[j] is not in A + A, comes from the
set's elements by binary search (_missing_sums), 0.1-0.2 ms for a
slow_h2 set (|A| ~ 15.8k), and is 0 with no probes.  Up to BIT_SLICE_MAX_N
it samples and folds the trials in bit-sliced batches (sample_members,
_batch_records); above it, it draws the sets on `threads` threads
(sample_sets) and folds each with _trial_record, whose kernel kernel_branch
picks.  The records are the same either way.  sample_sets makes its
thread pool once per call, and its workers draw trial t + 1 while this
thread folds trial t: the Philox draws release the GIL and overlap the
memory-bound ORs.  A critical_h3 trial (N = 10^6, |A| ~ 200) drew for
about 8 ms on 2 cores, then folded for 10 ms on one; pipelined, its folds
take 12-13 ms beside the draw and the caller waits about 1 ms a trial for
the rest of the set (warm process, 2 cores, numpy 2.4.6).

_trial_record(A, combos, buffers) runs the folds of _walk for one
set, and gen_sumset is its one-combo case.  It builds no GenSumsetResult.
Combos whose fold sequences, s - 1 copies of A then d of its reflection,
share a prefix fold it once: (2,1) and (3,0) share A + A.  Byte folds write
into a FoldBuffers: the vector at depth j, a (j + 1)-fold sum, takes
(j + 1)(N // 8 + 1) bytes whatever A, and two word copies of the deepest
input take about as much again, so records, which keeps one FoldBuffers
for all its trials, allocates during the first trial only, but for the
reflection of A, which grows with the largest |A| so far.  At N = 10^6,
h = 3 and |A| ~ 200 that is about 1.25 MB, and the record's sumsets took
6.9 ms a trial in one warm process, against 10 ms for gen_sumset called
combo by combo (2 cores, numpy 2.4.6).

_batch_records runs the same folds for a batch of small sets at once,
bit-sliced: bit i of word (w, a) says whether set 64w + i contains a, so
each numpy operation on a row of words works on 64 sets.  Its records equal
what gen_sumset gives set by set.  Its cost is about N * hN / 64 word
operations a set whatever the density, where the per-set folds cost |A|
shifts each, so it is used up to BIT_SLICE_MAX_N = 512 only.  That is the
measured crossover for sparse sets (2 cores, numpy 2.4.6, a whole trial
with its sampling, against the per-set path): at N = 500 the batch is
1.0-1.2x as fast for h = 3 at p = 2N^(-2/3) and N^(-4/5), 2.1-2.6x for
h = 2 at p = N^(-1/2) and N^(-3/4), and 3.7-4.5x at p = 1/2; at
N = 600-700 the two h = 3 cases drop to 0.64-0.99x.  At N = 100 and p = 1/2
a trial costs about 10 us, against about 90 us set by set.

An exhaustive enumeration oracle and class-collision tallies (the X_k
statistics) are provided at small scale, guarded by tuple budgets.
"""

from __future__ import annotations

import math
import operator
import os
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .combinat import DEFAULT_TUPLE_BUDGET, BudgetError, SignedCombination, class_tally
from .sampling import SampledSet, SampleParameters, sample_members, sample_sets, scatter_bits

DEFAULT_BIT_BUDGET = 10**9
BYTE_FOLD_MIN_N = 1 << 15
BIT_SLICE_MAX_N = 512
_FOLD_BYTES = 1 << 17  # bound on the term buffer of one _fold_words block
_BLOCK_WORDS = 1 << 13  # 64 KB of words per block of _popcount; gathers per block of _sieve
_EDGE_COVERS = 14  # K * |B| / span(B), for the K shifts an _edge_fold ORs at each end of B
_SIEVE_BYTES = 64  # bytes of acc per byte left open, above which _edge_fold folds the middle
_M1, _M2, _M4, _H01 = (np.uint64(0x0101010101010101 * m) for m in (0x55, 0x33, 0x0F, 1))
_CSV_ROWS = 1 << 16  # membership rows that write_membership_csv formats at once
# Up to BIT_SLICE_MAX_N, records folds a batch of whole 64-set words, sized
# so that a batch's largest temporaries, the membership matrix and one
# sumset unpacked to a byte per set and value, stay near _BATCH_BYTES.
_BATCH_BYTES = 1 << 16


@dataclass(frozen=True, eq=False)
class GenSumsetResult:
    """Membership of a generalized sumset over its full value range [-dN, sN].

    packed holds the membership vector as (hN + 8) // 8 little-endian bytes
    (numpy uint8), with bit n + dN set iff n is generated.
    """

    combo: SignedCombination
    N: int
    packed: np.ndarray
    cardinality: int

    @property
    def span(self) -> int:
        return self.combo.h * self.N + 1

    @property
    def complement_count(self) -> int:
        return self.span - self.cardinality

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenSumsetResult):
            return NotImplemented
        return (
            (self.combo, self.N, self.cardinality) == (other.combo, other.N, other.cardinality)
            and np.array_equal(self.packed, other.packed)
        )

    def _members(self) -> np.ndarray:
        """One uint8 0/1 per value of the range, in order."""
        return np.unpackbits(self.packed, count=self.span, bitorder="little")

    def values(self) -> list[int]:
        lo = -self.combo.d * self.N
        return (np.flatnonzero(self._members()) + lo).tolist()

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
        members = self._members()
        for start in range(0, self.span, _CSV_ROWS):
            rows = zip(range(lo + start, lo + start + _CSV_ROWS),
                       members[start : start + _CSV_ROWS].tolist())
            out.write("".join(f"{n},{member}\n" for n, member in rows))


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


class FoldBuffers:
    """Arrays that byte folds write into, kept from one call to the next.

    Each array is made on its first use, or when a fold needs it larger, and
    reused by every later fold given the same buffers.  _walk asks for sizes
    that depend only on N and the fold's depth, so the trials of one N
    allocate them during the first trial only, but for the reflection of A,
    whose |A| entries are made again when a set is the largest so far.
    """

    def __init__(self):
        self._arrays = {}

    def take(self, key, size: int, dtype=np.uint8) -> np.ndarray:
        """The first size entries of array key, uninitialized."""
        array = self._arrays.get(key)
        if array is None or array.size < size:
            array = self._arrays[key] = np.empty(size, dtype=dtype)
        return array[:size]


def _shift_or_bytes(acc: np.ndarray, shifts: np.ndarray, out: np.ndarray,
                    buffers: FoldBuffers) -> np.ndarray:
    """OR _shift_or of a vector packed as little-endian bytes (numpy uint8) into out.

    Shifts are grouped by e & 7.  For each residue r in use, the copy of acc
    shifted by r bits is built once, word-wise, and shift e ORs it in place
    at byte offset e >> 3, so no shift allocates and one copy is alive at a
    time.  out must hold at least acc.size + (max(shifts) >> 3) + 1 bytes;
    the word copies go into buffers.
    """
    n = acc.size
    base = buffers.take("base", (n + 8) // 8, "<u8")  # n + 1 bytes: room for 7 more bits
    base[-1] = 0
    base.view(np.uint8)[:n] = acc
    row = buffers.take("row", base.size, "<u8")
    copy = row.view(np.uint8)[: n + 1]
    for r in range(8):
        starts = shifts[(shifts & 7) == r] >> 3
        if not starts.size:
            continue
        np.left_shift(base, r, out=row)
        if r:
            row[1:] |= base[:-1] >> (64 - r)
        for b in starts.tolist():
            view = out[b : b + n + 1]
            np.bitwise_or(view, copy, out=view)
    return out


def _sieve(acc: np.ndarray, shifts: np.ndarray, offsets: np.ndarray, lo: int,
           hi: int) -> list[int]:
    """The offsets n for which some b of shifts has bit n - b set in acc.

    The set bits of acc lie in [lo, hi], so n gathers the bits n - b only
    for the b that keep them there, found by binary search, _BLOCK_WORDS
    at a time, and stops at the first set one.
    """
    found = []
    for n in offsets.tolist():
        start, stop = np.searchsorted(shifts, (n - hi, n - lo + 1)).tolist()
        for block in range(start, stop, _BLOCK_WORDS):
            bits = n - shifts[block : min(block + _BLOCK_WORDS, stop)]
            masks = np.bitwise_and(bits, 7, out=np.empty(bits.size, dtype=np.uint8),
                                   casting="unsafe")
            np.left_shift(1, masks, out=masks)
            bits >>= 3
            if (acc[bits] & masks).any():
                found.append(n)
                break
    return found


def _edge_fold(acc: np.ndarray, shifts: np.ndarray, out: np.ndarray,
               buffers: FoldBuffers) -> np.ndarray:
    """_shift_or_bytes into out, zeroed first, for ascending int64 shifts B.

    Let S be the set acc holds and K = ceil(_EDGE_COVERS * span(B) / |B|).
    The K lowest and K highest shifts decide every n < min S + B[K] and
    every n > max S + B[-K-1], since any other shift lands between those
    bounds, so only they are folded.  A zero bit n between the bounds is
    then set iff some middle shift b has bit n - b set in acc, which
    _sieve checks.  When the bytes still open there, below 0xFF, exceed one
    per _SIEVE_BYTES bytes of acc (a set with gaps all over), the middle
    shifts are folded instead; and a short B, |B| <= 2K, is folded whole.
    """
    out.fill(0)
    size = shifts.size
    k = -(-_EDGE_COVERS * int(shifts[-1] - shifts[0] + 1) // size) if size else 0
    if size <= 2 * k:
        return _shift_or_bytes(acc, shifts, out, buffers)
    _shift_or_bytes(acc, np.concatenate((shifts[:k], shifts[-k:])), out, buffers)
    held = np.not_equal(acc, 0, out=buffers.take("held", acc.size, bool))
    lo = 8 * int(held.argmax())  # S lies in [lo, hi]
    hi = 8 * (acc.size - int(held[::-1].argmax())) - 1
    first, last = (lo + int(shifts[k])) >> 3, (hi + int(shifts[-k - 1])) >> 3
    opened, count, block = [], 0, 8 * _BLOCK_WORDS  # the bytes of out between the bounds
    for start in range(first, last + 1, block):
        opened.append(start + np.flatnonzero(out[start : min(start + block, last + 1)] != 0xFF))
        count += opened[-1].size
        if _SIEVE_BYTES * count > acc.size:
            return _shift_or_bytes(acc, shifts[k:-k], out, buffers)
    opened = np.concatenate(opened)
    zeros = np.flatnonzero(np.unpackbits(out[opened], bitorder="little") == 0)
    for n in _sieve(acc, shifts[k:-k], 8 * opened[zeros >> 3] + (zeros & 7), lo, hi):
        out[n >> 3] |= 1 << (n & 7)
    return out


def _popcount(packed: np.ndarray) -> int:
    """Set bits of packed bytes, by a SWAR count over little-endian words.

    The words are taken _BLOCK_WORDS at a time, so the temporaries stay
    at 64 KB each, and the last size % 8 bytes go through int.bit_count.
    Only numpy 1.22 APIs: no np.bitwise_count.
    """
    whole = packed.size - packed.size % 8
    words = packed[:whole].view("<u8")
    total = int.from_bytes(packed[whole:].tobytes(), "little").bit_count()
    for lo in range(0, words.size, _BLOCK_WORDS):
        x = words[lo : lo + _BLOCK_WORDS]
        x = x - ((x >> 1) & _M1)
        x = (x >> 2 & _M2) + np.bitwise_and(x, _M2, out=x)  # in place: 3 temporaries at most
        x = (x + (x >> 4)) & _M4
        total += int(((x * _H01) >> 56).sum())
    return total


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an int64 array, ascending; sorts it in place.

    A neighbour compare after the sort, not np.unique, whose first call
    allocates about 1.2 MB (numpy 2.4).
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _enumerated_sums(values: np.ndarray, base: np.ndarray) -> np.ndarray:
    """One fold of the enumeration: the distinct sums of values and base, ascending.

    The outer sum adds every element of base to every distinct value so
    far, so the last fold of a sumset has at most |A|^h entries.
    """
    return _distinct((values[:, None] + base[None, :]).ravel())


def kernel_branch(N: int, h: int, size: int) -> str:
    """Which kernel gen_sumset runs for |A| = size > 0 (module docstring).

    "int" below BYTE_FOLD_MIN_N; from there "enumerate" while the
    enumeration's 17 bytes per sum of the last outer sum, size^h of them at
    most, fit in the byte fold's working set of (4h - 3)N/8 bytes, and
    "bytes" above.
    """
    if N < BYTE_FOLD_MIN_N:
        return "int"
    if 8 * 17 * size**h <= (4 * h - 3) * N:
        return "enumerate"
    return "bytes"


def _walk(A: SampledSet, combos, buffers: FoldBuffers):
    """Fold the sumset of each combo of A; yield (index, branch, folded sum).

    Combo (s, d) starts from A and folds s - 1 copies of A, then d of the
    reflection {N - a}.  Set addition is associative and commutative, so the
    order is semantically irrelevant; fixing it keeps runs reproducible.
    Each combo runs the kernel that kernel_branch picks from N, h and |A|
    (see the module docstring).  The combos are walked in the order of
    their branch and sign sequence, depth first through the trie of the
    sequences, so a prefix that several combos share, A + A for (2,1) and
    (3,0), is folded once.  The folded sum is a big int, the distinct
    offsets n + dN in an ascending int64 array, or packed bytes over the
    offsets, whose vector at depth j lives in buffers, (j + 1)(N // 8 + 1)
    bytes long, and is overwritten by the walk's next fold at that depth:
    read each sum before the walk goes on.  Every byte fold is an
    _edge_fold, whose shifts, A or its reflection (kept in buffers), are
    int64 arrays.
    """
    N, size = A.N, A.size
    order = sorted((kernel_branch(N, combo.h, size), "+" * (combo.s - 1) + "-" * combo.d, i)
                   for i, combo in enumerate(combos))
    branch = path = None
    for kernel, signs, i in order:
        if kernel != branch:
            branch, path = kernel, ""
            if branch == "int":
                elements = A.elements.tolist()
                bases = {"+": elements, "-": [N - a for a in reversed(elements)]}
                sums = [A.bitmask()]
            else:
                reflection = buffers.take("-", A.size, np.int64)
                bases = {"+": A.elements, "-": np.subtract(N, A.elements[::-1], out=reflection)}
                sums = [A.elements if branch == "enumerate"
                        else scatter_bits(A.elements, buffers.take(0, N // 8 + 1))]
        del sums[len(os.path.commonprefix([path, signs])) + 1 :]
        for j in range(len(sums), len(signs) + 1):
            shifts = bases[signs[j - 1]]
            if branch == "int":
                sums.append(_shift_or(sums[-1], shifts))
            elif branch == "enumerate":
                sums.append(_enumerated_sums(sums[-1], shifts))
            else:
                out = buffers.take(j, (j + 1) * (N // 8 + 1))
                sums.append(_edge_fold(sums[-1], shifts, out, buffers))
        path = signs
        yield i, branch, sums[-1]


def _cardinality(branch: str, folded, span: int) -> int:
    if branch == "int":
        return folded.bit_count()
    if branch == "enumerate":
        return folded.size
    return _popcount(folded[: (span + 7) // 8])


def _trial_record(A: SampledSet, combos, buffers: FoldBuffers) -> tuple[int, ...]:
    """(|A|, |A_combo| for each combo) of one set.

    The integers _batch_records gives for a batch of sets.  The sumsets are
    folded by _walk, each shared prefix once, and counted in place; no
    GenSumsetResult is built and the enumeration scatters nothing.  Byte
    folds write into buffers.
    """
    record = [A.size] + [0] * len(combos)
    for i, branch, folded in _walk(A, combos, buffers):
        record[i + 1] = _cardinality(branch, folded, combos[i].h * A.N + 1)
    return tuple(record)


def _missing_sums(elements: np.ndarray, N: int, probes) -> int:
    """Bitmask of the probes, by position, that A + A does not hold.

    elements is A, ascending, a subset of [0, N].  n lies in A + A iff some
    a of A with n - N <= a <= n // 2 has n - a in A: one search bounds
    those a, a second looks up each n - a.  A probe outside [0, 2N] has no
    such a, so it counts as missing.
    """
    mask = 0
    for j, n in enumerate(probes):
        lo, hi = np.searchsorted(elements, (n - N, n // 2 + 1))
        others = n - elements[lo:hi]
        found = elements.take(np.searchsorted(elements, others), mode="clip")
        if not np.any(found == others):
            mask |= 1 << j
    return mask


def gen_sumset(
    A: SampledSet, combo: SignedCombination, bit_budget: int = DEFAULT_BIT_BUDGET
) -> GenSumsetResult:
    """Membership and cardinality of the generalized sumset of A.

    The one-combo case of _trial_record's walk (_walk); the result owns its
    packed bytes.
    """
    span = combo.h * A.N + 1
    if span > bit_budget:
        raise BudgetError(
            f"membership vector needs {span} bits, exceeding the budget of {bit_budget}"
        )
    nbytes = (span + 7) // 8
    [(_, branch, folded)] = _walk(A, (combo,), FoldBuffers())
    cardinality = _cardinality(branch, folded, span)
    if branch == "int":
        packed = np.frombuffer(folded.to_bytes(nbytes, "little"), dtype=np.uint8)
    elif branch == "enumerate":
        packed = scatter_bits(folded, np.empty(nbytes, dtype=np.uint8))
    else:
        packed = folded[:nbytes].copy()
    return GenSumsetResult(combo=combo, N=A.N, packed=packed, cardinality=cardinality)


def _fold_words(acc: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Bit-sliced _shift_or: column n of the result ORs acc[:, n - b] & base[:, b].

    Column b of base holds the sets that contain b, so acc & base[:, b] is
    the part of acc that shifts by b.  A block of consecutive b is done at
    once: the terms are written as rows of a (W, B, M) buffer whose rows
    are read back with a stride of M - 1, which shifts row r right by r,
    and one OR-reduction over the rows folds the block.  The buffer stays
    under about _FOLD_BYTES.
    """
    W, L = acc.shape
    n = base.shape[1]
    B = max(1, min(n, _FOLD_BYTES // (8 * W * (L + n))))
    M = L + B  # zero columns after each row keep the shifted rows apart
    out = np.zeros((W, L + n - 1), dtype=acc.dtype)
    terms = np.zeros((W, B, M), dtype=acc.dtype)
    shifted = terms.reshape(W, B * M)[:, : B * (M - 1)].reshape(W, B, M - 1)
    for lo in range(0, n, B):
        k = min(B, n - lo)
        np.bitwise_and(acc[:, None, :], base[:, lo : lo + k, None], out=terms[:, :k, :L])
        block = np.bitwise_or.reduce(shifted[:, :k], axis=1)
        view = out[:, lo : lo + M - 1]
        np.bitwise_or(view, block[:, : view.shape[1]], out=view)
    return out


def _unpacked(words: np.ndarray) -> np.ndarray:
    """Bit-sliced words (W, L) as one uint8 0/1 per set and value: (W, L, 64).

    Entry [w, a, i] is bit i of word (w, a), which belongs to set 64w + i.
    """
    W, L = words.shape
    return np.unpackbits(words.view(np.uint8).reshape(W, L, 8), axis=2, bitorder="little")


def _batch_records(
    members: np.ndarray, combos: tuple[SignedCombination, ...]
) -> list[tuple[int, ...]]:
    """Records of a batch of sets given as a bool membership matrix (T, N+1).

    Record i is (|A|, |A_combo| for each combo) for the set in row i: the
    integers gen_sumset gives set by set.  Bit i of word (w, a) says
    whether set 64w + i contains a, so each numpy operation on a row of
    words folds 64 sets.  Each combo folds like gen_sumset: s - 1 copies of
    A, then d of the reflection {N - a}, whose columns are A's in reverse
    order.
    """
    T, n = members.shape
    W = -(-T // 64)
    packed = np.zeros((8 * W, n), dtype=np.uint8)
    packed[: -(-T // 8)] = np.packbits(members, axis=0, bitorder="little")
    words = np.ascontiguousarray(packed.reshape(W, 8, n).transpose(0, 2, 1))
    words = words.view("<u8").reshape(W, n)
    columns = [members.sum(axis=1).tolist()]
    for combo in combos:
        acc = words
        for base in [words] * (combo.s - 1) + [words[:, ::-1]] * combo.d:
            acc = _fold_words(acc, base)
        columns.append(_unpacked(acc).sum(axis=1).reshape(-1)[:T].tolist())
    return list(zip(*columns))


def records(params: SampleParameters, trials: range, combos, probes=(), threads: int = 1):
    """Yield (|A|, |A_combo| for each combo, missing-sum mask) for each trial, in order.

    Bit j of the mask is set when probes[j] is not in A + A (_missing_sums);
    with no probes it is 0.  params.trial_index is ignored.  The experiment
    pipeline's one entry, which samples the sets and picks the kernel (see
    the module docstring); the FoldBuffers is released with the last record.
    """
    N = params.N
    if N > BIT_SLICE_MAX_N:
        buffers = FoldBuffers()
        with closing(sample_sets(params, trials, threads)) as sets:
            for A in sets:
                yield (*_trial_record(A, combos, buffers), _missing_sums(A.elements, N, probes))
        return
    span = max(combo.h for combo in combos) * N + 1
    size = 64 * max(1, _BATCH_BYTES // (64 * span))
    for lo in range(0, len(trials), size):
        members = sample_members(params, trials[lo : lo + size])
        masks = ([_missing_sums(np.flatnonzero(row), N, probes) for row in members] if probes
                 else [0] * len(members))
        yield from map(operator.add, _batch_records(members, combos), zip(masks))


def gen_sumset_naive(
    A: SampledSet, combo: SignedCombination, tuple_budget: int = DEFAULT_TUPLE_BUDGET
) -> GenSumsetResult:
    """Oracle: materialize the signed sums of all |A|^h ordered tuples."""
    if A.size**combo.h > tuple_budget:
        raise BudgetError(
            f"enumerating {A.size ** combo.h} ordered tuples exceeds the budget "
            f"of {tuple_budget}"
        )
    arr = A.elements
    values = np.zeros(1 if A.size else 0, dtype=np.int64)
    for _ in range(combo.s):
        values = (values[:, None] + arr[None, :]).ravel()
    for _ in range(combo.d):
        values = (values[:, None] - arr[None, :]).ravel()
    distinct = np.unique(values)
    mask = np.zeros(combo.h * A.N + 1, dtype=bool)
    mask[distinct + combo.d * A.N] = True
    return GenSumsetResult(combo=combo, N=A.N, packed=np.packbits(mask, bitorder="little"),
                           cardinality=distinct.size)


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

