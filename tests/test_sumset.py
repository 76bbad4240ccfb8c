import io
import math
import threading
from dataclasses import replace
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_combos, peak_traced_bytes
from gensumset import (
    BudgetError,
    SampledSet,
    SampleParameters,
    SignedCombination,
    ext_binom,
    gen_sumset,
    gen_sumset_naive,
    sample_set,
    tuple_statistics,
)
from gensumset import sampling, sumset
from gensumset.sampling import sample_members
from gensumset.sumset import (
    _BLOCK_WORDS,
    BIT_SLICE_MAX_N,
    BYTE_FOLD_MIN_N,
    _batch_records,
    _edge_fold,
    _enumerated_sums,
    _missing_sums,
    _popcount,
    _shift_or,
    _shift_or_bytes,
    _sieve,
    _trial_record,
    FoldBuffers,
)


def _set(elements, N):
    return SampledSet.from_iterable(elements, N=N)


def test_gen_sumset_hand_examples():
    result = gen_sumset(_set([0, 1], 1), SignedCombination(1, 1))
    assert result.values() == [-1, 0, 1]
    assert result.cardinality == 3
    assert result.complement_count == 0

    A = _set([0, 1, 2, 4], 4)
    assert gen_sumset(A, SignedCombination(2, 0)).cardinality == 8
    assert gen_sumset(A, SignedCombination(1, 1)).cardinality == 9


def test_full_interval():
    for combo in (SignedCombination(1, 1), SignedCombination(2, 1)):
        N = 30
        result = gen_sumset(_set(range(N + 1), N), combo)
        assert result.cardinality == combo.h * N + 1
        assert result.complement_count == 0


def test_empty_and_singleton():
    combo = SignedCombination(2, 1)
    empty = gen_sumset(_set([], 10), combo)
    assert empty.cardinality == 0
    assert empty.complement_count == 31
    assert gen_sumset_naive(_set([], 10), combo) == empty

    single = gen_sumset(_set([4], 10), combo)
    assert single.values() == [(combo.s - combo.d) * 4]
    assert gen_sumset_naive(_set([4], 10), combo) == single


def test_contains_and_extremes():
    A = _set([2, 3, 7], 9)
    for combo in all_combos(2, 4):
        result = gen_sumset(A, combo)
        values = result.values()
        assert values[0] == combo.s * 2 - combo.d * 7
        assert values[-1] == combo.s * 7 - combo.d * 2
        assert result.cardinality + result.complement_count == combo.h * 9 + 1


def test_kernel_matches_naive_on_random_instances():
    rng = np.random.default_rng(20240811)
    combos = all_combos(2, 4)
    checked = 0
    while checked < 1000:
        N = int(rng.integers(1, 61))
        size = int(rng.integers(0, 26))
        elements = np.unique(rng.integers(0, N + 1, size=size))
        A = SampledSet(N=N, elements=elements)
        combo = combos[int(rng.integers(0, len(combos)))]
        if A.size**combo.h > 10**6:
            continue
        assert gen_sumset(A, combo) == gen_sumset_naive(A, combo)
        checked += 1


def test_reflection_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        N = int(rng.integers(1, 50))
        elements = np.unique(rng.integers(0, N + 1, size=12))
        A = SampledSet(N=N, elements=elements)
        mirrored = SampledSet(N=N, elements=np.sort(N - elements))
        for combo in (SignedCombination(2, 0), SignedCombination(2, 1)):
            assert (
                gen_sumset(A, combo).cardinality
                == gen_sumset(mirrored, combo).cardinality
            )


def test_monotonicity_in_subsets():
    rng = np.random.default_rng(4)
    for _ in range(30):
        N = int(rng.integers(2, 50))
        big = np.unique(rng.integers(0, N + 1, size=15))
        if big.size < 2:
            continue
        keep = rng.random(big.size) < 0.6
        small = big[keep]
        A, B = SampledSet(N=N, elements=small), SampledSet(N=N, elements=big)
        for combo in (SignedCombination(1, 1), SignedCombination(3, 0)):
            inside = int.from_bytes(gen_sumset(A, combo).packed.tobytes(), "little")
            outside = int.from_bytes(gen_sumset(B, combo).packed.tobytes(), "little")
            assert inside & ~outside == 0  # pointwise containment


def test_tuple_statistics_hand_example():
    stats = tuple_statistics(_set([0, 1, 2], 2), SignedCombination(2, 0))
    assert stats.class_counts == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert stats.x == {1: 6, 2: 1}
    assert stats.alternating_sum() == 5
    assert stats.cardinality == 5


def test_tuple_statistics_matches_ordered_enumeration():
    # canonicalizing ordered tuples must give the same class tallies
    rng = np.random.default_rng(8)
    for _ in range(25):
        N = int(rng.integers(2, 25))
        elements = np.unique(rng.integers(0, N + 1, size=7))
        A = SampledSet(N=N, elements=elements)
        for combo in (SignedCombination(2, 0), SignedCombination(2, 1)):
            seen: dict[int, set] = {}
            for tup in product(elements.tolist(), repeat=combo.h):
                key = (tuple(sorted(tup[: combo.s])), tuple(sorted(tup[combo.s :])))
                value = sum(tup[: combo.s]) - sum(tup[combo.s :])
                seen.setdefault(value, set()).add(key)
            stats = tuple_statistics(A, combo)
            assert stats.class_counts == {v: len(ks) for v, ks in seen.items()}


def test_inclusion_exclusion_identity():
    rng = np.random.default_rng(99)
    combos = all_combos(2, 4)
    for _ in range(120):
        N = int(rng.integers(1, 40))
        elements = np.unique(rng.integers(0, N + 1, size=int(rng.integers(1, 15))))
        A = SampledSet(N=N, elements=elements)
        combo = combos[int(rng.integers(0, len(combos)))]
        stats = tuple_statistics(A, combo)
        card = gen_sumset(A, combo).cardinality
        assert stats.alternating_sum() == card
        assert stats.cardinality == card
        assert stats.x[1] == sum(stats.class_counts.values())
        max_r = max(stats.class_counts.values())
        assert all(stats.x.get(k, 0) == 0 for k in range(max_r + 1, max_r + 3))


def test_bonferroni_bracketing():
    A = _set([0, 1, 2, 3, 5, 8, 13], 13)
    for combo in (SignedCombination(2, 0), SignedCombination(2, 1)):
        stats = tuple_statistics(A, combo)
        card = gen_sumset(A, combo).cardinality
        partial = 0
        for k in sorted(stats.x):
            partial += stats.x[k] if k % 2 == 1 else -stats.x[k]
            assert abs(card - partial) <= stats.x[k]


def test_class_count_upper_bound():
    rng = np.random.default_rng(12)
    for _ in range(40):
        N = int(rng.integers(1, 40))
        elements = np.unique(rng.integers(0, N + 1, size=10))
        A = SampledSet(N=N, elements=elements)
        for combo in all_combos(2, 3):
            card = gen_sumset(A, combo).cardinality
            bound = min(
                combo.h * N + 1,
                ext_binom(A.size + combo.s - 1, combo.s)
                * ext_binom(A.size + combo.d - 1, combo.d),
            )
            assert card <= bound


def test_mstd_classification():
    # Conway's sum-dominated set, a balanced interval and a difference-dominated
    # set: gen_sumset and the bit-sliced batch agree on the sign of |A+A| - |A-A|.
    sum_diff = (SignedCombination(2, 0), SignedCombination(1, 1))
    for elements, N, sign in (([0, 2, 3, 4, 7, 11, 12, 14], 14, 1),
                              (range(9), 8, 0), ([0, 1, 2, 4], 4, -1)):
        A = _set(elements, N)
        sums, diffs = (gen_sumset(A, combo).cardinality for combo in sum_diff)
        members = np.zeros((1, N + 1), dtype=bool)
        members[0, A.elements] = True
        [(_, batch_sums, batch_diffs)] = _batch_records(members, sum_diff)
        assert np.sign(sums - diffs) == np.sign(batch_sums - batch_diffs) == sign


def test_budget_errors():
    A = _set(range(40), 60)
    with pytest.raises(BudgetError):
        gen_sumset_naive(A, SignedCombination(2, 2), tuple_budget=10**4)
    with pytest.raises(BudgetError):
        tuple_statistics(A, SignedCombination(2, 2), tuple_budget=10**4)
    with pytest.raises(BudgetError):
        gen_sumset(A, SignedCombination(2, 2), bit_budget=100)


def test_summary_and_membership_csv():
    result = gen_sumset(_set([0, 2], 2), SignedCombination(1, 1))
    assert result.summary() == {
        "s": 1,
        "d": 1,
        "N": 2,
        "cardinality": 3,
        "complement_count": 2,
    }
    buf = io.StringIO()
    result.write_membership_csv(buf)
    assert buf.getvalue() == (
        "n,member\n-2,1\n-1,0\n0,1\n1,0\n2,1\n"
    )


@given(
    st.lists(st.integers(0, 40), min_size=0, max_size=10),
    st.sampled_from(all_combos(2, 3)),
)
@settings(max_examples=120)
def test_kernel_matches_naive_hypothesis(elements, combo):
    A = SampledSet.from_iterable(elements, N=40)
    assert gen_sumset(A, combo) == gen_sumset_naive(A, combo)


@given(
    st.integers(1, 300).filter(lambda n: n % 8),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_byte_fold_matches_big_int_fold(length, data):
    # Vectors whose bit length is not a whole number of bytes, and shift
    # lists that hit every residue mod 8; all-ones vectors fill bytes at
    # once.  The fold ORs into what out holds.
    top = 1 << (length - 1)
    bits = data.draw(st.one_of(st.integers(0, top - 1), st.just(top - 1))) | top
    shifts = [8 * data.draw(st.integers(0, 40)) + r for r in range(8)]
    shifts += data.draw(st.lists(st.integers(0, 330), max_size=12))
    shifts = np.array(data.draw(st.permutations(shifts)))
    packed = np.frombuffer(bits.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    size = packed.size + (int(shifts.max()) >> 3) + 1
    held = data.draw(st.integers(0, (1 << 8 * size) - 1))
    out = np.frombuffer(held.to_bytes(size, "little"), dtype=np.uint8).copy()
    folded = _shift_or_bytes(packed, shifts, out, FoldBuffers())
    assert int.from_bytes(folded.tobytes(), "little") == _shift_or(bits, shifts.tolist()) | held


class _CountingNumpy:
    """numpy as the sumset module sees it, counting the bytes bitwise_or writes."""

    def __init__(self):
        self.or_bytes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def bitwise_or(self, *args, out):
        self.or_bytes += out.nbytes
        return np.bitwise_or(*args, out=out)


def _spy_folds(monkeypatch, check_plain=False):
    """Patch in counters; each _edge_fold call appends a record of itself.

    A record holds the fold's shifts; in calls, the shifts of each
    _shift_or_bytes call it makes and ("sieve", shifts) for a _sieve call,
    in order; the number of values it sieves (sieved, None if it does not);
    the bytes it ORs (ored) and those a whole fold ORs (plain).  With
    check_plain, each fold is also run whole, after its bytes are counted,
    and must give the same output.
    """
    counter, folds = _CountingNumpy(), []

    def fold(acc, shifts, out, buffers):
        record = SimpleNamespace(shifts=shifts.tolist(), calls=[], sieved=None,
                                 ored=counter.or_bytes, plain=len(shifts) * (acc.size + 1))
        folds.append(record)
        out = _edge_fold(acc, shifts, out, buffers)
        record.ored = counter.or_bytes - record.ored
        if check_plain:
            plain = _shift_or_bytes(acc, shifts, np.zeros_like(out), FoldBuffers())
            assert np.array_equal(plain, out) and _popcount(plain) == _popcount(out)
        return out

    def shift_or(acc, shifts, out, buffers):
        folds[-1].calls.append(shifts.tolist())
        return _shift_or_bytes(acc, shifts, out, buffers)

    def sieve(acc, shifts, offsets, lo, hi):
        folds[-1].calls.append(("sieve", shifts.tolist()))
        folds[-1].sieved = offsets.size
        return _sieve(acc, shifts, offsets, lo, hi)

    monkeypatch.setattr(sumset, "np", counter)
    monkeypatch.setattr(sumset, "_edge_fold", fold)
    monkeypatch.setattr(sumset, "_shift_or_bytes", shift_or)
    monkeypatch.setattr(sumset, "_sieve", sieve)
    return folds


def _edge_count(span, size, covers=14):
    # K of the sumset module docstring, written out independently.
    return math.ceil(Fraction(covers * span, size))


def _check_paths(fold, covers=14):
    """The calls of one _edge_fold follow the documented rule; its path.

    "plain": B folded whole; "middle": its ends, then its middle folded;
    "sieve": its ends, then its middle sieved.
    """
    shifts, calls = fold.shifts, fold.calls
    if not shifts or len(shifts) <= 2 * _edge_count(shifts[-1] - shifts[0] + 1,
                                                    len(shifts), covers):
        assert calls == [shifts]
        return "plain"
    k = _edge_count(shifts[-1] - shifts[0] + 1, len(shifts), covers)
    assert calls[0] == shifts[:k] + shifts[-k:]
    assert calls[1:] in ([shifts[k:-k]], [("sieve", shifts[k:-k])])
    return "middle" if calls[1:] == [shifts[k:-k]] else "sieve"


def _sparse_members(data, gap, min_size, max_size):
    # The positions of the zeros in a drawn list of integers in [0, gap).
    return np.flatnonzero(np.array(data.draw(st.lists(st.integers(0, gap - 1), min_size=min_size,
                                                      max_size=max_size)), dtype=np.int64) == 0)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_edge_fold_matches_big_int_fold(data):
    # A short vector and shifts of drawn sparsity, with the constants
    # patched low enough that a fold takes any of its paths: whole when
    # |B| <= 2K, else its ends and then the sieve (always with
    # _SIEVE_BYTES = 0) or the middle shifts.  out starts with stale bytes,
    # which the fold clears.
    elements = _sparse_members(data, data.draw(st.sampled_from([1, 4, 16, 64])), 1, 300)
    bits = sum(1 << int(e) for e in elements)
    shifts = _sparse_members(data, data.draw(st.sampled_from([1, 2, 4])), 8, 330)
    covers = data.draw(st.sampled_from([1, 2, 3, 14]))
    share = data.draw(st.sampled_from([0, 1, 64, 10**6]))
    packed = np.frombuffer(bits.to_bytes(bits.bit_length() // 8 + 1, "little"), dtype=np.uint8)
    out = np.full(packed.size + (max(shifts, default=0) >> 3) + 1, 0xA5, dtype=np.uint8)
    with patch.object(sumset, "_EDGE_COVERS", covers), \
            patch.object(sumset, "_SIEVE_BYTES", share), \
            patch.object(sumset, "_BLOCK_WORDS", data.draw(st.sampled_from([1, 3, 1 << 13]))):
        with pytest.MonkeyPatch.context() as monkeypatch:
            folds = _spy_folds(monkeypatch)
            folded = sumset._edge_fold(packed, shifts, out, FoldBuffers())
    assert folded is out
    assert int.from_bytes(folded.tobytes(), "little") == _shift_or(bits, shifts.tolist())
    path = _check_paths(folds[0], covers)
    assert share or path != "middle"


@pytest.mark.parametrize(
    "name, elements, paths",
    [
        # Every odd value is missing from A + A: the middle is folded.
        ("evens", range(0, BYTE_FOLD_MIN_N + 1, 2), ["middle"]),
        # Full sumsets: the sieve gets nothing.
        ("evens with 1 and N - 1", [*range(0, BYTE_FOLD_MIN_N + 1, 2), 1, BYTE_FOLD_MIN_N - 1],
         ["sieve"]),
        # A gap of N / 4 values in the middle of A + A: the middle is folded.
        ("two quarters", [*range(0, BYTE_FOLD_MIN_N // 4),
                          *range(3 * BYTE_FOLD_MIN_N // 4, BYTE_FOLD_MIN_N + 1)], ["middle"]),
    ],
)
def test_edge_fold_paths_on_structured_sets(name, elements, paths, monkeypatch):
    # Sets with structure that a random set lacks, against the big-int fold.
    N = BYTE_FOLD_MIN_N
    A = _set(elements, N)
    for combo in _combos((2, 0), (1, 1), (2, 1)):
        expected = _forced("int", A, combo, monkeypatch)
        folds = _spy_folds(monkeypatch)
        result = gen_sumset(A, combo)
        monkeypatch.undo()
        assert result == expected, name
        assert [_check_paths(fold) for fold in folds] == paths * (combo.h - 1)


def _documented_branch(N, h, size):
    # The rule of the sumset module docstring, written out independently.
    if N < BYTE_FOLD_MIN_N:
        return "int"
    return "enumerate" if 17 * size**h <= (4 * h - 3) * N / 8 else "bytes"


@pytest.mark.parametrize(
    "N", [BYTE_FOLD_MIN_N - 1, BYTE_FOLD_MIN_N, BYTE_FOLD_MIN_N + 1]
)
def test_kernel_matches_naive_at_the_fold_threshold(N, monkeypatch):
    ran = []

    def spy(name, kernel):
        def wrapper(*args):
            ran.append(name)
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(sumset, "_shift_or", spy("int", _shift_or))
    monkeypatch.setattr(sumset, "_shift_or_bytes", spy("bytes", _shift_or_bytes))
    monkeypatch.setattr(sumset, "_enumerated_sums", spy("enumerate", _enumerated_sums))
    rng = np.random.default_rng(N)
    branches = set()
    for inner_size in (0, 3, 4, 6, 10):
        inner = rng.choice(np.arange(1, N), size=inner_size, replace=False)
        A = _set([0, N, *inner.tolist()], N)  # the extremes span the whole range
        for combo in all_combos(2, 4):
            ran.clear()
            assert gen_sumset(A, combo) == gen_sumset_naive(A, combo)
            expected = _documented_branch(N, combo.h, A.size)
            assert set(ran) == {expected}
            branches.add(expected)
    if N < BYTE_FOLD_MIN_N:
        assert branches == {"int"}
    else:  # both sides of the enumeration crossover
        assert branches == {"enumerate", "bytes"}


def _forced(branch, A, combo, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(sumset, "kernel_branch", lambda N, h, size: branch)
        return gen_sumset(A, combo)


@pytest.mark.parametrize("N", [BYTE_FOLD_MIN_N, 10**6])
def test_enumeration_equals_naive_and_byte_fold(N, monkeypatch):
    # Whole results, packed bytes included, for every combo with h <= 4,
    # at the largest |A| the rule enumerates and one past it.
    rng = np.random.default_rng(N + 1)
    fixed = [[], [0], [N], [N // 3], [0, N], [0, 1, N - 1, N]]
    for combo in all_combos(2, 4):
        largest = 1
        while _documented_branch(N, combo.h, largest + 1) == "enumerate":
            largest += 1
        sets = [_set(elements, N) for elements in fixed]
        for size in (largest, largest + 1):
            inner = rng.choice(np.arange(1, N), size=size - 2, replace=False)
            sets.append(_set([0, N, *inner.tolist()], N))
        sides = [sumset.kernel_branch(N, combo.h, A.size) for A in sets[-2:]]
        assert sides == ["enumerate", "bytes"]
        for A in sets:
            enumerated = _forced("enumerate", A, combo, monkeypatch)
            assert enumerated == _forced("bytes", A, combo, monkeypatch)
            assert enumerated == gen_sumset_naive(A, combo, tuple_budget=10**7)
            assert enumerated.packed.size == (combo.h * N + 8) // 8


def _documented_gate(N, size):
    # The gate of the sumset module docstring, written out independently:
    # shifts B that span [0, N], as A and its reflection do when A holds 0
    # and N, fold whole when |B| <= 2K, K = ceil(14 (N + 1) / |B|).
    return size > 2 * _edge_count(N + 1, size)


def _combos(*pairs):
    return [SignedCombination(s, d) for s, d in pairs]


@pytest.mark.parametrize(
    "p, combos",
    [
        (0.05, _combos((2, 2), (2, 1))),
        (0.2, _combos((3, 0), (2, 2))),
        (0.5, _combos((2, 0), (2, 1))),
        (0.9, _combos((1, 1), (3, 0))),
        (1.0, _combos((2, 0), (1, 1))),
    ],
)
@pytest.mark.parametrize("N", [BYTE_FOLD_MIN_N, BYTE_FOLD_MIN_N + 1, 10**5])
def test_windowed_fold_equals_big_int_fold_on_dense_sets(N, p, combos, monkeypatch):
    # Dense sets holding 0 and N: every fold has |B| > 2K, so it ORs its
    # shifts near the two ends (the windows the ends decide) and sieves
    # the middle, which such a sumset fills but for a few values.  Every
    # fold gives the bytes of the whole fold, and the result the big-int
    # fold's.  At N = 10^5 only the first combo runs, to keep the big-int
    # oracle affordable.
    A = sample_set(SampleParameters(N=N, seed=N, p=p))
    A = _set(sorted({0, N, *A.elements.tolist()}), N)
    for combo in combos[:1] if N == 10**5 else combos:
        expected = _forced("int", A, combo, monkeypatch)
        folds = _spy_folds(monkeypatch, check_plain=True)
        result = gen_sumset(A, combo)
        monkeypatch.undo()
        assert result == expected
        assert [_check_paths(fold) for fold in folds] == ["sieve"] * (combo.h - 1)
        assert _documented_gate(N, A.size)
        assert all(fold.sieved < 8 for fold in folds), [fold.sieved for fold in folds]
        if A.size**combo.h <= 4 * 10**6:
            assert result == gen_sumset_naive(A, combo)


@pytest.mark.parametrize(
    "N, size",
    [
        (BYTE_FOLD_MIN_N, 958),  # |B| = 2K, K = 479: folded whole
        (BYTE_FOLD_MIN_N, 959),  # |B| = 2K + 1, K = 479: its ends and the sieve
        (BYTE_FOLD_MIN_N, 1024),
        (BYTE_FOLD_MIN_N, 1025),
        (10**5, 300),  # K = 4667, so every fold is whole
        (10**5, 1674),  # |B| = 2K, K = 837
        (10**5, 1675),  # |B| = 2K + 1, K = 836
        (1 << 17, 2048),
        (1 << 17, 2049),
    ],
)
def test_window_gate_sides_and_plain_folds(N, size, monkeypatch):
    # The gate follows the documented rule; below it a fold does one whole
    # OR per shift, and above it the sieve takes the middle shifts.  The
    # big-int fold is the oracle.  The empty set, which has no K, goes
    # through the byte fold in test_enumeration_equals_naive_and_byte_fold.
    rng = np.random.default_rng(size)
    inner = rng.choice(np.arange(1, N), size=size - 2, replace=False)
    A = _set([0, N, *inner.tolist()], N)
    side = _documented_gate(N, size)
    assert side == (size not in (958, 300, 1674))
    for combo in _combos((2, 0), (1, 1), (2, 1), (3, 0), (2, 2)):
        expected = _forced("int", A, combo, monkeypatch)
        folds = _spy_folds(monkeypatch)
        result = gen_sumset(A, combo)
        monkeypatch.undo()
        assert result == expected
        if combo.h == 2 and size**2 <= 2 * 10**6:  # beyond, the naive sums take seconds
            assert result == gen_sumset_naive(A, combo)
        paths = [_check_paths(fold) for fold in folds]
        assert paths == [("sieve" if side else "plain")] * (combo.h - 1)
        assert all(fold.ored == fold.plain for fold in folds if not side)


def test_windowed_fold_skips_most_bytes_at_slow_decay(monkeypatch):
    # A slow-decay sumset misses values only near its two ends, so a fold
    # ORs its 2K end shifts, under a quarter of the whole fold's bytes, and
    # leaves fewer than 100 values of the middle to the sieve.
    N = 10**6
    A = sample_set(SampleParameters(N=N, seed=123, c=1.0, delta=Fraction(3, 10)))
    for combo in _combos((2, 0), (1, 1)):
        folds = _spy_folds(monkeypatch)
        gen_sumset(A, combo)
        monkeypatch.undo()
        [fold] = folds
        assert _check_paths(fold) == "sieve"
        assert fold.ored < fold.plain / 4 and fold.sieved < 100, (combo, fold)


@given(
    st.one_of(
        st.integers(0, 200),
        st.integers(-24, 24).map(lambda k: 8 * _BLOCK_WORDS + k),
        st.integers(-24, 24).map(lambda k: 16 * _BLOCK_WORDS + k),
    ),
    st.sampled_from(["random", "ones", "sparse"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_blocked_popcount_equals_bit_count(length, fill, seed):
    # Lengths that are not whole words, and that cross a block boundary.
    rng = np.random.default_rng(seed)
    if fill == "ones":
        packed = np.full(length, 0xFF, dtype=np.uint8)
    else:
        packed = rng.integers(0, 256, size=length, dtype=np.uint8)
        if fill == "sparse":
            packed &= rng.random(length) < 0.01
    assert _popcount(packed) == int.from_bytes(packed.tobytes(), "little").bit_count()


def _values_by_int_walk(result):
    # The former values(): walk the set bits of the int.
    lo = -result.combo.d * result.N
    bits, out = int.from_bytes(result.packed.tobytes(), "little"), []
    while bits:
        low = bits & -bits
        out.append(lo + low.bit_length() - 1)
        bits ^= low
    return out


def _membership_csv_by_int_walk(result):
    # The former write_membership_csv: one shift of the int per row.
    lo = -result.combo.d * result.N
    bits = int.from_bytes(result.packed.tobytes(), "little")
    rows = [f"{lo + offset},{(bits >> offset) & 1}\n"
            for offset in range(result.span)]
    return "n,member\n" + "".join(rows)


def _assert_linear_readers_match_int_walk(result):
    assert result.values() == _values_by_int_walk(result)
    buf = io.StringIO()
    result.write_membership_csv(buf)
    assert buf.getvalue() == _membership_csv_by_int_walk(result)
    assert len(result.values()) == result.cardinality


def test_values_and_membership_csv_match_int_walk():
    for elements, N in (([0, 1], 1), ([0, 1, 2, 4], 4), ([], 10), ([4], 10),
                        ([2, 3, 7], 9), ([0, 2], 2)):
        for combo in all_combos(2, 4):
            _assert_linear_readers_match_int_walk(gen_sumset(_set(elements, N), combo))
    # A CSV longer than one block of rows.
    A = _set([0, 5, 17, 40000], 40000)
    _assert_linear_readers_match_int_walk(gen_sumset(A, SignedCombination(1, 1)))


@given(
    st.integers(1, 70),
    st.lists(st.integers(0, 70), max_size=12),
    st.sampled_from(all_combos(2, 4)),
)
@settings(max_examples=100, deadline=None)
def test_values_and_membership_csv_match_int_walk_hypothesis(N, elements, combo):
    A = SampledSet.from_iterable([e for e in elements if e <= N], N=N)
    _assert_linear_readers_match_int_walk(gen_sumset(A, combo))


def _per_set_record(A, combos, kernel):
    return (A.size, *(kernel(A, combo).cardinality for combo in combos))


def _missing_mask(A, probes, kernel=gen_sumset_naive):
    # Bit j set when probes[j] is not a value of A + A, as kernel lists them.
    held = set(kernel(A, SignedCombination(2, 0)).values())
    return sum((n not in held) << j for j, n in enumerate(probes))


@given(
    N=st.integers(1, 60),
    elements=st.lists(st.integers(0, 60), max_size=24),
    ends=st.sets(st.sampled_from(["0", "N"])),
    extra=st.lists(st.integers(-70, 130), max_size=6),
)
@settings(max_examples=300, deadline=None)
@example(N=1, elements=[], ends=set(), extra=[])  # the empty set
@example(N=60, elements=[], ends=set(), extra=[61, 119])
@example(N=60, elements=[17], ends=set(), extra=[34, 35])  # a singleton
@example(N=1, elements=[], ends={"0", "N"}, extra=[])  # {0, N}
@example(N=60, elements=[], ends={"N"}, extra=[])
def test_missing_sums_match_naive_sumset(N, elements, ends, extra):
    # Probes at both ends of [0, 2N], just outside it, and anywhere.
    A = SampledSet.from_iterable([e for e in elements if e <= N]
                                 + [{"0": 0, "N": N}[end] for end in ends], N=N)
    probes = (-1, 0, N, 2 * N, 2 * N + 1, *extra)
    assert _missing_sums(A.elements, N, probes) == _missing_mask(A, probes)


@pytest.mark.parametrize(
    "N, p, T, seed",
    [
        (1, 0.5, 4097, 0),
        (12, 0.5, 65, 2**64 - 1),
        (9, 1.0, 64, 0),
        (40, 1e-3, 63, 2**64 - 1),  # almost every set is empty
        (BIT_SLICE_MAX_N - 1, 0.004, 65, 0),
        (BIT_SLICE_MAX_N, 0.004, 64, 7),
        (BIT_SLICE_MAX_N, 0.5, 1, 2**64 - 1),
    ],
)
def test_batch_records_match_per_set_kernels(N, p, T, seed):
    # The bit-sliced batch gives, set by set, the counts that gen_sumset
    # and the enumeration oracle give, and records adds the mask of the
    # probes missing from A + A.  Probes outside the value range are
    # missing, as values() says.
    combos = tuple(all_combos(2, 4))
    probes = (-N - 1, -1, 0, 1, N, 2 * N - 1, 2 * N, 2 * N + 1, 4 * N + 1)
    params = SampleParameters(N=N, seed=seed, p=p)
    counts = _batch_records(sample_members(params, range(T)), combos)
    records = list(sumset.records(params, range(T), combos, probes))
    assert len(counts) == len(records) == T
    empty = (0,) * (1 + len(combos))
    for t, (count, record) in enumerate(zip(counts, records)):
        A = sample_set(replace(params, trial_index=t))
        assert count == _per_set_record(A, combos, gen_sumset)
        assert record == (*count, _missing_mask(A, probes, gen_sumset))
        if A.size <= 12:
            assert count == _per_set_record(A, combos, gen_sumset_naive)
            assert record[-1] == _missing_mask(A, probes)
        assert (count == empty) == (A.size == 0)
        if A.size == 0:
            assert record[-1] == (1 << len(probes)) - 1
    if p == 1e-3:
        assert counts.count(empty) > T // 2


def _probes(N, combo):
    # Values inside combo's range, at its ends, and just outside.
    lo, hi = combo.value_range(N)
    return (lo - 1, lo, lo + 1, 0, 1, N, hi - 1, hi, hi + 1, 5 * N)


@pytest.mark.parametrize("branch", [None, "int", "bytes", "enumerate"])
@pytest.mark.parametrize(
    "combos",
    [
        _combos((2, 1), (3, 0)),  # A + A shared
        _combos((2, 2), (3, 1), (4, 0)),  # A + A and A + A + A shared
        _combos((2, 0), (1, 1)),  # nothing shared past A
        _combos((3, 0), (2, 1), (3, 0), (2, 0)),  # a repeat, and a prefix of two others
    ],
)
def test_trial_record_matches_per_combo_kernels(combos, branch, monkeypatch):
    # One _trial_record call gives the counts of gen_sumset run combo by
    # combo, through the same forced branch (None: the documented rule), and
    # of the enumeration oracle where |A|^h is affordable.  One buffer set
    # serves every set in turn, a dense one before sparse and empty ones, so
    # a stale byte of an earlier set would show in a later record.  The
    # probe mask of each set, which records appends, matches gen_sumset's
    # A + A and, where affordable, the oracle's.
    N = BYTE_FOLD_MIN_N + 3
    rng = np.random.default_rng(len(combos))
    dense = [0, N, *rng.choice(np.arange(1, N), size=N // 3, replace=False).tolist()]
    sets = [_set(elements, N) for elements in (
        dense, [0, 1, N - 1, N], [], [N // 2], [3, 5, 8],
        rng.choice(N + 1, size=30, replace=False).tolist())]
    if branch == "enumerate":
        sets = sets[1:]  # a dense enumeration would hold |A|^h sums
    probes = _probes(N, SignedCombination(2, 0))
    buffers = FoldBuffers()
    for A in sets:
        with monkeypatch.context() as patch:
            if branch is not None:
                patch.setattr(sumset, "kernel_branch", lambda N, h, size: branch)
            record = _trial_record(A, combos, buffers)
            assert record == _per_set_record(A, combos, gen_sumset)
            mask = _missing_sums(A.elements, N, probes)
            assert mask == _missing_mask(A, probes, gen_sumset)
        if A.size**max(combo.h for combo in combos) <= 10**6:
            assert record == _per_set_record(A, combos, gen_sumset_naive)
        if A.size**2 <= 10**6:
            assert mask == _missing_mask(A, probes)
        if A.size == 0:
            assert record == (0,) * (1 + len(combos))
            assert mask == (1 << len(probes)) - 1


def test_trial_record_folds_each_shared_prefix_once(monkeypatch):
    # (2,2), (3,1) and (4,0) fold A + A once and A + A + A once: the six
    # nodes of their trie, +, +-, +--, ++, ++- and +++, not 3 folds a combo.
    N = 10**5
    A = _set([0, N, *range(1, 3000, 7)], N)
    combos = _combos((2, 2), (3, 1), (4, 0))
    folds = _spy_folds(monkeypatch)
    record = _trial_record(A, combos, FoldBuffers())
    monkeypatch.undo()
    assert [sumset.kernel_branch(N, 4, A.size)] == ["bytes"]
    assert len(folds) == 6
    assert record == _per_set_record(A, combos, gen_sumset)


def test_trial_record_allocates_no_output_vector_after_its_first_call():
    # At critical_h3's parameters both combos take the byte fold, folded
    # whole; at slow_h2's both fold their ends and sieve.  With the buffers
    # of an earlier trial, the second trial allocates less at once than one
    # output vector, (hN + 8) // 8 bytes; fresh buffers do not.
    N = 10**6
    for params, combos, path in (
        (SampleParameters(N=N, seed=99, c=2.0, delta=Fraction(2, 3)),
         _combos((2, 1), (3, 0)), "plain"),
        (SampleParameters(N=N, seed=123, c=1.0, delta=Fraction(3, 10)),
         _combos((2, 0), (1, 1)), "sieve"),
    ):
        first, second = (sample_set(replace(params, trial_index=t)) for t in range(2))
        h = max(combo.h for combo in combos)
        assert {sumset.kernel_branch(N, h, A.size) for A in (first, second)} == {"bytes"}
        with pytest.MonkeyPatch.context() as monkeypatch:
            folds = _spy_folds(monkeypatch)
            _trial_record(second, combos, FoldBuffers())
        assert {_check_paths(fold) for fold in folds} == {path}
        vector = (h * N + 8) // 8
        buffers = FoldBuffers()
        _trial_record(first, combos, buffers)
        assert peak_traced_bytes(lambda: _trial_record(second, combos, buffers)) < vector
        assert peak_traced_bytes(lambda: _trial_record(second, combos, FoldBuffers())) > vector


def _pipelined_records(monkeypatch, raw_words_hooks=None):
    """records at N = 1000 in chunks of 16 words, on 3 threads, with its trials.

    Given the raw_words_hooks fixture, a helper raises as it starts drawing a
    chunk, and the calling thread draws nothing until one has, so a helper
    is sure to have claimed a chunk (else the caller may draw every chunk
    first).
    """
    caller, failed = threading.get_ident(), threading.Event()

    def helpers_fail():
        if threading.get_ident() == caller:
            assert failed.wait(timeout=10), "no helper claimed a chunk"
            return False
        failed.set()
        return True

    monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 16)
    if raw_words_hooks is not None:
        raw_words_hooks(fault=helpers_fail)
    params = SampleParameters(N=1000, seed=4, p=0.05)
    combos = _combos((1, 1), (2, 0))
    trials = range(3, 9)
    return sumset.records(params, trials, combos, (0, 5), threads=3), params, combos, trials


def test_pipelined_records_leave_no_helper_behind(monkeypatch):
    # Whether the consumer takes every record or closes the generator after
    # one, the helpers have ended; the records are the one-thread ones.
    before = threading.active_count()
    records, params, combos, trials = _pipelined_records(monkeypatch)
    sets = [sample_set(replace(params, trial_index=t)) for t in trials]
    expected = [(*_trial_record(A, combos, FoldBuffers()), _missing_mask(A, (0, 5)))
                for A in sets]
    assert list(records) == expected
    assert threading.active_count() == before
    records, *_ = _pipelined_records(monkeypatch)
    assert next(records) == expected[0]
    assert threading.active_count() > before  # the helpers draw the next trial
    records.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 3, 5])
def test_pipelined_draws_run_at_most_their_helpers(monkeypatch, raw_words_hooks, threads):
    # Drawing trial after trial, alone or under records' folds, runs at
    # most min(threads, chunks) - 1 threads beside the caller, and none
    # outlives a consumer whose loop raises.
    counts = []
    monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 16)
    raw_words_hooks(record=lambda t: counts.append(threading.active_count()))
    params = SampleParameters(N=16 * 40 - 1, seed=6, p=0.2)  # 40 chunks, above BIT_SLICE_MAX_N
    trials = range(10, 14)
    before = threading.active_count()
    most = before + min(threads, 40) - 1
    for A in sampling.sample_sets(params, trials, threads):
        assert before < threading.active_count() <= most
    assert before < max(counts) <= most
    assert threading.active_count() == before
    with pytest.raises(KeyError, match="consumer"):
        for record in sumset.records(params, trials, _combos((1, 1), (2, 0)), threads=threads):
            assert before < threading.active_count() <= most
            raise KeyError("consumer")
    assert threading.active_count() == before
    assert max(counts) <= most


def test_pipelined_records_raise_a_helper_fault(monkeypatch, raw_words_hooks):
    before = threading.active_count()
    records, *_ = _pipelined_records(monkeypatch, raw_words_hooks)
    with pytest.raises(RuntimeError, match="injected sampler fault"):
        list(records)
    assert threading.active_count() == before
