import io
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_combos
from gensumset import (
    BudgetError,
    SampledSet,
    SignedCombination,
    ext_binom,
    gen_sumset,
    gen_sumset_naive,
    mstd_classify,
    tuple_statistics,
)
from gensumset import sumset
from gensumset.sumset import BYTE_FOLD_MIN_N, _shift_or, _shift_or_bytes


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
        low = combo.s * 2 - combo.d * 7
        high = combo.s * 7 - combo.d * 2
        assert result.contains(low) and result.contains(high)
        assert not any(
            result.contains(n) for n in (low - 1, high + 1, -combo.d * 9 - 5)
        )
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
            inside = gen_sumset(A, combo).bits
            outside = gen_sumset(B, combo).bits
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
    assert mstd_classify(_set([0, 2, 3, 4, 7, 11, 12, 14], 14)) == "sum-dominated"
    assert mstd_classify(_set(range(9), 8)) == "balanced"
    assert mstd_classify(_set([0, 1, 2, 4], 4)) == "difference-dominated"


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
    # lists that hit every residue mod 8.
    bits = data.draw(st.integers(0, (1 << (length - 1)) - 1)) | 1 << (length - 1)
    shifts = [8 * data.draw(st.integers(0, 40)) + r for r in range(8)]
    shifts += data.draw(st.lists(st.integers(0, 330), max_size=12))
    shifts = data.draw(st.permutations(shifts))
    packed = np.frombuffer(bits.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    folded = _shift_or_bytes(packed, shifts)
    assert int.from_bytes(folded.tobytes(), "little") == _shift_or(bits, shifts)


@pytest.mark.parametrize(
    "N", [BYTE_FOLD_MIN_N - 1, BYTE_FOLD_MIN_N, BYTE_FOLD_MIN_N + 1]
)
def test_kernel_matches_naive_at_the_fold_threshold(N, monkeypatch):
    byte_folds = []

    def spy(acc, shifts):
        byte_folds.append(len(shifts))
        return _shift_or_bytes(acc, shifts)

    monkeypatch.setattr(sumset, "_shift_or_bytes", spy)
    rng = np.random.default_rng(N)
    for _ in range(4):
        inner = rng.integers(1, N, size=int(rng.integers(0, 7)))
        A = _set([0, N, *inner.tolist()], N)  # the extremes span the whole range
        for combo in all_combos(2, 4):
            assert gen_sumset(A, combo) == gen_sumset_naive(A, combo)
    assert bool(byte_folds) == (N >= BYTE_FOLD_MIN_N)
