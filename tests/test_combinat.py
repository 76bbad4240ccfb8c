import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_combos, signed_sums_by_enumeration
from gensumset import (
    BudgetError,
    SignedCombination,
    distinct_class_count,
    ext_binom,
    rep_count,
    rep_count_bruteforce,
    rep_counts_all,
    stars_and_bars,
)
from gensumset.cli import main


def test_signed_combination_invariants():
    combo = SignedCombination(2, 1)
    assert combo.h == 3
    assert combo.block_permutations == 2
    assert combo.value_range(10) == (-10, 20)
    with pytest.raises(ValueError):
        SignedCombination(1, 2)  # d > s
    with pytest.raises(ValueError):
        SignedCombination(0, 0)
    with pytest.raises(ValueError):
        SignedCombination(1, 0)  # h < 2


def test_ext_binom_examples():
    assert ext_binom(5, 2) == 10
    assert ext_binom(2, 5) == 0
    assert ext_binom(-3, 1) == 0
    with pytest.raises(ValueError):
        ext_binom(3, -1)


@given(st.integers(0, 200), st.integers(0, 200))
def test_ext_binom_matches_stdlib(a, b):
    assert ext_binom(a, b) == math.comb(a, b)


def test_stars_and_bars_examples():
    assert stars_and_bars(3, 2) == 4  # (0,3),(1,2),(2,1),(3,0)
    assert stars_and_bars(0, 5) == 1
    # brute-force enumeration of triples summing to 4
    triples = [
        (a, b, 4 - a - b) for a in range(5) for b in range(5 - a)
    ]
    assert len(triples) == 15
    assert stars_and_bars(4, 3) == 15


@given(st.integers(0, 12), st.integers(1, 4))
def test_stars_and_bars_counts_tuples(n, k):
    def count(total, parts):
        if parts == 1:
            return 1
        return sum(count(total - first, parts - 1) for first in range(total + 1))

    assert stars_and_bars(n, k) == count(n, k)


def test_rep_count_examples():
    assert rep_count(2, SignedCombination(2, 0), 5) == 3  # (0,2),(1,1),(2,0)
    for N in (0, 1, 5, 17):
        assert rep_count(-N, SignedCombination(1, 1), N) == 1
    # hand inclusion-exclusion at N=1: i=0 gives C(2,1)=2, i=1 vanishes
    assert rep_count(1, SignedCombination(2, 0), 1) == 2
    assert rep_count(0, SignedCombination(1, 1), 5) == 6
    # out of range
    assert rep_count(11, SignedCombination(2, 0), 5) == 0
    assert rep_count(-1, SignedCombination(2, 0), 5) == 0


def test_rep_count_matches_bruteforce_small_grid():
    for combo in all_combos(2, 4):
        for N in range(0, 7):
            lo, hi = combo.value_range(N)
            for n in range(lo - 1, hi + 2):
                assert rep_count(n, combo, N) == rep_count_bruteforce(n, combo, N), (
                    combo,
                    N,
                    n,
                )


@given(
    st.sampled_from(all_combos(2, 3)),
    st.integers(0, 8),
    st.integers(-24, 24),
)
@settings(max_examples=150)
def test_rep_count_matches_bruteforce_hypothesis(combo, N, n):
    assert rep_count(n, combo, N) == rep_count_bruteforce(n, combo, N)


def test_rep_counts_all_examples():
    assert rep_counts_all(SignedCombination(2, 0), 1).counts == (1, 2, 1)
    assert rep_counts_all(SignedCombination(1, 1), 1).counts == (1, 2, 1)
    table = rep_counts_all(SignedCombination(2, 1), 6)
    assert table.count_at(-6) == 1
    assert table.count_at(100) == 0
    assert [n for n, _ in table.items()][0] == -6


def test_rep_counts_all_agrees_with_rep_count():
    for combo in all_combos(2, 5):
        for N in (0, 1, 2, 7, 40):
            table = rep_counts_all(combo, N)
            for n, count in table.items():
                assert count == rep_count(n, combo, N)


def test_total_and_reflection_identities():
    for combo in all_combos(2, 5):
        for N in (0, 1, 3, 10, 64, 200):
            table = rep_counts_all(combo, N)
            assert table.total() == (N + 1) ** combo.h
            axis = (combo.s - combo.d) * N
            for n, count in table.items():
                assert count == table.count_at(axis - n)
            assert table.count_at(-combo.d * N) == 1
            assert table.count_at(combo.s * N) == 1


def test_split_invariance():
    # The count depends on (h, n + dN) only: reindexing by n' makes every
    # split of the same h produce the identical vector.
    for h in (2, 3, 4, 5):
        splits = [c for c in all_combos(h, h)]
        for N in (0, 1, 5, 33):
            vectors = [rep_counts_all(c, N).counts for c in splits]
            assert all(v == vectors[0] for v in vectors)


def test_rep_counts_all_budget():
    with pytest.raises(BudgetError):
        rep_counts_all(SignedCombination(2, 0), 10**9)


def test_bruteforce_budget():
    with pytest.raises(BudgetError):
        rep_count_bruteforce(0, SignedCombination(2, 2), 1000)
    with pytest.raises(BudgetError):
        distinct_class_count(0, SignedCombination(2, 2), 10**6)


def test_bruteforce_extremes():
    # single tuple of all-N entries
    for N in (1, 4, 9):
        assert rep_count_bruteforce(3 * N, SignedCombination(3, 0), N) == 1


def test_distinct_class_count_examples():
    assert distinct_class_count(2, SignedCombination(2, 0), 5) == 2  # {0,2}, {1,1}
    for N in (1, 5, 9):
        assert distinct_class_count(-N, SignedCombination(1, 1), N) == 1


def test_distinct_class_count_vs_enumeration():
    # independent canonical-form enumeration of ordered tuples
    from itertools import product as iproduct

    for combo in all_combos(2, 3):
        N = 5
        classes_by_value: dict[int, set] = {}
        for tup in iproduct(range(N + 1), repeat=combo.h):
            key = (tuple(sorted(tup[: combo.s])), tuple(sorted(tup[combo.s :])))
            value = sum(tup[: combo.s]) - sum(tup[combo.s :])
            classes_by_value.setdefault(value, set()).add(key)
        lo, hi = combo.value_range(N)
        for n in range(lo, hi + 1):
            assert distinct_class_count(n, combo, N) == len(
                classes_by_value.get(n, set())
            )


def test_halved_count_when_all_distinct():
    # where no pair representation repeats an element, classes are exactly
    # half the ordered count for (2,0)
    combo = SignedCombination(2, 0)
    N = 9
    for n in (1, 3, 5):  # odd sums cannot use a doubled element
        assert distinct_class_count(n, combo, N) * 2 == rep_count(n, combo, N)


def _repeat_excess_by_enumeration(combo, N):
    """max over n of (ordered tuples) - s!d! * (classes with h distinct entries)."""
    h = combo.h
    grids = np.indices((N + 1,) * h).reshape(h, -1)
    signs = np.array([1] * combo.s + [-1] * combo.d).reshape(h, 1)
    values = (grids * signs).sum(axis=0)
    distinct = np.ones(values.shape, dtype=bool)
    for i in range(h):
        for j in range(i + 1, h):
            distinct &= grids[i] != grids[j]
    offset = combo.d * N
    span = h * N + 1
    total = np.bincount(values + offset, minlength=span)
    kept = np.bincount(values[distinct] + offset, minlength=span)
    excess = total - kept
    if combo.s == combo.d:
        # the diagonal families (a, ..., a | a, ..., a) pile onto n = 0 with a
        # full free choice each, so the lower-order bound excludes that value
        excess[offset] = 0
    return int(excess.max())


def test_repeats_are_lower_order():
    # excess / N**(h-2) stays bounded as N doubles
    for combo in [SignedCombination(2, 0), SignedCombination(1, 1),
                  SignedCombination(2, 1), SignedCombination(3, 0)]:
        ratios = []
        for N in (20, 40, 80):
            excess = _repeat_excess_by_enumeration(combo, N)
            ratios.append(excess / N ** (combo.h - 2))
        assert max(ratios) <= 8.0, (combo, ratios)


def test_rep_count_vs_full_enumeration_table():
    for combo in all_combos(2, 3):
        N = 6
        table = signed_sums_by_enumeration(combo, N)
        lo, hi = combo.value_range(N)
        for n in range(lo, hi + 1):
            assert rep_count(n, combo, N) == table.get(n, 0)


def test_csv_export(tmp_path, capsys):
    # the n,count CSV of rep_counts_all, as `gensumset rcount` writes it to a file
    out_path = tmp_path / "counts.csv"
    assert main(["rcount", "--N", "2", "--s", "1", "--d", "1", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text() == "n,count\n-2,1\n-1,2\n0,3\n1,2\n2,1\n"
