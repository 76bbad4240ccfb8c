"""Shared brute-force oracles and fixtures for the test suite.

The oracles deliberately use the dumbest correct method available (full
subset or tuple enumeration) so they cannot share a failure mode with the
formulas they check.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from itertools import product

import pytest

from gensumset import SignedCombination, sampling


def all_combos(h_min: int = 2, h_max: int = 4) -> list[SignedCombination]:
    out = []
    for h in range(h_min, h_max + 1):
        for d in range(0, h // 2 + 1):
            if h - d >= d and h - d >= 1:
                out.append(SignedCombination(h - d, d))
    return out


def signed_sums_by_enumeration(combo: SignedCombination, N: int) -> dict[int, int]:
    """Ordered-tuple counts per generated value, by full enumeration."""
    table: dict[int, int] = {}
    for tup in product(range(N + 1), repeat=combo.h):
        n = sum(tup[: combo.s]) - sum(tup[combo.s :])
        table[n] = table.get(n, 0) + 1
    return table


def subset_weight(bits: int, N: int, p: float) -> float:
    size = bits.bit_count()
    return p**size * (1.0 - p) ** (N + 1 - size)


def missing_sum_probs_by_subsets(N: int, p: float) -> list[float]:
    """P(n missing from A+A) for n in [0, 2N], by weighted subset enumeration."""
    contributions: list[list[float]] = [[] for _ in range(2 * N + 1)]
    for bits in range(1 << (N + 1)):
        sums = 0
        rest = bits
        while rest:
            low = rest & -rest
            sums |= bits << (low.bit_length() - 1)
            rest ^= low
        w = subset_weight(bits, N, p)
        for n in range(2 * N + 1):
            if not (sums >> n) & 1:
                contributions[n].append(w)
    return [math.fsum(c) for c in contributions]


def expected_missing_diffs_by_subsets(N: int, p: float) -> float:
    """E[count of differences in [-N, N] missing from A-A], by enumeration."""
    contributions = []
    for bits in range(1 << (N + 1)):
        diffs = set()
        members = [a for a in range(N + 1) if (bits >> a) & 1]
        for a in members:
            for b in members:
                diffs.add(a - b)
        contributions.append(subset_weight(bits, N, p) * (2 * N + 1 - len(diffs)))
    return math.fsum(contributions)


def peak_traced_bytes(call) -> int:
    """The most bytes that tracemalloc saw allocated at once during call()."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def raw_words_hooks(monkeypatch):
    """Patch sampling._raw_words so that each chunk's draw runs test hooks first.

    Calling the fixture's value with (delay, fault, record) installs them:
    a draw for which fault() is true raises "injected sampler fault" before
    it records or draws anything; record(t), if given, is called with the
    chunk's trial, and the draw then sleeps delay seconds (letting other
    threads claim chunks) before it draws the chunk's true words.
    """
    raw_words = sampling._raw_words

    def install(delay=0.0, fault=lambda: False, record=None):
        def words(seed, t, lo, count):
            if fault():
                raise RuntimeError("injected sampler fault")
            if record is not None:
                record(t)
            time.sleep(delay)
            return raw_words(seed, t, lo, count)

        monkeypatch.setattr(sampling, "_raw_words", words)

    return install
