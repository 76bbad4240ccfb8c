import io
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensumset import SampledSet, SampleParameters, effective_p, sample_set
from gensumset import sampling
from gensumset.sampling import (
    MEMBER_CHUNK,
    SAMPLE_CHUNK,
    sample_members,
    scatter_bits,
    substream,
)


def _params(N, seed=401, trial=0, **kw):
    return SampleParameters(N=N, seed=seed, trial_index=trial, **kw)


def test_effective_p_examples():
    assert effective_p(_params(10**4, c=1.0, delta=Fraction(1, 2))) == pytest.approx(
        0.01, abs=1e-15
    )
    assert effective_p(_params(10**6, c=2.0, delta=Fraction(2, 3))) == pytest.approx(
        2e-4, rel=1e-12
    )
    with pytest.raises(ValueError):
        _params(4, c=10.0, delta=Fraction(1, 2))  # p = 5 > 1


def test_parameter_validation():
    # each message starts with the field it names
    with pytest.raises(ValueError, match="^p: "):
        _params(100)  # no probability given
    with pytest.raises(ValueError, match="^p: "):
        _params(100, c=1.0, delta=Fraction(1, 2), p=0.5)  # both forms
    with pytest.raises(ValueError, match="^delta: "):
        _params(100, c=1.0)  # c without delta
    with pytest.raises(ValueError, match="^c: "):
        _params(100, delta=Fraction(1, 2))  # delta without c
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^c: "):
            _params(100, c=c, delta=Fraction(1, 2))
    with pytest.raises(TypeError, match="^delta: "):
        _params(100, c=1.0, delta=0.5)  # float delta
    for delta in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError, match="^delta: "):
            _params(100, c=1.0, delta=delta)
    with pytest.raises(ValueError, match="^p: "):
        _params(100, p=0.0)
    with pytest.raises(ValueError, match="^N: "):
        _params(0, p=0.5)
    with pytest.raises(ValueError, match="^trial_index: "):
        _params(100, p=0.5, trial=-1)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="^seed: "):
            _params(100, seed=seed, p=0.5)


def test_determinism_contract():
    params = _params(5000, seed=7, trial=3, p=0.05)
    assert sample_set(params) == sample_set(params)
    other_trial = sample_set(_params(5000, seed=7, trial=4, p=0.05))
    other_seed = sample_set(_params(5000, seed=8, trial=3, p=0.05))
    first = sample_set(params)
    assert first != other_trial
    assert first != other_seed


def test_p_one_gives_full_set():
    A = sample_set(_params(257, p=1.0))
    assert A.size == 258
    assert A.elements[0] == 0 and A.elements[-1] == 257


def test_sampled_set_validation():
    with pytest.raises(ValueError):
        SampledSet(N=5, elements=np.array([0, 7]))
    with pytest.raises(ValueError):
        SampledSet(N=5, elements=np.array([3, 3]))
    with pytest.raises(ValueError):
        SampledSet(N=5, elements=np.array([-1, 2]))


def test_bitmask_matches_elements():
    # N + 1 takes every residue mod 8, and the element N sits in the last byte
    for N in range(100, 108):
        for members in ({0, 3, 64, 65, 100}, set(), {7, 8, 15}):
            members = members | {N}
            A = SampledSet.from_iterable(members, N=N)
            mask = A.bitmask()
            for a in range(N + 1):
                assert ((mask >> a) & 1) == (1 if a in members else 0)
            packed = scatter_bits(A.elements, np.ones((N + 8) // 8, dtype=np.uint8))
            assert int.from_bytes(packed.tobytes(), "little") == mask
            assert A.elements.tolist() == sorted(members)  # the offsets are left as they are


def test_mean_size_matches_binomial():
    # spec grid: N = 10^4, p = 0.01, T = 10^4 trials
    N, p, T = 10**4, 0.01, 10**4
    sizes = [sample_set(_params(N, seed=2024, trial=t, p=p)).size for t in range(T)]
    mean = sum(sizes) / T
    expect = (N + 1) * p
    band = 4 * math.sqrt((N + 1) * p * (1 - p) / T)
    assert abs(mean - expect) <= band, (mean, expect, band)


def test_substream_independence_via_intersections():
    # consecutive trials behave like independent draws: pairwise intersection
    # sizes average (N+1) p^2
    N, p = 10**4, 0.01
    pairs = 2000
    sets = [
        set(sample_set(_params(N, seed=55, trial=t, p=p)).elements.tolist())
        for t in range(pairs + 1)
    ]
    inter = [len(sets[t] & sets[t + 1]) for t in range(pairs)]
    mean = sum(inter) / pairs
    expect = (N + 1) * p * p
    band = 5 * math.sqrt(expect / pairs)  # Poisson-scale spread
    assert abs(mean - expect) <= band, (mean, expect, band)


def test_serialization_round_trip():
    for elements in ([], [0], [0, 2, 17, 99]):
        A = SampledSet.from_iterable(elements, N=99)
        buf = io.StringIO()
        A.write(buf)
        buf.seek(0)
        assert SampledSet.read(buf) == A


def test_serialization_format():
    A = SampledSet.from_iterable([1, 5], N=9)
    buf = io.StringIO()
    A.write(buf)
    assert buf.getvalue() == "N=9\n1 5\n"
    with pytest.raises(ValueError):
        SampledSet.read(io.StringIO("bogus\n1 2\n"))


@given(st.integers(0, 60), st.lists(st.integers(0, 60), max_size=30))
@settings(max_examples=80)
def test_round_trip_hypothesis(N, elements):
    elements = sorted({e for e in elements if e <= N})
    A = SampledSet.from_iterable(elements, N=N)
    buf = io.StringIO()
    A.write(buf)
    buf.seek(0)
    assert SampledSet.read(buf) == A


# Edge probabilities, and c * N**(-delta) of the N = 10^6 battery configs
# (fast_h2, fast_h3, critical_h3, slow_h2) and of critical_h2 (N = 10^5).
_ORACLE_PS = [1.0, 1.0 - 2.0**-53, 0.5, 2.0**-53, 0.01,
              1.0 * 1e6 ** -0.75, 1.0 * 1e6 ** -0.8, 2.0 * 1e6 ** (-2 / 3),
              1.0 * 1e6 ** -0.3, 1.0 * 1e5 ** -0.5]


@pytest.mark.parametrize(
    "size",
    [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 3, 10**6 + 1],
)
def test_chunked_draws_equal_one_draw(size):
    # Comparing raw words chunk by chunk, on one thread or on several that
    # each place their own Philox at the chunks they claim, continues one
    # stream, so the set is the one a single draw of N+1 doubles gives
    # against p.
    for t in (0, 1, 2**64 - 1):
        one_draw = substream(11, t).random(size)
        for p in _ORACLE_PS:
            expected = np.flatnonzero(one_draw < p)
            for threads in (1, 2, 3, 5) if t != 1 else (1,):
                A = sample_set(_params(size - 1, seed=11, trial=t, p=p), threads=threads)
                assert np.array_equal(A.elements, expected), (p, t, threads)


def _note_threads(raw_words_hooks, delay=0.0, fault=lambda: False):
    """Install raw_words_hooks; returns the id of the thread that drew each chunk."""
    drawn_by = []
    raw_words_hooks(delay, fault, lambda t: drawn_by.append(threading.get_ident()))
    return drawn_by


def test_raw_words_depend_only_on_the_chunk():
    # Chunks drawn in descending order, then again shuffled, two trials and
    # two seeds interleaved, on one thread and on two, are each their slice
    # of one raw draw of the trial's stream; the chunk at word 2^40 is the
    # draw's continuation there.
    size, far = 16 * 50 + 7, 2**40
    keys = [(seed, t) for seed in (5, 2**64 - 1) for t in (3, 2**64 - 1)]
    expected = {}
    for key in keys:
        bitgen = substream(*key).bit_generator
        expected[key] = bitgen.random_raw(size)
        bitgen = substream(*key).bit_generator
        bitgen.advance(far // 4)
        expected[key, far] = bitgen.random_raw(16)
    chunks = [(key, lo) for lo in range(size // 16 * 16, -1, -16) for key in keys]
    shuffled = chunks + [(key, far) for key in keys]
    random.Random(1).shuffle(shuffled)
    order = chunks + shuffled

    def check(part):
        for key, lo in part:
            if lo == far:
                words, want = sampling._raw_words(*key, lo, 16), expected[key, far]
            else:
                want = expected[key][lo : lo + 16]
                words = sampling._raw_words(*key, lo, want.size)
            assert np.array_equal(words, want), (key, lo)

    check(order)
    with ThreadPoolExecutor(2) as pool:
        for task in [pool.submit(check, order[i::2]) for i in range(2)]:
            task.result()


def test_small_chunks_interleave_between_threads(monkeypatch, raw_words_hooks):
    # 16-word chunks, 4 Philox blocks each, claimed by up to 5 threads on a
    # short switch interval, for one trial and for a pipelined run of
    # three: each chunk is drawn exactly once, and each set is still the
    # one-draw set.
    monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for size, threads in ((16 * 40, 2), (16 * 40 + 1, 3), (16 * 53 + 7, 5)):
            drawn_by = _note_threads(raw_words_hooks, delay=1e-4)
            for p in (0.5, 0.01):
                A = sample_set(_params(size - 1, seed=9, trial=4, p=p), threads=threads)
                sets = sampling.sample_sets(_params(size - 1, seed=9, p=p), range(4, 7),
                                            threads)
                for t, B in [(4, A), *zip(range(4, 7), sets)]:
                    one_draw = np.flatnonzero(substream(9, t).random(size) < p)
                    assert np.array_equal(B.elements, one_draw), (t, threads)
            assert len(set(drawn_by)) > 1  # chunks were drawn on more than one thread
            assert len(drawn_by) == 2 * 4 * -(-size // 16)
    finally:
        sys.setswitchinterval(interval)


def test_a_fault_in_any_thread_is_raised_and_no_helper_outlives_the_call(raw_words_hooks):
    params = _params(4 * SAMPLE_CHUNK, seed=2, trial=1, p=0.01)
    before = threading.active_count()
    assert sample_set(params, threads=3) == sample_set(params)
    assert threading.active_count() == before
    caller, failed = threading.get_ident(), threading.Event()

    def helpers_fail():
        # The caller draws nothing until a helper has failed, so a helper is
        # sure to have claimed a chunk (else the caller may draw every chunk
        # first).
        if threading.get_ident() == caller:
            assert failed.wait(timeout=10), "no helper claimed a chunk"
            return False
        failed.set()
        return True

    # A helper's fault is raised, not returned as a short set.
    _note_threads(raw_words_hooks, fault=helpers_fail)
    with pytest.raises(RuntimeError, match="injected sampler fault"):
        sample_set(params, threads=3)
    assert threading.active_count() == before
    # The calling thread's own fault is raised after the helpers, still
    # drawing slowly, have been joined.
    drawn_by = _note_threads(raw_words_hooks, delay=0.05,
                             fault=lambda: threading.get_ident() == caller)
    with pytest.raises(RuntimeError, match="injected sampler fault"):
        sample_set(params, threads=3)
    assert threading.active_count() == before
    assert caller not in drawn_by and len(drawn_by) <= 4


def test_raw_threshold_is_exact_at_each_double():
    # p equal to a drawn double u excludes that element and the next double
    # above u includes it, as random() < p does.
    for t in range(200):
        u = float(substream(3, t).random(1)[0])
        for p in (u, float(np.nextafter(u, 2.0)), float(np.nextafter(u, 0.0))):
            if p <= 0.0:
                continue
            A = sample_set(_params(40, seed=3, trial=t, p=p))
            assert (A.size > 0 and A.elements[0] == 0) == (u < p)
            one_draw = np.flatnonzero(substream(3, t).random(41) < p)
            assert np.array_equal(A.elements, one_draw)


def test_rekeyed_members_equal_sample_set():
    # One Philox re-keyed per trial gives each trial the stream of its own
    # Philox(key=(seed, t)): 20,000 trials over several seeds, sizes and p,
    # with rows of up to one draw and of more than MEMBER_CHUNK doubles.
    cases = [(0, 30, 0.3, range(0, 6000)), (2**64 - 1, 1, 0.5, range(6000, 12000)),
             (401, 77, 0.9, range(2**40, 2**40 + 7990)),
             (5, MEMBER_CHUNK, 0.01, range(3, 13))]
    checked = 0
    for seed, N, p, trials in cases:
        members = sample_members(_params(N, seed=seed, p=p), trials)
        assert members.shape == (len(trials), N + 1) and members.dtype == bool
        for row, t in zip(members, trials):
            A = sample_set(_params(N, seed=seed, trial=t, p=p))
            assert np.array_equal(np.flatnonzero(row), A.elements)
            checked += 1
    assert checked == 20000


def test_rekeyed_members_equal_sample_set_at_the_key_edges():
    # The re-keyed state takes keys near 2^64 as the constructor does.
    for t in (0, 2**63 + 5, 2**64 - 1):
        for seed, N, p in ((2**64 - 1, 40, 0.5), (7, 300, 0.01)):
            [row] = sample_members(_params(N, seed=seed, p=p), range(t, t + 1))
            A = sample_set(_params(N, seed=seed, trial=t, p=p))
            assert np.array_equal(np.flatnonzero(row), A.elements), (t, seed)


@pytest.mark.parametrize("size", [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1,
                                  3 * SAMPLE_CHUNK + 5])
def test_pipelined_sets_equal_one_draw(size):
    # Trial after trial, on any number of threads, each set is the one a
    # single draw of N+1 doubles gives against p; p = 2^-53 gives empty sets.
    trials = range(5, 9)
    for p in (1.0, 0.5, 0.01, 2.0**-53):
        expected = [np.flatnonzero(substream(13, t).random(size) < p) for t in trials]
        if p == 2.0**-53:
            assert not any(elements.size for elements in expected)
        for threads in (1, 2, 3, 5):
            sets = list(sampling.sample_sets(_params(size - 1, seed=13, p=p), trials, threads))
            assert [A.N for A in sets] == [size - 1] * len(trials)
            for A, elements in zip(sets, expected):
                assert np.array_equal(A.elements, elements), (p, threads)


def test_helpers_draw_at_most_one_trial_ahead(monkeypatch, raw_words_hooks):
    # While the caller holds trial t's set, the helpers draw trial t + 1's
    # chunks and none of a later trial.
    monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 16)
    drawn = []
    raw_words_hooks(delay=1e-4, record=drawn.append)
    params = _params(16 * 30 - 1, seed=21, p=0.3)
    trials = range(40, 46)
    ahead = 0
    for A, t in zip(sampling.sample_sets(params, trials, threads=3), trials):
        assert max(drawn) <= t + 1
        time.sleep(0.02)  # the caller's folds: the helpers may draw t + 1
        assert max(drawn) <= t + 1
        ahead += drawn.count(t + 1)
        assert A.elements.tolist() == np.flatnonzero(
            substream(21, t).random(16 * 30) < 0.3).tolist()
    assert ahead > 0  # some of the next trial was drawn behind the caller's back
    assert sorted(drawn) == [t for t in trials for _ in range(30)]
