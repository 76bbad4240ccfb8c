import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensumset import SampledSet, SampleParameters, effective_p, sample_set
from gensumset.sampling import SAMPLE_CHUNK, substream


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
    with pytest.raises(ValueError):
        _params(100)  # no probability given
    with pytest.raises(ValueError):
        _params(100, c=1.0, delta=Fraction(1, 2), p=0.5)  # both forms
    with pytest.raises(ValueError):
        _params(100, c=1.0)  # c without delta
    with pytest.raises(TypeError):
        _params(100, c=1.0, delta=0.5)  # float delta
    with pytest.raises(ValueError):
        _params(100, p=0.0)
    with pytest.raises(ValueError):
        _params(0, p=0.5)
    with pytest.raises(ValueError):
        _params(100, p=0.5, trial=-1)


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
    A = SampledSet.from_iterable([0, 3, 64, 65, 100], N=100)
    mask = A.bitmask()
    for a in range(101):
        assert ((mask >> a) & 1) == (1 if a in {0, 3, 64, 65, 100} else 0)


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


@pytest.mark.parametrize(
    "size", [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 10**6 + 1]
)
def test_chunked_draws_equal_one_draw(size):
    # Drawing the N+1 uniforms chunk by chunk continues one stream, so the
    # set is the one a single draw of N+1 doubles gives.
    for t in range(3):
        A = sample_set(_params(size - 1, seed=11, trial=t, p=0.01))
        one_draw = np.flatnonzero(substream(11, t).random(size) < 0.01)
        assert np.array_equal(A.elements, one_draw)
