"""Seeded binomial sampling of subsets of {0, ..., N}.

Each trial draws its randomness from a Philox4x64 counter-based generator
keyed by the pair (seed, trial_index), so trial t is the same bit stream no
matter which worker runs it, in which order, on which platform.  Membership
keeps element a when the a-th double of Generator.random(N+1) is below the
inclusion probability p = c * N**(-delta) (or a fixed p).

`sample_set` builds one trial's set.  It reads the stream as the raw 64-bit
Philox words, in chunks of SAMPLE_CHUNK, and keeps word w when
w <= limit = (K << 11) - 1 with K = ceil(p * 2^53).  That is the same set,
not an approximation: Generator.random turns word w into the double
(w >> 11) * 2^-53, which is exact, and for the integer m = w >> 11 the test
m * 2^-53 < p holds exactly when m < K, that is when w < K * 2^11.  At
p = 1 the limit is 2^64 - 1, which a uint64 holds, so every element is
kept by the same test.  Skipping the conversion to doubles makes a draw at
N = 10^6 about 1.2x as fast.

The stream is counter-based: Philox turns counter block m into words
4m .. 4m+3, so word 4m onward is Philox(key=(seed, t)) placed with its
counter at m.  `_raw_words(seed, t, lo, count)` places the calling
thread's own Philox, made once per thread, at key (seed, t) and counter
lo // 4 through the state setter, then draws count words, so a chunk's
words depend only on (seed, t, lo), whichever thread draws them and in
whatever order.  SAMPLE_CHUNK is a multiple of 4, so every chunk starts on
a whole block, and a trial's chunks can be drawn on k threads (numpy's
random_raw and the comparison release the GIL).  The threads claim chunks
from one shared iterator rather than a fixed share each, so a thread on a
busy core takes fewer chunks instead of holding up the trial (a fixed half
each made one trial wait for the slower core).  Each thread holds one
chunk of words, 512 KB, at a time.  The chunks' elements are joined in
chunk order: the set is the one a single thread draws.

`sample_sets(params, trials, threads=k)` yields the sets of a range of
trials in order, on a thread pool of (up to) k - 1 workers made once per
call.  Each trial is one chunk-claiming draw: the caller submits one task
per worker as it hands out the previous trial's set, so the workers draw
trial t + 1 while the caller works on t (in sumset.records, its folds,
which run on one core) and never draw further ahead.  When the caller asks
for t + 1 it claims what is left and then waits on the tasks' futures,
which return once their chunks in flight are filed and raise a worker's
fault.  `sample_set(params, threads=k)` is the one-trial case.  With k = 1
no worker starts and the caller draws every chunk when it asks for the
set.

`sample_members` builds the membership rows of a batch of trials for the
batched small-N path: it places one Philox at key (seed, t) and counter 0
through its state setter, from the same state layout as `_raw_words`,
instead of constructing a generator per trial (a tenth of the cost), so
each row is exactly the set `sample_set` gives for that trial.  The state
is a dict of plain ints, which the setter reads faster than uint64 arrays.
It still compares doubles: at N = 100 raw rows measured no faster.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
SAMPLE_CHUNK = 1 << 16  # raw words per chunk; fastest measured from 2^15 to 2^16
assert SAMPLE_CHUNK % 4 == 0, "a chunk must start on a whole Philox counter block"
MEMBER_CHUNK = 1 << 13  # doubles that sample_members draws before comparing


@dataclass(frozen=True)
class SampleParameters:
    """One trial of the binomial model: ground set size, probability, stream key.

    The probability is given either as the decaying form (c, delta) with
    delta an exact rational in (0, 1), or as a fixed p in (0, 1].
    """

    N: int
    seed: int
    trial_index: int = 0
    c: float | None = None
    delta: Fraction | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        # Every message starts with the field it names.
        if self.N < 1:
            raise ValueError(f"N: must be positive, got {self.N}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index: must be non-negative, got {self.trial_index}")
        if not 0 <= self.seed < 1 << 64:
            # substream keys on the low 64 bits, so a wider seed would alias
            raise ValueError(f"seed: must lie in [0, 2**64), got {self.seed}")
        if self.c is None and self.delta is None:
            if self.p is None:
                raise ValueError("p: give either (c, delta) or a fixed p")
        else:
            if self.c is None:
                raise ValueError("c: the decaying form needs both c and delta")
            if not self.c > 0:
                raise ValueError(f"c: must be positive, got {self.c}")
            if self.delta is None:
                raise ValueError("delta: the decaying form needs both c and delta")
            if self.p is not None:
                raise ValueError("p: give either (c, delta) or a fixed p, not both")
            if isinstance(self.delta, float):
                raise TypeError("delta: must be an exact rational (Fraction), not float")
            object.__setattr__(self, "delta", Fraction(self.delta))
            if not 0 < self.delta < 1:
                raise ValueError(f"delta: must lie in (0, 1), got {self.delta}")
        effective_p(self)  # validated, never clamped


def effective_p(params: SampleParameters) -> float:
    """Inclusion probability c * N**(-delta), or the fixed p; must be in (0, 1]."""
    if params.p is not None:
        name, p = "p", params.p
    else:
        name, p = "c", params.c * float(params.N) ** (-float(params.delta))
    if not 0.0 < p <= 1.0:
        raise ValueError(f"{name}: inclusion probability {p} lies outside (0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class SampledSet:
    """A subset of {0, ..., N} as a strictly increasing element array."""

    N: int
    elements: np.ndarray

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"N: must be non-negative, got {self.N}")
        elements = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "elements", elements)
        if elements.size:
            if elements[0] < 0 or elements[-1] > self.N:
                raise ValueError(f"elements: must lie in [0, {self.N}]")
            if np.any(np.diff(elements) <= 0):
                raise ValueError("elements: must be strictly increasing, with no repeats")

    @classmethod
    def from_iterable(cls, elements, N: int | None = None) -> "SampledSet":
        arr = np.unique(np.asarray(sorted(elements), dtype=np.int64))
        if N is None:
            N = int(arr[-1]) if arr.size else 0
        return cls(N=N, elements=arr)

    @property
    def size(self) -> int:
        return int(self.elements.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledSet):
            return NotImplemented
        return self.N == other.N and np.array_equal(self.elements, other.elements)

    def bitmask(self) -> int:
        """Characteristic bit-vector as an int: bit a is set iff a is a member.

        Packs an N+1-entry bool mask: for the small N where the big-int fold
        runs, that is a few times faster than scatter_bits.
        """
        mask = np.zeros(self.N + 1, dtype=bool)
        mask[self.elements] = True
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def write(self, out) -> None:
        """Two-line text format: `N=<N>`, then space-separated elements."""
        out.write(f"N={self.N}\n")
        out.write(" ".join(str(int(a)) for a in self.elements) + "\n")

    @classmethod
    def read(cls, inp) -> "SampledSet":
        header = inp.readline().strip()
        if not header.startswith("N="):
            raise ValueError(f"N: expected first line 'N=<N>', got {header!r}")
        try:
            N = int(header[2:])
        except ValueError as exc:
            raise ValueError(f"N: {exc}") from None
        body = inp.readline().split()
        try:
            elements = np.array([int(tok) for tok in body], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"elements: {exc}") from None
        return cls(N=N, elements=elements)


def scatter_bits(offsets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (uint8), zeroed, then bit v of its little-endian bytes set for each v in offsets.

    offsets (int64) is left as it is; the temporaries are one uint8 bit mask
    and one int64 byte index per offset.
    """
    masks = np.bitwise_and(offsets, 7, out=np.empty(offsets.size, dtype=np.uint8),
                           casting="unsafe")
    np.left_shift(1, masks, out=masks)
    out.fill(0)
    np.bitwise_or.at(out, offsets >> 3, masks)
    return out


def substream(seed: int, trial_index: int) -> np.random.Generator:
    """The deterministic generator for one trial: Philox keyed by (seed, trial)."""
    key = np.array([seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_state(key: list, block: int) -> dict:
    """The state of Philox(key=key) placed with its counter at block, buffer empty.

    The setter reads each entry by index, and plain ints convert faster than
    uint64 array entries: about 1.4 us a trial, against 3.0 us.
    """
    return {"bit_generator": "Philox", "state": {"counter": [block, 0, 0, 0], "key": key},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


_thread = threading.local()  # each thread's own Philox, made on its first draw


def _raw_words(seed: int, t: int, lo: int, count: int) -> np.ndarray:
    """Raw words lo .. lo + count - 1 of trial t's stream; lo is a multiple of 4.

    The calling thread's Philox is placed at key (seed, t) and counter
    lo // 4, so the words depend on nothing the thread drew before.
    """
    if not hasattr(_thread, "philox"):
        _thread.philox = np.random.Philox(0)  # a fixed seed reads no OS entropy
    _thread.philox.state = _philox_state([seed & _MASK64, t & _MASK64], lo // 4)
    return _thread.philox.random_raw(count)


def sample_sets(params: SampleParameters, trials: range, threads: int = 1):
    """Yield the set of each trial in trials, in order, as sample_set gives it.

    params.trial_index is ignored.  Each trial's N+1 raw words are drawn in
    chunks of SAMPLE_CHUNK and kept up to the limit (see the module
    docstring), so the set is the one that random(N+1) < p gives.  The
    calling thread and the min(threads, chunks of a trial) - 1 workers of a
    thread pool made once per call claim the chunks of a trial from one
    iterator, each drawing its chunk with its own Philox placed with its
    counter at the block the chunk starts on, so at most one chunk of words
    per thread is alive.
    Each trial gives each worker one task, submitted as the previous trial's
    set is yielded, and no later trial's: while the caller works on trial
    t's set, the workers draw trial t + 1, and when it asks for that set it
    claims what is left and waits only for the chunks in flight.  The
    tasks' futures carry their completion and faults: an exception raised
    in any thread is raised here, and every worker has ended once the
    generator is exhausted or closed.
    """
    if not trials:
        return
    N, seed, size = params.N, params.seed, params.N + 1
    limit = np.uint64((math.ceil(effective_p(params) * 2**53) << 11) - 1)
    chunks = -(-size // SAMPLE_CHUNK)
    helpers = min(threads, chunks) - 1
    # numpy imports numpy.random on a process's first draw.  Imported here, on
    # the calling thread, before any worker starts: imported on a worker, its
    # allocations went to that thread's malloc arena, +0.4 MB of peak RSS.
    import numpy.random  # noqa: F401

    def draw(t: int, claims, parts: list) -> None:
        """Claim and file chunks of trial t until none is left to claim."""
        for lo in claims:
            # One expression, so the chunk's words are freed before the next.
            parts[lo // SAMPLE_CHUNK] = np.flatnonzero(
                _raw_words(seed, t, lo, min(SAMPLE_CHUNK, size - lo)) <= limit) + lo

    def start(t: int):
        """Open trial t: its claims, its parts, and one task per worker."""
        claims, parts = iter(range(0, size, SAMPLE_CHUNK)), [None] * chunks
        return t, claims, parts, [pool.submit(draw, t, claims, parts) for _ in range(helpers)]

    def finish(t: int, claims, parts: list, tasks: list) -> SampledSet:
        """Claim what is left of trial t, wait for its tasks, join its chunks."""
        draw(t, claims, parts)
        for task in tasks:
            task.result()  # raises the worker's fault
        return SampledSet(N=N, elements=np.concatenate(parts))

    # Workers start as tasks are submitted: with no helper, none starts.
    with ThreadPoolExecutor(max(helpers, 1)) as pool:  # joins them on exit
        trial = start(trials[0])
        try:
            for t in trials[1:]:
                A = finish(*trial)
                trial = start(t)
                yield A
            yield finish(*trial)
        finally:
            deque(trial[1], maxlen=0)  # leave the workers nothing more to claim


def sample_set(params: SampleParameters, threads: int = 1) -> SampledSet:
    """Draw one subset: each of 0..N kept independently with probability p.

    The one-trial case of sample_sets: trial params.trial_index drawn on up
    to threads threads, with the same set on any number of them.
    """
    t = params.trial_index
    [A] = sample_sets(params, range(t, t + 1), threads)
    return A


def sample_members(params: SampleParameters, trials: range) -> np.ndarray:
    """Membership matrix of a batch of trials: a bool array (len(trials), N+1).

    Row i is the indicator over 0..N of the set that sample_set gives for
    trial trials[i] (params.trial_index is ignored).  One Philox is placed
    at key (seed, t) and counter 0 for each trial through its state setter,
    from one held dict of plain ints in which only the trial key changes,
    and draws the trial's N+1 uniforms in one call (the same stream that
    sample_set draws in chunks).  They are compared against p a few rows at
    a time, so at most MEMBER_CHUNK doubles, or one row, are alive.
    """
    p = effective_p(params)
    size = params.N + 1
    key = [params.seed & _MASK64, 0]
    state = _philox_state(key, 0)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    members = np.empty((len(trials), size), dtype=bool)
    draws = np.empty((max(1, min(len(trials), MEMBER_CHUNK // size)), size))
    for lo in range(0, len(trials), len(draws)):
        rows = draws[: len(trials) - lo]
        for row, t in zip(rows, trials[lo:]):
            key[1] = t & _MASK64
            bitgen.state = state
            gen.random(out=row)
        np.less(rows, p, out=members[lo : lo + len(rows)])
    return members
