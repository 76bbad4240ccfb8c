"""Seeded binomial sampling of subsets of {0, ..., N}.

Each trial draws its randomness from a Philox4x64 counter-based generator
keyed by the pair (seed, trial_index), so trial t is the same bit stream no
matter which worker runs it, in which order, on which platform.  Membership
is decided by comparing N+1 uniform doubles, drawn in fixed-size chunks,
against the inclusion probability p = c * N**(-delta) (or a fixed p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
SAMPLE_CHUNK = 1 << 16


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
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be non-negative, got {self.trial_index}")
        decaying = self.c is not None or self.delta is not None
        if decaying == (self.p is not None):
            raise ValueError("give either (c, delta) or a fixed p, not both")
        if decaying:
            if self.c is None or self.delta is None:
                raise ValueError("the decaying form needs both c and delta")
            if self.c <= 0:
                raise ValueError(f"c must be positive, got {self.c}")
            if isinstance(self.delta, float):
                raise TypeError("delta must be an exact rational (Fraction), not float")
            object.__setattr__(self, "delta", Fraction(self.delta))
            if not 0 < self.delta < 1:
                raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        effective_p(self)  # validated, never clamped


def effective_p(params: SampleParameters) -> float:
    """Inclusion probability c * N**(-delta), or the fixed p; must be in (0, 1]."""
    if params.p is not None:
        p = params.p
    else:
        p = params.c * float(params.N) ** (-float(params.delta))
    if not 0.0 < p <= 1.0:
        raise ValueError(f"inclusion probability {p} lies outside (0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class SampledSet:
    """A subset of {0, ..., N} as a strictly increasing element array."""

    N: int
    elements: np.ndarray

    def __post_init__(self) -> None:
        elements = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "elements", elements)
        if elements.size:
            if elements[0] < 0 or elements[-1] > self.N:
                raise ValueError("elements must lie in [0, N]")
            if np.any(np.diff(elements) <= 0):
                raise ValueError("elements must be strictly increasing")

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

    def packed_bits(self) -> np.ndarray:
        """Characteristic vector as little-endian packed bytes (numpy uint8)."""
        mask = np.zeros(self.N + 1, dtype=bool)
        mask[self.elements] = True
        return np.packbits(mask, bitorder="little")

    def bitmask(self) -> int:
        """Characteristic bit-vector as an int: bit a is set iff a is a member."""
        return int.from_bytes(self.packed_bits().tobytes(), "little")

    def write(self, out) -> None:
        """Two-line text format: `N=<N>`, then space-separated elements."""
        out.write(f"N={self.N}\n")
        out.write(" ".join(str(int(a)) for a in self.elements) + "\n")

    @classmethod
    def read(cls, inp) -> "SampledSet":
        header = inp.readline().strip()
        if not header.startswith("N="):
            raise ValueError(f"expected first line 'N=<N>', got {header!r}")
        N = int(header[2:])
        body = inp.readline().split()
        return cls(N=N, elements=np.array([int(tok) for tok in body], dtype=np.int64))


def substream(seed: int, trial_index: int) -> np.random.Generator:
    """The deterministic generator for one trial: Philox keyed by (seed, trial)."""
    key = np.array([seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_set(params: SampleParameters) -> SampledSet:
    """Draw one subset: each of 0..N kept independently with probability p.

    The N+1 uniforms are drawn in chunks of SAMPLE_CHUNK from the one
    generator, which continues its stream across calls, so the set is the
    same as from a single draw while memory stays at one chunk of doubles.
    """
    p = effective_p(params)
    gen = substream(params.seed, params.trial_index)
    size = params.N + 1
    if size <= SAMPLE_CHUNK:
        elements = np.flatnonzero(gen.random(size) < p)
    else:
        elements = np.concatenate([
            np.flatnonzero(gen.random(min(SAMPLE_CHUNK, size - lo)) < p) + lo
            for lo in range(0, size, SAMPLE_CHUNK)
        ])
    return SampledSet(N=params.N, elements=elements.astype(np.int64))
