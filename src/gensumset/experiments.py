"""Monte Carlo experiments confronting sampled sumset statistics with predictions.

Every experiment is a pure function of (config, seed).  All kinds but
b-convergence, which has no trials, run one pipeline: trial t samples A from
sub-stream (seed, t), computes the kind's generalized sumsets and returns
one integer record, (|A|, |A_combo| per combo, bitmask of probe values
missing from the first sumset).  This module only asks for the records of
each N, by one sumset.records call, which samples the trials and chooses
every kernel.  In one process that call covers all of an N's trials; a
pool maps chunks of them over its workers, in order.  Each process draws its
large trials' streams on cores // processes threads, whose helpers draw the
next trial while this one folds; the sets are the same on any number of
threads.  Each kind turns one N's records into rows, checks
and extras.  Records are per trial, so neither the chunking nor the worker
count can change a report.  mstd folds exact integer moments as records
arrive; every other statistic is summarized by compensated two-pass
summation.

Predicted values come from direct density calls; tolerances live in the
config because the limit theorems carry no convergence rates, making pass
thresholds an engineering choice that should stay visible.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import partial

from . import density, sumset
from ._version import VERSION
from .combinat import BudgetError, SignedCombination
from .sampling import SampleParameters, effective_p
from .sampling import sample_set  # noqa: F401  (perfbench's traced pass wraps this name)
from .sumset import gen_sumset  # noqa: F401  (perfbench's traced pass wraps this name)

_DEFAULT_TOLERANCE = {
    "fast-ratio": 0.10,
    "critical-size": 0.05,
    "slow-h2": 0.10,
    "mstd": 0.10,
    "concentration": None,
    "b-convergence": 0.05,
}
KINDS = tuple(_DEFAULT_TOLERANCE)
_FRACTION_WINDOW = (2e-4, 9e-4)

_SUM_DIFF = (SignedCombination(2, 0), SignedCombination(1, 1))


class ConfigError(ValueError):
    """A configuration field is missing, malformed, or inconsistent."""


def _integer(value) -> int:
    """A JSON integer; a float or a bool is refused rather than truncated."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _integers(value) -> tuple[int, ...]:
    """One JSON integer or a list of them."""
    return tuple(map(_integer, value if isinstance(value, list) else [value]))


def _number(value):
    """A JSON number or null, kept as given so the report echoes it unchanged."""
    if value is not None and type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _string(value) -> str:
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _rational(value) -> Fraction | None:
    if isinstance(value, float):
        raise TypeError('write rationals as strings, e.g. "2/3"')
    return None if value is None else Fraction(value)


def _window(value) -> tuple[float, float]:
    lo, hi = value
    return (float(lo), float(hi))


def _combos(value) -> tuple[SignedCombination, ...]:
    return tuple(SignedCombination(_integer(s), _integer(d)) for s, d in value)


def _json(read, write=None, key=None, **default):
    """A config field with its JSON key (the field name unless given), reader and writer."""
    return field(metadata={"read": read, "write": write or (lambda value: value),
                           "key": key}, **default)


@dataclass(frozen=True)
class ExperimentConfig:
    # The JSON readers run in field order, so a config with several bad
    # fields names the first of them.
    kind: str = _json(_string)
    Ns: tuple[int, ...] = _json(_integers, list, key="N")
    trials: int = _json(_integer)
    seed: int = _json(_integer)
    combos: tuple[SignedCombination, ...] = _json(
        _combos, lambda combos: [[combo.s, combo.d] for combo in combos], default=())
    c: float | None = _json(_number, default=None)
    delta: Fraction | None = _json(
        _rational, lambda delta: None if delta is None else str(delta), default=None)
    p: float | None = _json(_number, default=None)
    k: int = _json(_integer, default=1)
    tolerance: float | None = _json(_number, default=None)
    bit_budget: int = _json(_integer, default=sumset.DEFAULT_BIT_BUDGET)
    fraction_window: tuple[float, float] = _json(_window, list, default=_FRACTION_WINDOW)

    def __post_init__(self) -> None:
        object.__setattr__(self, "Ns", tuple(self.Ns))
        object.__setattr__(self, "combos", tuple(self.combos))
        if not self.combos and self.kind in ("slow-h2", "mstd"):
            object.__setattr__(self, "combos", _SUM_DIFF)
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", _DEFAULT_TOLERANCE.get(self.kind))

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        for name, values in (("N", self.Ns), ("trials", [self.trials]), ("seed", [self.seed]),
                             ("k", [self.k]), ("bit_budget", [self.bit_budget])):
            try:
                for value in values:
                    _integer(value)
            except TypeError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        if not self.Ns:
            raise ConfigError("N: need at least one ground-set size")
        if self.trials < 1:
            raise ConfigError("trials: must be at least 1")
        getattr(self, f"_validate_{self.kind.replace('-', '_')}")()

    def _sample_params(self, N: int) -> SampleParameters:
        """The sampling parameters at size N, which check N, seed, c, delta and p."""
        try:
            return SampleParameters(N=N, seed=self.seed, c=self.c, delta=self.delta, p=self.p)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{exc} at N = {N}") from exc

    def _require_decay(self, *regimes: density.Regime) -> None:
        if self.c is None and self.delta is None:
            raise ConfigError("c: a positive coefficient is required")
        # The regime is checked before p(N) <= 1, so that a delta in the wrong
        # regime is named as such.  A delta that is not an exact rational in
        # (0, 1) passes here, and SampleParameters names it.
        h = self.combos[0].h
        try:
            regime = density.classify_regime(h, self.delta)
        except (TypeError, ValueError):
            regime = regimes[0]
        if regime not in regimes:
            names = "/".join(r.value for r in regimes)
            raise ConfigError(
                f"delta: {self.delta} puts h={h} in regime {regime.value}, need {names}"
            )
        for N in self.Ns:
            self._sample_params(N)

    def _validate_fast_ratio(self) -> None:
        if len(self.combos) != 2:
            raise ConfigError("combos: fast-ratio needs exactly two combos")
        c1, c2 = self.combos
        if c1.h != c2.h:
            raise ConfigError("combos: both combos must share the summand count h")
        if c1.d < c2.d:
            raise ConfigError(
                "combos: list the combo with at least as many minus signs first"
            )
        self._require_decay(density.Regime.FAST)

    def _validate_critical_size(self) -> None:
        if not self.combos:
            raise ConfigError("combos: critical-size needs at least one combo")
        if len({combo.h for combo in self.combos}) != 1:
            raise ConfigError("combos: all combos must share the summand count h")
        self._require_decay(density.Regime.CRITICAL)

    def _require_sum_diff(self) -> None:
        if self.combos != _SUM_DIFF:
            raise ConfigError(
                f"combos: {self.kind} always compares the sumset (2,0) against the "
                "difference set (1,1); leave combos unset"
            )

    def _validate_slow_h2(self) -> None:
        self._require_sum_diff()
        self._require_decay(density.Regime.SLOW_H2)
        for N in self.Ns:
            p = effective_p(self._sample_params(N))
            if p >= 1.0:  # the exact laws need p < 1
                raise ConfigError(f"c: p(N) = {p} at N = {N}; slow-h2 needs p < 1")
            if 4.0 / p**2 >= (2 * N + 1) / 10.0:
                raise ConfigError(
                    f"N: {N} is too small for delta={self.delta}; the predicted "
                    f"complement 4/p^2 = {4.0 / p ** 2:.0f} is not well inside 2N+1"
                )

    def _validate_mstd(self) -> None:
        self._require_sum_diff()
        if self.p is None:
            raise ConfigError("p: mstd requires a fixed inclusion probability")
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"p: must lie in (0, 1), got {self.p}")
        if self.c is not None or self.delta is not None:
            raise ConfigError("c/delta: mstd uses fixed p, not decaying probability")
        lo, hi = self.fraction_window
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError(f"fraction_window: bad window ({lo}, {hi})")
        for N in self.Ns:
            self._sample_params(N)

    def _validate_concentration(self) -> None:
        if len(self.combos) != 1:
            raise ConfigError("combos: concentration tracks a single combo")
        if len(self.Ns) < 2:
            raise ConfigError("N: concentration needs at least two sizes to compare")
        if any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ConfigError("N: sizes must be strictly increasing")
        self._require_decay(density.Regime.FAST, density.Regime.CRITICAL)

    def _validate_b_convergence(self) -> None:
        if len(self.combos) != 1:
            raise ConfigError("combos: b-convergence tracks a single combo")
        if self.combos[0].h > 4:
            raise ConfigError("combos: b-convergence supports h <= 4")
        if not 1 <= self.k <= 3:
            raise ConfigError(f"k: b-convergence supports k in 1..3, got {self.k}")
        if any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ConfigError("N: sizes must be strictly increasing")
        # Nothing is sampled, so no SampleParameters checks N and seed.
        if min(self.Ns) < 1:
            raise ConfigError(f"N: must be positive, got {min(self.Ns)}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed: must lie in [0, 2**64), got {self.seed}")


def _key(config_field) -> str:
    return config_field.metadata["key"] or config_field.name


def config_to_jsonable(config: ExperimentConfig) -> dict:
    return {_key(f): f.metadata["write"](getattr(config, f.name)) for f in fields(config)}


def config_from_jsonable(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
    table = {_key(f): f for f in fields(ExperimentConfig)}
    unknown = set(data) - set(table)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown config field")
    for key, f in table.items():
        if f.default is MISSING and key not in data:
            raise ConfigError(f"{key}: required config field is missing")
    kwargs = {}
    for key, f in table.items():
        if key in data:
            try:
                kwargs[f.name] = f.metadata["read"](data[key])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {path} is not valid JSON ({exc})") from exc
    return config_from_jsonable(data)


@dataclass(frozen=True)
class ReportRow:
    kind: str
    s: int
    d: int
    N: int
    trials: int
    excluded: int
    statistic: str
    mean: float
    stddev: float
    stderr: float
    predicted: float | None
    rel_err: float | None
    passed: bool | None


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    predicted: float | None
    tolerance: float | None
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    version: str
    kind: str
    seed: int
    config: dict
    rows: tuple[ReportRow, ...]
    checks: tuple[Check, ...]
    extras: dict
    all_pass: bool

    def to_jsonable(self) -> dict:
        return {
            "version": self.version,
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "rows": [vars(row).copy() for row in self.rows],
            "checks": [vars(check).copy() for check in self.checks],
            "extras": self.extras,
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"

    def csv_text(self) -> str:
        lines = ["kind,s,d,N,trials,mean,stddev,stderr,predicted,rel_err,pass"]
        for row in self.rows:
            predicted = "" if row.predicted is None else repr(row.predicted)
            rel = "" if row.rel_err is None else repr(row.rel_err)
            passed = "" if row.passed is None else str(row.passed).lower()
            lines.append(
                f"{row.kind},{row.s},{row.d},{row.N},{row.trials},"
                f"{row.mean!r},{row.stddev!r},{row.stderr!r},{predicted},{rel},{passed}"
            )
        return "\n".join(lines) + "\n"


def _mean_std(values: list[float]) -> tuple[float, float, float]:
    """Mean, sample standard deviation and standard error, by two-pass fsum."""
    n = len(values)
    if n == 0:
        return math.nan, math.nan, math.nan
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(var)
    return mean, stddev, stddev / math.sqrt(n)


def _exact_moments(n: int, s1: int, s2: int) -> tuple[float, float, float]:
    """Mean, sample standard deviation and standard error from exact Σx and Σx²."""
    mean = s1 / n
    var = (n * s2 - s1 * s1) / (n * (n - 1)) if n > 1 else 0.0
    stddev = math.sqrt(max(var, 0.0))
    return mean, stddev, stddev / math.sqrt(n)


def _row(config, combo, N, stats, excluded, statistic, predicted, trials=None):
    mean, stddev, stderr = stats
    rel_err = None
    passed = None
    if predicted is not None and predicted != 0:
        rel_err = abs(mean - predicted) / abs(predicted)
        passed = rel_err <= config.tolerance if config.tolerance is not None else None
    return ReportRow(
        kind=config.kind, s=combo.s, d=combo.d, N=N,
        trials=config.trials if trials is None else trials, excluded=excluded,
        statistic=statistic, mean=mean, stddev=stddev, stderr=stderr,
        predicted=predicted, rel_err=rel_err, passed=passed,
    )


# ---------------------------------------------------------------------------
# the trial pipeline

# A pool chunk holds about _CHUNK_DRAWS sampler draws, and at most
# _CHUNK_TRIALS trials: enough work to hide the cost of shipping it to a
# worker, little enough that workers do not idle at the tail.  Records are
# per trial, so the chunk size never reaches a report.
_CHUNK_DRAWS = 1 << 19
_CHUNK_TRIALS = 4096


def _chunk(params, combos, probes, threads, trials: range) -> list[tuple[int, ...]]:
    """The records of one pool chunk, as a list a worker can send back."""
    return list(sumset.records(params, trials, combos, probes, threads))


def _records(config, workers, N, combos, probes=()):
    """Yield the record of every trial at ground-set size N, in trial order."""
    params = config._sample_params(N)
    size = max(1, min(_CHUNK_TRIALS, _CHUNK_DRAWS // (N + 1)))
    T = config.trials
    chunks = [range(t, min(t + size, T)) for t in range(0, T, size)]
    # A pool forks all of its workers up front, so it gets no more than
    # there are chunks.
    processes = 1 if workers <= 1 else min(workers, len(chunks))
    threads = max(1, _cores() // processes)
    if processes == 1:
        yield from sumset.records(params, range(T), combos, probes, threads)
        return
    with ProcessPoolExecutor(max_workers=processes) as pool:
        for records in pool.map(partial(_chunk, params, combos, probes, threads), chunks):
            yield from records


# ---------------------------------------------------------------------------
# per-kind summaries: records(N, combos, probes) -> rows, checks, extras


def _fast_ratio(config, records):
    combo1, combo2 = config.combos
    regime = density.classify_regime(combo1.h, config.delta)
    predicted = density.predicted_ratio(combo1, combo2, regime)
    rows = []
    for N in config.Ns:
        ratios = [r[1] / r[2] for r in records(N, config.combos) if r[0]]
        rows.append(_row(config, combo1, N, _mean_std(ratios),
                         config.trials - len(ratios),
                         f"mean per-trial |A_{combo1}| / |A_{combo2}|", predicted))
    return rows, [], {"ratio_of": [[combo1.s, combo1.d], [combo2.s, combo2.d]],
                      "prediction_formula": "s2!d2!/(s1!d1!)", "regime": regime.value}


def _critical_size(config, records):
    predicted = {c: density.g_series(config.c, c) for c in config.combos}
    rows = []
    dominance = {}
    for N in config.Ns:
        kept = [r for r in records(N, config.combos) if r[0]]
        for i, combo in enumerate(config.combos, start=1):
            rows.append(_row(config, combo, N, _mean_std([r[i] / N for r in kept]),
                             config.trials - len(kept), f"mean |A_{combo}| / N",
                             predicted[combo]))
        if len(config.combos) > 1 and kept:
            # How often the first-listed combo is strictly the largest.
            wins = sum(1 for r in kept if all(r[1] > x for x in r[2:-1]))
            dominance[str(N)] = wins / len(kept)
    return rows, [], {"prediction_formula": "g_series(c;s,d)",
                      "first_combo_strictly_largest": dominance}


def _missing_rows(config, N, sums_stats, diffs_stats, excluded) -> list[ReportRow]:
    p = effective_p(config._sample_params(N))
    combo_s, combo_d = _SUM_DIFF
    return [
        _row(config, combo_s, N, sums_stats, excluded, "mean missing-sum count",
             density.expected_missing_sums_h2(N, p)),
        _row(config, combo_d, N, diffs_stats, excluded,
             "mean missing-difference count", density.expected_missing_diffs_h2(N, p)),
    ]


def _slow_h2(config, records):
    rows = []
    checks = []
    freq_tables = {}
    for N in config.Ns:
        # The exact missing-sum law is checked at the ten smallest and the ten
        # largest sums.
        probes = tuple(range(10)) + tuple(range(2 * N - 9, 2 * N + 1))
        span = 2 * N + 1
        kept = [(span - r[1], span - r[2], r[3])
                for r in records(N, _SUM_DIFF, probes) if r[0]]
        sums, diffs = _missing_rows(config, N, _mean_std([m[0] for m in kept]),
                                    _mean_std([m[1] for m in kept]),
                                    config.trials - len(kept))
        rows += [sums, diffs]
        p = effective_p(config._sample_params(N))
        tol = config.tolerance
        ratio = _mean_std([ms / md for ms, md, _ in kept if md > 0])[0]
        limit = density.COMPLEMENT_RATIO_LIMIT_H2
        asymptote = density.missing_sums_asymptote_h2(p)
        checks += [
            Check(name=f"complement-ratio@N={N}", value=ratio, predicted=limit,
                  tolerance=tol, passed=abs(ratio - limit) <= tol * limit),
            Check(name=f"sum-complement-asymptote@N={N}", value=sums.mean,
                  predicted=asymptote, tolerance=tol,
                  passed=abs(sums.mean - asymptote) <= tol * asymptote),
        ]
        # Exact-law sub-check: observed missing frequency at each probe value
        # must sit within 5 standard errors of the per-value probability.
        # With every A empty there is no frequency, and NaN fails the check.
        table = []
        for j, n in enumerate(probes):
            prob = density.missing_sum_probability_h2(n, N, p)
            if kept:
                freq = sum(mask >> j & 1 for _, _, mask in kept) / len(kept)
                se = math.sqrt(prob * (1.0 - prob) / len(kept))
            else:
                freq = se = math.nan
            table.append({"n": n, "freq": freq, "prob": prob,
                          "ok": abs(freq - prob) <= 5.0 * se + 1e-12})
        freq_tables[str(N)] = table
        n_ok = sum(1 for entry in table if entry["ok"])
        checks.append(Check(name=f"missing-frequency-law@N={N}", value=float(n_ok),
                            predicted=float(len(table)), tolerance=None,
                            passed=n_ok == len(table)))
    return rows, checks, {"missing_frequency": freq_tables}


def _mstd(config, records):
    # Folds exact integer counts and moments as records arrive, so a run of
    # 10^6 trials never holds its records.
    T = config.trials
    lo, hi = config.fraction_window
    rows = []
    checks = []
    extras = {}
    for N in config.Ns:
        span = 2 * N + 1
        n_sum = n_diff = 0
        ms1 = ms2 = md1 = md2 = 0
        for _, card_s, card_d, _ in records(N, _SUM_DIFF):
            n_sum += card_s > card_d
            n_diff += card_s < card_d
            ms, md = span - card_s, span - card_d
            ms1 += ms
            ms2 += ms * ms
            md1 += md
            md2 += md * md
        rows += _missing_rows(config, N, _exact_moments(T, ms1, ms2),
                              _exact_moments(T, md1, md2), 0)
        fraction = n_sum / T
        checks.append(Check(name=f"sum-dominated-fraction@N={N}", value=fraction,
                            predicted=density.SUM_DOMINATED_LIMIT_FRACTION,
                            tolerance=None, passed=lo <= fraction <= hi))
        extras[str(N)] = {
            "sum_dominated": n_sum,
            "balanced": T - n_sum - n_diff,
            "difference_dominated": n_diff,
            "fraction_window": [lo, hi],
        }
    return rows, checks, extras


def _concentration(config, records):
    (combo,) = config.combos
    rows = []
    for N in config.Ns:
        sizes = [r[1] for r in records(N, config.combos) if r[0]]
        rows.append(_row(config, combo, N, _mean_std(sizes),
                         config.trials - len(sizes), f"mean |A_{combo}|", None))
    cvs = [row.stddev / row.mean if row.mean else math.inf for row in rows]
    decreasing = all(b < a for a, b in zip(cvs, cvs[1:]))
    checks = [Check(name="coefficient-of-variation-decreasing", value=cvs[-1],
                    predicted=None, tolerance=None, passed=decreasing)]
    return rows, checks, {"cv_by_N": cvs}


_SUMMARIES = {
    "fast-ratio": _fast_ratio,
    "critical-size": _critical_size,
    "slow-h2": _slow_h2,
    "mstd": _mstd,
    "concentration": _concentration,
}


def _b_convergence(config):
    # No trials: exact finite-N oracles against the exact limit constant.
    (combo,) = config.combos
    h, k = combo.h, config.k
    target = density.b_constant(h, k)
    rows = []
    for N in config.Ns:
        value = density.b_constant_finiteN_oracle(h, k, combo, N)
        rows.append(_row(config, combo, N, (value, 0.0, 0.0), 0,
                         f"finite-N overlap-moment estimate (k={k})", target, trials=1))
    gaps = [abs(row.mean - target) for row in rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    checks = [
        Check(name="gap-decreasing", value=gaps[-1], predicted=None, tolerance=None,
              passed=decreasing),
        Check(name="final-gap", value=gaps[-1] / target, predicted=None,
              tolerance=config.tolerance,
              passed=gaps[-1] / target <= config.tolerance),
    ]
    return rows, checks, {"gaps": gaps}


def validate_workers(workers: int) -> None:
    """Refuse a worker count that is not an integer of at least 1."""
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"workers: must be at least 1, got {workers!r}")


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Validate the config and run its experiment; pure in (config, seed).

    The workers split the trials, and each draws a large trial's stream on
    several threads (_records); neither number reaches the report.
    """
    validate_workers(workers)
    config.validate()
    if config.kind == "b-convergence":
        rows, checks, extras = _b_convergence(config)
        # The rows trace the approach; only the trend and the final gap decide.
        all_pass = all(check.passed for check in checks)
    else:
        h = max(combo.h for combo in config.combos)
        for N in config.Ns:
            if h * N + 1 > config.bit_budget:
                raise BudgetError(f"N: {N} needs {h * N + 1} bits for h={h}, "
                                  f"exceeding the budget of {config.bit_budget}")
        records = partial(_records, config, workers)
        rows, checks, extras = _SUMMARIES[config.kind](config, records)
        all_pass = all(x.passed for x in (*rows, *checks) if x.passed is not None)
    return ExperimentReport(
        version=VERSION, kind=config.kind, seed=config.seed,
        config=config_to_jsonable(config), rows=tuple(rows), checks=tuple(checks),
        extras=extras, all_pass=all_pass,
    )
