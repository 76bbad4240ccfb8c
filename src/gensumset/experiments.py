"""Monte Carlo experiments confronting sampled sumset statistics with predictions.

Every experiment is a pure function of (config, seed).  All kinds but
b-convergence, which has no trials, run one pipeline: trial t samples A from
sub-stream (seed, t), computes the kind's generalized sumsets one at a time
and returns one integer record, (|A|, |A_combo| per combo, bitmask of probe
values missing from the first sumset).  An ordered map yields the records
in trial order, and each kind turns one N's records into rows, checks and
extras.  Records are per trial, so neither the chunking nor the worker count
can change a report.  mstd folds exact integer moments as records arrive;
every other statistic is summarized by compensated two-pass summation.

Predicted values come from direct density calls; tolerances live in the
config because the limit theorems carry no convergence rates, making pass
thresholds an engineering choice that should stay visible.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import density
from ._version import VERSION
from .combinat import BudgetError, SignedCombination
from .sampling import SampleParameters, effective_p, sample_set
from .sumset import DEFAULT_BIT_BUDGET, gen_sumset

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


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    Ns: tuple[int, ...]
    trials: int
    seed: int
    combos: tuple[SignedCombination, ...] = ()
    c: float | None = None
    delta: Fraction | None = None
    p: float | None = None
    k: int = 1
    tolerance: float | None = None
    fraction_window: tuple[float, float] = _FRACTION_WINDOW
    bit_budget: int = DEFAULT_BIT_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "Ns", tuple(int(n) for n in self.Ns))
        object.__setattr__(self, "combos", tuple(self.combos))
        if self.delta is not None:
            if isinstance(self.delta, float):
                raise ConfigError("delta: must be an exact rational, not a float")
            object.__setattr__(self, "delta", Fraction(self.delta))
        if not self.combos and self.kind in ("slow-h2", "mstd"):
            object.__setattr__(self, "combos", _SUM_DIFF)
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", _DEFAULT_TOLERANCE.get(self.kind))

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        if not self.Ns or any(n < 1 for n in self.Ns):
            raise ConfigError("N: need at least one positive ground-set size")
        if self.trials < 1:
            raise ConfigError("trials: must be at least 1")
        getattr(self, f"_validate_{self.kind.replace('-', '_')}")()

    def _require_decay(self, *regimes: density.Regime) -> None:
        if self.c is None or self.c <= 0:
            raise ConfigError("c: a positive coefficient is required")
        if self.delta is None:
            raise ConfigError("delta: an exact rational exponent is required")
        if self.p is not None:
            raise ConfigError("p: fixed p conflicts with (c, delta)")
        h = self.combos[0].h
        regime = density.classify_regime(h, self.delta)
        if regime not in regimes:
            names = "/".join(r.value for r in regimes)
            raise ConfigError(
                f"delta: {self.delta} puts h={h} in regime {regime.value}, need {names}"
            )

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

    def _validate_slow_h2(self) -> None:
        if any(combo.h != 2 for combo in self.combos):
            raise ConfigError("combos: slow-h2 is a two-summand experiment")
        self._require_decay(density.Regime.SLOW_H2)
        for N in self.Ns:
            p = _effective_p(self, N)
            if 4.0 / p**2 >= (2 * N + 1) / 10.0:
                raise ConfigError(
                    f"N: {N} is too small for delta={self.delta}; the predicted "
                    f"complement 4/p^2 = {4.0 / p ** 2:.0f} is not well inside 2N+1"
                )

    def _validate_mstd(self) -> None:
        if self.combos != _SUM_DIFF:
            raise ConfigError(
                "combos: mstd always compares the sumset (2,0) against the "
                "difference set (1,1); leave combos unset"
            )
        if self.p is None:
            raise ConfigError("p: mstd requires a fixed inclusion probability")
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"p: must lie in (0, 1), got {self.p}")
        if self.c is not None or self.delta is not None:
            raise ConfigError("c/delta: mstd uses fixed p, not decaying probability")
        lo, hi = self.fraction_window
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError(f"fraction_window: bad window ({lo}, {hi})")

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


def config_to_jsonable(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "combos": [[combo.s, combo.d] for combo in config.combos],
        "N": list(config.Ns),
        "trials": config.trials,
        "seed": config.seed,
        "c": config.c,
        "delta": None if config.delta is None else str(config.delta),
        "p": config.p,
        "k": config.k,
        "tolerance": config.tolerance,
        "fraction_window": list(config.fraction_window),
        "bit_budget": config.bit_budget,
    }


def _number(value):
    """A JSON number or null, kept as given so the report echoes it unchanged."""
    if value is not None and type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _rational(value) -> Fraction | None:
    if isinstance(value, float):
        raise TypeError('write rationals as strings, e.g. "2/3"')
    return None if value is None else Fraction(value)


def _window(value) -> tuple[float, float]:
    lo, hi = value
    return (float(lo), float(hi))


def config_from_jsonable(data: dict) -> ExperimentConfig:
    known = {"kind", "combos", "N", "trials", "seed", "c", "delta", "p", "k",
             "tolerance", "fraction_window", "bit_budget"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown config field")
    for required in ("kind", "N", "trials", "seed"):
        if required not in data:
            raise ConfigError(f"{required}: required config field is missing")

    def field(name, convert, default=None):
        # Convert one field, naming it in any error.
        if name not in data:
            return default
        try:
            return convert(data[name])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    kwargs = dict(
        kind=data["kind"],
        Ns=field("N", lambda v: tuple(map(int, v if isinstance(v, list) else [v]))),
        trials=field("trials", int),
        seed=field("seed", int),
        combos=field("combos", lambda v: tuple(
            SignedCombination(int(s), int(d)) for s, d in v), ()),
        c=field("c", _number),
        delta=field("delta", _rational),
        p=field("p", _number),
        k=field("k", int, 1),
        tolerance=field("tolerance", _number),
        bit_budget=field("bit_budget", int, DEFAULT_BIT_BUDGET),
        fraction_window=field("fraction_window", _window, _FRACTION_WINDOW),
    )
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


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


def _effective_p(config: ExperimentConfig, N: int) -> float:
    params = SampleParameters(N=N, seed=0, c=config.c, delta=config.delta, p=config.p)
    return effective_p(params)


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

# A chunk holds about _CHUNK_DRAWS sampler draws, and at most _CHUNK_TRIALS
# trials: enough work to hide the cost of shipping it to a worker, little
# enough that workers do not idle at the tail.  Records are per trial, so the
# chunk size never reaches a report.
_CHUNK_DRAWS = 1 << 19
_CHUNK_TRIALS = 4096


def _trial_records(config, N, combos, probes, trials: range) -> list[tuple[int, ...]]:
    """One record per trial: (|A|, |A_combo| for each combo, missing-probe mask).

    Bit j of the bitmask is set when probes[j] is missing from the first
    combo's sumset.  Each sumset is reduced to integers and released before
    the next is computed, so one membership vector is alive at a time.
    """
    records = []
    for t in trials:
        A = sample_set(SampleParameters(N=N, seed=config.seed, trial_index=t,
                                        c=config.c, delta=config.delta, p=config.p))
        record = [A.size]
        missing = 0
        for i, combo in enumerate(combos):
            result = gen_sumset(A, combo, config.bit_budget)
            record.append(result.cardinality)
            if i == 0:
                for j, n in enumerate(probes):
                    missing |= (not result.contains(n)) << j
            del result
        records.append((*record, missing))
    return records


def _records(config, workers, N, combos, probes=()):
    """Yield the record of every trial at ground-set size N, in trial order."""
    size = max(1, min(_CHUNK_TRIALS, _CHUNK_DRAWS // (N + 1)))
    T = config.trials
    chunks = [range(t, min(t + size, T)) for t in range(0, T, size)]
    measure = partial(_trial_records, config, N, combos, probes)
    if workers <= 1 or len(chunks) <= 1:
        for chunk in chunks:
            yield from measure(chunk)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for records in pool.map(measure, chunks):
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
    predicted = {c: density.g_series(config.c, c).value for c in config.combos}
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
    p = _effective_p(config, N)
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
        p = _effective_p(config, N)
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
    # No trials: exact finite-N oracles against the quadrature constant.
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


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Validate the config and run its experiment; pure in (config, seed)."""
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
        records = partial(_records, config, max(1, int(workers)))
        rows, checks, extras = _SUMMARIES[config.kind](config, records)
        all_pass = all(x.passed for x in (*rows, *checks) if x.passed is not None)
    return ExperimentReport(
        version=VERSION, kind=config.kind, seed=config.seed,
        config=config_to_jsonable(config), rows=tuple(rows), checks=tuple(checks),
        extras=extras, all_pass=all_pass,
    )
