import json
from fractions import Fraction
from pathlib import Path

import pytest

from gensumset import BudgetError, ConfigError, SignedCombination, sample_set
from gensumset import density, experiments
from gensumset.experiments import (
    ExperimentConfig,
    config_from_jsonable,
    config_to_jsonable,
    run_experiment,
)
from gensumset.sampling import SampleParameters

GOLDEN = Path(__file__).parent / "golden"


def _assert_golden(report, name):
    """Compare a report with its golden file, written by the pre-pipeline runners.

    b_constant takes its Gauss-Legendre nodes from numpy, so fields derived
    from it can move in the last bit with the numpy version: the golden
    files hold null there, and the tests check those fields against direct
    density calls instead.
    """
    text = report.to_json()
    if report.kind in ("critical-size", "b-convergence"):
        data = report.to_jsonable()
        for row in data["rows"]:
            row.update(predicted=None, rel_err=None, passed=None)
        if report.kind == "b-convergence":
            data["extras"]["gaps"] = None
            for check in data["checks"]:
                check["value"] = None
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text()


def _assert_predicted(row, predicted, tolerance):
    assert row.predicted == predicted
    assert row.rel_err == abs(row.mean - predicted) / abs(predicted)
    assert row.passed == (row.rel_err <= tolerance)


def _fast_config(**overrides):
    kw = dict(
        kind="fast-ratio",
        combos=(SignedCombination(1, 1), SignedCombination(2, 0)),
        Ns=(4000,),
        trials=30,
        seed=17,
        c=1.0,
        delta=Fraction(3, 4),
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def test_config_json_round_trip():
    data = {
        "kind": "critical-size",
        "combos": [[2, 1], [3, 0]],
        "N": [1000, 2000],
        "trials": 5,
        "seed": 3,
        "c": 2.0,
        "delta": "2/3",
    }
    config = config_from_jsonable(data)
    assert config.delta == Fraction(2, 3)
    assert config.combos == (SignedCombination(2, 1), SignedCombination(3, 0))
    echoed = config_to_jsonable(config)
    assert echoed["delta"] == "2/3"
    assert config_from_jsonable(echoed) == config
    # scalar N is accepted
    assert config_from_jsonable({**data, "N": 1000}).Ns == (1000,)


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="delta"):
        config_from_jsonable(
            {"kind": "fast-ratio", "N": [10], "trials": 1, "seed": 0, "delta": 0.75}
        )
    with pytest.raises(ConfigError, match="bogus"):
        config_from_jsonable(
            {"kind": "mstd", "N": [10], "trials": 1, "seed": 0, "bogus": 1}
        )
    with pytest.raises(ConfigError, match="trials"):
        config_from_jsonable({"kind": "mstd", "N": [10], "seed": 0})
    base = {"kind": "mstd", "N": [10], "trials": 1, "seed": 0, "p": 0.5}
    for field, value in [
        ("trials", "ten"),
        ("seed", [1]),
        ("k", "two"),
        ("bit_budget", "lots"),
        ("N", ["x"]),
        ("N", "x"),
        ("c", "two"),
        ("p", "half"),
        ("tolerance", "ten"),
        ("fraction_window", [0.0002]),
        ("fraction_window", 0.0002),
        ("delta", "1/0"),
        ("combos", [[2]]),
    ]:
        with pytest.raises(ConfigError, match=f"^{field}: "):
            config_from_jsonable({**base, field: value})


def test_kind_validation():
    with pytest.raises(ConfigError, match="kind"):
        run_experiment(_fast_config(kind="nonsense"))
    # fast-ratio at the critical exponent is a regime mismatch
    with pytest.raises(ConfigError, match="regime"):
        run_experiment(_fast_config(delta=Fraction(1, 2)))
    # combo order matters: more minus signs first
    with pytest.raises(ConfigError, match="combos"):
        run_experiment(
            _fast_config(combos=(SignedCombination(2, 0), SignedCombination(1, 1)))
        )
    with pytest.raises(ConfigError, match="delta"):
        run_experiment(
            ExperimentConfig(
                kind="critical-size",
                combos=(SignedCombination(1, 1),),
                Ns=(100,),
                trials=2,
                seed=0,
                c=1.0,
                delta=Fraction(3, 4),
            )
        )
    with pytest.raises(ConfigError, match="N"):
        run_experiment(
            ExperimentConfig(
                kind="concentration",
                combos=(SignedCombination(1, 1),),
                Ns=(1000,),
                trials=5,
                seed=0,
                c=1.0,
                delta=Fraction(1, 2),
            )
        )
    with pytest.raises(ConfigError, match="p"):
        run_experiment(ExperimentConfig(kind="mstd", Ns=(50,), trials=2, seed=0))
    # slow-h2 scale requirement: 4/p^2 must sit well inside the range
    with pytest.raises(ConfigError, match="N"):
        run_experiment(
            ExperimentConfig(
                kind="slow-h2", Ns=(500,), trials=2, seed=0, c=1.0,
                delta=Fraction(3, 10),
            )
        )


def test_budget_refused_before_sampling(monkeypatch):
    def no_sampling(params):
        raise AssertionError("sampled a set for an over-budget config")

    monkeypatch.setattr(experiments, "sample_set", no_sampling)
    # the budget admits the first N, not the second: nothing may be sampled
    config = _fast_config(Ns=(1000, 600_000), bit_budget=10**6)
    with pytest.raises(BudgetError, match="N: 600000"):
        run_experiment(config)
    mstd = ExperimentConfig(kind="mstd", Ns=(100,), trials=5, seed=0, p=0.5,
                            bit_budget=100)
    with pytest.raises(BudgetError, match="N: 100"):
        run_experiment(mstd)


def test_reports_are_deterministic_and_worker_independent():
    config = _fast_config()
    first = run_experiment(config, workers=1)
    again = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert first.to_json() == again.to_json() == pooled.to_json()
    assert first.csv_text() == pooled.csv_text()


def test_fast_ratio_identity_pair():
    combo = SignedCombination(2, 1)
    config = ExperimentConfig(
        kind="fast-ratio",
        combos=(combo, combo),
        Ns=(2000,),
        trials=10,
        seed=5,
        c=1.0,
        delta=Fraction(4, 5),
    )
    report = run_experiment(config)
    row = report.rows[0]
    assert row.mean == 1.0
    assert row.stddev == 0.0
    assert row.predicted == 1.0
    assert row.passed


def test_fast_ratio_report_shape():
    report = run_experiment(_fast_config(), workers=2)
    assert report.kind == "fast-ratio"
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.trials == 30
    assert row.predicted == 2.0
    assert "pass" in report.csv_text().splitlines()[0]
    parsed = json.loads(report.to_json())
    assert parsed["config"]["delta"] == "3/4"
    assert parsed["seed"] == 17
    _assert_golden(report, "fast_ratio")


def test_empty_trials_are_excluded_and_counted():
    config = _fast_config(Ns=(4,), trials=60, c=0.3, delta=Fraction(9, 10), seed=2)
    report = run_experiment(config)
    row = report.rows[0]
    empties = 0
    for t in range(60):
        params = SampleParameters(
            N=4, seed=2, trial_index=t, c=0.3, delta=Fraction(9, 10)
        )
        if sample_set(params).size == 0:
            empties += 1
    assert empties > 0
    assert row.excluded == empties


def test_critical_size_small_run():
    config = ExperimentConfig(
        kind="critical-size",
        combos=(SignedCombination(1, 1), SignedCombination(2, 0)),
        Ns=(20000,),
        trials=40,
        seed=11,
        c=1.0,
        delta=Fraction(1, 2),
        tolerance=0.15,
    )
    report = run_experiment(config, workers=2)
    assert all(row.passed for row in report.rows)
    dominance = report.extras["first_combo_strictly_largest"]["20000"]
    assert dominance >= 0.9
    _assert_golden(report, "critical_size")
    for row, combo in zip(report.rows, config.combos):
        _assert_predicted(row, density.g_series(1.0, combo).value, 0.15)


def test_concentration_decreasing_cv():
    config = ExperimentConfig(
        kind="concentration",
        combos=(SignedCombination(1, 1),),
        Ns=(500, 5000, 50000),
        trials=60,
        seed=21,
        c=1.0,
        delta=Fraction(1, 2),
    )
    report = run_experiment(config, workers=2)
    cvs = report.extras["cv_by_N"]
    assert all(b < a for a, b in zip(cvs, cvs[1:]))
    assert report.all_pass
    assert all(row.predicted is None for row in report.rows)
    _assert_golden(report, "concentration")


def test_b_convergence_run():
    config = ExperimentConfig(
        kind="b-convergence",
        combos=(SignedCombination(1, 1),),
        Ns=(250, 500, 1000, 2000),
        trials=1,
        seed=0,
        k=2,
    )
    report = run_experiment(config)
    assert report.rows[-1].predicted == pytest.approx(1 / 3, abs=1e-12)
    assert report.all_pass
    gaps = report.extras["gaps"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    _assert_golden(report, "b_convergence")
    target = density.b_constant(2, 2)
    for row in report.rows:
        _assert_predicted(row, target, 0.05)
    assert gaps == [abs(row.mean - target) for row in report.rows]
    assert [check.value for check in report.checks] == [gaps[-1], gaps[-1] / target]


def test_mstd_small_run():
    config = ExperimentConfig(kind="mstd", Ns=(60,), trials=4000, seed=9, p=0.5)
    report = run_experiment(config, workers=2)
    sums_row = next(r for r in report.rows if (r.s, r.d) == (2, 0))
    diffs_row = next(r for r in report.rows if (r.s, r.d) == (1, 1))
    # exact finite-N expectations, generous Monte Carlo tolerance
    assert sums_row.mean == pytest.approx(sums_row.predicted, rel=0.1)
    assert diffs_row.mean == pytest.approx(diffs_row.predicted, rel=0.1)
    counts = report.extras["60"]
    assert counts["sum_dominated"] + counts["balanced"] + counts[
        "difference_dominated"
    ] == 4000
    same = run_experiment(config, workers=1)
    assert same.to_json() == report.to_json()
    _assert_golden(report, "mstd")


def test_slow_h2_small_run():
    config = ExperimentConfig(
        kind="slow-h2", Ns=(20000,), trials=12, seed=40, c=1.0, delta=Fraction(3, 10)
    )
    report = run_experiment(config, workers=2)
    sums_row = next(r for r in report.rows if (r.s, r.d) == (2, 0))
    assert sums_row.mean == pytest.approx(sums_row.predicted, rel=0.1)
    table = report.extras["missing_frequency"]["20000"]
    assert len(table) == 20
    assert all(entry["ok"] for entry in table)
    assert run_experiment(config, workers=1).to_json() == report.to_json()
    _assert_golden(report, "slow_h2")


def test_slow_h2_reports_a_run_where_every_set_is_empty():
    config = ExperimentConfig(
        kind="slow-h2", Ns=(20000,), trials=5, seed=40, c=1.0, delta=Fraction(3, 10)
    )

    def records(N, combos, probes=()):
        # An empty A generates nothing, so every probe value is missing.
        return [(0, 0, 0, (1 << len(probes)) - 1)] * config.trials

    rows, checks, extras = experiments._slow_h2(config, records)
    assert [row.excluded for row in rows] == [5, 5]
    law = next(c for c in checks if c.name.startswith("missing-frequency-law"))
    assert law.passed is False and law.value == 0.0
    assert not any(entry["ok"] for entry in extras["missing_frequency"]["20000"])
