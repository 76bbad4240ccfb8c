import importlib.util
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gensumset import BudgetError, ConfigError, SignedCombination, gen_sumset_naive, sample_set
from gensumset import density, experiments, sumset
from gensumset.experiments import (
    ExperimentConfig,
    config_from_jsonable,
    config_to_jsonable,
    run_experiment,
)
from gensumset.sampling import SampleParameters, sample_sets

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def _assert_golden(report, name):
    assert report.to_json() == (GOLDEN / f"{name}.json").read_text()


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
        # integers are taken as given, never truncated
        ("trials", 2.9),
        ("trials", True),
        ("seed", 5.0),
        ("k", 2.5),
        ("bit_budget", 1e9),
        ("N", [100.7]),
        ("N", 100.7),
        ("combos", [[2.0, 0], [1, 1]]),
        ("combos", [[2, False]]),
        ("kind", ["mstd"]),
    ]:
        with pytest.raises(ConfigError, match=f"^{field}: "):
            config_from_jsonable({**base, field: value})
    # a config built in code is held to the same integer rule at validate()
    for field, value in [("Ns", (100.7,)), ("Ns", (100, True)), ("trials", 2.9),
                         ("seed", True), ("k", 2.0), ("bit_budget", 1e9)]:
        config = ExperimentConfig(**{"kind": "mstd", "Ns": (100,), "trials": 2,
                                     "seed": 1, "p": 0.5, field: value})
        name = "N" if field == "Ns" else field
        with pytest.raises(ConfigError, match=f"^{name}: "):
            config.validate()
    # seeds outside [0, 2**64) would alias other seeds in the Philox key
    for seed in (-1, 1 << 64, (1 << 64) + 5):
        with pytest.raises(ConfigError, match="^seed: "):
            config_from_jsonable({**base, "seed": seed}).validate()
    config_from_jsonable({**base, "seed": (1 << 64) - 1}).validate()
    # a decaying p must lie in (0, 1] at every N, not just at the first
    decay = {"kind": "fast-ratio", "combos": [[1, 1], [2, 0]], "N": [10**6, 10],
             "trials": 1, "seed": 0, "c": 1.0, "delta": "3/4"}
    for c in (100.0, 10.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^c: "):
            config_from_jsonable({**decay, "c": c}).validate()
    slow = {"kind": "slow-h2", "N": [20000], "trials": 1, "seed": 0, "c": 100.0,
            "delta": "3/10"}
    with pytest.raises(ConfigError, match="^c: "):
        config_from_jsonable(slow).validate()


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
    def no_sampling(*args):
        raise AssertionError("sampled a set for an over-budget config")

    monkeypatch.setattr(sumset, "sample_sets", no_sampling)
    monkeypatch.setattr(sumset, "sample_members", no_sampling)
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
        _assert_predicted(row, density.g_series(1.0, combo), 0.15)


def test_critical_size_large_c():
    # at c = 5 the series' terms reach 10^8 before they cancel
    config = ExperimentConfig(
        kind="critical-size",
        combos=(SignedCombination(1, 1), SignedCombination(2, 0)),
        Ns=(20000,),
        trials=4,
        seed=5,
        c=5.0,
        delta=Fraction(1, 2),
    )
    report = run_experiment(config, workers=1)
    for row, x in zip(report.rows, (25.0, 12.5)):
        assert row.predicted == pytest.approx(density.g_closed_form_h2(x), rel=2e-15)
        assert row.rel_err < 0.05


_CONCENTRATION = ExperimentConfig(
    kind="concentration",
    combos=(SignedCombination(1, 1),),
    Ns=(500, 5000, 50000),
    trials=60,
    seed=21,
    c=1.0,
    delta=Fraction(1, 2),
)
_MSTD = ExperimentConfig(kind="mstd", Ns=(60,), trials=4000, seed=9, p=0.5)


def test_concentration_decreasing_cv():
    report = run_experiment(_CONCENTRATION, workers=2)
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
    report = run_experiment(_MSTD, workers=2)
    sums_row = next(r for r in report.rows if (r.s, r.d) == (2, 0))
    diffs_row = next(r for r in report.rows if (r.s, r.d) == (1, 1))
    # exact finite-N expectations, generous Monte Carlo tolerance
    assert sums_row.mean == pytest.approx(sums_row.predicted, rel=0.1)
    assert diffs_row.mean == pytest.approx(diffs_row.predicted, rel=0.1)
    counts = report.extras["60"]
    assert counts["sum_dominated"] + counts["balanced"] + counts[
        "difference_dominated"
    ] == 4000
    same = run_experiment(_MSTD, workers=1)
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


@pytest.mark.parametrize(
    "stem", ["b_convergence_h2", "b_convergence_h4", "critical_h2", "critical_h3"]
)
def test_b_derived_battery_reports_regenerate(stem):
    # Their predictions come from b_constant, whose exact rationals are
    # rounded once, so the checked-in reports regenerate byte for byte.
    data = json.loads((ROOT / "scripts" / "configs" / f"{stem}.json").read_text())
    report = run_experiment(config_from_jsonable(data), workers=2)
    assert report.to_json() == (ROOT / "results" / f"{stem}.json").read_text()
    assert report.csv_text() == (ROOT / "results" / f"{stem}.csv").read_text()


@pytest.mark.parametrize(
    "stem", ["fast_h2", "fast_h3", "concentration_h2", "concentration_h3"]
)
def test_fast_battery_reports_regenerate(stem):
    # With critical_h2 and critical_h3 above, this pins the large-N sets of
    # sample_set (N = 10^5 and 10^6) and both large-N kernels, the byte fold
    # and the enumeration, to the checked-in reports byte for byte.
    data = json.loads((ROOT / "scripts" / "configs" / f"{stem}.json").read_text())
    report = run_experiment(config_from_jsonable(data), workers=2)
    assert report.to_json() == (ROOT / "results" / f"{stem}.json").read_text()
    assert report.csv_text() == (ROOT / "results" / f"{stem}.csv").read_text()


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("stem", ["fast_h3", "critical_h3"])
def test_reports_regenerate_with_each_trial_drawn_on_several_threads(stem, cores, monkeypatch):
    # At one worker each large trial's stream is drawn on cores // 1
    # threads; the sets, and so the checked-in reports, do not change.
    drawn_on = []

    def spy(params, trials, threads):
        for A in sample_sets(params, trials, threads):
            drawn_on.append(threads)
            yield A

    monkeypatch.setattr(experiments, "_cores", lambda: cores)
    monkeypatch.setattr(sumset, "sample_sets", spy)
    data = json.loads((ROOT / "scripts" / "configs" / f"{stem}.json").read_text())
    report = run_experiment(config_from_jsonable(data), workers=1)
    assert report.to_json() == (ROOT / "results" / f"{stem}.json").read_text()
    assert report.csv_text() == (ROOT / "results" / f"{stem}.csv").read_text()
    assert drawn_on == [cores] * data["trials"]


class _InlinePool:
    """A process pool that runs its chunks in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return map(fn, chunks)


@pytest.mark.parametrize("trials, workers, threads", [(1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 8, 1)])
def test_threads_follow_the_processes_that_run(trials, workers, threads, monkeypatch):
    # At N = 10^6 a chunk is one trial.  One chunk runs in this process
    # whatever the worker count, so its trial is drawn on both cores; a pool
    # of min(workers, chunks) processes shares them.
    drawn_on = []

    def spy(params, trials, threads):
        for A in sample_sets(params, trials, threads):
            drawn_on.append(threads)
            yield A

    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    monkeypatch.setattr(sumset, "sample_sets", spy)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
    combos = (SignedCombination(2, 1), SignedCombination(3, 0))
    config = _fast_config(Ns=(10**6,), trials=trials, combos=combos, delta=Fraction(4, 5))
    run_experiment(config, workers=workers)
    assert drawn_on == [threads] * trials


def test_trials_of_one_n_share_one_set_of_buffers(monkeypatch):
    # Run in this process, every trial of an N folds into the same buffers,
    # whatever the pool's chunk size; the next N gets new ones.
    used = []
    trial_record = sumset._trial_record

    def spy(A, combos, buffers):
        used.append((A.N, id(buffers)))
        return trial_record(A, combos, buffers)

    monkeypatch.setattr(sumset, "_trial_record", spy)
    monkeypatch.setattr(experiments, "_CHUNK_TRIALS", 2)
    run_experiment(_fast_config(Ns=(4000, 8000), trials=5), workers=1)
    assert [N for N, _ in used] == [4000] * 5 + [8000] * 5
    assert len(set(used)) == 2  # one set of buffers for each N


def test_workers_must_be_at_least_one():
    for workers in (0, -5, 1.5, True):
        with pytest.raises(ConfigError, match="^workers: must be at least 1"):
            run_experiment(_MSTD, workers=workers)


@pytest.mark.parametrize("chunk_trials", [1, 63, 64, 65])
def test_chunk_size_never_reaches_a_report(chunk_trials, monkeypatch):
    # Chunks exist only in a pool, so the chunks run through an inline one.
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(experiments, "_CHUNK_TRIALS", chunk_trials)
    _assert_golden(run_experiment(_MSTD, workers=2), "mstd")
    _assert_golden(run_experiment(_CONCENTRATION, workers=2), "concentration")


def test_batched_and_per_trial_paths_give_the_same_records(monkeypatch):
    # Up to BIT_SLICE_MAX_N sumset.records samples and folds the trials in
    # batches; above it, trial by trial.  Both give the same records, probe
    # masks included, and so does the enumeration oracle set by set.
    def other_path(*args):
        raise AssertionError("took the other path")

    trials = range(5, 135)
    for N, decay in [(1, {"p": 0.5}), (7, {"p": 0.5}),
                     (sumset.BIT_SLICE_MAX_N, {"c": 1.0, "delta": Fraction(1, 10)})]:
        params = SampleParameters(N=N, seed=3, **decay)
        probes = tuple(range(10)) + tuple(range(2 * N - 9, 2 * N + 1))

        def records():
            return list(sumset.records(params, trials, experiments._SUM_DIFF, probes))

        with monkeypatch.context() as patch:
            patch.setattr(sumset, "sample_sets", other_path)
            batched = records()
        with monkeypatch.context() as patch:
            patch.setattr(sumset, "BIT_SLICE_MAX_N", N - 1)
            patch.setattr(sumset, "sample_members", other_path)
            per_trial = records()
        assert batched == per_trial
        assert any(record[-1] for record in batched)  # some probe was missing
        for t, record in zip(trials, batched):
            A = sample_set(replace(params, trial_index=t))
            results = [gen_sumset_naive(A, combo) for combo in experiments._SUM_DIFF]
            held = set(results[0].values())  # A + A
            missing = sum((n not in held) << j for j, n in enumerate(probes))
            assert record == (A.size, *(result.cardinality for result in results), missing)


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    opened = []

    class Pool:
        # Records its size and runs the chunks in this process.
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(experiments, "_CHUNK_TRIALS", 1500)
    for workers, size in [(64, 3), (10**6, 3), (2, 2)]:
        _assert_golden(run_experiment(_MSTD, workers=workers), "mstd")
        assert opened.pop() == size
    _assert_golden(run_experiment(_MSTD, workers=1), "mstd")  # no pool at all
    assert opened == []


def test_benchmark_trace_installs_and_leaves_reports_unchanged(monkeypatch):
    # perfbench's traced pass assigns experiments.sample_set, .gen_sumset and
    # .density, so those names must stay, and tracing must not move a report.
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    configs = (_fast_config(trials=5), _MSTD)
    untraced = [run_experiment(config).to_json() for config in configs]
    for name in ("sample_set", "gen_sumset", "density"):
        monkeypatch.setattr(experiments, name, getattr(experiments, name))
    layers = worker.install_trace(experiments, density)
    assert [run_experiment(config).to_json() for config in configs] == untraced
    assert layers["density"].calls > 0
