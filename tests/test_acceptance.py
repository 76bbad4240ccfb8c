"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Monte Carlo criteria use pinned seeds, so outcomes are
reproducible bit-for-bit.

Known red: the fast-decay three-summand ratio criterion (07) cannot meet
its stated tolerance at the stated ground-set size; the finite-size gap is
about 22 percent there and shrinks like N**(-1/5).  The README carries the
measured convergence table.  The criterion is asserted as stated rather
than loosened.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

from conftest import missing_sum_probs_by_subsets

import numpy as np

from gensumset import (
    SampledSet,
    SignedCombination,
    b_constant,
    b_constant_finiteN_oracle,
    expected_missing_sums_h2,
    g_closed_form_h2,
    g_series,
    gen_sumset,
    missing_sum_probability_h2,
    rep_count,
    rep_count_bruteforce,
    rep_counts_all,
    tuple_statistics,
)
from gensumset.density import missing_sums_asymptote_h2
from gensumset.experiments import ExperimentConfig, run_experiment

WORKERS = 2
RESULTS = Path(__file__).parent.parent / "results"


def _gate(tag: str, ok: bool, detail: str, started: float, limit_s: float):
    elapsed = time.perf_counter() - started
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert elapsed < limit_s, f"{tag}: took {elapsed:.1f}s, limit {limit_s}s"
    assert ok, f"{tag}: {detail}"


def _combos_with_h(h_lo, h_hi):
    return [
        SignedCombination(h - d, d)
        for h in range(h_lo, h_hi + 1)
        for d in range(0, h // 2 + 1)
        if h - d >= max(d, 1)
    ]


def test_criterion_01_exact_oracle_equality():
    t0 = time.perf_counter()
    mismatches = 0
    for combo in _combos_with_h(2, 4):
        for N in range(0, 11):
            lo, hi = combo.value_range(N)
            for n in range(lo, hi + 1):
                if rep_count(n, combo, N) != rep_count_bruteforce(n, combo, N):
                    mismatches += 1
    _gate(
        "01 exact-oracle-equality",
        mismatches == 0,
        f"closed formula vs exhaustive enumeration, h<=4, N<=10: "
        f"{mismatches} mismatches",
        t0,
        60,
    )


def test_criterion_02_total_and_reflection_identities():
    t0 = time.perf_counter()
    bad = []
    for h in (2, 3, 4, 5):
        combo = SignedCombination(h - h // 2, h // 2)
        for N in range(0, 1001):
            table = rep_counts_all(combo, N)
            if table.total() != (N + 1) ** h:
                bad.append(("total", h, N))
            if table.counts != tuple(reversed(table.counts)):
                bad.append(("reflection", h, N))
    # the count depends only on (h, n + dN): every split of the same h must
    # produce the identical reindexed vector
    for h in (2, 3, 4, 5):
        splits = _combos_with_h(h, h)
        for N in (0, 1, 7, 50, 333, 1000):
            vectors = {rep_counts_all(c, N).counts for c in splits}
            if len(vectors) != 1:
                bad.append(("split", h, N))
    _gate(
        "02 exact-identities",
        not bad,
        f"sum=(N+1)^h and reflection for every N<=1000, h<=5: "
        f"{len(bad)} violations{bad[:3] if bad else ''}",
        t0,
        60,
    )


def test_criterion_03_phase_constants():
    t0 = time.perf_counter()
    ok = all(abs(b_constant(h, 1) - 1.0) <= 1e-10 for h in range(2, 7))
    ok = ok and all(
        abs(b_constant(2, k) - 2 / math.factorial(k + 1)) <= 1e-10
        for k in range(1, 11)
    )
    oracle_combo = {2: SignedCombination(1, 1), 3: SignedCombination(2, 1),
                    4: SignedCombination(2, 2)}
    worst = 0.0
    for h, combo in oracle_combo.items():
        for k in (1, 2, 3):
            gap = abs(
                b_constant_finiteN_oracle(h, k, combo, 2000) - b_constant(h, k)
            ) / b_constant(h, k)
            worst = max(worst, gap)
    ok = ok and worst <= 0.05
    _gate(
        "03 phase-constants",
        ok,
        f"normalization, two-summand closed form, finite-N oracle gap "
        f"(worst {worst:.3%} of 5%)",
        t0,
        300,
    )


def test_criterion_04_series_vs_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        worst = max(
            worst,
            abs(g_series(c, SignedCombination(1, 1)) - g_closed_form_h2(c * c)),
            abs(g_series(c, SignedCombination(2, 0)) - g_closed_form_h2(c * c / 2)),
        )
    _gate(
        "04 series-vs-closed-form",
        worst <= 1e-8,
        f"two-summand series against the closed form (worst gap {worst:.2e})",
        t0,
        30,
    )


def test_criterion_05_critical_decay_h2():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        kind="critical-size",
        combos=(SignedCombination(1, 1), SignedCombination(2, 0)),
        Ns=(10**5,),
        trials=100,
        seed=20260810,
        c=1.0,
        delta=Fraction(1, 2),
        tolerance=0.03,
    )
    report = run_experiment(config, workers=WORKERS)
    diffs, sums = report.rows
    ok = (
        diffs.passed
        and sums.passed
        and abs(diffs.predicted - 0.7357588823428847) < 1e-9
        and abs(sums.predicted - g_closed_form_h2(0.5)) < 1e-9
    )
    _gate(
        "05 critical-decay-h2",
        ok,
        f"|A-A|/N={diffs.mean:.5f} (pred {diffs.predicted:.5f}, "
        f"off {diffs.rel_err:.2%}); |A+A|/N={sums.mean:.5f} "
        f"(pred {sums.predicted:.5f}, off {sums.rel_err:.2%}); tolerance 3%",
        t0,
        120,
    )


def test_criterion_06_critical_decay_h3():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        kind="critical-size",
        combos=(SignedCombination(2, 1), SignedCombination(3, 0)),
        Ns=(10**6,),
        trials=50,
        seed=99,
        c=2.0,
        delta=Fraction(2, 3),
        tolerance=0.05,
    )
    report = run_experiment(config, workers=WORKERS)
    mixed = report.rows[0]
    dominance = report.extras["first_combo_strictly_largest"]["1000000"]
    ok = mixed.passed and dominance >= 0.95
    _gate(
        "06 critical-decay-h3",
        ok,
        f"|A_(2,1)|/N={mixed.mean:.4f} (pred {mixed.predicted:.4f}, "
        f"off {mixed.rel_err:.2%} of 5%); more-minus-signs larger in "
        f"{dominance:.0%} of trials (need 95%)",
        t0,
        600,
    )


def test_criterion_07_fast_decay_ratios():
    t0 = time.perf_counter()
    config_h2 = ExperimentConfig(
        kind="fast-ratio",
        combos=(SignedCombination(1, 1), SignedCombination(2, 0)),
        Ns=(10**6,),
        trials=100,
        seed=7,
        c=1.0,
        delta=Fraction(3, 4),
    )
    row_h2 = run_experiment(config_h2, workers=WORKERS).rows[0]
    config_h3 = ExperimentConfig(
        kind="fast-ratio",
        combos=(SignedCombination(2, 1), SignedCombination(3, 0)),
        Ns=(10**6,),
        trials=100,
        seed=7,
        c=1.0,
        delta=Fraction(4, 5),
    )
    row_h3 = run_experiment(config_h3, workers=WORKERS).rows[0]
    ok = bool(row_h2.passed and row_h3.passed)
    _gate(
        "07 fast-decay-ratios",
        ok,
        f"h=2 ratio {row_h2.mean:.3f} vs 2 (off {row_h2.rel_err:.1%}); "
        f"h=3 ratio {row_h3.mean:.3f} vs 3 (off {row_h3.rel_err:.1%}); "
        "tolerance 10%"
        + (
            ""
            if row_h3.passed
            else " [known finite-size shortfall at N=10^6, shrinks as N^(-1/5);"
            " see README]"
        ),
        t0,
        300,
    )


def test_criterion_08_slow_decay_h2():
    t0 = time.perf_counter()
    # The config of scripts/configs/slow_h2.json, so the report is the battery's.
    config = ExperimentConfig(
        kind="slow-h2",
        Ns=(10**6,),
        trials=50,
        seed=123,
        c=1.0,
        delta=Fraction(3, 10),
        tolerance=0.1,
    )
    report = run_experiment(config, workers=WORKERS)
    battery_ok = (
        report.to_json() == (RESULTS / "slow_h2.json").read_text()
        and report.csv_text() == (RESULTS / "slow_h2.csv").read_text()
    )
    sums_row = next(r for r in report.rows if (r.s, r.d) == (2, 0))
    p = float(10**6) ** -0.3  # c * N**-delta
    asymptote = missing_sums_asymptote_h2(p)
    vs_asymptote = abs(sums_row.mean - asymptote) / asymptote
    ratio_check = next(c for c in report.checks if c.name.startswith("complement-ratio"))
    law_check = next(
        c for c in report.checks if c.name.startswith("missing-frequency-law")
    )
    ok = vs_asymptote <= 0.10 and ratio_check.passed and law_check.passed and battery_ok
    _gate(
        "08 slow-decay-h2",
        ok,
        f"missing sums {sums_row.mean:.1f} vs 4/p^2={asymptote:.1f} "
        f"(off {vs_asymptote:.2%} of 10%); sum/diff complement ratio "
        f"{ratio_check.value:.4f} vs 2; per-value law within 5 standard errors "
        f"at all 20 probes: {law_check.passed}; report equal to "
        f"results/slow_h2.{{json,csv}}: {battery_ok}",
        t0,
        600,
    )


def test_criterion_09_exact_missing_law_and_mstd():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for N in range(0, 13):
        oracle = missing_sum_probs_by_subsets(N, 0.5)
        for n in range(2 * N + 1):
            worst_gap = max(
                worst_gap, abs(missing_sum_probability_h2(n, N, 0.5) - oracle[n])
            )
    law_ok = worst_gap <= 1e-12
    limit_ok = abs(expected_missing_sums_h2(5000, 0.5) - 10.0) <= 0.01

    # The config of scripts/configs/mstd.json, so the report is the battery's.
    config = ExperimentConfig(kind="mstd", Ns=(100,), trials=10**6, seed=31415, p=0.5)
    report = run_experiment(config, workers=WORKERS)
    battery_ok = (
        report.to_json() == (RESULTS / "mstd.json").read_text()
        and report.csv_text() == (RESULTS / "mstd.csv").read_text()
    )
    sums_row = next(r for r in report.rows if (r.s, r.d) == (2, 0))
    diffs_row = next(r for r in report.rows if (r.s, r.d) == (1, 1))
    fraction_check = report.checks[0]
    mstd_ok = (
        abs(sums_row.mean - 10.0) <= 1.0
        and abs(diffs_row.mean - 6.0) <= 0.6
        and fraction_check.passed
    )
    _gate(
        "09 exact-missing-law-and-mstd",
        law_ok and limit_ok and mstd_ok and battery_ok,
        f"per-value law vs subset enumeration N<=12 (worst {worst_gap:.1e}); "
        f"limit 10+-0.01; Monte Carlo means sums={sums_row.mean:.3f} "
        f"diffs={diffs_row.mean:.3f}; sum-dominated fraction "
        f"{fraction_check.value:.2e} in [2e-4, 9e-4]; report equal to "
        f"results/mstd.{{json,csv}}: {battery_ok}",
        t0,
        1800,
    )


def test_criterion_10_inclusion_exclusion_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    combos = _combos_with_h(2, 4)
    failures = 0
    for _ in range(500):
        N = int(rng.integers(1, 50))
        size = int(rng.integers(1, 23))
        elements = np.unique(rng.integers(0, N + 1, size=size))
        A = SampledSet(N=N, elements=elements)
        combo = combos[int(rng.integers(0, len(combos)))]
        stats = tuple_statistics(A, combo)
        if stats.alternating_sum() != gen_sumset(A, combo).cardinality:
            failures += 1
    _gate(
        "10 inclusion-exclusion-identity",
        failures == 0,
        f"alternating collision sums equal cardinalities on 500 random "
        f"instances: {failures} failures",
        t0,
        120,
    )


def test_criterion_11_determinism_across_workers():
    t0 = time.perf_counter()
    configs = [
        ExperimentConfig(
            kind="critical-size",
            combos=(SignedCombination(1, 1), SignedCombination(2, 0)),
            Ns=(3000,),
            trials=30,
            seed=77,
            c=1.0,
            delta=Fraction(1, 2),
        ),
        ExperimentConfig(kind="mstd", Ns=(60,), trials=9000, seed=5, p=0.5),
    ]
    ok = True
    for config in configs:
        outputs = {
            run_experiment(config, workers=w).to_json() for w in (1, 2, 3)
        }
        rerun = run_experiment(config, workers=1).to_json()
        ok = ok and len(outputs) == 1 and rerun in outputs
    _gate(
        "11 determinism",
        ok,
        "byte-identical reports across reruns and worker counts 1/2/3",
        t0,
        120,
    )
