"""Exact combinatorics and Monte Carlo experiments for generalized sumsets.

A generalized sumset A_{s,d} applies s plus signs and d minus signs to
elements of A.  This package counts its representations exactly, evaluates
the limiting densities and phase constants governing random sets drawn with
inclusion probability c * N**(-delta), and runs reproducible experiments
confronting sampled cardinalities with those predictions across the fast,
critical, and (for two summands) slow decay regimes.
"""

from ._version import VERSION as __version__
from .combinat import (
    BudgetError,
    RepresentationCounts,
    SignedCombination,
    distinct_class_count,
    ext_binom,
    rep_count,
    rep_count_bruteforce,
    rep_counts_all,
    stars_and_bars,
)
from .density import (
    Regime,
    b_constant,
    b_constant_finiteN_oracle,
    classify_regime,
    expected_missing_diffs_h2,
    expected_missing_sums_h2,
    g_closed_form_h2,
    g_series,
    limit_density,
    missing_sum_probability_h2,
    predicted_ratio,
    predicted_xk,
)
from .experiments import (
    Check,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    run_experiment,
)
from .sampling import SampledSet, SampleParameters, effective_p, sample_set
from .sumset import (
    GenSumsetResult,
    TupleStatistics,
    gen_sumset,
    gen_sumset_naive,
    tuple_statistics,
)

__all__ = [
    "__version__",
    "BudgetError",
    "Check",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "GenSumsetResult",
    "Regime",
    "ReportRow",
    "RepresentationCounts",
    "SampleParameters",
    "SampledSet",
    "SignedCombination",
    "TupleStatistics",
    "b_constant",
    "b_constant_finiteN_oracle",
    "classify_regime",
    "distinct_class_count",
    "effective_p",
    "expected_missing_diffs_h2",
    "expected_missing_sums_h2",
    "ext_binom",
    "g_closed_form_h2",
    "g_series",
    "gen_sumset",
    "gen_sumset_naive",
    "limit_density",
    "missing_sum_probability_h2",
    "predicted_ratio",
    "predicted_xk",
    "rep_count",
    "rep_count_bruteforce",
    "rep_counts_all",
    "run_experiment",
    "sample_set",
    "stars_and_bars",
    "tuple_statistics",
]
