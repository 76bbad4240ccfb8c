"""The benchmark's workloads: battery parameters with benchmark trial counts.

Each entry copies the parameters of the `scripts/configs/` battery config of
the same name, so the benchmark does not move when the battery is retuned.
The trial count is the benchmark's own: large enough that one
`run_experiment` call takes one to five seconds, small enough that a run
holds several calls.  The seed is the battery's and is only the default of
`--seed`.
"""

from __future__ import annotations

WORKLOADS = {
    # Fixed p = 1/2 at N = 100: tiny sets, so per-trial overhead in
    # experiments and sampling dominates and the kernel choice should not matter.
    "mstd": {
        "params": {
            "kind": "mstd",
            "N": [100],
            "p": 0.5,
            "tolerance": 0.1,
            "fraction_window": [0.0002, 0.0009],
        },
        "trials": 16384,
        "seed": 31415,
    },
    # Fast decay, h = 3, |A| ~ 15: the N+1 sampler draws dominate.
    "fast_h3": {
        "params": {
            "kind": "fast-ratio",
            "combos": [[2, 1], [3, 0]],
            "N": [1000000],
            "c": 1.0,
            "delta": "4/5",
            "tolerance": 0.1,
        },
        "trials": 100,
        "seed": 7,
    },
    # Critical decay, h = 3, |A| ~ 200: shift-or dominates, and must stay
    # the kernel here (FFT measured 18-27x slower).
    "critical_h3": {
        "params": {
            "kind": "critical-size",
            "combos": [[2, 1], [3, 0]],
            "N": [1000000],
            "c": 2.0,
            "delta": "2/3",
            "tolerance": 0.05,
        },
        "trials": 20,
        "seed": 99,
    },
    # Slow decay, h = 2, |A| ~ 15.8k: seconds of shift-or per trial plus a
    # fixed cost per run in the exact missing-value laws; FFT should win here.
    "slow_h2": {
        "params": {
            "kind": "slow-h2",
            "N": [1000000],
            "c": 1.0,
            "delta": "3/10",
            "tolerance": 0.1,
        },
        "trials": 2,
        "seed": 123,
    },
}


def config_data(name: str, seed: int | None = None, trials: int | None = None) -> dict:
    """The JSON config of one workload, as `config_from_jsonable` reads it."""
    workload = WORKLOADS[name]
    return {
        **workload["params"],
        "trials": workload["trials"] if trials is None else trials,
        "seed": workload["seed"] if seed is None else seed,
    }
