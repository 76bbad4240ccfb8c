"""One benchmark operation in a fresh interpreter.

Usage: python3 worker.py '{"config": {...}, "mode": "setup" | "run" | "trace",
                            "spawned_at": <CLOCK_MONOTONIC seconds>}'

Every mode imports gensumset and builds and validates the config; "setup"
stops there.  "run" then times one `run_experiment(config, workers=1)` call
and prints one JSON line with its wall time, the set-up time (from
`spawned_at`, read by the parent on the system-wide monotonic clock just
before it started this interpreter, to a validated config), the process's
peak RSS and the report.  "trace" does the same with timing wrappers around
the calls `experiments` makes into the sampling, sumset and density layers;
the program's code is not changed.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time


class Layer:
    """Calls into one layer and the wall seconds spent inside them."""

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.work = {}

    def timed(self, fn, account=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.busy_s += time.perf_counter() - t0
                self.calls += 1
            if account is not None:
                account(self.work, result, *args)
            return result

        return wrapper


class ModuleProxy:
    """Stands in for a module: every function read from it is timed."""

    def __init__(self, module, layer: Layer):
        self._module = module
        self._layer = layer
        self._wrapped = {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr) or isinstance(attr, type):
            return attr
        if name not in self._wrapped:
            self._wrapped[name] = self._layer.timed(attr)
        return self._wrapped[name]


def _account_sampling(work, A, *_):
    work["draws"] = work.get("draws", 0) + A.N + 1
    work["set_size"] = work.get("set_size", 0) + A.size


def _account_sumset(work, result, A, *_):
    # Bytes the shift-or kernel streams: |A| shifts of the hN-bit vector
    # for each of the h - 1 folds.
    h = result.combo.h
    span_bytes = math.ceil((h * result.N + 1) / 8)
    work["shift_or_bytes"] = work.get("shift_or_bytes", 0) + A.size * (h - 1) * span_bytes


def install_trace(experiments, density) -> dict[str, Layer]:
    """Wrap the names through which `experiments` reaches each layer.

    A layer that `experiments` stops calling through these names reads 0
    calls, and its time shows up in the experiments layer's self time.
    """
    layers = {"sampling": Layer(), "sumset": Layer(), "density": Layer()}
    experiments.sample_set = layers["sampling"].timed(
        experiments.sample_set, _account_sampling
    )
    experiments.gen_sumset = layers["sumset"].timed(experiments.gen_sumset, _account_sumset)
    experiments.density = ModuleProxy(density, layers["density"])
    return layers


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    from gensumset import density, experiments

    config = experiments.config_from_jsonable(spec["config"])
    config.validate()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned_at"]
    if spec["mode"] == "setup":
        return 0
    layers = install_trace(experiments, density) if spec["mode"] == "trace" else {}
    t0 = time.perf_counter()
    report = experiments.run_experiment(config, workers=1)
    wall_s = time.perf_counter() - t0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "layers": {
            name: {"calls": layer.calls, "busy_s": layer.busy_s, **layer.work}
            for name, layer in layers.items()
        },
        "report": report.to_json(),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
