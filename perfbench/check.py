"""Independent check of an experiment report.

The check rebuilds every trial's set through the public, documented stream
`sample_set(SampleParameters(N, seed, trial_index=t, ...))`, recomputes the
sumset cardinalities with a numpy boolean scatter that shares no code with
the big-int shift-or kernel, and aggregates with its own code.  It compares
measured fields only: integer statistics exactly, float means and standard
deviations to rounding.  Predictions and pass flags are never compared, so
a report that gains a prediction column still passes.

It also checks two properties any correct sampler has: elements strictly
increasing in [0, N], and the run's total |A| within 5 binomial standard
deviations of trials * (N + 1) * p.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from gensumset import SampleParameters, sample_set

REL_TOL = 1e-9
_SCATTER_CHUNK = 1 << 20  # indices per scatter, bounding the temporary array


def sumset_mask(A: np.ndarray, s: int, d: int, N: int) -> np.ndarray:
    """Membership of A_{s,d} as a bool array over offsets n + dN in [0, hN].

    Adds one block at a time, `mask[x + B] = True` for each x, where B is
    the partial sum so far; a minus block adds the reflection {N - a}.
    """
    reflected = N - A[::-1]
    blocks = [A] * s + [reflected] * d
    partial = blocks[0]
    mask = np.zeros(blocks[0][-1] + 1, dtype=bool)
    mask[partial] = True
    for block in blocks[1:]:
        mask = np.zeros(partial[-1] + block[-1] + 1, dtype=bool)
        step = max(1, _SCATTER_CHUNK // partial.size)
        for i in range(0, block.size, step):
            mask[(block[i : i + step, None] + partial[None, :]).ravel()] = True
        partial = np.flatnonzero(mask)
    full = np.zeros((s + d) * N + 1, dtype=bool)
    full[: mask.size] = mask
    return full


def _p(config: dict, N: int) -> float:
    if config.get("p") is not None:
        return config["p"]
    return config["c"] * float(N) ** (-float(Fraction(config["delta"])))


def _combos(config: dict) -> list[tuple[int, int]]:
    """The (s, d) pairs whose sumsets every trial computes."""
    if config["kind"] in ("mstd", "slow-h2"):
        return [(2, 0), (1, 1)]
    return [tuple(sd) for sd in config["combos"]]


def _mean_std(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan, math.nan
    mean = float(arr.mean())
    stddev = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, stddev, stddev / math.sqrt(arr.size)


class Recomputation:
    """Per-N measured statistics of one config, recomputed from scratch."""

    def __init__(self, config: dict):
        self.config = config
        self.errors: list[str] = []
        self.by_N = {N: self._recompute_N(N) for N in config["N"]}

    def _sets(self, N: int):
        cfg = self.config
        delta = None if cfg.get("delta") is None else Fraction(cfg["delta"])
        total = 0
        for t in range(cfg["trials"]):
            A = sample_set(
                SampleParameters(
                    N=N, seed=cfg["seed"], trial_index=t, c=cfg.get("c"), delta=delta,
                    p=cfg.get("p"),
                )
            )
            elements = np.asarray(A.elements)
            if elements.size and (
                elements[0] < 0 or elements[-1] > N or np.any(np.diff(elements) <= 0)
            ):
                self.errors.append(f"N={N} trial {t}: elements not strictly increasing in [0, N]")
            total += elements.size
            yield elements
        p = _p(cfg, N)
        mean = cfg["trials"] * (N + 1) * p
        sd = math.sqrt(cfg["trials"] * (N + 1) * p * (1.0 - p))
        if abs(total - mean) > 5.0 * sd:
            self.errors.append(
                f"N={N}: total |A| = {total} is more than 5 sd from {mean:.1f} (sd {sd:.1f})"
            )

    def _recompute_N(self, N: int) -> dict:
        kind = self.config["kind"]
        combos = _combos(self.config)
        span = {combo: sum(combo) * N + 1 for combo in combos}
        cards, probes_missing = [], []
        probes = list(range(10)) + list(range(2 * N - 9, 2 * N + 1))
        for A in self._sets(N):
            if A.size == 0:
                cards.append(None)
                continue
            masks = {combo: sumset_mask(A, *combo, N) for combo in combos}
            cards.append(tuple(int(masks[combo].sum()) for combo in combos))
            if kind == "slow-h2":
                probes_missing.append([0 if masks[(2, 0)][n] else 1 for n in probes])
        kept = [c for c in cards if c is not None]
        if kind == "mstd":
            missing = [(span[(2, 0)] - a, span[(1, 1)] - b) for a, b in kept]
            return {
                "sum_dominated": sum(1 for a, b in kept if a > b),
                "balanced": sum(1 for a, b in kept if a == b),
                "difference_dominated": sum(1 for a, b in kept if a < b),
                "moments": [
                    (sum(m[i] for m in missing), sum(m[i] * m[i] for m in missing))
                    for i in (0, 1)
                ],
            }
        if kind == "fast-ratio":
            ratios = [a / b for a, b in kept if b > 0]
            return {"excluded": len(cards) - len(ratios), "ratio": _mean_std(ratios)}
        if kind == "critical-size":
            out = {
                "excluded": len(cards) - len(kept),
                "size": [_mean_std([c[i] / N for c in kept]) for i in range(len(combos))],
            }
            if len(combos) > 1 and kept:
                wins = sum(1 for c in kept if all(c[0] > x for x in c[1:]))
                out["wins"] = wins / len(kept)
            return out
        if kind == "slow-h2":
            missing = [(span[(2, 0)] - a, span[(1, 1)] - b) for a, b in kept]
            n_kept = len(kept)
            return {
                "excluded": len(cards) - n_kept,
                "missing": [_mean_std([m[i] for m in missing]) for i in (0, 1)],
                "ratio": _mean_std([a / b for a, b in missing if b > 0])[0],
                "freq": {
                    n: sum(flags[j] for flags in probes_missing) / n_kept
                    for j, n in enumerate(probes)
                },
            }
        raise ValueError(f"no independent check for kind {kind!r}")


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def compare(report: dict, oracle: Recomputation) -> list[str]:
    """Differences between a report's measured fields and the recomputation."""
    cfg = oracle.config
    errors = list(oracle.errors)

    def expect(what, got, want, exact=False):
        ok = got == want if exact else _close(got, want)
        if not ok:
            errors.append(f"{what}: report has {got!r}, recomputed {want!r}")

    expect("kind", report.get("kind"), cfg["kind"], exact=True)
    expect("seed", report.get("seed"), cfg["seed"], exact=True)
    rows = report.get("rows", [])
    checks = {c.get("name"): c for c in report.get("checks", [])}
    kind = cfg["kind"]
    # fast-ratio reports one row per N, under its first combo.
    combos = _combos(cfg)[:1] if kind == "fast-ratio" else _combos(cfg)
    per_N = len(combos)
    expect("row count", len(rows), per_N * len(cfg["N"]), exact=True)
    if len(rows) != per_N * len(cfg["N"]):
        return errors
    for i, N in enumerate(cfg["N"]):
        got = oracle.by_N[N]
        block = rows[i * per_N : (i + 1) * per_N]
        for row, (s, d) in zip(block, combos):
            for key, want in (("N", N), ("trials", cfg["trials"]), ("s", s), ("d", d)):
                expect(f"row N={N} {key}", row.get(key), want, exact=True)
        if kind == "mstd":
            T = cfg["trials"]
            counts = report.get("extras", {}).get(str(N), {})
            for key in ("sum_dominated", "balanced", "difference_dominated"):
                expect(f"N={N} {key}", counts.get(key), got[key], exact=True)
            for row, (s1, s2) in zip(block, got["moments"]):
                tag = f"N={N} ({row.get('s')},{row.get('d')})"
                mean, stddev = row.get("mean"), row.get("stddev")
                expect(f"{tag} excluded", row.get("excluded"), 0, exact=True)
                # The report's mean and stddev determine the exact integer
                # moment sums; recover them and compare exactly.
                expect(f"{tag} sum of missing counts", round(mean * T), s1, exact=True)
                s2_got = round((round(stddev * stddev * T * (T - 1)) + s1 * s1) / T)
                expect(f"{tag} sum of squared missing counts", s2_got, s2, exact=True)
                var = (T * s2 - s1 * s1) / (T * (T - 1)) if T > 1 else 0.0
                expect(f"{tag} mean", mean, s1 / T)
                expect(f"{tag} stddev", stddev, math.sqrt(var))
                expect(f"{tag} stderr", row.get("stderr"), math.sqrt(var / T))
            expect(
                f"N={N} sum-dominated fraction",
                checks.get(f"sum-dominated-fraction@N={N}", {}).get("value"),
                got["sum_dominated"] / T,
                exact=True,
            )
            continue
        if kind == "fast-ratio":
            stats = [got["ratio"]]
        elif kind == "critical-size":
            stats = got["size"]
            if "wins" in got:
                wins = report.get("extras", {}).get("first_combo_strictly_largest", {})
                expect(f"N={N} first combo strictly largest", wins.get(str(N)), got["wins"],
                       exact=True)
        else:
            stats = got["missing"]
            expect(
                f"N={N} complement ratio",
                checks.get(f"complement-ratio@N={N}", {}).get("value"),
                got["ratio"],
            )
            expect(
                f"N={N} mean missing sums",
                checks.get(f"sum-complement-asymptote@N={N}", {}).get("value"),
                got["missing"][0][0],
            )
            table = report.get("extras", {}).get("missing_frequency", {}).get(str(N), [])
            expect(f"N={N} probe values", [r.get("n") for r in table], list(got["freq"]),
                   exact=True)
            for entry in table:
                n = entry.get("n")
                if n in got["freq"]:
                    expect(f"N={N} missing frequency at {n}", entry.get("freq"),
                           got["freq"][n], exact=True)
        for row, (mean, stddev, stderr) in zip(block, stats):
            tag = f"N={N} ({row.get('s')},{row.get('d')})"
            expect(f"{tag} excluded", row.get("excluded"), got["excluded"], exact=True)
            expect(f"{tag} mean", row.get("mean"), mean)
            expect(f"{tag} stddev", row.get("stddev"), stddev)
            expect(f"{tag} stderr", row.get("stderr"), stderr)
    return errors


def failed_operations(reports: list[str | None], config: dict) -> tuple[list[bool], list[str]]:
    """Judge each operation's report text; None stands for an operation that raised.

    Reports byte-identical to one already judged share its verdict, so the
    recomputation runs once per config and each distinct report is compared
    once.
    """
    oracle = None
    verdicts: dict[str, list[str]] = {}
    failed = []
    for text in reports:
        if text is None:
            failed.append(True)
            continue
        if text not in verdicts:
            if oracle is None:
                oracle = Recomputation(config)
            try:
                verdicts[text] = compare(json.loads(text), oracle)
            except (ValueError, TypeError, AttributeError, KeyError) as exc:
                verdicts[text] = [f"malformed report: {exc!r}"]
        failed.append(bool(verdicts[text]))
    messages = [msg for errs in verdicts.values() for msg in errs]
    return failed, messages
