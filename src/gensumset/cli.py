"""Command-line entry point.

Subcommands: constants, rcount, sample, sumset, xk, experiment.  Every run
prints a one-line provenance record (tool version, fully resolved
configuration, seed) so any artifact can be regenerated byte-for-byte; the
artifacts themselves go to --out files or to stdout.  Exit codes: 0 success,
2 configuration error (the message names the offending field), 3 a budget
refusal.

Rationals on the command line are strings like "2/3"; floats are accepted
only where exactness is not required.  Environment variables are never
consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from ._version import VERSION
from .combinat import (
    BudgetError,
    SignedCombination,
    rep_counts_all,
)
from .density import b_constant, g_series
from .experiments import (
    ConfigError,
    config_to_jsonable,
    load_config,
    run_experiment,
    validate_workers,
)
from .sampling import SampledSet, SampleParameters, sample_set
from .sumset import gen_sumset, tuple_statistics


def _provenance(args, seed) -> dict:
    """Tool version, seed and the resolved input: every parsed flag."""
    config = {name: value for name, value in vars(args).items() if name != "func"}
    return {"tool": "gensumset", "version": VERSION, "seed": seed, "config": config}


def _emit(text: str, out_path: str | None, provenance: dict, comment_prefix: str | None):
    """Write the artifact; the provenance record always reaches stdout.

    With --out the file holds the artifact exactly and stdout carries the
    provenance line.  Without --out, CSV artifacts get the provenance as a
    leading '#' comment line and JSON artifacts embed it, so stdout remains
    machine-readable either way.
    """
    prov_line = json.dumps(provenance, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        print(prov_line)
    else:
        if comment_prefix is not None:
            sys.stdout.write(comment_prefix + prov_line + "\n")
        sys.stdout.write(text)


def _combo(s: int, d: int) -> SignedCombination:
    try:
        return SignedCombination(s, d)
    except ValueError as exc:
        raise ConfigError(f"s/d: {exc}") from exc


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"delta: {text!r} is not a rational ({exc})") from exc


def _kmax(kmax: int | None) -> int | None:
    if kmax is not None and kmax < 0:
        raise ConfigError(f"kmax: must be non-negative, got {kmax}")
    return kmax


def _cmd_constants(args) -> int:
    if args.h < 2:  # as b_constant says, but --kmax 0 calls no b_constant
        raise ConfigError(f"h: must be at least 2, got {args.h}")
    prov = _provenance(args, None)
    b = [b_constant(args.h, k) for k in range(1, _kmax(args.kmax) + 1)]
    if args.format == "csv":
        text = "k,b_hk\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(b, start=1))
        _emit(text, args.out, prov, "# ")
        return 0
    g_entries = []
    for spec in args.g_combo:
        try:
            s_text, d_text = spec.split(",")
            s, d = int(s_text), int(d_text)
        except ValueError as exc:
            raise ConfigError(f"g-combo: expected S,D integers, got {spec!r}") from exc
        combo = _combo(s, d)
        if combo.h != args.h:
            raise ConfigError(f"g-combo: {spec} has h={combo.h}, expected {args.h}")
        for c in args.g_c:
            g_entries.append({"c": c, "s": s, "d": d, "value": g_series(c, combo)})
    doc = {"provenance": prov, "h": args.h, "K_max": args.kmax, "b": b, "g": g_entries}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out, prov, None)
    return 0


def _cmd_rcount(args) -> int:
    combo = _combo(args.s, args.d)
    prov = _provenance(args, None)
    table = rep_counts_all(combo, args.N)
    if args.format == "csv":
        lines = ["n,count"] + [f"{n},{count}" for n, count in table.items()]
        _emit("\n".join(lines) + "\n", args.out, prov, "# ")
    else:
        doc = {
            "provenance": prov, "s": args.s, "d": args.d, "N": args.N,
            "counts": [[n, count] for n, count in table.items()],
            "total": table.total(),
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out, prov, None)
    return 0


def _cmd_sample(args) -> int:
    # A bad field raises ValueError naming it, which main reports unchanged.
    params = SampleParameters(
        N=args.N, seed=args.seed, trial_index=args.trial, c=args.c,
        delta=None if args.delta is None else _fraction(args.delta), p=args.p,
    )
    prov = _provenance(args, args.seed)
    A = sample_set(params)
    import io

    buf = io.StringIO()
    A.write(buf)
    _emit(buf.getvalue(), args.out, prov, "# ")
    return 0


def _read_set(path: str) -> SampledSet:
    with open(path, "r", encoding="utf-8") as f:
        return SampledSet.read(f)


def _cmd_sumset(args) -> int:
    combo = _combo(args.s, args.d)
    prov = _provenance(args, None)
    A = _read_set(args.infile)
    result = gen_sumset(A, combo)
    if args.membership_csv:
        with open(args.membership_csv, "w", encoding="utf-8", newline="") as f:
            result.write_membership_csv(f)
    doc = {"provenance": prov, **result.summary()}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out, prov, None)
    return 0


def _cmd_xk(args) -> int:
    combo = _combo(args.s, args.d)
    prov = _provenance(args, None)
    A = _read_set(args.infile)
    stats = tuple_statistics(A, combo, k_max=_kmax(args.kmax))
    doc = {
        "provenance": prov,
        "s": args.s,
        "d": args.d,
        "N": stats.N,
        "x": [[k, v] for k, v in sorted(stats.x.items())],
        "alternating_sum": stats.alternating_sum(),
        "cardinality": stats.cardinality,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out, prov, None)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    config.validate()
    validate_workers(args.workers)
    # An experiment's input is its resolved config, not the flags that named it.
    prov = {**_provenance(args, config.seed), "config": config_to_jsonable(config)}
    print(json.dumps(prov, sort_keys=True))
    report = run_experiment(config, workers=args.workers)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8", newline="") as f:
            f.write(report.to_json())
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8", newline="") as f:
            f.write(report.csv_text())
    if not args.json_out and not args.csv_out:
        sys.stdout.write(report.to_json())
    else:
        for row in report.rows:
            status = "" if row.passed is None else ("pass" if row.passed else "FAIL")
            print(
                f"{row.kind} ({row.s},{row.d}) N={row.N}: mean={row.mean:.6g} "
                f"predicted={'-' if row.predicted is None else format(row.predicted, '.6g')} "
                f"{status}"
            )
        print(f"all_pass={str(report.all_pass).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gensumset",
        description="Generalized-sumset counting, constants, and Monte Carlo experiments.",
    )
    parser.add_argument("--version", action="version", version=f"gensumset {VERSION}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("constants", help="phase constants and the critical constant g",
                       formatter_class=fmt)
    p.add_argument("--h", type=int, required=True, help="total summand count (>= 2)")
    p.add_argument("--kmax", type=int, default=12, help="table depth")
    p.add_argument("--g-c", type=float, action="append", default=[],
                   help="evaluate g(c; s, d) at this coefficient (repeatable)")
    p.add_argument("--g-combo", action="append", default=[], metavar="S,D",
                   help="combo for g, e.g. 2,1 (repeatable)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the artifact to this file")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("rcount", help="exact representation counts over [-dN, sN]",
                       formatter_class=fmt)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rcount)

    p = sub.add_parser("sample", help="draw one binomial random subset",
                       formatter_class=fmt)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", type=float, help="decay coefficient (with --delta)")
    p.add_argument("--delta", help='decay exponent as a rational string, e.g. "1/2"')
    p.add_argument("--p", type=float, help="fixed inclusion probability")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trial", type=int, default=0, help="sub-stream index")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sumset", help="generalized sumset of a stored set",
                       formatter_class=fmt)
    p.add_argument("--infile", required=True, help="set file (N=..., then elements)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--membership-csv", help="also write n,member rows to this file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("xk", help="collision statistics X_k of a stored set",
                       formatter_class=fmt)
    p.add_argument("--infile", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None,
                   help="largest k to tabulate (default: up to the maximum class count)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_xk)

    p = sub.add_parser("experiment", help="run a configured Monte Carlo experiment",
                       formatter_class=fmt)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel trial worker processes (at least 1); each draws its "
                        "large trials on cores // processes threads, the next trial's "
                        "while this one folds (one thread, so no overlap, from --workers "
                        "= cores up); output is identical for any value")
    p.add_argument("--json-out", help="write the JSON report here")
    p.add_argument("--csv-out", help="write the per-N aggregate CSV here")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
