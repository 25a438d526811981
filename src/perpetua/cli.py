"""Command line entry points.

    perpetua verdict  --config FILE [--format json|csv]
    perpetua classify --config FILE [--format json|csv]
    perpetua simulate --config FILE --out DIR [--seed U64]
    perpetua verify   --config FILE [--out DIR] [--seed U64] [--threads N]

From a checkout, ``PYTHONPATH=src python -m perpetua ...`` runs the same
commands.

verify runs the checks the config lists under "checks", always in the order
below.  check_params.<check> sets a check's parameters; defaults in brackets,
where t0 without a prefix is the config's own:

    zero_one    none (threshold: thresholds.delta_01)
    occupation  n_paths [50], bandwidth [0.05]
    overshoot   z1 [max(20 sigma_eff/mu, 1)], z2 [2 z1], n [400]
                (threshold: KS critical value at n and thresholds.ks_alpha)
    invariance  x_list [[1, 2, 5]], n [200], bandwidth [0.05], n_rho [1000],
                start_from_rho [true]
                (threshold: max(0.05, KS critical value at n and
                thresholds.ks_alpha))
    lln         t0 [max(50 v/mu^2, 10 t0)], n [200], horizon [4 t0 of lln]
                (v = sigma^2 + int x^2 nu(dx) for compound Poisson, else
                sigma_eff^2; t0 below 50 v/mu^2 is refused)

z2 must exceed z1, lln's horizon its t0 and (on grid paths) 10 dt, and
lln's t0 its floor, or the config is refused (exit 2); so is a count above
2^20 paths (SAMPLE_SIZE), or a passage to z2 or to the rho harvest level
whose walk holds more than 2^24 expected pieces (PATH_BUDGET).  expected_fail lists
the checks that must fail for the run to meet expectations, each one that
runs (listed under "checks", or any check when "checks" is left out).  Every
check runs on the config's dt, read only with a Gaussian part or infinite
activity: drift plus finite activity is simulated exactly, event by event.

Exit codes: 0 pass, 1 check failure (or an analysis error), 2 bad config
(or an --out that cannot be made a directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import local_time_criterion, perpetual_verdict
from .config import load_config
from .errors import ConfigError, PerpetuaError
from .runner import run_experiment, simulate_paths

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perpetua",
        description="Almost-sure finiteness of perpetual integrals: "
                    "analytic verdicts and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON file")
        return p

    for name, help_text in (("verdict", "analytic finiteness verdict for (triplet, f)"),
                            ("classify", "structural classification of the triplet")):
        command(name, help_text).add_argument(
            "--format", choices=("json", "csv"), default="json", help="stdout format")
    simulate = command("simulate", "sample paths and dump CSVs")
    verify = command("verify", "run the statistical check suite")
    for p in (simulate, verify):
        p.add_argument("--out", required=p is simulate, default=None,
                       help="output directory for reports and CSV artifacts")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed from the config")
    verify.add_argument("--threads", type=int, default=1,
                        help="worker threads, at least 1 (results are identical for any value)")
    return parser


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, obj))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows: list = []
        _flatten("", payload, rows)
        print("key,value")
        for key, val in rows:
            print(f"{key},{val}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config = config.with_seed(args.seed)
        if getattr(args, "threads", 1) < 1:
            raise ConfigError([f"--threads: must be >= 1, got {args.threads}"])
        if getattr(args, "out", None) is not None:  # one that cannot be a directory is refused
            Path(args.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verdict":
            report = perpetual_verdict(config.triplet, config.f)
            _emit(report.to_dict(), args.format)
            return 0

        if args.command == "classify":
            flags = config.triplet.classify()
            payload = {
                "classification": flags.to_dict(),
                "local_time": local_time_criterion(config.triplet).value,
                "mean": config.triplet.mean().describe(),
            }
            _emit(payload, args.format)
            return 0

        if args.command == "simulate":
            written = simulate_paths(config, args.out)
            print(f"wrote {len(written)} files to {args.out}")
            return 0

        # verify
        report, exit_code = run_experiment(
            config, out_dir=args.out, threads=args.threads
        )
        for entry in report["checks"]:
            tag = "[PASS]" if entry["passed"] else "[FAIL]"
            stat = entry["statistic"]
            stat_s = "n/a" if stat is None else f"{stat:.6g}"
            thr = entry["threshold"]
            thr_s = "n/a" if thr is None else f"{thr:.6g}"
            print(f"{tag} {entry['name']}: statistic={stat_s} threshold={thr_s}")
        verdict = "meets expectations" if exit_code == 0 else "FAILED"
        print(f"suite: {verdict} ({len(report['checks'])} checks)")
        return exit_code

    except PerpetuaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
