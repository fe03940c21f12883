"""Command-line interface: run experiments, compute widths, fit rates."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from polyfw import bench, geometry
from polyfw.core import RunTrace
from polyfw.oracles import VertexList


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfw",
        description="Projection-free solvers over polytopes and their rate diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config and write traces")
    run_p.add_argument("config", help="path to an experiment JSON file")
    run_p.add_argument("--out-dir", default="runs", help="directory for traces and summary")
    run_p.add_argument("--seed", type=int, default=None, help="override the problem rng_seed")
    run_p.add_argument("--max-iter", type=int, default=None, help="override max_iter")
    run_p.add_argument("--epsilon", type=float, default=None, help="override epsilon")
    run_p.set_defaults(handler=_cmd_run)

    pw_p = sub.add_parser("pwidth", help="compute the pyramidal width of a vertex CSV")
    pw_p.add_argument("vertices_csv", help="CSV matrix, one atom per row")
    pw_p.set_defaults(handler=_cmd_pwidth)

    rate_p = sub.add_parser("rate", help="fit a log-linear rate to a trace CSV")
    rate_p.add_argument("trace_csv", help="trace file written by `polyfw run`")
    rate_p.add_argument(
        "--quantity",
        choices=list(bench.RATE_QUANTITIES),
        default="fw_gap",
        help="which series to fit",
    )
    rate_p.add_argument(
        "--f-star",
        type=float,
        default=None,
        help="optimal value, required for f_gap_to_opt",
    )
    rate_p.add_argument("--floor", type=float, default=0.0, help="truncate values at this floor")
    rate_p.set_defaults(handler=_cmd_rate)
    return parser


def _error(message: object, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = bench.ExperimentConfig.from_json(
            Path(args.config), seed=args.seed, max_iter=args.max_iter, epsilon=args.epsilon
        )
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _error(exc)
    try:
        summary = bench.run_experiment(config, args.out_dir)
    except RuntimeError as exc:  # the reference run ended with an error status
        return _error(exc, 1)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if bench.all_runs_clean(summary) else 1


def _cmd_pwidth(args: argparse.Namespace) -> int:
    try:
        report = geometry.pwidth(VertexList.read_csv(args.vertices_csv).matrix)
    except (OSError, ValueError) as exc:
        return _error(exc)
    except RuntimeError as exc:  # a facial problem did not converge
        return _error(exc, 1)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    try:
        trace = RunTrace.read_csv(args.trace_csv)
        fit = bench.fit_rate(trace, quantity=args.quantity, f_star=args.f_star, floor=args.floor)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(json.dumps(fit.to_json(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
