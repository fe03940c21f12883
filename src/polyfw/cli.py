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


def _cmd_run(args: argparse.Namespace) -> int:
    config = bench.ExperimentConfig.from_json(
        Path(args.config), seed=args.seed, max_iter=args.max_iter, epsilon=args.epsilon
    )
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    summary = bench.run_experiment(config, args.out_dir)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if bench.all_runs_clean(summary) else 1


def _cmd_pwidth(args: argparse.Namespace) -> int:
    report = geometry.pwidth(VertexList.read_csv(args.vertices_csv).matrix)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    trace = RunTrace.read_csv(args.trace_csv)
    fit = bench.fit_rate(trace, quantity=args.quantity, f_star=args.f_star, floor=args.floor)
    print(json.dumps(fit.to_json(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code: 0 on success, 1 for a run that ended
    unclean or with an error status, 2 for bad input, also when a run meets it."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        message, code = exc, 2
    except RuntimeError as exc:  # a reference run or a facial problem ended with an error status
        message, code = exc, 1
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
