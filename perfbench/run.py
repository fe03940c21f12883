"""Run one polyfw benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lasso_full --seed 42 --seconds 15 --trace 0

Run from the root of a polyfw source tree; polyfw is imported from its
``src`` directory.  BLAS and OpenMP are pinned to one thread before
numpy loads.

With ``--trace 0`` the run measures the following.  Its times are
host-normalised seconds (see ``speed``: wall time scaled by a fixed
kernel's time next to it, so that a busier host does not read as a
slower program).

* ``setup_s``: median over fresh processes of the time to import polyfw
  and build the workload's inputs;
* ``total_s``: the time of one pass over the workload's operations, as
  the sum of each operation's median over the passes that fit in
  ``--seconds`` (at least one pass).  The wall times are reported too
  (``setup_wall_s``, ``total_wall_s``) and every sample is kept in the
  result file;
* ``peak_rss_mb``: peak resident memory of the measuring process.

Each operation counts once in ``attempted`` and ``failed``, however often
it runs: every repetition must reproduce its first result byte for byte,
and one that does not is one more failure.

With ``--trace 1`` the run alternates untraced and traced passes for
``--seconds`` (at least one pair) and reports the per-layer metrics of
``tracing.per_layer`` plus ``trace.overhead_frac``.  Counts come from
the first traced pass and must repeat exactly in every later one; every
pass's outputs must be byte-identical to the first untraced pass's.  The
traced run uses wall time only.

Every operation's result is checked (see ``workloads``).  The report
goes to stdout, with the full result also written to
``.perfbench_out/`` in the source tree; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# The default seed of each workload (the README's where it names one) and a
# second seed kept for checking a claimed gain on inputs not used while the
# change was written.
DEFAULT_SEEDS = {"lasso_full": 42, "flow_paths": 0, "pwidth_geom": 0, "tiny_sweep": 7}
CHECK_SEEDS = {"lasso_full": 1042, "flow_paths": 1000, "pwidth_geom": 1000, "tiny_sweep": 1007}
# The speed kernel that tracks each workload's slow-downs best (see speed.py).
KERNEL = {"lasso_full": "blas", "flow_paths": "python", "pwidth_geom": "blas", "tiny_sweep": "python"}
SETUP_PROBES = 3
SETUP_KERNELS = 15
PROBE_TIMEOUT_S = 120


def _use_source_tree() -> None:
    """Import polyfw from this tree's ``src``; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "polyfw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyfw sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


class Tally:
    """Operations attempted and failed, each counted once however often it runs.

    A run repeats every operation for as long as ``--seconds`` allows.  The
    first result of an operation sets its count, its failures and the
    reference for its outputs; every later repetition must reproduce them
    byte for byte, and one that does not counts as one more failure.  So a
    seed gives the same tally whatever number of repetitions the host's
    speed allows.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.wrong = 0  # failed checks, as opposed to solver failures
        self.reference: dict = {}

    def add(self, label: str, checked) -> None:
        outcome = (
            tuple(checked.failures),
            {k: hashlib.sha256(v.encode()).hexdigest() for k, v in checked.outputs.items()},
        )
        if label not in self.reference:
            self.reference[label] = outcome
            self.attempted += checked.attempted
            self.fail(checked.failures)
        elif outcome != self.reference[label]:
            self.fail(["check:outputs_differ"])

    def fail(self, reasons) -> None:
        self.failed += len(reasons)
        self.reasons.update(reasons)
        self.wrong += sum(1 for r in reasons if r.startswith("check:"))


def _run_op(op, tally: Tally, clock=None):
    """Time one operation, then check its result outside the timed region.

    ``clock`` makes the timer: a ``speed.Meter`` in the measured passes,
    ``speed.Stopwatch`` (wall time, no kernel runs) by default, as in the
    traced run.
    """
    import speed
    from workloads import Checked

    with (clock or speed.Stopwatch)() as timed:
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, the run goes on
            result = exc
    if isinstance(result, Exception):
        tally.add(op.label, Checked(1, [f"error:{type(result).__name__}"]))
    else:
        tally.add(op.label, op.check(result))
    return timed


def _pass(instance, tally: Tally, with_prepare: bool) -> float:
    ops = ([instance.prepare] if with_prepare and instance.prepare else []) + instance.ops
    return sum(_run_op(op, tally).wall_s for op in ops)


def _setup_once(workload: str, seed: int) -> float:
    start = time.perf_counter()
    _use_source_tree()
    import workloads

    workloads.build(workload, seed, scratch=OUT_DIR)
    return time.perf_counter() - start


def _host_kernel_s() -> float:
    import speed

    return statistics.median(speed.kernel_s("python") for _ in range(SETUP_KERNELS))


def _setup_s(workload: str, seed: int) -> list:
    """(wall, normalised) set-up times of fresh processes.

    The kernel runs in this warm process right before and after each
    probe; in the fresh probe itself its first runs are still cold.
    """
    import speed

    samples = []
    for _ in range(SETUP_PROBES):
        before = _host_kernel_s()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up probe failed with code {proc.returncode}")
        wall = float(proc.stdout.split()[-1])
        kernel = 0.5 * (before + _host_kernel_s())
        samples.append((wall, wall * speed.REFERENCE_S["python"] / kernel))
    return samples


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _summary(samples: list) -> dict:
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples), "samples": samples}


def _measure(seconds: float, instance, tally: Tally, kernel: str) -> tuple:
    """Untraced passes: the one-off prepare step, then ops until time is up.

    Returns each operation's median host-normalised time and the report.
    """
    import speed

    report: dict = {}
    if instance.prepare is not None:
        timed = _run_op(instance.prepare, tally, lambda: speed.Meter(kernel))
        report[f"{instance.prepare.label}_s"] = timed.norm_s
        report[f"{instance.prepare.label}_wall_s"] = timed.wall_s
    wall = {op.label: [] for op in instance.ops}
    norm = {op.label: [] for op in instance.ops}
    start = time.perf_counter()
    passes = 0
    while True:
        for op in instance.ops:
            if passes and time.perf_counter() - start >= seconds:
                break
            timed = _run_op(op, tally, lambda: speed.Meter(kernel))
            wall[op.label].append(timed.wall_s)
            norm[op.label].append(timed.norm_s)
        else:
            passes += 1
            if time.perf_counter() - start < seconds:
                continue
        break
    report["passes"] = passes
    report["measured_s"] = time.perf_counter() - start
    report["wall_total_s"] = sum(statistics.median(times) for times in wall.values())
    report["ops"] = {label: _summary(times) for label, times in norm.items()}
    report["ops_wall"] = {label: _summary(times) for label, times in wall.items()}
    return {label: statistics.median(times) for label, times in norm.items()}, report


def _measure_traced(workload: str, seed: int, seconds: float, instance, tally: Tally) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    from tracing import COUNT_METRICS, Tracer, per_layer

    untraced, traced, layers, first = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(_pass(instance, tally, with_prepare=True))
        tracer = Tracer()
        with tracer.installed():
            traced.append(_pass(instance, tally, with_prepare=True))
        layers.append(per_layer(tracer))
        if first is None:
            first = tracer
    mismatched = [
        name for name in COUNT_METRICS if any(m[name] != layers[0][name] for m in layers)
    ]
    if mismatched:
        tally.fail(["check:counts_differ"])
    metrics = {
        name: layers[0][name] if name in COUNT_METRICS
        else statistics.median(m[name] for m in layers)
        for name in layers[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.spans"] = len(first.names)
    OUT_DIR.mkdir(exist_ok=True)
    first.write(OUT_DIR / f"spans_{workload}_seed{seed}.csv.gz")
    report = {
        "pairs": len(traced),
        "untraced_pass_s": _summary(untraced),
        "traced_pass_s": _summary(traced),
        "counts_differ": mismatched,
        "spans": first.span_times(),
    }
    return metrics, report


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(_setup_once(args.workload, args.seed))
        return 0

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    units = _declared(bool(args.trace))
    setup = None if args.trace else _setup_s(args.workload, seed)
    _use_source_tree()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    instance = workloads.build(args.workload, seed, scratch=OUT_DIR)
    tally = Tally()
    result: dict = {"workload": args.workload, "seed": seed, "trace": args.trace,
                    "check_seed": CHECK_SEEDS[args.workload], "seconds": args.seconds,
                    "environment": _environment()}
    if args.trace:
        metrics, result["traced"] = _measure_traced(args.workload, seed, args.seconds, instance, tally)
    else:
        per_op, result["untraced"] = _measure(args.seconds, instance, tally, KERNEL[args.workload])
        metrics = {
            "setup_s": statistics.median(norm for _, norm in setup),
            "total_s": sum(per_op.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["setup_samples_s"] = setup
        result["setup_wall_s"] = statistics.median(wall for wall, _ in setup)
        result["report"] = _report(per_op, result, tally, metrics)

    result["failures"] = dict(tally.reasons)
    result["metrics"] = metrics
    out_file = OUT_DIR / f"result_{args.workload}_seed{seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    _print_report(result, units)
    line = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


def _report(per_op: dict, result: dict, tally: Tally, metrics: dict) -> dict:
    """Every end-to-end figure of the run, gated or not, by name and unit."""
    untraced = result["untraced"]
    rows = {name: [value, "s"] for name, value in metrics.items() if name.endswith("_s")}
    rows["peak_rss_mb"] = [metrics["peak_rss_mb"], "MB"]
    if "ref_opt_s" in untraced:
        rows["ref_opt_s"] = [untraced["ref_opt_s"], "s"]
    for label, value in per_op.items():
        kind, _, what = label.partition(".")
        rows[f"{kind}_s.{what}"] = [value, "s"]
    rows["fail_frac"] = [tally.failed / tally.attempted if tally.attempted else 0.0, "ratio"]
    rows["setup_wall_s"] = [result["setup_wall_s"], "s"]
    rows["total_wall_s"] = [untraced["wall_total_s"], "s"]
    return rows


def _print_report(result: dict, units: dict) -> None:
    env = result["environment"]
    print(f"perfbench {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"seconds {result['seconds']}")
    print(f"  python {env['python']} numpy {env['numpy']} scipy {env['scipy']} | "
          f"{env['blas']} threads {env['blas_threads']} | nproc {env['nproc']}")
    rows = result.get("report") or {k: [v, units[k]] for k, v in result["metrics"].items()}
    for name, (value, unit) in rows.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if result["failures"]:
        print(f"  failures: {result['failures']}")


if __name__ == "__main__":
    sys.exit(main())
