"""Self-checks of the benchmark, on tiny instances of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polyfw import bench  # noqa: E402


def _traced_pass(instance, tally):
    tracer = tracing.Tracer()
    with tracer.installed():
        run._pass(instance, tally, with_prepare=True)
    return tracer


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_passes_repeat_counts_and_outputs(name, tmp_path):
    instance = workloads.build(name, 3, tiny=True, scratch=tmp_path)
    tally = run.Tally()
    run._pass(instance, tally, with_prepare=True)
    first = tracing.per_layer(_traced_pass(instance, tally))
    second = tracing.per_layer(_traced_pass(instance, tally))
    assert tally.wrong == 0, tally.reasons
    assert tally.attempted > 0
    for metric in tracing.COUNT_METRICS:
        assert first[metric] == second[metric], metric
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(first) | {"trace.overhead_frac", "trace.spans"} == declared
    busy = "geometry.lp_calls" if name == "pwidth_geom" else "oracles.lmo_calls"
    assert first[busy] > 0


def test_wrappers_are_removed_after_a_traced_pass():
    from polyfw import geometry, solvers
    from polyfw.objectives import QuadraticObjective

    before = (solvers.lmo, solvers.solve, geometry.linprog, QuadraticObjective.value)
    with tracing.Tracer().installed():
        assert solvers.lmo is not before[0]
    assert (solvers.lmo, solvers.solve, geometry.linprog, QuadraticObjective.value) == before


def test_tally_counts_each_operation_once_and_flags_a_changed_repeat():
    tally = run.Tally()
    stall = workloads.Checked(2, ["error:CorrectionStallError"], {"a": "x"})
    for _ in range(3):
        tally.add("solve.FCFW", stall)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    tally.add("solve.FCFW", workloads.Checked(2, ["error:CorrectionStallError"], {"a": "y"}))
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 1)
    assert tally.reasons["check:outputs_differ"] == 1


@pytest.mark.parametrize("kernel", sorted(speed.KERNELS))
def test_meter_cuts_long_regions_and_leaves_no_timer(kernel):
    import signal
    import time

    with speed.Meter(kernel, period=0.02) as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(meter.kernel_samples) >= 4
    ticks = sum(meter.kernel_samples[1:-1])  # kernel runs inside the region
    assert 0.1 <= meter.wall_s + ticks < 0.15
    assert meter.wall_s < 0.1
    assert meter.norm_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_certificate_rejects_a_wrong_optimum(tmp_path):
    instance = workloads.build("lasso_full", 3, tiny=True)
    f_star = instance.prepare.run()
    [trace] = instance.ops[1].run()  # AFW
    assert workloads._certificate(trace, f_star, 1e-8) is None
    assert workloads._certificate(trace, f_star - 1e-3, 1e-8) == "check:certificate"
    assert workloads._certificate(trace, f_star + 1e-3, 1e-8) == "check:below_reference"


def test_pwidth_check_rejects_a_wrong_width():
    from polyfw.oracles import Cube

    atoms = [a.point for a in Cube(2).enumerate_atoms()]
    op = workloads._pwidth_op("pwidth.cube2", atoms, 1.001 / math.sqrt(2.0))
    assert op.check(op.run()).failures == ["check:pwidth"]


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 16])
def test_triangle_optimum_matches_reference(theta):
    obj, spec, _, _ = bench.gen_triangle(theta)
    assert workloads.triangle_f_star(theta) == pytest.approx(
        bench.reference_optimum(obj, spec), abs=1e-12
    )


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_paths", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_declared_metrics(trace):
    proc = _cli(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_cli_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
