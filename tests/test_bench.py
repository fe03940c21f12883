"""Problem generators, rate fitting, experiment runner, CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyfw import cli, geometry
from polyfw.bench import (
    PROBLEMS,
    ExperimentConfig,
    all_runs_clean,
    fit_rate,
    gen_lasso,
    gen_rankdef,
    gen_triangle,
    reference_optimum,
    run_experiment,
)
from polyfw.core import RunTrace, StepKind, StepRecord
from polyfw.objectives import QuadraticObjective
from polyfw.oracles import Simplex
from polyfw.solvers import CorrectionPostconditionError, SolverConfig, Variant, solve


def synth_trace(h_values, variant="PFW", kinds=None):
    """Trace whose f_values sit at f* + h_t, for fit tests."""
    records = []
    for t, h in enumerate(h_values):
        kind = kinds[t] if kinds is not None else StepKind.FW
        records.append(
            StepRecord(
                iteration=t,
                kind=kind,
                gamma=0.5,
                gamma_max=1.0,
                fw_gap=2.0 * h,
                away_gap=0.0,
                f_value=h,
                active_size=2,
            )
        )
    return RunTrace(records=records, config_echo={"variant": variant, "f0": 1.0})


def triangle_config(name, **overrides):
    doc = {
        "name": name,
        "problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 3,
                    "rng_seed": 5},
        "variants": ["PFW"],
        "epsilon": 1e-10,
        "max_iter": 300,
    }
    doc.update(overrides)
    return ExperimentConfig.from_json(doc)


def test_gen_lasso_shapes():
    obj, spec = gen_lasso(20, 30, 5, 0.1, 0)
    assert obj.dimension == 30
    assert spec.dimension == 30
    assert spec.radius == pytest.approx(20.0)
    obj2, spec2 = gen_lasso(200, 500, 50, 0.1, 42)
    assert obj2.dimension == 500 and spec2.dimension == 500


def test_gen_lasso_rejects_oversparse():
    with pytest.raises(ValueError):
        gen_lasso(10, 5, 6, 0.1, 0)


def test_gen_lasso_rejects_an_empty_dimension():
    for m, n in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            gen_lasso(m, n, 0, 0.1, 0)


def test_gen_lasso_noiseless_recovery():
    obj, spec = gen_lasso(25, 40, 4, 0.0, 3)
    trace = solve(obj, spec, SolverConfig(Variant.AFW, epsilon=1e-8, max_iter=3000))
    assert trace.records[-1].f_value <= 1e-6


def test_gen_triangle_pinned_constants():
    obj, spec, delta, diameter = gen_triangle(math.pi / 2)
    assert delta == pytest.approx(math.sin(math.pi / 4))
    assert diameter == pytest.approx(2 * math.cos(math.pi / 4))
    pts = {tuple(np.round(a.point, 12)) for a in spec.enumerate_atoms()}
    assert pts == {(-1.0, 0.0), (0.0, 0.0), (0.0, 1.0)}
    assert obj.value(np.array([-0.5, 1.0])) == pytest.approx(0.0)


def test_gen_triangle_pfw_rate_formula():
    _, _, delta, diameter = gen_triangle(math.pi / 4)
    rho_pfw = min(0.5, delta ** 2 / diameter ** 2)
    assert rho_pfw == pytest.approx(0.25 * math.tan(math.pi / 8) ** 2)
    assert rho_pfw == pytest.approx(0.0429, abs=2e-4)


def test_gen_triangle_theta_range():
    gen_triangle(math.pi / 2)  # boundary included
    for bad in (0.0, -0.3, math.pi / 2 + 0.01):
        with pytest.raises(ValueError):
            gen_triangle(bad)


def test_gen_triangle_pwidth_estimate_matches_delta():
    _, spec, delta, _ = gen_triangle(math.pi / 2)
    rep = geometry.pwidth([a.point for a in spec.enumerate_atoms()])
    assert rep.pwidth_estimate == pytest.approx(delta, rel=0.02)


def test_gen_rankdef_is_rank_deficient():
    obj, spec = gen_rankdef(10, 4, 0)
    eigs = np.linalg.eigvalsh(obj.Q)
    assert eigs[0] < 1e-10
    assert spec.dimension == 10
    assert obj.strong_convexity == pytest.approx(0.0, abs=1e-10)


def test_fit_rate_exact_geometric():
    h = [0.8 * math.exp(-0.05 * t) for t in range(60)]
    fit = fit_rate(synth_trace(h), "f_gap_to_opt", f_star=0.0)
    assert fit.rho_hat == pytest.approx(0.05, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rate_constant_sequence():
    fit = fit_rate(synth_trace([0.3] * 40), "f_gap_to_opt", f_star=0.0)
    assert fit.rho_hat == pytest.approx(0.0, abs=1e-15)


def test_fit_rate_truncates_at_floor():
    h = [0.8 * math.exp(-0.05 * t) for t in range(12)] + [0.0] * 10
    fit = fit_rate(synth_trace(h), "f_gap_to_opt", f_star=0.0)
    assert fit.window == (0, 12)
    assert fit.rho_hat == pytest.approx(0.05, abs=1e-12)


def test_fit_rate_fw_gap_quantity():
    h = [0.5 * math.exp(-0.1 * t) for t in range(40)]
    fit = fit_rate(synth_trace(h), "fw_gap")
    assert fit.rho_hat == pytest.approx(0.1, abs=1e-12)


def test_fit_rate_drop_rows_excluded_only_for_away_variants():
    h, kinds = [], []
    level = 0.9
    for t in range(40):
        if t % 3 == 2:
            kinds.append(StepKind.DROP)  # stagnant drop row
        else:
            level *= math.exp(-0.1)
            kinds.append(StepKind.FW)
        h.append(level)
    afw = fit_rate(synth_trace(h, "AFW", kinds), "f_gap_to_opt", f_star=0.0)
    pfw = fit_rate(synth_trace(h, "PFW", kinds), "f_gap_to_opt", f_star=0.0)
    assert afw.rho_hat == pytest.approx(0.1, abs=1e-10)
    assert afw.r_squared == pytest.approx(1.0)
    assert pfw.rho_hat < 0.1 - 1e-3


def test_fit_rate_argument_validation():
    trace = synth_trace([0.5] * 20)
    with pytest.raises(ValueError):
        fit_rate(trace, "f_gap_to_opt")  # f_star missing
    with pytest.raises(ValueError):
        fit_rate(trace, "no_such_series")


def test_fit_rate_short_series_reports_zero():
    fit = fit_rate(synth_trace([0.5, 0.4]), "fw_gap")
    assert fit.rho_hat == 0.0
    assert fit.window == (0, 2)


def test_reference_optimum_interior_point():
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    assert reference_optimum(obj, Simplex(2)) == pytest.approx(0.0, abs=1e-12)


def test_reference_optimum_when_the_start_is_optimal():
    """A run that stops before its first step records no row; f* is then f0."""
    obj = QuadraticObjective.distance_to(np.array([5.0, -5.0]))
    assert reference_optimum(obj, Simplex(2)) == obj.value(np.array([1.0, 0.0])) == 20.5


def test_reference_optimum_is_one_fcfw_run(monkeypatch):
    import polyfw.bench as bench

    configs = []

    def recording(obj, spec, config, x0=None):
        configs.append(config)
        return solve(obj, spec, config, x0)

    monkeypatch.setattr(bench, "solve", recording)
    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8)
    reference_optimum(obj, spec)
    assert [(c.variant, c.epsilon) for c in configs] == [(Variant.FCFW, 1e-13)]


def test_reference_optimum_raises_on_error_exit(monkeypatch):
    import polyfw.solvers as solvers

    def failing(*args, **kwargs):
        raise CorrectionPostconditionError("forced failure")

    monkeypatch.setattr(solvers, "fcfw_correction", failing)
    obj, spec = gen_lasso(20, 40, 5, 0.1, 7, 2.0)
    with pytest.raises(RuntimeError, match="error:CorrectionPostconditionError: forced failure"):
        reference_optimum(obj, spec)


@pytest.mark.parametrize(
    "problem, f_star",
    [
        ("lasso_desk", 177.75407992918895),
        (math.pi / 4, 0.2683058261758408),
        (math.pi / 8, 0.39005655425459385),
        (math.pi / 16, 0.44762465957157366),
    ],
    ids=["lasso_desk", "triangle_pi_4", "triangle_pi_8", "triangle_pi_16"],
)
def test_reference_optimum_pinned(problem, f_star):
    """f* pinned bit for bit: the floor rule that ends the reference run must not move it."""
    if problem == "lasso_desk":
        obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8)
    else:
        obj, spec = gen_triangle(problem)[:2]
    assert reference_optimum(obj, spec) == f_star


def write_custom_csvs(folder, seed=16, shape=(8, 4)):
    """Write the A.csv and y.csv of a seeded Gaussian least-squares problem into ``folder``."""
    rng = np.random.default_rng(seed)
    np.savetxt(folder / "A.csv", rng.standard_normal(shape), delimiter=",")
    np.savetxt(folder / "y.csv", rng.standard_normal(shape[0]), delimiter=",")


def custom_problem(folder, spec):
    return {"kind": "custom", "A_csv": str(folder / "A.csv"), "y_csv": str(folder / "y.csv"),
            "spec": spec}


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_run_experiment_reproducible(kind, tmp_path):
    """Two runs of one config write byte-identical traces and summaries, for every kind."""
    write_custom_csvs(tmp_path)
    problem = {
        "lasso": {"kind": "lasso", "m": 10, "n": 16, "k": 3, "rng_seed": 4, "radius": 1.5},
        "triangle": {"kind": "triangle", "thetas": [math.pi / 4, math.pi / 8], "n_starts": 3,
                     "rng_seed": 5},
        "rankdef": {"kind": "rankdef", "d": 10, "rank": 4, "rng_seed": 3},
        "custom": custom_problem(tmp_path, {"variant": "simplex", "dimension": 4}),
    }[kind]
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_experiment(ExperimentConfig("repro", dict(problem), [v.value for v in Variant],
                                        1e-10, 300), out)
    names = sorted(p.name for p in a.iterdir())
    assert "repro_summary.json" in names and len(names) > len(Variant)
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_experiment_tallies_match_traces(tmp_path):
    cfg = triangle_config("tally")
    summary = run_experiment(cfg, tmp_path)
    assert summary["runs"]
    for run in summary["runs"]:
        trace = RunTrace.read_csv(tmp_path / run["trace_file"])
        assert run["iterations"] == len(trace.records)
        assert run["step_counts"] == trace.step_counts()
        assert run["exit_status"] == trace.config_echo["exit_status"]
    agg = summary["aggregates"][0]
    included = [r for r in summary["runs"]
                if not r["drop_start"] and not r["degenerate"]]
    assert agg["n_included"] == len(included)
    assert agg["n_drop_start"] == sum(r["drop_start"] for r in summary["runs"])


def test_run_experiment_builds_no_step_records(tmp_path, monkeypatch):
    """Solves, fits, run records and CSV writes read the trace's columns, never its records."""
    built = []
    original = StepRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(StepRecord, "__init__", counting)
    lasso = ExperimentConfig.from_json(
        {"name": "lazy_lasso", "problem": {"kind": "lasso", "m": 10, "n": 16, "k": 3,
                                           "noise": 0.1, "rng_seed": 4, "radius": 1.5},
         "variants": [v.value for v in Variant], "epsilon": 1e-8, "max_iter": 300}
    )
    triangle = triangle_config("lazy_triangle", variants=["FW", "AFW", "PFW", "MNP"])
    for cfg in (lasso, triangle):
        summary = run_experiment(cfg, tmp_path)
        assert sum(run["iterations"] for run in summary["runs"]) > 0
    assert built == []
    trace = RunTrace.read_csv(tmp_path / summary["runs"][0]["trace_file"])
    built.clear()
    assert len(trace.records) > 1 and built == []
    assert trace.records[-1].active_size >= 1 and len(built) == 1


def test_run_experiment_keeps_failed_run_trace(tmp_path, monkeypatch, capsys):
    """A run whose correction fails gets a trace file and an ordinary run record."""
    import polyfw.solvers as solvers

    original = solvers.mnp_correction
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise CorrectionPostconditionError("forced failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "mnp_correction", failing)
    doc = {"name": "fails", "problem": {"kind": "rankdef", "d": 10, "rank": 4, "rng_seed": 3},
           "variants": ["PFW", "MNP"], "epsilon": 1e-8, "max_iter": 300}
    summary = run_experiment(ExperimentConfig.from_json(doc), tmp_path)
    clean, failed = summary["runs"]
    assert clean["exit_status"] == "converged"
    assert failed["exit_status"] == "error:CorrectionPostconditionError"
    assert set(failed) == set(clean)
    trace = RunTrace.read_csv(tmp_path / failed["trace_file"])
    assert trace.config_echo["exit_status"] == failed["exit_status"]
    assert trace.config_echo["error"] == "forced failure"
    assert failed["iterations"] == len(trace.records) == 1
    assert not all_runs_clean(summary)

    calls.clear()
    cfg_path = tmp_path / "fails.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg_path), "--out-dir", str(tmp_path / "cli")]) == 1
    capsys.readouterr()


def test_triangle_theoretical_rho_is_linear_rate(tmp_path):
    """Every variant's theoretical rho in the sweep is Theorem 1's, with mu = L = 1, in its
    aggregate and in each of its run records."""
    config = ExperimentConfig(
        "tri_rho", {"kind": "triangle", "thetas": [math.pi / 4, math.pi / 8], "n_starts": 2,
                    "rng_seed": 3}, [v.value for v in Variant], 1e-10, 200)
    summary = run_experiment(config, tmp_path)
    assert len(summary["aggregates"]) == 2 * len(Variant)
    for agg in summary["aggregates"]:
        _, _, delta, diameter = gen_triangle(agg["theta"])
        assert agg["theoretical_rho"] == geometry.linear_rate(
            agg["variant"], 1.0, 1.0, delta, diameter)
    rho = {(a["theta"], a["variant"]): a["theoretical_rho"] for a in summary["aggregates"]}
    for theta in config.problem["thetas"]:
        assert rho[(theta, "FW")] is None
        assert rho[(theta, "MNP")] == rho[(theta, "FCFW")] == rho[(theta, "AFW")]
        assert rho[(theta, "PFW")] == 4.0 * rho[(theta, "AFW")]  # base < 1/2 on these angles
    assert len(summary["runs"]) == 2 * 2 * len(Variant)
    for run in summary["runs"]:
        assert run["rho"] == rho[(run["theta"], run["variant"])]
        if run["ratio"] is not None:
            assert run["ratio"] == run["rate_fit"]["rho_hat"] / run["rho"]


@pytest.mark.parametrize("problem", [
    {"kind": "lasso", "m": 10, "n": 16, "k": 3, "rng_seed": 4, "radius": 1.5},
    {"kind": "rankdef", "d": 10, "rank": 4, "rng_seed": 3},
], ids=["lasso", "rankdef"])
def test_rho_is_zero_without_strong_convexity(problem, tmp_path, monkeypatch):
    """mu = 0 makes Theorem 1's rho 0, with no geometry: FW has none, so no run has a ratio."""
    import polyfw.bench as bench

    def no_geometry(*args, **kwargs):
        raise AssertionError("rate_constant ran")

    monkeypatch.setattr(bench, "rate_constant", no_geometry)
    config = ExperimentConfig("mu0", problem, [v.value for v in Variant], 1e-8, 300)
    assert config.built[0][0].strong_convexity == 0.0
    summary = run_experiment(config, tmp_path)
    assert [run["variant"] for run in summary["runs"]] == config.variants
    for run in summary["runs"]:
        assert run["rho"] == (None if run["variant"] == "FW" else 0.0), run["variant"]
        assert run["ratio"] is None and run["start"] == 0
        assert not run["drop_start"] and not run["degenerate"] and run["rate_fit"] is not None
    assert "aggregates" not in summary and "theta" not in summary["runs"][0]


def test_run_experiment_custom_problem(tmp_path):
    """A least-squares problem read from CSV files, over a spec given as JSON; A has full
    column rank, so mu > 0 and each run's rho is ``rate_constant``'s."""
    write_custom_csvs(tmp_path)
    config = ExperimentConfig(
        "mine", custom_problem(tmp_path, {"variant": "simplex", "dimension": 4}),
        ["FW", "AFW", "PFW", "FCFW", "MNP"], 1e-8, 500)
    out = tmp_path / "runs"
    summary = run_experiment(config, out)
    obj = QuadraticObjective.least_squares(
        np.loadtxt(tmp_path / "A.csv", delimiter=",", ndmin=2),
        np.loadtxt(tmp_path / "y.csv", delimiter=","))
    assert summary["f_star"] == reference_optimum(obj, Simplex(4))
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(
        f"mine_custom_{v.lower()}.csv" for v in config.variants)
    assert [r["trace_file"] for r in summary["runs"]] == [
        f"mine_custom_{v.lower()}.csv" for v in config.variants]
    assert all_runs_clean(summary)
    for run in summary["runs"]:
        assert run["final_f"] >= summary["f_star"] - 1e-12
    c = geometry.rate_constant(obj, Simplex(4))
    assert c.mu > 0.0
    afw, pfw = (geometry.linear_rate(v, c.mu, c.L, c.delta, c.diameter) for v in ("AFW", "PFW"))
    assert {run["variant"]: run["rho"] for run in summary["runs"]} == {
        "FW": None, "AFW": afw, "PFW": pfw, "FCFW": afw, "MNP": afw}


def test_vertices_spec_reads_its_atoms_from_a_csv(tmp_path):
    """A vertices spec's "csv" key gives the summary and traces of the same atoms inline."""
    write_custom_csvs(tmp_path, shape=(8, 2))
    atoms = [[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]]
    np.savetxt(tmp_path / "atoms.csv", atoms, delimiter=",")
    specs = {"inline": {"variant": "vertices", "atoms": atoms},
             "file": {"variant": "vertices", "csv": str(tmp_path / "atoms.csv")}}
    summaries = {}
    for name, spec in specs.items():
        config = ExperimentConfig("tri", custom_problem(tmp_path, spec), ["AFW", "PFW"], 1e-10, 500)
        summaries[name] = run_experiment(config, tmp_path / name)
        summaries[name].pop("problem")
    assert summaries["inline"] == summaries["file"]
    assert all(run["exit_status"] == "converged" for run in summaries["file"]["runs"])
    for run in summaries["file"]["runs"]:
        name = run["trace_file"]
        assert (tmp_path / "file" / name).read_text() == (tmp_path / "inline" / name).read_text()


def test_rho_is_null_where_the_width_cannot_be_computed(tmp_path):
    """65 distinct atoms are past pwidth's 64-atom cap: rate_constant raises, every rho is
    None, and the runs still finish and are recorded."""
    write_custom_csvs(tmp_path, shape=(8, 3))
    atoms = np.random.default_rng(65).standard_normal((65, 3)).tolist()
    config = ExperimentConfig("capped", custom_problem(tmp_path, {"variant": "vertices",
                                                                  "atoms": atoms}),
                              ["FW", "AFW", "PFW", "FCFW", "MNP"], 1e-8, 500)
    obj, spec = config.built[0][:2]
    assert obj.strong_convexity > 0.0
    with pytest.raises(ValueError, match="limited to 64 atoms"):
        geometry.rate_constant(obj, spec)
    summary = run_experiment(config, tmp_path / "runs")
    assert [run["variant"] for run in summary["runs"]] == config.variants
    for run in summary["runs"]:
        assert run["rho"] is None and run["ratio"] is None
        assert (run["rate_fit"] is None) == run["degenerate"]  # FCFW and MNP: 3 records
        assert (tmp_path / "runs" / run["trace_file"]).exists()
    assert all_runs_clean(summary)


def test_all_runs_clean():
    assert all_runs_clean({"runs": [{"exit_status": "converged"},
                                    {"exit_status": "max_iter"}]})
    assert not all_runs_clean({"runs": [{"exit_status": "converged"},
                                        {"exit_status": "stall"}]})
    assert not all_runs_clean({"runs": [{"exit_status": "error:ValueError"}]})


def test_config_validation_errors():
    with pytest.raises(ValueError, match="unknown problem kind"):
        ExperimentConfig("x", {"kind": "nope"}, ["AFW"])
    with pytest.raises(ValueError, match="cannot exceed"):
        ExperimentConfig("x", {"kind": "lasso", "m": 5, "n": 4, "k": 9, "rng_seed": 1}, ["AFW"])
    with pytest.raises(ValueError, match="at least one theta"):
        ExperimentConfig("x", {"kind": "triangle", "thetas": [], "n_starts": 5, "rng_seed": 1},
                         ["AFW"])
    with pytest.raises(ValueError, match="pi/2"):
        ExperimentConfig("x", {"kind": "triangle", "thetas": [2.0], "n_starts": 5,
                               "rng_seed": 1}, ["AFW"])
    with pytest.raises(ValueError, match="n_starts >= 1"):
        ExperimentConfig("x", {"kind": "triangle", "thetas": [0.5], "n_starts": 0,
                               "rng_seed": 1}, ["AFW"])
    for name in ("", "   "):
        with pytest.raises(ValueError, match="name must be nonempty"):
            ExperimentConfig(name, {"kind": "lasso", "m": 5, "n": 9, "k": 2}, ["AFW"])
    with pytest.raises(ValueError, match="variants"):
        ExperimentConfig("x", {"kind": "lasso", "m": 5, "n": 9, "k": 2}, [])
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig("x", {"kind": "lasso", "m": 5, "n": 9, "k": 2}, ["AFW"],
                         epsilon=-1.0)
    with pytest.raises(ValueError, match="max_iter"):
        ExperimentConfig("x", {"kind": "lasso", "m": 5, "n": 9, "k": 2}, ["AFW"], max_iter=0)
    with pytest.raises(ValueError, match="XFW"):
        ExperimentConfig("x", {"kind": "lasso", "m": 5, "n": 9, "k": 2}, ["XFW"])
    with pytest.raises(ValueError, match="variant AFW is listed more than once"):
        ExperimentConfig("x", {"kind": "rankdef", "d": 6, "rank": 3, "rng_seed": 1},
                         ["AFW", "PFW", "afw"])
    with pytest.raises(ValueError, match="rank < d"):
        ExperimentConfig("x", {"kind": "rankdef", "d": 4, "rank": 4, "rng_seed": 1}, ["AFW"])
    with pytest.raises(ValueError, match="missing 'k'"):
        ExperimentConfig("x", {"kind": "lasso", "m": 5, "n": 9, "rng_seed": 1}, ["AFW"])
    with pytest.raises(ValueError, match="needs an rng_seed"):
        ExperimentConfig("x", {"kind": "rankdef", "d": 4, "rank": 2}, ["AFW"])
    with pytest.raises(ValueError, match="wrong type"):
        ExperimentConfig("x", {"kind": "lasso", "m": [5], "n": 9, "k": 2, "rng_seed": 1},
                         ["AFW"])


def test_config_variant_names_normalized():
    problem = {"kind": "rankdef", "d": 5, "rank": 2, "rng_seed": 1}
    cfg = ExperimentConfig("x", problem, ["afw", "Pfw"])
    assert cfg.variants == ["AFW", "PFW"]
    with pytest.raises(ValueError):
        ExperimentConfig("x", problem, ["AFWX"])


def test_config_from_json_forms(tmp_path):
    doc = {"name": "j", "problem": {"kind": "rankdef", "d": 5, "rank": 2,
                                    "rng_seed": 1}, "variants": ["AFW"]}
    from_dict = ExperimentConfig.from_json(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for cfg in (from_dict, ExperimentConfig.from_json(path), ExperimentConfig.from_json(str(path))):
        assert cfg.name == "j"
        assert cfg.variants == ["AFW"]
        assert cfg.max_iter == 2000


def test_config_from_json_defaults_are_the_dataclass_defaults():
    """A document without ``epsilon`` and ``max_iter`` gets the settings a direct call gets."""
    problem = {"kind": "rankdef", "d": 5, "rank": 2, "rng_seed": 1}
    read = ExperimentConfig.from_json({"name": "j", "problem": problem, "variants": ["AFW"]})
    direct = ExperimentConfig("j", problem, ["AFW"])
    assert (read.epsilon, read.max_iter) == (direct.epsilon, direct.max_iter)


def test_cli_pwidth(tmp_path, capsys):
    csv = tmp_path / "verts.csv"
    csv.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    assert cli.main(["pwidth", str(csv)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["pwidth_estimate"] == pytest.approx(1 / math.sqrt(2), rel=0.02)
    commented = tmp_path / "commented.csv"  # np.loadtxt reads '#' as a comment
    commented.write_text("# the unit square\n0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    assert cli.main(["pwidth", str(commented)]) == 0
    assert capsys.readouterr().out == out
    one = tmp_path / "one.csv"
    one.write_text("1.0,2.0\n")
    many = tmp_path / "many.csv"  # 65 distinct atoms: one more than a face mask holds
    many.write_text("".join(f"{i}.0,{i * i}.0\n" for i in range(65)))
    for path in (one, many, tmp_path / "missing.csv"):
        assert cli.main(["pwidth", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out


def test_cli_run_reports_a_failed_reference_run(tmp_path, capsys, monkeypatch):
    """A reference run that ends with an error status is one ``error:`` line and exit 1."""
    import polyfw.bench as bench

    def failing(obj, spec):
        raise RuntimeError("reference run ended error:DegenerateActiveSetError: singular")

    monkeypatch.setattr(bench, "reference_optimum", failing)
    (tmp_path / "A.csv").write_text("-65.3,10.7,-14.5,-11.6,-5.5,-51.6,-5.9\n")
    (tmp_path / "y.csv").write_text("0.74\n")
    doc = {"name": "refail", "variants": ["FW"], "problem": {
        "kind": "custom", "A_csv": str(tmp_path / "A.csv"), "y_csv": str(tmp_path / "y.csv"),
        "spec": {"variant": "simplex", "dimension": 7}}}
    cfg_path = tmp_path / "refail.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "singular" in captured.err
    assert not captured.out


def test_cli_pwidth_reports_a_facial_problem_that_did_not_converge(tmp_path, capsys, monkeypatch):
    from polyfw import solvers

    real_solve = solvers.solve

    def stalling(obj, spec, config, x0=None):
        trace = real_solve(obj, spec, config, x0)
        trace.config_echo["exit_status"] = "stall"
        return trace

    monkeypatch.setattr(solvers, "solve", stalling)
    csv = tmp_path / "verts.csv"
    csv.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n")
    assert cli.main(["pwidth", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "ended with stall" in captured.err
    assert not captured.out


def test_cli_rate(tmp_path, capsys):
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    trace = solve(obj, Simplex(2), SolverConfig(Variant.PFW, epsilon=1e-10, max_iter=100))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert cli.main(["rate", str(path), "--quantity", "fw_gap"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "rho_hat" in doc
    assert cli.main(["rate", str(path), "--quantity", "f_gap_to_opt"]) == 2
    missing = str(tmp_path / "missing.csv")
    assert cli.main(["rate", missing, "--quantity", "f_gap_to_opt"]) == 2
    capsys.readouterr()
    assert cli.main(["rate", missing, "--quantity", "fw_gap"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    head, body = trace.to_csv().split("\n", 1)
    for header in ("# [1]", '# "x"'):  # JSON, but not an object
        path.write_text(f"{header}\n{body}")
        assert cli.main(["rate", str(path), "--quantity", "f_gap_to_opt", "--f-star", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
    # a non-finite value in the fitted column, or f_star, is an error and not a zero rate
    columns = body.split("\n", 1)[0]
    rows = "".join(f"{k},FW,0.5,1.0,{gap},0.0,{f},1\n"
                   for k, (f, gap) in enumerate([(2.0, 1.0), ("nan", 0.5), (0.5, "inf")]))
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(f"{head}\n{columns}\n{rows}")
    good.write_text(f"{head}\n{body}")
    for file, quantity, f_star in ((bad, "f_gap_to_opt", "0"), (bad, "fw_gap", "0"),
                                   (good, "f_gap_to_opt", "nan")):
        assert cli.main(["rate", str(file), "--quantity", quantity, "--f-star", f_star]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err and not captured.out


def test_cli_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "cli_tri",
        "problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 2,
                    "rng_seed": 3},
        "variants": ["PFW"],
        "epsilon": 1e-10,
        "max_iter": 200,
    }))
    out = tmp_path / "runs"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "cli_tri_summary.json").exists()
    doc = json.loads((out / "cli_tri_summary.json").read_text())
    assert doc["runs"]
    capsys.readouterr()
    # an --out-dir that names an existing file is an error before any run starts
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["run", str(cfg_path), "--out-dir", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert taken.read_text() == ""


def test_cli_run_seed_flag_supplies_a_missing_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "cli_tri",
        "problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 1},
        "variants": ["PFW"],
        "max_iter": 50,
    }))
    out = tmp_path / "runs"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out), "--seed", "3"]) == 0
    doc = json.loads((out / "cli_tri_summary.json").read_text())
    assert doc["problem"]["rng_seed"] == 3
    capsys.readouterr()


NO_SEED = {"problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 1}}
NO_K = {"problem": {"kind": "lasso", "m": 5, "n": 10, "rng_seed": 1}}
NO_RANK = {"problem": {"kind": "rankdef", "d": 5, "rng_seed": 1}}
NO_STARTS = {"problem": {"kind": "triangle", "thetas": [math.pi / 4], "rng_seed": 3}}
SCALAR_THETAS = {"problem": {"kind": "triangle", "thetas": 0.5, "n_starts": 1, "rng_seed": 3}}
LIST_NOISE = {"problem": {"kind": "lasso", "m": 5, "n": 10, "k": 2, "noise": [1], "rng_seed": 1}}
TEXT_M = {"problem": {"kind": "lasso", "m": "20", "n": 10, "k": 2, "rng_seed": 1}}
REAL_STARTS = {"problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 1.7,
                           "rng_seed": 3}}
TEXT_SPEC = {"problem": {"kind": "custom", "A_csv": "A.csv", "y_csv": "y.csv",
                         "spec": json.dumps({"variant": "simplex", "dimension": 3})}}


def seeded(seed):
    """The valid triangle problem with ``rng_seed`` set to ``seed``."""
    return {"problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 1,
                        "rng_seed": seed}}


def custom(A_csv="A.csv", y_csv="y.csv", **spec):
    """A custom problem on the 8 x 3 A.csv and 8-row y.csv that the test writes."""
    spec = {key: value for key, value in {"variant": "simplex", "dimension": 3, **spec}.items()
            if value is not None}  # None drops the key
    return {"problem": {"kind": "custom", "A_csv": A_csv, "y_csv": y_csv, "spec": spec}}


def concave(n, values):
    """A custom problem over a base polytope with a concave cardinality function."""
    return custom(variant="basepoly", dimension=None, n=n,
                  function={"kind": "concave_cardinality", "values": values})


@pytest.mark.parametrize("in_file, flags", [
    ({}, ["--max-iter", "0"]), ({}, ["--epsilon", "-1"]), ({"max_iter": 0}, []),
    (NO_SEED, []), ({"name": None}, []), (NO_K, []), (NO_RANK, []), (NO_STARTS, []),
    ({"problem": None}, ["--seed", "3"]), ({"problem": [1]}, ["--seed", "3"]),
    ({"variants": None}, []), (["cli_tri"], ["--seed", "3"]), (SCALAR_THETAS, []),
    ({"max_iter": [5]}, []), ({"name": "sub/dir"}, []), ({"name": ".."}, []),
    (custom(A_csv="missing.csv"), []), (custom(variant="nope"), []), (custom(dimension=4), []),
    (custom(y_csv="short.csv"), []), (LIST_NOISE, []), (custom(dimension=None), []),
    (custom(dimension="3"), []), (custom(variant="flowdag", dimension=None, arcs=[1]), []),
    (custom(variant="flowdag", dimension=None, arcs=[["s", "a", "b"]]), []),
    (concave(3, [[0], [1], [1], [1]]), []), (concave(3, []), []), (concave(3, [0, 1, 2]), []),
    (seeded(7.9), []), (seeded(True), []), ({"name": 7}, []), (TEXT_M, []), (REAL_STARTS, []),
    ({"max_iter": 20.9}, []), (TEXT_SPEC, []), (custom(A_csv="nan.csv"), []),
    (custom(y_csv="inf.csv"), []), ({"variants": ["AFW", "afw"]}, []),
    (custom(variant="vertices", dimension=None, csv="missing.csv"), []),
    ({}, ["--epsilon", "inf"]), ({"epsilon": math.inf}, []),
])
def test_cli_run_rejects_invalid_settings(tmp_path, capsys, monkeypatch, in_file, flags):
    """A setting from the file or a flag is checked before anything runs or is written.

    ``in_file`` overrides keys of a valid config (None drops the key), or
    is a list that replaces the whole document.  Custom problems read
    their CSVs from the test's directory.
    """
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    np.savetxt("A.csv", rng.standard_normal((8, 3)), delimiter=",")
    np.savetxt("y.csv", rng.standard_normal(8), delimiter=",")
    np.savetxt("short.csv", rng.standard_normal(7), delimiter=",")
    np.savetxt("nan.csv", np.where(np.eye(8, 3), np.nan, 1.0), delimiter=",")
    np.savetxt("inf.csv", np.r_[np.inf, np.ones(7)], delimiter=",")
    cfg_path = tmp_path / "cfg.json"
    doc = {
        "name": "cli_tri",
        "problem": {"kind": "triangle", "thetas": [math.pi / 4], "n_starts": 1,
                    "rng_seed": 3},
        "variants": ["FW"],
    }
    if isinstance(in_file, list):
        doc = in_file
    else:
        doc = {key: value for key, value in {**doc, **in_file}.items() if value is not None}
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "runs"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
