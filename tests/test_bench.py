"""Monte Carlo harness: config parsing, budgets, execution, CSV, summaries."""

import json
from dataclasses import replace

import numpy as np
import pytest

import structmc.bench as bench
import structmc.estimators as estimators
from structmc import (
    Alphabet,
    BenchConfig,
    BudgetError,
    ModelFamily,
    NoiseKind,
    ParameterError,
    SolverConfig,
    StructureSpec,
    assemble,
    generate,
    observe,
    rate_components,
    run_experiment,
    summarize,
)


def sbm_config(**kw):
    kw.setdefault("family", "sbm")
    kw.setdefault("grid", ((8, 2),))
    kw.setdefault("p_values", (1.0,))
    kw.setdefault("noise", NoiseKind.gaussian(0.5))
    kw.setdefault("method", "bcd")
    kw.setdefault("solver", SolverConfig(restarts=1, max_iterations=50))
    kw.setdefault("replicas", 2)
    kw.setdefault("seed", 0)
    return BenchConfig(**kw)


# ---- config --------------------------------------------------------------- #

def test_config_validation():
    with pytest.raises(ParameterError):
        sbm_config(grid=())
    with pytest.raises(ParameterError):
        sbm_config(method="magic")
    with pytest.raises(ParameterError):
        sbm_config(replicas=0)
    with pytest.raises(ParameterError):
        sbm_config(timing="cpu")
    with pytest.raises(ParameterError):
        sbm_config(budget=0.0)
    with pytest.raises(ParameterError):
        sbm_config(method="svt")                    # needs a constant
    with pytest.raises(ParameterError):
        # svt needs a noise bound to calibrate the threshold
        sbm_config(method="svt", constant=3.0, noise=NoiseKind.gaussian(1.0))


def test_config_from_obj_round_trip():
    obj = {
        "family": "sbm",
        "grid": [[8, 2], [12, 2]],
        "p": [0.5, 1.0],
        "noise": {"kind": "gaussian", "sigma": 1.0},
        "method": "bcd",
        "solver": {"restarts": 2},
        "replicas": 3,
        "seed": 9,
    }
    cfg = bench.bench_config_from_obj(obj)
    assert cfg.family == "sbm"
    assert cfg.grid == ((8, 2), (12, 2))
    assert cfg.p_values == (0.5, 1.0)
    assert cfg.noise == NoiseKind.gaussian(1.0)
    assert cfg.solver.restarts == 2
    assert cfg.timing == "zero"


def test_config_from_obj_missing_key():
    with pytest.raises(ParameterError):
        bench.bench_config_from_obj({"family": "sbm"})


# ---- budgets ---------------------------------------------------------------- #

def test_estimate_work_scales_with_replicas():
    one = bench.estimate_work(sbm_config(replicas=1))
    ten = bench.estimate_work(sbm_config(replicas=10))
    assert one > 0
    assert ten == pytest.approx(10 * one, rel=1e-9)


@pytest.mark.filterwarnings("ignore:problem size")
def test_adaptive_cells_follow_the_one_cell_rule(monkeypatch):
    # n = m = 2, k = 4, binary: enumeration sizes run from 6,561 at (1, 1) to
    # 43,046,721 at (4, 4), so a limit of 400,000 splits the 4 x 4 sparsity grid
    binary = Alphabet.finite((0.0, 1.0))
    spec = StructureSpec(n=2, m=2, k_n=4, k_m=4, s_n=1, s_m=1,
                         alphabet_n=binary, alphabet_m=binary)
    cfg = SolverConfig(restarts=1, max_iterations=20, exhaustive_limit=400_000)
    grid = {(a, b) for a in range(1, 5) for b in range(1, 5)}
    marked = {(a, b) for a, b in grid
              if estimators._cell_method(replace(spec, s_n=a, s_m=b), cfg) == "exact"}
    assert marked == {(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)}

    solved = {"exact": [], "bcd": []}

    def counting(method, solver):
        def run(target, weights, spec_s, *args, **kwargs):
            solved[method].append((spec_s.s_n, spec_s.s_m))
            return solver(target, weights, spec_s, *args, **kwargs)
        return run

    monkeypatch.setattr(estimators, "_exact", counting("exact", estimators._exact))
    monkeypatch.setattr(estimators, "_bcd", counting("bcd", estimators._bcd))
    fact, _ = generate(ModelFamily.generic(spec), 3)
    obs = observe(assemble(fact), np.ones((2, 2)), np.zeros((2, 2)), 1.0)
    estimators.adaptive_penalized(obs, spec, 1.0, cfg, seed=0)
    assert sorted(solved["exact"]) == sorted(marked)
    assert sorted(solved["bcd"]) == sorted(grid - marked)

    # the projected work of that adaptive config, as recorded before the rule had one home
    cfg_bench = BenchConfig(family="generic", grid=((spec,),), p_values=(1.0, 0.5),
                            noise=NoiseKind.none(), method="adaptive", solver=cfg,
                            replicas=3, seed=0, constant=1.0)
    assert bench.estimate_work(cfg_bench) == 5505534.0


def test_generic_family_needs_a_spec_in_its_grid_cell():
    # an integer cell used to die in the work projection with an AttributeError
    with pytest.raises(ParameterError, match="generic family needs a StructureSpec"):
        run_experiment(bench.bench_config_from_obj(
            {"family": "generic", "grid": [[4]], "p": [1.0], "method": "bcd", "replicas": 1}))


def test_budget_refusal_happens_before_any_work():
    cfg = sbm_config(budget=1.0)
    with pytest.raises(BudgetError):
        run_experiment(cfg)


# ---- execution ---------------------------------------------------------------- #

def test_run_experiment_rows_are_complete_and_sorted():
    cfg = sbm_config(grid=((8, 2), (10, 2)), p_values=(0.5, 1.0), replicas=2)
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 2
    keys = [(r.n, r.m, r.p, r.replica) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.status == "ok"
        assert r.frob_err_sq >= 0 and r.spec_err_sq >= 0
        assert r.seconds == 0.0                      # timing defaults to zero
        spec_rate = rate_components(bench._family_spec(
            bench._family_for(cfg.family, (r.n, r.k_n)), 0)).total
        assert r.rate_total == pytest.approx(spec_rate)


def test_run_experiment_deterministic_csv_bytes():
    cfg = sbm_config(replicas=3)
    a = bench.rows_to_csv(run_experiment(cfg))
    b = bench.rows_to_csv(run_experiment(cfg))
    assert a == b
    assert a.splitlines()[0] == bench.CSV_HEADER


def test_run_experiment_marks_refusals():
    # exact enumeration blown past the solver ceiling -> refused rows, not crashes
    cfg = sbm_config(method="exact",
                     solver=SolverConfig(restarts=1, exhaustive_limit=10))
    rows = run_experiment(cfg)
    assert all(r.status == "refused" for r in rows)
    assert all(r.frob_err_sq is None for r in rows)


def test_failed_rows_log_exception_class_and_message(monkeypatch, caplog):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "_estimate", boom)
    with caplog.at_level("WARNING", logger="structmc.bench"):
        rows = run_experiment(sbm_config())
    assert [r.status for r in rows] == ["failed", "failed"]
    assert all(r.objective is None for r in rows)
    logged = [rec for rec in caplog.records if rec.name == "structmc.bench"]
    assert len(logged) == 2
    for rec in logged:
        assert rec.levelname == "WARNING"
        assert "RuntimeError: boom" in rec.getMessage()


def test_run_experiment_replica_independence():
    # replicas draw different masks/noise but share the config
    cfg = sbm_config(replicas=4, noise=NoiseKind.gaussian(1.0))
    rows = run_experiment(cfg)
    errs = {r.frob_err_sq for r in rows}
    assert len(errs) > 1


def test_wall_timing_opt_in():
    cfg = sbm_config(timing="wall")
    rows = run_experiment(cfg)
    assert all(r.seconds >= 0.0 for r in rows)


def test_svt_runs_with_bounded_noise():
    cfg = sbm_config(method="svt", constant=3.0,
                     noise=NoiseKind.truncated_gaussian(1.0, 3.0),
                     grid=((12, 2),), replicas=2)
    rows = run_experiment(cfg)
    assert all(r.status == "ok" for r in rows)


# ---- serialization -------------------------------------------------------------- #

def test_csv_formats_none_as_empty_and_floats_as_repr():
    cfg = sbm_config(method="exact",
                     solver=SolverConfig(restarts=1, exhaustive_limit=10))
    text = bench.rows_to_csv(run_experiment(cfg))
    line = text.splitlines()[1].split(",")
    header = bench.CSV_HEADER.split(",")
    assert line[header.index("frob_err_sq")] == ""
    assert line[header.index("status")] == "refused"
    p_field = line[header.index("p")]
    assert float(p_field) == 1.0 and repr(1.0) == p_field


def test_csv_floats_round_trip_exactly():
    rows = run_experiment(sbm_config())
    text = bench.rows_to_csv(rows)
    header = bench.CSV_HEADER.split(",")
    for row, line in zip(rows, text.splitlines()[1:]):
        fields = line.split(",")
        assert float(fields[header.index("frob_err_sq")]) == row.frob_err_sq


def test_out_file_written(tmp_path):
    out = tmp_path / "run.csv"
    cfg = sbm_config(out=str(out))
    rows = run_experiment(cfg)
    text = out.read_text()
    assert text == bench.rows_to_csv(rows)


# ---- summaries --------------------------------------------------------------------- #

def test_summary_cells_and_ratio():
    cfg = sbm_config(grid=((8, 2), (16, 2)), replicas=4,
                     noise=NoiseKind.gaussian(1.0))
    rows = run_experiment(cfg)
    s = summarize(rows)
    assert len(s.cells) == 2
    for cell in s.cells:
        assert cell.count == 4
        assert cell.mean_err > 0
        assert cell.ratio == pytest.approx(
            cell.mean_err * cell.p / (cell.sigma ** 2 * cell.rate_total))
    assert s.c_hat == pytest.approx(max(c.ratio for c in s.cells))
    assert s.slope is not None                     # two distinct rates
    table = str(s)
    assert "c_hat" in table or "ratio" in table


def test_summary_slope_none_for_single_cell():
    rows = run_experiment(sbm_config(replicas=3, noise=NoiseKind.gaussian(1.0)))
    assert summarize(rows).slope is None


def test_summary_requires_successes():
    cfg = sbm_config(method="exact",
                     solver=SolverConfig(restarts=1, exhaustive_limit=10))
    rows = run_experiment(cfg)
    with pytest.raises(ParameterError):
        summarize(rows)


def test_summary_counts_refused_and_failed_rows_per_cell():
    # exact search: n = 4 enumerates, n = 6 exceeds the limit and is refused
    cfg = sbm_config(method="exact", grid=((4, 2), (6, 2)), replicas=3,
                     solver=SolverConfig(restarts=1, exhaustive_limit=10 ** 6))
    rows = run_experiment(cfg)
    assert [r.status for r in rows] == ["ok"] * 3 + ["refused"] * 3
    csv = bench.rows_to_csv(rows)
    gone = replace(rows[1], status="failed", frob_err_sq=None, spec_err_sq=None,
                   objective=None, ratio=None)
    s = summarize([rows[0], gone, *rows[2:]])
    assert bench.rows_to_csv(rows) == csv                  # summarizing writes nothing
    small, big = s.cells
    assert (small.count, small.refused, small.failed) == (2, 0, 1)
    assert small.mean_err == pytest.approx((rows[0].frob_err_sq + rows[2].frob_err_sq) / 2)
    assert (big.count, big.refused, big.failed) == (0, 3, 0)
    assert big.mean_err is big.median_err is big.ratio is None
    assert s.c_hat == small.ratio and s.slope is None
    table = str(s).splitlines()
    assert table[0].split()[:4] == ["cell", "count", "refused", "failed"]
    assert table[2].split()[-6:] == ["0", "3", "0", "-", "-", "-"]
    assert bench.status_counts(rows) == "3 refused"
    with pytest.raises(ParameterError, match=r"\(3 refused, 1 failed\)"):
        summarize([gone, *rows[3:]])


def test_header_pin():
    assert bench.CSV_HEADER == (
        "family,n,m,k_n,k_m,s_n,s_m,p,sigma,method,replica,status,"
        "frob_err_sq,spec_err_sq,objective,sel_sn,sel_sm,rate_total,ratio,seconds")
