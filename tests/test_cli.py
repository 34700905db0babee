"""Command-line surface: subcommands, JSON payloads, exit codes."""

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from structmc.bench import bench_config_from_obj
from structmc.cli import main
from structmc.core import ParameterError, factorization_from_obj, matrix_to_obj, spec_from_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_spec(tmp_path, **kw):
    obj = {
        "n": 4, "m": 4, "k_n": 2, "k_m": 2, "s_n": 1, "s_m": 1,
        "alphabet_n": {"kind": "finite", "values": [0.0, 1.0]},
        "alphabet_m": {"kind": "finite", "values": [0.0, 1.0]},
        "b_max": 1.0, "theta_mx": 1.0, "bounded": False,
    }
    obj.update(kw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return str(path)


# ---- gen ------------------------------------------------------------------- #

def test_gen_prints_spec_and_theta(capsys):
    code, out = run(capsys, "gen", "--family", "sbm", "--args", "6,2", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["n"] == 6
    assert len(payload["theta"]["data"]) == 36


def test_gen_writes_files(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    spec = tmp_path / "spec.json"
    fact = tmp_path / "fact.json"
    code, _ = run(capsys, "gen", "--family", "biclustering", "--args", "5,4,2,2",
                  "--seed", "1", "--out-theta", str(theta),
                  "--out-spec", str(spec), "--out-factorization", str(fact))
    assert code == 0
    th = json.loads(theta.read_text())
    assert th["cols"] == 4 and len(th["data"]) == 20
    f = json.loads(fact.read_text())
    assert set(f) >= {"x", "b", "z"}


def test_gen_generic_requires_spec(capsys):
    code, _ = run(capsys, "gen", "--family", "generic")
    assert code == 2


def test_gen_rejects_malformed_args(capsys):
    code, _ = run(capsys, "gen", "--family", "sbm", "--args", "6")
    assert code == 2
    code, _ = run(capsys, "gen", "--family", "nosuch", "--args", "6,2")
    assert code == 2


def test_gen_deterministic_bytes(capsys):
    _, first = run(capsys, "gen", "--family", "mixture", "--args", "5,4,2", "--seed", "9")
    _, second = run(capsys, "gen", "--family", "mixture", "--args", "5,4,2", "--seed", "9")
    assert first == second


# ---- observe / estimate ------------------------------------------------------ #

@pytest.fixture
def pipeline_files(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    spec = tmp_path / "spec.json"
    obs = tmp_path / "obs.json"
    assert main(["gen", "--family", "sbm", "--args", "6,2", "--seed", "3",
                 "--out-theta", str(theta), "--out-spec", str(spec)]) == 0
    assert main(["observe", "--theta", str(theta), "--p", "0.8",
                 "--noise", "gaussian", "--sigma", "0.2", "--seed", "4",
                 "--out", str(obs)]) == 0
    capsys.readouterr()
    return theta, spec, obs


@pytest.mark.parametrize("method", ["exact", "bcd", "svt", "adaptive"])
def test_estimate_refuses_an_observation_of_another_shape(pipeline_files, tmp_path, capsys,
                                                          method):
    # bcd and adaptive used to die in a matmul ValueError (exit 1); svt ignored the spec
    _, _, obs = pipeline_files                   # 6 x 6
    spec = write_spec(tmp_path, n=5, m=6)
    assert main(["estimate", "--method", method, "--obs", str(obs), "--spec", spec,
                 "--lambda", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(6, 6)" in err and "(5, 6)" in err


def test_observe_payload_shape(pipeline_files):
    theta, spec, obs = pipeline_files
    payload = json.loads(obs.read_text())
    assert payload["p"] == 0.8
    assert payload["sigma"] == 0.2
    assert {"data", "mask", "cols"} <= set(payload)
    y = np.array(payload["data"])
    mask = np.array(payload["mask"])
    assert np.all(y[mask == 0] == 0)


def test_estimate_bcd_payload(pipeline_files, capsys):
    theta, spec, obs = pipeline_files
    code, out = run(capsys, "estimate", "--method", "bcd", "--obs", str(obs),
                    "--spec", str(spec), "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"theta_hat", "objective", "iterations", "selected_s"}
    assert payload["objective"] >= 0
    assert payload["selected_s"] is None


def test_estimate_bcd_reports_convergence_and_restarts(pipeline_files, capsys):
    theta, spec, obs = pipeline_files
    code, out = run(capsys, "estimate", "--method", "bcd", "--obs", str(obs),
                    "--spec", str(spec), "--seed", "5", "--restarts", "3")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["converged"], bool)
    assert type(payload["restarts_used"]) is int and payload["restarts_used"] == 3
    assert not any("second" in key for key in payload)     # no timing fields


def test_estimate_svt_needs_lambda(pipeline_files, capsys):
    theta, spec, obs = pipeline_files
    code, _ = run(capsys, "estimate", "--method", "svt", "--obs", str(obs),
                  "--spec", str(spec))
    assert code == 2
    code, out = run(capsys, "estimate", "--method", "svt", "--obs", str(obs),
                    "--spec", str(spec), "--lambda", "2.0")
    assert code == 0


@pytest.mark.parametrize("method", ["svt", "adaptive"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_estimate_non_finite_lambda_is_a_config_error(pipeline_files, capsys, method, value):
    # a NaN lambda used to exit 0 with objective 0.0 (max(0.0, nan))
    theta, spec, obs = pipeline_files
    code = main(["estimate", "--method", method, "--obs", str(obs), "--spec", str(spec),
                 "--lambda", value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: lambda must be ")


def test_observe_non_finite_sigma_names_sigma(pipeline_files, capsys):
    # it used to exit 2 blaming the observed entries of y
    theta, _, _ = pipeline_files
    assert main(["observe", "--theta", str(theta), "--p", "0.8", "--noise", "gaussian",
                 "--sigma", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: sigma must be ")


def test_observe_non_finite_theta_names_theta(tmp_path, capsys):
    # a NaN at an unobserved entry was blamed on the mask (0 * NaN is NaN)
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"rows": 2, "cols": 2, "data": [float("nan"), 0.0, 1.0, 0.0]}))
    assert main(["observe", "--theta", str(theta), "--p", "0.5", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: theta_star must be finite")


def test_gen_nan_interval_bound_is_a_config_error(tmp_path, capsys):
    # json reads NaN; the draw used to die with an OverflowError traceback
    spec = write_spec(tmp_path, alphabet_n={"kind": "interval", "lo": float("nan"), "hi": 1.0})
    assert main(["gen", "--family", "generic", "--spec", spec]) == 2
    assert capsys.readouterr().err.startswith("error: alphabet lo must be finite")


def test_estimate_rejects_nan_observation(pipeline_files, capsys):
    theta, spec, obs = pipeline_files
    payload = json.loads(obs.read_text())
    payload["data"][payload["mask"].index(1)] = float("nan")
    obs.write_text(json.dumps(payload))              # writes the NaN literal
    code = main(["estimate", "--method", "bcd", "--obs", str(obs), "--spec", str(spec)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_exact_refusal_exit_code(tmp_path, capsys):
    # wide finite alphabet: enumeration overflows the default ceiling
    spec = write_spec(tmp_path, n=8, m=8, k_n=8, k_m=8, s_n=4, s_m=4,
                      alphabet_n={"kind": "finite",
                                  "values": [float(v) for v in range(8)]},
                      alphabet_m={"kind": "finite",
                                  "values": [float(v) for v in range(8)]})
    theta = tmp_path / "theta.json"
    obs = tmp_path / "obs.json"
    assert main(["gen", "--family", "generic", "--spec", spec, "--seed", "0",
                 "--out-theta", str(theta)]) == 0
    assert main(["observe", "--theta", str(theta), "--p", "1.0",
                 "--noise", "none", "--out", str(obs)]) == 0
    capsys.readouterr()
    code, _ = run(capsys, "estimate", "--method", "exact", "--obs", str(obs),
                  "--spec", spec)
    assert code == 3


# ---- rates ---------------------------------------------------------------------- #

def test_rates_components_and_penalty(tmp_path, capsys):
    spec = write_spec(tmp_path)
    code, out = run(capsys, "rates", "--spec", spec, "--penalty", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"]["r_b"] == 4.0
    assert payload["penalty"]["value"] > 0
    assert payload["penalty"]["s_n"] == 1


def test_rates_components_are_written_as_floats(tmp_path, capsys):
    # r_x = min(n r_m, n s ln(e k / s)) took the int n r_m and was written as 12
    spec = write_spec(tmp_path, n=6, m=4, k_n=4, s_n=2)
    code, out = run(capsys, "rates", "--spec", spec)
    assert code == 0
    components = json.loads(out)["components"]
    assert components["r_x"] == 12.0
    assert all(type(v) is float for v in components.values())


@pytest.mark.parametrize("pair", ["1", "1,2,3"])
def test_rates_penalty_needs_two_integers(tmp_path, capsys, pair):
    spec = write_spec(tmp_path)
    code = main(["rates", "--spec", spec, "--penalty", pair])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_rates_family_row(tmp_path, capsys):
    spec = write_spec(tmp_path, n=100, m=100, k_n=5, k_m=5)
    code, out = run(capsys, "rates", "--spec", spec,
                    "--family", "sbm", "--args", "100,5")
    assert code == 0
    assert json.loads(out)["family_rate"] == pytest.approx(285.94379124341003)


def test_rates_critical_radius_block(tmp_path, capsys):
    spec = write_spec(tmp_path, n=12, m=9, k_n=3, k_m=3, bounded=True,
                      alphabet_n={"kind": "interval", "lo": -1.0, "hi": 1.0},
                      alphabet_m={"kind": "interval", "lo": -1.0, "hi": 1.0})
    code, out = run(capsys, "rates", "--spec", spec, "--epsilon0", "--u", "0.7")
    assert code == 0
    payload = json.loads(out)
    block = payload["covering"]
    assert block["epsilon0"] == pytest.approx(0.9127904095775046, abs=1e-9)
    assert block["u"] == 0.7
    assert {"r1", "r2", "r3", "r4", "min_bound"} <= set(block)


@pytest.mark.parametrize("flags, name", [(("--sigma", "1.0"), "p"), (("--p", "0.5"), "sigma"),
                                         (("--sigma", "nan", "--p", "1"), "sigma")])
def test_rates_lower_values_need_finite_sigma_and_p_together(tmp_path, capsys, flags, name):
    # one of the two used to report frobenius_lower = spectral_lower = 0.0, and a
    # NaN sigma wrote NaN literals
    code = main(["rates", "--spec", write_spec(tmp_path), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must ")


def test_rates_args_need_family(tmp_path, capsys):
    # --args used to be ignored without --family
    assert main(["rates", "--spec", write_spec(tmp_path), "--args", "100,5"]) == 2
    assert capsys.readouterr().err.startswith("error: --args needs --family")


def test_rates_epsilon0_unbounded_spec_fails_cleanly(tmp_path, capsys):
    spec = write_spec(tmp_path)          # bounded = False
    code, _ = run(capsys, "rates", "--spec", spec, "--epsilon0", "--u", "0.5")
    assert code == 2


# ---- packing ---------------------------------------------------------------------- #

def test_packing_code_payload(capsys):
    code, out = run(capsys, "packing", "--kind", "code", "--k", "10", "--s", "2",
                    "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    words = payload["codewords"]
    assert words["cols"] == 10
    assert words["rows"] >= 2
    assert payload["k"] == 10 and payload["s"] == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_packing_embed_refuses_non_finite_vectors(tmp_path, capsys, bad):
    # NaN exited 0 with a vacuous check; an infinity exited 3 after 100 draws
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({"rows": 2, "cols": 2, "data": [bad, 0.0, 1.0, 0.0]}))
    assert main(["packing", "--kind", "embed", "--r", "200", "--vectors", str(vectors)]) == 2
    assert capsys.readouterr().err.startswith("error: vectors must be finite")


def test_packing_tz_payload(tmp_path, capsys):
    spec = write_spec(tmp_path, n=24, m=10, k_n=24, k_m=6, s_n=1, s_m=2,
                      b_max=2.0, theta_mx=5.0, bounded=True)
    code, out = run(capsys, "packing", "--kind", "tz", "--spec", spec,
                    "--sigma", "1.0", "--p", "0.7", "--c0", "0.5",
                    "--cap", "8", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "t_z"
    assert len(payload["thetas"]) >= 2
    assert payload["min_sq_distance"] > 0


@pytest.mark.parametrize("kind", ["tz", "tb"])
@pytest.mark.parametrize("cap", ["1", "0"])
def test_packing_cap_below_two_is_a_config_error(tmp_path, capsys, kind, cap):
    # tb also below r_n * r_m = 16, where the two-point set used to ignore cap
    for spec in (write_spec(tmp_path, n=24, m=10, k_n=24, k_m=6, s_n=1, s_m=2,
                            b_max=2.0, theta_mx=5.0, bounded=True),
                 write_spec(tmp_path)):
        code = main(["packing", "--kind", kind, "--spec", spec, "--sigma", "1.0",
                     "--p", "0.7", "--c0", "0.5", "--cap", cap, "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cap must be >= 2")


def test_packing_embed_failure_exit(tmp_path, capsys):
    vecs = tmp_path / "vecs.json"
    words = np.array(
        [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 1, 0, 1], [0, 1, 0, 1, 1]],
        dtype=float)
    vecs.write_text(json.dumps({"rows": 4, "cols": 5, "data": words.ravel().tolist()}))
    code, _ = run(capsys, "packing", "--kind", "embed", "--r", "2",
                  "--vectors", str(vecs), "--max-resamples", "5", "--seed", "0")
    assert code == 3


@pytest.mark.parametrize("flags, name", [
    (("--r", "0"), "r"), (("--r", "-1"), "r"), (("--r", "8", "--max-resamples", "0"), "max_resamples")])
def test_packing_embed_empty_draws_are_config_errors(tmp_path, capsys, flags, name):
    # these used to exit 3 after 100 draws ("ratios in [nan, nan]") or 1 on a
    # ValueError / TypeError from inside the draw loop
    vecs = tmp_path / "vecs.json"
    vecs.write_text(json.dumps({"rows": 2, "cols": 3, "data": [1, 0, 0, 0, 1, 1]}))
    code = main(["packing", "--kind", "embed", "--vectors", str(vecs), "--seed", "0", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be >= 1")


@pytest.mark.parametrize("kind", ["tz", "tb"])
@pytest.mark.parametrize("flag, name", [("--sigma", "sigma"), ("--c0", "c0")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_packing_non_finite_sigma_or_c0_is_a_config_error(tmp_path, capsys, kind, flag, name,
                                                           value):
    # a NaN used to pass every sign check and be refused (exit 3) for a
    # non-finite B
    spec = write_spec(tmp_path, n=24, m=10, k_n=24, k_m=6, s_n=1, s_m=2,
                      b_max=2.0, theta_mx=5.0, bounded=True)
    args = {"--sigma": "1.0", "--c0": "0.5", flag: value}
    code = main(["packing", "--kind", kind, "--spec", spec, "--p", "0.7", "--cap", "8",
                 "--seed", "0", *itertools.chain(*args.items())])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")


# ---- bench ------------------------------------------------------------------------- #

def bench_config_obj(**kw):
    obj = {
        "family": "sbm",
        "grid": [[8, 2]],
        "p": [1.0],
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "method": "bcd",
        "solver": {"restarts": 1, "max_iterations": 50},
        "replicas": 2,
        "seed": 0,
    }
    obj.update(kw)
    return obj


def test_bench_csv_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj()))
    code, out = run(capsys, "bench", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,m,")
    assert len(lines) == 3


def test_bench_out_file_plus_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_csv = tmp_path / "rows.csv"
    cfg.write_text(json.dumps(bench_config_obj()))
    code, out = run(capsys, "bench", "--config", str(cfg), "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()
    assert "sbm" in out                       # summary table mentions the family


def test_bench_out_names_the_status_when_no_row_is_ok(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(method="exact", solver={"exhaustive_limit": 10})))
    code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")])
    err = capsys.readouterr().err
    assert code == 0
    assert err.strip() == "no row is ok (2 refused); no summary"


def test_bench_budget_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(budget=1.0)))
    code, _ = run(capsys, "bench", "--config", str(cfg))
    assert code == 3


@pytest.mark.parametrize("overrides, message", [
    ({"budget": float("nan")}, "budget must be positive and finite"),
    ({"method": "svt", "constant": float("nan"), "noise": {"kind": "uniform", "b": 0.5}},
     "constant must be positive and finite"),
    ({"replicas": float("inf")}, "malformed bench config JSON")])
def test_bench_non_finite_number_is_a_config_error(tmp_path, capsys, overrides, message):
    # a NaN budget used to switch the budget refusal off, a NaN svt constant gave
    # ok rows with theta-hat = 0, and an infinite replica count died in int()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(**overrides)))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_bench_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _ = run(capsys, "bench", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"family": "sbm"}))
    code, _ = run(capsys, "bench", "--config", str(cfg))
    assert code == 2


def test_bench_deterministic_bytes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(replicas=3)))
    _, first = run(capsys, "bench", "--config", str(cfg))
    _, second = run(capsys, "bench", "--config", str(cfg))
    assert first == second


# (n, p, replica, status, objective) of every row of the config below,
# pinned so that a speedup of the solver keeps the determinism contract:
# the same seed gives the same rows
BCD_SBM_ROWS = [
    (20, 1.0, 0, "ok", 99.781874508429),
    (20, 1.0, 1, "ok", 98.50766945678453),
    (20, 1.0, 2, "ok", 102.44812159269154),
    (20, 0.5, 0, "ok", 172.4158541105771),
    (20, 0.5, 1, "ok", 163.61197060045458),
    (20, 0.5, 2, "ok", 167.49418576347315),
    (40, 1.0, 0, "ok", 412.50682118085115),
    (40, 1.0, 1, "ok", 410.9646729167433),
    (40, 1.0, 2, "ok", 389.333035616857),
    (40, 0.5, 0, "ok", 860.133861197749),
    (40, 0.5, 1, "ok", 764.1970751273494),
    (40, 0.5, 2, "ok", 792.0544502571577),
]


def test_bench_bcd_rows_match_recorded_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(
        grid=[[20, 3], [40, 3]], p=[1.0, 0.5], solver={"restarts": 2},
        replicas=3, seed=2024)))
    code, out = run(capsys, "bench", "--config", str(cfg))
    assert code == 0
    header, *lines = out.strip().splitlines()
    col = {name: i for i, name in enumerate(header.split(","))}
    assert len(lines) == len(BCD_SBM_ROWS)
    for line, (n, p, replica, status, objective) in zip(lines, BCD_SBM_ROWS):
        cells = line.split(",")
        assert (int(cells[col["n"]]), float(cells[col["p"]]), int(cells[col["replica"]])) \
            == (n, p, replica)
        assert cells[col["status"]] == status
        assert float(cells[col["objective"]]) == pytest.approx(objective, rel=1e-12, abs=0)


# ---- top level ---------------------------------------------------------------------- #

def test_missing_subcommand_is_config_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_file_is_config_error(capsys):
    assert main(["estimate", "--method", "bcd", "--obs", "/nosuch.json",
                 "--spec", "/nosuch.json"]) == 2


def test_spec_missing_key_is_config_error_naming_it(tmp_path, capsys):
    spec = write_spec(tmp_path)
    obj = json.loads(open(spec).read())
    del obj["k_n"]
    with open(spec, "w") as fh:
        json.dump(obj, fh)
    assert main(["rates", "--spec", spec]) == 2
    assert "'k_n'" in capsys.readouterr().err


def test_key_error_from_a_bug_is_not_a_config_error(tmp_path, monkeypatch):
    import structmc.cli as cli_mod

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli_mod, "rate_components", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["rates", "--spec", write_spec(tmp_path)])


@pytest.mark.parametrize("exc", [TypeError, ValueError])
def test_type_error_from_a_bug_is_not_a_config_error(tmp_path, monkeypatch, exc):
    import structmc.cli as cli_mod

    def broken(*args, **kwargs):
        raise exc("internal")

    monkeypatch.setattr(cli_mod, "rate_components", broken)
    with pytest.raises(exc, match="internal"):
        main(["rates", "--spec", write_spec(tmp_path)])


def test_malformed_values_are_config_errors_at_parse_time(tmp_path, capsys):
    assert main(["rates", "--spec", write_spec(tmp_path, n="four")]) == 2
    assert "malformed spec JSON" in capsys.readouterr().err
    assert main(["rates", "--spec", write_spec(tmp_path, alphabet_n={"kind": "finite",
                                                                    "values": 3})]) == 2
    assert "malformed spec JSON" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for bad in (bench_config_obj(replicas="two"), bench_config_obj(grid=[8]),
                bench_config_obj(grid=[[8, 2, 1]]), [bench_config_obj()],
                bench_config_obj(noise="gaussian"), bench_config_obj(solver="fast")):
        cfg.write_text(json.dumps(bad))
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
    assert main(["gen", "--family", "mixture", "--args", "4,4"]) == 2
    assert "'mixture'" in capsys.readouterr().err


def test_missing_noise_key_is_named_alike_by_observe_and_bench(pipeline_files, tmp_path, capsys):
    theta, _, _ = pipeline_files
    assert main(["observe", "--theta", str(theta), "--p", "0.8", "--noise", "uniform"]) == 2
    from_observe = capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(noise={"kind": "uniform"})))
    assert main(["bench", "--config", str(cfg)]) == 2
    from_bench = capsys.readouterr().err
    assert "'b'" in from_observe
    assert from_observe == from_bench


# ---- unknown keys ------------------------------------------------------------------ #

def test_misspelt_keys_exit_2_naming_the_key(pipeline_files, tmp_path, capsys):
    theta, spec, obs = pipeline_files
    spec_obj, theta_obj, obs_obj = (json.loads(f.read_text()) for f in (spec, theta, obs))
    alphabet = {"kind": "finite", "values": [0.0, 1.0], "hi": 1.0}
    cases = (  # (the option that reads the file, other arguments, its object, the stray key)
        (["bench", "--config"], [], bench_config_obj(nosie={"kind": "none"}), "nosie"),
        (["bench", "--config"], [], bench_config_obj(solver={"restart": 2}), "restart"),
        (["bench", "--config"], [],
         bench_config_obj(noise={"kind": "gaussian", "sigma": 1, "sgima": 2}), "sgima"),
        (["bench", "--config"], [],
         bench_config_obj(noise={"kind": "uniform", "b": 1, "sigma": 2}), "sigma"),
        (["rates", "--spec"], [], {**spec_obj, "bounde": True}, "bounde"),
        (["rates", "--spec"], [], {**spec_obj, "alphabet_m": alphabet}, "hi"),
        (["observe", "--theta"], ["--p", "0.5"], {**theta_obj, "colz": 6}, "colz"),
        (["estimate", "--obs"], ["--method", "bcd", "--spec", str(spec)],
         {**obs_obj, "pp": 0.5}, "pp"),
    )
    bad = tmp_path / "bad.json"
    for head, rest, obj, key in cases:
        bad.write_text(json.dumps(obj))
        assert main([*head, str(bad), *rest]) == 2, key
        assert repr(key) in capsys.readouterr().err, key


def test_the_documented_misspelling_is_no_longer_a_silent_noiseless_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config_obj(solver={"restart": 2},
                                               nosie={"kind": "gaussian", "sigma": 1})))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_factorization_loader_names_an_unknown_key():
    obj = {key: matrix_to_obj(np.eye(2)) for key in ("x", "b", "z")}
    assert factorization_from_obj(obj).b.shape == (2, 2)
    with pytest.raises(ParameterError, match="'y'"):
        factorization_from_obj({**obj, "y": matrix_to_obj(np.eye(2))})


def test_observe_rejects_noise_flags_its_kind_does_not_use(pipeline_files, capsys):
    theta, _, _ = pipeline_files
    assert main(["observe", "--theta", str(theta), "--p", "0.8", "--noise", "uniform",
                 "--b", "0.4", "--sigma", "2"]) == 2
    assert "--sigma" in capsys.readouterr().err
    # gaussian without --sigma keeps the documented default sigma = 0
    code, out = run(capsys, "observe", "--theta", str(theta), "--p", "0.8", "--noise", "gaussian")
    assert code == 0 and json.loads(out)["sigma"] == 0.0


def test_readme_json_snippets_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippets = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert len(snippets) == 2
    for obj in snippets:
        (bench_config_from_obj if "family" in obj else spec_from_obj)(obj)
