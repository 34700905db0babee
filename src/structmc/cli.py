"""Command-line interface.

Subcommands: gen, observe, estimate, rates, packing, bench. All output is
canonical JSON (sorted keys, 2-space indent) or CSV, so identical inputs and
seeds produce byte-identical bytes (bench timing defaults to the "zero"
mode; opt into wall-clock seconds with --timing wall). Exit codes: 0
success, 2 configuration error, 3 budget refusal.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from .bench import (BudgetError, _family_for, bench_config_from_obj, rows_to_csv, run_experiment,
                    status_counts, summarize)
from .core import (
    ParameterError,
    ShapeError,
    assemble,
    dumps_canonical,
    factorization_to_obj,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    observation_from_obj,
    observation_to_obj,
    spec_from_obj,
    spec_to_obj,
)
from .estimators import METHODS, EnumerationRefusal, SolverConfig, estimate
from .packing import (
    ConstructionError,
    DegenerateSetError,
    build_t_b,
    build_t_z,
    sign_embedding,
    sparse_binary_packing,
)
from .rates import (
    NoCrossingError,
    UnsupportedFamilyError,
    covering_bounds,
    covering_min_bound,
    critical_radius,
    family_rate,
    penalty,
    rate_components,
)
from .simulate import NOISE_KINDS, ModelFamily, NoiseKind, generate, observe, sample_mask, sample_noise

__all__ = ["main"]

_FAMILIES = ("mixture", "dictionary", "sbm", "mixed_membership", "biclustering", "generic")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parse_ints(csv_text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in csv_text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {csv_text!r}") from exc


def _build_family(name: str, args_csv: str | None, spec_file: str | None) -> ModelFamily:
    if name == "generic":
        if not spec_file:
            raise ParameterError("generic family needs --spec")
        return ModelFamily.generic(spec_from_obj(load_json(spec_file)))
    if not args_csv:
        raise ParameterError(f"family {name!r} needs --args (constructor integers)")
    return _family_for(name, _parse_ints(args_csv))


@click.group()
def cli():
    """Structured matrix estimation and completion toolkit."""


@cli.command("gen")
@click.option("--family", required=True, type=click.Choice(_FAMILIES))
@click.option("--args", "args_csv", default=None, help="comma-separated family parameters")
@click.option("--spec", "spec_file", default=None, help="spec JSON file (generic family)")
@click.option("--seed", default=0, type=int)
@click.option("--out-theta", default=None, help="write the ground truth matrix here")
@click.option("--out-factorization", default=None, help="write the (X, B, Z) triple here")
@click.option("--out-spec", default=None, help="write the class description here")
def gen_cmd(family, args_csv, spec_file, seed, out_theta, out_factorization, out_spec):
    """Draw a ground-truth factorization from a model family."""
    fam = _build_family(family, args_csv, spec_file)
    fact, spec = generate(fam, seed)
    theta = assemble(fact)
    wrote = False
    if out_theta:
        _emit(dumps_canonical(matrix_to_obj(theta)), out_theta)
        wrote = True
    if out_factorization:
        _emit(dumps_canonical(factorization_to_obj(fact)), out_factorization)
        wrote = True
    if out_spec:
        _emit(dumps_canonical(spec_to_obj(spec)), out_spec)
        wrote = True
    if not wrote:
        _emit(dumps_canonical({"spec": spec_to_obj(spec), "theta": matrix_to_obj(theta)}), None)


@cli.command("observe")
@click.option("--theta", "theta_file", required=True, help="ground truth matrix JSON")
@click.option("--p", required=True, type=float, help="Bernoulli sampling probability")
@click.option("--noise", "noise_kind", default="none",
              type=click.Choice(list(NOISE_KINDS)))
@click.option("--sigma", default=None, type=float, help="gaussian kinds; default 0")
@click.option("--scale", default=None, type=float, help="rademacher; default 0")
@click.option("--b", default=None, type=float, help="uniform, truncated_gaussian")
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None)
def observe_cmd(theta_file, p, noise_kind, sigma, scale, b, seed, out):
    """Mask and corrupt a ground-truth matrix."""
    theta = matrix_from_obj(load_json(theta_file))
    used = NOISE_KINDS[noise_kind][1]
    given = {"sigma": sigma, "scale": scale, "b": b}
    stray = [f"--{key}" for key, v in given.items() if v is not None and key not in used]
    if stray:
        raise ParameterError(f"--noise {noise_kind} does not use {', '.join(stray)}")
    # --sigma and --scale default to 0; --b has none, so a kind that needs it names it
    values = {"sigma": 0.0 if sigma is None else sigma, "scale": 0.0 if scale is None else scale,
              "b": b}
    kind = NoiseKind.from_obj({"kind": noise_kind, **{key: values[key] for key in used}})
    n, m = theta.shape
    mask = sample_mask(n, m, p, seed)
    noise = sample_noise(kind, n, m, seed)
    obs = observe(theta, mask, noise, p, sigma=kind.proxy_sigma, b=kind.bound)
    _emit(dumps_canonical(observation_to_obj(obs)), out)


@cli.command("estimate")
@click.option("--method", required=True, type=click.Choice(METHODS))
@click.option("--obs", "obs_file", required=True)
@click.option("--spec", "spec_file", required=True)
@click.option("--lambda", "lam", default=None, type=float, help="threshold (svt) or penalty weight (adaptive)")
@click.option("--restarts", default=5, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None)
def estimate_cmd(method, obs_file, spec_file, lam, restarts, seed, out):
    """Run an estimator on an observation file."""
    obs = observation_from_obj(load_json(obs_file))
    spec = spec_from_obj(load_json(spec_file))
    res = estimate(method, obs, spec, SolverConfig(restarts=restarts), seed, lam)
    payload = {
        "theta_hat": matrix_to_obj(res.theta_hat),
        "objective": res.objective,
        "selected_s": list(res.selected_s) if res.selected_s is not None else None,
        "iterations": res.iterations,
        "converged": res.converged,
        "restarts_used": res.restarts_used,
    }
    _emit(dumps_canonical(payload), out)


@cli.command("rates")
@click.option("--spec", "spec_file", required=True)
@click.option("--family", "family_name", default=None, type=click.Choice(_FAMILIES[:-1]))
@click.option("--args", "args_csv", default=None, help="family parameters for --family")
@click.option("--sigma", default=None, type=float)
@click.option("--p", default=None, type=float)
@click.option("--penalty", "penalty_s", default=None, help="s_n,s_m for the selection penalty")
@click.option("--epsilon0", is_flag=True, default=False, help="solve for the critical radius")
@click.option("--u", default=1.0, type=float, help="sup-norm radius for covering bounds")
@click.option("--out", default=None)
def rates_cmd(spec_file, family_name, args_csv, sigma, p, penalty_s, epsilon0, u, out):
    """Report rate components, closed-form family rates, penalties, and
    covering / critical-radius quantities for a class."""
    spec = spec_from_obj(load_json(spec_file))
    report = rate_components(spec, sigma=sigma, p=p)
    payload = {
        "components": {
            "r_x": report.r_x, "r_b": report.r_b, "r_z": report.r_z,
            "total": report.total,
            "frobenius_lower": report.frobenius_lower,
            "spectral_lower": report.spectral_lower,
        }
    }
    if family_name:
        fam = _build_family(family_name, args_csv, None)
        payload["family_rate"] = family_rate(fam)
    if penalty_s:
        pair = _parse_ints(penalty_s)
        if len(pair) != 2:
            raise ParameterError(f"--penalty expects two integers s_n,s_m, got {penalty_s!r}")
        s_n, s_m = pair
        payload["penalty"] = {"s_n": s_n, "s_m": s_m, "value": penalty(s_n, s_m, spec)}
    if epsilon0:
        eps0 = critical_radius(spec.n * spec.m, covering_min_bound(spec, u))
        cov = covering_bounds(spec, u, eps0)
        payload["covering"] = {
            "r1": cov.r1, "r2": cov.r2, "r3": cov.r3, "r4": cov.r4,
            "epsilon": cov.epsilon, "u": cov.u, "epsilon0": eps0,
            "min_bound": cov.min_bound,
        }
    _emit(dumps_canonical(payload), out)


@cli.command("packing")
@click.option("--kind", required=True, type=click.Choice(["tz", "tb", "code", "embed"]))
@click.option("--spec", "spec_file", default=None, help="spec JSON (tz/tb)")
@click.option("--sigma", default=1.0, type=float)
@click.option("--p", default=1.0, type=float)
@click.option("--c0", default=1.0, type=float)
@click.option("--cap", default=64, type=int)
@click.option("--k", default=None, type=int, help="ambient dimension (code)")
@click.option("--s", default=None, type=int, help="codeword weight (code)")
@click.option("--r", default=None, type=int, help="embedding rows (embed)")
@click.option("--vectors", "vectors_file", default=None, help="matrix JSON of vectors to embed")
@click.option("--max-resamples", default=100, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None)
def packing_cmd(kind, spec_file, sigma, p, c0, cap, k, s, r, vectors_file, max_resamples, seed, out):
    """Build packings, sign embeddings, or certified hypothesis sets."""
    if kind == "code":
        if k is None or s is None:
            raise ParameterError("--kind code needs --k and --s")
        pk = sparse_binary_packing(k, s, seed=seed)
        payload = {
            "kind": "code", "k": pk.k, "s": pk.s,
            "constants": list(pk.constants),
            "codewords": matrix_to_obj(pk.codewords),
            "seed": seed,
        }
    elif kind == "embed":
        if r is None or not vectors_file:
            raise ParameterError("--kind embed needs --r and --vectors")
        vectors = matrix_from_obj(load_json(vectors_file))
        q = sign_embedding(r, vectors, seed=seed, max_resamples=max_resamples)
        payload = {"kind": "embed", "r": r, "q": matrix_to_obj(q), "seed": seed}
    else:
        if not spec_file:
            raise ParameterError(f"--kind {kind} needs --spec")
        spec = spec_from_obj(load_json(spec_file))
        build = build_t_z if kind == "tz" else build_t_b
        hs = build(spec, sigma, p, c0, seed=seed, cap=cap)
        payload = {
            "kind": hs.kind, "delta": hs.delta,
            "min_sq_distance": hs.min_sq_distance, "max_kl": hs.max_kl,
            "sigma": sigma, "p": p, "c0": c0, "seed": seed,
            "thetas": [matrix_to_obj(t) for t in hs.thetas],
        }
    _emit(dumps_canonical(payload), out)


@cli.command("bench")
@click.option("--config", "config_file", required=True)
@click.option("--out", default=None, help="CSV path (overrides the config's)")
@click.option("--timing", default=None, type=click.Choice(["zero", "wall"]),
              help="seconds column mode (overrides the config's)")
def bench_cmd(config_file, out, timing):
    """Run a Monte Carlo experiment from a JSON config."""
    overrides = {key: v for key, v in (("out", out), ("timing", timing)) if v is not None}
    cfg = replace(bench_config_from_obj(load_json(config_file)), **overrides)
    rows = run_experiment(cfg)
    if cfg.out:
        if any(r.status == "ok" for r in rows):
            click.echo(str(summarize(rows)))
        else:
            click.echo(f"no row is ok ({status_counts(rows)}); no summary", err=True)
    else:
        click.echo(rows_to_csv(rows), nl=False)


def main(argv=None) -> int:
    """Entry point; returns 0 on success, 2 on config errors, 3 on refusals."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 2
    except (EnumerationRefusal, BudgetError, ConstructionError) as exc:
        click.echo(f"refused: {exc}", err=True)
        return 3
    except (ParameterError, ShapeError, DegenerateSetError, NoCrossingError,
            UnsupportedFamilyError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
