"""Monte Carlo risk experiments: generate / observe / estimate over a grid,
collect per-replica error rows, and summarize rate-scaling fits.

Determinism: the task for (cell index, p index, replica) draws everything
from derive_seed(cfg.seed, cell, p_idx, replica) and tasks run serially in
that key order, so output files depend only on the config. The `timing`
switch controls the seconds column ("zero" keeps files byte-identical across
runs; "wall" records real time).

Work budget: a run is refused up front when the projected work exceeds
cfg.budget abstract operations (enumeration sizes for exact search, sweep
cost for coordinate descent, n*m*min(n,m) per SVD, summed over the adaptive
grid); refusals raised by an estimator mid-run are recorded as per-row
status, never as aborts. Any other exception marks its row failed and is
logged as a warning on the "structmc.bench" logger with its class and message.
"""

from __future__ import annotations

import inspect
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import Observation, ParameterError, assemble, norms
from .estimators import (
    EnumerationRefusal,
    SolverConfig,
    adaptive_penalized,
    block_coordinate_ls,
    enumeration_size,
    exact_least_squares,
    hard_threshold,
    row_candidate_count,
    spectral_threshold,
)
from .rates import rate_components
from .simulate import ModelFamily, NoiseKind, derive_seed, generate, observe, sample_mask, sample_noise

__all__ = [
    "BenchConfig",
    "BenchRow",
    "BenchSummary",
    "BudgetError",
    "CSV_HEADER",
    "bench_config_from_obj",
    "estimate_work",
    "run_experiment",
    "rows_to_csv",
    "summarize",
]

CSV_HEADER = ("family,n,m,k_n,k_m,s_n,s_m,p,sigma,method,replica,status,"
              "frob_err_sq,spec_err_sq,objective,sel_sn,sel_sm,rate_total,ratio,seconds")

_METHODS = ("exact", "bcd", "svt", "adaptive")

_log = logging.getLogger(__name__)


class BudgetError(RuntimeError):
    """Projected work exceeds the configured budget; the run is refused."""


@dataclass(frozen=True)
class BenchConfig:
    family: str
    grid: tuple[tuple, ...]
    p_values: tuple[float, ...]
    noise: NoiseKind
    method: str
    solver: SolverConfig
    replicas: int
    seed: int
    constant: float | None = None   # svt: threshold factor c; adaptive: penalty weight
    out: str | None = None
    timing: str = "zero"            # "zero" | "wall"
    budget: float = 1e9

    def __post_init__(self):
        if not self.grid:
            raise ParameterError("grid must be non-empty")
        if not self.p_values:
            raise ParameterError("p_values must be non-empty")
        if self.replicas < 1:
            raise ParameterError("replicas must be >= 1")
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.method in ("svt", "adaptive") and (self.constant is None or self.constant <= 0):
            raise ParameterError(f"method {self.method!r} needs a positive constant")
        if self.method == "svt" and self.noise.bound is None:
            raise ParameterError("svt needs almost-surely bounded noise for its threshold")
        if self.timing not in ("zero", "wall"):
            raise ParameterError(f"timing must be 'zero' or 'wall', got {self.timing!r}")
        if self.budget <= 0:
            raise ParameterError("budget must be positive")


@dataclass(frozen=True)
class BenchRow:
    family: str
    n: int
    m: int
    k_n: int
    k_m: int
    s_n: int
    s_m: int
    p: float
    sigma: float
    method: str
    replica: int
    status: str                    # ok | refused | failed
    frob_err_sq: float | None
    spec_err_sq: float | None
    objective: float | None
    sel_sn: int | None
    sel_sm: int | None
    rate_total: float
    ratio: float | None
    seconds: float

    def __post_init__(self):
        if self.status == "ok":
            if self.frob_err_sq < 0 or self.spec_err_sq < 0:
                raise ParameterError("error norms must be >= 0")


# ---------- config parsing ---------- #

def _noise_from_obj(obj) -> NoiseKind:
    kind = obj.get("kind", "none")
    if kind == "none":
        return NoiseKind.none()
    if kind == "gaussian":
        return NoiseKind.gaussian(obj["sigma"])
    if kind == "rademacher":
        return NoiseKind.rademacher(obj["scale"])
    if kind == "uniform":
        return NoiseKind.uniform_bounded(obj["b"])
    if kind == "truncated_gaussian":
        return NoiseKind.truncated_gaussian(obj["sigma"], obj["b"])
    raise ParameterError(f"unknown noise kind {kind!r}")


def bench_config_from_obj(obj: dict) -> BenchConfig:
    """Parse the bench config JSON object (see README for the shape)."""
    try:
        solver_obj = obj.get("solver", {})
        return BenchConfig(
            family=obj["family"],
            grid=tuple(tuple(g) for g in obj["grid"]),
            p_values=tuple(float(p) for p in obj["p"]),
            noise=_noise_from_obj(obj.get("noise", {"kind": "none"})),
            method=obj["method"],
            solver=SolverConfig(
                restarts=int(solver_obj.get("restarts", 5)),
                max_iterations=int(solver_obj.get("max_iterations", 200)),
                tol=float(solver_obj.get("tol", 1e-9)),
                exhaustive_limit=int(solver_obj.get("exhaustive_limit", 1_000_000)),
            ),
            replicas=int(obj["replicas"]),
            seed=int(obj.get("seed", 0)),
            constant=None if obj.get("constant") is None else float(obj["constant"]),
            out=obj.get("out"),
            timing=obj.get("timing", "zero"),
            budget=float(obj.get("budget", 1e9)),
        )
    except KeyError as exc:
        raise ParameterError(f"bench config is missing required key {exc}") from exc
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"malformed bench config: {exc}") from exc


def _family_for(name: str, args: tuple) -> ModelFamily:
    """The named ModelFamily constructor applied to args, which must match
    its parameter list."""
    ctor = getattr(ModelFamily, name, None)
    if name.startswith("_") or not callable(ctor):
        raise ParameterError(f"unknown family {name!r}")
    try:
        inspect.signature(ctor).bind(*args)
    except TypeError as exc:
        raise ParameterError(f"family {name!r}: {exc}") from exc
    return ctor(*args)


# ---------- work budget ---------- #

def _cell_work(method: str, spec, solver: SolverConfig) -> float:
    """Projected abstract operations for one estimator call; instant refusals
    cost nothing."""

    def side_count(k, s, alphabet):
        if s == 0:
            return 1
        if alphabet.kind == "finite":
            c = row_candidate_count(k, s, alphabet)
            return 0 if c > 1_000_000 else c
        return sum(math.comb(k, j) for j in range(s + 1))

    if method == "exact":
        size = enumeration_size(spec)
        return float(size) if size is not None and size <= solver.exhaustive_limit else 0.0
    if method == "bcd":
        cx = side_count(spec.k_n, spec.s_n, spec.alphabet_n)
        cz = side_count(spec.k_m, spec.s_m, spec.alphabet_m)
        if cx == 0 or cz == 0:
            return 0.0
        return float(solver.restarts * solver.max_iterations * (spec.n * cx + spec.m * cz))
    if method == "svt":
        return float(spec.n * spec.m * min(spec.n, spec.m))
    # adaptive: sum the per-cell costs over its sparsity grid
    total = 0.0
    for s_n in range(1, spec.k_n + 1):
        for s_m in range(1, spec.k_m + 1):
            spec_s = replace(spec, s_n=s_n, s_m=s_m)
            size = enumeration_size(spec_s)
            if size is not None and size <= solver.exhaustive_limit:
                total += float(size)
            else:
                total += _cell_work("bcd", spec_s, solver)
    return total


def estimate_work(cfg: BenchConfig) -> float:
    """Total projected abstract operations for the whole run."""
    total = 0.0
    for args in cfg.grid:
        fam = _family_for(cfg.family, args)
        spec = _family_spec(fam, cfg.seed)
        total += len(cfg.p_values) * cfg.replicas * _cell_work(cfg.method, spec, cfg.solver)
    return total


def _family_spec(fam: ModelFamily, seed: int):
    # the spec depends only on the family parameters, not the draw
    if fam.variant == "generic":
        return fam.spec
    return generate(fam, seed)[1]


# ---------- the experiment ---------- #

def _estimate(method, obs, spec, solver, constant, noise, seed):
    if method == "exact":
        return exact_least_squares(obs, spec, solver)
    if method == "bcd":
        return block_coordinate_ls(obs, spec, solver, seed)
    if method == "svt":
        lam = spectral_threshold(noise.bound, spec.theta_mx, spec.n, spec.m, obs.p, constant)
        return hard_threshold(obs, lam)
    return adaptive_penalized(obs, spec, constant, solver, seed)


def run_experiment(cfg: BenchConfig) -> list[BenchRow]:
    """All (grid cell, p, replica) rows, in that key order; writes cfg.out
    as CSV when set. Estimator refusals / failures become row status values.
    """
    projected = estimate_work(cfg)
    if projected > cfg.budget:
        raise BudgetError(
            f"projected work {projected:.3g} exceeds budget {cfg.budget:.3g}; "
            "shrink the grid or raise the budget"
        )
    families = [_family_for(cfg.family, args) for args in cfg.grid]

    tasks = [(ci, pi, r)
             for ci in range(len(families))
             for pi in range(len(cfg.p_values))
             for r in range(cfg.replicas)]

    def run_task(key):
        ci, pi, r = key
        fam, p = families[ci], cfg.p_values[pi]
        seed = derive_seed(cfg.seed, ci, pi, r)
        fact, spec = generate(fam, seed)
        theta_star = assemble(fact)
        mask = sample_mask(spec.n, spec.m, p, seed)
        noise = sample_noise(cfg.noise, spec.n, spec.m, seed)
        obs = observe(theta_star, mask, noise, p,
                      sigma=cfg.noise.proxy_sigma, b=cfg.noise.bound)
        rate_total = rate_components(spec).total
        start = time.perf_counter()
        status, res = "ok", None
        try:
            res = _estimate(cfg.method, obs, spec, cfg.solver, cfg.constant, cfg.noise, seed)
        except EnumerationRefusal:
            status = "refused"
        except Exception as exc:
            status = "failed"
            _log.warning("task %s failed: %s: %s", key, type(exc).__name__, exc,
                         exc_info=True)
        seconds = time.perf_counter() - start if cfg.timing == "wall" else 0.0

        frob = spec_sq = objective = ratio = None
        sel_sn = sel_sm = None
        if status == "ok":
            diff_norms = norms(res.theta_hat - theta_star)
            frob = diff_norms.frobenius ** 2
            spec_sq = diff_norms.spectral ** 2
            objective = res.objective
            if res.selected_s is not None:
                sel_sn, sel_sm = res.selected_s
            sigma = cfg.noise.proxy_sigma
            if sigma > 0 and rate_total > 0:
                ratio = frob * p / (sigma ** 2 * rate_total)
        return BenchRow(
            family=cfg.family, n=spec.n, m=spec.m, k_n=spec.k_n, k_m=spec.k_m,
            s_n=spec.s_n, s_m=spec.s_m, p=p, sigma=cfg.noise.proxy_sigma,
            method=cfg.method, replica=r, status=status,
            frob_err_sq=frob, spec_err_sq=spec_sq, objective=objective,
            sel_sn=sel_sn, sel_sm=sel_sm, rate_total=rate_total, ratio=ratio,
            seconds=seconds,
        )

    rows = [run_task(t) for t in tasks]

    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(rows_to_csv(rows))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_cell(v) for v in (
            r.family, r.n, r.m, r.k_n, r.k_m, r.s_n, r.s_m, r.p, r.sigma,
            r.method, r.replica, r.status, r.frob_err_sq, r.spec_err_sq,
            r.objective, r.sel_sn, r.sel_sm, r.rate_total, r.ratio, r.seconds,
        )))
    return "\n".join(lines) + "\n"


# ---------- summaries ---------- #

@dataclass(frozen=True)
class CellSummary:
    family: str
    n: int
    m: int
    p: float
    sigma: float
    method: str
    count: int
    mean_err: float
    median_err: float
    q90_err: float
    rate_total: float
    ratio: float | None   # mean_err * p / (sigma^2 * rate_total)


@dataclass(frozen=True)
class BenchSummary:
    cells: tuple[CellSummary, ...]
    c_hat: float | None          # max cell ratio: the empirical rate constant
    slope: float | None          # d ln(mean err) / d ln(rate_total)
    slope_residual: float | None

    def __str__(self):
        head = f"{'cell':<40}{'count':>6}{'mean':>14}{'median':>14}{'ratio':>10}"
        lines = [head]
        for c in self.cells:
            name = f"{c.family} n={c.n} m={c.m} p={c.p:g} {c.method}"
            ratio = f"{c.ratio:.4g}" if c.ratio is not None else "-"
            lines.append(f"{name:<40}{c.count:>6}{c.mean_err:>14.6g}{c.median_err:>14.6g}{ratio:>10}")
        lines.append(f"c_hat = {self.c_hat}  slope = {self.slope}  residual = {self.slope_residual}")
        return "\n".join(lines)


def summarize(rows) -> BenchSummary:
    """Per-cell aggregates plus the log-log slope of mean error on rate."""
    ok = [r for r in rows if r.status == "ok"]
    if not ok:
        raise ParameterError("no successful rows to summarize")
    groups: dict[tuple, list[BenchRow]] = {}
    for r in ok:
        key = (r.family, r.n, r.m, r.k_n, r.k_m, r.s_n, r.s_m, r.p, r.sigma, r.method)
        groups.setdefault(key, []).append(r)

    cells = []
    for key in sorted(groups):
        rs = groups[key]
        errs = np.array([r.frob_err_sq for r in rs])
        mean = float(np.mean(errs))
        rate = rs[0].rate_total
        sigma, p = rs[0].sigma, rs[0].p
        ratio = mean * p / (sigma ** 2 * rate) if sigma > 0 and rate > 0 else None
        cells.append(CellSummary(
            family=rs[0].family, n=rs[0].n, m=rs[0].m, p=p, sigma=sigma,
            method=rs[0].method, count=len(rs), mean_err=mean,
            median_err=float(np.median(errs)), q90_err=float(np.quantile(errs, 0.9)),
            rate_total=rate, ratio=ratio,
        ))

    ratios = [c.ratio for c in cells if c.ratio is not None]
    c_hat = max(ratios) if ratios else None

    fit_cells = [c for c in cells if c.mean_err > 0 and c.rate_total > 0]
    rates_ln = np.array([math.log(c.rate_total) for c in fit_cells])
    slope = residual = None
    if len(fit_cells) >= 2 and len(set(rates_ln.tolist())) >= 2:
        errs_ln = np.array([math.log(c.mean_err) for c in fit_cells])
        coeffs = np.polyfit(rates_ln, errs_ln, 1)
        slope = float(coeffs[0])
        fitted = np.polyval(coeffs, rates_ln)
        residual = float(np.sqrt(np.mean((errs_ln - fitted) ** 2)))
    return BenchSummary(cells=tuple(cells), c_hat=c_hat, slope=slope, slope_residual=residual)
