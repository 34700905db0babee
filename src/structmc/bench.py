"""Monte Carlo risk experiments: generate / observe / estimate over a grid,
collect per-replica error rows, and summarize rate-scaling fits.

Determinism: the task for (cell index, p index, replica) draws everything
from derive_seed(cfg.seed, cell, p_idx, replica) and tasks run serially in
that key order, so output files depend only on the config. The `timing`
switch controls the seconds column ("zero" keeps files byte-identical across
runs; "wall" records real time).

Work budget: a run is refused up front when the projected work exceeds
cfg.budget abstract operations (estimators.projected_work per estimator
call: enumeration size, sweep cost, SVD cost, summed over the adaptive
grid); refusals raised by an estimator mid-run are recorded as per-row
status, never as aborts. Any other exception marks its row failed and is
logged as a warning on the "structmc.bench" logger with its class and message.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .core import (ParameterError, _check_ints, _check_p, _check_range, _from_obj, _loader, _typed,
                   assemble, norms)
from .estimators import (
    METHODS,
    EnumerationRefusal,
    SolverConfig,
    block_coordinate_ls,  # noqa: F401 - perfbench's tracer test checks that bench binds it
    estimate,
    projected_work,
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
    "status_counts",
    "summarize",
]

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
    seed: int = 0
    constant: float | None = None   # svt: threshold factor c; adaptive: penalty weight
    out: str | None = None
    timing: str = "zero"            # "zero" | "wall"
    budget: float = 1e9

    def __post_init__(self):
        _check_ints(self)
        if not self.grid:
            raise ParameterError("grid must be non-empty")
        if not self.p_values:
            raise ParameterError("p_values must be non-empty")
        for p in self.p_values:
            _check_p(p)
        _check_range("replicas", self.replicas, 1)
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method in ("svt", "adaptive") or self.constant is not None:
            _check_range("constant", self.constant, 0, open_lo=True)
        if self.method == "svt" and self.noise.bound is None:
            raise ParameterError("svt needs almost-surely bounded noise for its threshold")
        if self.timing not in ("zero", "wall"):
            raise ParameterError(f"timing must be 'zero' or 'wall', got {self.timing!r}")
        _check_range("budget", self.budget, 0, open_lo=True)


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


# the CSV columns are BenchRow's fields in declaration order, so the row type fixes the format
_COLUMNS = tuple(f.name for f in fields(BenchRow))
CSV_HEADER = ",".join(_COLUMNS)


# ---------- config parsing ---------- #

@_loader("bench config")
def bench_config_from_obj(obj: dict) -> BenchConfig:
    """Parse the bench config JSON object (see README for the shape): "p" holds
    p_values, a grid cell lists integers, and absent noise or solver reads as {}."""
    config = functools.partial(BenchConfig, noise=NoiseKind.from_obj({}), solver=SolverConfig())
    return _from_obj(config, obj, "bench config", renamed={"p_values": "p"},
                     grid=lambda grid: _typed("grid", grid, tuple[tuple[int, ...], ...]),
                     noise=NoiseKind.from_obj,
                     solver=lambda solver: _from_obj(SolverConfig, solver, "bench config 'solver'"))


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

def estimate_work(cfg: BenchConfig) -> float:
    """Total projected abstract operations for the whole run."""
    total = 0.0
    for args in cfg.grid:
        fam = _family_for(cfg.family, args)
        spec = _family_spec(fam, cfg.seed)
        total += len(cfg.p_values) * cfg.replicas * projected_work(cfg.method, spec, cfg.solver)
    return total


def _family_spec(fam: ModelFamily, seed: int):
    # the spec depends only on the family parameters, not the draw
    if fam.variant == "generic":
        return fam.spec
    return generate(fam, seed)[1]


# ---------- the experiment ---------- #

def _estimate(method, obs, spec, solver, constant, noise, seed):
    """The configured estimator; svt's constant is the factor c of its threshold."""
    lam = constant
    if method == "svt":
        lam = spectral_threshold(noise.bound, spec.theta_mx, spec.n, spec.m, obs.p, constant)
    return estimate(method, obs, spec, solver, seed, lam)


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
    lines += [",".join(_cell(getattr(r, c)) for c in _COLUMNS) for r in rows]
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
    count: int                # ok rows; the error columns aggregate these
    refused: int
    failed: int
    mean_err: float | None    # None when no row of the cell is ok
    median_err: float | None
    q90_err: float | None
    rate_total: float
    ratio: float | None   # mean_err * p / (sigma^2 * rate_total)


@dataclass(frozen=True)
class BenchSummary:
    cells: tuple[CellSummary, ...]
    c_hat: float | None          # max cell ratio: the empirical rate constant
    slope: float | None          # d ln(mean err) / d ln(rate_total)
    slope_residual: float | None

    def __str__(self):
        def num(v, fmt):
            return "-" if v is None else format(v, fmt)

        head = (f"{'cell':<40}{'count':>6}{'refused':>8}{'failed':>8}"
                f"{'mean':>14}{'median':>14}{'ratio':>10}")
        lines = [head]
        for c in self.cells:
            name = f"{c.family} n={c.n} m={c.m} p={c.p:g} {c.method}"
            lines.append(f"{name:<40}{c.count:>6}{c.refused:>8}{c.failed:>8}"
                         f"{num(c.mean_err, '.6g'):>14}{num(c.median_err, '.6g'):>14}"
                         f"{num(c.ratio, '.4g'):>10}")
        lines.append(f"c_hat = {self.c_hat}  slope = {self.slope}  residual = {self.slope_residual}")
        return "\n".join(lines)


def status_counts(rows) -> str:
    """The rows that are not ok, by status: e.g. '3 refused, 1 failed'."""
    counts = [(sum(r.status == s for r in rows), s) for s in ("refused", "failed")]
    return ", ".join(f"{k} {s}" for k, s in counts if k)


def summarize(rows) -> BenchSummary:
    """Per-cell aggregates of the ok rows, with each cell's refused and
    failed counts, plus the log-log slope of mean error on rate."""
    if not any(r.status == "ok" for r in rows):
        raise ParameterError(f"no successful rows to summarize ({status_counts(rows)})")
    groups: dict[tuple, list[BenchRow]] = {}
    for r in rows:
        key = (r.family, r.n, r.m, r.k_n, r.k_m, r.s_n, r.s_m, r.p, r.sigma, r.method)
        groups.setdefault(key, []).append(r)

    cells = []
    for key in sorted(groups):
        rs = groups[key]
        errs = np.array([r.frob_err_sq for r in rs if r.status == "ok"])
        rate = rs[0].rate_total
        sigma, p = rs[0].sigma, rs[0].p
        mean = median = q90 = ratio = None
        if len(errs):
            mean = float(np.mean(errs))
            median, q90 = float(np.median(errs)), float(np.quantile(errs, 0.9))
            ratio = mean * p / (sigma ** 2 * rate) if sigma > 0 and rate > 0 else None
        cells.append(CellSummary(
            family=rs[0].family, n=rs[0].n, m=rs[0].m, p=p, sigma=sigma,
            method=rs[0].method, count=len(errs),
            refused=sum(r.status == "refused" for r in rs),
            failed=sum(r.status == "failed" for r in rs),
            mean_err=mean, median_err=median, q90_err=q90, rate_total=rate, ratio=ratio,
        ))

    ratios = [c.ratio for c in cells if c.ratio is not None]
    c_hat = max(ratios) if ratios else None

    fit_cells = [c for c in cells if c.count and c.mean_err > 0 and c.rate_total > 0]
    rates_ln = np.array([math.log(c.rate_total) for c in fit_cells])
    slope = residual = None
    if len(fit_cells) >= 2 and len(set(rates_ln.tolist())) >= 2:
        errs_ln = np.array([math.log(c.mean_err) for c in fit_cells])
        coeffs = np.polyfit(rates_ln, errs_ln, 1)
        slope = float(coeffs[0])
        fitted = np.polyval(coeffs, rates_ln)
        residual = float(np.sqrt(np.mean((errs_ln - fitted) ** 2)))
    return BenchSummary(cells=tuple(cells), c_hat=c_hat, slope=slope, slope_residual=residual)
