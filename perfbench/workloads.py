"""The four benchmark workloads.

Each workload builds its inputs from the workload seed with structmc's own
generators (unit u draws from `derive_seed(seed, u, part)`), runs one unit of
user work in `execute` (the only timed call), and checks the unit's outputs
in `check`. Calls into structmc go through module attributes at call time,
so the tracer's wrappers see them. See README.md for why each workload is
here and what it measures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from structmc import bench as B
from structmc import cli as C
from structmc import estimators as E
from structmc import packing as P
from structmc import rates as R
from structmc import simulate as S
from structmc.core import Alphabet, StructureSpec, assemble

# warm-up inputs use this unit index, which no timed unit reaches
WARM_UP = 1 << 30

_TEXT_COLUMNS = {"family", "method", "status"}
_INT_COLUMNS = {"n", "m", "k_n", "k_m", "s_n", "s_m", "replica", "sel_sn", "sel_sm"}

BINARY = Alphabet.finite((0.0, 1.0))
SYMMETRIC = Alphabet.interval(-1.0, 1.0)


@dataclass
class UnitResult:
    units: int                          # user-visible units completed
    failed: int = 0                     # of those, units that failed their check
    latencies_ms: list | None = None    # per-unit latency when the program reports it
    risks: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    seconds: float = 0.0                # timed duration of the execute() call


def risk(theta_hat, theta, p, sigma, spec) -> float:
    """frob_err_sq * p / (sigma^2 * rate_total), the harness's ratio column."""
    err = float(np.sum((np.asarray(theta_hat) - theta) ** 2))
    return err * p / (sigma ** 2 * R.rate_components(spec).total)


def _close(a, b, rel=1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def _problem(result: UnitResult, ok: bool, message: str):
    if not ok:
        result.problems.append(message)


def _observe(family, seed, p, noise):
    fact, spec = S.generate(family, seed)
    theta = assemble(fact)
    mask = S.sample_mask(spec.n, spec.m, p, seed)
    obs = S.observe(theta, mask, S.sample_noise(noise, spec.n, spec.m, seed), p,
                    sigma=noise.proxy_sigma, b=noise.bound)
    return fact, spec, theta, obs


class Workload:
    name = ""
    prebuilt = 8        # units whose inputs are built during set-up
    min_units = 1       # the timed phase runs at least this many units; risk_ratio averages them
    trace_units = 1     # the traced run runs exactly this many units
    units_per_call = 1  # user-visible units one execute() call completes

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._inputs = [self.build(u) for u in range(self.prebuilt)]

    def input(self, unit: int):
        while len(self._inputs) <= unit:
            self._inputs.append(self.build(len(self._inputs)))
        return self._inputs[unit]

    def build(self, unit: int):
        raise NotImplementedError

    def execute(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> UnitResult:
        raise NotImplementedError

    def outcome(self, inp, out) -> UnitResult:
        """check(), or a failed result when the unit raised."""
        if isinstance(out, Exception):
            return UnitResult(units=self.units_per_call, failed=self.units_per_call,
                              problems=[f"unit raised {out!r}"])
        return self.check(inp, out)

    def warm_up(self) -> list[str]:
        """One untimed unit; returns problems found in its output."""
        inp = self.build(WARM_UP)
        return self.check(inp, self.execute(inp)).problems

    def finish(self) -> list[str]:
        """Checks over the whole run; returns problems."""
        return []


# --------------------------------------------------------------------------- #

class SbmGrid(Workload):
    """`structmc bench` in-process on the acceptance sbm grid; a unit is a CSV row."""

    name = "sbm_grid"
    replicas = 10
    min_units = 3             # invocations (90 rows); units are counted per row
    units_per_call = 3 * replicas
    trace_units = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._warm = None
        self._csv = {}   # CSV text per unit, for the run-level summary

    def build(self, unit):
        cfg = {"family": "sbm", "grid": [[20, 3], [40, 3], [80, 3]], "p": [1.0],
               "noise": {"kind": "gaussian", "sigma": 1.0},
               "method": "bcd", "solver": {"restarts": 5},
               "replicas": self.replicas, "seed": S.derive_seed(self.seed, unit)}
        path = os.path.join(self.workdir, f"sbm_grid-{unit}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path, path[:-5] + ".csv"

    def execute(self, inp):
        config, out = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = C.main(["bench", "--config", config, "--out", out, "--timing", "wall"])
        return code, buf.getvalue()

    def check(self, inp, out):
        code, printed = out
        expected = self.units_per_call
        if code != 0:
            return UnitResult(units=expected, failed=expected,
                              problems=[f"bench exited {code}: {printed.strip()[-200:]}"])
        with open(inp[1]) as fh:
            text = fh.read()
        header, *lines = text.splitlines()
        cols = header.split(",")
        rows = [dict(zip(cols, line.split(","))) for line in lines]
        bad = sum(1 for r in rows if r["status"] != "ok")
        result = UnitResult(units=len(rows), failed=bad,
                            latencies_ms=[1e3 * float(r["seconds"]) for r in rows],
                            risks=[float(r["ratio"]) for r in rows if r["ratio"]])
        _problem(result, len(rows) == expected, f"{len(rows)} rows, expected {expected}")
        _problem(result, bad == 0, f"{bad} rows not ok")
        self._csv[inp[1]] = text
        return result

    @staticmethod
    def _without_seconds(csv_text):
        return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())

    def warm_up(self):
        inp = self.build(WARM_UP)
        problems = self.check(inp, self.execute(inp)).problems
        self._warm = self._without_seconds(self._csv.pop(inp[1]))
        return problems

    @staticmethod
    def _bench_rows(csv_text):
        header, *lines = csv_text.splitlines()
        names = header.split(",")
        rows = []
        for line in lines:
            obj = {}
            for key, cell in zip(names, line.split(",")):
                obj[key] = (cell if key in _TEXT_COLUMNS else None if cell == ""
                            else int(cell) if key in _INT_COLUMNS else float(cell))
            rows.append(B.BenchRow(**obj))
        return rows

    def finish(self):
        problems = []
        # the program's own summary over every row of the run: slope in [0.5, 1.5]
        rows = [r for text in self._csv.values() for r in self._bench_rows(text)]
        slope = B.summarize(rows).slope if any(r.status == "ok" for r in rows) else None
        if slope is None or not 0.5 <= slope <= 1.5:
            problems.append(f"summary slope {slope} outside [0.5, 1.5]")
        # the same config, run again: CSV bytes minus the seconds column agree
        inp = self.build(WARM_UP)
        code, _ = self.execute(inp)
        if code != 0:
            return problems + [f"determinism re-run exited {code}"]
        with open(inp[1]) as fh:
            if self._without_seconds(fh.read()) != self._warm:
                problems.append("CSV (minus seconds) differs between two runs of one config")
        return problems


# --------------------------------------------------------------------------- #

class MaskedCompletion(Workload):
    """Masked B-solve at scale, then bcd + hard thresholding, at p = 0.5."""

    name = "masked_completion"
    p = 0.5
    noise = S.NoiseKind.uniform_bounded(0.5)
    min_units = 4
    trace_units = 2

    def build(self, unit):
        parts = []
        for part, family, restarts in ((0, S.ModelFamily.sbm(320, 10), None),
                                       (1, S.ModelFamily.sbm(120, 4), 5),
                                       (2, S.ModelFamily.mixed_membership(60, 3, 2), 2)):
            seed = S.derive_seed(self.seed, unit, part)
            fact, spec, theta, obs = _observe(family, seed, self.p, self.noise)
            lam = E.spectral_threshold(self.noise.bound, spec.theta_mx, spec.n, spec.m,
                                       self.p, 1.0)
            parts.append((seed, fact, spec, theta, obs, lam, restarts))
        return parts

    def execute(self, inp):
        (_, fact, _, _, obs, _, _), *fits = inp
        out = [E.solve_b_given_xz(obs, fact.x, fact.z)]
        for seed, _, spec, _, obs, lam, restarts in fits:
            trace = []
            fit = E.block_coordinate_ls(obs, spec, E.SolverConfig(restarts=restarts), seed,
                                        trace=trace)
            out.append((fit, trace, E.hard_threshold(obs, lam)))
        return out

    def check(self, inp, out):
        result = UnitResult(units=1)
        (_, fact, spec, theta, _, _, _), *fits = inp
        b_hat, *fit_out = out
        _problem(result, bool(np.all(np.isfinite(b_hat))), "B-solve estimate not finite")
        ratios = [risk(fact.x @ b_hat @ fact.z.T, theta, self.p, self.noise.proxy_sigma, spec)]
        for (_, _, spec, theta, _, _, restarts), (fit, trace, ht) in zip(fits, fit_out):
            label = f"bcd n={spec.n}"
            _problem(result, bool(np.all(np.isfinite(fit.theta_hat))), f"{label}: not finite")
            _problem(result, bool(np.all(np.isfinite(ht.theta_hat))), f"{label}: svt not finite")
            # within a restart the trace never rises; only restart boundaries may
            rises = sum(1 for a, b in zip(trace, trace[1:]) if b > a + 1e-9 * (1.0 + a))
            _problem(result, rises <= restarts - 1, f"{label}: trace rose {rises} times")
            _problem(result, bool(trace) and _close(fit.objective, max(0.0, min(trace))),
                     f"{label}: objective {fit.objective} is not the trace minimum")
            ratios.append(risk(fit.theta_hat, theta, self.p, self.noise.proxy_sigma, spec))
        result.risks.append(float(np.mean(ratios)))
        result.failed = int(bool(result.problems))
        return result


# --------------------------------------------------------------------------- #

class AdaptiveInterval(Workload):
    """One adaptive_penalized replica on the acceptance-test instance."""

    name = "adaptive_interval"
    base = StructureSpec(n=30, m=30, k_n=4, k_m=4, s_n=2, s_m=2,
                         alphabet_n=SYMMETRIC, alphabet_m=SYMMETRIC,
                         b_max=1.0, theta_mx=1.0, bounded=True)
    sigma = 0.05
    lam = 8.0
    cfg = E.SolverConfig(restarts=1, max_iterations=100, tol=1e-6)
    # the acceptance test's first replica; its outcome is recorded in reference.json
    reference_seed = S.derive_seed(5150, 0)
    min_units = 5
    trace_units = 2

    def __init__(self, seed, workdir):
        self.penalties = {(sn, sm): R.penalty(sn, sm, self.base)
                          for sn in range(1, 5) for sm in range(1, 5)}
        self.rate_total = R.rate_components(self.base).total
        super().__init__(seed, workdir)

    def build(self, unit):
        return self._instance(S.derive_seed(self.seed, unit))

    def _instance(self, seed):
        fact, _ = S.generate(S.ModelFamily.generic(self.base), seed)
        theta = assemble(fact)
        noise = S.sample_noise(S.NoiseKind.gaussian(self.sigma), 30, 30, seed)
        return seed, theta, S.observe(theta, np.ones((30, 30)), noise, 1.0, sigma=self.sigma)

    def execute(self, inp):
        seed, _, obs = inp
        return E.adaptive_penalized(obs, self.base, self.lam, self.cfg, seed)

    def check(self, inp, res):
        result = UnitResult(units=1)
        _, theta, obs = inp
        _problem(result, bool(np.all(np.isfinite(res.theta_hat))), "estimate not finite")
        _problem(result, res.selected_s in self.penalties, f"selected {res.selected_s} off grid")
        if not result.problems:
            # the reported objective is the residual of the returned fit plus its penalty
            r = obs.y - res.theta_hat
            expect = float(np.sum(r * r)) + self.lam * self.penalties[res.selected_s]
            _problem(result, _close(res.objective, expect, 1e-8),
                     f"objective {res.objective} != residual + penalty {expect}")
            err = float(np.sum((res.theta_hat - theta) ** 2))
            result.risks.append(err / (self.sigma ** 2 * self.rate_total))
        result.failed = int(bool(result.problems))
        return result

    def warm_up(self):
        inp = self._instance(self.reference_seed)
        res = self.execute(inp)
        problems = self.check(inp, res).problems
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
        with open(path) as fh:
            ref = json.load(fh)["adaptive_interval"]
        if list(res.selected_s) != ref["selected_s"] or not _close(res.objective, ref["objective"], 1e-6):
            problems.append(f"reference replica: got {res.selected_s} / {res.objective}, "
                            f"recorded {ref['selected_s']} / {ref['objective']}")
        return problems


# --------------------------------------------------------------------------- #

class Certify(Workload):
    """Exact enumeration vs bcd on tiny instances, critical radius, packings."""

    name = "certify"
    p = 0.8
    noise = S.NoiseKind.gaussian(0.5)
    exact_cfg = E.SolverConfig(exhaustive_limit=10 ** 7)
    radius_spec = StructureSpec(n=32, m=24, k_n=3, k_m=3, s_n=1, s_m=1,
                                alphabet_n=SYMMETRIC, alphabet_m=SYMMETRIC,
                                b_max=1.0, theta_mx=1.0, bounded=True)
    z_spec = StructureSpec(n=24, m=10, k_n=24, k_m=6, s_n=1, s_m=2,
                           alphabet_n=BINARY, alphabet_m=BINARY,
                           b_max=2.0, theta_mx=5.0, bounded=True)
    b_spec = StructureSpec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1,
                           alphabet_n=BINARY, alphabet_m=BINARY,
                           b_max=2.0, theta_mx=5.0, bounded=True)
    hyp_sigma, hyp_p = 1.0, 0.7
    prebuilt = 16
    min_units = 6
    trace_units = 3

    def build(self, unit):
        seed = S.derive_seed(self.seed, unit)
        tiny = [(n, *_observe(S.ModelFamily.sbm(n, 2), S.derive_seed(self.seed, unit, n),
                              self.p, self.noise)) for n in (4, 5)]
        return seed, tiny, float(S.stream(seed, 0).uniform(0.2, 0.9))

    def execute(self, inp):
        seed, tiny, u = inp
        radius_spec = self.radius_spec
        fits = [(E.exact_least_squares(obs, spec, self.exact_cfg),
                 E.block_coordinate_ls(obs, spec, self.exact_cfg, seed))
                for _, _, spec, _, obs in tiny]
        eps0 = R.critical_radius(radius_spec.n * radius_spec.m, R.covering_min_bound(radius_spec, u))
        hz = P.build_t_z(self.z_spec, self.hyp_sigma, self.hyp_p, c0=0.5, seed=seed, cap=8)
        hb = P.build_t_b(self.b_spec, self.hyp_sigma, self.hyp_p, c0=0.8, seed=seed, cap=16)
        code = P.sparse_binary_packing(24, 3, seed=seed)
        return fits, eps0, (hz, hb), code

    def check(self, inp, out):
        result = UnitResult(units=1)
        _, tiny, u = inp
        radius_spec = self.radius_spec
        fits, eps0, hyps, code = out
        ratios = []
        for (n, _, spec, theta, _), (ex, bcd) in zip(tiny, fits):
            _problem(result, bool(np.all(np.isfinite(ex.theta_hat))), f"exact n={n} not finite")
            _problem(result, ex.objective <= bcd.objective + 1e-9 * (1.0 + bcd.objective),
                     f"exact n={n} objective {ex.objective} > bcd {bcd.objective}")
            ratios.append(risk(ex.theta_hat, theta, self.p, self.noise.proxy_sigma, spec))
        result.risks.append(float(np.mean(ratios)))
        # critical radius: N eps^2 sits between half the cover and the cover
        cov = R.covering_bounds(radius_spec, u, eps0).min_bound
        lhs = radius_spec.n * radius_spec.m * eps0 * eps0
        _problem(result, 0.5 * cov <= lhs * (1 + 1e-3) and lhs <= cov * (1 + 1e-3),
                 f"critical radius {eps0} fails the sandwich")
        # hypothesis sets: recomputed separation >= and KL <= the certificates
        for hs in hyps:
            thetas = np.array(hs.thetas)
            iu, ju = np.triu_indices(len(thetas), k=1)
            sq = np.sum((thetas[iu] - thetas[ju]) ** 2, axis=(1, 2))
            kl = self.hyp_p * sq / (2.0 * self.hyp_sigma ** 2)
            _problem(result, len(thetas) >= 2 and sq.min() >= hs.min_sq_distance - 1e-9,
                     f"{hs.kind}: separation below its certificate")
            _problem(result, kl.max() <= hs.max_kl + 1e-9, f"{hs.kind}: KL above its certificate")
        # binary packing: weights in [c2 s, s], pairwise squared distance >= c3 s
        words = code.codewords
        _, c2, c3 = code.constants
        weights = words.sum(axis=1)
        gram = words @ words.T
        dist = weights[:, None] + weights[None, :] - 2 * gram
        np.fill_diagonal(dist, np.inf)
        _problem(result, bool(np.all((weights >= c2 * code.s) & (weights <= code.s))),
                 "packing weight outside [c2 s, s]")
        _problem(result, dist.min() >= c3 * code.s, "packing separation below c3 s")
        result.failed = int(bool(result.problems))
        return result


WORKLOADS = {w.name: w for w in (SbmGrid, MaskedCompletion, AdaptiveInterval, Certify)}
