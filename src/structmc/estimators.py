"""The three estimators: exact / block-coordinate least squares over the
sparse-factor class, SVD hard thresholding, and the sparsity-adaptive
penalized selector.

The combinatorial search only ever ranges over (X, Z): the middle factor is
unconstrained, so B is profiled out in closed form by masked least squares,
one normal-equations solve on the (k_n k_m)-square Gram of the masked design
(minimum-Frobenius-norm solution). The cutoff _RCOND applies to the Gram's
singular values, so design singular values below sqrt(_RCOND) * sigma_max
(1e-5 relative) are treated as zero.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Alphabet,
    Factorization,
    Observation,
    ParameterError,
    ShapeError,
    StructureSpec,
    assemble,
)
from .rates import penalty
from .simulate import PURPOSE_SOLVER, stream

__all__ = [
    "EstimateResult",
    "SolverConfig",
    "EnumerationRefusal",
    "solve_b_given_xz",
    "exact_least_squares",
    "block_coordinate_ls",
    "hard_threshold",
    "spectral_threshold",
    "adaptive_penalized",
]

_RCOND = 1e-10


class EnumerationRefusal(RuntimeError):
    """The requested search is combinatorially too large; this is a budget
    refusal, not a data error."""


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 5
    max_iterations: int = 200
    tol: float = 1e-9
    exhaustive_limit: int = 1_000_000

    def __post_init__(self):
        if min(self.restarts, self.max_iterations) < 1 or self.tol <= 0 or self.exhaustive_limit < 1:
            raise ParameterError("all SolverConfig fields must be positive")


@dataclass(frozen=True)
class EstimateResult:
    theta_hat: np.ndarray
    objective: float
    factorization: Factorization | None = None
    selected_s: tuple[int, int] | None = None
    iterations: int = 0
    restarts_used: int = 0
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "objective", max(0.0, float(self.objective)))


# ---------- candidate row enumeration ---------- #

def row_candidate_count(k: int, s: int, alphabet: Alphabet) -> int:
    """Sum_{j<=s} C(k, j) |D|^j — the documented per-row enumeration size."""
    if s == 0:
        return 1
    if alphabet.kind != "finite":
        raise ParameterError("candidate rows are enumerable for finite alphabets only")
    d = len(alphabet.values)
    return sum(math.comb(k, j) * d ** j for j in range(s + 1))


def enumeration_size(spec: StructureSpec) -> int | None:
    """Undeduped size of the exact search over (X, Z): the per-row candidate
    count of X to the n times that of Z to the m; None when a side with
    positive sparsity has an interval alphabet (nothing to enumerate)."""
    size = 1
    for s, k, rows, alph in ((spec.s_n, spec.k_n, spec.n, spec.alphabet_n),
                             (spec.s_m, spec.k_m, spec.m, spec.alphabet_m)):
        if s > 0:
            if alph.kind != "finite":
                return None
            size *= row_candidate_count(k, s, alph) ** rows
    return size


def _candidate_rows(k: int, s: int, alphabet: Alphabet, bounded: bool) -> np.ndarray:
    """Distinct candidate rows, first occurrence kept, in the documented
    order: support size ascending, index sets lexicographic within a size,
    value tuples in alphabet product order."""
    values = [v for v in alphabet.values if not bounded or abs(v) <= 1.0]
    seen = {}
    for j in range(s + 1):
        for support in itertools.combinations(range(k), j):
            for vals in itertools.product(values, repeat=j):
                row = np.zeros(k)
                row[list(support)] = vals
                key = row.tobytes()
                if key not in seen:
                    seen[key] = row
    return np.array(list(seen.values()))


# ---------- closed-form middle factor ---------- #

def _solve_b(x: np.ndarray, z: np.ndarray, mask: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """Minimum-norm masked least-squares B for a batch of (X, Z) pairs: x of
    shape (c|1, n, k_n) and z of shape (c|1, m, k_m), a batch of one being
    shared by every pair; returns (c, k_n, k_m).

    Solves the normal equations G vec(B) = X^T Y' Z (yp is zero off the
    mask, as Observation guarantees), where G = sum_ij E_ij (x_i x_i^T) kron
    (z_j z_j^T), so memory per pair is O((n + m)(k_n^2 + k_m^2) + (k_n k_m)^2),
    not that of the (n m, k_n k_m) design. One pinv call covers the batch.
    """
    _, n, k_n = x.shape
    _, m, k_m = z.shape
    xx = (x[:, :, :, None] * x[:, :, None, :]).reshape(-1, n, k_n * k_n)
    zz = (z[:, :, :, None] * z[:, :, None, :]).reshape(-1, m, k_m * k_m)
    g = (xx.transpose(0, 2, 1) @ mask) @ zz
    c = len(g)
    g = g.reshape(c, k_n, k_n, k_m, k_m).transpose(0, 1, 3, 2, 4)
    rhs = (x.transpose(0, 2, 1) @ yp) @ z
    kk = k_n * k_m
    b = np.linalg.pinv(g.reshape(c, kk, kk), rcond=_RCOND) @ rhs.reshape(c, kk, 1)
    return b.reshape(c, k_n, k_m)


def solve_b_given_xz(obs: Observation, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Masked least squares for B given the outer factors.

    Minimizes sum_{mask=1} (Y'_ij - (X B Z^T)_ij)^2 over all real B and
    returns the minimum-Frobenius-norm minimizer.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n, m = obs.shape
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"X must have {n} rows, got shape {x.shape}")
    if z.ndim != 2 or z.shape[0] != m:
        raise ShapeError(f"Z must have {m} rows, got shape {z.shape}")
    return _solve_b(x[None], z[None], obs.mask, obs.y_rescaled)[0]


def _masked_obj(yp, mask, theta) -> float:
    r = mask * (yp - theta)
    return float(np.sum(r * r))


# ---------- exact least squares ---------- #

def exact_least_squares(obs: Observation, spec: StructureSpec, cfg: SolverConfig) -> EstimateResult:
    """Global minimizer of the masked residual over the finite class.

    Enumerates X in A_{s_n} and Z in A_{s_m} (row products of the per-row
    candidate lists), solving B in closed form for each pair. Ties go to the
    first candidate in the documented enumeration order. Refuses when the
    undeduped enumeration size exceeds cfg.exhaustive_limit.
    """
    for s, alph, side in ((spec.s_n, spec.alphabet_n, "X"), (spec.s_m, spec.alphabet_m, "Z")):
        if s > 0 and alph.kind != "finite":
            raise ParameterError(
                f"exact search needs a finite alphabet for {side}; use block_coordinate_ls"
            )
    size = enumeration_size(spec)
    if size > cfg.exhaustive_limit:
        raise EnumerationRefusal(
            f"enumeration size {size} exceeds exhaustive_limit "
            f"{cfg.exhaustive_limit}; use block_coordinate_ls"
        )

    n, m = spec.n, spec.m
    yp = obs.y_rescaled
    mask = obs.mask

    if spec.s_n == 0:
        x_rows, x_iter = None, [np.eye(n)]
    else:
        x_rows = _candidate_rows(spec.k_n, spec.s_n, spec.alphabet_n, spec.bounded)
        x_iter = (x_rows[list(ix)] for ix in itertools.product(range(len(x_rows)), repeat=n))
    if spec.s_m == 0:
        z_all = np.eye(m)[None, :, :]
    else:
        z_rows = _candidate_rows(spec.k_m, spec.s_m, spec.alphabet_m, spec.bounded)
        z_all = np.array([z_rows[list(iz)] for iz in itertools.product(range(len(z_rows)), repeat=m)])

    # Z candidates are solved in chunks so the (c, n, m) residuals stay small
    kk = spec.k_n * spec.k_m
    chunk = max(1, 2_000_000 // (n * m + kk * kk))
    best = None  # (objective, x, b, z)
    pairs = 0
    for x in x_iter:
        for lo in range(0, len(z_all), chunk):
            zc = z_all[lo:lo + chunk]
            b = _solve_b(x[None], zc, mask, yp)
            resid = mask * (yp - x @ b @ zc.transpose(0, 2, 1))
            objs = np.sum(resid * resid, axis=(1, 2))
            c = int(np.argmin(objs))
            pairs += len(zc)
            if best is None or objs[c] < best[0]:
                best = (float(objs[c]), x.copy(), b[c], zc[c].copy())

    obj, x_best, b_best, z_best = best
    fact = Factorization(x=x_best, b=b_best, z=z_best)
    return EstimateResult(theta_hat=assemble(fact), objective=obj, factorization=fact,
                          iterations=pairs, restarts_used=0, converged=True)


# ---------- block coordinate descent ---------- #

def _row_objs(y, mask, p_rows, rows):
    """Masked squared residual of each row given its factor row (batched)."""
    fit = rows @ p_rows
    r = mask * (y - fit)
    return np.sum(r * r, axis=1)


def _update_rows_finite(y, mask, p_rows, cand):
    """Exact per-row argmin over candidate rows; valid because the masked
    residual decomposes across rows given the other factors."""
    prod = cand @ p_rows                       # (C, cols)
    my = mask * y
    base = np.sum(my * y, axis=1)
    scores = base[:, None] - 2.0 * (my @ prod.T) + mask @ (prod * prod).T
    idx = np.argmin(scores, axis=1)
    return cand[idx], scores[np.arange(len(y)), idx]


_SUPPORT_LIMIT = 128


def _interval_bounds(alphabet: Alphabet, bounded: bool) -> tuple[float, float]:
    lo, hi = alphabet.lo, alphabet.hi
    if bounded:
        lo, hi = max(lo, -1.0), min(hi, 1.0)
    return lo, hi


def _update_rows_interval(y, mask, p_rows, rows_cur, s, lo, hi):
    """Continuous row update: per-support masked least squares with clipping,
    batched over rows and over the supports of each size; falls back to
    truncate-to-s when the support count is large. A row only changes if its
    masked objective does not increase.

    When every row has the same mask (p = 1) the per-row Grams are equal, so
    each sub-Gram is factored once instead of once per row."""
    r, k = rows_cur.shape
    g = np.einsum("kj,ij,lj->ikl", p_rows, mask, p_rows)   # (r, k, k)
    c = np.einsum("kj,ij,ij->ik", p_rows, mask, y)         # (r, k)
    base = np.sum(mask * y * y, axis=1)
    shared = bool(np.all(mask == mask[0]))

    def quad_obj(v):
        # masked residual of rows v: base - 2 v.c + v G v
        return base - 2.0 * np.sum(v * c, axis=1) + np.einsum("ik,ikl,il->i", v, g, v)

    def solve(gs, cs):
        # minimum-norm solutions of gs[i, t] v = cs[i, t], rows i, supports t
        if shared:
            return np.einsum("tkl,itl->itk", np.linalg.pinv(gs[0], rcond=_RCOND), cs)
        return np.einsum("itkl,itl->itk", np.linalg.pinv(gs, rcond=_RCOND), cs)

    def offer(v):
        obj = quad_obj(v)
        take = obj < best_obj
        best_rows[take] = v[take]
        best_obj[take] = obj[take]

    best_rows = rows_cur.copy()
    best_obj = quad_obj(rows_cur)
    if sum(math.comb(k, j) for j in range(s + 1)) <= _SUPPORT_LIMIT:
        offer(np.zeros((r, k)))
        for j in range(1, s + 1):
            sups = np.array(list(itertools.combinations(range(k), j)))    # (t, j)
            sols = np.clip(solve(g[:, sups[:, :, None], sups[:, None, :]], c[:, sups]), lo, hi)
            for t, sup in enumerate(sups):
                v = np.zeros((r, k))
                v[:, sup] = sols[:, t]
                offer(v)
    else:
        # truncate the unrestricted solution to the s largest coordinates
        sol = solve(g[:, None], c[:, None])[:, 0]
        keep = np.argsort(-np.abs(sol), axis=1)[:, :s]
        v = np.zeros((r, k))
        np.put_along_axis(v, keep, np.clip(np.take_along_axis(sol, keep, axis=1), lo, hi), axis=1)
        offer(v)
    return best_rows, best_obj


def _init_factor(rng, rows, k, s, alphabet, bounded, cand):
    """Random factor: rows drawn from the finite candidate table cand, or
    random s-sparse interval rows when cand is None; the identity if s = 0."""
    if s == 0:
        return np.eye(rows)
    if cand is not None:
        return cand[rng.integers(0, len(cand), size=rows)]
    lo, hi = _interval_bounds(alphabet, bounded)
    out = np.zeros((rows, k))
    for i in range(rows):
        support = rng.choice(k, size=s, replace=False)
        out[i, support] = rng.uniform(lo, hi, size=s)
    return out


_INIT_POOL = 32


def block_coordinate_ls(obs: Observation, spec: StructureSpec, cfg: SolverConfig, seed: int,
                        trace: list | None = None, path: tuple[int, ...] = ()) -> EstimateResult:
    """Coordinate descent: closed-form B, exact per-row X updates, exact
    per-row Z updates, repeated until the relative decrease falls below
    cfg.tol; best of cfg.restarts random initializations.

    Each restart seeds the descent with the best of a pool of random (X, Z)
    draws, each judged by its masked residual under its own B, all of which
    come from one batched B-solve; the discrete landscape has many block-wise
    local minima, and spending the restart budget on well-placed starts is
    what makes small restart counts reliable.

    The objective is non-increasing across every update (finite rows by
    exhaustive per-row argmin, continuous rows and clipped B by the
    accept-only-if-not-worse rule).
    """
    for s, alph, k, side in ((spec.s_n, spec.alphabet_n, spec.k_n, "X"),
                             (spec.s_m, spec.alphabet_m, spec.k_m, "Z")):
        if s > 0 and alph.kind == "finite":
            count = row_candidate_count(k, s, alph)
            if count > 1_000_000:
                raise EnumerationRefusal(
                    f"per-row candidate count {count} for {side} exceeds 10^6"
                )

    yp = obs.y_rescaled
    mask = obs.mask
    cand_x = (None if spec.s_n == 0 or spec.alphabet_n.kind != "finite"
              else _candidate_rows(spec.k_n, spec.s_n, spec.alphabet_n, spec.bounded))
    cand_z = (None if spec.s_m == 0 or spec.alphabet_m.kind != "finite"
              else _candidate_rows(spec.k_m, spec.s_m, spec.alphabet_m, spec.bounded))

    pool = 1 if spec.s_n == 0 and spec.s_m == 0 else _INIT_POOL
    best = None
    for r_idx in range(cfg.restarts):
        rng = stream(seed, PURPOSE_SOLVER, *path, r_idx)
        xs, zs = [], []
        for _ in range(pool):
            xs.append(_init_factor(rng, spec.n, spec.k_n, spec.s_n, spec.alphabet_n,
                                   spec.bounded, cand_x))
            zs.append(_init_factor(rng, spec.m, spec.k_m, spec.s_m, spec.alphabet_m,
                                   spec.bounded, cand_z))
        # an identity side is shared by every draw: pass it as a batch of one
        bs = _solve_b(np.array(xs if spec.s_n else xs[:1]),
                      np.array(zs if spec.s_m else zs[:1]), mask, yp)
        if spec.bounded:
            bs = np.clip(bs, -spec.b_max, spec.b_max)
        x = z = b = None
        obj = math.inf
        for x_try, b_try, z_try in zip(xs, bs, zs):
            obj_try = _masked_obj(yp, mask, x_try @ b_try @ z_try.T)
            if obj_try < obj:
                x, z, b, obj = x_try, z_try, b_try, obj_try
        converged = False
        sweeps = 0
        for sweeps in range(1, cfg.max_iterations + 1):
            prev = obj
            # B block: closed form; clipping under bounds is accept-if-not-worse
            b_new = solve_b_given_xz(obs, x, z)
            if spec.bounded:
                b_new = np.clip(b_new, -spec.b_max, spec.b_max)
                if _masked_obj(yp, mask, x @ b_new @ z.T) <= obj:
                    b = b_new
            else:
                b = b_new
            # X rows: residual decomposes across rows given (B, Z)
            if spec.s_n > 0:
                p_rows = b @ z.T
                if cand_x is not None:
                    x, _ = _update_rows_finite(yp, mask, p_rows, cand_x)
                else:
                    lo, hi = _interval_bounds(spec.alphabet_n, spec.bounded)
                    x, _ = _update_rows_interval(yp, mask, p_rows, x, spec.s_n, lo, hi)
            # Z rows: the same update on the transposed problem
            if spec.s_m > 0:
                q_rows = (x @ b).T
                if cand_z is not None:
                    z, _ = _update_rows_finite(yp.T, mask.T, q_rows, cand_z)
                else:
                    lo, hi = _interval_bounds(spec.alphabet_m, spec.bounded)
                    z, _ = _update_rows_interval(yp.T, mask.T, q_rows, z, spec.s_m, lo, hi)
            obj = _masked_obj(yp, mask, x @ b @ z.T)
            if obj > prev + 1e-9 * (1.0 + prev):  # descent is structural; a rise is a bug
                raise RuntimeError(f"objective increased {prev} -> {obj}")
            if trace is not None:
                trace.append(obj)
            if prev - obj <= cfg.tol * max(prev, 1e-300):
                converged = True
                break
        if best is None or obj < best[0]:
            best = (obj, x, b, z, sweeps, converged)

    obj, x, b, z, sweeps, converged = best
    fact = Factorization(x=x, b=b, z=z)
    return EstimateResult(theta_hat=assemble(fact), objective=obj, factorization=fact,
                          iterations=sweeps, restarts_used=cfg.restarts, converged=converged)


# ---------- spectral estimators ---------- #

def hard_threshold(obs: Observation, lam: float) -> EstimateResult:
    """Keep the singular components of Y' = Y/p with singular value >= lam.

    The objective reports the discarded energy sum_{sigma_j < lam} sigma_j^2.
    """
    if lam < 0:
        raise ParameterError("lambda must be >= 0")
    u, s, vt = np.linalg.svd(obs.y_rescaled, full_matrices=False)
    keep = s >= lam
    theta = (u[:, keep] * s[keep]) @ vt[keep]
    return EstimateResult(theta_hat=theta, objective=float(np.sum(s[~keep] ** 2)),
                          iterations=0, restarts_used=0, converged=True)


def spectral_threshold(b: float, theta_mx: float, n: int, m: int, p: float, c: float) -> float:
    """lambda = c (b + theta_mx) sqrt(max(n, m) / p)."""
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"p must lie in (0, 1], got {p}")
    if p < math.log(n + m) / max(n, m):
        warnings.warn(
            f"p = {p} is below log(n+m)/(n v m) = {math.log(n + m) / max(n, m):.4g}; "
            "the threshold guarantee may not apply", stacklevel=2,
        )
    return c * (b + theta_mx) * math.sqrt(max(n, m) / p)


# ---------- adaptive penalized selection ---------- #

def adaptive_penalized(obs: Observation, base_spec: StructureSpec, lam: float,
                       cfg: SolverConfig, seed: int) -> EstimateResult:
    """Penalized least squares over the sparsity grid [1..k_n] x [1..k_m].

    Each cell minimizes the unrescaled masked residual ||Y - theta_Omega||^2
    (the criterion needs no knowledge of p) within the bounded class at that
    sparsity, then pays lam * R(s_n, s_m). Ties go to smaller s_n + s_m, then
    smaller s_n. Solver refusals propagate.
    """
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    n, m, d = base_spec.n, base_spec.m, base_spec.d
    if n * m * math.log(3 * math.sqrt(min(n, m))) < 6 * math.log(base_spec.k_n * base_spec.k_m) or d < 10:
        warnings.warn("problem size is below the regime the penalty calibration targets",
                      stacklevel=2)
    pens = {(s_n, s_m): penalty(s_n, s_m, base_spec)
            for s_n in range(1, base_spec.k_n + 1) for s_m in range(1, base_spec.k_m + 1)}
    gaps = [pen - pens[1, 1] for s, pen in pens.items() if s != (1, 1)]
    # the zero matrix lies in every cell, so no cell's residual exceeds ||Y_Omega||^2
    if gaps and lam * min(gaps) > float(np.sum(obs.y * obs.y)):
        warnings.warn("lambda * (smallest penalty gap to (1, 1)) exceeds ||Y_Omega||^2: "
                      "the penalty alone selects (1, 1)", stacklevel=2)
    # p = 1 wrapper: the solvers' masked objective then equals ||Y - theta_Omega||^2
    raw = Observation(y=obs.y, mask=obs.mask, p=1.0, sigma=obs.sigma, b=obs.b)

    best = None
    for (s_n, s_m), pen in pens.items():
        spec_s = replace(base_spec, s_n=s_n, s_m=s_m)
        size = enumeration_size(spec_s)
        if size is not None and size <= cfg.exhaustive_limit:
            res = exact_least_squares(raw, spec_s, cfg)
        else:
            res = block_coordinate_ls(raw, spec_s, cfg, seed, path=(s_n, s_m))
        key = (res.objective + lam * pen, s_n + s_m, s_n)
        if best is None or key < best[0]:
            best = (key, (s_n, s_m), res)

    key, sel, res = best
    return EstimateResult(theta_hat=res.theta_hat, objective=key[0],
                          factorization=res.factorization, selected_s=sel,
                          iterations=res.iterations, restarts_used=res.restarts_used,
                          converged=res.converged)
