"""The three estimators: exact / block-coordinate least squares over the
sparse-factor class, SVD hard thresholding, and the sparsity-adaptive
penalized selector.

The combinatorial search only ever ranges over (X, Z): the middle factor is
unconstrained, so B is profiled out in closed form by masked least squares,
one normal-equations solve on the (k_n k_m)-square Gram of the masked design
(minimum-Frobenius-norm solution). When every row of both outer factors has
at most one nonzero (one-hot factors, an identity side) the Gram is diagonal
and B is the masked block mean. Otherwise the Gram, symmetric PSD, is solved
by its eigendecomposition (eigh). Either way the cutoff _RCOND applies to the
Gram's eigenvalues, so design singular values below sqrt(_RCOND) * sigma_max
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
    "METHODS",
    "EstimateResult",
    "SolverConfig",
    "EnumerationRefusal",
    "solve_b_given_xz",
    "exact_least_squares",
    "block_coordinate_ls",
    "hard_threshold",
    "spectral_threshold",
    "adaptive_penalized",
    "estimate",
]

METHODS = ("exact", "bcd", "svt", "adaptive")

_RCOND = 1e-10
# per-row candidate count above which a finite side cannot be swept by bcd
ROW_CANDIDATE_LIMIT = 1_000_000


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
    (z_j z_j^T), never forming the (n m, k_n k_m) design:
    - if every row of x and of z has at most one nonzero (one-hot factors, an
      identity side), G is diagonal, d = ((x*x)^T E)(z*z), and B is the masked
      block mean d^-1 (X^T Y' Z) under eigh's cutoff: entries of d <= _RCOND *
      max(d) of the pair count as zero; memory per pair O(k_n (n + m + k_m)).
    - otherwise one eigh call (_psd_solve) covers the batch; memory per pair
      O((n + m)(k_n^2 + k_m^2) + (k_n k_m)^2).
    """
    _, n, k_n = x.shape
    _, m, k_m = z.shape
    rhs = (x.transpose(0, 2, 1) @ yp) @ z
    # more nonzeros than rows fails at once; short-axis reductions are slow, so rows
    # are counted by a matrix-vector product and max(d) reduces a transposed copy
    if all(np.count_nonzero(f) <= len(f) * f.shape[1]
           and ((f.reshape(-1, f.shape[2]) != 0) @ np.ones(f.shape[2])).max() <= 1 for f in (x, z)):
        d = ((x * x).transpose(0, 2, 1) @ mask) @ (z * z)
        d_max = np.ascontiguousarray(d.reshape(len(d), -1).T).max(axis=0)
        keep = d > _RCOND * d_max[:, None, None]
        return np.divide(1.0, d, out=np.zeros_like(d), where=keep) * rhs
    xx = (x[:, :, :, None] * x[:, :, None, :]).reshape(-1, n, k_n * k_n)
    zz = (z[:, :, :, None] * z[:, :, None, :]).reshape(-1, m, k_m * k_m)
    g = (xx.transpose(0, 2, 1) @ mask) @ zz
    c = len(g)
    g = g.reshape(c, k_n, k_n, k_m, k_m).transpose(0, 1, 3, 2, 4)
    kk = k_n * k_m
    return _psd_solve(g.reshape(c, kk, kk), rhs.reshape(c, kk, 1)).reshape(c, k_n, k_m)


def _psd_solve(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of a stack of symmetric PSD systems g v = rhs,
    g of shape (c, k, k) and rhs of shape (c, k, r).

    One eigh call covers the stack; eigenvalues <= _RCOND * largest count as
    zero (pinv's cutoff), so an all-zero Gram gives 0. The inverse is never
    formed: v = U diag(1/w) U^T rhs on the kept eigenpairs.
    """
    w, u = np.linalg.eigh(g)
    keep = w > _RCOND * w[:, -1:]
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    return u @ (winv[:, :, None] * (u.transpose(0, 2, 1) @ rhs))


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


_OBJ_CHUNK = 1 << 14


def _masked_objs(yp, mask, x, b, z) -> np.ndarray:
    """Masked residuals of the fits x[i] b[i] z[i]^T, x or z being either a
    batch like b or a batch of one shared by every fit; computed in place in
    chunks of at most _OBJ_CHUNK entries, so the temporaries stay in cache."""
    out = np.empty(len(b))
    step = max(1, _OBJ_CHUNK // mask.size)
    for lo in range(0, len(b), step):
        part = slice(lo, lo + step)
        r = (x if len(x) == 1 else x[part]) @ b[part] \
            @ (z if len(z) == 1 else z[part]).transpose(0, 2, 1)
        np.subtract(yp, r, out=r)
        r *= mask
        r *= r
        out[part] = np.sum(r, axis=(1, 2))
    return out


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
            objs = _masked_objs(yp, mask, x[None], b, zc)
            c = int(np.argmin(objs))
            pairs += len(zc)
            if best is None or objs[c] < best[0]:
                best = (float(objs[c]), x.copy(), b[c], zc[c].copy())

    obj, x_best, b_best, z_best = best
    fact = Factorization(x=x_best, b=b_best, z=z_best)
    return EstimateResult(theta_hat=assemble(fact), objective=obj, factorization=fact,
                          iterations=pairs, restarts_used=0, converged=True)


# ---------- block coordinate descent ---------- #

def _update_rows_finite(my, base, mask, p_rows, cand):
    """Exact per-row argmin over candidate rows for a batch of a restarts;
    valid because the masked residual decomposes across rows given the other
    factors. my = mask * y and its row energies base = sum(my * y, axis=1)
    are fixed for a fit; p_rows is (a, k, cols) and the new rows (a, r, k)."""
    prod = cand @ p_rows                       # (a, C, cols)
    scores = (base[:, None] - 2.0 * (my @ prod.transpose(0, 2, 1))
              + mask @ (prod * prod).transpose(0, 2, 1))
    return cand[np.argmin(scores, axis=2)]


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
        # still pinv: a faster solve here waits on perfbench keeping one unit at a time (ROADMAP)
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
    draws from its own stream, each judged by its masked residual under its
    own B, all of which come from one batched B-solve; the discrete landscape
    has many block-wise local minima, and spending the restart budget on
    well-placed starts is what makes small restart counts reliable.

    The restarts descend in lockstep: a sweep makes one B-solve and, per
    finite side, one row update for every restart still active (interval rows
    go restart by restart), and each restart leaves at its own convergence
    sweep, ending as it would alone. trace gets each restart's objective per
    sweep, one segment per restart in restart order; the first restart with
    the least objective is kept.

    The objective is non-increasing across every update (finite rows by
    exhaustive per-row argmin, continuous rows and clipped B by the
    accept-only-if-not-worse rule).
    """
    for s, alph, k, side in ((spec.s_n, spec.alphabet_n, spec.k_n, "X"),
                             (spec.s_m, spec.alphabet_m, spec.k_m, "Z")):
        if s > 0 and alph.kind == "finite":
            count = row_candidate_count(k, s, alph)
            if count > ROW_CANDIDATE_LIMIT:
                raise EnumerationRefusal(
                    f"per-row candidate count {count} for {side} exceeds {ROW_CANDIDATE_LIMIT}"
                )

    yp = obs.y_rescaled
    mask = obs.mask
    cand_x = (None if spec.s_n == 0 or spec.alphabet_n.kind != "finite"
              else _candidate_rows(spec.k_n, spec.s_n, spec.alphabet_n, spec.bounded))
    cand_z = (None if spec.s_m == 0 or spec.alphabet_m.kind != "finite"
              else _candidate_rows(spec.k_m, spec.s_m, spec.alphabet_m, spec.bounded))

    pool = 1 if spec.s_n == 0 and spec.s_m == 0 else _INIT_POOL
    interval_side = (spec.s_n > 0 and cand_x is None) or (spec.s_m > 0 and cand_z is None)
    starts = []                      # (x, b, z, objective) of each restart's start
    for r_idx in range(cfg.restarts):
        rng = stream(seed, PURPOSE_SOLVER, *path, r_idx)
        if interval_side:
            xs, zs = [], []
            for _ in range(pool):
                xs.append(_init_factor(rng, spec.n, spec.k_n, spec.s_n, spec.alphabet_n,
                                       spec.bounded, cand_x))
                zs.append(_init_factor(rng, spec.m, spec.k_m, spec.s_m, spec.alphabet_m,
                                       spec.bounded, cand_z))
        else:
            # one integers call whose per-entry bounds give the per-draw
            # stream of _init_factor: rows_x indices into cand_x, then
            # rows_z into cand_z, for each draw in turn (an identity side
            # draws nothing)
            rows_x = spec.n if spec.s_n else 0
            rows_z = spec.m if spec.s_m else 0
            highs = np.repeat([len(cand_x) if rows_x else 1, len(cand_z) if rows_z else 1],
                              [rows_x, rows_z])
            idx = rng.integers(0, np.tile(highs, pool)).reshape(pool, rows_x + rows_z)
            xs = cand_x[idx[:, :rows_x]] if spec.s_n else None
            zs = cand_z[idx[:, rows_x:]] if spec.s_m else None
        # an identity side is shared by every draw: a batch of one
        xs = np.array(xs) if spec.s_n else np.eye(spec.n)[None]
        zs = np.array(zs) if spec.s_m else np.eye(spec.m)[None]
        bs = _solve_b(xs, zs, mask, yp)
        if spec.bounded:
            bs = np.clip(bs, -spec.b_max, spec.b_max)
        objs = _masked_objs(yp, mask, xs, bs, zs)
        j = int(np.argmin(objs))     # the first best draw; copies free the pool
        starts.append((xs[j if spec.s_n else 0].copy(), bs[j].copy(),
                       zs[j if spec.s_m else 0].copy(), objs[j]))

    def row_update(y, mk, s, alphabet, cand):
        """One side's update of every active restart's rows, given p_rows."""
        if cand is not None:
            my = mk * y
            base = np.sum(my * y, axis=1)
            return lambda p_rows, rows: _update_rows_finite(my, base, mk, p_rows, cand)
        lo, hi = _interval_bounds(alphabet, spec.bounded)
        return lambda p_rows, rows: np.array([
            _update_rows_interval(y, mk, p_r, rows_r, s, lo, hi)[0]
            for p_r, rows_r in zip(p_rows, rows)])

    update_x = row_update(yp, mask, spec.s_n, spec.alphabet_n, cand_x) if spec.s_n else None
    update_z = row_update(yp.T, mask.T, spec.s_m, spec.alphabet_m, cand_z) if spec.s_m else None
    # the state of the active restarts, live; an identity side stays a batch of one
    live = np.arange(cfg.restarts)
    x, b, z, obj = (np.array(v) for v in zip(*starts))
    x, z = (x if spec.s_n else x[:1]), (z if spec.s_m else z[:1])
    segments = [[] for _ in live]
    ends = [None] * cfg.restarts     # (x, b, z, converged) of each restart at its exit
    sweeps = 0
    while len(live):
        sweeps += 1
        prev = obj
        # B block: closed form; clipping under bounds is accept-if-not-worse
        b_new = _solve_b(x, z, mask, yp)
        if spec.bounded:
            b_new = np.clip(b_new, -spec.b_max, spec.b_max)
            better = _masked_objs(yp, mask, x, b_new, z) <= obj
            b = np.where(better[:, None, None], b_new, b)
        else:
            b = b_new
        # X rows: residual decomposes across rows given (B, Z); Z rows: the
        # same update on the transposed problem
        if spec.s_n:
            x = update_x(b @ z.transpose(0, 2, 1), x)
        if spec.s_m:
            z = update_z((x @ b).transpose(0, 2, 1), z)
        obj = _masked_objs(yp, mask, x, b, z)
        rose = np.flatnonzero(obj > prev + 1e-9 * (1.0 + prev))
        if len(rose):  # descent is structural; a rise is a bug
            raise RuntimeError(f"objective increased {prev[rose[0]]} -> {obj[rose[0]]}")
        converged = prev - obj <= cfg.tol * np.maximum(prev, 1e-300)
        done = converged | (sweeps == cfg.max_iterations)
        for j, r in enumerate(live):
            segments[r].append(float(obj[j]))
            if done[j]:
                ends[r] = (x[j if spec.s_n else 0], b[j], z[j if spec.s_m else 0],
                           bool(converged[j]))
        go = ~done
        live, obj, b = live[go], obj[go], b[go]
        x, z = (x[go] if spec.s_n else x), (z[go] if spec.s_m else z)

    if trace is not None:
        trace.extend(itertools.chain(*segments))
    kept = min(range(cfg.restarts), key=lambda r: segments[r][-1])
    x, b, z, converged = ends[kept]
    fact = Factorization(x=x, b=b, z=z)
    return EstimateResult(theta_hat=assemble(fact), objective=segments[kept][-1],
                          factorization=fact, iterations=len(segments[kept]),
                          restarts_used=cfg.restarts, converged=converged)


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

def _cell_method(spec: StructureSpec, cfg: SolverConfig) -> str:
    """The solver of one sparsity cell of adaptive_penalized: "exact" when the
    search is enumerable within cfg.exhaustive_limit, else "bcd"."""
    size = enumeration_size(spec)
    return "exact" if size is not None and size <= cfg.exhaustive_limit else "bcd"


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
        if _cell_method(spec_s, cfg) == "exact":
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


def estimate(method: str, obs: Observation, spec: StructureSpec, cfg: SolverConfig,
             seed: int, lam: float | None = None) -> EstimateResult:
    """Run the estimator named by method, one of METHODS. lam is the
    threshold of svt and the penalty weight of adaptive, which both need it;
    exact and bcd ignore it."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if method in ("svt", "adaptive") and lam is None:
        raise ParameterError(f"{method} needs lambda")
    if method == "exact":
        return exact_least_squares(obs, spec, cfg)
    if method == "bcd":
        return block_coordinate_ls(obs, spec, cfg, seed)
    if method == "svt":
        return hard_threshold(obs, lam)
    return adaptive_penalized(obs, spec, lam, cfg, seed)
