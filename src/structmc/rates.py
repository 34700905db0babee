"""Closed-form theory numbers.

Rate components for the least squares risk, the per-family rate table,
lower-bound values, metric-entropy (covering) bounds, the critical radius,
the adaptive penalty, and the Gaussian KL divergence. All logarithms are
natural — the formulas carry e inside (log(ek/s)), which forces ln.

Unspecified absolute constants are caller-supplied with default 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, StructureSpec
from .simulate import ModelFamily

__all__ = [
    "RateReport",
    "CoveringReport",
    "UnsupportedFamilyError",
    "ContractViolationError",
    "NoCrossingError",
    "rate_components",
    "family_rate",
    "lower_values",
    "covering_bounds",
    "covering_min_bound",
    "critical_radius",
    "kl_divergence",
    "penalty",
]


class UnsupportedFamilyError(ValueError):
    """The family has no closed-form rate table row."""


class ContractViolationError(RuntimeError):
    """A caller-supplied function violated its documented contract."""


class NoCrossingError(ValueError):
    """N eps^2 never reaches the covering estimate on (0, 1]."""


@dataclass(frozen=True)
class RateReport:
    r_x: float
    r_b: float
    r_z: float
    total: float
    frobenius_lower: float = 0.0
    spectral_lower: float = 0.0


@dataclass(frozen=True)
class CoveringReport:
    r1: float
    r2: float
    r3: float
    r4: float
    epsilon: float
    u: float
    epsilon0: float | None = None

    @property
    def min_bound(self) -> float:
        return min(self.r1, self.r2, self.r3, self.r4)


def _sparse_term(rows: int, s: int, k: int) -> float:
    """rows * s * ln(e k / s), with 0 * ln(x/0) = 0."""
    if s == 0:
        return 0.0
    return rows * s * math.log(math.e * k / s)


def rate_components(spec: StructureSpec, sigma: float | None = None, p: float | None = None,
                    c_frob: float = 1.0, c_spec: float = 1.0) -> RateReport:
    """R_X, R_B, R_Z and their sum for the class geometry.

    R_X = min(n r_m, n s_n ln(e k_n / s_n)) and vanishes at s_n = 0 (the
    factor is pinned to the identity, so there is nothing to learn);
    R_B = r_n r_m; R_Z symmetric to R_X. If sigma and p are given, the
    lower-bound values are filled in as well.
    """
    n, m = spec.n, spec.m
    r_n, r_m = spec.r_n, spec.r_m
    r_x = 0.0 if spec.s_n == 0 else min(n * r_m, _sparse_term(n, spec.s_n, spec.k_n))
    r_z = 0.0 if spec.s_m == 0 else min(m * r_n, _sparse_term(m, spec.s_m, spec.k_m))
    r_b = float(r_n * r_m)
    total = r_x + r_b + r_z
    frob_low = spec_low = 0.0
    if sigma is not None and p is not None:
        frob_low, spec_low = lower_values(spec, sigma, p, c_frob, c_spec)
    return RateReport(r_x=r_x, r_b=r_b, r_z=r_z, total=total,
                      frobenius_lower=frob_low, spectral_lower=spec_low)


def family_rate(family: ModelFamily) -> float:
    """Minimax rate table row for the family, evaluated verbatim."""
    v = family.variant
    if v == "mixture":
        n, m, k = family.n, family.m, family.k
        return min(n * math.log(math.e * k) + k * m, n * m)
    if v == "dictionary":
        d, n, k, s = family.d, family.n, family.k, family.s
        return min(n * s * math.log(math.e * k / s) + k * d, n * d)
    if v == "sbm":
        n, k = family.n, family.k
        return n * math.log(math.e * k) + k * k
    if v == "biclustering":
        n, m, k_n, k_m = family.n, family.m, family.k_n, family.k_m
        return min(
            n * math.log(math.e * k_n) + m * math.log(math.e * k_m) + k_n * k_m,
            n * k_m + m * math.log(math.e * k_m),
            m * k_n + n * math.log(math.e * k_n),
            n * m,
        )
    raise UnsupportedFamilyError(f"no rate table row for family {v!r}")


def lower_values(spec: StructureSpec, sigma: float, p: float,
                 c_frob: float = 1.0, c_spec: float = 1.0) -> tuple[float, float]:
    """(Frobenius, spectral) risk lower-bound values.

    c_frob * sigma^2/p * (R_X + R_B + R_Z) and c_spec * sigma^2/p * max(n, m).
    The constants are existence constants; defaults of 1 make the scaling
    explicit rather than hiding a guess.
    """
    if sigma < 0:
        raise ParameterError("sigma must be >= 0")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"p must lie in (0, 1], got {p}")
    if c_frob <= 0 or c_spec <= 0:
        raise ParameterError("constants must be positive")
    total = rate_components(spec).total
    frob = c_frob * sigma ** 2 / p * total
    spectral = c_spec * sigma ** 2 / p * max(spec.n, spec.m)
    return frob, spectral


def _pos(x: float) -> float:
    # covering counts are >= 1, so each log term is floored at 0
    return max(0.0, x)


def _covering_terms(spec: StructureSpec, u: float):
    """eps -> (R1, R2, R3, R4), shared by covering_bounds and covering_min_bound.

    Validates u and the spec once and hoists every epsilon-free part (the
    entropy terms, the coefficients and the numerators of the log
    arguments) and drops the log terms that vanish for every eps; a call
    then checks eps and takes the remaining logs: math.log on a float, or
    np.log elementwise on an array of eps, every entry checked.
    """
    if not (0.0 < u <= 1.0):
        raise ParameterError(f"u must lie in (0, 1], got {u}")
    if not spec.bounded:
        raise ParameterError("covering bounds are defined for bounded specs only")
    n, m = spec.n, spec.m
    s_n, s_m = spec.s_n, spec.s_m
    r_n, r_m = spec.r_n, spec.r_m
    b_max = spec.b_max
    root = math.sqrt(m * n)

    ent_n = _pos(_sparse_term(n, s_n, spec.k_n))
    ent_m = _pos(_sparse_term(m, s_m, spec.k_m))
    ent_nm = ent_n + ent_m
    cross6 = 6 * b_max * root * s_m * s_n
    cross2 = 2 * b_max * root * s_m * s_n
    u9, u6, u3 = 9 * u, 6 * u, 3 * u
    coef_cross, coef_b = n * s_n + m * s_m, r_n * r_m
    coef_x, coef_z, coef_dense = n * r_m, m * r_n, m * n
    coef_zs, coef_xs = m * s_m, n * s_n

    def active(*pairs):
        # a term coef * ln(num / eps) is 0 for every eps when coef = 0 (the
        # 0 * ln(0) = 0 convention) or num <= 0 (the argument is <= 0)
        return tuple((coef, num) for coef, num in pairs if coef != 0 and num > 0)

    # R = entropy part, then its log terms left to right, each floored at 0.
    # Float addition is commutative and adding 0.0 is exact, so starting from
    # the entropy part and skipping floored or inactive terms gives the
    # displayed formulas' values bit for bit.
    parts = ((ent_nm, active((coef_cross, cross6), (coef_b, u9))),
             (ent_m, active((coef_x, u6), (coef_zs, cross2))),
             (ent_n, active((coef_z, u6), (coef_xs, cross2))),
             (0.0, active((coef_dense, u3))))
    log = math.log

    def terms(epsilon):
        if isinstance(epsilon, np.ndarray):
            inside = (epsilon > 0.0) & (epsilon <= 1.0)
            if not np.all(inside):
                raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon[~inside].flat[0]}")
            out = []
            for r, logs in parts:
                r = np.full(epsilon.shape, r)
                for coef, num in logs:
                    r += np.maximum(coef * np.log(num / epsilon), 0.0)
                out.append(r)
            return out
        if not (0.0 < epsilon <= 1.0):
            raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon}")
        out = []
        for r, logs in parts:
            for coef, num in logs:
                v = coef * log(num / epsilon)
                if v > 0.0:
                    r += v
            out.append(r)
        return out

    return terms


def covering_bounds(spec: StructureSpec, u: float, epsilon: float) -> CoveringReport:
    """The four metric-entropy upper bounds at radius u and scale epsilon.

    Requires a bounded spec (the bounds need b_max / the sup-norm caps).
    Each displayed term is floored at 0 individually.
    """
    r1, r2, r3, r4 = _covering_terms(spec, u)(epsilon)
    return CoveringReport(r1=r1, r2=r2, r3=r3, r4=r4, epsilon=epsilon, u=u)


def covering_min_bound(spec: StructureSpec, u: float):
    """Callable eps -> min(R1..R4)(eps), the surrogate fed to critical_radius.

    u and the spec are validated here, once; each call checks only eps. An
    array of eps gives the array of values, each within an ulp or two of the
    float call's (np.log against math.log); every entry must lie in (0, 1].
    """
    terms = _covering_terms(spec, u)

    def fn(eps):
        if isinstance(eps, np.ndarray):
            return np.minimum.reduce(terms(eps))
        return min(terms(eps))
    return fn


_EPS_MIN = 1e-8
_GRID_POINTS = 10_000


def critical_radius(total_entries: float, covering_fn) -> float:
    """The entropy fixed point: N eps^2 crosses the log-cover estimate.

    Bisection of g(eps) = N eps^2 - covering_fn(eps) on (1e-8, 1], 200
    iterations. covering_fn must be non-increasing and never NaN, which is
    checked on a log-spaced probe grid of 10,000 points (violations raise
    ContractViolationError); +inf is allowed. At a continuity point the
    result satisfies the half/full sandwich exactly; across a jump it falls
    back to the average of the inf/sup characterization on the grid.

    covering_fn is called once with the whole probe grid, a float64 array,
    and must return the values there as an array of the grid's shape or as
    one value for every eps (a constant such as lambda e: 25.0). The
    bisection calls it with floats.
    """
    n_total = float(total_entries)
    if n_total <= 0:
        raise ParameterError("total_entries must be positive")
    grid = np.logspace(math.log10(_EPS_MIN), 0.0, _GRID_POINTS)
    cover = np.asarray(covering_fn(grid), dtype=float)
    if cover.shape not in ((), grid.shape):
        raise ContractViolationError(
            f"covering_fn must return one value or one per eps of the probe grid, "
            f"got shape {cover.shape}")
    cover = np.broadcast_to(cover, grid.shape)
    if np.any(np.isnan(cover)):
        i = int(np.argmax(np.isnan(cover)))
        raise ContractViolationError(f"covering_fn returned NaN at eps={grid[i]:.3g}")
    rises = np.diff(cover) > 1e-9 * np.maximum(1.0, np.abs(cover[:-1]))
    if np.any(rises):
        i = int(np.argmax(rises))
        raise ContractViolationError(
            f"covering_fn must be non-increasing; it rises between eps={grid[i]:.3g} "
            f"and eps={grid[i + 1]:.3g}"
        )

    def g(eps: float) -> float:
        return n_total * eps * eps - covering_fn(eps)

    if g(1.0) < 0.0:
        raise NoCrossingError(
            "N eps^2 stays below the covering estimate on all of (0, 1]; "
            "increase the number of entries or shrink the class"
        )
    if g(_EPS_MIN) >= 0.0:
        # covering estimate is already dominated at the left edge
        return _EPS_MIN
    lo, hi = _EPS_MIN, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    eps0 = 0.5 * (lo + hi)
    cov = covering_fn(eps0)
    lhs = n_total * eps0 * eps0
    if 0.5 * cov <= lhs * (1 + 1e-9) and lhs <= cov * (1 + 1e-9):
        return eps0
    # jump in covering_fn at the crossing: average the inf/sup characterization
    vals = n_total * grid * grid
    above = grid[vals > cover]
    below = grid[vals < cover]
    inf_part = float(above.min()) if above.size else 1.0
    sup_part = float(below.max()) if below.size else _EPS_MIN
    return 0.5 * (inf_part + sup_part)


def kl_divergence(theta: np.ndarray, theta_prime: np.ndarray, p: float, sigma: float) -> float:
    """KL between the observation laws of two signals: p ||theta-theta'||_2^2 / (2 sigma^2)."""
    if sigma <= 0:
        raise ParameterError("sigma must be positive for the KL divergence")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"p must lie in (0, 1], got {p}")
    diff = np.asarray(theta, dtype=float) - np.asarray(theta_prime, dtype=float)
    return float(p * np.sum(diff * diff) / (2.0 * sigma ** 2))


def penalty(s_n: int, s_m: int, spec: StructureSpec) -> float:
    """Adaptive model-selection penalty R(s_n, s_m), natural logs.

    Evaluated exactly as displayed — k_n appears inside BOTH bracketed log
    terms (not k_m in the second); tests pin that transcription.
    """
    if not (1 <= s_n <= spec.k_n):
        raise ParameterError(f"s_n must lie in [1, k_n], got {s_n}")
    if not (1 <= s_m <= spec.k_m):
        raise ParameterError(f"s_m must lie in [1, k_m], got {s_m}")
    n, m = spec.n, spec.m
    r_n, r_m = spec.r_n, spec.r_m
    low = min(n, m)
    wide = math.log(6 * math.sqrt(low))
    narrow = math.log(spec.k_n * s_m * low)
    return (min(n * r_m * wide, n * s_n * narrow)
            + min(m * r_n * wide, m * s_m * narrow)
            + r_n * r_m * math.log(9 * math.sqrt(low)))
