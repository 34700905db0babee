"""Data model for structured matrices theta = X B Z^T.

Specs describe the class geometry (dimensions, row sparsity, alphabets,
optional sup-norm bounds), factorizations are concrete (X, B, Z) triples,
observations hold the masked data together with the sampling probability.
Everything is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "Alphabet",
    "StructureSpec",
    "Factorization",
    "Observation",
    "ValidationReport",
    "Norms",
    "ShapeError",
    "ParameterError",
    "assemble",
    "validate_membership",
    "norms",
    "spectral_norm",
    "matrix_to_obj",
    "matrix_from_obj",
    "observation_to_obj",
    "observation_from_obj",
    "factorization_to_obj",
    "factorization_from_obj",
    "spec_to_obj",
    "spec_from_obj",
    "dumps_canonical",
    "load_json",
]


class ShapeError(ValueError):
    """Dimension mismatch between factors or data."""


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


def _check_range(name: str, value, lo=-np.inf, hi=np.inf, *, open_lo: bool = False) -> None:
    """The numeric-parameter rule: value must be a finite number in [lo, hi],
    or in (lo, hi] with open_lo. A NaN fails every comparison and None or a
    string fails to compare, so each fails by construction. The message is
    worded from the bounds and names value."""
    try:
        ok = -np.inf < value < np.inf and (lo < value if open_lo else lo <= value) and value <= hi
    except TypeError:
        ok = False
    if not ok:
        if hi < np.inf:
            rule = f"lie in {'(' if open_lo else '['}{lo}, {hi}]"
        elif lo == -np.inf:
            rule = "be finite"
        else:
            bound = ("positive" if lo == 0 else f"> {lo}") if open_lo else f">= {lo}"
            rule = f"be {bound} and finite"
        raise ParameterError(f"{name} must {rule}, got {value}")


def _freeze(a, dtype=float) -> np.ndarray:
    """Defensive copy as a read-only float array."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# ---------- alphabets ---------- #

@dataclass(frozen=True)
class Alphabet:
    """Set of allowed non-zero values in a factor matrix.

    kind is "finite" (explicit sorted values) or "interval" ([lo, hi]).
    """

    kind: str
    values: tuple[float, ...] | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind == "finite":
            if not self.values:
                raise ParameterError("finite alphabet must be non-empty")
            vals = tuple(float(v) for v in self.values)
            # strictly increasing: each value lies above the one before it
            for before, v in zip((-np.inf, *vals), vals):
                _check_range("alphabet value", v, before, open_lo=True)
            object.__setattr__(self, "values", vals)
        elif self.kind == "interval":
            _check_range("alphabet lo", self.lo)
            _check_range("alphabet hi", self.hi, self.lo)
        else:
            raise ParameterError(f"unknown alphabet kind {self.kind!r}")

    @classmethod
    def finite(cls, values) -> "Alphabet":
        return cls(kind="finite", values=tuple(sorted(float(v) for v in set(values))))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Alphabet":
        return cls(kind="interval", lo=float(lo), hi=float(hi))

    def contains(self, v, tol: float = 0.0):
        """Whether v is an allowed non-zero value (within tol): a bool for a
        float, and for an array a bool array of its shape. NaN is never
        contained."""
        v = np.asarray(v, dtype=float)
        if self.kind == "finite":
            hit = np.min(np.abs(np.asarray(self.values) - v[..., None]), axis=-1) <= tol
        else:
            hit = (self.lo - tol <= v) & (v <= self.hi + tol)
        return bool(hit) if hit.ndim == 0 else hit


# ---------- problem geometry ---------- #

def _entry_alphabet(alphabet: Alphabet, s: int, bounded: bool, side: str) -> Alphabet:
    """The part of alphabet a bounded class allows, |v| <= 1: its finite values
    in [-1, 1] or its interval clipped to them; unbounded, or on an identity
    side (s = 0), the alphabet itself. A side left no value is refused."""
    if not bounded or s == 0:
        return alphabet
    if alphabet.kind == "finite":
        values = tuple(v for v in alphabet.values if abs(v) <= 1.0)
        if values:
            return replace(alphabet, values=values)
    elif max(alphabet.lo, -1.0) <= min(alphabet.hi, 1.0):
        return Alphabet.interval(max(alphabet.lo, -1.0), min(alphabet.hi, 1.0))
    raise ParameterError(f"bounded class leaves {side} no entry: its alphabet has none in [-1, 1]")


@dataclass(frozen=True)
class StructureSpec:
    """Geometry of the class: theta = X B Z^T with row-sparse alphabet factors.

    s_n = 0 forces X to the n x n identity (so k_n must equal n); same for
    s_m / Z. With bounded=True the class additionally imposes |X|, |Z| <= 1
    (see entry_alphabets), |B| <= b_max and |theta| <= theta_mx entrywise.
    """

    n: int
    m: int
    k_n: int
    k_m: int
    s_n: int
    s_m: int
    alphabet_n: Alphabet
    alphabet_m: Alphabet
    b_max: float = 1.0
    theta_mx: float = 1.0
    bounded: bool = False

    def __post_init__(self):
        for name in ("n", "m", "k_n", "k_m"):
            _check_range(name, getattr(self, name), 1)
        _check_range("s_n", self.s_n, 0, self.k_n)
        _check_range("s_m", self.s_m, 0, self.k_m)
        # s = 0 means the factor is pinned to the identity
        if self.s_n == 0 and self.k_n != self.n:
            raise ParameterError("s_n = 0 forces X = I, which requires k_n = n")
        if self.s_m == 0 and self.k_m != self.m:
            raise ParameterError("s_m = 0 forces Z = I, which requires k_m = m")
        _check_range("b_max", self.b_max, 0, open_lo=True)
        _check_range("theta_mx", self.theta_mx, 0, open_lo=True)
        object.__setattr__(self, "_entry_alphabets", (
            _entry_alphabet(self.alphabet_n, self.s_n, self.bounded, "X"),
            _entry_alphabet(self.alphabet_m, self.s_m, self.bounded, "Z")))

    @property
    def d(self) -> int:
        return self.n + self.m

    @property
    def r_n(self) -> int:
        return min(self.n, self.k_n)

    @property
    def r_m(self) -> int:
        return min(self.m, self.k_m)

    @property
    def entry_alphabets(self) -> tuple[Alphabet, Alphabet]:
        """The alphabets of the nonzero entries of X and of Z (_entry_alphabet),
        which every generator, search and cost rule reads."""
        return self._entry_alphabets

    def unbounded(self) -> "StructureSpec":
        """The same geometry with the sup-norm bounds dropped."""
        return replace(self, bounded=False)


def _check_p(p: float) -> None:
    """The sampling-rate rule 0 < p <= 1."""
    _check_range("p", p, 0, 1, open_lo=True)


@dataclass(frozen=True)
class Factorization:
    """A concrete triple (X, B, Z); the represented matrix is X B Z^T."""

    x: np.ndarray
    b: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(self.x))
        object.__setattr__(self, "b", _freeze(self.b))
        object.__setattr__(self, "z", _freeze(self.z))
        for name, arr in (("X", self.x), ("B", self.b), ("Z", self.z)):
            if arr.ndim != 2:
                raise ShapeError(f"{name} must be a 2-d matrix, got shape {arr.shape}")


@dataclass(frozen=True)
class Observation:
    """Masked data Y with Bernoulli mask E and sampling probability p.

    Masked entries are stored as exact zeros; y_rescaled = y / p is the
    unbiased surrogate of the signal.
    """

    y: np.ndarray
    mask: np.ndarray
    p: float
    sigma: float = 0.0
    b: float | None = None

    def __post_init__(self):
        y = _freeze(self.y)
        mask = _freeze(self.mask)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "mask", mask)
        if y.shape != mask.shape:
            raise ShapeError(f"y has shape {y.shape} but mask has shape {mask.shape}")
        if not np.all((mask == 0) | (mask == 1)):
            raise ParameterError("mask entries must be 0 or 1")
        _check_p(self.p)
        if np.any(y[mask == 0] != 0):
            raise ParameterError("y must be exactly 0 wherever mask is 0")
        if not np.all(np.isfinite(y)):
            raise ParameterError("observed entries of y must be finite")
        _check_range("sigma", self.sigma, 0)
        if self.b is not None:
            _check_range("b", self.b, 0)

    @property
    def y_rescaled(self) -> np.ndarray:
        return self.y / self.p

    @property
    def shape(self) -> tuple[int, int]:
        return self.y.shape


@dataclass(frozen=True)
class ValidationReport:
    accepted: bool
    violations: tuple[str, ...] = ()


class Norms(NamedTuple):
    frobenius: float
    spectral: float
    sup: float


# ---------- operations ---------- #

def assemble(f: Factorization) -> np.ndarray:
    """Dense product X B Z^T."""
    x, b, z = f.x, f.b, f.z
    if x.shape[1] != b.shape[0]:
        raise ShapeError(f"B has {b.shape[0]} rows but X has {x.shape[1]} columns")
    if z.shape[1] != b.shape[1]:
        raise ShapeError(f"Z has {z.shape[1]} columns but B has {b.shape[1]} columns")
    return x @ b @ z.T


def _check_finite(name, a, violations):
    """One violation per NaN or infinite entry of a; a NaN compares false, so
    no other check sees it."""
    bad = ~np.isfinite(a)
    if bad.any():
        for i, j in np.argwhere(bad):
            violations.append(f"non-finite {name}, entry ({i},{j}): value {float(a[i, j])}")


def _magnitudes(a: np.ndarray) -> np.ndarray:
    """|a| with NaN entries read as 0, for the sup-norm bounds: a NaN is
    reported as non-finite and must not hide the other entries' violations."""
    return np.where(np.isnan(a), 0.0, np.abs(a))


def _check_factor(name, a, k, s, alphabet, bounded, tol, violations):
    """Finiteness, row-sparsity and alphabet checks for one factor (X or Z);
    the alphabet is tested on all nonzeros in one call."""
    _check_finite(name, a, violations)
    rows, cols = a.shape
    if cols != k:
        violations.append(f"shape {name}: expected {k} columns, got {cols}")
        return
    if s == 0:
        # the identity is the sole member
        if rows != cols or np.max(np.abs(a - np.eye(rows))) > tol:
            violations.append(f"{name} must equal the identity when s = 0")
        return
    nz = np.abs(a) > tol
    counts = nz.sum(axis=1)
    for i in np.nonzero(counts > s)[0]:
        violations.append(f"row-sparsity {name}, row {i}: {int(counts[i])} non-zeros > s = {s}")
    vals = a[nz]
    foreign = ~alphabet.contains(vals, tol)
    if foreign.any():
        for (i, j), v in zip(np.argwhere(nz)[foreign], vals[foreign]):
            violations.append(f"alphabet {name}, entry ({i},{j}): value {float(v)} not in alphabet")
    mag = _magnitudes(a) if bounded else None
    if bounded and np.max(mag) > 1 + tol:
        i, j = np.unravel_index(np.argmax(mag), a.shape)
        violations.append(f"‖{name}‖_∞ ≤ 1 violated at ({i},{j}): {float(a[i, j])}")


def validate_membership(f: Factorization, spec: StructureSpec, tol: float = 0.0) -> ValidationReport:
    """Check every class invariant of f under spec.

    Violations are data, not failures: each one names the constraint, the
    index and the offending value. Every NaN or infinite entry of X, B and Z
    is one. tol = 0 suits freshly generated factors (exact values); for factors
    read back from decimal text, tol = 1e-9 absorbs the round-trip.
    """
    _check_range("tol", tol, 0)
    violations: list[str] = []
    if f.x.shape[0] != spec.n:
        violations.append(f"shape X: expected {spec.n} rows, got {f.x.shape[0]}")
    if f.z.shape[0] != spec.m:
        violations.append(f"shape Z: expected {spec.m} rows, got {f.z.shape[0]}")
    if f.b.shape != (spec.k_n, spec.k_m):
        violations.append(f"shape B: expected {(spec.k_n, spec.k_m)}, got {f.b.shape}")
    _check_factor("X", f.x, spec.k_n, spec.s_n, spec.alphabet_n, spec.bounded, tol, violations)
    _check_factor("Z", f.z, spec.k_m, spec.s_m, spec.alphabet_m, spec.bounded, tol, violations)
    _check_finite("B", f.b, violations)
    if spec.bounded and not any(v.startswith("shape") for v in violations):
        b_sup = float(np.max(_magnitudes(f.b)))
        if b_sup > spec.b_max + tol:
            violations.append(f"‖B‖_∞ ≤ b_max violated: {b_sup} > {spec.b_max}")
        theta_sup = float(np.max(_magnitudes(assemble(f))))
        if theta_sup > spec.theta_mx + tol:
            violations.append(f"‖θ‖_∞ ≤ theta_mx violated: {theta_sup} > {spec.theta_mx}")
    return ValidationReport(accepted=not violations, violations=tuple(violations))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value.

    Full SVD up to 512x512; power iteration (tol 1e-10, max 10_000 iterations)
    above that.
    """
    a = np.asarray(a, dtype=float)
    if max(a.shape) <= 512:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    # power iteration on A^T A
    v = np.ones(a.shape[1]) / np.sqrt(a.shape[1])
    sigma = 0.0
    for _ in range(10_000):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = np.sqrt(nw)
        if abs(new_sigma - sigma) <= 1e-10 * max(1.0, new_sigma):
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def norms(a: np.ndarray) -> Norms:
    """(frobenius, spectral, sup) of a non-empty matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ParameterError("matrix must be non-empty")
    return Norms(
        frobenius=float(np.sqrt(np.sum(a * a))),
        spectral=spectral_norm(a),
        sup=float(np.max(np.abs(a))),
    )


# ---------- JSON formats ---------- #
# Dense matrix: {"rows": n, "cols": m, "data": [row-major reals]}.
# Observation adds {"mask": [row-major 0/1], "p": real, "sigma": real, "b": real-or-null}.
# Factorization: {"x": matrix, "b": matrix, "z": matrix}.
# Spec mirrors StructureSpec with alphabets as tagged objects.

def matrix_to_obj(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": [float(v) for v in a.ravel()]}


def _field(obj: dict, key: str, what: str):
    """obj[key], or a ParameterError that names the missing key."""
    try:
        return obj[key]
    except KeyError:
        raise ParameterError(f"{what} JSON is missing required key {key!r}") from None


def _known(obj, keys, what: str) -> dict:
    """obj, once it is a JSON object with no key outside keys; otherwise a
    ParameterError that names the stray key, so a misspelt optional key is
    never silently replaced by its default."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ParameterError(f"{what} JSON has unknown key {key!r}")
    return obj


def _loader(what: str):
    """Report a value of the wrong type or form in a loaded JSON object as a
    ParameterError naming the object; the package's own errors pass."""
    def wrap(load):
        @functools.wraps(load)
        def checked(obj):
            try:
                return load(obj)
            except (ParameterError, ShapeError):
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"malformed {what} JSON: {exc}") from exc
        return checked
    return wrap


_MATRIX_KEYS = ("rows", "cols", "data")


@_loader("matrix")
def matrix_from_obj(obj: dict) -> np.ndarray:
    _known(obj, _MATRIX_KEYS, "matrix")
    rows, cols = int(_field(obj, "rows", "matrix")), int(_field(obj, "cols", "matrix"))
    data = np.asarray(_field(obj, "data", "matrix"), dtype=float)
    if data.size != rows * cols:
        raise ShapeError(f"matrix data has {data.size} entries, expected {rows * cols}")
    return data.reshape(rows, cols)


def observation_to_obj(obs: Observation) -> dict:
    out = matrix_to_obj(obs.y)
    out["mask"] = [int(v) for v in obs.mask.ravel()]
    out["p"] = float(obs.p)
    out["sigma"] = float(obs.sigma)
    out["b"] = None if obs.b is None else float(obs.b)
    return out


@_loader("observation")
def observation_from_obj(obj: dict) -> Observation:
    _known(obj, (*_MATRIX_KEYS, "mask", "p", "sigma", "b"), "observation")
    y = matrix_from_obj({key: obj[key] for key in _MATRIX_KEYS if key in obj})
    mask = np.asarray(_field(obj, "mask", "observation"), dtype=float).reshape(y.shape)
    b = obj.get("b")
    return Observation(y=y, mask=mask, p=float(_field(obj, "p", "observation")),
                       sigma=float(obj.get("sigma", 0.0)),
                       b=None if b is None else float(b))


def factorization_to_obj(f: Factorization) -> dict:
    return {"x": matrix_to_obj(f.x), "b": matrix_to_obj(f.b), "z": matrix_to_obj(f.z)}


def factorization_from_obj(obj: dict) -> Factorization:
    _known(obj, ("x", "b", "z"), "factorization")
    x, b, z = (matrix_from_obj(_field(obj, key, "factorization")) for key in ("x", "b", "z"))
    return Factorization(x=x, b=b, z=z)


def _alphabet_to_obj(a: Alphabet) -> dict:
    if a.kind == "finite":
        return {"kind": "finite", "values": [float(v) for v in a.values]}
    return {"kind": "interval", "lo": float(a.lo), "hi": float(a.hi)}


def _alphabet_from_obj(obj: dict) -> Alphabet:
    kind = _field(obj, "kind", "alphabet")
    if kind == "finite":
        _known(obj, ("kind", "values"), "finite alphabet")
        return Alphabet(kind="finite", values=tuple(_field(obj, "values", "alphabet")))
    if kind == "interval":
        _known(obj, ("kind", "lo", "hi"), "interval alphabet")
        return Alphabet.interval(_field(obj, "lo", "alphabet"), _field(obj, "hi", "alphabet"))
    raise ParameterError(f"unknown alphabet kind {kind!r}")


def spec_to_obj(spec: StructureSpec) -> dict:
    return {
        "n": spec.n, "m": spec.m, "k_n": spec.k_n, "k_m": spec.k_m,
        "s_n": spec.s_n, "s_m": spec.s_m,
        "alphabet_n": _alphabet_to_obj(spec.alphabet_n),
        "alphabet_m": _alphabet_to_obj(spec.alphabet_m),
        "b_max": float(spec.b_max), "theta_mx": float(spec.theta_mx),
        "bounded": bool(spec.bounded),
    }


@_loader("spec")
def spec_from_obj(obj: dict) -> StructureSpec:
    _known(obj, [f.name for f in fields(StructureSpec)], "spec")

    def req(key):
        return _field(obj, key, "spec")

    return StructureSpec(
        n=int(req("n")), m=int(req("m")), k_n=int(req("k_n")), k_m=int(req("k_m")),
        s_n=int(req("s_n")), s_m=int(req("s_m")),
        alphabet_n=_alphabet_from_obj(req("alphabet_n")),
        alphabet_m=_alphabet_from_obj(req("alphabet_m")),
        b_max=float(obj.get("b_max", 1.0)), theta_mx=float(obj.get("theta_mx", 1.0)),
        bounded=bool(obj.get("bounded", False)),
    )


def dumps_canonical(obj) -> str:
    """Stable JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
