"""Samplers for the observation model: masks, noise, and family generators.

Randomness contract
-------------------
Every stream is a numpy Philox-4x64-10 counter-based generator. The 128-bit
Philox key is derived from the user seed and a small integer path with the
splitmix64 finalizer:

    key = (mix(seed) << 64) | mix(purpose, *path)

where mix folds each integer through splitmix64. Purposes are fixed module
constants, paths are (replica, cell, ...) indices, and entry indices are the
Philox counter itself — so any consumer can reproduce any stream from
(seed, purpose, path) alone, in any implementation of Philox/splitmix64.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .core import (
    Alphabet,
    Factorization,
    Observation,
    ParameterError,
    ShapeError,
    StructureSpec,
    _check_p,
    _check_range,
    _known,
)

__all__ = [
    "NOISE_KINDS",
    "NoiseKind",
    "ModelFamily",
    "stream",
    "derive_seed",
    "sample_mask",
    "sample_noise",
    "observe",
    "generate",
]

_MASK64 = (1 << 64) - 1

# stream purposes (fixed; part of the reproducibility contract)
PURPOSE_MASK = 1
PURPOSE_NOISE = 2
PURPOSE_GENERATE = 3
PURPOSE_SOLVER = 4
PURPOSE_PACKING = 5


def _splitmix64(x: int) -> int:
    """splitmix64 finalizer; the documented mixing step of the RNG contract."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stream(seed: int, purpose: int, *path: int) -> np.random.Generator:
    """Philox stream keyed by (seed, purpose, *path). See module docstring."""
    hi = _splitmix64(int(seed) & _MASK64)
    # the low word folds (purpose, *path) exactly as derive_seed folds (seed, *path)
    return np.random.Generator(np.random.Philox(key=(hi << 64) | derive_seed(purpose, *path)))


def derive_seed(seed: int, *path: int) -> int:
    """A child seed keyed by (seed, *path); feeding it back into stream()
    keeps purposes separated, so one derived seed per task covers all of that
    task's draws."""
    x = _splitmix64(int(seed) & _MASK64)
    for t in path:
        x = _splitmix64(x ^ _splitmix64(int(t) & _MASK64))
    return x


# ---------- noise ---------- #

# JSON / CLI kind -> (NoiseKind variant, its required keys in constructor order)
NOISE_KINDS = {
    "none": ("none", ()),
    "gaussian": ("gaussian", ("sigma",)),
    "rademacher": ("rademacher", ("scale",)),
    "uniform": ("uniform_bounded", ("b",)),
    "truncated_gaussian": ("truncated_gaussian", ("sigma", "b")),
}


@dataclass(frozen=True)
class NoiseKind:
    """One of gaussian(sigma), rademacher(scale), uniform_bounded(b),
    truncated_gaussian(sigma, b), none.  Every variant is sub-Gaussian with
    the proxy scale reported by proxy_sigma."""

    variant: str
    sigma: float = 0.0
    scale: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.variant not in {v for v, _ in NOISE_KINDS.values()}:
            raise ParameterError(f"unknown noise variant {self.variant!r}")
        _check_range("sigma", self.sigma, 0)
        _check_range("scale", self.scale, 0)
        _check_range("b", self.b, self.sigma if self.variant == "truncated_gaussian" else 0)

    @classmethod
    def from_obj(cls, obj) -> "NoiseKind":
        """Parse {"kind": <a key of NOISE_KINDS>, ...}; kind defaults to none,
        every key the kind requires must be present and not null, and no
        other key may be."""
        kind = _known(obj, ("kind", "sigma", "scale", "b"), "noise").get("kind", "none")
        if kind not in NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {kind!r}")
        variant, keys = NOISE_KINDS[kind]
        _known(obj, ("kind", *keys), f"{kind} noise")
        for key in keys:
            if obj.get(key) is None:
                raise ParameterError(f"{kind} noise needs {key!r}")
        return getattr(cls, variant)(*(obj[key] for key in keys))

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseKind":
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def rademacher(cls, scale: float) -> "NoiseKind":
        return cls("rademacher", scale=float(scale))

    @classmethod
    def uniform_bounded(cls, b: float) -> "NoiseKind":
        return cls("uniform_bounded", b=float(b))

    @classmethod
    def truncated_gaussian(cls, sigma: float, b: float) -> "NoiseKind":
        return cls("truncated_gaussian", sigma=float(sigma), b=float(b))

    @classmethod
    def none(cls) -> "NoiseKind":
        return cls("none")

    @property
    def proxy_sigma(self) -> float:
        """Documented sub-Gaussian proxy scale of the variant."""
        return {
            "gaussian": self.sigma,
            "rademacher": self.scale,
            "uniform_bounded": self.b,
            "truncated_gaussian": self.sigma,
            "none": 0.0,
        }[self.variant]

    @property
    def bound(self) -> float | None:
        """Almost-sure magnitude bound, when the variant has one."""
        if self.variant == "rademacher":
            return self.scale
        if self.variant in ("uniform_bounded", "truncated_gaussian"):
            return self.b
        if self.variant == "none":
            return 0.0
        return None


# ---------- families ---------- #

@dataclass(frozen=True)
class ModelFamily:
    """Tagged family of ground-truth generators.

    Parameter order per variant: mixture(n, m, k); dictionary(d, n, k, s);
    sbm(n, k); mixed_membership(n, k, s); biclustering(n, m, k_n, k_m);
    generic(spec).
    """

    variant: str
    n: int = 0
    m: int = 0
    k: int = 0
    k_n: int = 0
    k_m: int = 0
    s: int = 0
    d: int = 0
    spec: StructureSpec | None = None

    def __post_init__(self):
        v = self.variant
        if v not in _GENERATORS:
            raise ParameterError(f"unknown family {v!r}")
        if v == "generic":
            if self.spec is None:
                raise ParameterError("generic family needs a StructureSpec")
            return
        # a variant's parameters are those of its constructor; a row's weight s is at most k
        for name in inspect.signature(getattr(ModelFamily, v)).parameters:
            _check_range(name, getattr(self, name), 1, self.k if name == "s" else np.inf)

    @classmethod
    def mixture(cls, n, m, k):
        return cls("mixture", n=n, m=m, k=k)

    @classmethod
    def dictionary(cls, d, n, k, s):
        return cls("dictionary", d=d, n=n, k=k, s=s)

    @classmethod
    def sbm(cls, n, k):
        return cls("sbm", n=n, k=k)

    @classmethod
    def mixed_membership(cls, n, k, s):
        return cls("mixed_membership", n=n, k=k, s=s)

    @classmethod
    def biclustering(cls, n, m, k_n, k_m):
        return cls("biclustering", n=n, m=m, k_n=k_n, k_m=k_m)

    @classmethod
    def generic(cls, spec: StructureSpec):
        return cls("generic", spec=spec)


# ---------- sampling operations ---------- #

def sample_mask(n: int, m: int, p: float, seed: int) -> np.ndarray:
    """n x m Bernoulli(p) mask; p = 0 would make the signal unidentifiable."""
    _check_p(p)
    rng = stream(seed, PURPOSE_MASK)
    return (rng.random((n, m)) < p).astype(float)


def sample_noise(kind: NoiseKind, n: int, m: int, seed: int) -> np.ndarray:
    """i.i.d. noise matrix from the chosen law."""
    rng = stream(seed, PURPOSE_NOISE)
    if kind.variant == "none":
        return np.zeros((n, m))
    if kind.variant == "gaussian":
        return kind.sigma * rng.standard_normal((n, m))
    if kind.variant == "rademacher":
        return kind.scale * (2.0 * rng.integers(0, 2, size=(n, m)) - 1.0)
    if kind.variant == "uniform_bounded":
        return rng.uniform(-kind.b, kind.b, size=(n, m))
    # truncated gaussian: resample out-of-range entries (true conditional law)
    out = kind.sigma * rng.standard_normal((n, m))
    bad = np.abs(out) > kind.b
    while np.any(bad):
        out[bad] = kind.sigma * rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > kind.b
    return out


def observe(theta_star: np.ndarray, mask: np.ndarray, noise: np.ndarray, p: float,
            sigma: float = 0.0, b: float | None = None) -> Observation:
    """Y_ij = E_ij (theta*_ij + xi_ij), carried with p so Y' = Y/p is exposed."""
    theta_star = np.asarray(theta_star, dtype=float)
    mask = np.asarray(mask, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if theta_star.shape != mask.shape or theta_star.shape != noise.shape:
        raise ShapeError(
            f"shapes differ: theta {theta_star.shape}, mask {mask.shape}, noise {noise.shape}"
        )
    y = mask * (theta_star + noise)
    return Observation(y=y, mask=mask, p=p, sigma=sigma, b=b)


# family generators ------------------------------------------------------- #

_BINARY = Alphabet.finite((0.0, 1.0))


def _one_hot(rng, rows: int, k: int) -> np.ndarray:
    """One-hot rows; rows i < k get distinct columns so no column is empty."""
    cols = np.empty(rows, dtype=int)
    head = min(rows, k)
    cols[:head] = np.arange(head)
    if rows > head:
        cols[head:] = rng.integers(0, k, size=rows - head)
    out = np.zeros((rows, k))
    out[np.arange(rows), cols] = 1.0
    return out


def _gen_mixture(fam, rng):
    n, m, k = fam.n, fam.m, fam.k
    x = _one_hot(rng, n, k)
    b = rng.uniform(0.0, 1.0, size=(k, m))
    z = np.eye(m)
    spec = StructureSpec(n=n, m=m, k_n=k, k_m=m, s_n=1, s_m=0,
                         alphabet_n=_BINARY, alphabet_m=_BINARY, theta_mx=1.0)
    return Factorization(x=x, b=b, z=z), spec


def _gen_dictionary(fam, rng):
    d, n, k, s = fam.d, fam.n, fam.k, fam.s
    x = np.eye(d)
    b = rng.uniform(-1.0, 1.0, size=(d, k))
    z = np.zeros((n, k))
    for i in range(n):
        support = rng.choice(k, size=s, replace=False)
        z[i, support] = rng.uniform(-1.0, 1.0, size=s)
    spec = StructureSpec(n=d, m=n, k_n=d, k_m=k, s_n=0, s_m=s,
                         alphabet_n=_BINARY, alphabet_m=Alphabet.interval(-1.0, 1.0),
                         theta_mx=float(s))
    return Factorization(x=x, b=b, z=z), spec


def _gen_sbm(fam, rng):
    n, k = fam.n, fam.k
    z = _one_hot(rng, n, k)
    upper = rng.uniform(0.0, 1.0, size=(k, k))
    b = np.triu(upper) + np.triu(upper, 1).T  # symmetric, U[0,1] upper triangle
    spec = StructureSpec(n=n, m=n, k_n=k, k_m=k, s_n=1, s_m=1,
                         alphabet_n=_BINARY, alphabet_m=_BINARY, theta_mx=1.0)
    return Factorization(x=z, b=b, z=z), spec


def _gen_mixed_membership(fam, rng):
    n, k, s = fam.n, fam.k, fam.s
    z = np.zeros((n, k))
    for i in range(n):
        support = rng.choice(k, size=s, replace=False)
        w = rng.exponential(1.0, size=s)
        z[i, support] = w / w.sum()  # simplex row with <= s non-zeros
    b = rng.uniform(0.0, 1.0, size=(k, k))
    spec = StructureSpec(n=n, m=n, k_n=k, k_m=k, s_n=s, s_m=s,
                         alphabet_n=Alphabet.interval(0.0, 1.0),
                         alphabet_m=Alphabet.interval(0.0, 1.0), theta_mx=1.0)
    return Factorization(x=z, b=b, z=z), spec


def _gen_biclustering(fam, rng):
    n, m, k_n, k_m = fam.n, fam.m, fam.k_n, fam.k_m
    x = _one_hot(rng, n, k_n)
    z = _one_hot(rng, m, k_m)
    b = rng.uniform(0.0, 1.0, size=(k_n, k_m))
    spec = StructureSpec(n=n, m=m, k_n=k_n, k_m=k_m, s_n=1, s_m=1,
                         alphabet_n=_BINARY, alphabet_m=_BINARY, theta_mx=1.0)
    return Factorization(x=x, b=b, z=z), spec


def _gen_factor_rows(rng, rows, k, s, alphabet):
    """Rows with exactly s non-zeros drawn from the entry alphabet."""
    if s == 0:
        return np.eye(rows)
    out = np.zeros((rows, k))
    for i in range(rows):
        support = np.sort(rng.choice(k, size=s, replace=False))
        if alphabet.kind == "finite":
            vals = rng.choice(np.asarray(alphabet.values), size=s)
        else:
            vals = rng.uniform(alphabet.lo, alphabet.hi, size=s)
        out[i, support] = vals
    return out


def _gen_generic(fam, rng):
    spec = fam.spec
    x = _gen_factor_rows(rng, spec.n, spec.k_n, spec.s_n, spec.entry_alphabets[0])
    z = _gen_factor_rows(rng, spec.m, spec.k_m, spec.s_m, spec.entry_alphabets[1])
    scale = spec.b_max if spec.bounded else 1.0
    b = rng.uniform(-scale, scale, size=(spec.k_n, spec.k_m))
    if spec.bounded:
        sup = np.max(np.abs(x @ b @ z.T))
        if sup > spec.theta_mx:
            b = b * (spec.theta_mx / sup)  # B is unconstrained, rescaling stays in-class
    return Factorization(x=x, b=b, z=z), spec


_GENERATORS = {
    "mixture": _gen_mixture,
    "dictionary": _gen_dictionary,
    "sbm": _gen_sbm,
    "mixed_membership": _gen_mixed_membership,
    "biclustering": _gen_biclustering,
    "generic": _gen_generic,
}


def generate(family: ModelFamily, seed: int) -> tuple[Factorization, StructureSpec]:
    """Ground truth for a family plus the spec whose class contains it.

    Deterministic: identical (family, seed) give bit-identical output.
    """
    rng = stream(seed, PURPOSE_GENERATE)
    return _GENERATORS[family.variant](family, rng)
