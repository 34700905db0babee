"""Spans around the public functions of structmc's layers, recorded from
outside the package.

`Tracer.install()` replaces every wrapped function in each structmc module
namespace that bound it (a name imported with `from .x import f` is a second
binding of `f`), plus `numpy.linalg.pinv/lstsq/svd`. `Tracer.remove()` puts
the originals back. Spans live in memory as
`[name, start, end, parent, unit, extra]` and are written out at the end.
The parent is the innermost open span of the calling thread; a span opened
on a worker thread with nothing open on that thread takes the innermost span
open on the installing thread (the harness blocks there while its pool
runs).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time

import numpy as np

# (module, function) pairs wrapped by the tracer, with the span name each gets
TRACED = (
    ("structmc.cli", "main", "cli.main"),
    ("structmc.bench", "run_experiment", "bench.run_experiment"),
    ("structmc.bench", "estimate_work", "bench.estimate_work"),
    ("structmc.bench", "summarize", "bench.summarize"),
    ("structmc.simulate", "generate", "simulate.generate"),
    ("structmc.simulate", "sample_mask", "simulate.sample_mask"),
    ("structmc.simulate", "sample_noise", "simulate.sample_noise"),
    ("structmc.simulate", "observe", "simulate.observe"),
    ("structmc.core", "assemble", "core.assemble"),
    ("structmc.core", "norms", "core.norms"),
    ("structmc.estimators", "solve_b_given_xz", "estimators.solve_b"),
    ("structmc.estimators", "block_coordinate_ls", "estimators.bcd"),
    ("structmc.estimators", "exact_least_squares", "estimators.exact"),
    ("structmc.estimators", "hard_threshold", "estimators.hard_threshold"),
    ("structmc.estimators", "adaptive_penalized", "estimators.adaptive"),
    ("structmc.rates", "critical_radius", "rates.critical_radius"),
    ("structmc.rates", "covering_bounds", "rates.covering_bounds"),
    ("structmc.rates", "penalty", "rates.penalty"),
    ("structmc.packing", "sparse_binary_packing", "packing.sparse_binary_packing"),
    ("structmc.packing", "build_t_z", "packing.build_t_z"),
    ("structmc.packing", "build_t_b", "packing.build_t_b"),
    ("structmc.packing", "sign_embedding", "packing.sign_embedding"),
    ("numpy.linalg", "pinv", "linalg.pinv"),
    ("numpy.linalg", "lstsq", "linalg.lstsq"),
    ("numpy.linalg", "svd", "linalg.svd"),
)

_WRAPPED = "__perfbench_original__"


def _operand_bytes(args, kwargs) -> int:
    return sum(a.nbytes for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))


class Tracer:
    """Records spans while installed; `unit` tags every span opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = -1
        self._local = threading.local()
        self._root_stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # ----- span bookkeeping ----- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook=None):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            rec = [name, 0.0, 0.0, parent, tracer.unit, None]
            stack.append(rec)
            rec[1] = perf()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, rec, args, kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
                tracer.spans.append(rec)

        setattr(wrapper, _WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ----- per-function extras, stored on the span record ----- #

    @staticmethod
    def _linalg_hook(fn, rec, args, kwargs):
        rec[5] = {"in_bytes": _operand_bytes(args, kwargs)}
        return fn(*args, **kwargs)

    def _bcd_hook(self, fn, rec, args, kwargs):
        # sweeps are counted through the public `trace=` argument
        bound = self._bcd_sig.bind(*args, **kwargs)
        trace = bound.arguments.get("trace")
        if trace is None:
            trace = bound.arguments["trace"] = []
        before = len(trace)
        result = fn(*bound.args, **bound.kwargs)
        rec[5] = {"sweeps": len(trace) - before}
        return result

    @staticmethod
    def _exact_hook(fn, rec, args, kwargs):
        result = fn(*args, **kwargs)
        rec[5] = {"pairs": int(result.iterations)}
        return result

    @staticmethod
    def _bench_hook(fn, rec, args, kwargs):
        cpu0 = time.process_time()
        rows = fn(*args, **kwargs)
        statuses = [r.status for r in rows]
        rec[5] = {"cpu_s": time.process_time() - cpu0, "tasks": len(rows),
                  "failed": statuses.count("failed"), "refused": statuses.count("refused")}
        return rows

    # ----- install / remove ----- #

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "structmc" or n.startswith("structmc.")) and m is not None]
        hooks = {"linalg.pinv": self._linalg_hook, "linalg.lstsq": self._linalg_hook,
                 "linalg.svd": self._linalg_hook, "estimators.bcd": self._bcd_hook,
                 "estimators.exact": self._exact_hook,
                 "bench.run_experiment": self._bench_hook}
        try:
            self._install(hooks, modules)
        except Exception:
            self.remove()
            raise

    def _install(self, hooks, modules):
        for mod_name, attr, span in TRACED:
            home = importlib.import_module(mod_name)
            original = getattr(home, attr)
            if hasattr(original, _WRAPPED):
                raise RuntimeError(f"{mod_name}.{attr} is already wrapped")
            if span == "estimators.bcd":
                self._bcd_sig = inspect.signature(original)
            wrapper = self._wrap(span, original, hooks.get(span))
            # every namespace that bound this function object gets the wrapper
            targets = [home] + [m for m in modules if m is not home]
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def remove(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # ----- output ----- #

    def write(self, path):
        """One JSON line per span: name, start, end, parent index, unit, extra."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                name, start, end, parent, unit, extra = rec
                fh.write(json.dumps([name, start, end,
                                     None if parent is None else index.get(id(parent)),
                                     unit, extra]) + "\n")


def leftover_wrappers() -> list[str]:
    """Names in structmc's modules or numpy.linalg still bound to a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "numpy.linalg" or mod_name == "structmc"
                               or mod_name.startswith("structmc.")):
            continue
        for key, value in list(vars(mod).items()):
            if hasattr(value, _WRAPPED):
                found.append(f"{mod_name}.{key}")
    return found


# ---------- per-layer metrics from the spans ---------- #

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its children among `spans`."""
    children: dict[int, list] = {}
    for rec in spans:
        parent = rec[3]
        if parent is not None:
            children.setdefault(id(parent), []).append((max(rec[1], parent[1]),
                                                         min(rec[2], parent[2])))
    return {id(rec): (rec[2] - rec[1]) - _union_length(children.get(id(rec), ()))
            for rec in spans}


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json (except the trace.* ones)."""
    by_name: dict[str, list] = {}
    for rec in spans:
        by_name.setdefault(rec[0], []).append(rec)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(*names):
        return sum(rec[2] - rec[1] for n in names for rec in by_name.get(n, ()))

    def extra(name, key):
        return sum((rec[5] or {}).get(key, 0) for rec in by_name.get(name, ()))

    own = self_times(spans)
    # bcd self time: its row updates and objective evaluations, i.e. the
    # span minus its B-solve and assemble children (linalg calls it makes
    # directly, such as the interval-row pinv, stay in)
    bcd_own = self_times(by_name.get("estimators.bcd", []) + by_name.get("estimators.solve_b", [])
                         + by_name.get("core.assemble", []))
    mib = 1.0 / (1 << 20)
    out = {}
    for op in ("pinv", "lstsq"):
        name = f"linalg.{op}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
        out[f"{name}.in_mib"] = extra(name, "in_bytes") * mib
    out["linalg.svd.calls"] = calls("linalg.svd")
    out["linalg.svd.s"] = secs("linalg.svd")

    solve_b = by_name.get("estimators.solve_b", [])
    out["estimators.solve_b.calls"] = len(solve_b)
    out["estimators.solve_b.s"] = secs("estimators.solve_b")
    out["estimators.solve_b.self_s"] = sum(own[id(r)] for r in solve_b)
    out["estimators.solve_b.ms_per_call"] = (1e3 * out["estimators.solve_b.s"] / len(solve_b)
                                             if solve_b else 0.0)

    bcd = by_name.get("estimators.bcd", [])
    sweeps = extra("estimators.bcd", "sweeps")
    bcd_ids = {id(r) for r in bcd}
    under_bcd = sum(1 for r in solve_b if r[3] is not None and id(r[3]) in bcd_ids)
    out["estimators.bcd.calls"] = len(bcd)
    out["estimators.bcd.s"] = secs("estimators.bcd")
    out["estimators.bcd.self_s"] = sum(bcd_own[id(r)] for r in bcd)
    out["estimators.bcd.sweeps"] = sweeps
    out["estimators.bcd.solve_b_per_sweep"] = under_bcd / sweeps if sweeps else 0.0

    exact = by_name.get("estimators.exact", [])
    pairs = extra("estimators.exact", "pairs")
    out["estimators.exact.calls"] = len(exact)
    out["estimators.exact.s"] = secs("estimators.exact")
    out["estimators.exact.self_s"] = sum(own[id(r)] for r in exact)
    out["estimators.exact.pairs"] = pairs
    out["estimators.exact.pairs_per_s"] = (pairs / out["estimators.exact.s"]
                                           if out["estimators.exact.s"] > 0 else 0.0)
    for name in ("hard_threshold", "adaptive"):
        out[f"estimators.{name}.calls"] = calls(f"estimators.{name}")
        out[f"estimators.{name}.s"] = secs(f"estimators.{name}")

    run = by_name.get("bench.run_experiment", [])
    out["bench.run_experiment_s"] = secs("bench.run_experiment")
    out["bench.estimate_work_s"] = secs("bench.estimate_work")
    out["bench.summarize_s"] = secs("bench.summarize")
    for key in ("tasks", "failed", "refused"):
        out[f"bench.{key}"] = extra("bench.run_experiment", key)
    out["bench.cpu_per_wall"] = (extra("bench.run_experiment", "cpu_s") / out["bench.run_experiment_s"]
                                 if run else 0.0)
    out["cli.main_s"] = secs("cli.main")
    out["cli.self_s"] = sum(own[id(r)] for r in by_name.get("cli.main", []))

    out["simulate.generate_s"] = secs("simulate.generate")
    out["simulate.sample_s"] = secs("simulate.sample_mask", "simulate.sample_noise",
                                    "simulate.observe")
    for name in ("assemble", "norms"):
        out[f"core.{name}.calls"] = calls(f"core.{name}")
        out[f"core.{name}.s"] = secs(f"core.{name}")

    out["rates.critical_radius_s"] = secs("rates.critical_radius")
    out["rates.covering_bounds.calls"] = calls("rates.covering_bounds")
    out["rates.penalty.calls"] = calls("rates.penalty")
    for name in ("sparse_binary_packing", "build_t_z", "build_t_b", "sign_embedding"):
        out[f"packing.{name}.s"] = secs(f"packing.{name}")
    return out
