"""Span tracing of the library from outside it.

`Recorder.install()` replaces the public functions of the biharm modules,
and a fixed list of methods, with wrappers that record one span per call:
name, start, end, parent span and job id.  Spans live in compact arrays in
memory and are written out once, by `Recorder.save`.  `Recorder.uninstall()`
restores the originals, so untraced jobs run the unmodified library.

A span's self time is its duration minus the durations of its direct
children; self times of one job therefore add up to its root span.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("balgebra", "holomorphic", "monogenic", "schwarz", "elasticity", "cli")
ROOT = "bench.job"

CLASS_METHODS = {
    "holomorphic": {"TaylorSeries": ("evaluate", "evaluate_unchecked", "shifted"),
                    "BoundaryFunction": ("from_samples", "sample")},
    "monogenic": {"MonogenicFunction": ("components", "evaluate", "recentered")},
}

# Per-layer timings: inclusive time of the outermost call among the listed
# spans, so nested calls (evaluate -> evaluate_unchecked) count once.
TIMED = {
    "holomorphic.eval_s": ("holomorphic.TaylorSeries.evaluate",
                           "holomorphic.TaylorSeries.evaluate_unchecked"),
    "holomorphic.from_samples_s": ("holomorphic.BoundaryFunction.from_samples",),
    "holomorphic.shifted_s": ("holomorphic.TaylorSeries.shifted",),
    "schwarz.solve_14_s": ("schwarz.solve_14",),
    "schwarz.boundary_residual_s": ("schwarz.boundary_residual",),
    "monogenic.components_s": ("monogenic.MonogenicFunction.components",),
    "monogenic.cr_residual_s": ("monogenic.cr_residual",),
    "monogenic.biharmonic_residual_s": ("monogenic.biharmonic_residual",),
    "balgebra.multiply_s": ("balgebra.multiply",),
    "balgebra.invert_s": ("balgebra.invert",),
    "elasticity.path_integral_s": ("elasticity.path_integral",),
    "elasticity.lame_residual_s": ("elasticity.lame_residual",),
    "cli.load_config_s": ("cli.load_config",),
    "cli.csv_write_s": ("cli.write_field_csv",),
}

COUNTED = ("holomorphic.eval_calls", "holomorphic.eval_terms",
           "holomorphic.from_samples_bytes", "monogenic.components_points",
           "balgebra.multiply_calls", "elasticity.quad_nodes",
           "elasticity.stage.solve_s", "elasticity.stage.fields_s",
           "elasticity.stage.displacements_s", "elasticity.stage.residuals_s",
           "cli.bytes_written")


# ---------------------------------------------------------------------------
# counters taken at the wrapped call boundaries


def _count_eval(rec, args, kwargs, result):
    series, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    rec.counts["holomorphic.eval_calls"] += 1
    rec.counts["holomorphic.eval_terms"] += len(series.coeffs) * np.size(z)


def _count_from_samples(rec, args, kwargs, result):
    # the cos and sin matrices are degree x len(values) float64 each
    values = args[1] if len(args) > 1 else kwargs["values"]
    degree = args[2] if len(args) > 2 else kwargs["degree"]
    rec.counts["holomorphic.from_samples_bytes"] += 2 * 8 * degree * np.size(values)


def _count_components(rec, args, kwargs, result):
    rec.counts["monogenic.components_points"] += np.size(result[0])


def _count_multiply(rec, args, kwargs, result):
    rec.counts["balgebra.multiply_calls"] += 1


def _count_stages(rec, args, kwargs, result):
    for stage, secs in result.timings.items():
        rec.counts[f"elasticity.stage.{stage}_s"] += secs


def _count_bytes(rec, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rec.counts["cli.bytes_written"] += os.path.getsize(path)


def _count_residual(rec, args, kwargs, result):
    rec.residual_max = max(rec.residual_max, float(result))


def _quad_node_counter(rec, args, kwargs):
    # every quadrature node set is evaluated once through the dx integrand
    p_dx = args[0]

    def counted(x, y):
        rec.counts["elasticity.quad_nodes"] += np.size(x)
        return p_dx(x, y)

    return (counted,) + tuple(args[1:]), kwargs


POST_HOOKS = {
    "holomorphic.TaylorSeries.evaluate_unchecked": _count_eval,
    "holomorphic.BoundaryFunction.from_samples": _count_from_samples,
    "monogenic.MonogenicFunction.components": _count_components,
    "balgebra.multiply": _count_multiply,
    "elasticity.solve_pipeline": _count_stages,
    "cli.write_field_csv": _count_bytes,
    "schwarz.boundary_residual": _count_residual,
}
PRE_HOOKS = {"elasticity.path_integral": _quad_node_counter}


class Recorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._group_of: list[int] = []
        self._group_open = [0] * len(TIMED)  # open calls per TIMED metric
        self._groups = {span: i for i, spans in enumerate(TIMED.values()) for span in spans}
        self.counts: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        self.current_job = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- span store ----------------------------------------------------------
    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._group_of.append(self._groups.get(name, -1))
        return self._ids[name]

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        group = self._group_of[sid]
        if group >= 0:
            self.outer.append(self._group_open[group] == 0)
            self._group_open[group] += 1
        else:
            self.outer.append(1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        group = self._group_of[self.name[idx]]
        if group >= 0:
            self._group_open[group] -= 1

    def run_job(self, job: int, fn, *args):
        """Call fn(*args) inside a root span for job `job`."""
        self.current_job = job
        idx = self.open(self.span_id(ROOT))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn, name: str):
        sid = self.span_id(name)
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        rec = self

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(rec, args, kwargs)
            idx = rec.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if post is not None:
                post(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracing is already installed")
        pkg = importlib.import_module("biharm")
        modules = {layer: importlib.import_module(f"biharm.{layer}") for layer in LAYERS}
        namespaces = [pkg] + list(modules.values())
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, other, wrapper)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if raw is None:
                        continue
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(self._wrap(raw.__func__, name)))
                    else:
                        self._set(cls, meth, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "outer": np.frombuffer(self.outer, dtype=np.int8),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span less the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(rec: Recorder) -> dict:
    """Per-layer totals over all recorded jobs, plus per-job root figures."""
    a = rec.arrays()
    if len(a["start"]) == 0:
        return {"jobs": 0, "spans": 0, "self_s": {}, "timed_s": {}, "counts": {},
                "job_s": {}, "accounted_s": {}, "residual_max": 0.0}
    names = np.array(rec.names)
    span_names = names[a["name"]]
    own = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    layer = np.array([n.split(".")[0] for n in rec.names])[a["name"]]

    self_s = {lay: float(own[layer == lay].sum()) for lay in LAYERS}
    timed = {}
    outer = a["outer"].astype(bool)
    for metric, spans in TIMED.items():
        mask = outer & np.isin(span_names, spans)
        timed[metric] = float(dur[mask].sum())

    roots = np.flatnonzero(span_names == ROOT)
    job_s = {int(a["job"][i]): float(dur[i]) for i in roots}
    accounted = {int(a["job"][i]): float(dur[i] - own[i]) for i in roots}
    return {"jobs": len(roots), "spans": int(len(dur)), "self_s": self_s,
            "timed_s": timed, "counts": dict(rec.counts), "job_s": job_s,
            "accounted_s": accounted, "residual_max": rec.residual_max}
