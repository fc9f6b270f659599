"""Span tracer for the benchmark's traced run.

Tracer wraps every public function of the entmean modules, at every module
attribute it is bound under (linear_entropy lives in entmean.linalg and is
imported into entmean.measures and entmean; full_report is imported into
entmean.cli), plus the members of entmean's public classes, including the
dataclass validation hooks (__post_init__).  It also wraps the
numpy.linalg decompositions entmean calls into LAPACK; those form the
"kernel" layer.  Nothing in entmean is edited: the wrappers replace module
and class attributes while the tracer is installed, and every original is
put back when it exits.

Spans (name, start, end, parent) are kept in compact in-memory arrays.
summarize() turns them into per-layer metrics after the tracer exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("states", "bipartitions", "linalg", "measures", "closedform", "sweep", "cli")
KERNEL_FUNCS = ("svd", "eigvalsh", "eigh")


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.state_cuts: dict[int, int] = {}
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = [-1]  # -1: the parent of a top-level span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    # --- installation ----------------------------------------------------

    def _install(self) -> None:
        replacement: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"entmean.{layer}")
            except ImportError:
                self.missing.append(layer)
                continue
            found = False
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                    found = True
                elif inspect.isclass(obj):
                    found |= self._wrap_class(layer, obj)
            if not found:
                self.missing.append(layer)
        for name in KERNEL_FUNCS:
            func = getattr(np.linalg, name)
            replacement[id(func)] = (func, self._wrap(f"kernel.{name}", "kernel", func))

        modules = [np.linalg] + [
            mod for key, mod in list(sys.modules.items())
            if key == "entmean" or key.startswith("entmean.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> bool:
        found = False
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name != "__post_init__":
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(label, layer, member.fget), member.fset, member.fdel,
                               member.__doc__)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(label, layer, member.__func__))
            elif inspect.isfunction(member):
                new = self._wrap(label, layer, member)
            else:
                continue
            self._patch(cls, name, new)
            found = True
        return found

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, new)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- the wrapper -----------------------------------------------------

    def _wrap(self, label: str, layer: str, func):
        nid = len(self.labels)
        self.labels.append(label)
        self.layer_of.append(layer)
        plain = label.rsplit(".", 1)[1]
        self.wrapped.add(plain)
        hook = _hook_for(layer, plain)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return traced

    # --- output ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "labels": np.array(self.labels),
            "layers": np.array(self.layer_of),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.spans())


# --- counters taken at layer boundaries ----------------------------------


def _count_kernel(tracer: Tracer, idx: int, args, kwargs, result) -> None:
    a = np.asarray(args[0] if args else kwargs["a"])
    rows, cols = a.shape[-2:]
    matrices = int(np.prod(a.shape[:-2], dtype=np.int64))
    name = tracer.labels[tracer.name_id[idx]]
    tracer.counters["kernel.matrices"] += matrices
    tracer.counters["kernel.bytes_in"] += a.nbytes
    tracer.counters["kernel.flops_est"] += matrices * _flops(name, rows, cols, args, kwargs) * (
        4 if np.iscomplexobj(a) else 1
    )


def _flops(name: str, rows: int, cols: int, args, kwargs) -> float:
    """Textbook operation counts of the LAPACK drivers (Golub & Van Loan)."""
    big, small = max(rows, cols), min(rows, cols)
    if name.endswith("svd"):
        with_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if with_uv:
            return 4.0 * big * big * small + 8.0 * big * small * small + 9.0 * small**3
        return 4.0 * big * small * small - 4.0 * small**3 / 3.0
    if name.endswith("eigvalsh"):
        return 4.0 * small**3 / 3.0
    return 9.0 * small**3


def _count_cuts(tracer, idx, args, kwargs, result) -> None:
    tracer.counters["bipartitions.cuts"] += len(result)


def _count_state(tracer, idx, args, kwargs, result) -> None:
    state = args[0] if args else kwargs.get("state")
    dims = getattr(state, "dims", None)
    if dims is not None:
        tracer.state_cuts[idx] = (1 << (len(dims) - 1)) - 1


def _count_report(tracer, idx, args, kwargs, result) -> None:
    _count_state(tracer, idx, args, kwargs, result)
    tracer.counters["measures.zero_reports"] += result.gbc == 0.0


def _count_findings(tracer, idx, args, kwargs, result) -> None:
    tracer.counters["sweep.findings"] += len(result)


def _count_emit(tracer, idx, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer.counters["sweep.emit_bytes"] += os.path.getsize(path)


def _hook_for(layer: str, name: str):
    if layer == "kernel":
        return _count_kernel
    if name == "enumerate_bipartitions":
        return _count_cuts
    if name == "full_report":
        return _count_report
    if layer == "measures":
        return _count_state
    if name == "find_ordering_reversals":
        return _count_findings
    if name.startswith("emit_"):
        return _count_emit
    return None


# --- analysis ------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    The program is single-threaded, so the children of one span never
    overlap each other; each child is clipped to its parent's interval.
    """
    duration = end - start
    child = parent >= 0
    p = parent[child]
    overlap = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    covered = np.bincount(p, weights=np.clip(overlap, 0.0, None), minlength=len(duration))
    return duration - covered


def has_ancestor(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """For each span, whether any proper ancestor is marked."""
    out = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        out[live] |= marked[anc[live]]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return out


def summarize(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None marks a missing metric."""
    spans = tracer.spans()
    name_id = spans["name_id"]
    parent = spans["parent"]
    duration = spans["end"] - spans["start"]
    self_s = self_times(parent, spans["start"], spans["end"])
    plain_of = [label.rsplit(".", 1)[1] for label in tracer.labels]

    def spans_of(pred) -> np.ndarray:
        return np.array([pred(p) for p in plain_of])[name_id]

    layer = np.array(tracer.layer_of)[name_id]
    out: dict[str, float | None] = {}
    present = set(tracer.layer_of) - set(tracer.missing)

    for lay in LAYERS + ("kernel",):
        mine = layer == lay
        ok = lay in present
        out[f"{lay}.calls"] = int(mine.sum()) if ok else None
        out[f"{lay}.self_s"] = float(self_s[mine].sum()) if ok else None

    def need(*names):
        return all(n in tracer.wrapped for n in names)

    c = tracer.counters
    for key in ("kernel.matrices", "kernel.bytes_in", "kernel.flops_est"):
        out[key] = c[key] if "kernel" in present else None

    measures = layer == "measures"
    outermost = np.flatnonzero(measures & ~has_ancestor(parent, measures))
    state_cuts = sum(tracer.state_cuts.get(int(i), 0) for i in outermost)
    out["kernel.decomps_per_cut"] = (
        c["kernel.matrices"] / state_cuts if "measures" in present and state_cuts else None
    )
    out["measures.zero_reports"] = c["measures.zero_reports"] if need("full_report") else None
    out["bipartitions.cuts"] = c["bipartitions.cuts"] if need("enumerate_bipartitions") else None
    reports = int(spans_of(lambda p: p == "full_report").sum())
    out["bipartitions.enum_per_report"] = (
        int(spans_of(lambda p: p == "enumerate_bipartitions").sum()) / reports
        if need("enumerate_bipartitions", "full_report") and reports else None
    )
    if need("measure_value", "find_peak"):
        in_peak = has_ancestor(parent, spans_of(lambda p: p == "find_peak"))
        out["sweep.peak_evals"] = int((spans_of(lambda p: p == "measure_value") & in_peak).sum())
    else:
        out["sweep.peak_evals"] = None
    out["sweep.findings"] = c["sweep.findings"] if need("find_ordering_reversals") else None
    if any(name.startswith("emit_") for name in tracer.wrapped):
        emits = spans_of(lambda p: p.startswith("emit_"))
        out["sweep.emit_s"] = float(duration[emits & ~has_ancestor(parent, emits)].sum())
        out["sweep.emit_bytes"] = c["sweep.emit_bytes"]
    else:
        out["sweep.emit_s"] = out["sweep.emit_bytes"] = None
    return out
