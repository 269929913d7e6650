"""Spans around the snls functions that the per-layer metrics name.

The wrappers are installed from outside the package, at run time, at the
names the engine looks up when it calls them: methods on the class, module
globals, and the entries of the stepper table.  A name a later version of the
package no longer has is recorded as an absent layer and skipped.

Spans are kept in memory as (name, start, end, parent) rows, one list per
launch, and written out once at the end.  A layer's self time is the length
of its spans minus the part of each span its direct children cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# bytes per element of the complex128 arrays the transforms read and write
_COMPLEX_BYTES = 16


def _count_synthesize(counts, args, out):
    # out holds rows x n_grid points, the input rows x n_modes coefficients
    counts["spectral.synthesize.grid_points"] += out.size
    counts["spectral.synthesize.bytes_computed"] += _COMPLEX_BYTES * (args[1].size + out.size)


def _count_analyze(counts, args, out):
    counts["spectral.analyze.grid_points"] += args[1].size
    counts["spectral.analyze.bytes_computed"] += _COMPLEX_BYTES * (args[1].size + out.size)


def _count_normals(counts, args, out):
    arrays = out if isinstance(out, tuple) else (out,)
    counts["dynamics.rng.normals"] += sum(a.size for a in arrays)


def _count_path_steps(counts, args, out):
    counts["dynamics.step.path_steps"] += out.shape[0]


# (layer, module, owner, attribute, counter); owner "" is the module itself,
# attribute "*" wraps every entry of a dict
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("spectral.synthesize", "snls.spectral", "EigenBasis", "synthesize", _count_synthesize),
    ("spectral.analyze", "snls.spectral", "EigenBasis", "analyze", _count_analyze),
    ("spectral.v_norm_sq", "snls.dynamics", "", "v_norm_sq", None),
    ("operators.f_pointwise", "snls.dynamics", "", "f_pointwise", None),
    ("operators.hs_norm_sq_batch", "snls.dynamics", "", "hs_norm_sq_batch", None),
    ("operators.g_fields_batch", "snls.operators", "", "g_fields_batch", None),
    ("dynamics.rng", "snls.dynamics", "BrownianDriver", "__init__", None),
    ("dynamics.rng", "snls.dynamics", "BrownianDriver", "increments", _count_normals),
    ("dynamics.step", "snls.dynamics", "_STEPPERS", "*", _count_path_steps),
    ("dynamics.observe", "snls.dynamics", "", "_observe_batch", None),
    ("dynamics.integrate_paths", "snls.dynamics", "", "integrate_paths", None),
    ("dynamics.simulate_ensemble", "snls.dynamics", "", "simulate_ensemble", None),
    ("ergodicity.invariant_fingerprint", "snls.cli", "", "invariant_fingerprint", None),
    ("ergodicity.time_average", "snls.ergodicity", "", "time_average", None),
    ("cli.main", "snls.cli", "", "main", None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

COUNTERS: Tuple[str, ...] = (
    "spectral.synthesize.grid_points",
    "spectral.synthesize.bytes_computed",
    "spectral.analyze.grid_points",
    "spectral.analyze.bytes_computed",
    "dynamics.rng.normals",
    "dynamics.step.path_steps",
)


class Tracer:
    """In-memory span recorder for one launch; single-threaded callers only."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if count is not None:
                count(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Sequence = TARGETS) -> None:
        for layer, module_name, owner_name, attr, count in targets:
            where = f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(where)
                continue
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if isinstance(owner, dict) and attr == "*":
                keys = list(owner)
            elif owner is not None and hasattr(owner, attr):
                keys = [attr]
            else:
                keys = []
            if not keys:
                self.absent.append(where)
            for key in keys:
                if isinstance(owner, dict):
                    original = owner[key]
                    owner[key] = self.wrap(layer, original, count)
                else:
                    original = getattr(owner, key)
                    setattr(owner, key, self.wrap(layer, original, count))
                self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s for every layer in LAYERS, plus the counters."""
        per_name = self_times(self.spans)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            calls, self_s = per_name.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{sid},{parent},{name},{start!r},{end!r}\n")


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (number of spans, sum of duration minus direct-child coverage).

    A span row is (name, start, end, parent index or -1).  Child intervals are
    clipped to the parent and merged, so overlapping children count once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, List[float]] = {}
    for sid, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        acc = totals.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - covered
    return {name: (int(c), s) for name, (c, s) in totals.items()}
