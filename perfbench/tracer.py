"""Span tracer that wraps polymg's public functions from outside the package.

Each traced function is replaced, in every ``polymg`` module namespace that
binds it, by a wrapper that records one span: name, parent span, start and
end.  Spans stay in flat in-memory arrays until the run ends; ``summary``
then derives calls, total time and self time (duration minus the time its
child spans cover) for every traced name.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np


def _apply_operator_work(level, u):
    # computed from array sizes, not measured: per grid point, one multiply
    # and one add per stencil entry, one 8-byte read per entry, one write
    entries = len(level.stencil.offsets)
    return {"flops_computed": 2 * entries * u.size,
            "bytes_computed": 8 * (entries + 1) * u.size}


_apply_operator_work.keys = ("flops_computed", "bytes_computed")


def _stack_size(stack):
    shape = np.shape(stack)
    return {"matrices": int(np.prod(shape[:-2], dtype=np.int64))}


_stack_size.keys = ("matrices",)


#: (module, attribute path, per-call counter function); a span is named
#: after the module without its package prefix, then the attribute path
TARGETS = (
    ("tables", "reproduce_table", None),
    ("smallmat", "spectral_radius", None),
    ("smallmat", "spectral_radii", _stack_size),
    ("lfa", "two_grid_block", None),
    ("lfa", "harmonic_frequencies", None),
    ("lfa", "rho_two_grid", None),
    ("lfa", "optimal_lambda0_two_grid", None),
    ("stencils", "Stencil.with_mesh_width", None),
    ("symbols", "lambda_bounds", None),
    ("symbols", "evaluate_symbol", None),
    ("polynomials", "error_poly", None),
    ("polynomials", "optimal_lambda0_smoothing", None),
    ("polynomials", "is_admissible", None),
    ("multigrid", "apply_operator", _apply_operator_work),
    ("multigrid", "restrict", None),
    ("multigrid", "prolongate", None),
    ("multigrid", "splu", None),
    ("multigrid", "prolongation_matrix", None),
    ("multigrid", "assemble_matrix", None),
    ("multigrid", "Multigrid.cycle", None),
    ("multigrid", "Multigrid.smooth", None),
    ("multigrid", "Multigrid.a_norm", None),
)


class Tracer:
    """Records nested spans around the TARGETS while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # counters start at zero so a function never called still reports
        self.counters = {f"{module}.{path}.{key}": 0
                         for module, path, count in TARGETS if count
                         for key in count.keys}
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original, wrapper)
        for module_name, path, count in TARGETS:
            span_name = f"{module_name}.{path}"
            owner = importlib.import_module(f"polymg.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, count)
            if outer:  # a method: patch the class only
                self._patches.append((owner, attr, original, wrapper))
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "polymg" and not name.startswith("polymg."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def _wrap(self, span_name, fn, count):
        nid = len(self.names)
        self.names.append(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    self.counters[f"{span_name}.{key}"] += value
            i = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span; a pair of marks brackets a job's spans."""
        return len(self.start)

    def _arrays(self):
        return (np.asarray(self.name_of), np.asarray(self.parent),
                np.asarray(self.end) - np.asarray(self.start))

    def children_per_parent(self, parent_name: str, child_name: str,
                            lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Number of ``child_name`` spans directly under each ``parent_name``
        span whose index lies in [lo, hi)."""
        names, parent, _ = self._arrays()
        hi = len(names) if hi is None else hi
        pid = self.names.index(parent_name)
        cid = self.names.index(child_name)
        idx = np.arange(lo, hi)
        parents = idx[names[lo:hi] == pid]
        children = parent[lo:hi][names[lo:hi] == cid]
        counts = np.bincount(children[children >= 0], minlength=len(names))
        return counts[parents]

    def summary(self) -> dict[str, float]:
        """calls, total_s and self_s per traced name, plus the counters."""
        names, parent, dur = self._arrays()
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[f"{name}.calls"] = int(np.count_nonzero(sel))
            out[f"{name}.total_s"] = float(np.sum(dur[sel]))
            out[f"{name}.self_s"] = float(np.sum(own[sel]))
        out.update(self.counters)
        return out
