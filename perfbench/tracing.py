"""Per-layer trace taken from outside the library.

The tracer replaces module attributes of the library with timing wrappers
while a traced op runs, and puts the originals back afterwards; no file of
the library changes.  Every attribute of every ``graphent`` module that is
the traced function is replaced, so calls through a name that one module
imports from another (``measures._mis_size``, ``cli.parse_graph``, ...) are
caught as well as calls inside the defining module.

``graphs._bits`` and ``graphs._tau`` are deliberately not wrapped: they run
millions of times per op and the wrapper would cost more than they do.

Collections of Python's cyclic garbage collector are recorded as spans too
(``gc.collect``, through ``gc.callbacks``): one can start when a call's
arguments are allocated, before the callee's span opens, and its time would
otherwise belong to no layer.

Spans (name, start, end, parent, op) are kept in flat arrays in memory and
written out once, when the run ends; self time is derived from them.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array

import numpy as np

# (span name, module that defines the function, attribute name there)
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.parse", "graphs", "parse_graph"),
    ("cli.emit", "cli", "_emit"),
    ("cli.run_verification", "cli", "run_verification"),
    ("graphs.lc_orbit", "graphs", "lc_orbit"),
    ("graphs.lc_orbit_members", "graphs", "lc_orbit_members"),
    ("graphs.matching_solve", "graphs", "_matching_max_size"),
    ("graphs.mis_solve", "graphs", "_mis_size"),
    ("graphs.max_independent_set", "graphs", "max_independent_set"),
    ("measures.evaluate", "measures", "evaluate"),
    ("measures.bounds", "measures", "bounds"),
    ("measures.minimal_decomposition", "measures", "minimal_decomposition"),
    ("measures.sign_function", "measures", "sign_function"),
    ("measures.closest_separable_state", "measures", "closest_separable_state"),
    ("measures.closest_product_state", "measures", "closest_product_state"),
    ("measures.css_stabilizer_form", "measures", "css_stabilizer_form"),
    ("measures.transport_css", "measures", "transport_css"),
    ("measures.transport", "measures", "_transport_components"),
    ("pauli.basis", "pauli", "stabilized_product_basis"),
    ("pauli.lc_transport", "pauli", "lc_clifford_transport"),
    ("pauli.group_elements", "pauli", "group_elements"),
    ("separable.peps_css", "separable", "peps_css"),
    ("separable.noise_css", "separable", "noise_css"),
    ("dense.statevector", "dense", "statevector"),
    ("dense.pauli_dense", "dense", "pauli_dense"),
    ("dense.mixture_density", "dense", "mixture_density"),
    ("dense.relative_entropy_pure", "dense", "relative_entropy_pure"),
    ("dense.best_product_overlap", "dense", "best_product_overlap"),
    ("lattices.generate_lattice", "lattices", "generate_lattice"),
    ("lattices.gap_scan", "lattices", "gap_scan"),
)
GC_SPAN = "gc.collect"
COVERAGE_MIN_OP_S = 1e-3


def _count_orbit(counts, args, result):
    members, truncated = result
    counts["graphs.orbit_members"] += len(members)
    counts["graphs.orbit_truncated"] += bool(truncated)


def _count_terms(counts, args, result):
    counts["measures.decomposition_terms"] += len(result.terms)


def _count_states(counts, args, result):
    counts["pauli.basis_states"] += len(result)


def _count_dense_bytes(counts, args, result):
    # a dense complex128 operator on n qubits: 4^n entries of 16 bytes
    counts["dense.pauli_dense.bytes"] += 16 * 4 ** args[0].n


# Counters read from a wrapped call's arguments or result, keyed by span.
HOOKS = {
    "graphs.lc_orbit_members": (_count_orbit, ("graphs.orbit_members", "graphs.orbit_truncated")),
    "measures.minimal_decomposition": (_count_terms, ("measures.decomposition_terms",)),
    "pauli.basis": (_count_states, ("pauli.basis_states",)),
    "dense.pauli_dense": (_count_dense_bytes, ("dense.pauli_dense.bytes",)),
}

# name -> (unit, better) of every metric a traced run reports.
METRICS: dict[str, tuple[str, str]] = {}
for _span in [span for span, _, _ in SPANS] + [GC_SPAN]:
    METRICS[f"{_span}.calls"] = ("calls/op", "lower")
    METRICS[f"{_span}.s"] = ("s/op", "lower")
    METRICS[f"{_span}.self_s"] = ("s/op", "lower")
METRICS.update(
    {
        "graphs.orbit_members": ("members/op", "lower"),
        "graphs.orbit_truncated": ("orbits/op", "lower"),
        "graphs.orbit_members_per_s": ("members/s", "higher"),
        "graphs.solves_per_member": ("ratio", "lower"),
        "measures.decomposition_terms": ("terms/op", "lower"),
        "pauli.basis_states": ("states/op", "lower"),
        "pauli.basis_builds_per_op": ("builds/op", "lower"),
        "dense.pauli_dense.bytes": ("computed_B/op", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
        "trace.coverage_min": ("ratio", "higher"),
    }
)


class Tracer:
    """Installs the wrappers around traced ops and keeps their spans."""

    def __init__(self):
        self.names = [span for span, _, _ in SPANS] + [GC_SPAN]
        self.absent: list[str] = []
        self._patches = []  # (module, attribute, original, wrapper)
        self.counts = {name: 0 for _, names in HOOKS.values() for name in names}
        self.broken_counts: set[str] = set()
        self.op = -1
        self.op_start = array("d")
        self.op_end = array("d")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._gc_open = -1
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "graphent" or name.startswith("graphent.")
        }
        for sid, (span, home, attr) in enumerate(SPANS):
            original = getattr(modules.get(f"graphent.{home}"), attr, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(original, sid, HOOKS.get(span))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self):
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    def _on_gc(self, phase, info):
        if phase == "start":
            if self.op < 0:
                return
            self._gc_open = len(self.span_start)
            self.span_name.append(len(self.names) - 1)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_op.append(self.op)
            self.span_outer.append(True)
            self.span_end.append(0.0)
            self.span_start.append(time.perf_counter())
        elif self._gc_open >= 0:
            self.span_end[self._gc_open] = time.perf_counter()
            self._gc_open = -1

    def begin_op(self):
        self.op = len(self.op_start)

    def end_op(self, start: float, end: float):
        """Close the op, with the clock readings the caller timed it by."""
        self.op_start.append(start)
        self.op_end.append(end)
        self.op = -1

    def _wrap(self, fn, sid: int, hook):
        tracer = self
        stack = self._stack
        depth = self._depth
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            outer.append(depth[sid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            depth[sid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                depth[sid] -= 1
            if hook is not None and tracer.op >= 0:
                tracer._count(hook, args, result)
            return result

        return traced

    def _count(self, hook, args, result):
        count, names = hook
        try:
            count(self.counts, args, result)
        except (TypeError, AttributeError, ValueError, IndexError):
            # the traced function changed its signature or result shape
            self.broken_counts.update(names)

    def _arrays(self):
        def view(buf, dtype):
            return np.frombuffer(buf, dtype=dtype) if len(buf) else np.zeros(0, dtype)

        return (
            view(self.span_name, np.int32),
            view(self.span_parent, np.int64),
            view(self.span_op, np.int64),
            view(self.span_start, np.float64),
            view(self.span_end, np.float64),
            view(self.span_outer, np.int8).astype(bool),
        )

    def save(self, path):
        names, parent, op, start, end, _ = self._arrays()
        np.savez(
            path,
            span_names=np.array(self.names),
            name=names,
            parent=parent,
            op=op,
            start=start,
            end=end,
            op_start=np.array(self.op_start),
            op_end=np.array(self.op_end),
        )

    def summary(self) -> dict[str, float]:
        """Per-op metrics over the traced ops; absent spans are left out."""
        nops = len(self.op_end)
        names, parent, op, start, end, outer = self._arrays()
        keep = op >= 0
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out: dict[str, float] = {}
        for sid, span in enumerate(self.names):
            if span in self.absent:
                continue
            mine = keep & (names == sid)
            out[f"{span}.calls"] = int(mine.sum()) / nops
            out[f"{span}.s"] = float(dur[mine & outer].sum()) / nops
            out[f"{span}.self_s"] = float(self_time[mine].sum()) / nops
        for name, value in self.counts.items():
            if name not in self.broken_counts:
                out[name] = value / nops
        members = self.counts["graphs.orbit_members"]
        if "graphs.lc_orbit_members.s" in out and "graphs.orbit_members" in out:
            orbit_s = out["graphs.lc_orbit_members.s"] * nops
            out["graphs.orbit_members_per_s"] = members / orbit_s if orbit_s > 0 else 0.0
            solves = (out.get("graphs.matching_solve.calls", 0.0) + out.get("graphs.mis_solve.calls", 0.0)) * nops
            out["graphs.solves_per_member"] = solves / members if members else 0.0
        if "pauli.basis.calls" in out:
            out["pauli.basis_builds_per_op"] = out["pauli.basis.calls"]
        top = keep & ~has_parent
        covered = np.bincount(op[top], weights=dur[top], minlength=nops)[:nops]
        walls = np.array(self.op_end) - np.array(self.op_start)
        # Below a millisecond the benchmark's own call glue (a few microseconds,
        # more on a cold cache) is a visible share of the op, so those ops are
        # left out of the coverage check.
        timed = walls >= COVERAGE_MIN_OP_S
        out["trace.coverage_min"] = float((covered[timed] / walls[timed]).min()) if timed.any() else 1.0
        return out
