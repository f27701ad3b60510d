"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each invpat layer from outside the
library: it replaces the module attributes (and the CountStore methods) with
timing wrappers, so calls between modules and within a module are seen, and
restores the originals on ``uninstall``.  Nothing inside the library changes.

Coarse calls (count cells, sweeps, classify passes, store operations) keep
one span record each; hot leaves such as ``perms.contains`` (10^5 to 10^6
calls) are aggregated per (parent, name) so memory stays bounded.  A span's
self time is its duration minus the time covered by its child spans.

Calls made inside pool worker processes run in other interpreters and are
not visible here; every figure counts the benchmark's own process only.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from collections import Counter

# Functions wrapped in each layer.  Small helpers called from inside the hot
# search loops (box_in_shape, avoids, validate_shape, inverse, ...) are left
# alone: a wrapper would cost more than their body, and their time counts in
# the caller's self time instead.
TRACED = {
    "perms": ("contains", "pattern_of", "involution_list", "involutions", "symmetry_class"),
    "avoidance": ("count_avoiders", "lambda_sym", "count_avoiders_with_column_constraint"),
    "boards": (
        "placement_contains",
        "symmetric_full_placements",
        "enumerate_full_placements",
        "enumerate_symmetric_full_placements",
        "enumerate_self_conjugate_shapes",
    ),
    "reduction": ("suffix_reduction", "verify_reduction_equivalence", "class_decomposition_check"),
    "slide": ("slide_transform", "slide_inverse", "flank_avoiding_count", "top_row_dot_count"),
    "tableaux": ("rsk", "rsk_inverse", "evacuation", "is_standard", "standard_tableaux"),
    "classify": ("symmetry_classes",),
}
STORE_METHODS = {"__init__": "load", "get": "get", "put": "put", "save": "save"}
# Spans kept one record each (cells, sweeps, classify passes, store
# operations); everything else is aggregated per parent.
COARSE_PREFIXES = (
    "avoidance.count_avoiders",
    "avoidance.lambda_sym",
    "avoidance.store.",
    "classify.classify_sk",
    "checks.",
)

# The verify sweeps whose time is reported as checks.<sweep>.s.
SWEEPS = ("extremes", "reduction", "decomposition", "recurrences", "toprow", "slide")

# (name, unit, better) for every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = (
    ("perms.contains.calls", "count", "lower"),
    ("perms.contains.self_s", "s", "lower"),
    ("perms.involution_list.calls", "count", "lower"),
    ("perms.involution_list.s", "s", "lower"),
    ("perms.pattern_of.calls", "count", "lower"),
    ("avoidance.count_avoiders.calls", "count", "lower"),
    ("avoidance.count_avoiders.s", "s", "lower"),
    ("avoidance.cell_s.p50", "s", "lower"),
    ("avoidance.cell_s.max", "s", "lower"),
    ("avoidance.store.load_s", "s", "lower"),
    ("avoidance.store.get.calls", "count", "lower"),
    ("avoidance.store.hit_ratio", "ratio", "higher"),
    ("avoidance.store.put.calls", "count", "lower"),
    ("avoidance.store.save.s", "s", "lower"),
    ("avoidance.store.bytes_written", "B", "lower"),
    ("boards.placement_contains.calls", "count", "lower"),
    ("boards.placement_contains.self_s", "s", "lower"),
    ("boards.symmetric_full_placements.s", "s", "lower"),
    ("boards.enumerate_full_placements.s", "s", "lower"),
    ("reduction.suffix_reduction.calls", "count", "lower"),
    ("reduction.suffix_reduction.self_s", "s", "lower"),
    ("reduction.class_decomposition_check.self_s", "s", "lower"),
    ("slide.slide_transform.calls", "count", "lower"),
    ("slide.slide_transform.self_s", "s", "lower"),
    ("slide.slide_inverse.calls", "count", "lower"),
    ("slide.slide_inverse.self_s", "s", "lower"),
    ("slide.flank_avoiding_count.self_s", "s", "lower"),
    ("tableaux.rsk.calls", "count", "lower"),
    ("tableaux.rsk.self_s", "s", "lower"),
    ("tableaux.rsk_inverse.self_s", "s", "lower"),
    ("tableaux.evacuation.calls", "count", "lower"),
    ("tableaux.evacuation.self_s", "s", "lower"),
    ("tableaux.standard_tableaux.s", "s", "lower"),
    ("classify.classify_sk.s", "s", "lower"),
    ("classify.cells", "count", "higher"),
    ("classify.parent_cell_ratio", "ratio", "lower"),
    *((f"checks.{sweep}.s", "s", "lower") for sweep in SWEEPS),
    ("checks.records", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics that are exact counts: identical on every traced run of one seed.
EXACT = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "B") or name == "avoidance.store.hit_ratio"
)


class Tracer:
    """Wraps the traced functions of one imported copy of invpat.

    ``lib`` holds the imported layer modules as attributes and all invpat
    modules in ``lib.modules`` (see run.import_invpat).
    """

    def __init__(self, lib):
        self._stack: list[list] = []  # open spans: [name, child_s, span_id]
        self._active: Counter = Counter()
        self.leaves: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.cell_s: list[float] = []
        self.store = Counter()
        self.cells = 0
        self.records = 0
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._install(lib)

    # -- installing ------------------------------------------------------

    def _install(self, lib) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = getattr(lib, layer)
            for attr in names:
                fn = getattr(module, attr)
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for sweep, fn in lib.checks.ALL_CHECKS.items():
            wrappers[fn] = self._wrap(f"checks.{sweep}", fn, on_exit=self._count_records)
        classify_sk = lib.classify.classify_sk
        wrappers[classify_sk] = self._wrap(
            "classify.classify_sk", classify_sk, on_exit=self._count_cells
        )
        # Replace every module-level binding of a traced function, so both
        # ``module.f`` lookups and names imported with ``from .x import f``
        # reach the wrapper.
        for module in lib.modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        store_cls = lib.avoidance.CountStore
        for attr, op in STORE_METHODS.items():
            fn = vars(store_cls)[attr]
            hook = {"get": self._store_get, "save": self._store_save}.get(op)
            self._restore.append((store_cls, attr, fn))
            setattr(store_cls, attr, self._wrap(f"avoidance.store.{op}", fn, on_exit=hook))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, on_exit=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:  # recursion: the outermost span already covers it
                return fn(*args, **kwargs)
            frame = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, clock())
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        # One call is one span whose time is the sum of its resumptions, so
        # consuming the generator elsewhere still charges it to this name.
        active = self._active
        clock = time.perf_counter

        def resumed(gen):
            total = own = 0.0
            parent = self._stack[-1][0] if self._stack else None
            try:
                while True:
                    frame = self._open(name)
                    t0 = clock()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        self._pop(frame, dt)
                        total += dt
                        own += dt - frame[1]
                    yield value
            finally:
                gen.close()
                self._add(parent, name, 1, total, own)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            return resumed(fn(*args, **kwargs))

        return traced

    def _open(self, name):
        self._active[name] += 1
        span_id = None
        if name.startswith(COARSE_PREFIXES):
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, dt) -> None:
        self._stack.pop()
        self._active[frame[0]] -= 1
        if self._stack:
            self._stack[-1][1] += dt

    def _close(self, frame, t0, t1) -> None:
        dt = t1 - t0
        self._pop(frame, dt)
        name = frame[0]
        parent = self._stack[-1] if self._stack else None
        own = dt - frame[1]
        self._add(parent[0] if parent else None, name, 1, dt, own)
        if name.startswith(COARSE_PREFIXES):
            coarse_parent = next(
                (f[2] for f in reversed(self._stack) if f[0].startswith(COARSE_PREFIXES)),
                None,
            )
            self.spans.append(
                {"id": frame[2], "parent": coarse_parent, "name": name,
                 "start": t0, "end": t1, "self_s": own}
            )
            if name == "avoidance.count_avoiders":
                self.cell_s.append(dt)

    def _add(self, parent, name, calls, total, own) -> None:
        rec = self.leaves.get((parent, name))
        if rec is None:
            self.leaves[(parent, name)] = [calls, total, own]
        else:
            rec[0] += calls
            rec[1] += total
            rec[2] += own

    # -- result hooks ----------------------------------------------------

    def _store_get(self, args, result) -> None:
        self.store["hits" if result is not None else "misses"] += 1

    def _store_save(self, args, result) -> None:
        # Computed, not measured: the file size after each save.
        self.store["bytes_written"] += os.path.getsize(args[0].path)

    def _count_records(self, args, result) -> None:
        self.records += len(result)

    def _count_cells(self, args, result) -> None:
        self.cells += result.class_count() * len(result.ns)

    # -- metrics ---------------------------------------------------------

    def totals(self, name) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one traced name.

        Total time adds only outermost activations, so it never counts a
        span twice; a name traced under several parents sums over them.
        """
        calls = total = own = 0
        for (parent, leaf), (c, t, s) in self.leaves.items():
            if leaf == name:
                calls += c
                total += t
                own += s
        return calls, total, own

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the
        untraced run as well."""
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field in ("calls", "s", "self_s"):
                calls, total, own = self.totals(base)
                out[name] = {"calls": calls, "s": total, "self_s": own}[field]
        ordered = sorted(self.cell_s)
        out["avoidance.cell_s.p50"] = statistics.median(ordered) if ordered else 0.0
        out["avoidance.cell_s.max"] = ordered[-1] if ordered else 0.0
        out["avoidance.store.load_s"] = self.totals("avoidance.store.load")[1]
        gets = self.store["hits"] + self.store["misses"]
        out["avoidance.store.hit_ratio"] = self.store["hits"] / gets if gets else 0.0
        out["avoidance.store.bytes_written"] = self.store["bytes_written"]
        out["classify.cells"] = self.cells
        cells_in_parent = self.totals("avoidance.count_avoiders")[0]
        out["classify.parent_cell_ratio"] = cells_in_parent / self.cells if self.cells else 0.0
        out["checks.records"] = self.records
        return out

    def dump(self) -> dict:
        """Aggregated leaves and coarse spans, for writing out after the run."""
        return {
            "leaves": [
                {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (parent, name), (c, t, s) in sorted(
                    self.leaves.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "spans": self.spans,
        }
