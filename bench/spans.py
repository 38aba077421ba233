"""In-memory span recorder that wraps pmvr's layers from outside.

``install`` replaces the public functions and public methods of the layer
modules, every binding of them across the package (``from .x import y``
copies included), and the per-level oracle callables of every problem that
``cli.build_problem`` returns, with thin wrappers that append one span per
call: name, start, end, parent span and repetition id. Spans live in
compact arrays and are analysed and written once the run ends. Nothing in
pmvr is edited; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import replace

import numpy as np

LAYERS = (
    "rng", "problems", "core", "estimators", "sets", "solvers", "metrics",
    "data_io", "cli", "benchmarks",
)
# private helpers that mark a layer boundary the public API does not expose
EXTRA = {"solvers": ("_metric_row",)}
ORACLES = ("value", "jacobian", "exact_value", "exact_jacobian")


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}  # (span name, exception type name) -> count
        self.loaded_rows = 0  # LoadReport.parsed summed over traced loads
        self._stack = []
        self._rep = -1
        self._next_rep = 0
        self._restore = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, new_rep=False):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            prev_rep = self._rep
            if new_rep:
                self._rep = self._next_rep
                self._next_rep += 1
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.rep.append(self._rep)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                self._rep = prev_rep

        return traced

    def __len__(self):
        return len(self.start)

    # -- installation ------------------------------------------------------

    def install(self):
        import pmvr

        modules = {layer: importlib.import_module(f"pmvr.{layer}") for layer in LAYERS}
        package = [pmvr, importlib.import_module("pmvr.checks"), *modules.values()]
        replacements = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    replacements[id(obj)] = self.wrap(
                        f"{layer}.{attr}", self._hooked(layer, attr, obj),
                        new_rep=(layer, attr) == ("cli", "execute_rep"),
                    )
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    self._patch(mod, attr, replacements[id(obj)])

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", obj))
            elif isinstance(obj, property) and (layer, attr) == ("rng", "generator"):
                self._patch(cls, attr, property(self._generator_getter(obj.fget)))

    def _generator_getter(self, fget):
        construct = self.wrap("rng.generator", fget)

        def getter(source):
            # only the first access builds the Philox generator
            return construct(source) if source._generator is None else fget(source)

        return getter

    def _hooked(self, layer, attr, fn):
        if (layer, attr) == ("cli", "build_problem"):
            def build_problem(spec):
                problem, fset, x1 = fn(spec)
                problem.levels = [
                    replace(level, **{
                        o: self.wrap(f"problems.{o}", getattr(level, o)) for o in ORACLES
                    })
                    for level in problem.levels
                ]
                return problem, fset, x1
            return functools.wraps(fn)(build_problem)
        if (layer, attr) == ("data_io", "load_french_csv"):
            def load_french_csv(*args, **kwargs):
                data = fn(*args, **kwargs)
                self.loaded_rows += data.report.parsed
                return data
            return functools.wraps(fn)(load_french_csv)
        return fn

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "rep": np.frombuffer(self.rep, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path, lo, hi):
        """Write the spans ``[lo, hi)`` (one recipe round) with parents rebased."""
        cut = {k: v[lo:hi] for k, v in self.arrays().items()}
        cut["parent"] = np.where(cut["parent"] >= 0, cut["parent"] - lo, -1)
        np.savez(path, names=np.array(self.names), **cut)


class SpanTable:
    """Per-name and per-layer aggregates over the spans in ``[lo, hi)``.

    Spans of one recipe round nest inside the round's three top-level
    ``cli.run_config`` spans, given in solver order. Self time is a span's
    duration minus the durations of its direct children (one thread, so
    children never overlap). A layer's time counts only spans with no
    ancestor in the same layer, so recursion within a layer is not counted
    twice.
    """

    def __init__(self, rec, arrays, lo, hi, solvers):
        self.names = rec.names
        nid = arrays["name_id"]
        parent = arrays["parent"]
        dur = arrays["end"] - arrays["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        layer_of = [LAYERS.index(n.split(".")[0]) for n in rec.names]
        span_layer = np.array(layer_of, dtype=np.int64)[nid]
        # ancestor-layer bitmask, root span and metric-row ancestry per span;
        # parents precede their children, so one forward pass suffices
        row_id = self.names.index("solvers._metric_row")  # registered by install()
        parents = parent[lo:hi].tolist()
        layers = span_layer[lo:hi].tolist()
        ids = nid[lo:hi].tolist()
        root, anc, in_row = [0] * (hi - lo), [0] * (hi - lo), [False] * (hi - lo)
        for j, p in enumerate(parents):
            if p < 0:
                root[j] = lo + j
                continue
            pj = p - lo
            root[j] = root[pj]
            anc[j] = anc[pj] | (1 << layers[pj])
            in_row[j] = in_row[pj] or ids[pj] == row_id
        anc = np.array(anc, dtype=np.int64)
        outer = ((anc >> span_layer[lo:hi]) & 1) == 0
        root = np.array(root, dtype=np.int64)
        in_row = np.array(in_row, dtype=bool)
        sl = slice(lo, hi)
        self.nid, self.dur, self.self_time = nid[sl], dur[sl], (dur - child)[sl]
        self.layer, self.outer, self.in_row, self.anc = span_layer[sl], outer, in_row, anc
        top = (parent[sl] < 0) & (self.nid == self.names.index("cli.run_config"))
        self.solver = np.full(hi - lo, "", dtype=object)
        for k, i in enumerate(np.nonzero(top)[0]):
            self.solver[root == lo + i] = solvers[k]

    def mask(self, name, solver=None):
        if name not in self.names:
            return np.zeros(len(self.nid), dtype=bool)
        m = self.nid == self.names.index(name)
        return m if solver is None else m & (self.solver == solver)

    def count(self, name, solver=None):
        return int(self.mask(name, solver).sum())

    def suffix_mask(self, suffix):
        """Spans of every method named ``suffix`` (all feasible-set classes)."""
        ids = [i for i, n in enumerate(self.names) if n.endswith(suffix)]
        return np.isin(self.nid, ids)

    def total(self, name, solver=None):
        return float(self.dur[self.mask(name, solver)].sum())

    def mean(self, name, solver=None):
        n = self.count(name, solver)
        return self.total(name, solver) / n if n else 0.0

    def self_total(self, name):
        return float(self.self_time[self.mask(name)].sum())

    def layer_time(self, layer, solver=None):
        m = self.outer & (self.layer == LAYERS.index(layer))
        if solver is not None:
            m &= self.solver == solver
        return float(self.dur[m].sum())

    def total_outside(self, name, layer, solver=None):
        """Time in ``name`` spans that have no ancestor in ``layer``."""
        m = self.mask(name, solver) & (((self.anc >> LAYERS.index(layer)) & 1) == 0)
        return float(self.dur[m].sum())

    def layer_self(self, layer):
        return float(self.self_time[self.layer == LAYERS.index(layer)].sum())
