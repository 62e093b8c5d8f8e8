"""Span tracer for fklab, installed from outside the library.

:func:`install` replaces every public function of the fklab modules, in every
fklab namespace that binds it (module globals and module-level dicts such as
the CLI's command table), by a wrapper that records one span per call: name,
start, end and parent.  The methods ``PointSet.points_in``,
``PointSet.raw_indices_in`` and ``AlphaValue.membership_range`` are wrapped
too.  A span belongs to the layer (module) that defines the function; private
helpers are not wrapped, so their time counts as self time of the public
function that called them.

Counters are taken at the same boundaries from the call arguments and
results, so every count is deterministic for a given config and seed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "exact",
    "environments",
    "towers",
    "lagrangians",
    "chain_opt",
    "mane",
    "holonomic_lp",
    "_kernels",
    "cli",
)
METHODS = (
    ("environments", "PointSet", "points_in"),
    ("environments", "PointSet", "raw_indices_in"),
    ("exact", "AlphaValue", "membership_range"),
)
# the benchmark times main() itself; everything below it is attributed
UNWRAPPED = {("cli", "main")}
KERNELS = ("chain_dp", "phi_dp", "simplex")


def _potential(c, tr, args, kwargs, result):
    c["lagrangians.calls"] += 1
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    c["lagrangians.points_evaluated"] += int(np.size(xs))


def _points_in(c, tr, args, kwargs, result):
    c["environments.materializations"] += 1
    c["environments.points_materialized"] += int(result.size)
    if tr.inside("lagrangians"):
        c["environments.points_for_potentials"] += int(result.size)


def _membership(c, tr, args, kwargs, result):
    c["exact.membership_tests"] += len(result)


def _solve(c, tr, args, kwargs, result):
    c["chain_opt.solves"] += 1
    c["chain_opt.sweeps"] += int(result.sweeps)
    c["chain_opt.polish_runs"] += int(result.polish_used)


def _ground_energy(c, tr, args, kwargs, result):
    c["chain_opt.ground_energy_calls"] += 1


def _chain_dp(c, tr, args, kwargs, result):
    V, Wd, n = args[0], args[1], args[2]
    c["kernels.chain_dp_cells"] += int(n) * V.shape[0] * Wd.shape[0]


def _phi_dp(c, tr, args, kwargs, result):
    cost, n_max = args[0], args[1]
    c["kernels.phi_dp_cells"] += int(n_max) * cost.shape[0] * cost.shape[1]


def _simplex(c, tr, args, kwargs, result):
    status, iterations = result
    # the last iteration of an optimal exit only finds no entering column
    c["kernels.simplex_pivots"] += int(iterations) - (1 if status == 0 else 0)


def _mane_table(c, tr, args, kwargs, result):
    c["mane.tables_built"] += 1
    env = result.env
    offset = env.pset.offset if env.pset is not None else None
    tr.mane_keys.add((env.kind, env.phase, env.w1, env.w2, offset, result.ebar, result.h, result.n_max))


def _lp_vars(c, tr, args, kwargs, result):
    c["holonomic_lp.lp_vars"] += int(result.cost.size)


def _tower(c, tr, args, kwargs, result):
    tower = result[0] if isinstance(result, tuple) else result
    c["towers.floors"] += len(tower.labels)


def _written(c, tr, args, kwargs, result):
    c["cli.bytes_written"] += Path(args[0]).stat().st_size


HOOKS = {
    "lagrangians.potential_values": _potential,
    "lagrangians.potential_d1": _potential,
    "lagrangians.potential_d2": _potential,
    "environments.PointSet.points_in": _points_in,
    "exact.AlphaValue.membership_range": _membership,
    "chain_opt.minimize_free": _solve,
    "chain_opt.minimize_fixed": _solve,
    "chain_opt.ground_energy": _ground_energy,
    "_kernels.chain_dp_backward_np": _chain_dp,
    "_kernels.phi_dp_np": _phi_dp,
    "_kernels.simplex_pivot_loop_np": _simplex,
    "mane.mane_table": _mane_table,
    "holonomic_lp.discretize_circle": _lp_vars,
    "towers.level0_tower": _tower,
    "towers.induce_tower": _tower,
    "cli.write_csv": _written,
    "cli.write_summary": _written,
}


class Tracer:
    """Spans kept in memory as parallel lists; one tracer per process."""

    def __init__(self):
        self.names: list = []  # span name table, "<layer>.<qualname>"
        self.span_name: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.mane_keys: set = set()

    def inside(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.names[self.span_name[i]].startswith(prefix) for i in self.stack)

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__qualname__}"
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        span_name, starts, ends, parents, stack = (
            self.span_name,
            self.starts,
            self.ends,
            self.parents,
            self.stack,
        )
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            span_name.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())  # last, so the bookkeeping stays outside the span
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public fklab functions everywhere they are bound."""
        modules = [m for n, m in sys.modules.items() if n == "fklab" or n.startswith("fklab.")]
        wrappers = {}
        for mod in modules:
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or id(fn) in wrappers:
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if layer in LAYERS and (layer, fn.__name__) not in UNWRAPPED:
                    wrappers[id(fn)] = self._wrap(fn, layer)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for key, fn in val.items():
                        if id(fn) in wrappers:
                            val[key] = wrappers[id(fn)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"fklab.{layer}"], cls_name)
            setattr(cls, meth, self._wrap(vars(cls)[meth], layer))

    def self_times(self) -> dict:
        """Seconds of self time per span name (duration minus covered child time)."""
        starts = np.asarray(self.starts, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        names = np.asarray(self.span_name, dtype=np.int64)
        own = dur.astype(np.float64)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        per_name = np.bincount(names, weights=own, minlength=len(self.names)) * 1e-9
        return {n: float(per_name[i]) for i, n in enumerate(self.names) if per_name[i] != 0.0}

    def summary(self, wall_s: float) -> dict:
        """Layer and kernel self times, counters and unattributed time.

        ``values`` holds ``<layer>.self_s`` for every layer, ``kernels.<kernel>_s``
        for each kernel of ``fklab._kernels``, and the counters.
        """
        by_name = self.self_times()
        layers = {layer: 0.0 for layer in LAYERS}
        values = {f"kernels.{k}_s": 0.0 for k in KERNELS}
        for name, t in by_name.items():
            layer = name.split(".", 1)[0]
            layers[layer] += t
            for k in KERNELS:
                if layer == "_kernels" and k in name:
                    values[f"kernels.{k}_s"] += t
        values.update({f"{layer}.self_s": t for layer, t in layers.items()})
        values.update(self.counters)
        values["mane.tables_distinct"] = len(self.mane_keys)
        values["trace.spans"] = len(self.starts)
        values["trace.unattributed_s"] = wall_s - sum(layers.values())
        return {"self_s": layers, "values": values, "by_name_s": by_name}

    def write_spans(self, path: Path) -> None:
        """All spans, columnar, gzip-compressed JSON (times in ns)."""
        payload = {
            "names": self.names,
            "name": self.span_name,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
