"""Out-of-process span tracer for gridwlp.

The tracer wraps the public functions of the traced layers from outside the
package: every binding of a traced function, at every import site inside
``gridwlp.*`` (module globals, and module-level lists and dicts such as the
check table in ``verify`` and the command table in ``cli``), is replaced by a
wrapper, matched by object identity. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``info`` is what an annotator derived from
the call's arguments and result, e.g. a matrix shape. Spans stay in memory
until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "gridwlp"
LAYERS = ("linalg", "ideals", "polyspace", "lefschetz", "verify", "geometry", "cli")


class TraceTargetMissing(RuntimeError):
    """A function the per-layer metrics depend on no longer exists."""


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rank_info(args, kwargs, out):
    m, n = np.shape(_arg(args, kwargs, 0, "matrix"))
    return [int(m), int(n), int(out), bool(_arg(args, kwargs, 1, "field").rational)]


def _array_info(args, kwargs, out):
    return [int(out.shape[0]), int(out.shape[1]), int(out.nbytes)]


def _degrees_info(args, kwargs, out):
    return len(out.degrees)


def _check_info(args, kwargs, out):
    return int(out.index)


# Functions the per-layer metrics read, each with the annotator that records
# what the metric needs from the call. A missing name raises, so that a rename
# in the package breaks the benchmark instead of reading zero.
REQUIRED = {
    "linalg.rank": _rank_info,
    "linalg.rref": None,
    "linalg.kernel_basis": None,
    "ideals.powers_ideal_dim": None,
    "ideals.shifted_products_matrix": _array_info,
    "ideals.power_generators": None,
    "ideals.fat_points_dim": None,
    "ideals.fat_points_hf": None,
    "ideals.fat_points_piece": None,
    "ideals.fat_points_matrix": None,
    "ideals.perp_piece": None,
    "ideals.perp_quotient_hf": None,
    "ideals.ci_power_piece": None,
    "ideals.socle_dims": None,
    "polyspace.linear_power": None,
    "polyspace.vanishing_rows": None,
    "lefschetz.wlp_test": _degrees_info,
    "lefschetz.bx_sequence": None,
    "lefschetz.mult_map_analysis": None,
    "lefschetz.non_lefschetz_probe": None,
    "lefschetz.slp_probe": None,
    "geometry.make_grid": None,
    "geometry.sample_form": None,
    "verify.run_suite": None,
    "verify.check_determinism_and_modes": None,
    "verify.mode_agreement_dims": None,
    "cli.main": None,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _targets():
    """Public plain functions of every traced layer, plus checks in verify."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[name] = obj
    for name in REQUIRED:
        layer, attr = name.split(".")
        obj = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), attr, None)
        if not callable(obj):
            raise TraceTargetMissing(f"traced function {PACKAGE}.{name} does not exist")
        out[name] = obj
    return out


def install(tracer: Tracer):
    """Wrap every traced function at every binding site inside the package."""
    wrapped = {}
    for name, fn in _targets().items():
        info = REQUIRED.get(name) or (_check_info if name.startswith("verify.check_") else None)
        wrapped[id(fn)] = tracer.wrap(name, fn, info)
    # _targets keeps every original alive, so equal ids mean the same object
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
            elif isinstance(value, (list, dict)):
                keys = list(value) if isinstance(value, dict) else range(len(value))
                for key in keys:
                    if id(value[key]) in wrapped:
                        value[key] = wrapped[id(value[key])]
