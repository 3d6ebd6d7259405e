"""Layer instrumentation for one ffcn process, installed from outside.

    python tracer.py spans|counts OUT.json --cli ARGS...
    python tracer.py spans|counts OUT.json --script PATH ARGS...

Wraps public functions of the ffcn modules, rebinding the wrapper in
every ffcn module that holds the function under any name, so that a
caller that imported it by name is traced too.  Then runs ``ffc ARGS``
(``ffcn.cli.main``) or the script, and writes what it recorded to
OUT.json.  A forked pool worker writes OUT.json.<pid> each time its
outermost wrapped call returns, since pool workers exit without running
exit handlers.

``spans`` mode records, per wrapped function, calls and timed spans:
``<name>.self_s`` (duration minus the time of nested spans) and
``<name>.s`` (inclusive), also per key where a key is defined.  ``counts``
mode reads no clock: it records calls, lru_cache hit and miss deltas, GF
operation counts and the argument- and result-derived work counts.
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import sys
import time
from collections import defaultdict


def _points_on_model(values, args, result, missed):
    model, ext = args
    q = ext.order
    values["varieties.points_on_model.points_searched"] += (q ** (model.dim + 1) - 1) // (q - 1)
    values["varieties.points_on_model.points_found"] += len(result)


def _residue_field(values, args, result, missed):
    # the search scans the residue field in element order, so the root's
    # integer value is the number of failed candidates
    if missed and result[1] is not None:
        values["polyring.residue_field.roots_tried"] += result[1] + 1


def _monic_irreducibles(values, args, result, missed):
    if missed:
        field, d = args
        values["polyring.monic_irreducibles.candidates"] += field.order ** d
        values["polyring.monic_irreducibles.found"] += len(result)


# (module, attribute, metric name, span key from the arguments, work counter)
WRAPPED = (
    ("ffcn.varieties", "points_on_model", "varieties.points_on_model",
     lambda args: f"q{args[1].order}", _points_on_model),
    ("ffcn.varieties", "smoothness_probe", "varieties.smoothness_probe", None, None),
    ("ffcn.varieties", "min_point_degree", "varieties.min_point_degree", None, None),
    ("ffcn.varieties", "curve_point_counts", "varieties.curve_point_counts", None, None),
    ("ffcn.polyring", "residue_field", "polyring.residue_field", None, _residue_field),
    ("ffcn.polyring", "monic_irreducibles", "polyring.monic_irreducibles",
     None, _monic_irreducibles),
    ("ffcn.covers", "place_census", "covers.place_census", None, None),
    ("ffcn.covers", "splitting_type", "covers.splitting_type", None, None),
    ("ffcn.covers", "cover_genus", "covers.cover_genus", None, None),
    ("ffcn.zeta", "l_polynomial", "zeta.l_polynomial", None, None),
    ("ffcn.zeta", "extend_counts", "zeta.extend_counts", None, None),
    ("ffcn.zeta", "census_from_counts", "zeta.census_from_counts", None, None),
    ("ffcn.table64", "verify_row", "table64.verify_row", None, None),
    ("ffcn.table64", "find_survivors", "table64.find_survivors", None, None),
    ("ffcn.table64", "survivor_analysis", "table64.survivor_analysis", None, None),
    ("ffcn.catalog", "verify_curve", "catalog.verify_curve",
     lambda args: args[0].curve_id, None),
    ("ffcn.cli", "main", "cli.main", None, None),
    # the functions the CLI maps over its worker pool: the outermost
    # wrapped call in a worker, after which the worker writes its file
    ("ffcn.cli", "_verify_one", "cli._verify_one", None, None),
    ("ffcn.cli", "_table_one", "cli._table_one", None, None),
)

# lru caches whose hit/miss deltas the count pass reports
CACHES = (
    ("ffcn.gf", "make_field", "gf.make_field"),
    ("ffcn.varieties", "smoothness_probe", "varieties.smoothness_probe"),
    ("ffcn.varieties", "min_point_degree", "varieties.min_point_degree"),
    ("ffcn.polyring", "residue_field", "polyring.residue_field"),
    ("ffcn.polyring", "monic_irreducibles", "polyring.monic_irreducibles"),
)

# (module, class or None, attribute, metric name): operations counted per call
COUNTED_OPS = (
    ("ffcn.gf", "GF", "mul", "gf.mul.calls"),
    ("ffcn.gf", "GF", "add", "gf.add.calls"),
    ("ffcn.gf", "GF", "inv", "gf.inv.calls"),
    ("ffcn.gf", "GF", "pow", "gf.pow.calls"),
    ("ffcn.gf", None, "embed", "gf.embed.calls"),
    ("ffcn.polyring", "Poly", "eval_in", "polyring.Poly.eval_in.calls"),
)


class Recorder:
    """What one process recorded, and where it writes it."""

    def __init__(self, mode: str, out: str):
        self.mode = mode
        self.out = out
        self.values = defaultdict(int)
        self.stack = []
        self.in_worker = False
        self.caches = {}
        self.cache_base = {}

    def after_fork(self):
        self.values.clear()
        self.stack.clear()
        self.in_worker = True
        self.snapshot_caches()

    def snapshot_caches(self):
        self.cache_base = {name: fn.cache_info() for name, fn in self.caches.items()}

    def totals(self) -> dict:
        out = dict(self.values)
        for name, fn in self.caches.items():
            info, base = fn.cache_info(), self.cache_base[name]
            out[name + ".hits"] = info.hits - base.hits
            out[name + ".misses"] = info.misses - base.misses
        return out

    def dump(self):
        path = f"{self.out}.{os.getpid()}" if self.in_worker else self.out
        with open(path + ".tmp", "w") as fh:
            json.dump(self.totals(), fh, sort_keys=True)
        os.replace(path + ".tmp", path)

    def returned(self):
        if not self.stack and self.in_worker:
            self.dump()


def _span(rec: Recorder, name: str, fn, key):
    values, stack, clock = rec.values, rec.stack, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        values[name + ".calls"] += 1
        frame = [0.0]
        stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            own = dt - frame[0]
            values[name + ".self_s"] += own
            values[name + ".s"] += dt
            if key is not None:
                k = key(args)
                values[f"{name}.{k}.self_s"] += own
                values[f"{name}.{k}.s"] += dt
            if stack:
                stack[-1][0] += dt
            rec.returned()

    return wrapper


def _counted(rec: Recorder, name: str, fn, counter):
    values, stack = rec.values, rec.stack
    info = getattr(fn, "cache_info", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        values[name + ".calls"] += 1
        misses = info().misses if info else 0
        stack.append(None)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
        if counter is not None:
            counter(values, args, result, info is not None and info().misses > misses)
        rec.returned()
        return result

    return wrapper


def _op_counter(values, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        values[name] += 1
        return fn(*args)

    return wrapper


def _ffcn_modules():
    return [m for n, m in list(sys.modules.items()) if n == "ffcn" or n.startswith("ffcn.")]


def rebind(orig, wrapper) -> int:
    """Replace ``orig`` by ``wrapper`` under every name in every ffcn module."""
    bound = 0
    for mod in _ffcn_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                bound += 1
    return bound


def install(rec: Recorder):
    import ffcn  # noqa: F401  (imports every module but the CLI)
    import ffcn.cli  # noqa: F401

    originals = {}
    for modname, attr, name, key, counter in WRAPPED:
        fn = originals[modname, attr] = getattr(sys.modules[modname], attr)
        if rec.mode == "counts":
            wrapper = _counted(rec, name, fn, counter)
        else:
            wrapper = _span(rec, name, fn, key)
        for extra in ("cache_info", "cache_clear"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        if not rebind(fn, wrapper):
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")
    if rec.mode == "counts":
        for modname, attr, name in CACHES:
            fn = originals.get((modname, attr)) or getattr(sys.modules[modname], attr)
            rec.caches[name] = fn
        for modname, cls, attr, name in COUNTED_OPS:
            owner = getattr(sys.modules[modname], cls) if cls else None
            fn = getattr(owner, attr) if owner else getattr(sys.modules[modname], attr)
            wrapper = _op_counter(rec.values, name, fn)
            if owner:
                setattr(owner, attr, wrapper)
            elif not rebind(fn, wrapper):
                raise RuntimeError(f"{modname}.{attr} is bound nowhere")
    rec.snapshot_caches()
    os.register_at_fork(after_in_child=rec.after_fork)


def main(argv) -> int:
    if len(argv) < 4 or argv[1] not in ("spans", "counts") or argv[3] not in ("--cli", "--script"):
        sys.stderr.write(__doc__)
        return 2
    rec = Recorder(argv[1], argv[2])
    install(rec)
    try:
        if argv[3] == "--cli":
            return sys.modules["ffcn.cli"].main(argv[4:])
        sys.argv = argv[4:]
        try:
            runpy.run_path(argv[4], run_name="__main__")
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                return exc.code or 0
            return 1
        return 0
    finally:
        sys.stdout.flush()
        rec.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
