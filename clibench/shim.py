"""Traced stand-in for `python -m cmlat`.

    python3 shim.py TRACE_FILE INVOCATION_ID SPAWN_NS CMLAT_ARGS...

Installs timing wrappers on the cmlat modules from outside, then calls
`cmlat.cli.main` with the remaining arguments and exits with its code.  The
program's stdout is untouched.  Spans stay in memory and are written to
TRACE_FILE as one JSON document when the process ends.  SPAWN_NS is the
parent's `time.time_ns()` just before it started this process.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from time import perf_counter_ns

MODULES = ("cli", "lattice", "cm", "randset", "scan", "approx", "moments", "_scalars")

# Argparse and handler glue: its time stays in the self time of cli.main.
GLUE = {"cli.build_parser", "cli.parser_group"}

# Per-entry helpers are counted, not spanned.  The timed ones also add up their
# time, which is taken out of the caller's self time.  The unwrapped ones are
# left alone: a wrapper per entry would cost more than they do.
TIMED_HELPERS = {"_scalars.coerce_values", "scan.ExponentialPolynomial.__call__"}
COUNTED_HELPERS = {"_scalars.pow_scalar"}
UNWRAPPED = {"_scalars.is_integral", "randset.mask_set", "approx.scalar_gap"}

# Private names that are layer boundaries all the same.
EXTRA = {
    "cli._emit": "cli.emit",
    "cli._write_csv": "cli.emit",
}
METHODS = {
    ("lattice", "FiniteLattice", "__init__"): "lattice.FiniteLattice",
    ("scan", "ExponentialPolynomial", "grid_values"): "scan.ExponentialPolynomial.grid_values",
    ("scan", "ExponentialPolynomial", "__call__"): "scan.ExponentialPolynomial.__call__",
}


class Recorder:
    """Spans as (id, parent, name, start_ns, end_ns, helper_ns) plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []  # [span_id, helper_ns] of the open spans
        self.counts = {}
        self.helper_ns = {}
        self.work = {"randset.transform_ops": 0, "lattice.elements_built": 0, "scan.grid_evals": 0}
        self.main_entry_ns = None

    def spanned(self, name, fn, work=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if work is not None:
                work(self.work, args, kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, name, start, end, frame[1]))

        return wrapper

    def timed(self, name, fn):
        stack, counts, helper_ns = self.stack, self.counts, self.helper_ns
        counts[name] = 0
        helper_ns[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter_ns() - start
                helper_ns[name] += spent
                if stack:
                    stack[-1][1] += spent

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _transform_ops(acc, args, kwargs):
    n = kwargs.get("ground_n", args[1] if len(args) > 1 else None)
    acc["randset.transform_ops"] += n * (1 << (n - 1)) if n else 0


def _elements(acc, args, kwargs):
    acc["lattice.elements_built"] += len(kwargs.get("leq", args[1] if len(args) > 1 else ()))


def _grid_points(acc, args, kwargs):
    acc["scan.grid_evals"] += len(kwargs.get("alphas", args[1] if len(args) > 1 else ()))


WORK = {
    "randset.subset_sums": _transform_ops,
    "randset.subset_mobius": _transform_ops,
    "lattice.FiniteLattice": _elements,
    "scan.ExponentialPolynomial.grid_values": _grid_points,
}


def install(rec):
    """Wrap every cmlat function at every module namespace that binds it."""
    mods = {short: importlib.import_module(f"cmlat.{short}") for short in MODULES}
    wrapped = {}  # original function -> wrapper, shared by every binding

    def wrapper_for(fn, name):
        if fn not in wrapped:
            if name in TIMED_HELPERS:
                wrapped[fn] = rec.timed(name, fn)
            elif name in COUNTED_HELPERS:
                wrapped[fn] = rec.counted(name, fn)
            else:
                wrapped[fn] = rec.spanned(EXTRA.get(name, name), fn, WORK.get(name))
        return wrapped[fn]

    for (short, cls, meth), name in METHODS.items():
        klass = getattr(mods[short], cls)
        setattr(klass, meth, wrapper_for(klass.__dict__[meth], name))

    for mod in [importlib.import_module("cmlat"), *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("cmlat."):
                continue
            name = f"{obj.__module__[len('cmlat.'):]}.{obj.__name__}"
            public = not obj.__name__.startswith("_") or name in EXTRA
            if not public or name in GLUE or name in UNWRAPPED or name.startswith("cli.cmd_"):
                continue
            setattr(mod, attr, wrapper_for(obj, name))

    main = mods["cli"].main

    def entry(argv):
        rec.main_entry_ns = time.time_ns()
        return main(argv)

    return entry


def main():
    trace_path, inv_id, spawn_ns, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    rec = Recorder()
    entry = install(rec)
    code = None
    try:
        code = entry(argv)
    finally:
        doc = {
            "invocation": inv_id,
            "startup_ns": None if rec.main_entry_ns is None else rec.main_entry_ns - spawn_ns,
            "spans": rec.spans,
            "counts": rec.counts,
            "helper_ns": rec.helper_ns,
            "work": rec.work,
        }
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
