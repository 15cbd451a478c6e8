"""Layered benchmark of the cmlat command line.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cmlat checkout.  The seeded documents of the workload
are written first; then the workload's fixed list of `python -m cmlat ...`
invocations runs one at a time, each as a fresh process (a closed loop with
one client), pass after pass until S seconds are used (at least one pass).
Every answer is checked outside the timed section.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json.  With --trace 1 each invocation runs plain and then through
shim.py, which times each cmlat layer from outside; the last line reports the
per-layer metrics, summed over one pass (median over traced passes).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from checks import Outcome, check, is_known_defect
from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim.py")
SPAWNER = os.path.join(HERE, "spawner.py")
RUN_LIMIT_S = 170  # a run, hung invocations included, ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Layer boundaries whose self time, call count or both are reported.  Span
# names are module.function; the ROADMAP stages are sums of them.
STAGES = {
    "parse": ("cli.parse_void_text", "randset.parse_distribution_text", "cm.parse_function_text",
              "cm.parse_partial_function_text", "lattice.parse_lattice_text"),
    "build": ("lattice.from_covers", "lattice.FiniteLattice"),
    "transform": ("randset.subset_sums", "randset.subset_mobius", "cm.mobius_weights",
                  "cm.reconstruct", "cm.power", "randset.power_exists"),
    "verdict": ("cm.is_cm", "cm.delta", "randset.from_void", "scan.scan_S"),
    "emit": ("cli.emit",),
}
METRIC_SPAN = {"scalars.": "_scalars.", "scan.ExponentialPolynomial.call": "scan.ExponentialPolynomial.__call__"}


class Failure(Exception):
    """The benchmark itself cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- environment ----------------------------------------------------------------


def checkout_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cmlat", "__init__.py")):
        raise Failure("src/cmlat not found: run from the root of a cmlat checkout")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        raise Failure("BENCHMARK.json not found at the checkout root")
    with open(spec_path, encoding="utf-8") as fh:
        return root, json.load(fh)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def blas_threads():
    """OpenBLAS thread count of this interpreter's numpy, when it can be read."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def metadata(root):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(root),
    }


# --- running invocations ---------------------------------------------------------


class Runner:
    """Runs cmlat child processes one at a time, through spawner.py; each
    answer is judged as soon as its process has ended, outside the timed
    section.  Use as a context manager: leaving it stops the spawner."""

    def __init__(self, root, work, deadline, judge):
        self.work = work
        self.deadline = deadline  # perf_counter time by which a hung child is killed
        self.judge = judge
        self.spawner = subprocess.Popen([sys.executable, SPAWNER], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, env=child_env(root), cwd=root, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv, stdout_path, stderr_path):
        """Start, wait and return (exit code, wall seconds, max RSS in KiB)."""
        timeout = max(5.0, self.deadline - time.perf_counter())
        req = {"argv": argv, "stdout": stdout_path, "stderr": stderr_path, "timeout": timeout}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise Failure("the spawner process ended early")
        reply = json.loads(reply)
        return reply["code"], reply["wall"], reply["rss_kib"]

    def setup_sample(self):
        """Wall time of a fresh interpreter that imports cmlat and exits."""
        out, err = os.path.join(self.work, "setup.out"), os.path.join(self.work, "setup.err")
        code, wall, _ = self.spawn([sys.executable, "-c", "import cmlat"], out, err)
        if code != 0:
            with open(err, "rb") as fh:
                raise Failure(f"import cmlat failed: {fh.read()[-300:]!r}")
        return wall

    def run_one(self, i, inv, traced):
        """Run invocation number i, plain or through the shim, and judge it."""
        stem = os.path.join(self.work, f"inv{i}{'t' if traced else ''}")
        if traced:
            argv = [sys.executable, SHIM, stem + ".trace", inv.name, str(time.time_ns()), *inv.argv]
        else:
            argv = [sys.executable, "-m", "cmlat", *inv.argv]
        code, wall, rss = self.spawn(argv, stem + ".out", stem + ".err")
        rec = {"inv": inv, "code": code, "wall": wall, "rss_kib": rss,
               "stdout": stem + ".out", "stderr": stem + ".err", "trace": stem + ".trace" if traced else None}
        self.judge.judge(rec)
        return rec

    def run_pass(self, invs, traced, setup=None):
        """One pass over the invocation list; returns per-invocation records.

        With a `setup` list, a set-up sample is taken before each invocation,
        so the samples spread over the whole run instead of one moment of it."""
        records = []
        for i, inv in enumerate(invs):
            if setup is not None:
                setup.append(self.setup_sample())
            records.append(self.run_one(i, inv, traced))
        return records


# --- answers ---------------------------------------------------------------------


class Judge:
    """Checks outcomes; identical outputs of one invocation get one verdict."""

    def __init__(self):
        self.cache = {}
        self.failures = []  # (invocation name, reason, known defect or None)
        self.attempted = 0

    def outcome(self, rec):
        inv = rec["inv"]
        with open(rec["stdout"], "rb") as fh:
            stdout = fh.read()
        with open(rec["stderr"], "rb") as fh:
            stderr = fh.read()
        csv_bytes = None
        if inv.csv and os.path.exists(inv.csv):
            with open(inv.csv, "rb") as fh:
                csv_bytes = fh.read()
        return Outcome(rec["code"], stdout, stderr, csv_bytes)

    def judge(self, rec):
        out = rec["outcome"] = self.outcome(rec)
        rec["emit_bytes"] = len(out.stdout) + len(out.csv or b"")
        rec["stdout_sha"] = hashlib.sha256(out.stdout).hexdigest()
        inv = rec["inv"]
        key = (inv.name, out.code, rec["stdout_sha"], hashlib.sha256(out.stderr + (out.csv or b"")).hexdigest())
        if key not in self.cache:
            reason = check(inv, out)
            known = inv.known_defect if reason and is_known_defect(inv, out) else None
            self.cache[key] = (reason, known)
        reason, known = self.cache[key]
        self.attempted += 1
        if reason:
            self.failures.append((inv.name, reason, known))
        if inv.csv and os.path.exists(inv.csv):
            os.remove(inv.csv)

    @property
    def unexpected(self):
        return [f for f in self.failures if f[2] is None]


# --- metrics ---------------------------------------------------------------------


def end_to_end(passes, setup):
    walls = [sum(r["wall"] for r in p) for p in passes]
    cmds = [r["wall"] for p in passes for r in p]
    return {
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(cmds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(r["rss_kib"] for r in p) for p in passes) / 1024.0,
    }, len(cmds)


def layer_totals(records):
    """Self time per span name, calls, work counters and startup for one pass."""
    self_ns, calls, work = Counter(), Counter(), Counter()
    startup_ns = 0
    s_set_sums = 0
    for rec in records:
        with open(rec["trace"], encoding="utf-8") as fh:
            tr = json.load(fh)
        child = Counter()
        for sid, parent, name, start, end, helper in tr["spans"]:
            if parent >= 0:
                child[parent] += end - start
        for sid, parent, name, start, end, helper in tr["spans"]:
            self_ns[name] += end - start - child[sid] - helper
        for name, ns in tr["helper_ns"].items():
            self_ns[name] += ns
        calls.update(tr["counts"])
        work.update(tr["work"])
        startup_ns += tr["startup_ns"] or 0
        if rec["inv"].check == "s_set":
            s_set_sums += tr["counts"].get("randset.subset_sums", 0)
    s_set_laws = sum(1 for r in records if r["inv"].check == "s_set")
    return self_ns, calls, work, startup_ns, s_set_sums, s_set_laws


def per_layer(records):
    self_ns, calls, work, startup_ns, s_set_sums, s_set_laws = layer_totals(records)

    def span(metric_stem):
        for prefix, real in METRIC_SPAN.items():
            if metric_stem.startswith(prefix):
                return real + metric_stem[len(prefix):]
        return metric_stem

    transform_s = (self_ns["randset.subset_sums"] + self_ns["randset.subset_mobius"]) / 1e9
    values = {
        "cli.startup_s": startup_ns / 1e9,
        "cli.emit_bytes": sum(r["emit_bytes"] for r in records),
        "randset.transform_ops": work["randset.transform_ops"],
        "randset.transform_ops_per_s": work["randset.transform_ops"] / transform_s if transform_s else 0.0,
        "lattice.elements_built": work["lattice.elements_built"],
        "scan.grid_evals": work["scan.grid_evals"],
        "scan.table_builds_per_law": s_set_sums / s_set_laws if s_set_laws else 0.0,
    }
    for stage, names in STAGES.items():
        values[f"stage.{stage}.self_s"] = sum(self_ns[n] for n in names) / 1e9

    def lookup(name):
        if name in values:
            return values[name]
        if name.endswith(".self_s"):
            return self_ns[span(name[: -len(".self_s")])] / 1e9
        if name.endswith(".calls"):
            return calls[span(name[: -len(".calls")])]
        raise Failure(f"BENCHMARK.json names an unknown per-layer metric {name!r}")

    return lookup


def median_over(passes, names, lookup_of):
    lookups = [lookup_of(p) for p in passes]
    return {name: statistics.median(lk(name) for lk in lookups) for name in names}


# --- main ---------------------------------------------------------------------------


def measure(args, root, spec, work, started):
    if args.workload not in WORKLOADS:
        raise Failure(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    meta = metadata(root)
    invs = generate(args.workload, args.seed, work)
    judge = Judge()
    with Runner(root, work, started + RUN_LIMIT_S, judge) as runner:
        runner.setup_sample()  # writes the bytecode cache; not counted

        def more_passes(done, traced, spent_s, setup=None):
            """Adds passes while another one fits in --seconds of measured time."""
            last = sum(r["wall"] for r in done[-1])
            while spent_s + last <= args.seconds:
                done.append(runner.run_pass(invs, traced, setup))
                last = sum(r["wall"] for r in done[-1])
                spent_s += last
            return done

        if not args.trace:
            setup = []
            first = runner.run_pass(invs, False, setup)
            passes = more_passes([first], False, sum(r["wall"] for r in first), setup)
            metrics, samples = end_to_end(passes, setup)
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            notes = [f"cmd_p50_s: median of {samples} invocations over {len(passes)} pass(es); "
                     f"setup_s: median of {len(setup)} samples"]
            notes += [f"{statistics.median(p[i]['wall'] for p in passes):8.3f} s  exit {passes[0][i]['code']}  {inv.name}"
                      for i, inv in enumerate(invs)]
            extra = {}
        else:
            # each invocation runs plain and then traced, back to back, so the
            # overhead is not confounded with drift in the machine's speed
            plain, first = [], []
            for i, inv in enumerate(invs):
                plain.append(runner.run_one(i, inv, False))
                first.append(runner.run_one(i, inv, True))
            plain_s, first_s = (sum(r["wall"] for r in p) for p in (plain, first))
            traced = more_passes([first], True, plain_s + first_s)
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = median_over(traced, [n for n in names if n != "trace.overhead_s"], per_layer)
            metrics["trace.overhead_s"] = first_s - plain_s
            same = all(a["stdout_sha"] == b["stdout_sha"] for p in traced for a, b in zip(p, plain))
            if not same:
                judge.failures.append(("shim", "traced stdout differs from untraced stdout", None))
            notes = [f"{len(traced)} traced pass(es), the first paired with an untraced one; "
                     f"shim stdout identical: {same}"]
            extra = {"untraced_wall_s": plain_s}
    meta["loadavg_end"] = os.getloadavg()
    missing = [n for n in names if n not in metrics]
    if missing:
        raise Failure(f"metrics not measured: {missing}")
    return meta, metrics, names, units, judge, notes, extra


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        root, spec = checkout_root()
        with tempfile.TemporaryDirectory(prefix=".clibench-", dir=root) as work:
            meta, metrics, names, units, judge, notes, extra = measure(args, root, spec, work, started)
    except Failure as exc:
        print(f"clibench: {exc}", file=sys.stderr)
        return 2
    print("metadata " + json.dumps(meta, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in names:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for key, value in extra.items():
        print(f"  {key} = {value:.6g}")
    fail_frac = len(judge.failures) / judge.attempted
    print(f"  fail_frac = {fail_frac:.4g} ratio ({len(judge.failures)} of {judge.attempted} invocations)")
    for note in notes:
        print(f"  {note}")
    for name, reason, known in sorted(set(judge.failures)):
        label = f"known defect {known}" if known else "UNEXPECTED"
        print(f"  failed [{label}] {name}: {reason}")
    result = {
        "correct": not judge.unexpected,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
