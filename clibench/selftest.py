"""Self-tests of the benchmark: the answer checker and the traced counts.

    python3 clibench/selftest.py

Run from the root of a cmlat checkout; exits 1 if any test fails.

1. Checker: genuine answers pass, and tampered answers each count as a
   failure (a flipped `exists`, a component endpoint shifted by 0.1, a wrong
   `d_max`, a certificate whose witness changed, a positive verdict with a
   wrong least value).
2. Counts: on every workload, two traced passes with the same seed give
   identical call counts,
   transform ops, grid evaluations, lattice elements built and emitted
   bytes, and the shim's stdout is byte-identical to the untraced stdout.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

from checks import Outcome, check, is_known_defect, mask_set
from run import Judge, Runner, checkout_root, layer_totals
from workloads import WORKLOADS, generate

SEED = 1


def tampered(out, edit):
    doc = json.loads(out.stdout)
    edit(doc["result"])
    return Outcome(out.code, json.dumps(doc).encode(), out.stderr, out.csv)


def flip_exists(res):
    res["exists"] = not res["exists"]


def move_witness(res, n=16):
    # a self-consistent certificate for another mask
    res["witness"]["mask"] ^= 1
    res["witness"]["set"] = mask_set(res["witness"]["mask"], n)


def shift_ray(res):
    res["components"][-1]["lo"] += 0.1


def shift_point(res):
    res["components"][1]["lo"] += 0.1
    res["components"][1]["hi"] += 0.1


def wrong_d_max(res):
    res["d_max"] += 1


def move_cm_witness(res):
    res["verdict"]["certificate"]["element"] += 1


def raise_min_q(res):
    res["min_q"] = 0.01


def raise_min_weight(res):
    res["verdict"]["min_weight"] += 0.01


TAMPERS = {
    "randset-float": {
        "power-exists n16 a0.5": {"flipped exists": flip_exists, "witness mask changed": move_witness},
        "power-exists n16 a15.5": {"flipped exists": flip_exists},
        "power-exists n16 a14.5": {"flipped exists": flip_exists, "wrong nonnegative min_q": raise_min_q},
    },
    "scan": {
        "s-set singleton n6": {"ray endpoint shifted by 0.1": shift_ray, "point shifted by 0.1": shift_point},
    },
    "lattice": {
        "lattice check diamond5xchain6xchain6": {"wrong d_max": wrong_d_max},
        "cm power diamond5xchain6xchain6 a0.5": {"cm witness element changed": move_cm_witness},
        "cm power chain20xchain20 a1.5": {"wrong min_weight": raise_min_weight},
    },
}


def checker_test(runner, seed, work):
    ok = True
    for workload, cases in TAMPERS.items():
        invs = {inv.name: inv for inv in generate(workload, seed, work)}
        for name, edits in cases.items():
            inv = invs[name]
            (rec,) = runner.run_pass([inv], traced=False)
            out = rec["outcome"]
            genuine = check(inv, out)
            if genuine and not is_known_defect(inv, out):
                print(f"FAIL genuine answer of {name!r} rejected: {genuine}")
                ok = False
                continue
            for label, edit in edits.items():
                reason = check(inv, tampered(out, edit))
                status = "PASS" if reason else "FAIL"
                ok &= bool(reason)
                print(f"{status} {label} in {name!r} -> {reason or 'not detected'}")
    return ok


def count_signature(records):
    _, calls, work, _, _, _ = layer_totals(records)
    return {
        "calls": dict(sorted(calls.items())),
        "work": dict(sorted(work.items())),
        "emit_bytes": [r["emit_bytes"] for r in records],
    }


def count_test(runner, workload, seed, work):
    invs = generate(workload, seed, work)
    plain = runner.run_pass(invs, traced=False)
    sigs = []
    for _ in range(2):
        traced = runner.run_pass(invs, traced=True)
        same = [a["stdout_sha"] == b["stdout_sha"] for a, b in zip(plain, traced)]
        if not all(same):
            bad = [inv.name for inv, s in zip(invs, same) if not s]
            print(f"FAIL {workload}: shim stdout differs for {bad}")
            return False
        sigs.append(count_signature(traced))
    if sigs[0] != sigs[1]:
        diff = {k: (sigs[0][k], sigs[1][k]) for k in sigs[0] if sigs[0][k] != sigs[1][k]}
        print(f"FAIL {workload}: counts differ between traced passes: {str(diff)[:400]}")
        return False
    print(f"PASS {workload}: counts repeat exactly ({sum(sigs[0]['calls'].values())} calls, "
          f"work {sigs[0]['work']}, {sum(sigs[0]['emit_bytes'])} bytes); shim stdout identical")
    return True


def main():
    root, _ = checkout_root()
    ok = True
    with tempfile.TemporaryDirectory(prefix=".clibench-", dir=root) as work:
        with Runner(root, work, time.perf_counter() + 3600, Judge()) as runner:
            ok &= checker_test(runner, SEED, work)
            for workload in WORKLOADS:
                ok &= count_test(runner, workload, SEED, work)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
