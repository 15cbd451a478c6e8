"""Command-line surface: lattice, cm, randset, scan, approx, cmseq.

Every command emits one JSON document (stdout or --out) with deterministic
key order; grid-shaped results additionally go to CSV via --csv.  Exit codes:
0 for success or affirmative verdicts, 1 for negative mathematical verdicts
(for instance "not completely monotone", with the certificate in the JSON),
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import approx as approx_mod
from . import cm as cm_mod
from . import lattice as lattice_mod
from . import moments as moments_mod
from . import randset as randset_mod
from . import scan as scan_mod
from .errors import (
    CmlatError,
    CyclicCovers,
    FormatError,
    NonCoverEdge,
    NotALattice,
    NotAVoidFunctional,
    SearchFailed,
)
from .randset import mask_set

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj != obj:  # NaN is not valid strict JSON
        return "nan"
    return obj


def _emit(doc, out_path):
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    if not path:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _mask_doc(mask, n):
    return {"mask": int(mask), "set": mask_set(int(mask), n)}


def _number(text):
    try:
        return Fraction(text)
    except ValueError:
        raise FormatError(f"bad number {text!r}") from None


def load_lattice(spec: str):
    """Builtin lattice specs (chain:k, boolean:n, diamond:k, pentagon) or a
    cover-pair file path."""
    kind, _, arg = spec.partition(":")
    if kind == "chain":
        return lattice_mod.chain_lattice(int(arg))
    if kind == "boolean":
        return lattice_mod.boolean_lattice(int(arg))
    if kind == "diamond":
        return lattice_mod.diamond_lattice(int(arg))
    if kind == "pentagon":
        return lattice_mod.pentagon_lattice()
    return lattice_mod.read_lattice_file(spec)


def load_distribution(spec: str):
    """Builtin distribution specs (uniform-singleton:n, singleton:p1,p2,...)
    or a mass-table file path."""
    kind, _, arg = spec.partition(":")
    if kind == "uniform-singleton":
        return randset_mod.uniform_singleton(int(arg))
    if kind == "singleton":
        return randset_mod.singleton_set(*[_number(p) for p in arg.split(",")])
    return randset_mod.read_distribution_file(spec)


def _config(args, fields):
    cfg = {"seed": args.seed}
    for name in fields:
        cfg[name.replace("_", "-")] = getattr(args, name)
    return cfg


def _function_doc(fn):
    return {
        "values": [fn.values[x] for x in fn.lattice.elements],
        "kind": fn.kind,
    }


def _distribution_doc(x):
    return {
        "n": x.n,
        "masses": {
            str(mask): {"probability": p, **_mask_doc(mask, x.n)}
            for mask, p in enumerate(x.probs)
            if p != 0
        },
    }


# --- command handlers -------------------------------------------------------


def cmd_lattice_check(args):
    try:
        lat = load_lattice(args.lattice)
    except (NotALattice, CyclicCovers, NonCoverEdge) as exc:
        doc = {
            "command": "lattice check",
            "config": _config(args, ()),
            "result": {"valid": False, "reason": str(exc), "kind": type(exc).__name__},
        }
        _emit(doc, args.out)
        return EXIT_NEGATIVE
    result = {
        "valid": True,
        "n": lat.n,
        "top": lat.top,
        "bottom": lat.bottom,
        "d_max": lattice_mod.d_max(lat),
        "distributive": lattice_mod.is_distributive(lat),
        "cover_pairs": sorted(lat.cover_pairs()),
    }
    _emit({"command": "lattice check", "config": _config(args, ()), "result": result}, args.out)
    return EXIT_OK


def cmd_lattice_make(args):
    lat = load_lattice(args.kind)
    lattice_mod.write_lattice_file(lattice_mod.materialize(lat), args.out_lattice)
    result = {"written": args.out_lattice, "n": lat.n, "d_max": lattice_mod.d_max(lat)}
    _emit({"command": "lattice make", "config": _config(args, ()), "result": result}, args.out)
    return EXIT_OK


def _load_fn(args, lat):
    return cm_mod.read_function_file(args.fn, lat)


def _cm_verdict_doc(verdict):
    doc = {
        "is_cm": verdict.is_cm,
        "indeterminate": verdict.indeterminate,
        "min_weight": verdict.min_weight,
        "tol": verdict.tol,
    }
    if verdict.witness is not None:
        w = verdict.witness
        doc["certificate"] = {
            "element": w.element,
            "weight": w.weight,
            "covering": list(w.covering),
            "delta_value": w.delta_value,
        }
    return doc


def cmd_cm_check(args):
    lat = load_lattice(args.lattice)
    fn = _load_fn(args, lat)
    verdict = cm_mod.is_cm(fn, tol=args.tol)
    doc = {"command": "cm check", "config": _config(args, ("tol",)), "result": _cm_verdict_doc(verdict)}
    _emit(doc, args.out)
    return EXIT_OK if verdict.is_cm else EXIT_NEGATIVE


def cmd_cm_power(args):
    lat = load_lattice(args.lattice)
    fn = _load_fn(args, lat)
    alpha = float(args.alpha) if "." in args.alpha or "e" in args.alpha else int(args.alpha)
    powered = cm_mod.power(fn, alpha)
    verdict = cm_mod.is_cm(powered, tol=args.tol)
    if args.out_fn:
        cm_mod.write_function_file(powered, args.out_fn, args.lattice)
    doc = {
        "command": "cm power",
        "config": _config(args, ("alpha", "tol")),
        "result": {"power": _function_doc(powered), "verdict": _cm_verdict_doc(verdict)},
    }
    _emit(doc, args.out)
    return EXIT_OK if verdict.is_cm else EXIT_NEGATIVE


def cmd_cm_extend(args):
    lat = load_lattice(args.lattice)
    with open(args.fn, "r", encoding="utf-8") as fh:
        sub_values = cm_mod.parse_partial_function_text(fh.read(), lat)
    extended = cm_mod.extend_cm(lat, sub_values)
    if args.out_fn:
        cm_mod.write_function_file(extended, args.out_fn, args.lattice)
    doc = {
        "command": "cm extend",
        "config": _config(args, ()),
        "result": {
            "subset": sorted(sub_values),
            "extension": _function_doc(extended),
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_cm_accompany(args):
    lat = load_lattice(args.lattice)
    fn = _load_fn(args, lat)
    acc = cm_mod.poisson_accompany(fn, args.m)
    if args.out_fn:
        cm_mod.write_function_file(acc, args.out_fn, args.lattice)
    # |f - acc| = |u^m - e^{m(u-1)}| at u = f^{1/m}, so the scalar bound applies
    distance = max(abs(float(a) - float(b)) for a, b in zip(fn.values, acc.values))
    doc = {
        "command": "cm accompany",
        "config": _config(args, ("m",)),
        "result": {
            "accompaniment": _function_doc(acc),
            "distance_from_input": distance,
            "scalar_bound": approx_mod.sup_gap(args.m),
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_randset_void(args):
    x = load_distribution(args.dist)
    v = randset_mod.void_functional(x)
    rows = [(mask, mask_set(mask, x.n), float(v.table[mask])) for mask in range(1 << x.n)]
    _write_csv(args.csv, ("mask", "set", "void_probability"), rows)
    doc = {
        "command": "randset void",
        "config": _config(args, ()),
        "result": {
            "n": x.n,
            "void": {str(m): {"value": v.table[m], **_mask_doc(m, x.n)} for m in range(1 << x.n)},
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_randset_invert(args):
    with open(args.void, "r", encoding="utf-8") as fh:
        v = randset_mod.parse_void_text(fh.read())
    try:
        x = randset_mod.from_void(v)
    except NotAVoidFunctional as exc:
        doc = {
            "command": "randset invert",
            "config": _config(args, ()),
            "result": {
                "valid": False,
                "reason": str(exc),
                "witness": _mask_doc(exc.witness, v.n),
                "mass": exc.mass,
            },
        }
        _emit(doc, args.out)
        return EXIT_NEGATIVE
    if args.out_dist:
        randset_mod.write_distribution_file(x, args.out_dist)
    doc = {
        "command": "randset invert",
        "config": _config(args, ()),
        "result": {"valid": True, "distribution": _distribution_doc(x)},
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_randset_power_exists(args):
    x = load_distribution(args.dist)
    verdict = randset_mod.power_exists(x, float(args.alpha), tol=args.tol)
    result = {
        "exists": verdict.exists,
        "alpha": float(args.alpha),
        "min_q": verdict.min_q,
        "boundary": verdict.boundary,
    }
    if verdict.witness is not None:
        result["witness"] = {**_mask_doc(verdict.witness, x.n), "q": verdict.q_values[verdict.witness]}
    if x.n <= 10:
        result["q"] = {str(m): {"value": verdict.q_values[m], **_mask_doc(m, x.n)} for m in range(1 << x.n)}
    doc = {"command": "randset power-exists", "config": _config(args, ("alpha", "tol")), "result": result}
    _emit(doc, args.out)
    return EXIT_OK if verdict.exists else EXIT_NEGATIVE


def cmd_randset_union(args):
    x = load_distribution(args.dist)
    u = randset_mod.union_iid(x, args.m)
    if args.out_dist:
        randset_mod.write_distribution_file(u, args.out_dist)
    doc = {
        "command": "randset union",
        "config": _config(args, ("m",)),
        "result": {"distribution": _distribution_doc(u)},
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_randset_poisson(args):
    x = load_distribution(args.dist)
    y = randset_mod.poisson_union(x, args.lam)
    if args.out_dist:
        randset_mod.write_distribution_file(y, args.out_dist)
    doc = {
        "command": "randset poisson",
        "config": _config(args, ("lam",)),
        "result": {"distribution": _distribution_doc(y)},
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_randset_dist(args):
    x = load_distribution(args.dist)
    y = load_distribution(args.dist2)
    doc = {
        "command": "randset dist",
        "config": _config(args, ()),
        "result": {"void_distance": randset_mod.void_distance(x, y)},
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_scan_s_set(args):
    x = load_distribution(args.dist)
    result, grid_rows = scan_mod._scan(x, args.T, args.step)
    rows = [(alpha, min_q, argmin, mask_set(argmin, x.n)) for alpha, min_q, argmin in grid_rows]
    _write_csv(args.csv, ("alpha", "min_q", "argmin_subset", "argmin_set"), rows)
    doc = {
        "command": "scan s-set",
        "config": _config(args, ("T", "step")),
        "result": {
            "components": [
                {
                    "lo": c.lo,
                    "hi": c.hi,
                    "point": c.is_point,
                    "margin": c.margin,
                }
                for c in result.components
            ],
            "domain": list(result.scan_domain),
            "step": result.grid_step,
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_scan_multi_interval(args):
    try:
        cert = scan_mod.construct_multi_interval(args.n, args.k, grid_step=args.step)
    except SearchFailed as exc:
        doc = {
            "command": "scan multi-interval",
            "config": _config(args, ("n", "k", "step")),
            "result": {"certified": False, "reason": str(exc), "params": exc.params},
        }
        _emit(doc, args.out)
        return EXIT_NEGATIVE
    doc = {
        "command": "scan multi-interval",
        "config": _config(args, ("n", "k", "step")),
        "result": {
            "certified": True,
            "epsilons": [str(e) for e in cert.epsilons],
            "delta": cert.delta,
            "size_masses": [str(m) for m in cert.size_masses],
            "items": cert.items,
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_scan_schur(args):
    point = [float(t) for t in args.x.split(",")]
    value = scan_mod.schur_gradient_check(point, args.alpha, h=args.h)
    doc = {
        "command": "scan schur",
        "config": _config(args, ("alpha", "h")),
        "result": {"x": point, "product": value, "positive": value > 0},
    }
    _emit(doc, args.out)
    return EXIT_OK if value > 0 else EXIT_NEGATIVE


def cmd_approx_psi(args):
    if args.m_list:
        ms = [int(t) for t in args.m_list.split(",")]
    else:
        ms = [args.m]
    rows = []
    reports = []
    for m in ms:
        rep = approx_mod.lower_bound_witness(m)
        reports.append(rep)
        rows.append(
            (
                m,
                rep.t_m if rep.t_m is not None else "",
                rep.sup_gap,
                rep.m_times_gap,
                rep.necessary_condition_slack,
                rep.separation,
                rep.separation_bound,
                rep.separation_holds,
            )
        )
    _write_csv(
        args.csv,
        ("m", "t_m", "sup_gap", "m_times_gap", "necessary_slack", "separation", "separation_bound", "separation_holds"),
        rows,
    )
    doc = {
        "command": "approx psi",
        "config": _config(args, ("m", "m_list")),
        "result": {
            "lower_constant": approx_mod.LOWER_BOUND_CONSTANT,
            "limit_m_times_gap": approx_mod.LIMIT_M_TIMES_GAP,
            "m_threshold": reports[-1].m_threshold,
            "reports": [
                {
                    "m": r.m,
                    "t_m": r.t_m,
                    "sup_gap": r.sup_gap,
                    "m_times_gap": r.m_times_gap,
                    "necessary_condition_slack": r.necessary_condition_slack,
                    "separation": r.separation,
                    "separation_bound": r.separation_bound,
                    "separation_holds": r.separation_holds,
                    "notes": list(r.notes),
                }
                for r in reports
            ],
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_cmseq_hankel(args):
    alpha = float(args.alpha)
    if alpha > 0 and float(alpha).is_integer():
        seq = moments_mod.two_atom_sequence(args.x, 2 * args.orders - 1).power(int(alpha))
        verdicts = [moments_mod.hankel_psd_check(seq, n) for n in range(2, args.orders + 1)]
        all_psd = all(v.psd for v in verdicts)
        doc = {
            "command": "cmseq hankel",
            "config": _config(args, ("x", "alpha", "orders")),
            "result": {
                "completely_monotone_at_truncation": all_psd,
                "orders_checked": args.orders,
                "min_eigenvalues": [v.min_eigenvalue for v in verdicts],
            },
        }
        _emit(doc, args.out)
        return EXIT_OK if all_psd else EXIT_NEGATIVE
    cert = moments_mod.two_atom_power_counterexample(args.x, alpha, order_cap=args.orders)
    doc = {
        "command": "cmseq hankel",
        "config": _config(args, ("x", "alpha", "orders")),
        "result": {
            "completely_monotone_at_truncation": False,
            "failing_order": cert.order,
            "min_eigenvalue": cert.min_eigenvalue,
            "trace": cert.trace,
            "decisive": cert.decisive,
            "vector": list(cert.vector),
        },
    }
    _emit(doc, args.out)
    return EXIT_NEGATIVE


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlat",
        description="Completely monotone functions on finite lattices and random subsets.",
    )
    parser.add_argument("--seed", type=int, default=0, help="echoed into outputs for reproducibility")
    sub = parser.add_subparsers(dest="group", required=True)

    def add(group_parser, name, handler, **kwargs):
        p = group_parser.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON document here instead of stdout")
        return p

    lattice = parser_group(sub, "lattice")
    p = add(lattice, "check", cmd_lattice_check, help="validate a lattice document")
    p.add_argument("--lattice", required=True)
    p = add(lattice, "make", cmd_lattice_make, help="write a builtin lattice to a file")
    p.add_argument("--kind", required=True, help="chain:k | boolean:n | diamond:k | pentagon")
    p.add_argument("--out-lattice", required=True)

    cm = parser_group(sub, "cm")
    p = add(cm, "check", cmd_cm_check, help="complete-monotonicity verdict")
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--tol", type=float, default=None)
    p = add(cm, "power", cmd_cm_power, help="pointwise power plus verdict")
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out-fn")
    p = add(cm, "extend", cmd_cm_extend, help="extend a c.m. function from a sublattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True, help="partial function document over the sublattice")
    p.add_argument("--out-fn")
    p = add(cm, "accompany", cmd_cm_accompany, help="Poisson accompaniment exp(-m(1-f^(1/m)))")
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-fn")

    randset = parser_group(sub, "randset")
    p = add(randset, "void", cmd_randset_void, help="void functional table")
    p.add_argument("--dist", required=True)
    p.add_argument("--csv")
    p = add(randset, "invert", cmd_randset_invert, help="distribution from a void functional")
    p.add_argument("--void", required=True, help="void-functional document")
    p.add_argument("--out-dist")
    p = add(randset, "power-exists", cmd_randset_power_exists, help="does the alpha-th power exist")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--tol", type=float, default=randset_mod.MASS_TOL)
    p = add(randset, "union", cmd_randset_union, help="union of m independent copies")
    p.add_argument("--dist", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-dist")
    p = add(randset, "poisson", cmd_randset_poisson, help="union of Poisson(lam) copies")
    p.add_argument("--dist", required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--out-dist")
    p = add(randset, "dist", cmd_randset_dist, help="sup distance between void functionals")
    p.add_argument("--dist", required=True)
    p.add_argument("--dist2", required=True)

    scan = parser_group(sub, "scan")
    p = add(scan, "s-set", cmd_scan_s_set, help="map the divisibility set over [0, T]")
    p.add_argument("--dist", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--csv")
    p = add(scan, "multi-interval", cmd_scan_multi_interval, help="construct a k-component witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p = add(scan, "schur", cmd_scan_schur, help="finite-difference Schur condition")
    p.add_argument("--x", required=True, help="comma-separated interior point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", type=float, default=None)

    approx = parser_group(sub, "approx")
    p = add(approx, "psi", cmd_approx_psi, help="approximation-rate ingredients per m")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--m-list", dest="m_list")
    p.add_argument("--csv")

    cmseq = parser_group(sub, "cmseq")
    p = add(cmseq, "hankel", cmd_cmseq_hankel, help="Hankel positivity of two-atom powers")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--orders", type=int, default=moments_mod.ORDER_CAP)

    return parser


def parser_group(sub, name):
    group = sub.add_parser(name)
    inner = group.add_subparsers(dest="command", required=True)
    return inner


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"cmlat: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as exc:
        print(f"cmlat: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CmlatError as exc:
        print(f"cmlat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
