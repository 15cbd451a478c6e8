"""Command-line surface: lattice, cm, randset, scan, approx, cmseq.

Every command emits one JSON document (stdout or --out) with deterministic
key order: ``{"command", "config", "result"}``, where ``config`` echoes the
options its subcommand declares at registration, defaults filled in.  A
handler returns its result and exit code; ``main`` wraps and emits them.
Grid-shaped results additionally go to CSV via --csv.  Exit codes:
0 for success or affirmative verdicts, 1 for negative mathematical verdicts
(for instance "not completely monotone", with the certificate in the JSON),
2 for usage or input errors.

A handler imports the modules of its command when it runs, so a command
loads no module it does not use; the parser registers the commands of the
named group alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from fractions import Fraction

from .errors import (
    CmlatError,
    CyclicCovers,
    FormatError,
    InvariantViolation,
    NonCoverEdge,
    NotALattice,
    NotAVoidFunctional,
    SearchFailed,
    SizeLimitExceeded,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _emit(doc, out_path):
    from ._output import layout, write

    try:
        pieces = layout(doc)  # checks every value: nothing is written before
    except ValueError as exc:  # an infinite float: strict JSON cannot spell it
        raise InvariantViolation(f"output not strict JSON: {exc}") from None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            write(pieces, fh)
    else:
        write(pieces, sys.stdout)


def _write_csv(path, header, rows):
    if not path:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse(option, text, convert):
    """``convert(text)``; text it rejects is a FormatError naming ``option``."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"{option}: bad value {text!r}") from None


def load_lattice(spec: str, option: str):
    """Builtin lattice specs (chain:k, boolean:n, diamond:k, pentagon) or a
    cover-pair file path; ``option`` names the flag in errors."""
    from . import lattice as lattice_mod

    kind, colon, arg = spec.partition(":")
    if kind == "chain":
        return lattice_mod.chain_lattice(_parse(option, arg, int))
    if kind == "boolean":
        return lattice_mod.boolean_lattice(_parse(option, arg, int))
    if kind == "diamond":
        return lattice_mod.diamond_lattice(_parse(option, arg, int))
    if kind == "pentagon":
        if colon:  # N5 takes no argument
            raise FormatError(f"{option}: bad value {arg!r}")
        return lattice_mod.pentagon_lattice()
    return lattice_mod.read_lattice_file(spec)


def load_distribution(spec: str, option: str):
    """Builtin distribution specs (uniform-singleton:n, singleton:p1,p2,...)
    or a mass-table file path; ``option`` names the flag in errors."""
    from . import randset as randset_mod

    kind, _, arg = spec.partition(":")
    if kind == "uniform-singleton":
        return randset_mod.uniform_singleton(_parse(option, arg, int))
    if kind == "singleton":
        return randset_mod.singleton_set(*[_parse(option, p, Fraction) for p in arg.split(",")])
    return randset_mod.read_distribution_file(spec)


def _spent(spec):
    """n and the containment table of the law at ``spec``, made in the law's own array."""
    from .randset import _containment

    x = load_distribution(spec, "--dist")
    return x.n, _containment(x, spend=True)


def _function_doc(fn):
    from ._output import ValueList

    return {"values": ValueList(*fn._dense), "kind": fn.kind}


def _mask_doc(mask, n):
    from .randset import mask_set

    return {"mask": mask, "set": mask_set(mask, n)}


def _mask_table(n, column, d, masks=None):
    """The MaskTable of the dense table ``d`` at ``masks``, or at every mask."""
    import numpy as np

    from ._output import MaskTable

    if masks is None or len(masks) == len(d.values):  # every mask: no copy of the values
        return MaskTable(n, np.arange(len(d.values)), column, d.values, d.den)
    return MaskTable(n, masks, column, d.values[masks], d.den)


def _distribution_doc(x):
    from .randset import _atoms

    return {"n": x.n, "masses": _mask_table(x.n, "probability", x._dense, _atoms(x))}


# --- command handlers -------------------------------------------------------


def cmd_lattice_check(args):
    from . import lattice as lattice_mod

    try:
        lat = load_lattice(args.lattice, "--lattice")
    except (NotALattice, CyclicCovers, NonCoverEdge) as exc:
        return {"valid": False, "reason": str(exc), "kind": type(exc).__name__}, EXIT_NEGATIVE
    result = {
        "valid": True,
        "n": lat.n,
        "top": lat.top,
        "bottom": lat.bottom,
        "d_max": lattice_mod.d_max(lat),
        "distributive": lattice_mod.is_distributive(lat),
        "cover_pairs": sorted(lat.cover_pairs()),
    }
    return result, EXIT_OK


def cmd_lattice_make(args):
    from . import lattice as lattice_mod

    lat = load_lattice(args.kind, "--kind")
    if lat.n > lattice_mod.GENERAL_SIZE_CAP:  # a larger document could not be read back
        raise SizeLimitExceeded(f"{lat.n} elements exceeds cap {lattice_mod.GENERAL_SIZE_CAP}")
    lattice_mod.write_lattice_file(lat, args.out_lattice)
    return {"written": args.out_lattice, "n": lat.n, "d_max": lattice_mod.d_max(lat)}, EXIT_OK


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
    from . import cm as cm_mod

    lat = load_lattice(args.lattice, "--lattice")
    fn = cm_mod.read_function_file(args.fn, lat)
    verdict = cm_mod.is_cm(fn, tol=args.tol)
    return _cm_verdict_doc(verdict), EXIT_OK if verdict.is_cm else EXIT_NEGATIVE


def cmd_cm_power(args):
    from . import cm as cm_mod

    lat = load_lattice(args.lattice, "--lattice")
    fn = cm_mod.read_function_file(args.fn, lat)
    try:
        alpha = int(args.alpha)
    except ValueError:
        alpha = _parse("--alpha", args.alpha, float)
    powered = cm_mod.power(fn, alpha)
    verdict = cm_mod.is_cm(powered, tol=args.tol)
    if args.out_fn:
        cm_mod.write_function_file(powered, args.out_fn, args.lattice)
    result = {"power": _function_doc(powered), "verdict": _cm_verdict_doc(verdict)}
    return result, EXIT_OK if verdict.is_cm else EXIT_NEGATIVE


def cmd_cm_extend(args):
    from . import cm as cm_mod

    lat = load_lattice(args.lattice, "--lattice")
    with open(args.fn, "r", encoding="utf-8") as fh:
        sub_values = cm_mod.parse_partial_function_text(fh, lat)
    extended = cm_mod.extend_cm(lat, sub_values)
    if args.out_fn:
        cm_mod.write_function_file(extended, args.out_fn, args.lattice)
    return {"subset": sorted(sub_values), "extension": _function_doc(extended)}, EXIT_OK


def cmd_cm_accompany(args):
    from . import approx as approx_mod
    from . import cm as cm_mod
    from ._kernel import _floats

    lat = load_lattice(args.lattice, "--lattice")
    fn = cm_mod.read_function_file(args.fn, lat)
    acc = cm_mod.poisson_accompany(fn, args.m)
    if args.out_fn:
        cm_mod.write_function_file(acc, args.out_fn, args.lattice)
    # |f - acc| = |u^m - e^{m(u-1)}| at u = f^{1/m}, so the scalar bound applies
    distance = float(abs(_floats(fn._dense) - _floats(acc._dense)).max())
    result = {
        "accompaniment": _function_doc(acc),
        "distance_from_input": distance,
        "scalar_bound": approx_mod.sup_gap(args.m),
    }
    return result, EXIT_OK


def cmd_randset_void(args):
    from . import randset as randset_mod
    from ._kernel import _Dense, _floats

    x = load_distribution(args.dist, "--dist")
    d = randset_mod.void_functional(x)._dense
    if args.csv:  # the CSV holds floats, the JSON the exact values
        floats = _mask_table(x.n, "value", _Dense(_floats(d)))
        _write_csv(args.csv, ("mask", "set", "void_probability"), floats.rows())
    return {"n": x.n, "void": _mask_table(x.n, "value", d)}, EXIT_OK


def cmd_randset_invert(args):
    from . import randset as randset_mod

    with open(args.void, "r", encoding="utf-8") as fh:
        v = randset_mod.parse_void_text(fh)
    try:
        x = randset_mod.from_void(v)
    except NotAVoidFunctional as exc:
        witness = _mask_doc(exc.witness, v.n)
        return {"valid": False, "reason": str(exc), "witness": witness, "mass": exc.mass}, EXIT_NEGATIVE
    if args.out_dist:
        randset_mod.write_distribution_file(x, args.out_dist)
    return {"valid": True, "distribution": _distribution_doc(x)}, EXIT_OK


def cmd_randset_power_exists(args):
    from . import randset as randset_mod

    if args.tol is None:
        args.tol = randset_mod.MASS_TOL
    n, w = _spent(args.dist)
    alpha = _parse("--alpha", args.alpha, float)
    verdict = randset_mod._power_q(n, w, alpha, args.tol)
    result = {"exists": verdict.exists, "alpha": alpha, "min_q": verdict.min_q, "boundary": verdict.boundary}
    if verdict.witness is not None:
        # the witness is the argmin of q: its entry is min_q, and q_values is never built
        result["witness"] = {**_mask_doc(verdict.witness, n), "q": verdict.min_q}
    if n <= 10:
        result["q"] = _mask_table(n, "value", verdict._dense)
    return result, EXIT_OK if verdict.exists else EXIT_NEGATIVE


def cmd_randset_union(args):
    from . import randset as randset_mod

    u = randset_mod._union(*_spent(args.dist), args.m)
    if args.out_dist:
        randset_mod.write_distribution_file(u, args.out_dist)
    return {"distribution": _distribution_doc(u)}, EXIT_OK


def cmd_randset_poisson(args):
    from . import randset as randset_mod

    y = randset_mod._poisson(*_spent(args.dist), args.lam)
    if args.out_dist:
        randset_mod.write_distribution_file(y, args.out_dist)
    return {"distribution": _distribution_doc(y)}, EXIT_OK


def cmd_randset_dist(args):
    from . import randset as randset_mod

    x, y = load_distribution(args.dist, "--dist"), load_distribution(args.dist2, "--dist2")
    return {"void_distance": randset_mod.void_distance(x, y)}, EXIT_OK


def _grid_rows(n, alphas, values, masks):
    """The CSV rows (alpha, min_q, argmin mask, its set) of a scan grid,
    converted in chunks of ``CHUNK_ROWS``."""
    from .randset import CHUNK_ROWS, mask_set_texts

    sets = mask_set_texts(n)
    for start in range(0, len(alphas), CHUNK_ROWS):
        chunk = slice(start, start + CHUNK_ROWS)
        argmins = masks[chunk].tolist()
        yield from zip(alphas[chunk].tolist(), values[chunk].tolist(), argmins, sets(argmins))


def cmd_scan_s_set(args):
    from . import scan as scan_mod

    x = load_distribution(args.dist, "--dist")
    result, grid = scan_mod._scan(x, args.T, args.step)
    if args.csv:
        _write_csv(args.csv, ("alpha", "min_q", "argmin_subset", "argmin_set"), _grid_rows(x.n, *grid))
    components = [
        {"lo": c.lo, "hi": c.hi, "point": c.is_point, "margin": c.margin} for c in result.components
    ]
    return {"components": components, "domain": list(result.scan_domain), "step": result.grid_step}, EXIT_OK


def cmd_scan_multi_interval(args):
    from . import scan as scan_mod

    try:
        cert = scan_mod.construct_multi_interval(args.n, args.k, grid_step=args.step)
    except SearchFailed as exc:
        return {"certified": False, "reason": str(exc), "params": exc.params}, EXIT_NEGATIVE
    result = {
        "certified": True,
        "epsilons": [str(e) for e in cert.epsilons],
        "delta": cert.delta,
        "size_masses": [str(m) for m in cert.size_masses],
        "items": cert.items,
    }
    return result, EXIT_OK


def cmd_scan_schur(args):
    from . import scan as scan_mod

    point = [_parse("--x", t, float) for t in args.x.split(",")]
    value = scan_mod.schur_gradient_check(point, args.alpha)
    return {"x": point, "product": value, "positive": value > 0}, EXIT_OK if value > 0 else EXIT_NEGATIVE


def cmd_approx_psi(args):
    from . import approx as approx_mod

    ms = [args.m] if args.m_list is None else [_parse("--m-list", t, int) for t in args.m_list.split(",")]
    fields = ("m", "t_m", "sup_gap", "m_times_gap", "necessary_condition_slack", "separation",
              "separation_bound", "separation_holds")
    reports = [approx_mod.lower_bound_witness(m) for m in ms]
    docs = [{f: getattr(r, f) for f in fields} for r in reports]
    _write_csv(
        args.csv,
        ["necessary_slack" if f == "necessary_condition_slack" else f for f in fields],
        (["" if v is None else v for v in doc.values()] for doc in docs),  # t_m is None at m = 1
    )
    result = {
        "lower_constant": approx_mod.LOWER_BOUND_CONSTANT,
        "limit_m_times_gap": approx_mod.LIMIT_M_TIMES_GAP,
        "m_threshold": reports[-1].m_threshold,
        "reports": [{**doc, "notes": list(r.notes)} for doc, r in zip(docs, reports)],
    }
    return result, EXIT_OK


def cmd_cmseq_hankel(args):
    from . import moments as moments_mod

    if args.orders is None:
        args.orders = moments_mod.ORDER_CAP
    alpha = _parse("--alpha", args.alpha, float)
    if alpha > 0 and float(alpha).is_integer():
        verdicts = list(moments_mod._hankel_sweep(args.x, int(alpha), args.orders))
        all_psd = all(v.psd for v in verdicts)
        result = {
            "completely_monotone_at_truncation": all_psd,
            "orders_checked": args.orders,
            "min_eigenvalues": [v.min_eigenvalue for v in verdicts],
        }
        return result, EXIT_OK if all_psd else EXIT_NEGATIVE
    cert = moments_mod.two_atom_power_counterexample(args.x, alpha, order_cap=args.orders)
    result = {
        "completely_monotone_at_truncation": False,
        "failing_order": cert.order,
        "min_eigenvalue": cert.min_eigenvalue,
        "trace": cert.trace,
        "decisive": cert.decisive,
        "vector": list(cert.vector),
    }
    return result, EXIT_NEGATIVE


# --- parser -----------------------------------------------------------------


def build_parser(group=None) -> argparse.ArgumentParser:
    """The parser of every group; the commands of ``group`` alone when it
    names one (a run parses one command), else the commands of every group."""
    parser = argparse.ArgumentParser(
        prog="cmlat",
        description="Completely monotone functions on finite lattices and random subsets.",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    for name, commands in _GROUPS.items():
        inner = parser_group(sub, name)
        if group not in _GROUPS or group == name:
            commands(functools.partial(_add, inner))
    return parser


def _add(group_parser, name, handler, config=(), **kwargs):
    """Register a subcommand; ``config`` names the options its document echoes.
    Its long options are matched in full only: a prefix is a usage error, not
    the option it abbreviates, so an option a command no longer has cannot
    pass for another (a prefix of ``--help`` would print help and exit 0)."""
    p = group_parser.add_parser(name, allow_abbrev=False, **kwargs)
    p.set_defaults(handler=handler, config=config)
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    return p


def _lattice_commands(add):
    p = add("check", cmd_lattice_check, help="validate a lattice document")
    p.add_argument("--lattice", required=True)
    p = add("make", cmd_lattice_make, help="write a builtin lattice to a file")
    p.add_argument("--kind", required=True, help="chain:k | boolean:n | diamond:k | pentagon")
    p.add_argument("--out-lattice", required=True)


def _cm_commands(add):
    p = add("check", cmd_cm_check, help="complete-monotonicity verdict", config=("tol",))
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--tol", type=float, default=None)
    p = add("power", cmd_cm_power, help="pointwise power plus verdict", config=("alpha", "tol"))
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out-fn")
    p = add("extend", cmd_cm_extend, help="extend a c.m. function from a sublattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True, help="partial function document over the sublattice")
    p.add_argument("--out-fn")
    p = add("accompany", cmd_cm_accompany, help="Poisson accompaniment exp(-m(1-f^(1/m)))", config=("m",))
    p.add_argument("--lattice", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-fn")


def _randset_commands(add):
    p = add("void", cmd_randset_void, help="void functional table")
    p.add_argument("--dist", required=True)
    p.add_argument("--csv")
    p = add("invert", cmd_randset_invert, help="distribution from a void functional")
    p.add_argument("--void", required=True, help="void-functional document")
    p.add_argument("--out-dist")
    p = add("power-exists", cmd_randset_power_exists, help="does the alpha-th power exist",
            config=("alpha", "tol"))
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--tol", type=float, default=None)
    p = add("union", cmd_randset_union, help="union of m independent copies", config=("m",))
    p.add_argument("--dist", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-dist")
    p = add("poisson", cmd_randset_poisson, help="union of Poisson(lam) copies", config=("lam",))
    p.add_argument("--dist", required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--out-dist")
    p = add("dist", cmd_randset_dist, help="sup distance between void functionals")
    p.add_argument("--dist", required=True)
    p.add_argument("--dist2", required=True)


def _scan_commands(add):
    p = add("s-set", cmd_scan_s_set, help="map the divisibility set over [0, T]", config=("T", "step"))
    p.add_argument("--dist", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--csv")
    p = add("multi-interval", cmd_scan_multi_interval, help="construct a k-component witness",
            config=("n", "k", "step"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p = add("schur", cmd_scan_schur, help="closed-form Schur condition", config=("alpha",))
    p.add_argument("--x", required=True, help="comma-separated interior point")
    p.add_argument("--alpha", type=float, required=True)


def _approx_commands(add):
    p = add("psi", cmd_approx_psi, help="approximation-rate ingredients per m",
            config=("m", "m_list"))
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--m-list", dest="m_list")
    p.add_argument("--csv")


def _cmseq_commands(add):
    p = add("hankel", cmd_cmseq_hankel, help="Hankel positivity of two-atom powers",
            config=("x", "alpha", "orders"))
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--orders", type=int, default=None)


_GROUPS = {
    "lattice": _lattice_commands,
    "cm": _cm_commands,
    "randset": _randset_commands,
    "scan": _scan_commands,
    "approx": _approx_commands,
    "cmseq": _cmseq_commands,
}


def parser_group(sub, name):
    group = sub.add_parser(name)
    inner = group.add_subparsers(dest="command", required=True)
    return inner


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        result, code = args.handler(args)
        # read after the handler, which fills in defaults it computes (tol, orders)
        config = {name.replace("_", "-"): getattr(args, name) for name in args.config}
        _emit({"command": f"{args.group} {args.command}", "config": config, "result": result}, args.out)
        return code
    except FormatError as exc:
        print(f"cmlat: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"cmlat: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CmlatError as exc:
        print(f"cmlat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect, still reported in one line: no traceback reaches the user
        message = " ".join(str(exc).split())
        print(f"cmlat: unexpected {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
