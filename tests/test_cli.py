import contextlib
import csv
import io
import json
import math
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import cli
from cmlat._kernel import _Dense
from cmlat._output import MaskTable, string_order
from cmlat.cli import main
from cmlat.cm import LatticeFunction, WeightFunction, reconstruct, write_function_file
from cmlat.lattice import (
    boolean_lattice,
    chain_lattice,
    diamond_lattice,
    format_lattice_text,
    from_covers,
    materialize,
    product_lattice,
    write_lattice_file,
)
from cmlat import randset
from cmlat.errors import CmlatError, InvariantViolation
from cmlat.randset import RandomSubset, void_functional, write_distribution_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_power_exists_negative_verdict(capsys):
    code, doc, _ = run(
        capsys, "randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "1.5"
    )
    assert code == 1
    result = doc["result"]
    assert result["exists"] is False
    assert result["witness"]["mask"] == 7
    assert result["witness"]["set"] == "{1,2,3}"
    assert result["min_q"] == pytest.approx(1 - 3 * (2 / 3) ** 1.5 + 3 * (1 / 3) ** 1.5)


def test_power_exists_affirmative(capsys):
    code, doc, _ = run(
        capsys, "randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "2"
    )
    assert code == 0
    assert doc["result"]["exists"] is True


def test_cm_check_roundtrip(tmp_path, capsys):
    lat = diamond_lattice(3)
    lat_path = tmp_path / "diamond3.lat"
    write_lattice_file(lat, lat_path)
    fn = LatticeFunction(lat, [1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)])
    fn_path = tmp_path / "f.txt"
    write_function_file(fn, fn_path, "diamond3")
    code, doc, _ = run(capsys, "cm", "check", "--lattice", str(lat_path), "--fn", str(fn_path))
    assert code == 0
    assert doc["result"]["is_cm"] is True

    code, doc, _ = run(
        capsys, "cm", "power", "--lattice", str(lat_path), "--fn", str(fn_path), "--alpha", "0.5"
    )
    assert code == 1
    assert doc["result"]["verdict"]["certificate"]["element"] == 0


def test_lattice_check_and_make(tmp_path, capsys):
    out = tmp_path / "b3.lat"
    code, doc, _ = run(capsys, "lattice", "make", "--kind", "boolean:3", "--out-lattice", str(out))
    assert code == 0
    code, doc, _ = run(capsys, "lattice", "check", "--lattice", str(out))
    assert code == 0
    assert doc["result"]["d_max"] == 3 and doc["result"]["distributive"] is True

    bad = tmp_path / "bad.lat"
    bad.write_text("3\n0 1\n0 2\n")
    code, doc, _ = run(capsys, "lattice", "check", "--lattice", str(bad))
    assert code == 1
    assert doc["result"]["valid"] is False and doc["result"]["kind"] == "NotALattice"


@pytest.mark.parametrize("text, reason", [
    ("4\n0 2\n0 3\n1 2\n1 3\n", "elements 2 and 3 have no unique join"),
    ("3\n0 2\n1 2\n", "elements 0 and 1 have no unique meet"),  # every join, no bottom
])
def test_lattice_check_names_the_pair_without_a_bound(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.lat"
    path.write_text(text)
    code, doc, _ = run(capsys, "lattice", "check", "--lattice", str(path))
    assert code == 1
    assert doc["result"] == {"valid": False, "reason": reason, "kind": "NotALattice"}


@pytest.mark.parametrize("alpha", [None, "1.5"])
def test_cm_commands_leave_the_meet_table_unbuilt(tmp_path, capsys, monkeypatch, alpha):
    from cmlat import lattice as lattice_mod

    built = []
    original = lattice_mod.read_lattice_file

    def read(path):
        built.append(original(path))
        return built[-1]

    monkeypatch.setattr(lattice_mod, "read_lattice_file", read)
    lat_path, fn_path = tmp_path / "d3.lat", tmp_path / "f.txt"
    write_lattice_file(diamond_lattice(3), lat_path)
    fn_path.write_text("lattice d3\n0 1\n1 1/2\n2 1/2\n3 1/2\n4 1/4\n")
    argv = ["cm", "check"] if alpha is None else ["cm", "power", "--alpha", alpha]
    code, doc, _ = run(capsys, *argv, "--lattice", str(lat_path), "--fn", str(fn_path))
    assert code in (0, 1) and doc is not None
    (lat,) = built
    assert "_meet" not in vars(lat)


def test_lattice_check_input_error(tmp_path, capsys):
    bad = tmp_path / "garbage.lat"
    bad.write_text("x y z\n")
    code, doc, err = run(capsys, "lattice", "check", "--lattice", str(bad))
    assert code == 2
    assert doc is None and "line 1" in err


def test_randset_roundtrip_files(tmp_path, capsys):
    x = RandomSubset(2, [0, Fraction(1, 3), Fraction(2, 3), 0])
    src = tmp_path / "x.dist"
    write_distribution_file(x, src)
    out = tmp_path / "u.dist"
    code, doc, _ = run(
        capsys, "randset", "union", "--dist", str(src), "--m", "2", "--out-dist", str(out)
    )
    assert code == 0
    assert doc["result"]["distribution"]["masses"]["3"]["probability"] == "4/9"

    code, doc, _ = run(capsys, "randset", "dist", "--dist", str(src), "--dist2", str(out))
    assert code == 0
    assert doc["result"]["void_distance"] > 0


def test_randset_void_and_invert(tmp_path, capsys):
    csv_path = tmp_path / "void.csv"
    code, doc, _ = run(
        capsys, "randset", "void", "--dist", "singleton:1/5,3/10,1/2", "--csv", str(csv_path)
    )
    assert code == 0
    assert doc["result"]["void"]["1"]["value"] == "4/5"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "mask,set,void_probability"
    assert len(lines) == 9

    # a table that is not completely monotone inverts to a negative mass
    bad = tmp_path / "bad.void"
    r = 0.5**0.5
    bad.write_text(f"2\n0 1\n1 {r!r}\n2 {r!r}\n3 0\n")
    code, doc, _ = run(capsys, "randset", "invert", "--void", str(bad))
    assert code == 1
    assert doc["result"]["witness"]["mask"] == 3

    good = tmp_path / "good.void"
    good.write_text("2\n0 1\n1 1/2\n2 1/2\n3 0\n")
    code, doc, _ = run(capsys, "randset", "invert", "--void", str(good))
    assert code == 0


def test_randset_invert_decimal_float_table(tmp_path, capsys):
    # the decimal print of a float law's void table reads back as floats, so
    # rounding-sized negative masses fall in the tolerance band
    rng = random.Random(83)
    n = 10
    raw = [rng.random() if rng.random() < 0.25 else 0.0 for _ in range(1 << n)]
    total = sum(raw)
    x = RandomSubset(n, [m / total for m in raw])
    path = tmp_path / "float.void"
    path.write_text(f"{n}\n" + "".join(f"{k} {v!r}\n" for k, v in enumerate(void_functional(x).table)))
    code, doc, _ = run(capsys, "randset", "invert", "--void", str(path))
    assert code == 0
    masses = doc["result"]["distribution"]["masses"]
    for mask, p in enumerate(x.probs):
        got = float(masses[str(mask)]["probability"]) if str(mask) in masses else 0.0
        assert got == pytest.approx(p, abs=1e-12)


def test_randset_poisson(tmp_path, capsys):
    out = tmp_path / "y.dist"
    code, doc, _ = run(
        capsys, "randset", "poisson", "--dist", "uniform-singleton:2", "--lam", "1.5",
        "--out-dist", str(out),
    )
    assert code == 0
    mass_empty = float(doc["result"]["distribution"]["masses"]["0"]["probability"])
    assert mass_empty == pytest.approx(math.exp(-1.5), rel=1e-9)
    # the emitted file parses back into a valid distribution
    code, _, _ = run(capsys, "scan", "s-set", "--dist", str(out), "--T", "2")
    assert code == 0


def test_scan_s_set_csv(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code, doc, _ = run(
        capsys,
        "scan", "s-set", "--dist", "uniform-singleton:3", "--T", "4", "--step", "0.05",
        "--csv", str(csv_path),
    )
    assert code == 0
    comps = doc["result"]["components"]
    points = [c["lo"] for c in comps if c["point"]]
    assert points == [0.0, 1.0]
    ray = [c for c in comps if not c["point"]][0]
    assert ray["lo"] == pytest.approx(2.0, abs=0.02)
    header = csv_path.read_text().splitlines()[0]
    assert header == "alpha,min_q,argmin_subset,argmin_set"


def test_scan_multi_interval(capsys):
    code, doc, _ = run(capsys, "scan", "multi-interval", "--n", "4", "--k", "2")
    assert code == 0
    assert doc["result"]["certified"] is True
    assert doc["result"]["items"]["item1_pattern_exact"] is True


def test_scan_multi_interval_search_failure(capsys):
    # no eps chain certifies levels 2..4 on [8]; the search reports its work
    code, doc, _ = run(capsys, "scan", "multi-interval", "--n", "8", "--k", "4")
    assert code == 1
    assert doc["result"] == {
        "certified": False,
        "reason": "no eps chain certified levels 2..4 within 60 halvings each",
        "params": {"certify_calls": 7547, "k": 4, "n": 8},
    }


def test_scan_schur(capsys):
    code, doc, _ = run(capsys, "scan", "schur", "--x", "0.4,0.2", "--alpha", "1.5")
    assert code == 0
    assert doc["config"] == {"alpha": 1.5}
    assert doc["result"]["positive"] is True


def test_scan_schur_takes_no_step(capsys):
    # the gradient is in closed form: a step is an unknown option, not a prefix of --help
    with pytest.raises(SystemExit) as exc:
        main(["scan", "schur", "--x", "0.4,0.2", "--alpha", "1.5", "--h", "1e-6"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --h 1e-6" in captured.err


def test_readme_cli_lines_parse():
    # every command of the README's CLI block names options the parser has;
    # nothing runs, so no file is opened
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("cmlat ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        args = cli.build_parser(argv[0]).parse_args(argv)
        assert (args.group, args.command) == tuple(argv[:2]), line


def test_approx_psi(tmp_path, capsys):
    csv_path = tmp_path / "psi.csv"
    code, doc, _ = run(
        capsys, "approx", "psi", "--m-list", "2,10,1000", "--csv", str(csv_path)
    )
    assert code == 0
    reports = doc["result"]["reports"]
    assert [r["m"] for r in reports] == [2, 10, 1000]
    assert doc["result"]["m_threshold"] == 1
    m1000 = reports[-1]
    assert m1000["m_times_gap"] == pytest.approx(2 / math.e**2, rel=0.01)
    assert len(csv_path.read_text().strip().splitlines()) == 4


def test_approx_psi_at_large_m(capsys):
    code, doc, _ = run(capsys, "approx", "psi", "--m", str(10**16))
    assert code == 0
    assert doc["result"]["reports"][0]["m_times_gap"] == pytest.approx(2 / math.e**2, abs=1e-12)
    code, doc, err = run(capsys, "approx", "psi", "--m", str(10**400))
    assert code == 2 and doc is None
    assert err.startswith("cmlat: SizeLimitExceeded: m = 1.00e+400 exceeds the float range")


def test_approx_psi_scans_the_threshold_once(capsys):
    from cmlat import approx

    approx.separation_threshold.cache_clear()
    code, doc, _ = run(capsys, "approx", "psi", "--m-list", "2,10,100,1000,10000")
    assert code == 0 and doc["result"]["m_threshold"] == 1
    scans = approx.separation_threshold.cache_info()
    assert (scans.misses, scans.hits) == (1, 4)


def test_cmseq_hankel(capsys):
    code, doc, _ = run(capsys, "cmseq", "hankel", "--x", "0.5", "--alpha", "1.5")
    assert code == 1
    assert doc["result"]["failing_order"] == 4
    assert doc["result"]["min_eigenvalue"] < -1e-8 * doc["result"]["trace"]

    code, doc, _ = run(capsys, "cmseq", "hankel", "--x", "0.5", "--alpha", "2", "--orders", "8")
    assert code == 0
    assert doc["result"]["completely_monotone_at_truncation"] is True


def test_json_is_byte_identical(capsys):
    main(["randset", "void", "--dist", "uniform-singleton:2"])
    first = capsys.readouterr().out
    main(["randset", "void", "--dist", "uniform-singleton:2"])
    second = capsys.readouterr().out
    assert first == second
    main(["scan", "s-set", "--dist", "uniform-singleton:3", "--T", "4"])
    third = capsys.readouterr().out
    main(["scan", "s-set", "--dist", "uniform-singleton:3", "--T", "4"])
    assert capsys.readouterr().out == third


def test_scan_s_set_builds_one_containment_table(monkeypatch, capsys):
    calls = []
    real = randset._transform

    def counting(a, ground_n, op):
        calls.append(ground_n)
        return real(a, ground_n, op)

    monkeypatch.setattr(randset, "_transform", counting)
    assert main(["scan", "s-set", "--dist", "uniform-singleton:5", "--T", "6"]) == 0
    capsys.readouterr()
    assert calls == [5]


def test_out_writes_json_file(tmp_path, capsys):
    out = tmp_path / "doc.json"
    code = main(["randset", "void", "--dist", "uniform-singleton:2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["command"] == "randset void"


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cmlat", "randset", "power-exists",
         "--dist", "uniform-singleton:3", "--alpha", "1.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["result"]["exists"] is False


def test_usage_error_exit_code():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cmlat", "randset", "nonsense"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_bad_arguments_exit_two(capsys):
    assert main(["lattice", "check", "--lattice", "chain:abc"]) == 2
    capsys.readouterr()
    assert main(["randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "-1"]) == 2
    capsys.readouterr()
    assert main(["cm", "check", "--lattice", "chain:3", "--fn", "/nonexistent/f.txt"]) == 2
    capsys.readouterr()


def test_cm_extend_and_accompany(tmp_path, capsys):
    lat_path = tmp_path / "b3.lat"
    write_lattice_file(materialize(boolean_lattice(3)), lat_path)
    partial = tmp_path / "square.txt"
    partial.write_text("lattice b3\n0 1\n1 9/10\n2 9/10\n3 4/5\n")
    ext = tmp_path / "ext.txt"
    code, doc, _ = run(
        capsys, "cm", "extend", "--lattice", str(lat_path), "--fn", str(partial),
        "--out-fn", str(ext),
    )
    assert code == 0
    assert doc["result"]["extension"]["values"][3] == "4/5"

    code, doc, _ = run(
        capsys, "cm", "accompany", "--lattice", str(lat_path), "--fn", str(ext), "--m", "5"
    )
    assert code == 0
    assert doc["result"]["distance_from_input"] <= doc["result"]["scalar_bound"] + 1e-12


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_exponents_exit_two(tmp_path, capsys, alpha):
    code, doc, err = run(capsys, "randset", "power-exists", "--dist", "uniform-singleton:3",
                         "--alpha", alpha)
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err
    lat_path, fn_path = tmp_path / "d3.lat", tmp_path / "f.txt"
    write_lattice_file(diamond_lattice(3), lat_path)
    fn_path.write_text("lattice d3\n0 1\n1 1/2\n2 1/2\n3 1/2\n4 1/4\n")
    code, doc, err = run(capsys, "cm", "power", "--lattice", str(lat_path), "--fn", str(fn_path),
                         "--alpha", alpha)
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err


def exact_law_document(path, n=12, atoms=32, seed=5):
    rng = random.Random(seed)
    masks = rng.sample(range(1, 1 << n), atoms)
    weights = [rng.randint(1, 9) for _ in masks]
    total = sum(weights)
    path.write_text(f"{n}\n" + "".join(f"{a} {w}/{total}\n" for a, w in zip(masks, weights)))
    return str(path)


def test_exact_powers_over_budget_exit_two(tmp_path, capsys):
    # the k-th powers of a 4096-entry table would take terabits: refused before any power
    dist = exact_law_document(tmp_path / "exact12.dist")
    for argv in (["power-exists", "--dist", dist, "--alpha", "1e7"],
                 ["union", "--dist", dist, "--m", "100000000"]):
        code, doc, err = run(capsys, "randset", *argv)
        assert (code, doc) == (2, None)
        assert "BudgetExceeded" in err


def test_budget_message_is_short_for_huge_exponents(capsys):
    # int(1e308) and the bit count have over 300 digits; both print as %.3g
    code, doc, err = run(capsys, "randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "1e308")
    assert (code, doc) == (2, None)
    assert "BudgetExceeded" in err and "exponent 1.00e+308" in err and "about 1.60e+309 bits" in err
    assert len(err) < 160


def test_poisson_huge_rate_exits_zero(tmp_path, capsys):
    # seven prints of 1/7 sum to 1 - 4e-16: a float law whose V(empty) rounds below 1
    dist = tmp_path / "sevenths.dist"
    dist.write_text("3\n" + "".join(f"{a} 0.1428571428571428\n" for a in range(1, 8)))
    code, doc, err = run(capsys, "randset", "poisson", "--dist", str(dist), "--lam", "1e20")
    assert code == 0, err
    assert doc["result"]["distribution"]["masses"] == {
        "7": {"mask": 7, "probability": 1.0, "set": "{1,2,3}"}
    }


def test_oversized_chain_exits_two(capsys):
    code, doc, err = run(capsys, "lattice", "check", "--lattice", "chain:100000000")
    assert (code, doc) == (2, None)
    assert "SizeLimitExceeded" in err


def test_unexpected_exception_exits_two_in_one_line(monkeypatch, capsys):
    from cmlat import cli

    def broken(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_lattice_check", broken)
    code, doc, err = run(capsys, "lattice", "check", "--lattice", "chain:3")
    assert (code, doc) == (2, None)
    assert err == "cmlat: unexpected RuntimeError: first line second line\n"


def chain_product_document(a, b):
    """Cover document of chain(a) x chain(b), element (i, j) = i*b + j."""
    pairs = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    pairs += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return "\n".join([str(a * b)] + [f"{lo} {hi}" for lo, hi in sorted(pairs)]) + "\n", sorted(pairs)


def test_lattice_check_chain258_by_chain2(tmp_path, capsys):
    # over 255 two-step paths between some pairs: uint8 path counts wrapped here
    text, pairs = chain_product_document(258, 2)
    path = tmp_path / "c258x2.lat"
    path.write_text(text)
    code, doc, _ = run(capsys, "lattice", "check", "--lattice", str(path))
    assert code == 0
    result = doc["result"]
    assert result["valid"] and result["distributive"] and result["d_max"] == 2
    assert (result["top"], result["bottom"]) == (515, 0)
    assert [tuple(p) for p in result["cover_pairs"]] == pairs


def test_scale_smoke_chain64_by_chain32(tmp_path, capsys):
    # 2048 elements; checks results only, no timing
    lat = product_lattice(chain_lattice(64), chain_lattice(32))
    rebuilt = from_covers(lat.n, lat.cover_pairs())
    for table in ("_leq", "_join", "_meet"):
        assert np.array_equal(getattr(rebuilt, table), getattr(lat, table))
    assert [rebuilt.covers(x) for x in lat.elements] == [lat.covers(x) for x in lat.elements]
    rng = random.Random(2048)
    weights = [Fraction(rng.randint(1, 60), 7) for _ in lat.elements]
    lat_path, fn_path = tmp_path / "c64x32.lat", tmp_path / "f.txt"
    write_lattice_file(lat, lat_path)
    write_function_file(reconstruct(WeightFunction(lat, weights)), fn_path, "c64x32")
    code, doc, _ = run(capsys, "cm", "check", "--lattice", str(lat_path), "--fn", str(fn_path))
    assert code == 0
    assert doc["result"]["min_weight"] == str(min(weights))


def test_lattice_check_chain64_by_chain32(tmp_path, capsys):
    # 2048 elements: above the 1024-element cap the distributivity check once had
    text, pairs = chain_product_document(64, 32)
    path = tmp_path / "c64x32.lat"
    path.write_text(text)
    code, doc, _ = run(capsys, "lattice", "check", "--lattice", str(path))
    assert code == 0
    result = doc["result"]
    assert result["valid"] and result["distributive"] and result["d_max"] == 2
    assert [tuple(p) for p in result["cover_pairs"]] == pairs


@pytest.mark.parametrize(
    "T, step, error",
    [("inf", "0.01", "DomainViolation"), ("nan", "0.01", "DomainViolation"),
     ("4", "nan", "DomainViolation"), ("4", "1e-9", "BudgetExceeded"),
     # a wide step does not make a long range cheap: every integer up to T is evaluated
     ("2e6", "10", "BudgetExceeded: T = 2e+06")],
)
def test_scan_unbounded_grid_exits_two(capsys, T, step, error):
    code, doc, err = run(capsys, "scan", "s-set", "--dist", "uniform-singleton:3", "--T", T, "--step", step)
    assert (code, doc) == (2, None)
    assert error in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_rate_and_hankel_exponent_exit_two(capsys, value):
    code, doc, err = run(capsys, "randset", "poisson", "--dist", "uniform-singleton:3", "--lam", value)
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err
    code, doc, err = run(capsys, "cmseq", "hankel", "--x", "0.5", "--alpha", value)
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err


@pytest.mark.parametrize("value", ["1e300", "1e400"])
def test_cm_power_overflow_is_one_typed_line(tmp_path, value):
    """An exact value whose float power overflows exits 2 with one typed line,
    no traceback and no numpy warning, in a fresh process."""
    import subprocess
    import sys

    fn = tmp_path / "f.txt"
    fn.write_text(f"lattice chain:2\n0 {value}\n1 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cmlat", "cm", "power", "--lattice", "chain:2", "--fn", str(fn), "--alpha", "1.5"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cmlat: DomainViolation: "), proc.stderr


def test_multi_interval_above_the_ground_cap_exits_two_before_searching(capsys, monkeypatch):
    from cmlat import scan

    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(scan, "_certify", search)
    code, doc, err = run(capsys, "scan", "multi-interval", "--n", "21", "--k", "2")
    assert (code, doc) == (2, None)
    assert err == "cmlat: SizeLimitExceeded: ground set must have 1..20 points, got 21\n"


def test_schur_with_huge_coordinates_exits_two(capsys):
    code, doc, err = run(capsys, "scan", "schur", "--x", "1e308,1e308,1", "--alpha", "2")
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err and "OverflowError" not in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["randset", "poisson", "--dist", "uniform-singleton:2", "--lam", "0"], "DomainViolation:"),
        (["randset", "union", "--dist", "uniform-singleton:2", "--m", "0"], "DomainViolation:"),
        (["approx", "psi", "--m", "0"], "DomainViolation:"),
        (["randset", "power-exists", "--dist", "uniform-singleton:2", "--alpha", "-1"], "DomainViolation:"),
        (["approx", "psi", "--m-list", "2,x"], "input error: --m-list: bad value 'x'"),
        (["scan", "schur", "--x", "0.2,x", "--alpha", "1.5"], "input error: --x: bad value 'x'"),
        (["lattice", "check", "--lattice", "chain:x"], "input error: --lattice: bad value 'x'"),
        (["randset", "void", "--dist", "uniform-singleton:x"], "input error: --dist: bad value 'x'"),
        (["randset", "void", "--dist", "singleton:1/0,1"], "input error: --dist: bad value '1/0'"),
        (["cm", "power", "--lattice", "chain:2", "--fn", "{fn}", "--alpha", "x"], "input error: --alpha: bad value 'x'"),
        # no lattice was given, so there is no verdict to report
        (["lattice", "check", "--lattice", "chain:0"], "DomainViolation: a chain needs at least one element"),
        (["lattice", "check", "--lattice", "diamond:0"], "DomainViolation: need at least one atom"),
        (["lattice", "check", "--lattice", "diamond:-1"], "DomainViolation: need at least one atom"),
        (["lattice", "make", "--kind", "chain:0", "--out-lattice", "{fn}.lat"], "DomainViolation:"),
        (["lattice", "make", "--kind", "boolean:13", "--out-lattice", "{fn}.lat"],
         "SizeLimitExceeded: 8192 elements exceeds cap 4096"),
        # a step outside [1/GRID_POINT_CAP, 1/2) is refused before any grid is built
        *[(["scan", "multi-interval", "--n", "5", "--k", "3", "--step", step], "DomainViolation: grid step")
          for step in ("0", "-0.001", "nan", "inf", "0.5", "5")],
        *[(["scan", "multi-interval", "--n", "5", "--k", "3", "--step", step], "BudgetExceeded: grid step")
          for step in ("1e-7", "1e-300")],
        # a sweep over no order checks nothing; one past ORDER_CAP is refused before it is built
        *[(["cmseq", "hankel", "--x", "0.5", "--alpha", alpha, "--orders", orders], "DomainViolation: need orders")
          for alpha in ("2", "1.5") for orders in ("1", "0", "-3")],
        *[(["cmseq", "hankel", "--x", "0.5", "--alpha", alpha, "--orders", orders], "BudgetExceeded: orders")
          for alpha in ("2", "1.5") for orders in ("65", "100000")],
        # N5 takes no argument; one given is refused, not ignored
        (["lattice", "check", "--lattice", "pentagon:7"], "input error: --lattice: bad value '7'"),
        (["lattice", "make", "--kind", "pentagon:x", "--out-lattice", "{fn}.lat"],
         "input error: --kind: bad value 'x'"),
        # an empty list is a bad value, not an absent one that falls back to --m
        (["approx", "psi", "--m-list", ""], "input error: --m-list: bad value ''"),
    ],
)
def test_out_of_domain_parameters_are_typed_errors(tmp_path, capsys, argv, prefix):
    fn = tmp_path / "f.txt"
    fn.write_text("lattice chain:2\n0 1\n1 1/2\n")
    code, doc, err = run(capsys, *(a.format(fn=fn) for a in argv))
    assert (code, doc) == (2, None)
    assert err.count("\n") == 1 and err.startswith(f"cmlat: {prefix}"), err


@pytest.mark.parametrize("tol", ["inf", "nan", "-0.5"])
def test_non_finite_or_negative_tolerance_exits_two(capsys, tmp_path, tol):
    code, doc, err = run(capsys, "randset", "power-exists", "--dist", "uniform-singleton:3",
                         "--alpha", "1.5", "--tol", tol)
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err
    lat = chain_lattice(3)
    fn = tmp_path / "f.txt"
    write_function_file(LatticeFunction(lat, [1.0, 0.2, 0.9]), fn)
    write_lattice_file(lat, tmp_path / "c3.lat")
    code, doc, err = run(capsys, "cm", "check", "--lattice", str(tmp_path / "c3.lat"), "--fn", str(fn), "--tol", tol)
    assert (code, doc) == (2, None)
    assert "DomainViolation" in err


def test_default_tolerance_and_orders_are_echoed(capsys):
    _, doc, _ = run(capsys, "randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "1.5")
    assert doc["config"]["tol"] == randset.MASS_TOL
    _, doc, _ = run(capsys, "cmseq", "hankel", "--x", "0.5", "--alpha", "2")
    assert doc["config"]["orders"] == doc["result"]["orders_checked"] == 64


def test_infinite_output_is_a_typed_error(monkeypatch, capsys):
    monkeypatch.setattr(randset, "void_distance", lambda x, y: math.inf)
    code, doc, err = run(capsys, "randset", "dist", "--dist", "uniform-singleton:2", "--dist2", "uniform-singleton:2")
    assert (code, doc) == (2, None)
    assert "InvariantViolation" in err and "Infinity" not in err


def test_nan_output_keeps_its_string_spelling(monkeypatch, capsys):
    monkeypatch.setattr(randset, "void_distance", lambda x, y: math.nan)
    code, doc, _ = run(capsys, "randset", "dist", "--dist", "uniform-singleton:2", "--dist2", "uniform-singleton:2")
    assert code == 0
    assert doc["result"]["void_distance"] == "nan"


# --- the output envelope over generated argv -----------------------------------

LATTICES = st.one_of(
    st.builds("chain:{}".format, st.integers(1, 6)),
    st.builds("boolean:{}".format, st.integers(1, 6)),
    st.builds("diamond:{}".format, st.integers(1, 4)),
    st.just("pentagon"),
)
DISTS = st.one_of(
    st.builds("uniform-singleton:{}".format, st.integers(1, 6)),
    st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
        lambda ws: "singleton:" + ",".join(str(Fraction(w, sum(ws))) for w in ws)
    ),
    st.just("singleton:1/2,1/3"),
)
REALS = st.sampled_from(["0", "0.5", "1", "1.5", "2", "3", "-1", "nan", "1e-3"])


@pytest.fixture(scope="module")
def argv_docs(tmp_path_factory):
    """Function and void documents for the generated argv, written once."""
    d = tmp_path_factory.mktemp("argv")
    (d / "b2.fn").write_text("lattice boolean:2\n0 1\n1 1/2\n2 1/2\n3 1/4\n")
    (d / "c3.fn").write_text("lattice chain:3\n0 1\n1 1/2\n2 1/4\n")
    (d / "part.fn").write_text("lattice boolean:2\n0 1\n3 1/4\n")
    (d / "good.void").write_text("2\n0 1\n1 1/2\n2 1/2\n3 0\n")
    (d / "bad.void").write_text("2\n0 1\n1 0.7\n2 0.7\n3 0\n")
    return d


def opt(flag, values):
    return values.map(lambda v: [flag, v])


def argv(*parts):
    """Concatenate fixed argument lists and strategies of argument lists."""
    parts = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def argv_strategy(d):
    fn_args = st.sampled_from([["--lattice", "boolean:2", "--fn", str(d / "b2.fn")],
                               ["--lattice", "chain:3", "--fn", str(d / "c3.fn")],
                               ["--lattice", "chain:4", "--fn", str(d / "c3.fn")]])
    tol = st.one_of(st.just([]), opt("--tol", st.sampled_from(["0", "1e-9", "0.5"])))
    voids = st.sampled_from([str(d / "good.void"), str(d / "bad.void")])
    points = st.sampled_from(["0.2,0.3", "0.1,0.2,0.3", "2,-1"])
    return st.one_of(
        argv(["lattice", "check"], opt("--lattice", LATTICES)),
        argv(["lattice", "make"], opt("--kind", LATTICES), ["--out-lattice", str(d / "made.lat")]),
        argv(["cm", "check"], fn_args, tol),
        argv(["cm", "power"], fn_args, opt("--alpha", REALS), tol),
        argv(["cm", "extend", "--lattice", "boolean:2", "--fn", str(d / "part.fn")]),
        argv(["cm", "accompany"], fn_args, opt("--m", st.integers(1, 5).map(str))),
        argv(["randset", "void"], opt("--dist", DISTS)),
        argv(["randset", "invert"], opt("--void", voids)),
        argv(["randset", "power-exists"], opt("--dist", DISTS), opt("--alpha", REALS), tol),
        argv(["randset", "union"], opt("--dist", DISTS), opt("--m", st.integers(1, 3).map(str))),
        argv(["randset", "poisson"], opt("--dist", DISTS), opt("--lam", REALS)),
        argv(["randset", "dist"], opt("--dist", DISTS), opt("--dist2", DISTS)),
        argv(["scan", "s-set"], opt("--dist", DISTS), opt("--T", st.integers(0, 5).map(str)), opt("--step", REALS)),
        argv(["scan", "multi-interval"], opt("--n", st.integers(3, 6).map(str)),
             opt("--k", st.integers(1, 4).map(str)), opt("--step", REALS)),
        argv(["scan", "schur"], opt("--x", points), opt("--alpha", REALS)),
        argv(["approx", "psi"], st.one_of(opt("--m", st.integers(1, 50).map(str)), st.just(["--m-list", "2,10"]))),
        argv(["cmseq", "hankel"], opt("--x", st.sampled_from(["0.3", "0.5", "0.9"])), opt("--alpha", REALS),
             st.one_of(st.just([]), opt("--orders", st.sampled_from([-3, 0, 1, 2, 3, 4, 5]).map(str)))),
    )


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def error_classes(cls=CmlatError):
    for sub in cls.__subclasses__():
        yield sub.__name__
        yield from error_classes(sub)


# an input error, a typed library error, or an OSError's "[Errno n] ..." text;
# never "unexpected ..." (a defect) nor a bare numpy ValueError message
ERROR_LINE = re.compile(r"cmlat: (input error|%s): |cmlat: \[Errno \d+\] " % "|".join(error_classes()))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_exit_is_an_envelope_or_one_error_line(argv_docs, data):
    words = data.draw(argv_strategy(argv_docs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(words)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert ERROR_LINE.match(err.getvalue()) and err.getvalue().count("\n") == 1, err.getvalue()
        return
    doc = json.loads(out.getvalue(), parse_constant=reject_constant)
    assert set(doc) == {"command", "config", "result"}
    assert doc["command"] == f"{words[0]} {words[1]}"
    assert err.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ("lattice", "check", "--lattice", "{tmp}"),
    ("randset", "void", "--dist", "{tmp}"),
    ("approx", "psi", "--out", "{tmp}"),
])
def test_directory_path_is_input_error(tmp_path, capsys, argv):
    code, doc, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and doc is None
    assert "unexpected" not in err and "Is a directory" in err and err.count("\n") == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_lattice_make_writes_the_materialized_document(tmp_path, capsys, k):
    out = tmp_path / "b.lat"
    code, doc, _ = run(capsys, "lattice", "make", "--kind", f"boolean:{k}", "--out-lattice", str(out))
    assert code == 0 and doc["result"]["n"] == 1 << k
    assert out.read_bytes() == format_lattice_text(materialize(boolean_lattice(k))).encode()


# --- the emitter against the standard-library encoder ------------------------------


def one_line_mask_set(mask, n):
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


def table_values(table):
    """The values of a mask table as Python floats or Fractions."""
    values = table.values.tolist()
    return values if table.den is None else [Fraction(v, table.den) for v in values]


def oracle_jsonable(obj):
    """The document as plain JSON values, each mask table as its dict per mask."""
    if isinstance(obj, MaskTable):
        obj = {str(m): {obj.column: v, "mask": m, "set": one_line_mask_set(m, obj.n)}
               for m, v in zip(obj.masks.tolist(), table_values(obj))}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): oracle_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj != obj:  # NaN is not valid strict JSON
        return "nan"
    return obj


def oracle_text(doc):
    try:
        return json.dumps(oracle_jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvariantViolation(f"output not strict JSON: {exc}") from None


def first_difference(got, want):
    """None for equal texts, else the line number and both lines where they
    first differ (a full diff of megabyte documents would take minutes)."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    return i + 1, got_lines[i:i + 1], want_lines[i:i + 1]


def emitted(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    return out.getvalue()


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e300, math.nan, 2.0, 10.0]),
    st.fractions(),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é→😀", "{1,2}"]),
)
KEYS = st.one_of(st.sampled_from([2, 10, 1, "2", "10", "a"]), st.integers(-3, 12), st.text(max_size=4))
FLOATS = st.one_of(st.floats(allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e-310, 1e300, math.nan, 2.0]))


def dense_table(n, masks, column, values, scale=1):
    """The MaskTable of Python floats, as float64, or of Fractions, as
    numerators over ``scale`` times their least common denominator."""
    if all(isinstance(v, float) for v in values):
        return MaskTable(n, masks, column, np.array(values, dtype=float))
    den = math.lcm(*(v.denominator for v in values)) * scale
    nums = [v.numerator * (den // v.denominator) for v in values]
    dtype = np.int64 if max(map(abs, nums)) < 1 << 63 else object
    return MaskTable(n, masks, column, np.array(nums, dtype=dtype), den)


TABLES = st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=12),
    st.sampled_from(["probability", "value"]),
    st.sampled_from([FLOATS, st.fractions()]),
    st.sampled_from([1, 6]),
)).flatmap(lambda t: st.lists(t[3], min_size=len(t[1]), max_size=len(t[1])).map(
    lambda values: dense_table(t[0], t[1], t[2], values, t[4])))
DOCUMENTS = st.recursive(
    st.one_of(LEAVES, TABLES),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(KEYS, kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_emit_matches_the_standard_encoder(doc):
    assert first_difference(emitted(doc), oracle_text(doc)) is None


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025])
@pytest.mark.parametrize("kind", ["float", "exact"])
def test_emit_matches_the_standard_encoder_across_chunks(rows, kind):
    rng = random.Random(rows)
    masks = rng.sample(range(1 << 12), rows)
    if kind == "float":
        values = [rng.random() for _ in masks]
    else:
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 40)) for _ in masks]
    doc = {"n": 12, "table": dense_table(12, masks, "value", values), "tail": [0.5]}
    assert first_difference(emitted(doc), oracle_text(doc)) is None


@pytest.mark.parametrize("doc", [
    math.inf,
    {"a": [1, {"b": -math.inf}]},
    {"t": MaskTable(3, [1, 2], "value", [0.5, math.inf])},
    {"t": MaskTable(4, [2, 10, 3], "value", [math.inf, -math.inf, math.nan])},  # "10" is the first row
    {"a": MaskTable(4, [2], "value", [-math.inf]), "b": math.inf},
])
def test_emit_refuses_infinity_as_the_standard_encoder_does(doc):
    with pytest.raises(InvariantViolation) as want:
        oracle_text(doc)
    with pytest.raises(InvariantViolation) as got:
        emitted(doc)
    assert str(got.value) == str(want.value)


def test_refused_table_writes_nothing(monkeypatch, capsys, tmp_path):
    table = np.full(8, 0.5)
    table[0], table[6] = 1.0, math.inf
    monkeypatch.setattr(randset, "void_functional", lambda x: SimpleNamespace(_dense=_Dense(table)))
    out = tmp_path / "doc.json"
    for extra in ([], ["--out", str(out)]):
        code = main(["randset", "void", "--dist", "uniform-singleton:3", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "cmlat: InvariantViolation: output not strict JSON: " \
                               "Out of range float values are not JSON compliant: inf\n"
    assert not out.exists()


def oracle_run(monkeypatch, argv):
    """stdout of ``main(argv)``, then of the same run emitted by the oracle."""
    outputs = []
    for emit in (cli._emit, lambda doc, out_path: print(oracle_text(doc), end="")):
        monkeypatch.setattr(cli, "_emit", emit)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        outputs.append((code, out.getvalue()))
    return outputs


def float_law(rng, n, atoms):
    raw = [0.0] * (1 << n)
    for mask in rng.sample(range(1 << n), atoms):
        raw[mask] = rng.random()
    total = sum(raw)
    return RandomSubset(n, [p / total for p in raw])


def exact_law(rng, n, atoms):
    weights = [0] * (1 << n)
    for mask in rng.sample(range(1 << n), atoms):
        weights[mask] = rng.randint(1, 9)
    total = sum(weights)
    return RandomSubset(n, [Fraction(w, total) for w in weights])


@pytest.fixture(scope="module")
def laws(tmp_path_factory):
    d = tmp_path_factory.mktemp("laws")
    rng = random.Random(12)
    paths = {}
    point = [0] * 16
    point[11] = 1
    for name, law in [("float16", float_law(rng, 16, 256)), ("exact16", exact_law(rng, 16, 32)),
                      ("float10", float_law(rng, 10, 64)), ("exact8", exact_law(rng, 8, 16)),
                      ("point4", RandomSubset(4, point))]:
        paths[name] = str(d / f"{name}.dist")
        write_distribution_file(law, paths[name])
    for name, law in [("float12", float_law(rng, 12, 128)), ("exact10", exact_law(rng, 10, 24))]:
        paths[name] = str(d / f"{name}.void")
        table = void_functional(law).table
        (d / f"{name}.void").write_text(f"{law.n}\n" + "".join(f"{k} {v}\n" for k, v in enumerate(table)))
    paths["bad"] = str(d / "bad.void")
    (d / "bad.void").write_text(f"2\n0 1\n1 {0.5**0.5!r}\n2 {0.5**0.5!r}\n3 0\n")
    return paths


@pytest.mark.parametrize("argv", [
    ["randset", "union", "--dist", "{float16}", "--m", "3"],
    ["randset", "union", "--dist", "{exact16}", "--m", "2"],
    ["randset", "union", "--dist", "{point4}", "--m", "5"],
    ["randset", "poisson", "--dist", "{float16}", "--lam", "2.5"],
    ["randset", "poisson", "--dist", "{exact16}", "--lam", "0.5"],
    ["randset", "invert", "--void", "{float12}"],
    ["randset", "invert", "--void", "{exact10}"],
    ["randset", "invert", "--void", "{bad}"],
    ["randset", "power-exists", "--dist", "{float10}", "--alpha", "2.5"],
    ["randset", "power-exists", "--dist", "{exact8}", "--alpha", "2"],
    ["randset", "power-exists", "--dist", "{exact8}", "--alpha", "0.5"],
    ["randset", "power-exists", "--dist", "{float16}", "--alpha", "0.5"],
    ["randset", "power-exists", "--dist", "{point4}", "--alpha", "0.5"],
])
def test_mask_tables_print_the_oracle_bytes(monkeypatch, laws, argv):
    (code, got), (want_code, want) = oracle_run(monkeypatch, [a.format(**laws) for a in argv])
    assert code == want_code
    assert first_difference(got, want) is None


@pytest.mark.parametrize("law", ["float16", "exact8", "point4"])
def test_void_csv_prints_the_oracle_bytes(monkeypatch, laws, tmp_path, law):
    path = tmp_path / "void.csv"
    (code, got), (_, want) = oracle_run(monkeypatch, ["randset", "void", "--dist", laws[law], "--csv", str(path)])
    assert code == 0
    assert first_difference(got, want) is None
    with open(laws[law], encoding="utf-8") as fh:
        x = randset.parse_distribution_text(fh.read())
    table = void_functional(x).table
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("mask", "set", "void_probability"))
    writer.writerows((m, one_line_mask_set(m, x.n), float(v)) for m, v in enumerate(table))
    with open(path, encoding="utf-8", newline="") as fh:
        assert first_difference(fh.read(), expected.getvalue()) is None


def test_out_file_holds_the_stdout_bytes(laws, tmp_path, capsys):
    argv = ["randset", "poisson", "--dist", laws["float10"], "--lam", "1.5"]
    assert main(argv) == 0
    out = tmp_path / "doc.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert first_difference(out.read_text(encoding="utf-8"), capsys.readouterr().out) is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 20) - 1), max_size=60))
def test_string_order_is_the_order_of_the_decimal_strings(masks):
    masks = [*masks, 0, 1, 10, 100, (1 << 20) - 1]
    assert [masks[i] for i in string_order(masks)] == sorted(masks, key=str)
    assert string_order([]).size == 0


@pytest.mark.parametrize("n", [1, 3, 4, 7, 10, 14, 17, 20])
def test_string_order_of_full_tables_and_their_subsets(n):
    masks = np.arange(1 << n)
    assert string_order(masks).tolist() == sorted(range(1 << n), key=str)
    rng = np.random.default_rng(n)
    for size in (1, 2, 9, 1 << (n - 1)):
        subset = np.sort(rng.choice(1 << n, min(size, 1 << n), replace=False))  # rows in mask order, as a table has them
        assert subset[string_order(subset)].tolist() == sorted(subset.tolist(), key=str)
