"""The lazy package namespace and the modules each CLI command loads."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import cmlat

SRC = os.path.dirname(os.path.dirname(cmlat.__file__))

# the public names of `cmlat` as the eager namespace defined them
PUBLIC = {
    "ApproxReport", "BooleanLattice", "CmVerdict", "ExponentialPolynomial", "FiniteLattice",
    "IntervalSet", "LatticeFunction", "MomentSequence", "MultiIntervalCertificate",
    "PowerVerdict", "RandomSubset", "VoidFunctional", "WeightFunction", "approx", "boolean_lattice",
    "catalog", "chain_lattice", "cm", "construct_multi_interval",
    "cover_degree", "d_max", "delta", "diamond_lattice", "errors", "extend_cm", "finite_diff_cm_check",
    "from_covers", "from_void", "hankel_psd_check", "is_cm", "is_cm_bruteforce", "is_distributive",
    "is_infinitely_divisible", "is_m_divisible", "lattice",
    "lattice_square_witness", "lower_bound_witness", "materialize", "mobius_weights", "moments",
    "pentagon_lattice", "pointwise_product", "poisson_accompany", "poisson_union", "power",
    "power_exists", "product_lattice", "q_poly", "randset", "reconstruct",
    "scan", "scan_S", "schur_gradient_check", "sharpness_witness", "sign_change_bound", "simplex_form",
    "singleton_set", "sup_gap", "sup_gap_argmax",
    "two_atom_power_counterexample", "two_atom_sequence", "two_point_set", "uniform_singleton",
    "union_iid", "upper_bound_witness", "void_distance", "void_functional",
}
SUBMODULES = {"approx", "cm", "errors", "lattice", "moments", "randset", "scan"}


def loaded_after(code):
    """The cmlat modules, and whether numpy, are loaded after running ``code`` in a
    fresh interpreter."""
    probe = code + "\nimport sys\nprint(*(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'cmlat'))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_all_is_the_eager_namespace():
    assert set(cmlat.__all__) == PUBLIC
    assert sorted(cmlat.__all__) == cmlat.__all__
    assert set(cmlat.__all__) <= set(dir(cmlat))


def test_each_name_is_its_submodule_object():
    for name in SUBMODULES:
        assert getattr(cmlat, name) is import_module(f"cmlat.{name}")
    for name in PUBLIC - SUBMODULES:
        obj = getattr(cmlat, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cmlat import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError):
        cmlat.no_such_name  # noqa: B018
    assert not hasattr(cmlat, "cli_main")


def test_import_cmlat_loads_no_submodule_and_no_numpy():
    assert loaded_after("import cmlat") == {"cmlat"}


def test_import_approx_loads_no_table_module_and_no_numpy():
    # the 1/m report is scalar arithmetic; only its lattice witness reads cm and lattice
    assert loaded_after("import cmlat.approx") == {"cmlat", "cmlat.errors", "cmlat._scalars", "cmlat.approx"}


def test_first_access_loads_only_the_defining_module():
    assert loaded_after("import cmlat; cmlat.chain_lattice") == {"cmlat", "cmlat.errors", "cmlat.lattice", "numpy"}


# numpy is loaded by the table modules and by the emitter only where it encodes a table
CORE = {"cmlat", "cmlat._output", "cmlat.cli", "cmlat.errors"}
RANDSET = {"numpy", "cmlat._scalars", "cmlat._kernel", "cmlat.randset"}
CM = {"numpy", "cmlat._scalars", "cmlat._kernel", "cmlat.lattice", "cmlat.cm"}

# one command per CLI group, plus `cm accompany`, whose scalar bound is in approx
COMMANDS = {
    "lattice": (["lattice", "check", "--lattice", "diamond:3"], {"numpy", "cmlat.lattice"}),
    "cm": (["cm", "check", "--lattice", "diamond:3", "--fn", "{fn}"], CM),
    "cm accompany": (["cm", "accompany", "--lattice", "diamond:3", "--fn", "{fn}", "--m", "3"],
                     CM | {"cmlat.approx"}),
    "randset": (["randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "1.5"], RANDSET),
    "scan": (["scan", "s-set", "--dist", "uniform-singleton:3", "--T", "3"], RANDSET | {"cmlat.scan"}),
    "approx": (["approx", "psi", "--m", "3"], {"cmlat._scalars", "cmlat.approx"}),  # no table, so no numpy
    "cmseq": (["cmseq", "hankel", "--x", "0.5", "--alpha", "1.5"],
              {"numpy", "cmlat._scalars", "cmlat._kernel", "cmlat.moments"}),
}


def loaded_by_command(argv, tmp_path):
    """The modules loaded after ``cmlat`` runs ``argv``, where "{fn}" names a
    function document on the diamond M3 and "{out}" a file to write."""
    fn = tmp_path / "f.txt"
    fn.write_text("lattice diamond3\n0 1\n1 1/2\n2 1/2\n3 1/2\n4 1/4\n")
    argv = [a.format(fn=fn, out=tmp_path / "out.txt") for a in argv]
    code = (
        "import contextlib, io\nfrom cmlat.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        f"    if main({argv!r}) not in (0, 1):\n        raise SystemExit('exit code 2')"
    )
    return loaded_after(code)


@pytest.mark.parametrize("group", COMMANDS)
def test_cli_group_loads_only_its_modules(group, tmp_path):
    argv, modules = COMMANDS[group]
    assert loaded_by_command(argv, tmp_path) == CORE | modules


@pytest.mark.parametrize("argv", [
    ["lattice", "check", "--lattice", "{fn}.lat"],
    ["lattice", "make", "--kind", "diamond:3", "--out-lattice", "{out}"],
    ["cm", "check", "--lattice", "diamond:3", "--fn", "{fn}"],
    ["cm", "power", "--lattice", "diamond:3", "--fn", "{fn}", "--alpha", "2.5", "--out-fn", "{out}"],
    ["cm", "extend", "--lattice", "diamond:3", "--fn", "{fn}", "--out-fn", "{out}"],
    ["cm", "accompany", "--lattice", "diamond:3", "--fn", "{fn}", "--m", "3", "--out-fn", "{out}"],
], ids=lambda argv: " ".join(argv[:2]))
def test_lattice_and_cm_commands_load_no_random_subset_code(argv, tmp_path):
    # their tables are written in chunks too, but not with randset's helpers
    (tmp_path / "f.txt.lat").write_text("3\n0 1\n1 2\n")
    loaded = loaded_by_command(argv, tmp_path)
    assert "cmlat.lattice" in loaded and "cmlat.randset" not in loaded


def test_readme_library_tour_runs():
    # the README's "Library tour" block, run as written against the public API
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md (Library tour)", "exec"), {})
