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
    "HankelMatrix", "IntervalSet", "LatticeFunction", "MomentSequence", "MultiIntervalCertificate",
    "PowerVerdict", "RandomSubset", "VoidFunctional", "WeightFunction", "approx", "boolean_lattice",
    "catalog", "chain_lattice", "cm", "cm_power_threshold_check", "construct_multi_interval",
    "cover_degree", "d_max", "delta", "diamond_lattice", "errors", "extend_cm", "finite_diff_cm_check",
    "from_covers", "from_void", "hankel_psd_check", "is_cm", "is_cm_bruteforce", "is_distributive",
    "is_infinitely_divisible", "is_m_divisible", "laplace_power_counterexample", "lattice",
    "lattice_square_witness", "lower_bound_witness", "materialize", "mobius_weights", "moments",
    "pentagon_lattice", "pointwise_product", "poisson_accompany", "poisson_union", "power",
    "power_difference_profile", "power_exists", "product_lattice", "q_poly", "randset", "reconstruct",
    "scan", "scan_S", "schur_gradient_check", "sharpness_witness", "sign_change_bound", "simplex_form",
    "singleton_alternating_sum", "singleton_set", "sup_gap", "sup_gap_argmax",
    "two_atom_power_counterexample", "two_atom_sequence", "two_point_set", "uniform_singleton",
    "union_iid", "upper_bound_witness", "verify_distinct_joins", "void_distance", "void_functional",
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


def test_first_access_loads_only_the_defining_module():
    assert loaded_after("import cmlat; cmlat.chain_lattice") == {"cmlat", "cmlat.errors", "cmlat.lattice", "numpy"}


CORE = {"cmlat", "cmlat.cli", "cmlat.errors", "numpy"}
RANDSET = {"cmlat._scalars", "cmlat._kernel", "cmlat.randset"}
CM = {"cmlat._scalars", "cmlat._kernel", "cmlat.lattice", "cmlat.cm"}

# one command per CLI group, plus `cm accompany`, whose scalar bound is in approx
COMMANDS = {
    "lattice": (["lattice", "check", "--lattice", "diamond:3"], {"cmlat.lattice"}),
    "cm": (["cm", "check", "--lattice", "diamond:3", "--fn", "{fn}"], CM),
    "cm accompany": (["cm", "accompany", "--lattice", "diamond:3", "--fn", "{fn}", "--m", "3"],
                     CM | RANDSET | {"cmlat.approx"}),
    "randset": (["randset", "power-exists", "--dist", "uniform-singleton:3", "--alpha", "1.5"], RANDSET),
    "scan": (["scan", "s-set", "--dist", "uniform-singleton:3", "--T", "3"], RANDSET | {"cmlat.scan"}),
    "approx": (["approx", "psi", "--m", "3"], CM | RANDSET | {"cmlat.approx"}),
    "cmseq": (["cmseq", "hankel", "--x", "0.5", "--alpha", "1.5"], {"cmlat._scalars", "cmlat.moments"}),
}


@pytest.mark.parametrize("group", COMMANDS)
def test_cli_group_loads_only_its_modules(group, tmp_path):
    fn = tmp_path / "f.txt"
    fn.write_text("lattice diamond3\n0 1\n1 1/2\n2 1/2\n3 1/2\n4 1/4\n")
    argv, modules = COMMANDS[group]
    argv = [a.format(fn=fn) for a in argv]
    code = (
        "import contextlib, io\nfrom cmlat.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        f"    if main({argv!r}) not in (0, 1):\n        raise SystemExit('exit code 2')"
    )
    assert loaded_after(code) == CORE | modules
