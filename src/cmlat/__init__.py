"""Completely monotone functions on finite lattices and random subsets of [n].

The package computes with void functionals of random subsets, decides when
fractional powers of completely monotone functions stay completely monotone,
maps divisibility sets, quantifies the distance from m-divisible objects to
the infinitely divisible class, and exhibits the sharpness counterexamples
(uniform singletons, the three-atom diamond, two-atom moment sequences).

Names are resolved on first access (PEP 562): ``import cmlat`` loads this
file alone, and ``cmlat.power_exists`` or ``from cmlat import power_exists``
imports the one submodule that defines it.
"""

import importlib

# submodule -> the public names it provides at the top level
_EXPORTS = {
    "approx": (
        "ApproxReport",
        "lattice_square_witness",
        "lower_bound_witness",
        "sup_gap",
        "sup_gap_argmax",
        "two_point_set",
        "upper_bound_witness",
    ),
    "cm": (
        "CmVerdict",
        "LatticeFunction",
        "WeightFunction",
        "delta",
        "extend_cm",
        "is_cm",
        "is_cm_bruteforce",
        "mobius_weights",
        "pointwise_product",
        "poisson_accompany",
        "power",
        "reconstruct",
        "sharpness_witness",
    ),
    "errors": (),
    "lattice": (
        "BooleanLattice",
        "FiniteLattice",
        "boolean_lattice",
        "catalog",
        "chain_lattice",
        "cover_degree",
        "d_max",
        "diamond_lattice",
        "from_covers",
        "is_distributive",
        "materialize",
        "pentagon_lattice",
        "product_lattice",
    ),
    "moments": (
        "MomentSequence",
        "finite_diff_cm_check",
        "hankel_psd_check",
        "two_atom_power_counterexample",
        "two_atom_sequence",
    ),
    "randset": (
        "PowerVerdict",
        "RandomSubset",
        "VoidFunctional",
        "from_void",
        "is_infinitely_divisible",
        "is_m_divisible",
        "poisson_union",
        "power_exists",
        "singleton_set",
        "uniform_singleton",
        "union_iid",
        "void_distance",
        "void_functional",
    ),
    "scan": (
        "ExponentialPolynomial",
        "IntervalSet",
        "MultiIntervalCertificate",
        "construct_multi_interval",
        "q_poly",
        "scan_S",
        "schur_gradient_check",
        "sign_change_bound",
        "simplex_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
