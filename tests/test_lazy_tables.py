"""Tables computed from dense arrays build their public tuples on first read.

A law, void functional, lattice function, weight table or power verdict made
by a computation holds only its dense array.  Reading the field builds the
tuple of Python scalars, which must be the tuple an eagerly built table
holds; dataclass equality, hashing, repr, pickling, copying and
``dataclasses.replace`` must agree with those of the eager table.
"""

import contextlib
import copy
import dataclasses
import functools
import json
import math
import operator
import os
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cmlat import cli
from cmlat._output import layout, write
from cmlat.cli import main
from cmlat.cm import (
    LatticeFunction,
    WeightFunction,
    is_cm,
    mobius_weights,
    power,
    reconstruct,
    sharpness_witness,
)
from cmlat.errors import FormatError, InvalidProbabilityVector
from cmlat.lattice import boolean_lattice, materialize
from cmlat.randset import (
    SUM_TOL,
    PowerVerdict,
    RandomSubset,
    VoidFunctional,
    parse_distribution_text,
    power_exists,
    uniform_singleton,
    union_iid,
    void_functional,
)

FLOAT_LAW = RandomSubset(3, [0.0, 0.1, 0.2, 0.05, 0.3, 0.0, 0.15, 0.2])
EXACT_LAW = RandomSubset(3, [Fraction(k, 16) for k in (0, 3, 2, 1, 4, 0, 5, 1)])
# lattices compare by identity: every instance of a case shares one
B3 = boolean_lattice(3)
M3 = materialize(B3)  # the same order, through the general (non-Boolean) Mobius path


def _sharp(lattice, alpha):
    return power(sharpness_witness(lattice), alpha)


def _law(x, t):
    return RandomSubset(x.n, t)


def _void(v, t):
    return VoidFunctional(v.n, t)


def _function(f, t):
    return LatticeFunction(f.lattice, t)


def _weights(p, t):
    return WeightFunction(p.lattice, t)


def _verdict(v, t):
    return PowerVerdict(**{f.name: getattr(v, f.name) for f in dataclasses.fields(v)} | {"q_values": t})


# (name, factory of a fresh lazy instance, its field, eager(instance, tuple))
CASES = [
    ("law float", lambda: union_iid(FLOAT_LAW, 2), "probs", _law),
    ("law exact", lambda: union_iid(EXACT_LAW, 2), "probs", _law),
    ("law parsed", lambda: parse_distribution_text("2\n1 0.30000000000000004\n2 0.7\n"), "probs", _law),
    ("void float", lambda: void_functional(FLOAT_LAW), "table", _void),
    ("void exact", lambda: void_functional(EXACT_LAW), "table", _void),
    ("function float", lambda: _sharp(B3, 0.5), "values", _function),
    ("function exact", lambda: _sharp(B3, 2), "values", _function),
    ("weights float", lambda: mobius_weights(_sharp(M3, 0.5)), "weights", _weights),
    ("weights exact", lambda: mobius_weights(_sharp(B3, 3)), "weights", _weights),
    ("verdict float", lambda: power_exists(FLOAT_LAW, 0.5), "q_values", _verdict),
    ("verdict exact", lambda: power_exists(EXACT_LAW, 2), "q_values", _verdict),
]


def _bits(values):
    """Each value with its type, floats by their bits (0.0 and -0.0 differ)."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def case(request):
    _, factory, field, eager = request.param

    def fresh():
        obj = factory()
        assert field not in obj.__dict__
        return obj

    return fresh, field, eager


def test_tuple_is_built_on_first_read(case):
    fresh, field, _ = case
    obj = fresh()
    d = obj._dense
    values = getattr(obj, field)
    assert field in obj.__dict__ and getattr(obj, field) is values  # built once, then kept
    assert isinstance(values, tuple) and len(values) == len(d.values)
    if d.den is None:
        assert _bits(values) == _bits(float(v) for v in d.values)
    else:
        assert _bits(values) == _bits(Fraction(int(v), d.den) for v in d.values)


def test_dataclass_protocols_agree_with_the_eager_table(case):
    fresh, field, eager_of = case
    probe = fresh()
    eager = eager_of(probe, tuple(getattr(probe, field)))
    assert field in eager.__dict__ and _bits(getattr(eager, field)) == _bits(getattr(probe, field))
    assert fresh() == eager and eager == fresh()
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager)
    for copy_of in (lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, dataclasses.replace):
        clone, eager_clone = copy_of(fresh()), copy_of(eager)
        assert repr(clone) == repr(eager_clone) == repr(eager)
        assert _bits(getattr(clone, field)) == _bits(getattr(eager, field))
        if copy_of is dataclasses.replace or not hasattr(eager, "lattice"):
            # a lattice compares by identity, and a pickled or deep copy is a new one
            assert clone == eager_clone == eager


def test_missing_attributes_still_raise():
    with pytest.raises(AttributeError, match="no attribute 'table'"):
        union_iid(FLOAT_LAW, 2).table
    with pytest.raises(AttributeError, match="no attribute 'probs'"):
        RandomSubset.__new__(RandomSubset).probs  # no dense table to build it from


def test_void_call_reads_one_entry():
    for x in (FLOAT_LAW, EXACT_LAW):
        v = void_functional(x)
        got = [v(mask) for mask in range(8)] + [v(np.int64(5)), v(-1)]
        assert "table" not in v.__dict__
        assert _bits(got) == _bits(list(v.table) + [v.table[5], v.table[-1]])
        with pytest.raises(IndexError):
            v(8)


@pytest.mark.parametrize("lattice", [B3, M3], ids=["boolean", "general"])
@pytest.mark.parametrize("alpha", [0.5, 2])
def test_is_cm_reads_the_dense_weights(lattice, alpha):
    f = _sharp(lattice, alpha)
    verdict = is_cm(f)
    assert "values" not in f.__dict__
    assert verdict == is_cm(LatticeFunction(f.lattice, f.values))
    assert verdict.is_cm == (alpha == 2)  # below the d_max - 1 threshold the sharp witness fails
    assert f.max_value() == max(f.values) and f(3) == f.values[3]


def test_power_verdict_converts_only_min_q():
    verdict = power_exists(FLOAT_LAW, 0.5)
    assert "q_values" not in verdict.__dict__ and not verdict.exists
    assert verdict.min_q == verdict.q_values[verdict.witness] == min(verdict.q_values)


def _float_law_text(n, atoms, seed):
    rng = random.Random(seed)
    masks = rng.sample(range(1, 1 << n), atoms)
    weights = [rng.uniform(0.5, 1.5) for _ in masks]
    total = math.fsum(weights)
    return f"{n}\n" + "".join(f"{m} {w / total!r}\n" for m, w in zip(masks, weights))


def _power_exists_peak(tmp_path, capsys, n):
    """The traced peak of a negative `power-exists` on a 256-atom law over [n]."""
    path = tmp_path / "law.dist"
    path.write_text(_float_law_text(n, 256, seed=n))
    tracemalloc.start()
    try:
        code = main(["randset", "power-exists", "--dist", str(path), "--alpha", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 1 and '"witness"' in out
    return peak


def test_power_exists_command_memory_n18(tmp_path, capsys):
    # a negative verdict with a witness: the 2^18 q_values tuple (about 16 MiB
    # of floats and pointers) is never built, nor is the law's probs tuple;
    # the transforms and the power run in the parsed law's own 2 MiB table
    peak = _power_exists_peak(tmp_path, capsys, 18)
    assert peak < 2.9 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_power_exists_command_memory_n20(tmp_path, capsys):
    # one 8 MiB table at the ground-set cap
    peak = _power_exists_peak(tmp_path, capsys, 20)
    assert peak < 10 << 20, f"traced peak {peak / 2**20:.2f} MiB"


def _traced_peak(argv):
    """The tracemalloc peak of ``main(argv)``, its stdout sent to os.devnull."""
    with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("n, args, budget_mib", [
    (16, ["poisson", "--lam", "2.5"], 1.4),
    (14, ["void", "--csv", "{tmp}/void.csv"], 3),
    (18, ["void"], 24),
    (16, ["union", "--m", "3"], 1.4),
])
def test_mask_table_commands_stream_their_output(tmp_path, n, args, budget_mib):
    # the rows are written chunk by chunk from the dense table: no 2^n list of
    # texts, rows or Python scalars is built; `poisson` and `union` work in the
    # parsed law's own 0.5 MiB table
    path = tmp_path / "law.dist"
    path.write_text(_float_law_text(n, 256, seed=n))
    argv = ["randset", args[0], "--dist", str(path), *[a.format(tmp=tmp_path) for a in args[1:]]]
    peak = _traced_peak(argv)
    assert peak <= budget_mib * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_document_text_is_written_in_slices(tmp_path):
    # a value list is no mask table, so its document is one text; the file
    # object must not be handed all of it, or it encodes a copy of the whole
    doc = {"values": [Fraction(k, 3**200) for k in range(1, 20001)]}
    pieces = layout(doc)
    assert sum(map(len, pieces)) > 2 << 20
    path = tmp_path / "doc.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write(pieces, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    want = {"values": [str(v) for v in doc["values"]]}
    assert path.read_text(encoding="utf-8") == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert peak < 1 << 20, f"traced peak {peak / 2**20:.1f} MiB"


def test_function_values_are_written_in_chunks(tmp_path):
    # `cm power` of an exact c.m. function on B12 at alpha = 11: about 330 KB
    # of Fraction texts, which exist one chunk of values at a time
    lattice = boolean_lattice(12)
    rng = random.Random(12)
    up = reconstruct(WeightFunction(lattice, [rng.randint(0, 9) for _ in range(lattice.n)]))
    total = max(up.values)
    powered = power(LatticeFunction(lattice, [v / total for v in up.values]), 11)
    verdict = is_cm(powered)
    doc = {"power": cli._function_doc(powered), "verdict": cli._cm_verdict_doc(verdict)}
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        cli._emit(doc, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    got = json.loads(path.read_text(encoding="utf-8"))
    assert got["power"] == {"kind": "rational", "values": [str(v) for v in powered.values]}
    assert verdict.is_cm and path.stat().st_size > 300_000
    assert peak < 3 << 18, f"traced peak {peak / 2**20:.2f} MiB"


def _old_distribution(verdict):
    """The law of the power through the q_values tuple, clamped entry by entry."""
    clamped = [0 if (isinstance(q, float) and -verdict.tol <= q < 0) else q for q in verdict.q_values]
    return RandomSubset(verdict.n, clamped)


@pytest.mark.parametrize("law, alpha", [
    (lambda: parse_distribution_text(_float_law_text(8, 40, seed=2)), 2),  # clamps q in [-tol, 0)
    (lambda: parse_distribution_text(_float_law_text(10, 64, seed=3)), 3.0),
    (lambda: EXACT_LAW, 2),
    (lambda: EXACT_LAW, 3),
    (lambda: uniform_singleton(5), 4),
    (lambda: uniform_singleton(4), 3.5),
    (lambda: RandomSubset(2, [Fraction(k, 3 << 61) for k in (1, 2 << 60, 2 << 60, (2 << 60) - 1)]), 2),
    # q is held as Python ints, yet its Fractions fit int64 again
    (lambda: RandomSubset(1, [Fraction(1, (1 << 20) + 1), Fraction(1 << 20, (1 << 20) + 1)]), 3),
], ids=["float boundary", "float", "exact 2", "exact 3", "uniform 4", "exact law float q", "exact object",
        "exact object to int64"])
def test_distribution_is_the_clamped_q_table(law, alpha):
    verdict = power_exists(law(), alpha)
    got, want = verdict.distribution(), _old_distribution(verdict)
    assert _bits(got.probs) == _bits(want.probs)
    d, e = got._dense, want._dense
    assert (d.den, d.values.dtype) == (e.den, e.values.dtype) and np.array_equal(d.values, e.values)


def test_distribution_clamp_is_exercised():
    verdict = power_exists(parse_distribution_text(_float_law_text(8, 40, seed=2)), 2)
    assert verdict.boundary and verdict.distribution().probs != verdict.q_values


def _drifting_masses(n):
    """Masses whose left-to-right float sum is past SUM_TOL from 1 while their
    exact sum is within it: each small mass, 1.5 ulp(0.5) and a bit, rounds
    the running sum up by half an ulp more than it adds."""
    small = math.ldexp(1.0, -53) * 1.5 + math.ldexp(1.0, -60)
    count = (1 << n) - 1
    first = 1.0 - count * small
    return [first] + [small] * count


def test_float_total_is_the_left_to_right_sum():
    masses = _drifting_masses(16)
    left_to_right = functools.reduce(operator.add, masses, 0.0)
    assert abs(math.fsum(masses) - 1.0) <= SUM_TOL < abs(left_to_right - 1.0)
    with pytest.raises(InvalidProbabilityVector, match=f"masses sum to {left_to_right!r}, not 1"):
        RandomSubset(16, masses)
    text = "16\n" + "".join(f"{m} {p!r}\n" for m, p in enumerate(masses))
    with pytest.raises(FormatError, match=f"masses sum to {left_to_right!r}, not 1"):
        parse_distribution_text(text)
    # the same masses in another order: zeros interleaved change no sum
    spread = [0.0] * (1 << 17)
    spread[::2] = masses
    with pytest.raises(InvalidProbabilityVector, match=f"masses sum to {left_to_right!r}, not 1"):
        RandomSubset(17, spread)
