"""Seeded input documents and the fixed invocation list of each workload.

The seed changes values only (masses, weights, singleton probabilities).
Sizes, supports, lattice shapes and the invocation list are fixed, so every
seed asks the program for the same amount of work.  Everything here runs
before timing starts; the program only ever sees the files written here and
its argv.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

FLOAT_ATOMS = 256
EXACT_ATOMS = 32
WEIGHT_RANGE = (1, 9)  # integer weights of exact laws: small denominators


@dataclass(frozen=True)
class Law:
    """A random-subset law given by its atoms; masses are floats or Fractions."""

    n: int
    atoms: tuple  # masks
    masses: tuple

    def void(self, k_mask):
        """V(K) = P{X and K disjoint}, computed from the atoms."""
        hit = [m for a, m in zip(self.atoms, self.masses) if not a & k_mask]
        if self.masses and isinstance(self.masses[0], float):
            return math.fsum(hit)
        return sum(hit, Fraction(0))

    def power_q(self, alpha):
        """q(A) = sum over B inside A of (-1)^{|A|-|B|} P{X inside B}^alpha for
        every mask A; exact for a rational law and an integer alpha."""
        if isinstance(self.masses[0], Fraction) and isinstance(alpha, int):
            den = math.lcm(*(m.denominator for m in self.masses))
            w = np.zeros(1 << self.n, dtype=np.int64)
            for a, m in zip(self.atoms, self.masses):
                w[a] += int(m * den)
            q = subset_mobius(subset_sums(w, self.n).astype(object) ** alpha, self.n)
            return np.array([Fraction(int(v), den**alpha) for v in q], dtype=object)
        w = np.zeros(1 << self.n)
        for a, m in zip(self.atoms, self.masses):
            w[a] += float(m)
        return subset_mobius(subset_sums(w, self.n) ** float(alpha), self.n)


@dataclass(frozen=True)
class ProductLattice:
    """Product of small factor lattices, each given by its order matrix.

    Element index is row-major in the factor coordinates (last factor fastest).
    """

    name: str
    factors: tuple  # of (k, k) boolean order matrices
    distributive: bool

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def n(self):
        return int(np.prod(self.shape))

    def coords(self, x):
        return np.unravel_index(x, self.shape)

    def index(self, coords):
        return int(np.ravel_multi_index(tuple(coords), self.shape))

    def factor_covers(self, i, c):
        leq = self.factors[i]
        above = [d for d in range(leq.shape[0]) if d != c and leq[c, d]]
        return [d for d in above if not any(e != d and leq[e, d] for e in above)]

    def covers(self, x):
        cs = self.coords(x)
        out = []
        for i in range(len(self.factors)):
            for d in self.factor_covers(i, int(cs[i])):
                up = list(cs)
                up[i] = d
                out.append(self.index(up))
        return sorted(out)

    def join(self, x, y):
        cx, cy = self.coords(x), self.coords(y)
        out = []
        for leq, a, b in zip(self.factors, cx, cy):
            upper = leq[a] & leq[b]
            # least upper bound: the upper bound below every other upper bound
            cand = [u for u in np.flatnonzero(upper) if all(leq[u, v] for v in np.flatnonzero(upper))]
            out.append(int(cand[0]))
        return self.index(out)

    def d_max(self):
        return sum(max(len(self.factor_covers(i, c)) for c in range(f.shape[0]))
                   for i, f in enumerate(self.factors))

    def up_sums(self, weights):
        """g(x) = sum of weights over y >= x (weights shaped like the lattice)."""
        g = np.asarray(weights).reshape(self.shape)
        for axis, leq in enumerate(self.factors):
            g = np.moveaxis(np.tensordot(leq.astype(g.dtype), g, axes=([1], [axis])), 0, axis)
        return g.reshape(-1)

    def mobius(self, values):
        """Weights p with up_sums(p) = values, in floats."""
        g = np.asarray(values, dtype=float).reshape(self.shape)
        for axis, leq in enumerate(self.factors):
            inv = np.rint(np.linalg.inv(leq.astype(float)))
            g = np.moveaxis(np.tensordot(inv, g, axes=([1], [axis])), 0, axis)
        return g.reshape(-1)


def chain(k):
    return np.triu(np.ones((k, k), dtype=bool))


def diamond(atoms):
    k = atoms + 2
    leq = np.eye(k, dtype=bool)
    leq[0, :] = True
    leq[:, k - 1] = True
    return leq


LATTICES = (
    ProductLattice("chain20xchain20", (chain(20), chain(20)), True),
    ProductLattice("diamond5xchain6xchain6", (diamond(5), chain(6), chain(6)), False),
    ProductLattice("boolean8", tuple(chain(2) for _ in range(8)), True),
    ProductLattice("chain258xchain2", (chain(258), chain(2)), True),
)


@dataclass
class Invocation:
    """One `python -m cmlat` call with the facts its answer is checked against."""

    name: str
    argv: list
    check: str
    facts: dict = field(default_factory=dict)
    csv: str | None = None
    known_defect: str | None = None


# --- transforms -----------------------------------------------------------------
# In-place passes over bit i of the mask, on numpy arrays of floats or of
# Python ints, independent of the program's own transforms.


def _bit_halves(a, n):
    for i in range(n):
        v = a.reshape(-1, 2, 1 << i)
        yield v[:, 0, :], v[:, 1, :]


def subset_sums(values, n):
    """F(B) = sum of values(A) over A inside B."""
    a = np.array(values)
    for without, with_bit in _bit_halves(a, n):
        with_bit += without
    return a


def subset_mobius(values, n):
    """The inverse of subset_sums."""
    a = np.array(values)
    for without, with_bit in _bit_halves(a, n):
        with_bit -= without
    return a


def superset_sums(values, n):
    """g(A) = sum of values(B) over B containing A."""
    a = np.array(values)
    for without, with_bit in _bit_halves(a, n):
        without += with_bit
    return a


def superset_mobius(values, n):
    """The inverse of superset_sums."""
    a = np.array(values)
    for without, with_bit in _bit_halves(a, n):
        without -= with_bit
    return a


# --- documents ----------------------------------------------------------------


def fixed_support(n, count, tag):
    """Atom masks that depend on the size only, never on the workload seed."""
    rng = random.Random(f"support-{tag}-{n}-{count}")
    return tuple(sorted(rng.sample(range(1, 1 << n), count)))


def integer_weights(rng, count, tag):
    """Small integer weights: a fixed multiset, placed in seeded order.

    Exact arithmetic costs depend on the values (denominators, and how many
    subset sums coincide and merge), but only through the multiset, so every
    seed gets different values at the same cost.
    """
    fixed = random.Random(f"weights-{tag}-{count}")
    weights = [fixed.randint(*WEIGHT_RANGE) for _ in range(count)]
    rng.shuffle(weights)
    return weights


def float_law(rng, n, count=FLOAT_ATOMS):
    atoms = fixed_support(n, count, "float")
    weights = [rng.uniform(0.5, 1.5) for _ in atoms]
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    # the document must read back as a float law, not as an exact one
    while sum(map(Fraction, masses)) == 1:
        masses[0] = math.nextafter(masses[0], 0.0)
    return Law(n, atoms, tuple(masses))


def exact_law(rng, n, count=EXACT_ATOMS):
    atoms = fixed_support(n, count, "exact")
    weights = integer_weights(rng, count, f"exact-{n}")
    total = sum(weights)
    return Law(n, atoms, tuple(Fraction(w, total) for w in weights))


def singleton_law(rng, n):
    weights = integer_weights(rng, n, "singleton")
    total = sum(weights)
    return Law(n, tuple(1 << i for i in range(n)), tuple(Fraction(w, total) for w in weights))


def write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_law(path, law):
    return write(path, [str(law.n)] + [f"{a} {m!r}" if isinstance(m, float) else f"{a} {m}"
                                       for a, m in zip(law.atoms, law.masses)])


def void_table(law):
    """V(K) for every mask K: the subset-sum transform of the atoms, complemented."""
    exact = not isinstance(law.masses[0], float)
    w = np.full(1 << law.n, Fraction(0) if exact else 0.0, dtype=object if exact else float)
    for a, m in zip(law.atoms, law.masses):
        w[a] += m
    return subset_sums(w, law.n)[::-1].tolist()


def write_void(path, law):
    table = void_table(law)
    return write(path, [str(law.n)] + [f"{k} {v!r}" if isinstance(v, float) else f"{k} {v}"
                                       for k, v in enumerate(table)])


def boolean_cm_weights(rng, ground_n, exact):
    """Nonnegative weights on every mask of [ground_n]; f = their superset sums."""
    count = 1 << ground_n
    if exact:
        return np.array(integer_weights(rng, count, f"boolean-{ground_n}"), dtype=np.int64)
    return np.array([rng.uniform(0.0, 1.0) for _ in range(count)])


def write_function(path, lattice_name, values):
    return write(path, [f"lattice {lattice_name}"] + [f"{x} {v}" for x, v in enumerate(values)])


def exact_cm_function(rng, up_sums, n):
    """A c.m. function with values in [0, 1]: superset sums of positive integer
    weights, divided by the value at the bottom.  Returns the values and the
    least Mobius weight."""
    weights = np.array(integer_weights(rng, n, f"lattice-{n}"), dtype=np.int64)
    g = up_sums(weights)
    total = int(g.max())
    return [Fraction(int(v), total) for v in g], Fraction(int(weights.min()), total)


def write_lattice(path, lat):
    lines = [str(lat.n)]
    for x in range(lat.n):
        lines += [f"{x} {y}" for y in lat.covers(x)]
    return write(path, lines)


# --- workloads ------------------------------------------------------------------


def randset_float(rng, work):
    invs = []
    for n in (16, 18):
        law = float_law(rng, n)
        path = write_law(os.path.join(work, f"float{n}.dist"), law)
        for alpha in (0.5, n - 1.5, n - 0.5):
            invs.append(Invocation(
                f"power-exists n{n} a{alpha}",
                ["randset", "power-exists", "--dist", path, "--alpha", repr(alpha)],
                "power_exists", {"law": law, "alpha": alpha, "q": law.power_q(alpha)}))
        if n == 16:
            invs.append(Invocation(f"union n{n} m3", ["randset", "union", "--dist", path, "--m", "3"],
                                   "union", {"law": law, "m": 3}))
            invs.append(Invocation(f"poisson n{n}", ["randset", "poisson", "--dist", path, "--lam", "2.5"],
                                   "poisson", {"law": law, "lam": 2.5}))
    law = float_law(rng, 14)
    path = write_law(os.path.join(work, "float14.dist"), law)
    csv = os.path.join(work, "void14.csv")
    invs.append(Invocation("void n14 csv", ["randset", "void", "--dist", path, "--csv", csv],
                           "void", {"law": law}, csv=csv))
    law = float_law(rng, 14)
    path = write_void(os.path.join(work, "float14.void"), law)
    invs.append(Invocation("invert n14 decimal", ["randset", "invert", "--void", path],
                           "invert", {"law": law}, known_defect="decimal-void-parse"))
    f = superset_sums(boolean_cm_weights(rng, 12, exact=False), 12)
    f = f / f[0]
    path = write_function(os.path.join(work, "float-b12.fn"), "boolean:12", [repr(float(v)) for v in f])
    invs.append(Invocation("accompany b12 m5",
                           ["cm", "accompany", "--lattice", "boolean:12", "--fn", path, "--m", "5"],
                           "accompany", {"values": [float(v) for v in f], "m": 5}))
    return invs


def randset_exact(rng, work):
    invs = []
    for n in (12, 14):
        law = exact_law(rng, n)
        path = write_law(os.path.join(work, f"exact{n}.dist"), law)
        for alpha in (2, 3, n - 1):
            invs.append(Invocation(
                f"power-exists n{n} a{alpha}",
                ["randset", "power-exists", "--dist", path, "--alpha", str(alpha)],
                "power_exists", {"law": law, "alpha": alpha, "q": law.power_q(alpha)}))
        for m in (2, 3):
            invs.append(Invocation(f"union n{n} m{m}", ["randset", "union", "--dist", path, "--m", str(m)],
                                   "union", {"law": law, "m": m}))
    law = exact_law(rng, 12)
    path = write_void(os.path.join(work, "exact12.void"), law)
    invs.append(Invocation("invert n12 exact", ["randset", "invert", "--void", path],
                           "invert", {"law": law}))
    weights = boolean_cm_weights(rng, 12, exact=True)
    g = superset_sums(weights, 12)
    total = int(g[0])
    values = [Fraction(int(v), total) for v in g]
    path = write_function(os.path.join(work, "exact-b12.fn"), "boolean:12", values)
    lat = ["--lattice", "boolean:12", "--fn", path]
    invs.append(Invocation("cm check b12", ["cm", "check", *lat], "cm_check",
                           {"min_weight": Fraction(int(weights.min()), total)}))
    for alpha in (2, 11):
        weight = superset_mobius(g.astype(object) ** alpha, 12).min()
        invs.append(Invocation(f"cm power b12 a{alpha}", ["cm", "power", *lat, "--alpha", str(alpha)],
                               "cm_power", {"values": values, "alpha": alpha, "d_max": 12,
                                            "min_weight": Fraction(int(weight), total**alpha)}))
    return invs


def scan(rng, work):
    invs = []
    for n in (6, 7, 8, 9):
        law = singleton_law(rng, n)
        path = write_law(os.path.join(work, f"singleton{n}.dist"), law)
        csv = os.path.join(work, f"scan{n}.csv")
        invs.append(Invocation(f"s-set singleton n{n}",
                               ["scan", "s-set", "--dist", path, "--T", str(n + 1), "--csv", csv],
                               "s_set", {"n": n, "T": n + 1}, csv=csv,
                               known_defect="scan-point-sliver" if n == 9 else None))
    csv = os.path.join(work, "scan-uniform9.csv")
    invs.append(Invocation("s-set uniform n9",
                           ["scan", "s-set", "--dist", "uniform-singleton:9", "--T", "10", "--csv", csv],
                           "s_set", {"n": 9, "T": 10}, csv=csv))
    for n, k in ((5, 3), (6, 3), (6, 4)):
        invs.append(Invocation(f"multi-interval n{n} k{k}",
                               ["scan", "multi-interval", "--n", str(n), "--k", str(k)],
                               "multi_interval", {"n": n, "k": k}))
    ms = (2, 10, 100, 1000, 10000)
    invs.append(Invocation("approx psi", ["approx", "psi", "--m-list", ",".join(map(str, ms))],
                           "psi", {"ms": ms}))
    invs.append(Invocation("hankel x0.5 a1.5", ["cmseq", "hankel", "--x", "0.5", "--alpha", "1.5"],
                           "hankel", {"x": 0.5, "alpha": 1.5}))
    return invs


def lattice(rng, work):
    invs = []
    for lat in LATTICES:
        lat_path = write_lattice(os.path.join(work, f"{lat.name}.lat"), lat)
        values, min_weight = exact_cm_function(rng, lat.up_sums, lat.n)
        fn_path = write_function(os.path.join(work, f"{lat.name}.fn"), lat.name, values)
        defect = "uint8-path-count" if lat.name == "chain258xchain2" else None
        d = lat.d_max()
        facts = {"lattice": lat, "values": values, "d_max": d}
        doc = ["--lattice", lat_path, "--fn", fn_path]
        invs.append(Invocation(f"lattice check {lat.name}", ["lattice", "check", "--lattice", lat_path],
                               "lattice_check", facts, known_defect=defect))
        invs.append(Invocation(f"cm check {lat.name}", ["cm", "check", *doc], "cm_check",
                               {**facts, "min_weight": min_weight}, known_defect=defect))
        for alpha in (d - 0.5, 0.5):
            weight = lat.mobius([float(v) ** alpha for v in values]).min()
            invs.append(Invocation(f"cm power {lat.name} a{alpha}",
                                   ["cm", "power", *doc, "--alpha", repr(alpha)],
                                   "cm_power", {**facts, "alpha": alpha, "min_weight": weight},
                                   known_defect=defect))
    return invs


WORKLOADS = {
    "randset-float": randset_float,
    "randset-exact": randset_exact,
    "scan": scan,
    "lattice": lattice,
}


def generate(workload, seed, work):
    """Write the workload's documents under `work` and return its invocations."""
    rng = random.Random(f"{workload}-{seed}")
    return WORKLOADS[workload](rng, work)
