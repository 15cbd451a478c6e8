"""Finite lattices given by cover relations.

Elements are integers ``0..n-1``.  General lattices carry explicit order,
join and meet tables and are capped at 4096 elements; Boolean lattices are
backed by bit operations (join = union, meet = intersection) so that ground
sets up to 20 points stay usable without materializing 2^40-entry tables.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BudgetExceeded,
    CyclicCovers,
    ElementOutOfRange,
    NonCoverEdge,
    NotALattice,
    SizeLimitExceeded,
    _read_document,
)

GENERAL_SIZE_CAP = 4096
BOOLEAN_GROUND_CAP = 20
SUBSET_JOIN_BUDGET = 1 << 20


class FiniteLattice:
    """Immutable lattice with explicit n-by-n order/join/meet tables.

    Construction validates the full lattice axioms: the order must be
    reflexive, antisymmetric and transitive, and every pair of elements must
    have a unique least upper bound and greatest lower bound (checked for
    every pair while the join and meet tables are filled).
    """

    def __init__(self, leq, name=""):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if leq.shape != (n, n):
            raise NotALattice(f"order table must be square, got {leq.shape}")
        if n < 1:
            raise NotALattice("a lattice needs at least one element")
        if n > GENERAL_SIZE_CAP:
            raise SizeLimitExceeded(f"{n} elements exceeds cap {GENERAL_SIZE_CAP}")
        self.n = n
        self.name = name
        self._leq = leq
        self._leq.setflags(write=False)
        if not leq.diagonal().all():
            raise NotALattice("order is not reflexive")
        both = leq & leq.T
        if both.sum() > n:
            i, j = np.argwhere(both & ~np.eye(n, dtype=bool))[0]
            raise NotALattice(f"order is not antisymmetric at ({i}, {j})")
        up_size = leq.sum(axis=1, dtype=np.int32)
        self._covers = _covers(leq, up_size)
        lower = [[] for _ in range(n)]
        for x, covs in enumerate(self._covers):
            for c in covs:
                lower[c].append(x)
        geq = np.ascontiguousarray(leq.T)
        self._join = _join_table(leq, geq, self._covers, up_size, "join")
        self._meet = _join_table(geq, leq, lower, geq.sum(axis=1, dtype=np.int32), "meet")
        self.top = int(np.flatnonzero(leq.all(axis=0))[0])
        self.bottom = int(np.flatnonzero(leq.all(axis=1))[0])

    # -- accessors ----------------------------------------------------------

    @property
    def elements(self):
        return range(self.n)

    def check_element(self, x):
        if not 0 <= x < self.n:
            raise ElementOutOfRange(f"element {x} not in 0..{self.n - 1}")

    def leq(self, x, y) -> bool:
        return bool(self._leq[x, y])

    def join(self, x, y) -> int:
        return int(self._join[x, y])

    def meet(self, x, y) -> int:
        return int(self._meet[x, y])

    def covers(self, x):
        """Elements covering x (immediately above it)."""
        return self._covers[x]

    def up_set(self, x):
        """All y with y >= x, ascending by index."""
        return tuple(int(j) for j in np.flatnonzero(self._leq[x]))

    def join_many(self, xs):
        acc = self.bottom
        for x in xs:
            acc = self.join(acc, x)
        return acc

    def cover_pairs(self):
        return [(x, y) for x in self.elements for y in self.covers(x)]

    def ranks_to_top(self):
        """Length of the longest chain from each element up to the top."""
        order = sorted(self.elements, key=lambda x: (self._leq[x].sum(), x))
        rank = [0] * self.n
        for x in order:  # every y > x precedes x in this order
            covs = self._covers[x]
            rank[x] = 1 + max(rank[y] for y in covs) if covs else 0
        return rank

    def mobius_order(self):
        """Deterministic top-down order: ascending chain-rank, ties by index."""
        rank = self.ranks_to_top()
        return sorted(self.elements, key=lambda x: (rank[x], x))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<FiniteLattice{label} n={self.n}>"


class BooleanLattice(FiniteLattice):
    """Subsets of [n] ordered by inclusion, encoded as bit masks.

    Join, meet and order are bitwise; nothing quadratic in 2^n is stored.
    """

    def __init__(self, ground_n, name=""):
        if not 1 <= ground_n <= BOOLEAN_GROUND_CAP:
            raise SizeLimitExceeded(
                f"boolean ground set must have 1..{BOOLEAN_GROUND_CAP} points, got {ground_n}"
            )
        # deliberately skip FiniteLattice.__init__: tables stay implicit
        self.ground_n = ground_n
        self.n = 1 << ground_n
        self.name = name or f"boolean{ground_n}"
        self.top = self.n - 1
        self.bottom = 0

    def leq(self, x, y) -> bool:
        return (x | y) == y

    def join(self, x, y) -> int:
        return x | y

    def meet(self, x, y) -> int:
        return x & y

    def covers(self, x):
        return tuple(x | (1 << i) for i in range(self.ground_n) if not x & (1 << i))

    def up_set(self, x):
        # supersets of x, ascending: iterate over subsets of the complement
        comp = self.top ^ x
        out = []
        m = 0
        while True:
            out.append(x | m)
            if m == comp:
                break
            m = (m - comp) & comp
        return tuple(sorted(out))

    def ranks_to_top(self):
        return [self.ground_n - bin(x).count("1") for x in self.elements]

    def __repr__(self):
        return f"<BooleanLattice [{self.ground_n}] n={self.n}>"


# --- table construction -----------------------------------------------------

def _covers(leq, up_size):
    """Covers of every element of a reflexive, antisymmetric order.

    Elements are taken top-down (ascending up-set size).  The covers of x are
    the minimal elements of its strict up-set S(x): the remaining element with
    the largest up-set is minimal, so take it and strike its up-set until
    nothing remains.  The order is transitive at x iff every y in S(x) has a
    smaller up-set than x (so y was taken, and checked, before x) and the
    up-set of each cover lies inside S(x).  This costs O(covers * n) rather
    than an n-by-n-by-n product.
    """
    n = leq.shape[0]
    covers = [()] * n
    for x in np.argsort(up_size, kind="stable"):
        strict = leq[x].copy()
        strict[x] = False
        early = strict & (up_size >= up_size[x])
        if early.any():
            z = np.flatnonzero(leq[np.argmax(early)] & ~leq[x])[0]
            raise NotALattice(f"order is not transitive at ({x}, {z})")
        rest = strict.copy()
        covs = []
        while rest.any():
            c = int(np.argmax(np.where(rest, up_size, -1)))
            outside = leq[c] & ~strict
            if outside.any():
                raise NotALattice(f"order is not transitive at ({x}, {np.argmax(outside)})")
            covs.append(c)
            rest &= ~leq[c]
        covers[x] = tuple(sorted(covs))
    return tuple(covers)


def _join_table(leq, geq, covers, up_size, word):
    """Join table of the order ``leq`` (``geq`` is its transpose), filled
    top-down by cover recursion.

    For incomparable x and y every upper bound of both lies above some cover
    c of x, so join(x, y) is the least of {join(c, y) : c covers x}.  The
    least candidate is the one with the largest up-set, provided it lies
    below all the others.  The meet table is this table of the reversed
    order.  Raises NotALattice naming the first pair found without one.
    """
    n = leq.shape[0]
    cols = np.arange(n)
    flat = leq.ravel()
    shift = n.bit_length()  # int32 keys (up-set size, element) order by size first
    join = np.empty((n, n), dtype=np.int32)
    for x in np.argsort(up_size, kind="stable"):
        covs = list(covers[x])
        if not covs:
            best, least = cols, False
        elif len(covs) == 1:
            best, least = join[covs[0]], True
        else:
            cand = join[covs]
            best = ((up_size[cand] << shift) | cand).max(axis=0) & ((1 << shift) - 1)
            least = flat.take(best * n + cand).all(axis=0)
        missing = ~leq[x] & ~geq[x] & ~least
        if missing.any():
            i, j = sorted((int(x), int(np.argmax(missing))))
            raise NotALattice(f"elements {i} and {j} have no unique {word}")
        join[x] = np.where(leq[x], cols, np.where(geq[x], x, best))
    join.setflags(write=False)
    return join


# --- constructors ---------------------------------------------------------

def from_covers(n, cover_pairs, name="") -> FiniteLattice:
    """Build a lattice from its Hasse diagram.

    Raises CyclicCovers for cycles, NonCoverEdge for declared pairs that are
    transitively implied (canonical input is enforced, not repaired), and
    NotALattice when some pair has no unique lub/glb.
    """
    if n < 1:
        raise NotALattice("a lattice needs at least one element")
    if n > GENERAL_SIZE_CAP:
        raise SizeLimitExceeded(f"{n} elements exceeds cap {GENERAL_SIZE_CAP}")
    above = [[] for _ in range(n)]
    below = [[] for _ in range(n)]
    pairs = []
    for lower, upper in cover_pairs:
        if not (0 <= lower < n and 0 <= upper < n):
            raise ElementOutOfRange(f"cover pair ({lower}, {upper}) out of range")
        if lower == upper:
            raise CyclicCovers(f"self-loop at element {lower}")
        above[lower].append(upper)
        below[upper].append(lower)
        pairs.append((lower, upper))
    # one topological pass from the top down: an element's up-set is itself
    # plus the up-sets of its covers, ready once all of those are
    reach = np.zeros((n, n), dtype=bool)
    pending = [len(a) for a in above]
    ready = [x for x in range(n) if not pending[x]]
    while ready:
        x = ready.pop()
        if above[x]:
            reach[x] = reach[above[x]].any(axis=0)
        reach[x, x] = True
        for lower in below[x]:
            pending[lower] -= 1
            if not pending[lower]:
                ready.append(lower)
    if any(pending):
        # every element left over has a cover left over, so walking up
        # through left-over covers runs into a cycle
        x = next(k for k, left in enumerate(pending) if left)
        seen = []
        while x not in seen:
            seen.append(x)
            x = next(c for c in above[x] if pending[c])
        i, j = sorted(seen[seen.index(x):])[:2]
        raise CyclicCovers(f"cover relation is cyclic through {i} and {j}")
    # (lower, upper) is implied when upper lies above another cover of lower
    implied = set()
    for lower in range(n):
        covs = sorted(set(above[lower]))
        if len(covs) < 2:
            continue
        hits = reach[np.ix_(covs, covs)].sum(axis=0) > 1
        implied.update((lower, c) for c, hit in zip(covs, hits) if hit)
    for pair in pairs:
        if pair in implied:
            raise NonCoverEdge(f"pair {pair} is implied transitively")
    return FiniteLattice(reach, name=name)


def chain_lattice(k, name="") -> FiniteLattice:
    """Total order on k elements."""
    if k < 1:
        raise NotALattice("a chain needs at least one element")
    if k > GENERAL_SIZE_CAP:
        raise SizeLimitExceeded(f"{k} elements exceeds cap {GENERAL_SIZE_CAP}")
    leq = np.triu(np.ones((k, k), dtype=bool))
    return FiniteLattice(leq, name=name or f"chain{k}")


def boolean_lattice(ground_n) -> BooleanLattice:
    """Subsets of [ground_n] ordered by inclusion; element i is bit i."""
    return BooleanLattice(ground_n)


def diamond_lattice(k, name="") -> FiniteLattice:
    """Bottom, k pairwise incomparable atoms and a top; k=3 is M3."""
    if k < 1:
        raise NotALattice("need at least one atom")
    if k + 2 > GENERAL_SIZE_CAP:
        raise SizeLimitExceeded(f"{k + 2} elements exceeds cap {GENERAL_SIZE_CAP}")
    if k == 1:
        return chain_lattice(3, name=name or "diamond1")
    pairs = [(0, a) for a in range(1, k + 1)] + [(a, k + 1) for a in range(1, k + 1)]
    return from_covers(k + 2, pairs, name=name or f"diamond{k}")


def pentagon_lattice() -> FiniteLattice:
    """The five-element non-modular lattice N5: 0 < 1 < 2 < 4 and 0 < 3 < 4."""
    return from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], name="pentagon")


def product_lattice(a: FiniteLattice, b: FiniteLattice, name="") -> FiniteLattice:
    """Componentwise order on pairs; element (i, j) becomes index i*b.n + j."""
    a = materialize(a)
    b = materialize(b)
    if a.n * b.n > GENERAL_SIZE_CAP:
        raise SizeLimitExceeded(f"{a.n * b.n} elements exceeds cap {GENERAL_SIZE_CAP}")
    leq = np.kron(a._leq, b._leq)
    return FiniteLattice(leq, name=name or f"({a.name}x{b.name})")


def materialize(lat: FiniteLattice) -> FiniteLattice:
    """Explicit-table copy of any lattice (small Boolean ones included)."""
    if not isinstance(lat, BooleanLattice):
        return lat
    n = lat.n
    if n > GENERAL_SIZE_CAP:
        raise SizeLimitExceeded("boolean lattice too large to materialize")
    masks = np.arange(n, dtype=np.int32)
    leq = (masks[:, None] | masks[None, :]) == masks[None, :]
    return FiniteLattice(leq, name=lat.name)


# --- structural analysis ----------------------------------------------------

def cover_degree(lat: FiniteLattice, x) -> int:
    """Number of elements covering x."""
    lat.check_element(x)
    return len(lat.covers(x))


def d_max(lat: FiniteLattice) -> int:
    """Maximum cover degree over the lattice; the power threshold is d_max - 1."""
    if isinstance(lat, BooleanLattice):
        return lat.ground_n
    return max(cover_degree(lat, x) for x in lat.elements)


def is_distributive(lat: FiniteLattice) -> bool:
    """Whether join distributes over meet, by the cancellation law.

    A lattice is distributive iff x v y = x v z and x ^ y = x ^ z imply
    y = z, i.e. iff for every x the pairs (x v y, x ^ y) are distinct over y.
    Each row of int32 keys (x v y) * n + (x ^ y) is sorted and checked for
    repeats: O(n^2 log n), bounded by GENERAL_SIZE_CAP like every explicit
    table.  Powerset lattices are distributive; their tables are not built.
    """
    if isinstance(lat, BooleanLattice):
        return True
    keys = lat._join * np.int32(lat.n)
    keys += lat._meet
    keys.sort(axis=1)
    return not (keys[:, 1:] == keys[:, :-1]).any()


def verify_distinct_joins(lat: FiniteLattice, x):
    """Check that joins of distinct nonempty cover subsets of x are distinct.

    Returns ``(True, None)`` or ``(False, (subset_a, subset_b))`` where the two
    cover subsets have the same join.  Holds for every x when the lattice is
    distributive.
    """
    lat.check_element(x)
    covs = lat.covers(x)
    d = len(covs)
    if 1 << d > SUBSET_JOIN_BUDGET:
        raise BudgetExceeded(f"2^{d} subset joins exceed budget")
    seen = {}
    for mask, j in enumerate(_subset_joins(lat, x, covs)):
        if j in seen:
            a = tuple(covs[i] for i in range(d) if seen[j] >> i & 1)
            b = tuple(covs[i] for i in range(d) if mask >> i & 1)
            return False, (a, b)
        seen[j] = mask
    return True, None


def _subset_joins(lat: FiniteLattice, base, xs):
    """The joins of ``base`` with every subset of ``xs``, indexed by subset
    mask (bit i for ``xs[i]``); each join extends the join without the mask's
    lowest bit."""
    joins = [base] * (1 << len(xs))
    for mask in range(1, 1 << len(xs)):
        low = mask & -mask
        joins[mask] = lat.join(joins[mask ^ low], xs[low.bit_length() - 1])
    return joins


# --- built-in catalog -------------------------------------------------------

def catalog(max_size=None):
    """Named test lattices: chains, Booleans, diamonds, products, N5.

    ``max_size`` filters by element count (the exhaustive-oracle suites use 6).
    """
    entries = [
        chain_lattice(2),
        chain_lattice(3),
        chain_lattice(4),
        chain_lattice(6),
        from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="square"),
        diamond_lattice(3),
        diamond_lattice(4),
        pentagon_lattice(),
        product_lattice(chain_lattice(2), chain_lattice(3), name="chain2xchain3"),
        materialize(boolean_lattice(3)),
        product_lattice(
            chain_lattice(3),
            from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="square"),
            name="chain3xsquare",
        ),
        materialize(boolean_lattice(4)),
    ]
    if max_size is not None:
        entries = [lat for lat in entries if lat.n <= max_size]
    return entries


# --- text exchange format ---------------------------------------------------

def format_lattice_text(lat: FiniteLattice) -> str:
    """Serialize as 'n' followed by one 'lower upper' cover pair per line."""
    lines = [str(lat.n)]
    lines += [f"{lo} {hi}" for lo, hi in sorted(lat.cover_pairs())]
    return "\n".join(lines) + "\n"


def parse_lattice_text(text: str, name="") -> FiniteLattice:
    """Parse the cover-pair exchange format; reports 1-based line numbers."""
    records = _read_document(text, "lattice", "'lower upper'", (int, int), "element count")
    _, n = next(records)
    return from_covers(n, [pair for _, pair in records], name=name)


def write_lattice_file(lat: FiniteLattice, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice_text(lat))


def read_lattice_file(path) -> FiniteLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lattice_text(fh.read(), name=str(path))
