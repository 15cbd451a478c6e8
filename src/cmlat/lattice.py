"""Finite lattices given by cover relations.

Elements are integers ``0..n-1``.  Every explicit lattice, the builtin
chains, diamonds, products and materialized Boolean lattices included, is
built by ``from_covers`` from its cover pairs: the pairs are closed into the
order table, and the lattice carries that table, its join table and a meet
table built on first read, capped at 4096 elements.  Of v elements it holds
v^2 bytes of order and 2 v^2 of join, plus 2 v^2 of meet once read: the
tables index elements in int16, the narrowest type the cap allows.  Filling
the join table checks every join, and a least element is then required,
which proves the lattice axioms: a finite join-semilattice with a bottom is
a lattice.  Boolean lattices are backed by bit operations (join = union,
meet = intersection) so that ground sets up to 20 points stay usable
without materializing 2^40-entry tables.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BudgetExceeded,
    CyclicCovers,
    DomainViolation,
    ElementOutOfRange,
    NonCoverEdge,
    NotALattice,
    SizeLimitExceeded,
    _ensure,
    _read_document,
)

GENERAL_SIZE_CAP = 4096
BOOLEAN_GROUND_CAP = 20
SUBSET_JOIN_BUDGET = 1 << 20
DISTRIBUTIVE_BLOCK_BYTES = 1 << 16  # bound on the int32 keys is_distributive sorts at once
# int32 keys pack an element index with an up-set size or a second index: a
# cap past 32767 would wrap them, so it fails here.  Below it, join and meet
# tables hold indices in the narrowest signed type the cap allows.
_ensure(GENERAL_SIZE_CAP << GENERAL_SIZE_CAP.bit_length() < 1 << 31,
        f"cap {GENERAL_SIZE_CAP} overflows the int32 keys of the tables")
INDEX_DTYPE = np.int8 if GENERAL_SIZE_CAP <= 1 << 7 else np.int16


class FiniteLattice:
    """Immutable lattice with explicit n-by-n order and join tables.

    Built by ``from_covers``, which hands over the closed order table, the
    down-sets packed as bits (read to fill the join table, not kept) and the
    covers: the closure of an acyclic relation is an order, not re-checked.
    Filling the join table checks that every pair has a unique least upper
    bound; with a least element that makes a lattice, the meet of x and y
    being the join of their lower bounds.  The meet table is built on first
    read, or at once when there is no bottom, to name a pair without one.
    """

    def __init__(self, leq, down, covers, name=""):
        self.n = len(leq)
        self.name = name
        self._leq = leq
        self._leq.setflags(write=False)
        self._covers = covers
        up_size = leq.sum(axis=1, dtype=np.int32)

        def below(x):
            return np.unpackbits(down[x], count=self.n, bitorder="little").view(bool)

        self._join = _join_table(leq, below, covers, up_size, "join")
        # every join exists, so the one maximal element is the top
        sizes = up_size.tolist()
        self.top = sizes.index(1)
        if self.n not in sizes:
            self._meet  # some pair has no meet: the table names the first
        self.bottom = sizes.index(self.n)

    @functools.cached_property
    def _meet(self):
        """Meet table: the join table of the transposed order, read in place."""
        lower = [[] for _ in range(self.n)]
        for x, c in self.cover_pairs():
            lower[c].append(x)
        leq = self._leq
        return _join_table(leq.T, leq.__getitem__, lower, leq.sum(axis=0, dtype=np.int32), "meet")

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

    def cover_pairs(self):
        return [(x, y) for x in self.elements for y in self.covers(x)]

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<FiniteLattice{label} n={self.n}>"


class BooleanLattice(FiniteLattice):
    """Subsets of [n] ordered by inclusion, encoded as bit masks.

    Join, meet and order are bitwise; nothing quadratic in 2^n is stored.
    """

    def __init__(self, ground_n):
        if not 1 <= ground_n <= BOOLEAN_GROUND_CAP:
            raise SizeLimitExceeded(
                f"boolean ground set must have 1..{BOOLEAN_GROUND_CAP} points, got {ground_n}"
            )
        # deliberately skip FiniteLattice.__init__: tables stay implicit
        self.ground_n = ground_n
        self.n = 1 << ground_n
        self.name = f"boolean{ground_n}"
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

    def __repr__(self):
        return f"<BooleanLattice [{self.ground_n}] n={self.n}>"


# --- table construction -----------------------------------------------------

def _join_table(leq, below_row, covers, up_size, word):
    """Join table of the order ``leq`` (a C-contiguous table or its
    transposed view), filled top-down; ``below_row(x)`` is the bool row of
    the elements below x.

    For incomparable x and y every upper bound of both lies above some cover
    c of x, so join(x, y) is the least of {join(c, y) : c covers x}: the one
    with the largest up-set, provided it lies below all the others.  Raises
    NotALattice naming the first pair found without a join.
    """
    n = leq.shape[0]
    cols = np.arange(n, dtype=np.int32)
    # leq[i, j] is flat[i * step_i + j * step_j]: one byte an entry, in memory order
    flat, (step_i, step_j) = leq.ravel(order="K"), leq.strides
    shift = n.bit_length()
    keys = (up_size << shift) | cols  # int32 keys order by up-set size first
    join = np.empty((n, n), dtype=INDEX_DTYPE)
    sizes = up_size.tolist()
    for x in sorted(range(n), key=sizes.__getitem__):
        covs = covers[x]
        below = below_row(x)
        if len(covs) == 1:
            join[x] = np.where(below, x, join[covs[0]])
            continue
        if covs:
            cand = join.take(covs, axis=0).astype(np.intp)  # int16 * step would wrap
            best = keys.take(cand).max(axis=0) & ((1 << shift) - 1)
            # above x the least candidate is y itself, so only the elements
            # incomparable to x can miss
            found = flat.take(best * step_i + cand * step_j).all(axis=0) | below
        else:
            best, found = cols, below
        if not found.all():
            i, j = sorted((x, int(np.argmin(found))))
            raise NotALattice(f"elements {i} and {j} have no unique {word}")
        join[x] = np.where(below, x, best)
    join.setflags(write=False)
    return join


# --- constructors ---------------------------------------------------------

def from_covers(n, cover_pairs, name="") -> FiniteLattice:
    """Build a lattice from its Hasse diagram: the one construction path of
    every explicit lattice.  The size cap is checked before any pair is read.
    Up-sets are closed in one top-down pass over Python-int bitsets, down-sets
    in the reverse pass, and the covers are the declared pairs that no other
    declared pair implies.  Raises CyclicCovers for cycles, NotALattice when
    some pair has no unique lub/glb, and then NonCoverEdge for the first
    declared pair that is not a cover (canonical input is enforced, not
    repaired).
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
    # plus the up-sets of its declared covers, ready once all of those are.
    # A declared pair (x, u) is implied when u lies strictly above another
    # declared cover of x; the pairs that are not are the covers of x.
    up = [0] * n
    implied = [0] * n
    pending = [len(a) for a in above]
    ready = [x for x in range(n) if not pending[x]]
    order = []
    while ready:
        x = ready.pop()
        order.append(x)
        union = strict = 0
        for c in above[x]:
            union |= up[c]
            strict |= up[c] ^ 1 << c
        up[x] = union | 1 << x
        implied[x] = strict
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
    # every element below x comes after x in order
    down = [1 << x for x in range(n)]
    for x in reversed(order):
        for lower in below[x]:
            down[x] |= down[lower]
    covers = tuple(
        tuple(sorted({c for c in above[x] if not implied[x] >> c & 1})) for x in range(n)
    )
    width = (n + 7) // 8
    up_bits, down_bits = (np.frombuffer(b"".join(s.to_bytes(width, "little") for s in sets), dtype=np.uint8)
                          .reshape(n, width) for sets in (up, down))
    leq = np.unpackbits(up_bits, axis=1, count=n, bitorder="little").view(bool)
    lat = FiniteLattice(leq, down_bits, covers, name=name)
    for lower, upper in pairs:
        if implied[lower] >> upper & 1:
            raise NonCoverEdge(f"pair {(lower, upper)} is implied transitively")
    return lat


def chain_lattice(k) -> FiniteLattice:
    """Total order on k elements."""
    if k < 1:
        raise DomainViolation("a chain needs at least one element")
    return from_covers(k, zip(range(k - 1), range(1, k)), name=f"chain{k}")


def boolean_lattice(ground_n) -> BooleanLattice:
    """Subsets of [ground_n] ordered by inclusion; element i is bit i."""
    return BooleanLattice(ground_n)


def diamond_lattice(k) -> FiniteLattice:
    """Bottom, k pairwise incomparable atoms and a top; k=3 is M3, k=1 a 3-chain."""
    if k < 1:
        raise DomainViolation("need at least one atom")
    pairs = (pair for a in range(1, k + 1) for pair in ((0, a), (a, k + 1)))
    return from_covers(k + 2, pairs, name=f"diamond{k}")


def pentagon_lattice() -> FiniteLattice:
    """The five-element non-modular lattice N5: 0 < 1 < 2 < 4 and 0 < 3 < 4."""
    return from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], name="pentagon")


def product_lattice(a: FiniteLattice, b: FiniteLattice, name="") -> FiniteLattice:
    """Componentwise order on pairs; element (i, j) becomes index i*b.n + j.

    A cover raises one coordinate along a cover of its factor.  The pairs
    are generated lazily: an over-cap product fails before any is listed."""

    def pairs():
        for lower, upper in a.cover_pairs():
            for j in range(b.n):
                yield lower * b.n + j, upper * b.n + j
        b_pairs = b.cover_pairs()
        for i in range(0, a.n * b.n, b.n):
            for lower, upper in b_pairs:
                yield i + lower, i + upper

    return from_covers(a.n * b.n, pairs(), name=name or f"({a.name}x{b.name})")


def materialize(lat: FiniteLattice) -> FiniteLattice:
    """Explicit-table copy of any lattice (small Boolean ones included)."""
    if not isinstance(lat, BooleanLattice):
        return lat
    if lat.n > GENERAL_SIZE_CAP:
        raise SizeLimitExceeded("boolean lattice too large to materialize")
    return from_covers(lat.n, lat.cover_pairs(), name=lat.name)


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
    repeats, in blocks of rows of at most DISTRIBUTIVE_BLOCK_BYTES (one row
    when a row is larger), up to the first block with a repeat: O(n^2 log n)
    time.  Powerset lattices are distributive; their tables are not built.
    """
    if isinstance(lat, BooleanLattice):
        return True
    n = lat.n
    rows = max(1, DISTRIBUTIVE_BLOCK_BYTES // (4 * n))
    for i in range(0, n, rows):
        keys = np.sort(lat._join[i:i + rows].astype(np.int32) * n + lat._meet[i:i + rows])
        if (keys[:, 1:] == keys[:, :-1]).any():
            return False
    return True


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
    square = from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="square")
    entries = [
        *map(chain_lattice, (2, 3, 4, 6)),
        square,
        diamond_lattice(3),
        diamond_lattice(4),
        pentagon_lattice(),
        product_lattice(chain_lattice(2), chain_lattice(3), name="chain2xchain3"),
        materialize(boolean_lattice(3)),
        product_lattice(chain_lattice(3), square, name="chain3xsquare"),
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
