import itertools
import pathlib
import random
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import lattice as lattice_module
from cmlat.errors import (
    CyclicCovers,
    ElementOutOfRange,
    FormatError,
    InvariantViolation,
    NonCoverEdge,
    NotALattice,
    SizeLimitExceeded,
)
from cmlat.lattice import (
    DISTRIBUTIVE_BLOCK_BYTES,
    GENERAL_SIZE_CAP,
    INDEX_DTYPE,
    BooleanLattice,
    _subset_joins,
    boolean_lattice,
    catalog,
    chain_lattice,
    cover_degree,
    d_max,
    diamond_lattice,
    format_lattice_text,
    from_covers,
    is_distributive,
    parse_lattice_text,
    pentagon_lattice,
    product_lattice,
    materialize,
)

SQUARE_COVERS = [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_chain_from_covers():
    lat = from_covers(3, [(0, 1), (1, 2)])
    assert lat.top == 2 and lat.bottom == 0
    assert lat.leq(0, 2) and not lat.leq(2, 0)
    assert lat.join(0, 2) == 2 and lat.meet(1, 2) == 1


def test_missing_join_is_rejected():
    with pytest.raises(NotALattice):
        from_covers(3, [(0, 1), (0, 2)])
    with pytest.raises(NotALattice):
        from_covers(4, [(0, 1), (0, 2)])  # 1 and 2 have no join
    with pytest.raises(NotALattice):
        from_covers(4, [(0, 2), (1, 2), (0, 3), (1, 3)])  # 0,1 lack a meet... and 2,3 a join
    with pytest.raises(NotALattice, match="elements (1 and 2|3 and 4) have no unique"):
        # bounded, but 1 and 2 have two minimal upper bounds, 3 and 4
        from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


def test_square_lattice():
    lat = from_covers(4, SQUARE_COVERS)
    assert lat.join(1, 2) == 3
    assert lat.meet(1, 2) == 0
    assert lat.covers(0) == (1, 2)


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCovers):
        from_covers(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CyclicCovers):
        from_covers(2, [(0, 0)])


def test_transitively_implied_edge_rejected():
    with pytest.raises(NonCoverEdge):
        from_covers(3, [(0, 1), (1, 2), (0, 2)])
    # (0, 3) is implied by 0 < 1 < 3, but the maximal 2 and 3 have no join,
    # and a document that is not a lattice says so first
    with pytest.raises(NotALattice, match="no unique join"):
        from_covers(4, [(0, 1), (0, 2), (1, 3), (0, 3)])


def test_out_of_range_pair():
    with pytest.raises(ElementOutOfRange):
        from_covers(2, [(0, 5)])


def test_boolean_lattice_structure():
    lat = boolean_lattice(3)
    assert lat.n == 8
    assert lat.covers(0) == (0b001, 0b010, 0b100)
    assert d_max(lat) == 3
    assert lat.join(0b011, 0b101) == 0b111
    assert lat.meet(0b011, 0b101) == 0b001
    assert boolean_lattice(1).n == 2
    with pytest.raises(SizeLimitExceeded):
        boolean_lattice(21)


def test_boolean_matches_explicit_tables():
    # the bit-rule lattice agrees with a from_covers build on the same encoding
    bl = boolean_lattice(3)
    pairs = bl.cover_pairs()
    explicit = from_covers(8, pairs)
    for x, y in itertools.product(range(8), repeat=2):
        assert bl.leq(x, y) == explicit.leq(x, y)
        assert bl.join(x, y) == explicit.join(x, y)
        assert bl.meet(x, y) == explicit.meet(x, y)
    for x in range(8):
        assert bl.covers(x) == explicit.covers(x)


def test_diamond_lattice():
    lat = diamond_lattice(3)
    assert lat.n == 5
    assert d_max(lat) == 3
    assert cover_degree(lat, lat.bottom) == 3
    assert not is_distributive(lat)
    assert diamond_lattice(1).n == 3  # degenerates to a 3-chain


def test_distributivity_verdicts():
    assert is_distributive(materialize(boolean_lattice(4)))
    assert is_distributive(boolean_lattice(2))
    assert not is_distributive(pentagon_lattice())
    assert is_distributive(chain_lattice(5))
    assert is_distributive(product_lattice(chain_lattice(2), chain_lattice(3)))


def test_d_max_examples():
    assert d_max(boolean_lattice(5)) == 5
    assert d_max(chain_lattice(7)) == 1
    assert d_max(diamond_lattice(3)) == 3


def test_distinct_joins_on_distributive_catalog():
    # distributivity forces distinct subset joins at every base element
    for lat in catalog(max_size=64):
        if is_distributive(lat):
            for x in lat.elements:
                joins = _subset_joins(lat, x, lat.covers(x))
                assert len(set(joins)) == len(joins), (lat.name, x)


def test_join_meet_axioms_exhaustive():
    for lat in catalog(max_size=64):
        for x, y in itertools.product(lat.elements, repeat=2):
            j = lat.join(x, y)
            m = lat.meet(x, y)
            assert lat.leq(x, j) and lat.leq(y, j)
            assert lat.leq(m, x) and lat.leq(m, y)
            assert j == lat.join(y, x)
            assert m == lat.meet(y, x)
            assert lat.join(x, x) == x and lat.meet(x, x) == x
        for x, y, z in itertools.product(lat.elements, repeat=3):
            assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
            assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))


def test_cover_roundtrip():
    for lat in catalog(max_size=64):
        rebuilt = from_covers(lat.n, lat.cover_pairs())
        assert np.array_equal(rebuilt._leq, materialize(lat)._leq)


def test_product_lattice_order():
    lat = product_lattice(chain_lattice(2), chain_lattice(3))
    assert lat.n == 6
    assert lat.top == 5 and lat.bottom == 0
    # (1,0) join (0,2) = (1,2): indices 3, 2 -> 5
    assert lat.join(3, 2) == 5
    assert lat.meet(3, 2) == 0


def test_catalog_contents():
    small = catalog(max_size=6)
    assert len(small) >= 8
    names = {lat.name for lat in small}
    assert "pentagon" in names and "diamond3" in names and "square" in names
    assert all(lat.n <= 6 for lat in small)


def test_format_roundtrip(tmp_path):
    for lat in catalog(max_size=16):
        text = format_lattice_text(lat)
        back = parse_lattice_text(text)
        assert np.array_equal(back._leq, materialize(lat)._leq)


def test_format_errors():
    with pytest.raises(FormatError) as exc:
        parse_lattice_text("3\n0 1\n1 two\n")
    assert exc.value.line == 3
    for empty in ("", "  \n# nothing\n"):
        with pytest.raises(FormatError, match="empty lattice document") as exc:
            parse_lattice_text(empty)
        assert exc.value.line == 1
    with pytest.raises(FormatError, match="expected 'lower upper'") as exc:
        parse_lattice_text("3\n\n0 1\n1 2 0\n")
    assert exc.value.line == 4
    lat = parse_lattice_text("3  # a chain\n0 1 # lower\n1 2#upper\n")
    assert sorted(lat.cover_pairs()) == [(0, 1), (1, 2)]


# --- the table builders against the algorithms they replaced ------------------


def reference_tables(leq):
    """Per-pair up-set intersection: the AND of two up-set rows is some
    element's up-set row exactly when that element is the unique join (and
    dually for meets).  The cubic loop the cover recursion replaced, kept as
    its oracle; -1 marks a pair without a unique join or meet."""
    n = len(leq)
    up_rows = {leq[i].tobytes(): i for i in range(n)}
    down_rows = {leq[:, i].tobytes(): i for i in range(n)}
    join = np.full((n, n), -1)
    meet = np.full((n, n), -1)
    for i, j in itertools.product(range(n), repeat=2):
        join[i, j] = up_rows.get((leq[i] & leq[j]).tobytes(), -1)
        meet[i, j] = down_rows.get((leq[:, i] & leq[:, j]).tobytes(), -1)
    return join, meet


def reference_covers(leq):
    n = len(leq)
    return tuple(
        tuple(j for j in range(n) if j != i and leq[i, j]
              and not any(k not in (i, j) and leq[i, k] and leq[k, j] for k in range(n)))
        for i in range(n)
    )


def reference_distributive(join, meet):
    """The distributive law a v (b ^ c) = (a v b) ^ (a v c) over all triples."""
    for a in range(len(join)):
        ja = join[a]
        if (ja[meet] != meet[np.ix_(ja, ja)]).any():
            return False
    return True


def random_products(seed, count, max_size=60):
    rng = np.random.default_rng(seed)
    factors = [chain_lattice(2), chain_lattice(3), chain_lattice(4), diamond_lattice(3),
               diamond_lattice(4), pentagon_lattice(), from_covers(4, SQUARE_COVERS)]
    out = []
    while len(out) < count:
        picked = [factors[k] for k in rng.integers(len(factors), size=rng.integers(2, 4))]
        if np.prod([f.n for f in picked]) > max_size:
            continue
        lat = picked[0]
        for f in picked[1:]:
            lat = product_lattice(lat, f)
        out.append(lat)
    return out


def test_tables_match_reference_on_catalog_and_products():
    for lat in catalog() + random_products(3, 12):
        join, meet = reference_tables(lat._leq)
        assert np.array_equal(lat._join, join), lat.name
        assert np.array_equal(lat._meet, meet), lat.name
        assert tuple(lat.covers(x) for x in lat.elements) == reference_covers(lat._leq)
        assert is_distributive(lat) == reference_distributive(join, meet), lat.name


def first_missing_pair(table, size, word):
    """The message naming the first element, in ascending (size, index) order,
    whose row of the reference ``table`` has a -1, with its least such
    partner; ``size`` is the up-set size for joins, the down-set size for
    meets (the meet table is the join table of the reversed order)."""
    x = min((int(s), x) for x, s in enumerate(size) if (table[x] < 0).any())[1]
    i, j = sorted((x, int(np.flatnonzero(table[x] < 0)[0])))
    return f"elements {i} and {j} have no unique {word}"


@st.composite
def cover_documents(draw):
    """Random orders on n <= 10 elements, relabelled, given by their covers."""
    n = draw(st.integers(1, 10))
    perm = draw(st.permutations(range(n)))
    below = list(itertools.combinations(range(n), 2))
    edges = [e for e, keep in zip(below, draw(st.lists(st.booleans(), min_size=len(below),
                                                       max_size=len(below)))) if keep]
    if draw(st.booleans()):  # with a bottom and a top, a missing join has candidates
        edges += [(0, k) for k in range(1, n)] + [(k, n - 1) for k in range(n - 1)]
    leq = np.eye(n, dtype=bool)
    for i, j in edges:
        leq[perm[i], perm[j]] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k])
    return n, leq


@settings(max_examples=300, deadline=None)
@given(cover_documents())
def test_random_cover_documents_match_reference(doc):
    n, leq = doc
    covers = reference_covers(leq)
    pairs = [(x, c) for x in range(n) for c in covers[x]]
    join, meet = reference_tables(leq)
    if (join < 0).any() or (meet < 0).any():
        # joins first; when every join exists, a missing meet means no bottom
        word, table, size = (("join", join, leq.sum(axis=1)) if (join < 0).any()
                             else ("meet", meet, leq.sum(axis=0)))
        assert word == "join" or not leq.all(axis=1).any()
        with pytest.raises(NotALattice) as exc:
            from_covers(n, pairs)
        assert str(exc.value) == first_missing_pair(table, size, word)
    else:
        lat = from_covers(n, pairs)
        assert np.array_equal(lat._leq, leq)
        assert np.array_equal(lat._join, join)
        assert "_meet" not in vars(lat)  # built on first read
        assert np.array_equal(lat._meet, meet) and not lat._meet.flags.writeable
        assert tuple(lat.covers(x) for x in lat.elements) == covers
        assert is_distributive(lat) == reference_distributive(join, meet)


def chain_product_expectations(a, b):
    """Covers, joins and meets of chain(a) x chain(b), element (i, j) = i*b + j."""
    i, j = np.divmod(np.arange(a * b), b)
    covers = tuple(
        tuple(x + step for step, ok in ((1, jj + 1 < b), (b, ii + 1 < a)) if ok)
        for x, (ii, jj) in enumerate(zip(i, j))
    )
    join = np.maximum.outer(i, i) * b + np.maximum.outer(j, j)
    meet = np.minimum.outer(i, i) * b + np.minimum.outer(j, j)
    return covers, join, meet


def test_chain258_by_chain2_tables():
    # more than 255 two-step paths per pair: uint8 path counts wrapped here
    covers, join, meet = chain_product_expectations(258, 2)
    pairs = [(x, c) for x, cs in enumerate(covers) for c in cs]
    for lat in (product_lattice(chain_lattice(258), chain_lattice(2)), from_covers(516, pairs)):
        assert tuple(lat.covers(x) for x in lat.elements) == covers
        assert np.array_equal(lat._join, join) and np.array_equal(lat._meet, meet)
        assert d_max(lat) == 2
        assert is_distributive(lat)


def dense_tables(lat):
    """Order, join and meet tables read pair by pair off a lattice's own
    leq/join/meet, so a Boolean lattice yields its bit-rule tables."""
    els = list(lat.elements)
    return (np.array([[lat.leq(x, y) for y in els] for x in els]),
            np.array([[lat.join(x, y) for y in els] for x in els]),
            np.array([[lat.meet(x, y) for y in els] for x in els]))


PRODUCT_FACTORS = catalog(max_size=5) + [boolean_lattice(2)]


@pytest.mark.parametrize("a, b", itertools.product(PRODUCT_FACTORS, repeat=2), ids=lambda lat: lat.name)
def test_product_tables_are_componentwise(a, b):
    """Element (i, j) is i*b.n + j: it lies below (k, l) when i <= k and
    j <= l, joins and meets act on each coordinate, and its covers raise one
    coordinate along a cover of that factor."""
    lat = product_lattice(a, b)
    (a_leq, a_join, a_meet), (b_leq, b_join, b_meet) = dense_tables(a), dense_tables(b)
    m = b.n
    i, j = np.divmod(np.arange(a.n * m), m)
    assert np.array_equal(lat._leq, a_leq[np.ix_(i, i)] & b_leq[np.ix_(j, j)])
    assert np.array_equal(lat._join, a_join[np.ix_(i, i)] * m + b_join[np.ix_(j, j)])
    assert np.array_equal(lat._meet, a_meet[np.ix_(i, i)] * m + b_meet[np.ix_(j, j)])
    covers = tuple(tuple(sorted([c * m + jj for c in a.covers(ii)] + [ii * m + c for c in b.covers(jj)]))
                   for ii, jj in zip(i.tolist(), j.tolist()))
    assert tuple(lat.covers(x) for x in lat.elements) == covers
    assert (lat.bottom, lat.top) == (a.bottom * m + b.bottom, a.top * m + b.top)


def test_diamond1_is_the_three_chain():
    lat, chain = diamond_lattice(1), chain_lattice(3)
    assert lat.name == "diamond1"
    assert lat.cover_pairs() == chain.cover_pairs() == [(0, 1), (1, 2)]
    for table in ("_leq", "_join", "_meet"):
        assert np.array_equal(getattr(lat, table), getattr(chain, table))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: chain_lattice(10**9), "1000000000 elements exceeds cap 4096"),
        (lambda: diamond_lattice(10**9), "1000000002 elements exceeds cap 4096"),
        (lambda: product_lattice(boolean_lattice(20), chain_lattice(2)), "2097152 elements exceeds cap 4096"),
        (lambda: materialize(boolean_lattice(13)), "boolean lattice too large to materialize"),
    ],
    ids=["chain", "diamond", "product", "materialize"],
)
def test_over_cap_constructors_fail_before_allocating(build, message):
    # the cap is checked before a single cover pair is listed
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded) as exc:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 2**20, peak


def _implied_pairs(n, pairs):
    """Declared pairs (lower, upper) whose upper lies above another declared
    cover of lower, from the transitive closure of the pairs."""
    reach = np.eye(n, dtype=bool)
    for lower, upper in pairs:
        reach[lower, upper] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k])
    above = {}
    for lower, upper in pairs:
        above.setdefault(lower, set()).add(upper)
    return {(lower, upper) for lower, covs in above.items() for upper in covs
            if any(reach[c, upper] for c in covs - {upper})}


def test_non_cover_edges_match_the_implied_edge_set():
    """Relabelled lattices given by their covers plus some implied and some
    repeated pairs: from_covers names the first implied pair in document order,
    and builds the lattice when there is none."""
    rng = random.Random(29)
    lattices = catalog() + random_products(5, 20)
    seen = {True: 0, False: 0}
    for _ in range(300):
        lat = rng.choice(lattices)
        n = lat.n
        perm = list(range(n))
        rng.shuffle(perm)
        covers = [(perm[x], perm[y]) for x, y in lat.cover_pairs()]
        longer = [(perm[x], perm[y]) for x in lat.elements for y in lat.elements
                  if lat.leq(x, y) and y != x and y not in lat.covers(x)]
        doc = covers + rng.sample(covers, min(len(covers), rng.randint(0, 2)))
        doc += rng.sample(longer, min(len(longer), rng.choice([0, 0, 1, 2])))
        rng.shuffle(doc)
        implied = _implied_pairs(n, doc)
        first = next((pair for pair in doc if pair in implied), None)
        seen[first is None] += 1
        if first is None:
            assert sorted(from_covers(n, doc).cover_pairs()) == sorted(covers)
        else:
            with pytest.raises(NonCoverEdge) as exc:
                from_covers(n, doc)
            assert str(exc.value) == f"pair {first} is implied transitively"
    assert min(seen.values()) > 50


def test_cover_document_checks_hold_under_optimize(run_optimized):
    """The closure, join and bottom checks of from_covers are not asserts:
    under ``python -O`` each bad document still raises its typed error."""
    script = """
import sys
from cmlat.errors import CyclicCovers, NonCoverEdge, NotALattice
from cmlat.lattice import from_covers

if sys.flags.optimize != 1:
    sys.exit("not running under -O")
for n, pairs in [(3, [(0, 1), (1, 2), (2, 0)]), (4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
                 (3, [(0, 2), (1, 2)]), (3, [(0, 1), (1, 2), (0, 2)])]:
    try:
        from_covers(n, pairs)
    except (CyclicCovers, NotALattice, NonCoverEdge) as exc:
        print(f"{type(exc).__name__}: {exc}")
    else:
        print("built")
"""
    proc = run_optimized(script)
    assert proc.stdout.splitlines() == [
        "CyclicCovers: cover relation is cyclic through 0 and 1",
        "NotALattice: elements 2 and 3 have no unique join",
        "NotALattice: elements 0 and 1 have no unique meet",
        "NonCoverEdge: pair (0, 2) is implied transitively",
    ], proc.stderr


def test_boolean12_cover_document_build_peak():
    # the meet table waits for its first read, so the build holds the order
    # and join tables (16 + 64 MiB) and the closure's bitsets
    pairs = boolean_lattice(12).cover_pairs()
    tracemalloc.start()
    try:
        lat = from_covers(1 << 12, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "_meet" not in vars(lat) and lat.bottom == 0 and lat.top == 4095
    assert peak <= 120 * 2**20, peak / 2**20


# --- int16 tables and blocked distributivity ---------------------------------

def least_bounds(leq):
    """least[x, y]: the upper bound of x and y (under ``leq``) that lies below
    every other upper bound; pass the transposed order for greatest lower
    bounds."""
    n = len(leq)
    least = np.full((n, n), -1)
    for x in range(n):
        ub = leq[x] & leq  # ub[y, z]: z lies above x and y
        # z is least when no upper bound w of x and y fails to lie above it
        is_least = ub & ~(ub[:, None, :] & ~leq[None, :, :]).any(axis=2)
        assert (is_least.sum(axis=1) == 1).all()
        least[x] = is_least.argmax(axis=1)
    return least


@st.composite
def closure_lattices(draw):
    """The closed sets of a random closure system on up to 6 points (a family
    of subsets closed under intersection, the full set included) ordered by
    inclusion, in random labels: lattices of up to 64 elements."""
    full = (1 << draw(st.integers(1, 6))) - 1
    rng = draw(st.randoms(use_true_random=False))
    closed = {full}
    for _ in range(rng.randint(0, 24)):
        generator = rng.randint(0, full)
        closed |= {generator & c for c in closed}
    sets = np.array(draw(st.permutations(sorted(closed))))
    strict = (sets[:, None] & sets[None, :] == sets[:, None]) & (sets[:, None] != sets[None, :])
    below = strict.astype(np.int64)
    covers = strict & (below @ below == 0)
    return from_covers(len(sets), [tuple(pair) for pair in np.argwhere(covers).tolist()])


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(catalog()), closure_lattices()), st.integers(1, 1 << 10))
def test_tables_are_least_bounds_and_distributivity_is_the_triple_identity(lat, block_bytes):
    join, meet = least_bounds(lat._leq), least_bounds(lat._leq.T)
    assert np.array_equal(lat._join, join) and np.array_equal(lat._meet, meet)
    assert lat._join.dtype == lat._meet.dtype == INDEX_DTYPE
    # x ^ (y v z) = (x ^ y) v (x ^ z) for all x, y, z
    identity = np.array_equal(meet[:, join], join[meet[:, :, None], meet[:, None, :]])
    # blocks down to one row, so repeats fall in every block position
    with mock.patch.object(lattice_module, "DISTRIBUTIVE_BLOCK_BYTES", block_bytes):
        assert is_distributive(lat) == identity


def test_a_repeat_past_the_first_row_block_is_found():
    # M3 above a chain, top labelled 0 and the chain 1..k, its atoms labelled
    # last: only the atoms' rows repeat a key, and they lie in the last block
    n = 300
    k = n - 4
    atoms = range(k + 1, n)
    pairs = [(i, i + 1) for i in range(1, k)] + [p for a in atoms for p in ((k, a), (a, 0))]
    lat = from_covers(n, pairs)
    rows = DISTRIBUTIVE_BLOCK_BYTES // (4 * n)
    assert min(atoms) // rows == (n - 1) // rows > 0
    keys = lat._join.astype(np.int64) * n + lat._meet
    repeats = [x for x in lat.elements if len(set(keys[x].tolist())) < n]
    assert repeats == list(atoms)
    assert not is_distributive(lat)


def test_table_dtype_is_derived_from_the_cap():
    assert INDEX_DTYPE == np.min_scalar_type(-GENERAL_SIZE_CAP) == np.int16
    lat = pentagon_lattice()
    assert lat._join.dtype == lat._meet.dtype == np.int16


@pytest.mark.parametrize("cap", [4096, 32767, 32768, 10**5])
def test_a_cap_past_the_table_keys_fails_at_import(cap):
    # int16 indices and int32 keys hold caps up to 32767
    source = pathlib.Path(lattice_module.__file__).read_text(encoding="utf-8")
    assert source.count("GENERAL_SIZE_CAP = 4096\n") == 1
    module = types.ModuleType("cmlat._lattice_with_cap")
    module.__package__ = "cmlat"
    code = compile(source.replace("GENERAL_SIZE_CAP = 4096\n", f"GENERAL_SIZE_CAP = {cap}\n"),
                   lattice_module.__file__, "exec")
    if cap <= 32767:
        exec(code, module.__dict__)
        assert module.INDEX_DTYPE == np.int16
    else:
        with pytest.raises(InvariantViolation, match=f"cap {cap} overflows"):
            exec(code, module.__dict__)


def test_tables_at_the_cap_stay_within_90_mib():
    # v^2 bytes of order, 2 v^2 of join and 2 v^2 of meet: 80 MiB at 4096
    tracemalloc.start()
    try:
        lat = chain_lattice(GENERAL_SIZE_CAP)
        assert is_distributive(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * 2**20, peak / 2**20
    assert lat._join.dtype == INDEX_DTYPE and lat._join[0, -1] == GENERAL_SIZE_CAP - 1
