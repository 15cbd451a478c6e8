"""The random-subset maps own their working table.

`power_exists`, `union_iid`, `poisson_union`, `from_void` and
`void_functional` work in a copy of their argument's table, which they must
leave byte for byte as it was.  The `randset power-exists`, `union` and
`poisson` commands run the same maps in the parsed law's own table; their
documents must equal the ones built from the public functions' results.
"""

import contextlib
import io
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import cli
from cmlat.cli import main
from cmlat.errors import CmlatError
from cmlat.randset import (
    MASS_TOL,
    RandomSubset,
    from_void,
    poisson_union,
    power_exists,
    read_distribution_file,
    union_iid,
    void_functional,
    write_distribution_file,
)


@st.composite
def laws(draw):
    """A float or exact law on at most 8 points, on a random support."""
    n = draw(st.integers(1, 8))
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    masses = [0] * (1 << n)
    for mask, w in zip(support, weights):
        masses[mask] = Fraction(w, total)
    if draw(st.booleans()):
        masses = [float(p) for p in masses]
        masses[support[0]] += 1.0 - sum(masses)  # within SUM_TOL of 1 either way
    return RandomSubset(n, masses)


ALPHAS = st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 6.25])
MS = st.sampled_from([1, 2, 3])
LAMS = st.sampled_from([0.25, 1.0, 2.5, 40.0])


def _snapshot(table):
    d = table._dense
    return d.den, d.values.dtype, d.values.tobytes() if d.values.dtype != object else d.values.tolist()


@settings(max_examples=60, deadline=None)
@given(laws(), ALPHAS, MS, LAMS)
def test_public_maps_leave_their_argument_as_it_was(x, alpha, m, lam):
    before = _snapshot(x)
    v = void_functional(x)
    results = [v, power_exists(x, alpha), union_iid(x, m)]
    try:
        results.append(poisson_union(x, lam))
    except CmlatError:  # rounding below -MASS_TOL: a typed refusal, after the same work
        pass
    assert _snapshot(x) == before
    v_before = _snapshot(v)
    results.append(from_void(v))
    assert _snapshot(v) == v_before
    for result in results[1:]:
        assert not np.shares_memory(result._dense.values, x._dense.values)
    assert not np.shares_memory(results[-1]._dense.values, v._dense.values)


def _stdout(run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run()
    return code, out.getvalue()


def _expected(command, config, build):
    """The exit code and document of ``command`` built from ``build()``, a
    result and an exit code computed by the public functions; a typed error
    is exit code 2 with nothing on stdout."""
    try:
        result, code = build()
    except CmlatError:
        return 2, ""
    doc = {"command": f"randset {command}", "config": config, "result": result}
    return code, _stdout(lambda: cli._emit(doc, None))[1]


def _power_result(x, alpha):
    verdict = power_exists(x, alpha)
    result = {"exists": verdict.exists, "alpha": alpha, "min_q": verdict.min_q, "boundary": verdict.boundary}
    if verdict.witness is not None:
        result["witness"] = {**cli._mask_doc(verdict.witness, x.n), "q": verdict.min_q}
    result["q"] = cli._mask_table(x.n, "value", verdict._dense)  # n <= 10: every q is listed
    return result, 0 if verdict.exists else 1


@settings(max_examples=40, deadline=None)
@given(laws(), ALPHAS, MS, LAMS)
def test_commands_print_the_documents_of_the_public_maps(tmp_path_factory, x, alpha, m, lam):
    path = str(tmp_path_factory.mktemp("law") / "law.dist")
    write_distribution_file(x, path)
    law = read_distribution_file(path)  # the law the command parses: the same masses, maybe exact
    cases = [
        (["power-exists", "--alpha", repr(alpha)], {"alpha": repr(alpha), "tol": MASS_TOL},
         lambda: _power_result(law, alpha)),
        (["union", "--m", str(m)], {"m": m},
         lambda: ({"distribution": cli._distribution_doc(union_iid(law, m))}, 0)),
        (["poisson", "--lam", repr(lam)], {"lam": lam},
         lambda: ({"distribution": cli._distribution_doc(poisson_union(law, lam))}, 0)),
    ]
    for (command, *options), config, build in cases:
        got = _stdout(lambda: main(["randset", command, "--dist", path, *options]))
        assert got == _expected(command, config, build)
