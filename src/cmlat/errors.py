"""Exception hierarchy shared by all cmlat modules, and the one line reader of
the text documents whose errors it reports."""


class CmlatError(Exception):
    """Base class for every error raised by this library."""


# --- lattice construction -------------------------------------------------

class NotALattice(CmlatError):
    """The input order has a pair of elements without a unique lub or glb."""


class CyclicCovers(CmlatError):
    """The declared cover relation contains a cycle."""


class NonCoverEdge(CmlatError):
    """A declared cover pair is already implied transitively."""


class SizeLimitExceeded(CmlatError):
    """The requested object exceeds the supported size caps."""


class ElementOutOfRange(CmlatError):
    """An element index does not belong to the lattice or ground set."""


class BudgetExceeded(CmlatError):
    """An exhaustive sweep would exceed its evaluation budget."""


# --- functions on lattices ------------------------------------------------

class NegativeValue(CmlatError):
    """A reconstructed function has a negative value and is not admissible."""


class NotCmInput(CmlatError):
    """An operation requiring a completely monotone input got one that is not."""


class NotDistributive(CmlatError):
    """The operation is only defined on distributive lattices."""


class NoSharpnessNeeded(CmlatError):
    """The power threshold is vacuous (chain lattice), so no witness exists."""


class NotASublattice(CmlatError):
    """The given subset is not closed under the host lattice's join and meet."""


class ValueOutOfUnitInterval(CmlatError):
    """Function values must lie in [0, 1] for this operation."""


class ChainLattice(CmlatError):
    """The lattice is a chain; the approximation question degenerates."""


# --- random subsets -------------------------------------------------------

class NotAVoidFunctional(CmlatError):
    """Mobius inversion produced a negative mass; V is not a void functional.

    ``witness`` holds the offending subset mask, ``mass`` its value.
    """

    def __init__(self, message, witness=None, mass=None):
        super().__init__(message)
        self.witness = witness
        self.mass = mass


class InvalidProbabilityVector(CmlatError):
    """Entries must be positive and sum to one."""


class GroundSetMismatch(CmlatError):
    """Two random subsets live on different ground sets."""


# --- scans and searches ---------------------------------------------------

class DomainViolation(CmlatError):
    """An argument lies outside the mathematical domain of the map."""


class SearchFailed(CmlatError):
    """A certified search exhausted its budget; parameters are reported.

    ``params`` carries the search state at the point of failure.
    """

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = params or {}


class InvariantViolation(CmlatError):
    """An internal invariant failed: a defect of this library, not of the input."""


def _ensure(cond, message):
    """Raise InvariantViolation(message) unless ``cond``; unlike ``assert``,
    the check also runs under ``python -O``."""
    if not cond:
        raise InvariantViolation(message)


class SearchBudgetExceeded(CmlatError):
    """An order sweep hit its cap without finding the sought certificate."""


class InsufficientLength(CmlatError):
    """The sequence is too short for the requested matrix order."""


# --- file formats ---------------------------------------------------------

class FormatError(CmlatError):
    """A text exchange document is malformed; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _read_document(text, document, record, types, count=None):
    """Yield a text document's header, then its parsed two-field records.

    A '#' starts a comment and blank lines are skipped.  The first item is
    ``(line number, header)``: the header line, or, when ``count`` names it,
    the lone integer the header must hold.  Each later line must hold two
    fields, named by ``record`` in the error, and yields ``(line number,
    (first, second))`` converted by the pair of callables ``types``; a
    conversion's ValueError or ZeroDivisionError is a FormatError at that
    line.  A document without a header is "empty", at line 1.
    Records are parsed as they are consumed, so the caller's own checks
    report the first bad line.
    """
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not header:
            header = True
            if count is None:
                yield lineno, line
                continue
            if len(fields) != 1:
                raise FormatError(f"expected the {count} alone", line=lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise FormatError(f"bad {count} {fields[0]!r}", line=lineno) from None
            yield lineno, n
            continue
        if len(fields) != 2:
            raise FormatError(f"expected {record}", line=lineno)
        try:
            value = (types[0](fields[0]), types[1](fields[1]))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad entry {line!r}", line=lineno) from None
        yield lineno, value
    if not header:
        raise FormatError(f"empty {document} document", line=1)
