"""The JSON text of the CLI's output documents, streamed in bounded chunks.

:func:`write` writes the text that the standard library's ``json.dumps``
gives with sorted keys, a two-space indent and ``allow_nan=False``, for the
document with every key made ``str``, every Fraction made its ``str``, every
NaN made the string "nan", every :class:`ValueList` made its list and every
:class:`MaskTable` made its dict per mask.  :func:`layout` first encodes
every other part of the document, and checks those tables on their dense
arrays, so an infinite float raises ValueError before anything is written.
Each table (the bulk of a randset or cm document) is then written straight
from its dense arrays, ``CHUNK_ROWS`` rows at a time: only one chunk's texts
exist at once.

The CLI imports this module when it emits, after the command's work; numpy
is imported only where a table is encoded, so a document without one (the
1/m report of `approx psi`) loads no numpy.
"""

from __future__ import annotations

import io
import itertools
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii


def _infinity_error(value) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _scalar_text(value) -> str:
    """JSON text of a leaf value: a Fraction is its quoted ``str``, NaN the
    string "nan"; an infinite float raises ValueError."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:  # NaN is not valid strict JSON
            return '"nan"'
        raise _infinity_error(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        return f'"{value}"'
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def string_order(masks) -> np.ndarray:
    """The indices that put nonnegative integer ``masks`` in the order of
    their decimal strings, computed on the integers: each mask's digits are
    left-aligned to the widest mask's, and a tie (a prefix padded with
    zeros) goes to the shorter string.  The sort key, aligned * 8 + digit
    count - 1, is the one int64 temporary, built in place from the widest
    power of ten down."""
    import numpy as np

    masks = np.asarray(masks, dtype=np.int64)
    key = masks * 8
    power = 10 ** (len(str(masks.max(initial=0))) - 1)
    while power > 1:
        np.multiply(key, 10, out=key, where=masks < power)
        key += masks >= power
        power //= 10
    return np.argsort(key, kind="stable")


def _value_texts(values, den) -> list:
    """The JSON texts of dense values: each float's repr, NaN as "nan", or
    the quoted ``str`` of each Fraction num/den (den > 0)."""
    if den is None:
        texts = list(map(float.__repr__, values.tolist()))
        if "nan" in texts:  # NaN is not valid strict JSON
            texts = ['"nan"' if t == "nan" else t for t in texts]
        return texts
    return [f'"{num // g}"' if (g := math.gcd(num, den)) == den else f'"{num // g}/{den // g}"'
            for num in values.tolist()]


class ValueList:
    """A list of values: in JSON, a list of floats or Fraction strings.
    ``values`` is a dense array, float64, or integer numerators over ``den``."""

    _BRACKETS = "[]"

    def __init__(self, values, den=None):
        import numpy as np

        self.den = den
        self.values = np.asarray(values, dtype=float if den is None else None)

    def _first(self, rows):
        return rows[0]

    def check(self):
        """Raise ValueError, as the JSON encoder would, at the first infinite
        value in the order written."""
        import numpy as np

        values = self.values
        if self.den is None and values.size and not -math.inf < values.min() <= values.max() < math.inf:
            bad = np.flatnonzero(np.isinf(values))  # min and max are NaN when a NaN is present
            if bad.size:
                raise _infinity_error(float(values[self._first(bad)]))

    def _texts(self, inner):
        """The text of each entry nested at ``inner``, a list per chunk."""
        from ._kernel import CHUNK_ROWS

        for start in range(0, len(self.values), CHUNK_ROWS):
            yield [f"\n{inner}{t}" for t in _value_texts(self.values[start:start + CHUNK_ROWS], self.den)]

    def pieces(self, pad):
        """The JSON text nested at ``pad``, as :func:`_encode` would write
        it, one piece per chunk."""
        sep = self._BRACKETS[0]
        for texts in self._texts(pad + "  "):
            yield sep + ",".join(texts)
            sep = ","
        yield f"\n{pad}{self._BRACKETS[1]}" if sep == "," else self._BRACKETS


class MaskTable(ValueList):
    """A table over subset masks of [n]: in JSON, ``{"<mask>": {"mask",
    "set", <column>}}`` with the keys in string order.  ``masks`` is an int
    array, ``values`` one value per mask as in a :class:`ValueList`, and
    ``column`` "probability" or "value"."""

    _BRACKETS = "{}"

    def __init__(self, n, masks, column, values, den=None):
        import numpy as np

        super().__init__(values, den)
        self.n, self.column = n, column
        self.masks = np.asarray(masks, dtype=np.int64)

    def _first(self, rows):
        return rows[string_order(self.masks[rows])[0]]

    def chunks(self, order=None):
        """The texts of mask, set (unquoted) and value, one chunk of rows at a
        time, in the order of the row indices ``order`` (default: as given)."""
        from .randset import CHUNK_ROWS, mask_set_texts

        sets = mask_set_texts(self.n)
        for start in range(0, len(self.masks), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS) if order is None else order[start:start + CHUNK_ROWS]
            masks = self.masks[rows].tolist()
            yield list(map(str, masks)), sets(masks), _value_texts(self.values[rows], self.den)

    def rows(self):
        """The (mask, set, value) texts of each row, in the order given."""
        for columns in self.chunks():
            yield from zip(*columns)

    def _texts(self, inner):
        """The text of each row's dict nested at ``inner``, in string order."""
        fields = sorted([("mask", "%s"), ("set", '"%s"'), (self.column, "%s")])
        field_text = ",".join(f'\n{inner}  "{name}": {spec}' for name, spec in fields)
        template = f'\n{inner}"%s": {{{field_text}\n{inner}}}'
        for keys, sets, values in self.chunks(string_order(self.masks)):
            columns = {"mask": keys, "set": sets, self.column: values}
            yield [template % row for row in zip(keys, *(columns[name] for name, _ in fields))]


def _encode(obj, pad, out):
    """Append the JSON text of ``obj``, nested at indentation ``pad``, to
    ``out``: two-space indent, keys as ``str`` in sorted order, tuples as
    lists, strings ASCII-escaped; a checked :class:`ValueList` or mask table
    is appended as ``(table, pad)``."""
    if isinstance(obj, (dict, list, tuple)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if isinstance(obj, dict):
            items = sorted({str(k): v for k, v in obj.items()}.items())
            items = [(f"{encode_basestring_ascii(key)}: ", value) for key, value in items]
        else:
            items = [("", value) for value in obj]
        inner, sep = pad + "  ", brackets[0]
        for prefix, value in items:
            out.append(f"{sep}\n{inner}{prefix}")
            _encode(value, inner, out)
            sep = ","
        out.append(f"\n{pad}{brackets[1]}" if items else brackets)
    elif isinstance(obj, ValueList):
        obj.check()
        out.append((obj, pad))
    else:
        out.append(_scalar_text(obj))


def layout(doc) -> list:
    """The pieces of the JSON text of ``doc`` and a final newline: texts,
    each run of them joined, and the tables still to be streamed.
    Raises ValueError at an infinite float anywhere in ``doc``."""
    out, pieces = [], []
    _encode(doc, "", out)
    out.append("\n")
    for text, run in itertools.groupby(out, lambda piece: isinstance(piece, str)):
        pieces += ["".join(run)] if text else run
    return pieces


def write(pieces, fh):
    """Write the pieces of :func:`layout` to ``fh``, each table by chunks."""
    for piece in pieces:
        if isinstance(piece, str):  # in slices: no encoded copy of a whole text exists
            step = io.DEFAULT_BUFFER_SIZE
            fh.writelines(piece[i:i + step] for i in range(0, len(piece), step))
        else:
            table, pad = piece
            fh.writelines(table.pieces(pad))
