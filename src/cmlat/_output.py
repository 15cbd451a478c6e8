"""The JSON text of the CLI's output documents, streamed in bounded chunks.

:func:`write` writes the text that the standard library's ``json.dumps``
gives with sorted keys, a two-space indent and ``allow_nan=False``, for the
document with every key made ``str``, every Fraction made its ``str``, every
NaN made the string "nan" and every :class:`MaskTable` made its dict per
mask.  :func:`layout` first encodes every part of the document but its mask
tables, and checks those tables on their dense arrays, so an infinite float
raises ValueError before anything is written.  A mask table (a megabyte
table is the bulk of a randset document) is then written straight from its
dense arrays, ``randset.CHUNK_ROWS`` rows at a time: only one chunk's texts
exist at once.

The CLI imports this module when it emits, after the command's work.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np


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
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        return f'"{value}"'
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def string_order(masks) -> np.ndarray:
    """The indices that put nonnegative integer ``masks`` in the order of
    their decimal strings, computed on the integers: each mask's digits are
    left-aligned to the widest mask's, and a tie (a prefix padded with
    zeros) goes to the shorter string."""
    masks = np.asarray(masks, dtype=np.int64)
    digits = np.ones(len(masks), dtype=np.int64)
    width, power, top = 1, 10, masks.max(initial=0)
    while power <= top:
        digits += masks >= power
        width, power = width + 1, power * 10
    aligned = masks * 10 ** (width - digits)
    return np.lexsort((digits, aligned))


def _fraction_texts(nums, den) -> list:
    """The quoted ``str`` of each Fraction num/den (den > 0)."""
    texts = []
    for num in nums:
        g = math.gcd(num, den)
        texts.append(f'"{num // g}"' if g == den else f'"{num // g}/{den // g}"')
    return texts


class MaskTable:
    """A table over subset masks of [n]: in JSON, ``{"<mask>": {"mask",
    "set", <column>}}`` with the keys in string order.

    ``masks`` is an int array; ``values`` is the dense array of one value per
    mask, float64, or integer numerators over ``den``.  ``column`` is
    "probability" or "value".
    """

    def __init__(self, n, masks, column, values, den=None):
        self.n, self.column, self.den = n, column, den
        self.masks = np.asarray(masks, dtype=np.int64)
        self.values = np.asarray(values, dtype=float if den is None else None)

    def check(self):
        """Raise ValueError, as the JSON encoder would, at the first infinite
        value in row order."""
        if self.den is None:
            bad = np.flatnonzero(np.isinf(self.values))
            if bad.size:
                first = bad[string_order(self.masks[bad])[0]]
                raise _infinity_error(float(self.values[first]))

    def chunks(self, order=None):
        """The texts of mask, set (unquoted) and value, one chunk of rows at a
        time, in the order of the row indices ``order`` (default: as given)."""
        from .randset import CHUNK_ROWS, mask_set_texts

        sets = mask_set_texts(self.n)
        for start in range(0, len(self.masks), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS) if order is None else order[start:start + CHUNK_ROWS]
            masks, values = self.masks[rows].tolist(), self.values[rows]
            if self.den is None:
                texts = list(map(float.__repr__, values.tolist()))
                for i in np.flatnonzero(np.isnan(values)):  # NaN is not valid strict JSON
                    texts[i] = '"nan"'
            else:
                texts = _fraction_texts(values.tolist(), self.den)
            yield list(map(str, masks)), sets(masks), texts

    def rows(self):
        """The (mask, set, value) texts of each row, in the order given."""
        for columns in self.chunks():
            yield from zip(*columns)

    def pieces(self, pad):
        """The JSON text of the table nested at ``pad``, as :func:`_encode`
        would write the dicts, one piece per chunk."""
        if not self.masks.size:
            yield "{}"
            return
        inner = pad + "  "
        fields = sorted([("mask", "%s"), ("set", '"%s"'), (self.column, "%s")])
        field_text = ",".join(f'\n{inner}  "{name}": {spec}' for name, spec in fields)
        template = f',\n{inner}"%s": {{{field_text}\n{inner}}}'
        sep = "{"
        for keys, sets, values in self.chunks(string_order(self.masks)):
            columns = {"mask": keys, "set": sets, self.column: values}
            text = "".join([template % row for row in zip(keys, *(columns[name] for name, _ in fields))])
            yield sep + text[1:]
            sep = ","
        yield f"\n{pad}}}"


def _encode(obj, pad, out):
    """Append the JSON text of ``obj``, nested at indentation ``pad``, to
    ``out``: two-space indent, keys as ``str`` in sorted order, tuples as
    lists, strings ASCII-escaped; a checked mask table is appended as
    ``(table, pad)``."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{"
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            out.append(f"{sep}\n{inner}{encode_basestring_ascii(key)}: ")
            _encode(value, inner, out)
            sep = ","
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "["
        for value in obj:
            out.append(f"{sep}\n{inner}")
            _encode(value, inner, out)
            sep = ","
        out.append(f"\n{pad}]")
    elif isinstance(obj, MaskTable):
        obj.check()
        out.append((obj, pad))
    else:
        out.append(_scalar_text(obj))


def layout(doc) -> list:
    """The pieces of the JSON text of ``doc`` and a final newline: texts,
    each run of them joined, and the mask tables still to be streamed.
    Raises ValueError at an infinite float anywhere in ``doc``."""
    out, pieces, texts = [], [], []
    _encode(doc, "", out)
    for piece in out:
        if isinstance(piece, str):
            texts.append(piece)
        else:
            pieces += ["".join(texts), piece]
            texts = []
    texts.append("\n")
    return [*pieces, "".join(texts)]


def write(pieces, fh):
    """Write the pieces of :func:`layout` to ``fh``, each mask table by chunks."""
    for piece in pieces:
        if isinstance(piece, str):  # in slices: no encoded copy of a whole text exists
            step = io.DEFAULT_BUFFER_SIZE
            fh.writelines(piece[i:i + step] for i in range(0, len(piece), step))
        else:
            table, pad = piece
            for text in table.pieces(pad):
                fh.write(text)
