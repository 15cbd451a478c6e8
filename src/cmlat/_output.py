"""The JSON text of the CLI's output documents.

:func:`encode` gives the text that the standard library's ``json.dumps``
gives with sorted keys, a two-space indent and ``allow_nan=False``, for the
document with every key made ``str``, every Fraction made its ``str``, every
NaN made the string "nan" and every :class:`MaskTable` made its dict per
mask.  An infinite float raises ValueError.  The standard library uses its
pure-Python encoder whenever an indent is set, and a megabyte mask table is
the bulk of a randset document, so the tables are written row by row from
a template instead.

The CLI imports this module when it emits, after the command's work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii


def _scalar_text(value) -> str:
    """JSON text of a leaf value: a Fraction is its quoted ``str``, NaN the
    string "nan"; an infinite float raises ValueError."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:  # NaN is not valid strict JSON
            return '"nan"'
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
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


class MaskTable:
    """A table over subset masks of [n]: in JSON, ``{"<mask>": {"mask",
    "set", <column>}}`` with the keys in string order.

    ``column`` is "probability" or "value", and ``values`` holds one value
    per mask.  The rows are written from one template, each text made once.
    """

    def __init__(self, n, masks, column, values):
        self.n, self.masks, self.column, self.values = n, masks, column, values
        self._texts = None

    @property
    def texts(self):
        """The JSON texts of mask, set (unquoted) and value, in mask order."""
        if self._texts is None:
            from .randset import mask_sets

            self._texts = (list(map(str, self.masks)), mask_sets(self.masks, self.n),
                           [_scalar_text(v) for v in self.values])
        return self._texts

    def append_rows(self, pad, out):
        """Append the rows to ``out`` as :func:`_encode` would the dicts."""
        if not self.masks:
            out.append("{}")
            return
        inner = pad + "  "
        keys, sets, values = self.texts
        fields = sorted([("mask", "%s"), ("set", '"%s"'), (self.column, "%s")])
        field_text = ",".join(f'\n{inner}  "{name}": {spec}' for name, spec in fields)
        template = f',\n{inner}"%s": {{{field_text}\n{inner}}}'
        columns = {"mask": keys, "set": sets, self.column: values}
        rows = sorted(zip(keys, *(columns[name] for name, _ in fields)))  # keys are unique
        pieces = [template % row for row in rows]
        pieces[0] = "{" + pieces[0][1:]
        out.extend(pieces)
        out.append(f"\n{pad}}}")


def _encode(obj, pad, out):
    """Append the JSON text of ``obj``, nested at indentation ``pad``, to
    ``out``: two-space indent, keys as ``str`` in sorted order, tuples as
    lists, strings ASCII-escaped."""
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
        obj.append_rows(pad, out)
    else:
        out.append(_scalar_text(obj))


def encode(doc) -> str:
    """The JSON text of ``doc`` and a final newline, joined once."""
    out = []
    _encode(doc, "", out)
    out.append("\n")
    return "".join(out)
