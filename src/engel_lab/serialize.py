"""Deterministic JSON/CSV emission.

Floats are rendered with 17 significant digits so identical runs produce
byte-identical artifacts; numpy scalars and arrays are converted on the way
out.  JSON artifacts are strict JSON: NaN and +-inf become ``null`` and
strings are escaped as the standard library does.  Key order is the
insertion order of the dicts we build, which is fixed by construction.

Arrays are written in one ``%`` call each.  One helper gives the format
and the values of an array: ``%.17g`` and the floats when every value is a
finite float (``"%.17g" % x`` and ``format(x, ".17g")`` are the same CPython
routine), ``%d`` and the ints for an integer array, and otherwise ``%s`` with
the text of each value, which spells NaN and +-inf ``null`` in JSON and
``NaN``/``Infinity``/``-Infinity`` in CSV.  A JSON array is a template with
one format per element, nested as the array's shape; a CSV file repeats one
row template of its column formats.

A :class:`Records` table (field name -> array whose first axis is the row)
is written as the JSON list of per-row objects, in one ``%`` call as well:
one row template from the formats of its columns (nested ``[...]`` for a
column with more axes), repeated once per row and applied to the column
values interleaved row by row.  The text is the same as that of the list of
per-row dicts of Python scalars, so no per-row dict is ever built.
"""
from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring

import numpy as np

SCHEMA_VERSION = 3

def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _array_template(shape: tuple, fmt: str) -> str:
    """``%``-template writing an array of ``shape`` as nested JSON lists."""
    t = fmt
    for n in reversed(shape):
        t = "[" + ", ".join([t] * n) + "]"
    return t


class Records:
    """A table written as a JSON list of objects, one object per row.

    ``columns`` maps each field name, in output order, to an array whose
    first axis is the row; every column has the same number of rows.
    """

    def __init__(self, columns: dict):
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal length: {sorted(lengths)}")
        self.n = lengths.pop() if lengths else 0


def _formatted(a: np.ndarray, text) -> tuple:
    """``(format, values)`` writing the values of ``a`` in C order:
    ``%.17g`` and the floats if all are finite floats, ``%d`` and the ints
    for an integer array, otherwise ``%s`` and ``text`` of each value."""
    values = a.ravel().tolist()
    if a.dtype.kind == "f" and np.isfinite(a).all():
        return "%.17g", values
    if a.dtype.kind in "iu":
        return "%d", values
    return "%s", [text(x) for x in values]


def _dumps_records(r: Records) -> str:
    if not r.n:
        return "[]"
    pieces, slots = [], []
    for k, a in r.columns.items():
        fmt, values = _formatted(a, dumps_canonical)
        key = encode_basestring(str(k)).replace("%", "%%")
        pieces.append(f"{key}: {_array_template(a.shape[1:], fmt)}")
        # one list of values per position in a row
        m = math.prod(a.shape[1:])
        slots += [values[j::m] for j in range(m)]
    row = "{" + ", ".join(pieces) + "}"
    return ("[" + ", ".join([row] * r.n) + "]") % tuple(chain.from_iterable(zip(*slots)))


def dumps_canonical(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, np.ndarray):
        fmt, values = _formatted(obj, dumps_canonical)
        return _array_template(obj.shape, fmt) % tuple(values)
    if isinstance(obj, Records):
        return _dumps_records(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dumps_canonical(v) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ", ".join(
            f"{encode_basestring(str(k))}: {dumps_canonical(v)}"
            for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        f.write(dumps_canonical(obj))
        f.write("\n")


def write_csv(path, header, columns) -> None:
    fmts, values = zip(*(_formatted(np.asarray(c, dtype=float), _fmt_float)
                         for c in columns))
    row = ",".join(fmts) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.write(row * len(values[0]) % tuple(chain.from_iterable(zip(*values))))
