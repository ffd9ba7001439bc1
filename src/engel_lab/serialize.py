"""Deterministic JSON/CSV emission.

Floats are rendered with 17 significant digits so identical runs produce
byte-identical artifacts; numpy scalars and arrays are converted on the way
out.  JSON artifacts are strict JSON: NaN and +-inf become ``null`` and
strings are escaped as the standard library does.  Key order is the
insertion order of the dicts we build, which is fixed by construction.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np

SCHEMA_VERSION = 2


def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def dumps_canonical(obj, indent: int = 0) -> str:
    pad = " " * indent
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
        return dumps_canonical(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dumps_canonical(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ", ".join(
            f"{encode_basestring(str(k))}: {dumps_canonical(v, indent)}"
            for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        f.write(dumps_canonical(obj))
        f.write("\n")


def write_csv(path, header, columns) -> None:
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for i in range(n):
            f.write(",".join(_fmt_float(float(c[i])) for c in columns) + "\n")
