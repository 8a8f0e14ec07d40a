"""Deterministic JSON serialization for reports and data files.

Floats are written with 17 significant digits so that identical inputs
produce byte-identical output and values round-trip exactly.  A
non-finite float, which no JSON number holds, raises ValueError.
"""

import json
import math

import numpy as np


def _fmt_float(x):
    if not math.isfinite(x):
        raise ValueError(f"a report cannot hold the non-finite float {x!r}")
    return format(x, ".17g")


def _float_array(a):
    """A float array of at least one dimension and one entry as JSON: one
    nested %.17g layout built from its shape, filled in one % operation,
    which formats each entry as :func:`_fmt_float` does."""
    flat = a.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        _fmt_float(float(flat[finite.argmin()]))  # raises for the first, in C order
    layout = "%.17g"
    for k in reversed(a.shape):
        layout = "[" + ",".join([layout] * k) + "]"
    return layout % tuple(flat.tolist())


def dumps(obj):
    """Serialize nested dicts/lists/scalars/ndarrays to compact JSON."""
    out = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim and obj.size:
            out.append(_float_array(obj))
        else:
            _write(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")
