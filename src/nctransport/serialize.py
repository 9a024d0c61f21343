"""JSON formats for polynomials and reports.

Reports are emitted with a fixed key order (insertion order of the dicts
built by the callers) and floats printed with 17 significant digits, so an
identical configuration produces a byte-identical report.  Complex numbers
are {"re": ..., "im": ...} objects.
"""

from __future__ import annotations

import json
from typing import Any

from .ncpoly import NCPoly


def load_json(path: str):
    """The JSON value in the file at path.  NaN, Infinity and -Infinity,
    which Python's reader accepts but JSON has not, raise ValueError."""

    def refuse(literal: str):
        raise ValueError(f"{path}: {literal} is not a JSON number")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def poly_to_terms(P: NCPoly) -> list[dict]:
    """Polynomial file format: [{"indices": [...], "re": ..., "im": ...}]."""
    terms = []
    for w in sorted(P.coeffs, key=lambda w: (len(w), w)):
        c = P.coeffs[w]
        terms.append({"indices": list(w), "re": c.real, "im": c.imag})
    return terms


def is_number(x) -> bool:
    """A JSON number: an int or a float, never a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def poly_from_terms(num_vars: int, terms, cap: int) -> NCPoly:
    """The polynomial of a list of terms in the format of ``poly_to_terms``:
    "indices" an array of integers in 1..num_vars, "re" and "im" numbers
    (0 when missing), and no other key.  Anything else raises ValueError."""
    if not isinstance(terms, list):
        raise ValueError(f"a polynomial must be an array of terms, got {json.dumps(terms)}")
    coeffs = {}
    for t in terms:
        ok = isinstance(t, dict) and t.keys() <= {"indices", "re", "im"}
        w, re, im = (t.get("indices"), t.get("re", 0.0), t.get("im", 0.0)) if ok else (None, 0.0, 0.0)
        # a JSON integer parses to an int, never to its subclass bool
        if not (isinstance(w, list) and all(type(j) is int and 1 <= j <= num_vars for j in w)):
            raise ValueError(f"a term holds indices, integers in 1..{num_vars}, and re and im: {json.dumps(t)}")
        if not (is_number(re) and is_number(im)):
            raise ValueError(f"re and im of a term must be numbers: {json.dumps(t)}")
        w = tuple(w)
        coeffs[w] = coeffs.get(w, 0.0) + complex(float(re), float(im))
    return NCPoly(num_vars, coeffs, cap)


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps_report(obj: Any, indent: int = 0) -> str:
    """Serialize with deterministic float formatting and key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {dumps_report(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, complex):
        return dumps_report({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_report(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    return json.dumps(obj)


def sanitize(obj: Any) -> Any:
    """Recursively convert numpy scalars and complexes to plain types."""
    import numpy as np

    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating,)):
        return complex(obj)
    return obj
