"""JSON formats for polynomials and reports.

A report is the standard encoder's output after one normalizing pass, in
the key order of the dicts the callers build, so an identical configuration
gives a byte-identical report.  Floats take the shortest form that reads
back to the same float (a whole-number float keeps its ".0").
"""

from __future__ import annotations

import json
import math
import numbers
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


def normalize(obj: Any) -> Any:
    """The value in JSON's own types: a complex as {"re": ..., "im": ...},
    a NaN or infinite float as "nan", "inf" or "-inf", a tuple as a list,
    and any other number (a numpy scalar too) as a bool, int or float
    through the ``numbers`` ABCs.  Anything else is returned unchanged."""
    if isinstance(obj, dict):
        return {k: normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, bool) or not isinstance(obj, numbers.Number):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        x = float(obj)
        return x if math.isfinite(x) else "nan" if x != x else "inf" if x > 0 else "-inf"
    z = complex(obj)
    return {"re": normalize(z.real), "im": normalize(z.imag)}


def dumps_report(obj: Any) -> str:
    """The report as JSON text: two-space indent, the dicts' key order, and
    each float in the shortest form that reads back to the same float."""
    return json.dumps(normalize(obj), indent=2, allow_nan=False)
