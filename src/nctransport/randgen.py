"""Random polynomial generators for property checks.

Centralizer elements are built per degree by projecting random coefficient
vectors onto the fixed space of the modular action, which acts on degree-n
coefficients as the transpose of the n-th Kronecker power of A.  For block
parameters away from 1 some degrees have no fixed vectors at all; those
degrees simply contribute nothing.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .calculus import symmetrize_S
from .modular import ModularContext
from .ncpoly import NCPoly, Word


def random_poly(
    ctx: ModularContext, rng: np.random.Generator, max_degree: int, cap: int | None = None,
    terms: int = 6, real: bool = False,
) -> NCPoly:
    """Sparse random polynomial with N(0,1) coefficients."""
    cap = cap if cap is not None else max_degree
    coeffs: dict[Word, complex] = {}
    for _ in range(terms):
        n = int(rng.integers(0, max_degree + 1))
        w = tuple(int(x) for x in rng.integers(1, ctx.num_vars + 1, size=n))
        c = rng.standard_normal()
        if not real:
            c = c + 1j * rng.standard_normal()
        coeffs[w] = coeffs.get(w, 0.0) + c
    return NCPoly(ctx.num_vars, coeffs, cap)


def _fixed_space(ctx: ModularContext, n: int) -> tuple[list[Word], np.ndarray]:
    """Basis of the degree-n coefficient vectors fixed by the modular action."""
    words = list(product(range(1, ctx.num_vars + 1), repeat=n))
    if ctx.is_tracial:
        return words, np.eye(len(words), dtype=complex)
    m = ctx.A
    kron = np.eye(1, dtype=complex)
    for _ in range(n):
        kron = np.kron(kron, m)
    act = kron.T
    w, v = np.linalg.eigh(act)
    cols = [i for i in range(len(w)) if abs(w[i] - 1.0) < 1e-9]
    return words, v[:, cols]


def random_centralizer(
    ctx: ModularContext, rng: np.random.Generator, max_degree: int, cap: int | None = None,
    self_adjoint: bool = False, cyclically_symmetric: bool = False,
) -> NCPoly:
    """Random element fixed by the modular action, degree by degree.

    Optionally symmetrized to its self-adjoint part and by the twisted
    cyclic average; both operations preserve the fixed space.
    """
    cap = cap if cap is not None else max_degree

    def degree_parts():
        for n in range(max_degree + 1):
            words, basis = _fixed_space(ctx, n)
            if basis.shape[1] == 0:
                continue
            mix = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
            vec = basis @ mix
            yield NCPoly(ctx.num_vars, dict(zip(words, vec)), cap)

    out = NCPoly.sum(ctx.num_vars, degree_parts(), cap)
    if self_adjoint:
        out = (out + out.adjoint()).scale(0.5)
    if cyclically_symmetric:
        out = symmetrize_S(ctx, out)
    return out


def random_tensor(
    ctx: ModularContext, rng: np.random.Generator, max_degree: int, terms: int = 5,
):
    """Random word-pair tensor with total degree at most max_degree."""
    from .tensor import TensorPoly

    coeffs = {}
    for _ in range(terms):
        total = int(rng.integers(0, max_degree + 1))
        la = int(rng.integers(0, total + 1))
        a = tuple(int(x) for x in rng.integers(1, ctx.num_vars + 1, size=la))
        b = tuple(int(x) for x in rng.integers(1, ctx.num_vars + 1, size=total - la))
        coeffs[(a, b)] = coeffs.get((a, b), 0.0) + complex(
            rng.standard_normal(), rng.standard_normal()
        )
    return TensorPoly(ctx.num_vars, coeffs, max(2 * max_degree, 2))
