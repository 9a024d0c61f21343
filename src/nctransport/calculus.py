"""Derivations and structural operators on the polynomial algebra.

Contains the free difference quotient delta_j, its alpha-weighted variants,
the twisted cyclic gradient, Jacobian matrices, the partial inverse of the
number operator, and the cyclic symmetrization.  Tensor-valued outputs get a
degree cap of twice the input cap so that downstream # products have room
before truncation.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import DimMismatch, IndexOutOfRange, VarCountMismatch
from .modular import ModularContext
from .ncpoly import PRUNE_TOL, NCPoly, Word, rho
from .tensor import TensorMatrix, TensorPoly


def delta(j: int, P: NCPoly) -> TensorPoly:
    """Free difference quotient: split each word at every occurrence of X_j."""
    if not 1 <= j <= P.num_vars:
        raise IndexOutOfRange(f"generator index {j} outside 1..{P.num_vars}")
    cap = 2 * P.degree_cap
    out: dict[tuple[Word, Word], complex] = {}
    for w, c in P.coeffs.items():
        for k, letter in enumerate(w):
            if letter != j:
                continue
            key = (w[:k], w[k + 1:])
            out[key] = out.get(key, 0.0) + c
    return TensorPoly(P.num_vars, out, cap, P.truncated)


def _weighted_delta(weights, P: NCPoly) -> TensorPoly:
    return TensorPoly.sum(
        P.num_vars,
        (delta(k, P).scale(a) for k, a in enumerate(weights, start=1) if abs(a) > 0),
        2 * P.degree_cap,
    )


def partial_sigma(ctx: ModularContext, j: int, P: NCPoly) -> TensorPoly:
    """Twisted difference quotient sum_k alpha_kj delta_k."""
    ctx.check_index(j)
    return _weighted_delta(ctx.inner_rows[j - 1], P)


def partial_bar(ctx: ModularContext, j: int, P: NCPoly) -> TensorPoly:
    """Conjugate variant sum_k alpha_jk delta_k."""
    ctx.check_index(j)
    return _weighted_delta(ctx.alpha_rows[j - 1], P)


def cyclic_D(ctx: ModularContext, j: int, P: NCPoly) -> NCPoly:
    """Twisted cyclic derivative.

    On a word, every position l contributes alpha_{j, w_l} times the tail
    (twisted by the modular action) followed by the head.  Computed by the
    explicit word formula, with each tail's twist from the context's memo
    (``ModularContext.unit_twist``) and the terms added into one dict as
    ``NCPoly.sum`` adds the per-term products; the tests cross-check it
    against those and against the composition through the difference
    quotient.  The output carries the input's truncation taint.
    """
    ctx.check_index(j)
    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    alpha = ctx.alpha_rows[j - 1]
    nv, cap = P.num_vars, P.degree_cap
    acc: dict[Word, complex] = {}
    dropped = False
    for w, c in P.coeffs.items():
        for l in range(len(w)):
            a = alpha[w[l] - 1]
            if abs(a) == 0.0:
                continue
            tw = ctx.unit_twist(-1.0, w[l + 1:])
            m = c * a
            if abs(m) <= PRUNE_TOL:
                continue
            if len(w) - 1 > cap:
                dropped = dropped or bool(tw)
                continue
            head = w[:l]
            for t, ct in tw.items():
                # the product's new key from 0j and its prune, then the sum's
                v = 0j + ct * m
                if abs(v) <= PRUNE_TOL:
                    continue
                key = t + head
                v = acc.get(key, 0.0) + v
                if not abs(v) <= PRUNE_TOL:
                    acc[key] = v
                else:
                    acc.pop(key, None)
    return NCPoly._pruned(nv, acc, cap, dropped or P.truncated)


def grad_D(ctx: ModularContext, P: NCPoly) -> list[NCPoly]:
    """Cyclic gradient vector (D_1 P, ..., D_N P)."""
    return [cyclic_D(ctx, j, P) for j in range(1, ctx.num_vars + 1)]


def _jacobian(ctx: ModularContext, f: list[NCPoly], entry) -> TensorMatrix:
    """The matrix with entry(j, f_i) at (i, j), row by row."""
    if len(f) != ctx.num_vars:
        raise DimMismatch(f"need {ctx.num_vars} components, got {len(f)}")
    js = range(1, ctx.num_vars + 1)
    return TensorMatrix(ctx.num_vars, tuple(tuple(entry(j, fi) for j in js) for fi in f))


def jac_J(ctx: ModularContext, f: list[NCPoly]) -> TensorMatrix:
    """Plain Jacobian: entry (i, j) is delta_j f_i."""
    return _jacobian(ctx, f, delta)


def jac_J_sigma(ctx: ModularContext, f: list[NCPoly]) -> TensorMatrix:
    """Twisted Jacobian: entry (i, j) is partial_sigma_j f_i."""
    return _jacobian(ctx, f, lambda j, fi: partial_sigma(ctx, j, fi))


def sigma_inv_op(P: NCPoly) -> NCPoly:
    """Divide each word by its length; constants map to zero."""
    return NCPoly(
        P.num_vars,
        {w: c / len(w) for w, c in P.coeffs.items() if w},
        P.degree_cap,
        P.truncated,
    )


def pi_op(P: NCPoly) -> NCPoly:
    """Remove the constant term."""
    return NCPoly(
        P.num_vars,
        {w: c for w, c in P.coeffs.items() if w},
        P.degree_cap,
        P.truncated,
    )


def symmetrize_S(ctx: ModularContext, P: NCPoly) -> NCPoly:
    """Average of twisted cyclic rotations, per degree; constants fixed.

    Centralizer input lands on rotation-fixed output, and the map contracts
    the rotation-invariant norm there.
    """

    def averaged(n: int) -> NCPoly:
        comp = P.project_degree(n)
        if n == 0:
            return comp
        # comp and its n - 1 successive rotations, one at a time
        orbit = accumulate(range(1, n), lambda p, _: rho(ctx, p), initial=comp)
        return NCPoly.sum(P.num_vars, orbit, P.degree_cap).scale(1.0 / n)

    return NCPoly.sum(P.num_vars, map(averaged, P.degrees()), P.degree_cap)
