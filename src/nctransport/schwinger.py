"""Adjoint formulas for the twisted derivations, Schwinger-Dyson residuals,
and the moment-matching metric used for uniqueness statements.

The residual measures, monomial by monomial, how far a law is from
integration by parts against a potential: the pairing of the potential's
cyclic gradient with a test monomial must equal the tensor state of the
twisted difference quotient of that monomial.
"""

from __future__ import annotations

from itertools import product

from .calculus import cyclic_D, partial_bar, partial_sigma
from .errors import BadGamma, NotCyclicallySymmetric
from .modular import ModularContext
from .moments import Law, MomentOracle
from .ncpoly import NCPoly, Word, is_cyclically_symmetric
from .tensor import TensorPoly, t_mul


def deformed_adjoint(
    o: MomentOracle, ctx: ModularContext, j: int, T: TensorPoly, Xi: TensorPoly
) -> NCPoly:
    """Adjoint of the deformed derivation on a tensor whose right leg already
    carries the modular twist at -i.  Elementwise on a (x) b:

        a X_j b - a CL(d_j b # Xi) - CR(dbar_j a # Xi) b,

    where d_j is the twisted difference quotient, dbar_j its conjugate
    variant, and CL/CR contract the left/right leg with the state.  The #
    products are exact (caps lifted to the degree sum); words beyond the cap
    |T| + 1 are dropped and taint the result, as does a tainted T or Xi.
    """
    ctx.check_index(j)
    nv = ctx.num_vars
    cap = T.degree_cap + 1
    trivial = Xi.coeffs == {((), ()): 1.0 + 0.0j}

    def contracted(contract, base: TensorPoly) -> NCPoly:
        if not trivial:
            full = base.degree() + Xi.degree()
            base = t_mul(base.with_cap(full), Xi.with_cap(full))
        return contract(base).with_cap(cap)

    acc: dict[Word, complex] = {}

    def bump(word: Word, val: complex) -> None:
        acc[word] = acc.get(word, 0.0) + val

    # Many terms share a leg; cache the contracted derivations.
    left_cache: dict[Word, NCPoly] = {}
    right_cache: dict[Word, NCPoly] = {}
    for (a, b), c in T.coeffs.items():
        bump(a + (j,) + b, c)
        cl = left_cache.get(b)
        if cl is None:
            pb = NCPoly.monomial(nv, b, 1.0, cap=cap)
            cl = left_cache[b] = contracted(o.contract_left, partial_sigma(ctx, j, pb))
        for w, v in cl.coeffs.items():
            bump(a + w, -c * v)
        cr = right_cache.get(a)
        if cr is None:
            pa = NCPoly.monomial(nv, a, 1.0, cap=cap)
            cr = right_cache[a] = contracted(o.contract_right, partial_bar(ctx, j, pa))
        for w, v in cr.coeffs.items():
            bump(w + b, -c * v)
    kept = {w: v for w, v in acc.items() if len(w) <= cap}
    legs = (*left_cache.values(), *right_cache.values())
    truncated = T.truncated or Xi.truncated or len(kept) < len(acc) or any(p.truncated for p in legs)
    return NCPoly(nv, kept, cap, truncated)


def _words_up_to(n_vars: int, d: int):
    for length in range(d + 1):
        yield from product(range(1, n_vars + 1), repeat=length)


def sd_residual(law: Law, ctx: ModularContext, V: NCPoly, d: int) -> float:
    """Worst deviation from the Schwinger-Dyson identity up to degree d.

    For each generator index j and each monomial p with |p| <= d, compares
    law((D_j V)* p) against (law (x) law)(partial_sigma_j p), through the
    linear extensions of the Law.  The law is first asked for every word
    the comparisons need, in lexicographic order, so that it multiplies out
    each word's product once.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if not is_cyclically_symmetric(ctx, V):
        raise NotCyclicallySymmetric("potential is not cyclically symmetric")
    sides = []
    for j in range(1, ctx.num_vars + 1):
        dv_star = cyclic_D(ctx, j, V).adjoint()
        for p in _words_up_to(ctx.num_vars, d):
            # Lift caps so the pairing polynomial (D_j V)* p is exact.
            need = dv_star.degree() + len(p)
            mono = NCPoly.monomial(ctx.num_vars, p, 1.0, cap=need)
            sides.append((dv_star.with_cap(need) * mono, partial_sigma(ctx, j, mono)))
    words = set()
    for lhs, rhs in sides:
        words.update(lhs.coeffs)
        for a, b in rhs.coeffs:
            words.update((a, b))
    for w in sorted(words):
        law(w)
    worst = 0.0
    for lhs, rhs in sides:
        worst = max(worst, abs(law.poly(lhs) - law.tensor(rhs)))
    return worst


def gibbs_distance(law1, law2, gamma: float, L: int, num_vars: int) -> float:
    """Weighted moment distance: sum over degrees l of gamma^l times the
    worst monomial disagreement at that degree, truncated at degree L."""
    if not 0.0 < gamma < 1.0 / 3.0:
        raise BadGamma(f"gamma must lie in (0, 1/3), got {gamma}")
    total = 0.0
    for l in range(1, L + 1):
        delta_l = max(
            (abs(law1(w) - law2(w)) for w in product(range(1, num_vars + 1), repeat=l)),
            default=0.0,
        )
        total += gamma**l * delta_l
    return total
