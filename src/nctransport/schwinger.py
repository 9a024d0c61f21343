"""Adjoint formulas for the twisted derivations, the integration-by-parts
residual, and the moment-matching metric used for uniqueness statements.

The residual measures, monomial by monomial, how far a word functional is
from integration by parts against a tuple x: the pairing of x_j with a test
monomial must equal the tensor state of the twisted difference quotient of
that monomial.  With x the cyclic gradient of a potential it is the
Schwinger-Dyson residual; with x the conjugate variables, their defining
check.
"""

from __future__ import annotations

import itertools

from .calculus import grad_D, partial_bar, partial_sigma
from .errors import BadGamma, NotCyclicallySymmetric
from .modular import ModularContext
from .moments import MomentOracle
from .ncpoly import NCPoly, Word, is_cyclically_symmetric, max_or_nan, product
from .tensor import TensorPoly


def deformed_adjoint(
    o: MomentOracle, ctx: ModularContext, j: int, T: TensorPoly, Xi: TensorPoly
) -> NCPoly:
    """Adjoint of the deformed derivation on a tensor whose right leg already
    carries the modular twist at -i.  Elementwise on a (x) b:

        a X_j b - a CL(d_j b # Xi) - CR(dbar_j a # Xi) b,

    where d_j is the twisted difference quotient, dbar_j its conjugate
    variant, and CL/CR contract the left/right leg with the state.  The #
    products are exact, at the degree sum, on Xi itself with ``t_mul``'s
    outer loop; words beyond the cap |T| + 1 are dropped and taint the
    result, as does a tainted T or Xi.
    """
    ctx.check_index(j)
    nv = ctx.num_vars
    cap = T.degree_cap + 1
    trivial = Xi.coeffs == {((), ()): 1.0 + 0.0j}

    def contracted(contract, base: TensorPoly) -> NCPoly:
        if not trivial:
            full = base.degree() + Xi.degree()
            base = product(base, Xi, full, outer_right=len(base.coeffs) > len(Xi.coeffs))
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
        yield from itertools.product(range(1, n_vars + 1), repeat=length)


def ibp_residual(phi, ctx: ModularContext, xs: list[NCPoly], d: int) -> float:
    """Worst deviation from integration by parts against x_1, ..., x_N:

        |sum_w conj(c_w) phi(rev(w) p) - sum_(a, b) c phi(a) phi(b)|

    over every index j and every monomial p with |p| <= d, where c_w runs
    over the terms of x_j (so the first sum is phi(x_j* p)) and the second
    over the terms of partial_sigma_j p.  ``phi`` is a word functional (a
    ``Law`` or ``MomentOracle.moment``).  It is asked once for each word
    the comparisons need, in lexicographic order, which lets a ``Law``
    multiply out each word's product once; the values are kept for this
    call only.  A NaN deviation gives NaN.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    nv = ctx.num_vars
    stars = [[(w[::-1], c.conjugate()) for w, c in x.coeffs.items()] for x in xs]
    sides = [
        (star, p, partial_sigma(ctx, j, NCPoly.monomial(nv, p, 1.0)).coeffs)
        for j, star in enumerate(stars, start=1)
        for p in _words_up_to(nv, d)
    ]
    words = set()
    for star, p, split in sides:
        words.update(w + p for w, _ in star)
        for a, b in split:
            words.update((a, b))
    value = {w: phi(w) for w in sorted(words)}

    def deviation(star, p, split) -> float:
        lhs = sum((c * value[w + p] for w, c in star), 0.0 + 0.0j)
        rhs = sum((c * value[a] * value[b] for (a, b), c in split.items()), 0.0 + 0.0j)
        return abs(lhs - rhs)

    return max_or_nan(deviation(*side) for side in sides)


def sd_residual(law, ctx: ModularContext, V: NCPoly, d: int) -> float:
    """Worst deviation from the Schwinger-Dyson identity up to degree d:
    ``ibp_residual`` of the word functional ``law`` against the cyclic
    gradient of V, i.e. law((D_j V)* p) against (law (x) law)(partial_sigma_j p)."""
    if not is_cyclically_symmetric(ctx, V):
        raise NotCyclicallySymmetric("potential is not cyclically symmetric")
    return ibp_residual(law, ctx, grad_D(ctx, V), d)


def gibbs_distance(law1, law2, gamma: float, L: int, num_vars: int) -> float:
    """Weighted moment distance: sum over degrees l of gamma^l times the
    worst monomial disagreement at that degree, truncated at degree L; NaN
    when a disagreement is NaN."""
    if not 0.0 < gamma < 1.0 / 3.0:
        raise BadGamma(f"gamma must lie in (0, 1/3), got {gamma}")
    total = 0.0
    for l in range(1, L + 1):
        delta_l = max_or_nan(
            abs(law1(w) - law2(w)) for w in itertools.product(range(1, num_vars + 1), repeat=l)
        )
        total += gamma**l * delta_l
    return total
