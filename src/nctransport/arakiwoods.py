"""Wick polynomials, the q-Gram, the level-sum kernel Xi (from the inverse
q-Gram) with its Neumann inverse, conjugate variables, the q-isomorphism pipeline.

The pipeline reduces the q-deformed problem to an undeformed transport
problem: build the kernel, invert it, assemble conjugate variables and the
perturbation W of the quadratic potential, solve transport against the
undeformed state, then verify the law, the positivity certificate, and the
series inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .calculus import grad_D, sigma_inv_op
from .errors import (
    DenominatorNonpositive,
    GramNotPositive,
    LevelTooLarge,
    MissingInverse,
    NeumannDivergence,
    NoConvergence,
    NormTooLarge,
    NotCyclicallySymmetric,
)
from .modular import ModularContext
from .moments import MomentOracle
from .ncpoly import (
    PRUNE_TOL,
    NCPoly,
    Word,
    is_cyclically_symmetric,
    max_coeff_diff,
    norm_R_sigma,
    quadratic_potential,
)
from .schwinger import deformed_adjoint, ibp_residual
from .tensor import (
    TensorPoly,
    max_pair_diff,
    pi_norm_bound,
    t_mul,
    t_sigma,
    t_star,
)

DEFAULT_LEVEL_CAP = 6

# Hard bound on the per-level Gram dimension N^n.
MAX_GRAM_DIM = 4096

GRAM_EIG_FLOOR = 1e-12


def _wick(ctx: ModularContext, q: float, word: Word, memo: dict) -> NCPoly:
    """Polynomial whose Fock vector is the plain tensor of the word's letters.

    Built by the head-letter recursion: multiply by the first generator and
    subtract the q-weighted contractions with every later letter.  In one
    variable these are the q-Hermite polynomials.  ``memo`` maps words to
    their polynomials.
    """
    got = memo.get(word)
    if got is not None:
        return got
    n = len(word)
    cap = max(n, 1)
    if n == 0:
        out = NCPoly.one(ctx.num_vars, cap)
    else:
        head, rest = word[0], word[1:]
        inner = ctx.inner_rows[head - 1]
        parts = [NCPoly.gen(ctx.num_vars, head, cap) * _wick(ctx, q, rest, memo).with_cap(cap)]
        for k in range(len(rest)):
            w = q**k * inner[rest[k] - 1]
            if w != 0:
                parts.append(_wick(ctx, q, rest[:k] + rest[k + 1:], memo).scale(-w))
        out = NCPoly.sum(ctx.num_vars, parts, cap)
    memo[word] = out
    return out


def _level_words(n_vars: int, n: int) -> list[Word]:
    return list(product(range(1, n_vars + 1), repeat=n))


def q_gram(ctx: ModularContext, q: float, n: int, level_cap: int = DEFAULT_LEVEL_CAP) -> np.ndarray:
    """Gram matrix of the plain tensor words at level n under the q-inner
    product: entry (u, v) sums q^{inversions} over permutations pairing the
    letters of u against the permuted letters of v,

        G[u, v] = sum_pi q^{inv pi} prod_k <e_{u_k}, e_{v_{pi(k)}}>_U,

    with words in lexicographic order.  The permutation sum is computed by
    the Bozejko-Speicher factorisation of the undeformed q-Fock Gram,
    P_n = (1 (x) P_{n-1}) (1 + q T_1 + q^2 T_1 T_2 + ...) (Comm. Math. Phys.
    137 (1991)): pairing the first letter of u with letter k of v costs q^k,
    so P_n is the sum over k < n of q^k times the columns of 1 (x) P_{n-1}
    taken at the words with letter k moved to the front.  The generator
    inner product then acts on each tensor factor, G = inner_U^{(x) n} P_n.
    """
    nv = ctx.num_vars
    if n > level_cap or nv**n > MAX_GRAM_DIM:
        raise LevelTooLarge(f"level {n} over {nv} generators")
    p = np.ones((1, 1))
    for m in range(1, n + 1):
        lifted = np.kron(np.eye(nv), p)
        index = np.arange(nv**m).reshape((nv,) * m)
        p = sum(q**k * lifted[:, np.moveaxis(index, 0, k).ravel()] for k in range(m))
    gram = p.reshape((nv,) * n + (nv**n,))
    for k in range(n):
        gram = np.moveaxis(np.tensordot(ctx.inner_U, gram, axes=([1], [k])), 0, k)
    return gram.reshape(nv**n, nv**n).astype(complex)


def _orthonormal_columns(ctx: ModularContext, q: float, n: int, level_cap: int) -> np.ndarray:
    """Columns C over the level-n words (n >= 1) of an orthonormal family of
    Wick polynomials r_i = sum_w C[w, i] psi_w: with the q-Gram
    G = V diag(w) V^H, C = V diag(w)^{-1/2}.  Then C^H G C = 1, and
    C C^H = G^{-1} as for every orthonormal family."""
    w, v = np.linalg.eigh(q_gram(ctx, q, n, level_cap))
    if np.min(w) <= GRAM_EIG_FLOOR:
        raise GramNotPositive(f"q-Gram lost positivity: min eig {np.min(w):.3g}")
    return v / np.sqrt(w)


def orthonormal_basis(
    ctx: ModularContext, q: float, n: int, level_cap: int = DEFAULT_LEVEL_CAP
) -> list[NCPoly]:
    """Orthonormal family spanning the level-n Wick polynomials under the
    q-state: the Wick polynomials combined by ``_orthonormal_columns``."""
    if n == 0:
        return [NCPoly.one(ctx.num_vars, 1)]
    cols = _orthonormal_columns(ctx, q, n, level_cap)
    words = _level_words(ctx.num_vars, n)
    memo: dict[Word, NCPoly] = {}
    wicks = [_wick(ctx, q, w, memo) for w in words]
    return [
        NCPoly.sum(
            ctx.num_vars,
            (wick.scale(complex(c)) for wick, c in zip(wicks, cols[:, i]) if abs(c) > 1e-16),
            n,
        )
        for i in range(len(words))
    ]


@dataclass
class XiData:
    """The level-sum kernel at deformation q, truncated at max_level."""

    q: float
    max_level: int
    xi: TensorPoly
    xi_inv: TensorPoly | None = None
    pi_bound_value: float | None = None
    inverse_residual: float | None = None
    neumann_terms: int = 0


def build_xi(ctx: ModularContext, q: float, d: int) -> XiData:
    """Assemble sum over levels n <= d of q^n sum_i r_i (x) r_i*.

    Level zero is the unit; level n >= 1 is one quadratic form.  With Wk
    the monomial x word matrix of the level-n Wick polynomials and C the
    columns of an orthonormal family (``_orthonormal_columns``), r_i has
    coefficient vector (Wk C)[:, i], so the level block B = q^n Wk C C^H Wk^H
    = q^n Wk G^{-1} Wk^H is basis-free; a (x) b has coefficient B[a, reversed b].
    The q-Gram G comes from the Bozejko-Speicher factorisation
    (Comm. Math. Phys. 137 (1991); see ``q_gram``).  The tensor cap is 2d so
    no level is clipped.  At q = 0 only level zero survives and the kernel
    is the unit.
    """
    nv = ctx.num_vars
    cap = max(2 * d, 2)
    memo: dict[Word, NCPoly] = {}

    def level(n: int) -> TensorPoly:
        cols = _orthonormal_columns(ctx, q, n, d)
        wicks = [_wick(ctx, q, w, memo) for w in _level_words(nv, n)]
        monos = list(dict.fromkeys(m for wick in wicks for m in wick.coeffs))
        row = {m: i for i, m in enumerate(monos)}
        wk = np.zeros((len(monos), len(wicks)), dtype=complex)
        for j, wick in enumerate(wicks):
            for m, c in wick.coeffs.items():
                wk[row[m], j] = c
        vecs = wk @ cols
        block = q**n * (vecs @ vecs.conj().T)
        # only the entries the constructor would keep, in row-major order
        kept = np.nonzero(np.abs(block) > PRUNE_TOL)
        # one reversed word per monomial, shared by all keys of its column
        rights = [b[::-1] for b in monos]
        coeffs = {
            (monos[i], rights[j]): c
            for i, j, c in zip(*(k.tolist() for k in kept), block[kept].tolist())
        }
        return TensorPoly(nv, coeffs, cap, any(wick.truncated for wick in wicks))

    levels = range(1, d + 1) if q != 0.0 else ()
    xi = TensorPoly.sum(nv, [TensorPoly.one(nv, cap), *map(level, levels)], cap)
    return XiData(q=q, max_level=d, xi=xi)


def pi_bound(q: float, N: int, A_norm: float, A_t_norm: float, c: float) -> float:
    """Closed-form majorant for the projective distance of the (twisted)
    kernel from the unit at the natural radius."""
    base = A_t_norm * (3.0 + c) ** 2 * (1.0 + A_norm) * N * N
    den = 2.0 - (4.0 + base) * abs(q)
    if den <= 0.0:
        raise DenominatorNonpositive(f"bound undefined: denominator {den:.4g}")
    return base * abs(q) / den


def natural_radius(q: float, c: float) -> float:
    """The radius (1 + c/2) * 2 / (1 - |q|) at which the kernel bound holds."""
    return (1.0 + 0.5 * c) * 2.0 / (1.0 - abs(q))


def invert_xi(xi: XiData, R: float, tol: float, c: float, ctx: ModularContext) -> XiData:
    """Neumann inverse of the kernel in the # algebra, updated in place.

    Requires the closed-form bound at t = 0 below one; stops when the
    projective-norm bound of the next increment falls below tol.  The
    product of kernel and inverse is re-checked against the unit up to the
    degree cap and the residual is stored.
    """
    try:
        pb = pi_bound(xi.q, ctx.num_vars, ctx.norm_A, 1.0, c)
    except DenominatorNonpositive:
        pb = float("inf")
    xi.pi_bound_value = pb
    one = TensorPoly.one(ctx.num_vars, xi.xi.degree_cap)
    e = one - xi.xi
    # In the truncated algebra the series terminates whenever the scalar
    # part of the deviation is strictly inside the unit disc: every other
    # part of e has positive degree, so powers of e gain degree.  The
    # closed-form majorant and the computed deviation are recorded; they
    # govern the untruncated limit, not this computation.
    scalar_dev = abs(e.coeffs.get(((), ()), 0.0))
    if scalar_dev >= 1.0:
        raise NeumannDivergence(
            f"scalar deviation {scalar_dev:.4g} >= 1; series diverges even truncated"
        )
    terms = [one]
    while True:
        term = t_mul(terms[-1], e)
        if term.is_zero():
            break
        terms.append(term)
        if pi_norm_bound(term, R) < tol:
            break
        if len(terms) > 501:
            raise NeumannDivergence("Neumann series did not settle in 500 terms")
    acc = TensorPoly.sum(ctx.num_vars, terms, one.degree_cap)
    xi.xi_inv = acc
    xi.neumann_terms = len(terms) - 1
    prodt = t_mul(xi.xi, acc)
    xi.inverse_residual = max_pair_diff(prodt, one)
    return xi


def conjugate_vars(ctx: ModularContext, xi: XiData, o_q: MomentOracle) -> list[NCPoly]:
    """Conjugate variables of the generators for the twisted difference
    quotient under the q-state.

    With eta the left-twisted adjoint of the kernel inverse, component j is
    the deformed adjoint of eta (``schwinger.deformed_adjoint``), contracted
    through the q-state.  The taint of the inverse carries over.  At q = 0
    this collapses to the generators themselves.
    """
    if xi.xi_inv is None:
        raise MissingInverse("kernel inverse not computed; run invert_xi first")
    eta = t_sigma(ctx, t_star(xi.xi_inv), -1.0, 0.0)
    return [deformed_adjoint(o_q, ctx, j, eta, xi.xi) for j in range(1, ctx.num_vars + 1)]


@dataclass
class PotentialResult:
    V: NCPoly
    W: NCPoly
    grad_residual: float


def conjugate_check(
    ctx: ModularContext, o_q: MomentOracle, xi_vec: list[NCPoly], d: int
) -> float:
    """Worst deviation from the defining pairing of conjugate variables,
    <xi_j, p> = (phi (x) phi)(partial_sigma_j p) over all monomials p of
    degree at most d: ``schwinger.ibp_residual`` of the q-state's moments."""
    return ibp_residual(o_q.moment, ctx, xi_vec, d)


def potential_W(
    ctx: ModularContext, xi_vec: list[NCPoly], cs_tol: float = 1e-7
) -> PotentialResult:
    """Potential with cyclic gradient equal to the conjugate variables.

    V applies the degree-normalizer to sum_{jk} [(1+A)/2]_{jk} xi_k X_j; the
    perturbation is W = V minus the quadratic potential.  Cyclic symmetry of
    V is required (its failure signals too-coarse truncation); the gradient
    identity residual is measured and returned.
    """
    nv = ctx.num_vars
    cap = max(p.degree_cap for p in xi_vec) + 1
    half = 0.5 * (ctx.A + np.eye(nv))
    xs = [NCPoly.gen(nv, j + 1, cap) for j in range(nv)]
    weights = ((j, k, complex(half[j, k])) for j in range(nv) for k in range(nv))
    acc = NCPoly.sum(
        nv,
        ((xi_vec[k].with_cap(cap) * xs[j]).scale(c) for j, k, c in weights if abs(c) >= 1e-16),
        cap,
    )
    V = sigma_inv_op(acc)
    if not is_cyclically_symmetric(ctx, V, tol=cs_tol):
        raise NotCyclicallySymmetric(
            "potential is not cyclically symmetric; kernel truncation too coarse"
        )
    W = V - quadratic_potential(ctx, cap)
    grads = grad_D(ctx, V)
    res = 0.0
    for j in range(nv):
        res = max(res, max_coeff_diff(grads[j], xi_vec[j].with_cap(cap)))
    return PotentialResult(V=V, W=W, grad_residual=res)


def q_isomorphism_pipeline(
    ctx: ModularContext,
    q: float,
    cfg,
    c: float = 1.0,
    level_cap: int | None = None,
    sd_degree: int = 4,
    law_degree: int | None = None,
    enforce_hypotheses: bool = False,
    conjugate_check_degree: int | None = None,
) -> dict:
    """Run the full reduction of the q-deformed state to transport.

    Stages: kernel build and inversion (at the natural radius), conjugate
    variables, potential assembly, contractivity report, transport solve,
    then the verification battery (Schwinger-Dyson residual of the
    transported law, monotonicity certificate, series inversion).  Returns a
    flat report dict ready for serialization; every stage's norms and
    residuals are included.  ``law_degree`` truncates law evaluation for
    larger generator counts; None keeps it exact.  A negative degree is
    refused before any work.  ``pass`` needs the transport, the
    Schwinger-Dyson residual, the monotonicity certificate, the inversion
    and, when computed, the conjugate-variable check.
    """
    from .schwinger import sd_residual as _sd_residual
    from .transport import (
        check_hypotheses,
        invert_series,
        inversion_residual,
        monotonicity_certificate,
        solve_transport,
    )

    if sd_degree < 0 or (conjugate_check_degree is not None and conjugate_check_degree < 0):
        raise ValueError("degree must be >= 0")
    d = level_cap if level_cap is not None else min(cfg.degree_cap, DEFAULT_LEVEL_CAP + 2)
    r_nat = natural_radius(q, c)
    report: dict = {"q": q, "num_vars": ctx.num_vars, "level_cap": d, "c": c}

    o0 = MomentOracle(ctx, 0.0)
    oq = MomentOracle(ctx, q)

    xi = build_xi(ctx, q, d)
    invert_xi(xi, r_nat, cfg.tolerance, c, ctx)
    report["pi_bound"] = xi.pi_bound_value
    report["natural_radius"] = r_nat
    report["xi_deviation"] = pi_norm_bound(
        xi.xi - TensorPoly.one(ctx.num_vars, xi.xi.degree_cap), r_nat
    )
    report["xi_inverse_residual"] = xi.inverse_residual
    report["neumann_terms"] = xi.neumann_terms

    xi_vec = conjugate_vars(ctx, xi, oq)
    if conjugate_check_degree is not None:
        report["conjugate_check"] = conjugate_check(
            ctx, oq, xi_vec, conjugate_check_degree
        )

    pot = potential_W(ctx, xi_vec)
    w_capped = pot.W.with_cap(cfg.degree_cap)
    report["norm_W_Rsigma"] = norm_R_sigma(ctx, w_capped, cfg.R).value
    report["potential_grad_residual"] = pot.grad_residual

    hyp = check_hypotheses(ctx, w_capped, cfg)
    report["hypotheses"] = hyp.as_dict()
    if not hyp.pass_ and q != 0.0:
        # The perturbation scales linearly in q at leading order, so this
        # estimates where both inequalities would start to hold.
        factors = [hyp.bound_W / max(hyp.norm_W_Rsigma, 1e-300),
                   hyp.bound_delta / max(hyp.sum_delta_pi_norm, 1e-300)]
        report["hypotheses"]["q_estimate_pass"] = abs(q) * min(min(factors), 1.0)

    try:
        sol = solve_transport(
            ctx, o0, w_capped, cfg, enforce_hypotheses=enforce_hypotheses
        )
    except (NormTooLarge, NoConvergence) as exc:
        report["transport"] = {"completed": False, "error": str(exc)}
        report["sd_residual"] = None
        report["monotone_certified"] = None
        report["inverse_residual"] = None
        report["pass"] = False
        return report
    report["transport"] = {
        "completed": True,
        "iterations": sol.iterations,
        "delta_history": sol.delta_history,
        "contraction_ratios": sol.contraction_ratios,
        "fixed_point_residual": sol.fixed_point_residual,
        "norm_ghat": sol.norm_ghat,
        "bound_6W_ok": sol.bound_6W_ok,
        "truncated": sol.truncated,
        "warnings": sol.warnings,
    }

    v_target = quadratic_potential(ctx, cfg.degree_cap) + w_capped
    law = o0.law_of(sol.Y, max_degree=law_degree)
    report["sd_residual"] = _sd_residual(law, ctx, v_target, sd_degree)

    cert = monotonicity_certificate(ctx, sol.f, cfg.R)
    report["monotone_bound"] = cert.bound
    report["monotone_lambda_min"] = cert.lambda_min
    report["monotone_certified"] = cert.certified

    H = invert_series(sol.Y, cfg)
    report["inverse_residual"] = inversion_residual(sol.Y, H, cfg.degree_cap)

    max_ratio = max(sol.contraction_ratios, default=0.0)
    report["pass"] = bool(
        sol.fixed_point_residual < max(cfg.tolerance, 1e-9) * 10
        and max_ratio <= 0.55
        and report["sd_residual"] < 1e-5
        and cert.certified
        and report["inverse_residual"] < 1e-8
        and report.get("conjugate_check", 0.0) < 1e-5
    )
    return report
