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
    ContractionFailure,
    DenominatorNonpositive,
    GramNotPositive,
    LevelTooLarge,
    NeumannDivergence,
    NoConvergence,
    NormTooLarge,
    NotCyclicallySymmetric,
)
from .forkjoin import fork_join
from .modular import ModularContext, build_context
from .moments import MomentOracle
from . import ncpoly
from .ncpoly import (
    PRUNE_TOL,
    NCPoly,
    Word,
    _prunes,
    is_cyclically_symmetric,
    max_coeff_diff,
    max_or_nan,
    quadratic_potential,
)
from .schwinger import deformed_adjoint, ibp_residual, sd_residual
from .tensor import (
    TensorPoly,
    max_pair_diff,
    pi_norm_bound,
    t_mul,
    t_sigma,
    t_star,
)
from .transport import (
    BOUND_DELTA,
    RATIO_WARN,
    TransportConfig,
    check_hypotheses,
    invert_series,
    inversion_residual,
    monotonicity_certificate,
    solve_transport,
)

# Hard bound on the per-level Gram dimension N^n.
MAX_GRAM_DIM = 1024

GRAM_EIG_FLOOR = 1e-12

# V is cyclically symmetric up to the kernel's truncation: at level 4, cap 6
# its defect is 3.4e-15 at lambda = 2, q = 3e-5, but 8.6e-10 at q = 0.01.
POTENTIAL_CS_TOL = 1e-7


@dataclass(frozen=True, kw_only=True)
class RunConfig(TransportConfig):
    """A transport configuration with the modular data, the deformation q
    and the kernel and verification parameters, all checked before any work."""

    lambdas: list[float]
    num_trivial: int = 0
    q: float = 0.0
    gamma: float = 0.25
    level_cap: int
    c: float = 1.0
    law_degree: int | None = None

    def __post_init__(self):
        super().__post_init__()
        for ok, message in (
            (all(l > 0.0 for l in self.lambdas), f"every lambda must be > 0, got {self.lambdas}"),
            (self.num_trivial >= 0, f"num_trivial must be >= 0, got {self.num_trivial}"),
            (self.num_vars > 0, "configuration describes zero generators"),
            (-1.0 < self.q < 1.0, f"q must lie in (-1, 1), got {self.q}"),
            (self.level_cap >= 0, f"level_cap must be >= 0, got {self.level_cap}"),
            (0.0 < self.gamma < 1.0 / 3.0, f"gamma must lie in (0, 1/3), got {self.gamma}"),
            (self.c > -2.0, f"c must be > -2 for a positive natural radius, got {self.c}"),
            (self.law_degree is None or self.law_degree >= 0, "law_degree must be >= 0"),
        ):
            if not ok:
                raise ValueError(message)

    @property
    def num_vars(self) -> int:
        return 2 * len(self.lambdas) + self.num_trivial

    def context(self) -> ModularContext:
        return build_context(self.lambdas, self.num_trivial)


def _wick(ctx: ModularContext, q: float, word: Word, memo: dict) -> NCPoly:
    """Polynomial whose Fock vector is the plain tensor of the word's letters.

    Built by the head-letter recursion: multiply by the first generator and
    subtract the q-weighted contractions with every later letter.  In one
    variable these are the q-Hermite polynomials.  ``memo`` maps words to
    their polynomials.

    The terms go into one dict with the float steps of the sum of those
    polynomials: each product term 0j + (1+0j) c pruned as the product
    prunes it, each contraction term (-w) c pruned as ``scale`` prunes it,
    and both added as ``NCPoly.sum`` adds, with prune-on-touch.  No word is
    longer than the cap, so nothing is dropped or tainted.
    """
    got = memo.get(word)
    if got is not None:
        return got
    n = len(word)
    if n == 0:
        out = NCPoly.one(ctx.num_vars, 1)
    else:
        head, rest = word[0], word[1:]
        acc: dict[Word, complex] = {}
        for w, c in _wick(ctx, q, rest, memo).coeffs.items():
            v = 0j + (1 + 0j) * c
            if not abs(v) <= PRUNE_TOL:
                # the sum's first part lands in an empty dict, so its keys
                # are new and 0.0 + v keeps |v|
                acc[(head,) + w] = 0.0 + v
        inner = ctx.inner_rows[head - 1]
        for k in range(len(rest)):
            w = q**k * inner[rest[k] - 1]
            if w == 0:
                continue
            for u, c in _wick(ctx, q, rest[:k] + rest[k + 1:], memo).coeffs.items():
                v = (-w) * c
                if abs(v) <= PRUNE_TOL:
                    continue
                v = acc.get(u, 0.0) + v
                if not abs(v) <= PRUNE_TOL:
                    acc[u] = v
                else:
                    acc.pop(u, None)
        out = NCPoly._pruned(ctx.num_vars, acc, n)
    memo[word] = out
    return out


def _level_words(n_vars: int, n: int) -> list[Word]:
    return list(product(range(1, n_vars + 1), repeat=n))


def _grams(ctx: ModularContext, q: float, top: int):
    """The q-Grams of levels 1, ..., top, one step of the Bozejko-Speicher
    recursion each (see ``q_gram``).  Each level's size is checked before
    its step."""
    nv = ctx.num_vars
    p = np.ones((1, 1))
    for m in range(1, top + 1):
        if nv**m > MAX_GRAM_DIM:
            raise LevelTooLarge(f"level {m} over {nv} generators")
        lifted = np.kron(np.eye(nv), p)
        index = np.arange(nv**m).reshape((nv,) * m)
        p = sum(q**k * lifted[:, np.moveaxis(index, 0, k).ravel()] for k in range(m))
        gram = p.reshape((nv,) * m + (nv**m,))
        for k in range(m):
            gram = np.moveaxis(np.tensordot(ctx.inner_U, gram, axes=([1], [k])), 0, k)
        yield gram.reshape(nv**m, nv**m).astype(complex)


def q_gram(ctx: ModularContext, q: float, n: int) -> np.ndarray:
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
    A level of more than MAX_GRAM_DIM words is refused.
    """
    nv = ctx.num_vars
    if nv**n > MAX_GRAM_DIM:
        raise LevelTooLarge(f"level {n} over {nv} generators")
    gram = np.ones((1, 1), complex)
    for gram in _grams(ctx, q, n):
        pass
    return gram


def _orthonormal_columns(gram: np.ndarray) -> np.ndarray:
    """Columns C over the level-n words (n >= 1) of an orthonormal family of
    Wick polynomials r_i = sum_w C[w, i] psi_w: with the q-Gram
    G = V diag(w) V^H, C = V diag(w)^{-1/2}.  Then C^H G C = 1, and
    C C^H = G^{-1} as for every orthonormal family."""
    w, v = np.linalg.eigh(gram)
    if np.min(w) <= GRAM_EIG_FLOOR:
        raise GramNotPositive(f"q-Gram lost positivity: min eig {np.min(w):.3g}")
    return v / np.sqrt(w)


def orthonormal_basis(ctx: ModularContext, q: float, n: int) -> list[NCPoly]:
    """Orthonormal family spanning the level-n Wick polynomials under the
    q-state: the Wick polynomials combined by ``_orthonormal_columns``."""
    if n == 0:
        return [NCPoly.one(ctx.num_vars, 1)]
    cols = _orthonormal_columns(q_gram(ctx, q, n))
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


@dataclass(frozen=True)
class XiData:
    """The level-sum kernel Xi at deformation q, truncated at max_level."""

    q: float
    max_level: int
    xi: TensorPoly


@dataclass(frozen=True)
class XiInverse:
    """The Neumann inverse of a kernel Xi and what was measured on the way:
    the closed-form majorant at t = 0, the projective-norm bound of 1 - Xi
    at the inversion radius, the worst coefficient of Xi # inverse - 1 and
    the number of Neumann terms past the unit."""

    inverse: TensorPoly
    pi_bound: float
    deviation: float
    residual: float
    neumann_terms: int


def build_xi(ctx: ModularContext, q: float, d: int) -> XiData:
    """Assemble sum over levels n <= d of q^n sum_i r_i (x) r_i*.

    Level zero is the unit; level n >= 1 is one quadratic form.  With Wk
    the monomial x word matrix of the level-n Wick polynomials and C the
    columns of an orthonormal family (``_orthonormal_columns``), r_i has
    coefficient vector (Wk C)[:, i], so the level block B = q^n Wk C C^H Wk^H
    = q^n Wk G^{-1} Wk^H is basis-free; a (x) b has coefficient B[a, reversed b].
    The q-Grams of all levels come from one run of the Bozejko-Speicher
    recursion (Comm. Math. Phys. 137 (1991); ``_grams``, see ``q_gram``).
    Each block is kept as the constructor would keep it, and wrapped as it
    is.  The tensor cap is 2d so no level is clipped.  At q = 0 only level
    zero survives and the kernel is the unit.
    """
    nv = ctx.num_vars
    cap = max(2 * d, 2)
    memo: dict[Word, NCPoly] = {}

    def level(n: int, gram: np.ndarray) -> TensorPoly:
        cols = _orthonormal_columns(gram)
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
        kept = np.nonzero(~_prunes(block.real, block.imag))
        # one reversed word per monomial, shared by all keys of its column
        rights = [b[::-1] for b in monos]
        coeffs = {
            (monos[i], rights[j]): c
            for i, j, c in zip(*(k.tolist() for k in kept), block[kept].tolist())
        }
        return TensorPoly._pruned(nv, coeffs, cap)

    levels = enumerate(_grams(ctx, q, d), 1) if q != 0.0 else ()
    xi = TensorPoly.sum(nv, [TensorPoly.one(nv, cap), *(level(n, g) for n, g in levels)], cap)
    return XiData(q=q, max_level=d, xi=xi)


def pi_bound(q: float, N: int, A_norm: float, c: float) -> float:
    """Closed-form majorant for the projective distance of the kernel from
    the unit at the natural radius, at t = 0 (the twist's power norm is 1)."""
    base = (3.0 + c) ** 2 * (1.0 + A_norm) * N * N
    den = 2.0 - (4.0 + base) * abs(q)
    if den <= 0.0:
        raise DenominatorNonpositive(f"bound undefined: denominator {den:.4g}")
    return base * abs(q) / den


def natural_radius(q: float, c: float) -> float:
    """The radius (1 + c/2) * 2 / (1 - |q|) at which the kernel bound holds."""
    return (1.0 + 0.5 * c) * 2.0 / (1.0 - abs(q))


def invert_xi(ctx: ModularContext, xi: XiData, R: float, tol: float, c: float) -> XiInverse:
    """Neumann inverse of the kernel in the # algebra, returned with its
    measurements (see ``XiInverse``); ``xi`` is left as it is.

    The series sums the powers of e = 1 - Xi and stops when the
    projective-norm bound of the next increment at radius R falls below
    tol.  The deviation is the bound of e itself.  The product of kernel and
    inverse is re-checked against the unit up to the degree cap.
    """
    try:
        pb = pi_bound(xi.q, ctx.num_vars, ctx.norm_A, c)
    except (DenominatorNonpositive, OverflowError):
        # no bound holds, or (3 + c)^2 overflows: the bound reads +inf
        pb = float("inf")
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
    return XiInverse(
        inverse=acc,
        pi_bound=pb,
        deviation=pi_norm_bound(e, R),
        residual=max_pair_diff(t_mul(xi.xi, acc), one),
        neumann_terms=len(terms) - 1,
    )


def conjugate_vars(
    ctx: ModularContext, xi: XiData, inv: XiInverse, o_q: MomentOracle
) -> list[NCPoly]:
    """Conjugate variables of the generators for the twisted difference
    quotient under the q-state, from the kernel Xi and its inverse ``inv``.

    With eta the left-twisted adjoint of the kernel inverse, component j is
    the deformed adjoint of eta (``schwinger.deformed_adjoint``), contracted
    through the q-state.  The taint of the inverse carries over.  At q = 0
    this collapses to the generators themselves.
    """
    eta = t_sigma(ctx, t_star(inv.inverse), -1.0, 0.0)
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


def potential_W(ctx: ModularContext, xi_vec: list[NCPoly]) -> PotentialResult:
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
        (ncpoly.product(xi_vec[k], xs[j], cap).scale(c) for j, k, c in weights if abs(c) >= 1e-16),
        cap,
    )
    V = sigma_inv_op(acc)
    if not is_cyclically_symmetric(ctx, V, tol=POTENTIAL_CS_TOL):
        raise NotCyclicallySymmetric(
            "potential is not cyclically symmetric; kernel truncation too coarse"
        )
    W = V - quadratic_potential(ctx, cap)
    grads = grad_D(ctx, V)
    res = max_or_nan(max_coeff_diff(grads[j], xi_vec[j]) for j in range(nv))
    return PotentialResult(V=V, W=W, grad_residual=res)


def q_isomorphism_pipeline(
    cfg: RunConfig, sd_degree: int, conjugate_check_degree: int | None
) -> dict:
    """Run the full reduction of the q-deformed state to transport, as
    ``cfg`` describes it: its modular data, q, level_cap, c, law_degree and
    the transport parameters, the strict gate included.

    Stages: kernel build and inversion (at the natural radius), conjugate
    variables, potential assembly, contractivity report, transport solve,
    then the checks: the Schwinger-Dyson residual up to ``sd_degree``, and
    beside it (see ``fork_join``) the conjugate-variable check up to
    ``conjugate_check_degree`` (None skips it), the monotonicity
    certificate and the series inversion.  Returns a flat report dict.
    ``cfg.law_degree`` truncates law evaluation; None keeps it exact.  A
    negative degree, and at q != 0 a level_cap whose q-Gram exceeds
    MAX_GRAM_DIM, is refused before any work.  ``pass`` needs the transport
    and every check: the conjugate-variable check when it is computed.  A
    series inversion that fails its contraction test leaves
    ``inverse_residual`` null and gives its message as ``inversion_error``.
    """
    if sd_degree < 0 or (conjugate_check_degree is not None and conjugate_check_degree < 0):
        raise ValueError("degree must be >= 0")
    q, level_cap, c = cfg.q, cfg.level_cap, cfg.c
    nv = cfg.num_vars
    if q != 0.0 and nv**level_cap > MAX_GRAM_DIM:
        fits = max(n for n in range(level_cap) if nv**n <= MAX_GRAM_DIM)
        msg = f"level_cap {level_cap} needs a q-Gram of {nv}^{level_cap} > {MAX_GRAM_DIM} rows"
        raise ValueError(f"{msg}; level {fits} is the largest that fits")
    ctx = cfg.context()
    r_nat = natural_radius(q, c)
    report: dict = {"q": q, "num_vars": nv, "level_cap": level_cap, "c": c}

    o0 = MomentOracle(ctx, 0.0)
    oq = MomentOracle(ctx, q)

    xi = build_xi(ctx, q, level_cap)
    inv = invert_xi(ctx, xi, r_nat, cfg.tolerance, c)
    report["pi_bound"] = inv.pi_bound
    report["natural_radius"] = r_nat
    report["xi_deviation"] = inv.deviation
    report["xi_inverse_residual"] = inv.residual
    report["neumann_terms"] = inv.neumann_terms

    xi_vec = conjugate_vars(ctx, xi, inv, oq)
    # checked once the solve is done, beside the other checks; reported here
    checked = [] if conjugate_check_degree is None else ["conjugate_check"]
    report.update(dict.fromkeys(checked))

    def conjugate() -> dict:
        return {k: conjugate_check(ctx, oq, xi_vec, conjugate_check_degree) for k in checked}

    try:
        pot = potential_W(ctx, xi_vec)
        w_capped = pot.W.with_cap(cfg.degree_cap)
        hyp = check_hypotheses(ctx, w_capped, cfg)
        report["norm_W_Rsigma"] = hyp.norm_W_Rsigma
        report["potential_grad_residual"] = pot.grad_residual
        report["hypotheses"] = hyp.as_dict()
        if not hyp.pass_ and q != 0.0:
            # W is linear in q to leading order: where both would start to hold
            factors = [hyp.bound_W / max(hyp.norm_W_Rsigma, 1e-300),
                       BOUND_DELTA / max(hyp.sum_delta_pi_norm, 1e-300)]
            report["hypotheses"]["q_estimate_pass"] = abs(q) * min(min(factors), 1.0)
        sol = solve_transport(ctx, o0, w_capped, cfg, hypotheses=hyp)
    except Exception as exc:
        # the conjugate-variable check comes first in serial order, so its
        # error wins, and a failed solve still reports it
        report.update(conjugate())
        if not isinstance(exc, (NormTooLarge, NoConvergence)):
            raise
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
    law = o0.law_of(sol.Y, max_degree=cfg.law_degree)

    def certify():
        cert = monotonicity_certificate(ctx, sol.f, cfg.R)
        try:
            h = invert_series(sol.Y, cfg)
        except ContractionFailure as exc:
            # a failed inversion fails its check; the report is still written
            return cert, {"inverse_residual": None, "inversion_error": str(exc)}
        return cert, {"inverse_residual": inversion_residual(sol.Y, h, cfg.degree_cap)}

    # The checks only read finished results: the Schwinger-Dyson residual
    # runs here while a child process runs the others (see forkjoin).
    conj, sd, (cert, inv) = fork_join(
        conjugate, lambda: sd_residual(law, ctx, v_target, sd_degree), certify
    )
    report.update(conj)
    report["sd_residual"] = sd
    report["monotone_bound"] = cert.bound
    report["monotone_lambda_min"] = cert.lambda_min
    report["monotone_certified"] = cert.certified
    report.update(inv)

    max_ratio = max(sol.contraction_ratios, default=0.0)
    report["pass"] = bool(
        sol.fixed_point_residual < max(cfg.tolerance, 1e-9) * 10
        and max_ratio <= RATIO_WARN
        and report["sd_residual"] < 1e-5
        and cert.certified
        and "inversion_error" not in report
        and report["inverse_residual"] < 1e-8
        and report.get("conjugate_check", 0.0) < 1e-5
    )
    return report
