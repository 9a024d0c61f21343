"""Fixed-point construction of transport between quasi-free Gibbs states.

Given a small cyclically symmetric perturbation W of the quadratic
potential, the solver iterates the contractive self-map

    ghat -> SymPi[ -W(X + DSg) - 1/4 {(1+A) # DSg} # DSg
                   + (contractions of the log-Jacobian series) ]

until the twisted-norm difference of successive iterates is below
tolerance.  The transported tuple is Y = X + D(Sigma ghat); certificates
(contraction ratios, fixed-point residual, gradient positivity bound,
series inversion) are measured, not assumed.  Each application of the map
builds the cyclic gradient and its Jacobian once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    delta,
    grad_D,
    jac_J,
    jac_J_sigma,
    pi_op,
    sigma_inv_op,
    symmetrize_S,
)
from .errors import (
    ContractionFailure,
    HypothesisViolation,
    NoConvergence,
    NormTooLarge,
    NotCyclicallySymmetric,
    NotGradient,
)
from .modular import ModularContext
from .moments import MomentOracle
from .ncpoly import (
    NCPoly,
    generators,
    is_cyclically_symmetric,
    max_coeff_diff,
    max_or_nan,
    norm_R,
    norm_R_sigma,
    substitute,
)
from .tensor import (
    TensorMatrix,
    mat_mul,
    mat_sigma,
    mat_star,
    max_pair_diff,
    pi_norm_bound,
    pi_norm_bound_mat,
    vec_dot,
)

# Measured contraction above this triggers a warning: the guaranteed factor
# is 1/2, with slack for truncation noise.
RATIO_WARN = 0.55

# The twisted Jacobian of a cyclic gradient meets the gradient identity up to
# rounding: 4.2e-12 in the strict lambda = 2, q = 3e-5 pipeline.
GRADIENT_TOL = 1e-8

# The summed projective-norm bound of the difference quotients of W must stay
# below this at radius R + rho.
BOUND_DELTA = 0.125


@dataclass(frozen=True)
class TransportConfig:
    """Numerical parameters of a transport solve.  With ``strict_hypotheses``
    the contractivity inequalities are a hard gate before the solve."""

    R: float
    R_prime: float
    rho: float = 1.0
    degree_cap: int = 8
    tolerance: float = 1e-9
    max_iterations: int = 200
    strict_hypotheses: bool = False

    def __post_init__(self):
        for ok, message in (
            (0.0 < self.R < self.R_prime, f"need 0 < R < R_prime, got {self.R} and {self.R_prime}"),
            (0.0 < self.rho <= 1.0, f"rho must lie in (0, 1], got {self.rho}"),
            (self.degree_cap >= 1, f"degree_cap must be >= 1, got {self.degree_cap}"),
            (self.tolerance > 0.0, f"tolerance must be > 0, got {self.tolerance}"),
            (self.max_iterations >= 1, f"max_iterations must be >= 1, got {self.max_iterations}"),
        ):
            if not ok:
                raise ValueError(message)

    def radius_ok(self, ctx: ModularContext) -> bool:
        return self.R >= 4.0 * ctx.norm_A**0.5


@dataclass(frozen=True)
class HypothesisReport:
    """The two contractivity quantities and whether both inequalities hold."""

    norm_W_Rsigma: float
    sum_delta_pi_norm: float
    radius_ok: bool
    bound_W: float
    pass_: bool

    def as_dict(self) -> dict:
        """The report's "hypotheses" entry, in report key order."""
        return {
            "norm_W_Rsigma": self.norm_W_Rsigma,
            "sum_delta_pi_norm": self.sum_delta_pi_norm,
            "bound_W": self.bound_W,
            "bound_delta": BOUND_DELTA,
            "radius_ok": self.radius_ok,
            "pass": self.pass_,
        }


@dataclass
class TransportSolution:
    """Everything a transport solve produced, including iteration telemetry."""

    ghat: NCPoly
    g: NCPoly
    f: list[NCPoly]
    Y: list[NCPoly]
    iterations: int
    delta_history: list[float]
    contraction_ratios: list[float]
    fixed_point_residual: float
    norm_ghat: float
    bound_6W_ok: bool
    hypotheses: HypothesisReport
    truncated: bool
    warnings: list[str] = field(default_factory=list)


def check_hypotheses(ctx: ModularContext, W: NCPoly, cfg: TransportConfig) -> HypothesisReport:
    """Evaluate the sufficient contractivity inequalities for W.

    Passing requires the twisted norm of W below rho/2N, the summed
    projective-norm bound of its difference quotients below BOUND_DELTA at
    radius R + rho, and R at least 4 sqrt(norm A).  The report is built
    whole, its verdict included.
    """
    if not is_cyclically_symmetric(ctx, W):
        raise NotCyclicallySymmetric("perturbation is not cyclically symmetric")
    n = ctx.num_vars
    norm_w = norm_R_sigma(ctx, W, cfg.R).value
    s = cfg.R + cfg.rho
    sum_delta = sum(pi_norm_bound(delta(j, W), s) for j in range(1, n + 1))
    radius_ok = cfg.radius_ok(ctx)
    bound_w = cfg.rho / (2.0 * n)
    return HypothesisReport(
        norm_W_Rsigma=norm_w,
        sum_delta_pi_norm=sum_delta,
        radius_ok=radius_ok,
        bound_W=bound_w,
        pass_=radius_ok and norm_w < bound_w and sum_delta < BOUND_DELTA,
    )


def _trace_contractions(ctx: ModularContext, o: MomentOracle, B: TensorMatrix) -> NCPoly:
    """(1 (x) phi) Tr_A + (phi (x) 1) Tr_{A^{-1}} applied to a matrix."""
    from .tensor import trace_A, trace_Ainv

    return o.contract_right(trace_A(ctx, B)) + o.contract_left(trace_Ainv(ctx, B))


def q_series(
    ctx: ModularContext,
    o: MomentOracle,
    ghat: NCPoly,
    B: TensorMatrix,
    R: float,
    tol: float,
) -> NCPoly:
    """Alternating trace series of the log-Jacobian remainder.

    Sums (-1)^m / (m+2) times the trace contractions of the (m+2)-nd #
    power of B, the Jacobian of the cyclic gradient of Sigma ghat.  The tail
    is controlled geometrically through r = 2 |ghat| / R^2; summation stops
    when the bound on the remainder drops below tol.
    """
    if o.q != 0.0:
        raise ValueError("series is defined against the undeformed state")
    norm_g, exact = norm_R_sigma(ctx, ghat, R)
    r = 2.0 * norm_g / (R * R)
    # a NaN r (inf / inf, once R * R overflows) is refused too
    if not r < 1.0:
        what = "|ghat|" if exact else "the majorant of |ghat| (ghat left the centralizer)"
        raise NormTooLarge(f"{what} = {norm_g} exceeds R^2/2 = {R * R / 2}")
    if ghat.is_zero():
        return NCPoly.zero(ctx.num_vars, ghat.degree_cap)

    def terms():
        power = mat_mul(B, B)
        m = 0
        while True:
            yield _trace_contractions(ctx, o, power).scale((-1.0) ** m / (m + 2))
            tail = 2.0 * ctx.norm_A * r ** (m + 3) / (1.0 - r)
            if tail < tol or m > 200:
                return
            power = mat_mul(power, B)
            if all(e.is_zero() for row in power.entries for e in row):
                return
            m += 1

    return NCPoly.sum(ctx.num_vars, terms(), ghat.degree_cap)


def F_map(
    ctx: ModularContext,
    o: MomentOracle,
    W: NCPoly,
    ghat: NCPoly,
    cfg: TransportConfig,
    f: list[NCPoly],
) -> NCPoly:
    """One application of the transport self-map (before symmetrization).

    Four pieces: the recentred perturbation -W(X + f), the quadratic
    correction -1/4 {(1+A) # f} # f, the linear trace contraction of the
    Jacobian, and minus the alternating series.  The caller passes f, the
    cyclic gradient D(Sigma ghat), and its Jacobian B feeds both trace
    terms.  At ghat = 0 (so f = 0) this returns -W(X).
    """
    if not is_cyclically_symmetric(ctx, ghat):
        raise NotCyclicallySymmetric("iterate left the cyclically symmetric cone")
    cap = cfg.degree_cap
    xs = generators(ctx, cap)
    shifted = [xs[j] + f[j].with_cap(cap) for j in range(ctx.num_vars)]
    t_w = substitute(W, shifted, cap).scale(-1.0)

    one_plus_a = ctx.A + np.eye(ctx.num_vars)
    af = [
        NCPoly.sum(
            ctx.num_vars,
            (f[k].scale(complex(one_plus_a[i, k])) for k in range(ctx.num_vars)),
            cap,
        )
        for i in range(ctx.num_vars)
    ]
    t_quad = vec_dot(af, f).with_cap(cap).scale(-0.25)

    B = jac_J(ctx, f)
    t_lin = _trace_contractions(ctx, o, B).with_cap(cap)

    t_series = q_series(ctx, o, ghat, B, cfg.R, cfg.tolerance)

    return t_w + t_quad + t_lin - t_series


def solve_transport(
    ctx: ModularContext,
    o: MomentOracle,
    W: NCPoly,
    cfg: TransportConfig,
    hypotheses: HypothesisReport | None = None,
) -> TransportSolution:
    """Iterate ghat -> SymPi F(ghat) from the seed ghat = W to a fixed point.

    Each pass takes g = Sigma^{-1} ghat and f = D g, applies the map and
    measures the step's delta.  The pass after convergence records nothing:
    its delta is the fixed-point residual and its f gives Y = X + f.  A zero
    W starts converged, so its one pass is the residual.

    With ``cfg.strict_hypotheses`` the sufficient inequalities must hold
    before iterating; without it they are still evaluated and recorded, and
    the contraction is measured empirically (a ratio at or above one aborts).
    A caller that has already evaluated them for this W and ``cfg`` passes
    its report as ``hypotheses``.
    """
    if o.q != 0.0:
        raise ValueError("transport solves against the undeformed state")
    rep = check_hypotheses(ctx, W, cfg) if hypotheses is None else hypotheses
    if cfg.strict_hypotheses and not rep.pass_:
        raise HypothesisViolation(
            f"|W|_Rsigma = {rep.norm_W_Rsigma:.6g} (needs < {rep.bound_W:.6g}), "
            f"sum delta bound = {rep.sum_delta_pi_norm:.6g} (needs < {BOUND_DELTA:.6g}), "
            f"radius_ok = {rep.radius_ok}"
        )
    warn_list: list[str] = []
    if not rep.pass_:
        warn_list.append("contractivity hypotheses not satisfied; measuring anyway")

    ghat = W.with_cap(cfg.degree_cap)
    deltas: list[float] = []
    ratios: list[float] = []
    converged = W.is_zero()
    while True:
        g = sigma_inv_op(ghat)
        f = grad_D(ctx, g)
        nxt = symmetrize_S(ctx, pi_op(F_map(ctx, o, W, ghat, cfg, f)))
        d, exact = norm_R_sigma(ctx, nxt - ghat, cfg.R)
        if converged:
            break
        if not exact:
            warn_list.append(f"delta at iteration {len(deltas)} is the off-centralizer majorant")
            warnings.warn(warn_list[-1], stacklevel=2)
        if deltas and deltas[-1] > 0.0:
            ratio = d / deltas[-1]
            ratios.append(ratio)
            if ratio >= 1.0:
                raise NoConvergence(f"contraction ratio {ratio:.4f} >= 1 at iteration {len(deltas)}")
            if ratio > RATIO_WARN:
                msg = f"contraction ratio {ratio:.4f} above {RATIO_WARN}"
                warn_list.append(msg)
                warnings.warn(msg, stacklevel=2)
        deltas.append(d)
        ghat = nxt
        converged = d < cfg.tolerance
        if not converged and len(deltas) == cfg.max_iterations:
            msg = f"no fixed point within {cfg.max_iterations} iterations; last delta {d:.3g}"
            raise NoConvergence(msg)

    xs = generators(ctx, cfg.degree_cap)
    Y = [xs[j] + f[j].with_cap(cfg.degree_cap) for j in range(ctx.num_vars)]
    norm_ghat = norm_R_sigma(ctx, ghat, cfg.R).value
    return TransportSolution(
        ghat=ghat,
        g=g,
        f=f,
        Y=Y,
        iterations=len(deltas),
        delta_history=deltas,
        contraction_ratios=ratios,
        fixed_point_residual=d,
        norm_ghat=norm_ghat,
        bound_6W_ok=norm_ghat <= 6.0 * rep.norm_W_Rsigma + cfg.tolerance,
        hypotheses=rep,
        truncated=ghat.truncated or any(p.truncated for p in Y),
        warnings=warn_list,
    )


@dataclass(frozen=True)
class MonotonicityCertificate:
    bound: float
    lambda_min: float
    certified: bool


def monotonicity_certificate(
    ctx: ModularContext, f: list[NCPoly], R: float
) -> MonotonicityCertificate:
    """Sufficient positivity check for the twisted Jacobian of X + f.

    Requires f to be a cyclic gradient, detected through the self-adjointness
    identity of twisted Jacobians of gradients.  Certifies monotonicity when
    the projective-norm bound of the half-twisted Jacobian of f stays below
    the smallest eigenvalue of the scalar Jacobian of X, namely
    2 / (1 + norm A).  Failure of the bound is reported as "uncertified",
    never as a claim of non-monotonicity.
    """
    Q = jac_J_sigma(ctx, f)
    star = mat_star(Q)
    twisted = mat_sigma(ctx, Q, 1.0, 0.0)
    dev = max_or_nan(
        max_pair_diff(star[i, j], twisted[i, j])
        for i in range(Q.dim)
        for j in range(Q.dim)
    )
    if dev > GRADIENT_TOL:
        raise NotGradient(
            f"twisted Jacobian fails the gradient identity by {dev:.3g}"
        )
    half = mat_sigma(ctx, Q, 0.5, 0.0)
    bound = pi_norm_bound_mat(half, R)
    lambda_min = 2.0 / (1.0 + ctx.norm_A)
    return MonotonicityCertificate(bound, lambda_min, bound < lambda_min)


def _inversion_constant(norm_f_S: float, s_prime: float, S: float) -> float:
    """C(S') = |f|_S max_k k S'^{k-1} S^{-k}; the max is over integers k >= 1.

    Term k+1 over term k is (k+1) S' / (k S), at least one exactly when
    k <= S' / (S - S'), so the terms peak at k* = floor(S' / (S - S')) + 1.
    Only k* and its two neighbours, which absorb the rounding of k*, are
    evaluated, however large k* is; as k (S'/S)^{k-1} / S, a term overflows
    for no S.
    """
    k_star = int(s_prime / (S - s_prime)) + 1
    ks = range(max(k_star - 1, 1), k_star + 2)
    return norm_f_S * max(k * (s_prime / S) ** (k - 1) / S for k in ks)


def invert_series(Y: list[NCPoly], cfg: TransportConfig) -> list[NCPoly]:
    """Compositional inverse of Y = X + f as a series in fresh indeterminates.

    Iterates H_k = Y - f(H_{k-1}) symbolically (the indeterminates reuse the
    same machinery), truncated at the degree cap, until successive norms at
    radius R settle below tolerance.  The contraction constant C(S') must be
    below one for some S' in [lo, S), lo = max(|Y|_R, R) and S = R_prime.
    C grows with S', so it is least at lo, and C(lo) < 1 is that test.
    """
    nv = Y[0].num_vars
    cap = cfg.degree_cap
    xs = [NCPoly.gen(nv, j, cap) for j in range(1, nv + 1)]
    f = [Y[j].with_cap(cap) - xs[j] for j in range(nv)]

    S = cfg.R_prime
    norm_f_S = max(norm_R(fj, S) for fj in f)
    norm_Y_R = max(norm_R(yj, cfg.R) for yj in Y)
    if norm_f_S > 0.0:
        lo = max(norm_Y_R, cfg.R)
        if lo >= S:
            raise ContractionFailure(f"|Y|_R = {norm_Y_R} leaves no room below {S}")
        c_val = _inversion_constant(norm_f_S, lo, S)
        if c_val >= 1.0:
            raise ContractionFailure(
                f"inversion constant {c_val:.4g} >= 1 (|f|_S = {norm_f_S:.4g})"
            )

    H = list(xs)
    for _ in range(cfg.max_iterations):
        nxt = [xs[j] - substitute(f[j], H, cap) for j in range(nv)]
        diff = max(norm_R(nxt[j] - H[j], cfg.R) for j in range(nv))
        H = nxt
        if diff < cfg.tolerance:
            break
    else:
        raise ContractionFailure("series inversion did not settle")
    return H


def inversion_residual(Y: list[NCPoly], H: list[NCPoly], cap: int) -> float:
    """Worst coefficient error of H(Y) against the generators, up to cap;
    NaN when an error is NaN."""
    nv = Y[0].num_vars
    return max_or_nan(
        max_coeff_diff(substitute(H[j], Y, cap), NCPoly.gen(nv, j + 1, cap)) for j in range(nv)
    )
