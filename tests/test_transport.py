import warnings

import numpy as np
import pytest

from nctransport import build_context
from nctransport.calculus import grad_D, jac_J, pi_op, sigma_inv_op, symmetrize_S
from nctransport.errors import (
    ContractionFailure,
    HypothesisViolation,
    NoConvergence,
    NormTooLarge,
    NotCyclicallySymmetric,
    NotGradient,
)
from nctransport.moments import MomentOracle
from nctransport.ncpoly import (
    NCPoly,
    generators,
    max_coeff_diff,
    norm_R_sigma,
    quadratic_potential,
)
from nctransport.randgen import random_centralizer
from nctransport.schwinger import sd_residual
from nctransport.transport import (
    TransportConfig,
    F_map,
    check_hypotheses,
    invert_series,
    inversion_residual,
    monotonicity_certificate,
    q_series,
    solve_transport,
)

from oracles import constant, is_centralizer, mat_vec

CFG = TransportConfig(R=4.0, R_prime=5.0, rho=1.0, degree_cap=8, tolerance=1e-10, max_iterations=80)


def quartic(eps: float, cap: int = 8) -> NCPoly:
    return NCPoly.monomial(1, (1, 1, 1, 1), eps, cap=cap)


def test_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(R=4.0, R_prime=4.0, rho=1.0)
    with pytest.raises(ValueError):
        TransportConfig(R=4.0, R_prime=5.0, rho=0.0)
    ctx = build_context([2.0])
    assert not TransportConfig(R=4.0, R_prime=5.0).radius_ok(ctx)
    assert TransportConfig(R=6.0, R_prime=7.0).radius_ok(ctx)


def test_check_hypotheses_zero(ctx1):
    rep = check_hypotheses(ctx1, NCPoly.zero(1, 8), CFG)
    assert rep.pass_ and rep.norm_W_Rsigma == 0.0 and rep.sum_delta_pi_norm == 0.0


def test_check_hypotheses_small_quartic(ctx1):
    rep = check_hypotheses(ctx1, quartic(1e-4), CFG)
    # |W| = eps 4^4 and the quotient bound is 4 eps 5^3 at radius R + rho
    assert rep.norm_W_Rsigma == pytest.approx(1e-4 * 256)
    assert rep.sum_delta_pi_norm == pytest.approx(4e-4 * 125)
    assert rep.pass_


def test_check_hypotheses_large_quartic(ctx1):
    rep = check_hypotheses(ctx1, quartic(1.0), CFG)
    assert not rep.pass_
    assert rep.norm_W_Rsigma == pytest.approx(256.0)


def test_check_hypotheses_rejects_asymmetric(lam2):
    cfg = TransportConfig(R=6.0, R_prime=7.0, degree_cap=6)
    with pytest.raises(NotCyclicallySymmetric):
        check_hypotheses(lam2, NCPoly.gen(2, 1, 6), cfg)


def jacobian(ctx, ghat):
    """The Jacobian of the cyclic gradient of Sigma ghat, as F_map builds it."""
    return jac_J(ctx, grad_D(ctx, sigma_inv_op(ghat)))


def test_q_series_zero(ctx1):
    o = MomentOracle(ctx1, 0.0)
    zero = NCPoly.zero(1, 8)
    assert q_series(ctx1, o, zero, jacobian(ctx1, zero), 4.0, 1e-10).is_zero()


def test_q_series_leading_order(ctx1):
    # the m = 0 term is half the weighted traces of the squared Jacobian
    from nctransport.tensor import mat_mul, trace_A, trace_Ainv

    o = MomentOracle(ctx1, 0.0)
    eps = 1e-6
    ghat = quartic(eps)
    b = jacobian(ctx1, ghat)
    got = q_series(ctx1, o, ghat, b, 4.0, 1e-16)
    b2 = mat_mul(b, b)
    lead = (
        o.contract_right(trace_A(ctx1, b2)) + o.contract_left(trace_Ainv(ctx1, b2))
    ).scale(0.5)
    assert max_coeff_diff(got, lead.with_cap(8)) < 10 * eps**3


def test_q_series_norm_bound(ctx1, lam2, rng):
    for ctx in (ctx1, lam2):
        o = MomentOracle(ctx, 0.0)
        for _ in range(5):
            g = random_centralizer(ctx, rng, 4, cap=8, cyclically_symmetric=True)
            g = g.scale(0.3 / max(norm_R_sigma(ctx, g, 4.0).value, 1e-12))
            got = q_series(ctx, o, g, jacobian(ctx, g), 4.0, 1e-12)
            ng = norm_R_sigma(ctx, g, 4.0).value
            bound = 4 * ctx.norm_A * ng**2 / (4.0**4 - 2 * 4.0**2 * ng)
            assert norm_R_sigma(ctx, got, 4.0).value <= bound + 1e-9


def _random_ghat(degree):
    def make(ctx, cap):
        rng = np.random.default_rng(cap)
        return random_centralizer(ctx, rng, degree, cap=cap, cyclically_symmetric=True)

    return make


def _two_block_quartic(ctx, cap):
    words = {(1, 2, 2, 1): 1.0, (3, 4, 4, 3): 1.0}
    return symmetrize_S(ctx, NCPoly(4, words, cap)) + quadratic_potential(ctx, cap).scale(0.01)


@pytest.mark.parametrize(
    "lambdas, trivial, cap, make, R",
    [
        ([], 1, 8, _random_ghat(4), 4.0),
        ([], 1, 10, _random_ghat(6), 4.0),
        ([2.0], 0, 6, _random_ghat(4), 6.0),
        ([2.0], 0, 8, _random_ghat(4), 6.0),
        # at R = 2 the quartic part is large enough that B^5 and later
        # powers lose products to the tensor cap 8
        ([2.0, 3.0], 0, 4, _two_block_quartic, 2.0),
    ],
)
def test_q_series_batched_matches_loop(monkeypatch, lambdas, trivial, cap, make, R):
    # the # powers with every t_mul summed as arrays, with none, and with the
    # default threshold give the same series bit for bit: keys, key order,
    # coefficients and taint
    from nctransport import ncpoly
    from nctransport.tensor import mat_mul

    ctx = build_context(lambdas, trivial)
    o = MomentOracle(ctx, 0.0)
    g = make(ctx, cap)
    g = g.scale(0.3 * R * R / 2 / norm_R_sigma(ctx, g, R).value)
    b = jacobian(ctx, g)
    runs = []
    for limit in (ncpoly.PAIR_BATCH_MIN, 10**9, 0):
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
        got = q_series(ctx, o, g, b, R, 1e-10)
        runs.append(([(w, c.real.hex(), c.imag.hex()) for w, c in got.coeffs.items()], got.truncated))
    assert runs[0] == runs[1] == runs[2]
    if len(lambdas) == 2:
        powers = [b]
        for _ in range(4):
            powers.append(mat_mul(powers[-1], b))
        assert not powers[3].truncated and powers[4].truncated


def test_f_map_builds_the_gradient_once(lam2, monkeypatch):
    import nctransport.transport as transport

    calls = []

    def counted(ctx, p):
        calls.append(p)
        return grad_D(ctx, p)

    monkeypatch.setattr(transport, "grad_D", counted)
    o = MomentOracle(lam2, 0.0)
    w = random_centralizer(lam2, np.random.default_rng(3), 4, cap=6, cyclically_symmetric=True)
    w = w.scale(0.05 / norm_R_sigma(lam2, w, 6.0).value)
    cfg = TransportConfig(R=6.0, R_prime=7.0, degree_cap=6)
    F_map(lam2, o, w, w, cfg)
    assert len(calls) == 1


def test_q_series_rejects_large_argument(ctx1):
    o = MomentOracle(ctx1, 0.0)
    big = NCPoly.monomial(1, (1, 1), 10.0, cap=8)
    with pytest.raises(NormTooLarge):
        q_series(ctx1, o, big, jacobian(ctx1, big), 4.0, 1e-10)


def test_f_map_at_zero(ctx1):
    o = MomentOracle(ctx1, 0.0)
    zero = NCPoly.zero(1, 8)
    assert F_map(ctx1, o, zero, zero, CFG).is_zero()
    w = quartic(1e-3)
    got = F_map(ctx1, o, w, zero, CFG)
    assert max_coeff_diff(got, w.scale(-1.0)) < 1e-15


def test_f_map_first_iterate_expansion(ctx1):
    # seed at W: one application gives eps (2 X^2 - X^4) up to O(eps^2)
    o = MomentOracle(ctx1, 0.0)
    eps = 1e-6
    w = quartic(eps)
    got = symmetrize_S(ctx1, pi_op(F_map(ctx1, o, w, w, CFG)))
    expected = NCPoly(1, {(1, 1): 2 * eps, (1, 1, 1, 1): -eps}, 8)
    assert max_coeff_diff(got, expected) < 10 * eps**2


def test_f_map_lands_in_centralizer(lam2, rng):
    o = MomentOracle(lam2, 0.0)
    cfg = TransportConfig(R=6.0, R_prime=7.0, rho=1.0, degree_cap=6, tolerance=1e-9)
    for _ in range(3):
        w = random_centralizer(lam2, rng, 4, cap=6, self_adjoint=True, cyclically_symmetric=True)
        w = w.scale(1e-3 / max(norm_R_sigma(lam2, w, 6.0).value, 1e-12))
        ghat = random_centralizer(lam2, rng, 4, cap=6, cyclically_symmetric=True)
        ghat = ghat.scale(1e-3 / max(norm_R_sigma(lam2, ghat, 6.0).value, 1e-12))
        got = F_map(lam2, o, w, ghat, cfg)
        assert is_centralizer(lam2, got, tol=1e-8)


def test_solve_zero_perturbation(ctx1):
    o = MomentOracle(ctx1, 0.0)
    sol = solve_transport(ctx1, o, NCPoly.zero(1, 8), CFG)
    assert sol.iterations == 0
    assert sol.g.is_zero()
    xs = generators(ctx1, 8)
    assert max_coeff_diff(sol.Y[0], xs[0]) == 0.0


def test_solve_small_quartic(ctx1):
    o = MomentOracle(ctx1, 0.0)
    w = quartic(1e-4)
    sol = solve_transport(ctx1, o, w, CFG)
    assert sol.hypotheses.pass_
    assert sol.fixed_point_residual < 1e-10
    assert max(sol.contraction_ratios) <= 0.5
    assert sol.bound_6W_ok
    from nctransport.ncpoly import is_cyclically_symmetric

    assert is_cyclically_symmetric(ctx1, sol.ghat)
    # self-adjoint input gives a self-adjoint fixed point
    assert max_coeff_diff(sol.ghat, sol.ghat.adjoint()) < 1e-14
    # transported law solves the Schwinger-Dyson identity to truncation
    v = quadratic_potential(ctx1, 8) + w
    assert sd_residual(o.law_of(sol.Y), ctx1, v, 4) < 1e-9


def test_solve_enforces_hypotheses(ctx1):
    o = MomentOracle(ctx1, 0.0)
    with pytest.raises(HypothesisViolation):
        solve_transport(ctx1, o, quartic(1e-3), CFG, enforce_hypotheses=True)


def test_solve_diverges_loudly(ctx1):
    o = MomentOracle(ctx1, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises((NoConvergence, NormTooLarge)):
            solve_transport(ctx1, o, quartic(0.5), CFG, enforce_hypotheses=False)


def test_monotonicity_certificate_trivial(ctx1, lam2):
    zero = [NCPoly.zero(1, 8)]
    cert = monotonicity_certificate(ctx1, zero, 4.0)
    assert cert.certified and cert.bound == 0.0 and cert.lambda_min == 1.0
    cert2 = monotonicity_certificate(
        lam2, [NCPoly.zero(2, 8), NCPoly.zero(2, 8)], 6.0
    )
    assert cert2.lambda_min == pytest.approx(2.0 / 3.0)


def test_monotonicity_certificate_gradient(lam2, rng):
    g = random_centralizer(lam2, rng, 3, cap=8, self_adjoint=True)
    g = g.scale(1e-3)
    cert = monotonicity_certificate(lam2, grad_D(lam2, g), 6.0)
    assert cert.certified


def test_monotonicity_rejects_non_gradient(lam2):
    # X_2 and zero is not a cyclic gradient pattern for this context
    f = [NCPoly.gen(2, 2, 6), NCPoly.gen(2, 1, 6).scale(2.0)]
    with pytest.raises(NotGradient):
        monotonicity_certificate(lam2, f, 6.0)


def test_invert_trivial_and_constants(ctx1):
    xs = generators(ctx1, 8)
    h = invert_series(xs, CFG)
    assert max_coeff_diff(h[0], xs[0]) == 0.0
    y = [xs[0] + constant(1, 0.3, 8)]
    h = invert_series(y, CFG)
    expected = xs[0] + constant(1, -0.3, 8)
    assert max_coeff_diff(h[0], expected) < 1e-12


def test_invert_quadratic_reversion(ctx1):
    # compositional inverse of X + eps X^2 carries signed Catalan numbers
    eps = 0.01
    cfg = TransportConfig(R=1.0, R_prime=8.0, rho=1.0, degree_cap=5, tolerance=1e-14, max_iterations=300)
    y = [NCPoly(1, {(1,): 1.0, (1, 1): eps}, 5)]
    h = invert_series(y, cfg)
    catalan = [1, 1, 2, 5, 14]
    for k in range(1, 6):
        expected = (-1) ** (k - 1) * catalan[k - 1] * eps ** (k - 1)
        assert abs(h[0].coeffs.get((1,) * k, 0.0) - expected) < 1e-10
    assert inversion_residual(y, h, 5) < 1e-12


def test_invert_contraction_failure(ctx1):
    y = [NCPoly(1, {(1,): 1.0, (1, 1): 5.0}, 6)]
    with pytest.raises(ContractionFailure):
        invert_series(y, TransportConfig(R=1.0, R_prime=1.5, degree_cap=6))


def test_gradient_quadratic_identity(lam2, rng):
    # D(1/2 JX^{-1} # f # f) = Jf # f for gradients of self-adjoint
    # centralizer elements
    from nctransport.tensor import vec_dot

    one_plus_a = np.eye(2) + lam2.A
    for _ in range(5):
        g = random_centralizer(lam2, rng, 4, cap=12, self_adjoint=True)
        f = grad_D(lam2, g)
        af = [
            f[0].scale(complex(one_plus_a[i, 0])) + f[1].scale(complex(one_plus_a[i, 1]))
            for i in range(2)
        ]
        lhs = grad_D(lam2, vec_dot(af, f).scale(0.25))
        rhs = mat_vec(jac_J(lam2, f), f)
        for j in range(2):
            assert max_coeff_diff(lhs[j].with_cap(24), rhs[j].with_cap(24)) < 1e-9


def test_weighted_dot_norm_bound(lam2, rng):
    # |(1+A) # f1 # f2| <= 2 N |A| |g1| |g2| / R^2 for unit-normalized input
    from nctransport.tensor import vec_dot

    r = 6.0
    one_plus_a = np.eye(2) + lam2.A
    for _ in range(5):
        g1 = random_centralizer(lam2, rng, 4, cap=12, cyclically_symmetric=True)
        g2 = random_centralizer(lam2, rng, 4, cap=12, cyclically_symmetric=True)
        f1 = grad_D(lam2, sigma_inv_op(g1))
        f2 = grad_D(lam2, sigma_inv_op(g2))
        af = [
            f1[0].scale(complex(one_plus_a[i, 0]))
            + f1[1].scale(complex(one_plus_a[i, 1]))
            for i in range(2)
        ]
        dot = vec_dot(af, f2)
        n1 = norm_R_sigma(lam2, g1, r).value
        n2 = norm_R_sigma(lam2, g2, r).value
        bound = 2 * 2 * lam2.norm_A / r**2 * n1 * n2
        assert norm_R_sigma(lam2, dot, r).value <= bound + 1e-9
