import itertools

import numpy as np
import pytest

from nctransport.arakiwoods import (
    build_xi,
    conjugate_check,
    conjugate_vars,
    invert_xi,
    natural_radius,
)
from nctransport.calculus import grad_D, partial_bar, partial_sigma
from nctransport.errors import BadGamma, NotCyclicallySymmetric
from nctransport.modular import apply_sigma
from nctransport.moments import MomentOracle
from nctransport.ncpoly import NCPoly, _Sparse, max_coeff_diff, quadratic_potential
from nctransport.randgen import random_poly, random_tensor
from nctransport.schwinger import deformed_adjoint, gibbs_distance, ibp_residual, sd_residual
from nctransport.tensor import TensorMatrix, TensorPoly, t_sigma, t_star
from oracles import (
    identity_matrix,
    inner,
    inner_tensor,
    jsigma_star,
    mat_vec,
    number_op,
    partial_q_star,
    partial_q_star_reference,
    state_tensor,
)

TOL = 1e-12


def test_adjoint_of_unit_is_generator(lam2, ctx2):
    for ctx in (lam2, ctx2):
        o = MomentOracle(ctx, 0.0)
        one = TensorPoly.one(ctx.num_vars, 6)
        for j in range(1, ctx.num_vars + 1):
            got = partial_q_star(o, ctx, j, one, one)
            assert max_coeff_diff(got, NCPoly.gen(ctx.num_vars, j, got.degree_cap)) < TOL


@pytest.mark.parametrize("lambdas", [[2.0], [3.0]])
@pytest.mark.parametrize("q", [0.0, 0.05])
def test_adjoint_matches_reference(lambdas, q, rng):
    # the cached adjoint loop against the term-by-term polynomial formula,
    # on random tensors and on the twisted kernel inverse that gives the
    # conjugate variables
    from nctransport import build_context

    ctx = build_context(lambdas)
    o = MomentOracle(ctx, q)
    xi = build_xi(ctx, q, 2)
    for kernel in (TensorPoly.one(2, 4), xi.xi):
        for _ in range(4):
            t = random_tensor(ctx, rng, 3, terms=3)
            for j in (1, 2):
                got = partial_q_star(o, ctx, j, t, kernel)
                ref = partial_q_star_reference(o, ctx, j, t, kernel)
                assert max_coeff_diff(got, ref) < 1e-12
    inv = invert_xi(ctx, xi, natural_radius(q, 1.0), 1e-12, 1.0)
    eta = t_sigma(ctx, t_star(inv.inverse), -1.0, 1.0)
    for j, got in enumerate(conjugate_vars(ctx, xi, inv, o), start=1):
        ref = partial_q_star_reference(o, ctx, j, eta, xi.xi)
        assert max_coeff_diff(got, ref) < 1e-12


def test_adjoint_builds_the_kernels_summary_once(monkeypatch, lam2):
    # every contracted leg's # product is taken on Xi itself, so over one
    # call Xi builds its grade summary once
    o = MomentOracle(lam2, 0.05)
    xi = build_xi(lam2, 0.05, 2)
    inv = invert_xi(lam2, xi, natural_radius(0.05, 1.0), 1e-12, 1.0)
    eta = t_sigma(lam2, t_star(inv.inverse), -1.0, 0.0)
    # a fresh instance of the kernel, which has built nothing yet
    kernel = TensorPoly._pruned(2, xi.xi.coeffs, xi.xi.degree_cap)
    builds = []
    grades = _Sparse._grades

    def counting(self):
        if "_summary" not in self.__dict__:
            builds.append(self.coeffs)
        return grades(self)

    monkeypatch.setattr(_Sparse, "_grades", counting)
    deformed_adjoint(o, lam2, 1, eta, kernel)
    assert sum(b is kernel.coeffs for b in builds) == 1


def test_adjoint_pairing_identity(lam2, rng):
    # <adjoint(T), p> = <T, twisted quotient of p> through the state
    o = MomentOracle(lam2, 0.0)
    one = TensorPoly.one(2, 8)
    for _ in range(6):
        t = random_tensor(lam2, rng, 3, terms=2)
        for j in (1, 2):
            lhs_poly = partial_q_star(o, lam2, j, t, one)
            for p in itertools.product((1, 2), repeat=2):
                mono = NCPoly.monomial(2, p, 1.0)
                lhs = inner(o, lhs_poly, mono)
                rhs = inner_tensor(o, t, partial_sigma(lam2, j, mono))
                assert abs(lhs - rhs) < 1e-10


def test_conjugate_adjoint_of_unit(lam2, rng):
    # pairing against the twisted generator: <sigma_{-i} X_j, P> equals the
    # tensor state of the conjugate quotient
    o = MomentOracle(lam2, 0.0)
    for _ in range(6):
        p = random_poly(lam2, rng, 4, cap=8)
        for j in (1, 2):
            lhs = state_tensor(o, partial_bar(lam2, j, p))
            rhs = inner(o, apply_sigma(lam2, NCPoly.gen(2, j, 8), -1.0), p)
            assert abs(lhs - rhs) < 1e-10


def test_jsigma_star_identity_matrix(lam2, ctx2):
    for ctx in (lam2, ctx2):
        o = MomentOracle(ctx, 0.0)
        n = ctx.num_vars
        one = TensorPoly.one(n, 6)
        ident = identity_matrix(n, n, 6)
        got = jsigma_star(o, ctx, ident, one)
        for j in range(n):
            assert max_coeff_diff(got[j], NCPoly.gen(n, j + 1, got[j].degree_cap)) < TOL
        zero = TensorMatrix.scalar(np.zeros((n, n)), n, 6)
        assert all(p.is_zero() for p in jsigma_star(o, ctx, zero, one))
        scal = TensorMatrix.scalar(2.5 * np.eye(n), n, 6)
        got = jsigma_star(o, ctx, scal, one)
        for j in range(n):
            expected = NCPoly.gen(n, j + 1, got[j].degree_cap).scale(2.5)
            assert max_coeff_diff(got[j], expected) < TOL


def test_sd_residual_quasi_free(ctx1, ctx2, lam2):
    for ctx in (ctx1, ctx2, lam2):
        o = MomentOracle(ctx, 0.0)
        v0 = quadratic_potential(ctx, 8)
        assert sd_residual(o.moment, ctx, v0, 5) < 1e-9


def test_sd_residual_multi_block_context():
    # two modular blocks plus one trivial generator: five generators total
    from nctransport import build_context

    ctx = build_context([2.0, 5.0], 1)
    o = MomentOracle(ctx, 0.0)
    v0 = quadratic_potential(ctx, 6)
    assert sd_residual(o.moment, ctx, v0, 3) < 1e-9


def test_sd_residual_deformed_state_positive(ctx1):
    o = MomentOracle(ctx1, 0.2)
    v0 = quadratic_potential(ctx1, 8)
    r = sd_residual(o.moment, ctx1, v0, 4)
    assert r > 0.1


def test_sd_residual_degree_zero(lam2):
    o = MomentOracle(lam2, 0.3)
    v0 = quadratic_potential(lam2, 8)
    # at degree zero only the first moments appear, and they vanish
    assert sd_residual(o.moment, lam2, v0, 0) < TOL


def test_sd_residual_rejects_asymmetric_potential(lam2):
    o = MomentOracle(lam2, 0.0)
    with pytest.raises(NotCyclicallySymmetric):
        sd_residual(o.moment, lam2, NCPoly.gen(2, 1, 4), 2)


def _inner_form_residual(o, ctx, xs, d):
    # the conjugate-variable check as it was written with the oracle's inner
    # product and tensor state
    worst = 0.0
    for j in range(1, ctx.num_vars + 1):
        for ln in range(d + 1):
            for p in itertools.product(range(1, ctx.num_vars + 1), repeat=ln):
                mono = NCPoly.monomial(ctx.num_vars, p, 1.0)
                lhs = inner(o, xs[j - 1], mono)
                rhs = state_tensor(o, partial_sigma(ctx, j, mono))
                worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("lambdas,d", [([2.0], 4), ([2.0, 3.0], 2)])
@pytest.mark.parametrize("q", [0.0, 0.1])
def test_ibp_residual_equals_inner_form(lambdas, d, q, rng):
    from nctransport import build_context

    ctx = build_context(lambdas)
    xs = [
        NCPoly.gen(ctx.num_vars, j, 5) + random_poly(ctx, rng, 5, terms=12).scale(0.1)
        for j in range(1, ctx.num_vars + 1)
    ]
    got = ibp_residual(MomentOracle(ctx, q).moment, ctx, xs, d)
    assert got.hex() == _inner_form_residual(MomentOracle(ctx, q), ctx, xs, d).hex()
    assert got > 0.0


def test_conjugate_check_is_sd_residual_of_the_gradient(lam2):
    o0 = MomentOracle(lam2, 0.0)
    v0 = quadratic_potential(lam2, 8)
    for d in range(5):
        got = conjugate_check(lam2, o0, grad_D(lam2, v0), d)
        assert got == sd_residual(o0.moment, lam2, v0, d)
        assert got < 1e-12


def test_checks_multiply_no_polynomials(lam2, monkeypatch):
    # through MomentOracle.moment, both checks read moments word by word
    products = []
    mul = NCPoly.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(NCPoly, "__mul__", counting)
    o = MomentOracle(lam2, 0.1)
    v0 = quadratic_potential(lam2, 8)
    sd_residual(o.moment, lam2, v0, 4)
    conjugate_check(lam2, o, grad_D(lam2, v0), 4)
    assert products == []


def test_checks_reject_negative_degree(lam2):
    o = MomentOracle(lam2, 0.0)
    v0 = quadratic_potential(lam2, 8)
    with pytest.raises(ValueError):
        sd_residual(o.moment, lam2, v0, -1)
    with pytest.raises(ValueError):
        conjugate_check(lam2, o, grad_D(lam2, v0), -1)


def test_gibbs_distance(ctx1):
    o0 = MomentOracle(ctx1, 0.0)
    oq = MomentOracle(ctx1, 0.1)
    gamma = 0.2
    assert gibbs_distance(o0.moment, o0.moment, gamma, 6, 1) == 0.0
    d = gibbs_distance(o0.moment, oq.moment, gamma, 6, 1)
    # dominated by the fourth-moment gap q at leading order
    assert d >= 0.1 * gamma**4
    assert d - 0.1 * gamma**4 <= 2.0 * gamma**6
    # termwise monotone in gamma
    assert gibbs_distance(o0.moment, oq.moment, gamma / 2, 6, 1) <= d
    with pytest.raises(BadGamma):
        gibbs_distance(o0.moment, oq.moment, 0.4, 6, 1)


def test_trace_gradient_identity_and_k_assembly(lam2, ctx1, rng):
    # for B the Jacobian of a centralizer gradient: the adjoint Jacobian of
    # the half-twisted B recombines with B # X into the gradient of the
    # weighted traces of B; subtracting the number-operator part gives K
    from nctransport.calculus import jac_J
    from nctransport.ncpoly import generators
    from nctransport.randgen import random_centralizer
    from nctransport.tensor import mat_sigma, trace_A, trace_Ainv

    for ctx in (ctx1, lam2):
        o = MomentOracle(ctx, 0.0)
        one = TensorPoly.one(ctx.num_vars, 16)
        for _ in range(5):
            g = random_centralizer(ctx, rng, 3, cap=10, self_adjoint=True)
            f = grad_D(ctx, g)
            b = jac_J(ctx, f)
            star_term = jsigma_star(o, ctx, mat_sigma(ctx, b, 0.0, 1.0), one)
            bx = mat_vec(b, generators(ctx, 12))
            traces = o.contract_left(trace_Ainv(ctx, b)) + o.contract_right(
                trace_A(ctx, b)
            )
            rhs = grad_D(ctx, traces)
            for j in range(ctx.num_vars):
                lhs = star_term[j].scale(-1.0) + bx[j].with_cap(20)
                assert max_coeff_diff(lhs, rhs[j].with_cap(20)) < 1e-8
            rhs_k = grad_D(ctx, traces - number_op(g))
            for j in range(ctx.num_vars):
                lhs_k = star_term[j].scale(-1.0) - f[j].with_cap(20)
                assert max_coeff_diff(lhs_k, rhs_k[j].with_cap(20)) < 1e-8


def _nan_at(phi, word):
    """The word functional phi, but NaN at one word."""
    return lambda w: complex("nan") if w == word else phi(w)


def test_a_nan_deviation_is_the_residual(lam2):
    # max passes over a NaN that is not the first item, so the NaN of the
    # word (1, 2) read as a residual of 0.0
    o = MomentOracle(lam2, 0.0)
    v0 = quadratic_potential(lam2, 6)
    assert sd_residual(o.moment, lam2, v0, 2) <= TOL
    assert np.isnan(sd_residual(_nan_at(o.moment, (1, 2)), lam2, v0, 2))
    assert np.isnan(ibp_residual(_nan_at(o.moment, (1, 2)), lam2, grad_D(lam2, v0), 2))


def test_a_nan_moment_is_the_distance(lam2):
    o = MomentOracle(lam2, 0.0)
    assert gibbs_distance(o.moment, o.moment, 0.2, 3, 2) == 0.0
    assert np.isnan(gibbs_distance(o.moment, _nan_at(o.moment, (1, 2)), 0.2, 3, 2))
