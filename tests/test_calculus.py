import numpy as np
import pytest

from nctransport.calculus import (
    cyclic_D,
    delta,
    grad_D,
    jac_J,
    jac_J_sigma,
    partial_bar,
    partial_sigma,
    pi_op,
    sigma_inv_op,
    symmetrize_S,
)
from nctransport.errors import IndexOutOfRange
from nctransport.modular import apply_sigma, build_context
from nctransport.ncpoly import (
    PRUNE_TOL,
    NCPoly,
    generators,
    max_coeff_diff,
    norm_R,
    norm_R_sigma,
    quadratic_potential,
    rho,
)
from nctransport.randgen import random_centralizer, random_poly
from nctransport.tensor import (
    TensorMatrix,
    mat_mul,
    max_pair_diff,
    t_dagger,
    t_diamond,
    t_sigma,
)
from oracles import (
    constant,
    cyclic_D_composed,
    cyclic_D_reference,
    identity_matrix,
    lmul,
    number_op,
    partial_tilde,
    rmul,
)

TOL = 1e-12


def test_delta_examples():
    assert delta(1, NCPoly.gen(2, 1, 4)).coeffs == {((), ()): 1.0 + 0.0j}
    got = delta(1, NCPoly.monomial(2, (1, 1), 1.0, cap=4))
    assert got.coeffs == {((), (1,)): 1.0 + 0.0j, ((1,), ()): 1.0 + 0.0j}
    assert delta(2, NCPoly.monomial(2, (1, 1), 1.0, cap=4)).is_zero()
    with pytest.raises(IndexOutOfRange):
        delta(3, NCPoly.gen(2, 1, 4))


def test_delta_is_derivation(ctx2, rng):
    # Leibniz in the bimodule sense: split in P keeps Q on the right leg,
    # split in Q keeps P on the left leg.
    p = random_poly(ctx2, rng, 3, cap=8)
    q = random_poly(ctx2, rng, 3, cap=8)
    for j in (1, 2):
        lhs = delta(j, p * q)
        rhs = rmul(delta(j, p), q) + lmul(p, delta(j, q))
        assert max_pair_diff(lhs.with_cap(16), rhs.with_cap(16)) < 1e-10


def test_partials_collapse_when_tracial(ctx2, rng):
    p = random_poly(ctx2, rng, 3, cap=8)
    for j in (1, 2):
        assert max_pair_diff(partial_sigma(ctx2, j, p), delta(j, p)) < TOL
        assert max_pair_diff(partial_bar(ctx2, j, p), delta(j, p)) < TOL
        assert max_pair_diff(partial_tilde(ctx2, j, p), t_diamond(delta(j, p))) < TOL


def test_partial_sigma_generator(lam2):
    got = partial_sigma(lam2, 1, NCPoly.gen(2, 2, 4))
    assert got.coeffs == {((), ()): complex(lam2.alpha[1, 0])}
    assert abs(got.coeffs[((), ())] - (-1j / 3)) < TOL


def test_dagger_relation(lam2, rng):
    # dagger of the twisted quotient equals the conjugate quotient of the adjoint
    for _ in range(8):
        p = random_poly(lam2, rng, 3, cap=8)
        for j in (1, 2):
            lhs = t_dagger(partial_sigma(lam2, j, p))
            rhs = partial_bar(lam2, j, p.adjoint())
            assert max_pair_diff(lhs, rhs) < 1e-10


def test_sigma_intertwining(lam2, rng):
    # (sigma_i x sigma_i) o partial_j o sigma_{-i} = partial_bar_j
    for _ in range(6):
        p = random_poly(lam2, rng, 3, cap=8)
        for j in (1, 2):
            lhs = t_sigma(lam2, partial_sigma(lam2, j, apply_sigma(lam2, p, -1.0)), 1.0, 1.0)
            rhs = partial_bar(lam2, j, p)
            assert max_pair_diff(lhs, rhs) < 1e-9


def test_cyclic_gradient_of_quadratic(lam2, ctx2):
    for ctx in (lam2, ctx2):
        v0 = quadratic_potential(ctx, 8)
        g = grad_D(ctx, v0)
        xs = generators(ctx, 8)
        for j in range(ctx.num_vars):
            assert max_coeff_diff(g[j], xs[j]) < TOL


def test_cyclic_derivative_tracial_power(ctx1):
    p = NCPoly.monomial(1, (1, 1, 1, 1), 1.0, cap=8)
    got = cyclic_D(ctx1, 1, p)
    assert got.coeffs == {(1, 1, 1): 4.0 + 0.0j}


def test_cyclic_derivative_degree_one(lam2):
    got = cyclic_D(lam2, 1, NCPoly.gen(2, 2, 4))
    assert got.coeffs == {(): complex(lam2.alpha[0, 1])}
    assert abs(got.coeffs[()] - (1j / 3)) < TOL


def test_cyclic_derivative_matches_composition(lam2, rng):
    for _ in range(8):
        p = random_poly(lam2, rng, 4, cap=8)
        for j in (1, 2):
            assert (
                max_coeff_diff(cyclic_D(lam2, j, p), cyclic_D_composed(lam2, j, p))
                < 1e-10
            )


def test_cyclic_derivative_carries_truncation(lam2, ctx1, rng):
    # a truncated input gives a truncated derivative, as it does through delta
    for ctx in (lam2, ctx1):
        p = random_poly(ctx, rng, 4, cap=8)
        tainted = NCPoly(p.num_vars, p.coeffs, p.degree_cap, True)
        for j in range(1, ctx.num_vars + 1):
            assert not cyclic_D(ctx, j, p).truncated
            assert cyclic_D(ctx, j, tainted).truncated
            assert delta(j, tainted).truncated


def _bits(p):
    return [(w, c.real.hex(), c.imag.hex()) for w, c in p.coeffs.items()], p.truncated


@pytest.mark.parametrize(
    "lambdas, num_trivial", [([2.0], 0), ([2.0, 3.0], 0), ([], 1)], ids=["lam2", "lam2_3", "trivial1"]
)
def test_cyclic_derivative_matches_per_term_form(lambdas, num_trivial, rng):
    # the one-dict accumulation gives the per-term products summed by
    # NCPoly.sum bit for bit: keys, key order, coefficients and taint
    ctx = build_context(lambdas, num_trivial)
    n = ctx.num_vars
    inputs = [random_poly(ctx, rng, 6, cap=6, terms=12) for _ in range(4)]
    p = inputs[0]
    inputs.append(NCPoly(n, p.coeffs, p.degree_cap, True))
    # the word beyond the cap drops its terms and taints
    inputs.append(NCPoly(n, {(1, 1): 0.5, (1,) * 6: 1.0}, 4))
    if lambdas:
        # on the lambda=2 block: in D_1, X_2^3 at 2.7e-14 has a term
        # c alpha_12 at or below PRUNE_TOL whose twisted products are not;
        # in D_2, X_2^2 at 1.2e-14 has a product at or below PRUNE_TOL on
        # the key X_1, which X_1^2 has made before
        inputs.append(NCPoly(n, {(1, 1): 0.5, (2, 2): 1.2e-14, (2, 2, 2): 2.7e-14}, 6))
        # in D_1 the X_1 terms of X_2 X_1 and x X_1 X_2 cancel below
        # PRUNE_TOL, and X_1 X_1 brings the key X_1 back, behind X_2
        A, alpha = ctx.A, ctx.alpha
        x = complex(-alpha[0, 1] * A[0, 0] / (A[1, 0] + alpha[0, 1]))
        cancel = NCPoly(n, {(2, 1): 1.0, (1, 2): x}, 6)
        assert (1,) not in cyclic_D(ctx, 1, cancel).coeffs
        back = NCPoly(n, {**cancel.coeffs, (1, 1): 0.5}, 6)
        assert list(cyclic_D(ctx, 1, back).coeffs) == [(2,), (1,)]
        inputs += [cancel, back]
    for P in inputs:
        for j in range(1, n + 1):
            assert _bits(cyclic_D(ctx, j, P)) == _bits(cyclic_D_reference(ctx, j, P))


def test_homogeneous_fast_path(lam2, rng):
    # on homogeneous cyclically symmetric input, the cyclic derivative of the
    # degree-normalized element reads the coefficients off directly
    for _ in range(6):
        g = random_centralizer(lam2, rng, 4, cap=8, cyclically_symmetric=True)
        comp = g.project_degree(4)
        if comp.is_zero():
            continue
        for t in (1, 2):
            got = cyclic_D(lam2, t, sigma_inv_op(comp))
            expected: dict = {}
            for w, c in comp.coeffs.items():
                a = lam2.alpha[t - 1, w[-1] - 1]
                if a == 0:
                    continue
                key = w[:-1]
                expected[key] = expected.get(key, 0.0) + a * c
            assert max_coeff_diff(got, NCPoly(2, expected, 8)) < 1e-9


def test_gradient_norm_bound(lam2, rng):
    # |D Sigma P|_R <= |P|_{R, sigma} / R on cyclically symmetric input
    for _ in range(8):
        p = random_centralizer(lam2, rng, 4, cap=8, cyclically_symmetric=True)
        f = grad_D(lam2, sigma_inv_op(p))
        lhs = max(norm_R(fj, 2.0) for fj in f)
        assert lhs <= norm_R_sigma(lam2, p, 2.0).value / 2.0 + 1e-9


def test_jacobians(lam2):
    xs = generators(lam2, 6)
    js = jac_J_sigma(lam2, xs)
    for i in range(2):
        for j in range(2):
            expected = complex(lam2.alpha[i, j])
            got = js[i, j].coeffs.get(((), ()), 0.0)
            assert abs(got - expected) < TOL
    jj = jac_J(lam2, xs)
    ident = identity_matrix(2, 2, jj.degree_cap)
    for i in range(2):
        for j in range(2):
            assert max_pair_diff(jj[i, j], ident[i, j]) < TOL


def test_jacobian_b_identity(lam2, rng):
    # twisted Jacobian times the scalar inverse telescopes to the plain one
    inv = TensorMatrix.scalar(0.5 * (np.eye(2) + lam2.A), 2, 16)
    for _ in range(6):
        f = [random_poly(lam2, rng, 3, cap=8) for _ in range(2)]
        lhs = mat_mul(jac_J_sigma(lam2, f), inv)
        rhs = jac_J(lam2, f)
        for i in range(2):
            for j in range(2):
                assert max_pair_diff(lhs[i, j], rhs[i, j]) < 1e-10


def test_number_and_inverse_ops(ctx2, rng):
    p = NCPoly.monomial(2, (1, 2), 1.0, cap=4)
    assert number_op(p).coeffs == {(1, 2): 2.0 + 0.0j}
    assert sigma_inv_op(constant(2, 3.0, 4)).is_zero()
    q = random_poly(ctx2, rng, 4, cap=8)
    assert max_coeff_diff(number_op(sigma_inv_op(q)), pi_op(q)) < TOL


def test_grad_commutes_with_number_shift(lam2, rng):
    # D(N g) = (N + 1) D g on the centralizer
    for _ in range(6):
        g = random_centralizer(lam2, rng, 4, cap=8)
        lhs = grad_D(lam2, number_op(g))
        rhs = [
            number_op(d) + d for d in grad_D(lam2, g)
        ]
        for a, b in zip(lhs, rhs):
            assert max_coeff_diff(a, b) < 1e-9


def test_symmetrize_examples(ctx2, lam2):
    p = NCPoly.monomial(2, (1, 2), 1.0, cap=4)
    got = symmetrize_S(ctx2, p)
    assert max_coeff_diff(
        got, NCPoly(2, {(1, 2): 0.5, (2, 1): 0.5}, 4)
    ) < TOL
    v0 = quadratic_potential(lam2, 6)
    assert max_coeff_diff(symmetrize_S(lam2, v0), v0) < TOL
    c = constant(2, 4.2, 4)
    assert max_coeff_diff(symmetrize_S(lam2, c), c) == 0.0


def test_symmetrize_output_is_rotation_fixed(lam2, rng):
    for _ in range(6):
        p = random_centralizer(lam2, rng, 4, cap=8)
        s = symmetrize_S(lam2, p)
        assert max_coeff_diff(rho(lam2, s, 1), s) < 1e-9


def test_symmetrize_contracts_norm(lam2, rng):
    for _ in range(8):
        p = random_centralizer(lam2, rng, 4, cap=8)
        ns = norm_R_sigma(lam2, symmetrize_S(lam2, p), 2.0)
        np_ = norm_R_sigma(lam2, p, 2.0)
        assert ns.value <= np_.value + 1e-9


def test_grad_of_symmetrized_projection(lam2, rng):
    # D SymPi P = D P on the centralizer
    for _ in range(8):
        p = random_centralizer(lam2, rng, 5, cap=10)
        lhs = grad_D(lam2, symmetrize_S(lam2, pi_op(p)))
        rhs = grad_D(lam2, p)
        for a, b in zip(lhs, rhs):
            assert max_coeff_diff(a, b) < 1e-10
