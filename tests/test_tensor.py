from math import isqrt

import numpy as np
import pytest

from nctransport import ncpoly
from nctransport.calculus import grad_D, jac_J_sigma
from nctransport.errors import DimMismatch, VarCountMismatch
from nctransport.ncpoly import NCPoly, WordCodes, max_coeff_diff, norm_R
from nctransport.randgen import random_centralizer, random_poly, random_tensor
from nctransport.tensor import (
    TensorMatrix,
    TensorPoly,
    mat_mul,
    mat_sigma,
    mat_star,
    max_pair_diff,
    pi_norm_bound,
    pi_norm_bound_mat,
    t_dagger,
    t_diamond,
    t_mul,
    t_sigma,
    t_star,
    tensor_of,
    trace,
    trace_A,
    trace_Ainv,
    vec_dot,
)
from oracles import identity_matrix, mat_vec, t_apply, t_flip_m

TOL = 1e-12


def elem(left, right, c=1.0, n=2, cap=8):
    return TensorPoly.elementary(n, left, right, c, cap)


def test_t_mul_order():
    # (X1 (x) X2) # (X3 (x) X4) = X1 X3 (x) X4 X2
    s = elem((1,), (2,), n=4)
    t = elem((3,), (4,), n=4)
    assert t_mul(s, t).coeffs == {((1, 3), (4, 2)): 1.0 + 0.0j}


def test_t_mul_unit():
    one = TensorPoly.one(2, 8)
    s = elem((1, 2), (2,))
    assert max_pair_diff(t_mul(one, s), s) == 0.0
    assert max_pair_diff(t_mul(s, one), s) == 0.0


def test_t_mul_associative(ctx2, rng):
    for _ in range(10):
        a = random_tensor(ctx2, rng, 2)
        b = random_tensor(ctx2, rng, 2)
        c = random_tensor(ctx2, rng, 2)
        assert max_pair_diff(t_mul(t_mul(a, b), c), t_mul(a, t_mul(b, c))) < TOL


def _pair_poly(rng, n, terms, max_len, cap, seed_terms):
    """Random tensor with exactly ``terms`` coefficients, ``seed_terms``
    among them, the rest spread over eight decades so that some products
    fall below the prune threshold."""
    coeffs = dict(seed_terms)
    while len(coeffs) < terms:
        a, b = (tuple(int(j) for j in rng.integers(1, n + 1, rng.integers(0, max_len + 1))) for _ in "ab")
        coeffs.setdefault((a, b), complex(*rng.standard_normal(2)) * 10.0 ** -rng.integers(0, 8))
    return TensorPoly(n, coeffs, cap)


def _bits(S):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in S.coeffs.items()], S.truncated


@pytest.mark.parametrize(
    "n, cap, left_cap, max_len, code_type",
    [
        (2, 8, 8, 3, np.int64),
        (3, 7, 7, 2, np.int64),
        # the left operand holds word pairs longer than the product's cap
        (2, 6, 11, 5, np.int64),
        (2, 60, 60, 20, object),
    ],
)
def test_t_mul_batched_matches_loop(monkeypatch, n, cap, left_cap, max_len, code_type):
    # the array route and the per-pair loop give the same # product bit for
    # bit (key order, dropped pairs and taint included) on both sides of the
    # threshold, with either operand in the outer loop, for t_mul(S, S), and
    # with int64 and with Python-int word codes
    assert WordCodes(n, left_cap).dtype is code_type
    rng = np.random.default_rng(cap)
    limit = ncpoly.PAIR_BATCH_MIN
    # (X1 (x) 1) # (1 (x) X1 / 4) cancels (1 (x) X1) # (-X1 (x) 1 / 4), and
    # (-2 X2 (x) 1) # (-3 X2 (x) 1) has the imaginary part -0.0
    seed_s = {((1,), ()): 1.0, ((), (1,)): 1.0, ((2,), ()): -2.0}
    seed_t = {((), (1,)): 0.25, ((1,), ()): -0.25, ((2,), ()): -3.0}

    def routes(fn):
        # fn() at the default threshold, with the loop only, with arrays only
        out = []
        for route in (limit, 10**9, 0):
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", route)
            out.append([_bits(x) for x in fn()])
        return out

    for pairs in (limit - 1, limit):
        rows = next(r for r in range(40, 1, -1) if pairs % r == 0)
        S = _pair_poly(rng, n, rows, max_len, left_cap, seed_s)
        T = _pair_poly(rng, n, pairs // rows, max_len, cap, seed_t)
        assert len(S.coeffs) * len(T.coeffs) == pairs
        default, loop, batched = routes(lambda: [t_mul(S, T), t_mul(T, S)])
        assert default == loop == batched
    for side in (isqrt(limit - 1), isqrt(limit)):
        S = _pair_poly(rng, n, side, max_len, left_cap, seed_s)
        copy = TensorPoly(n, dict(S.coeffs), left_cap)
        # mat_mul(Q, Q) takes t_mul(S, S) on its diagonal, t_mul(S, copy)
        # (a tie) off it
        Q = TensorMatrix(2, ((S, copy), (copy, S)))
        default, loop, batched = routes(lambda: [t_mul(S, S), *mat_mul(Q, Q).entries[0]])
        assert default == loop == batched


def test_t_apply():
    one = TensorPoly.one(2, 8)
    g = NCPoly.monomial(2, (1, 2), 2.0, cap=8)
    assert max_coeff_diff(t_apply(one, g), g) == 0.0
    got = t_apply(elem((1,), (2,), n=4), NCPoly.gen(4, 3, 8))
    assert got.coeffs == {(1, 3, 2): 1.0 + 0.0j}


def test_t_apply_norm_bound(ctx2, rng):
    for _ in range(10):
        s = random_tensor(ctx2, rng, 3)
        g = random_poly(ctx2, rng, 3, cap=12)
        lhs = norm_R(t_apply(s, g), 2.0)
        assert lhs <= pi_norm_bound(s, 2.0) * norm_R(g, 2.0) + 1e-9


def test_involutions_on_elementaries():
    s = elem((1,), (2,), 1j)
    assert t_star(s).coeffs == {((1,), (2,)): -1j}
    assert t_dagger(elem((1, 2), (3,), n=3)).coeffs == {((3,), (2, 1)): 1.0 + 0.0j}
    assert t_diamond(elem((1,), (), n=2)).coeffs == {((), (1,)): 1.0 + 0.0j}


def test_involution_algebra(ctx2, rng):
    for _ in range(10):
        s = random_tensor(ctx2, rng, 3)
        t = random_tensor(ctx2, rng, 3)
        # star reverses products, dagger distributes, diamond is an involution
        assert max_pair_diff(t_star(t_mul(s, t)), t_mul(t_star(t), t_star(s))) < TOL
        assert max_pair_diff(t_dagger(t_mul(s, t)), t_mul(t_dagger(s), t_dagger(t))) < TOL
        assert max_pair_diff(t_diamond(t_diamond(s)), s) < TOL
        assert max_pair_diff(t_dagger(s), t_diamond(t_star(s))) < TOL
        assert max_pair_diff(t_dagger(s), t_star(t_diamond(s))) < TOL


def test_flip_m():
    one = TensorPoly.one(2, 8)
    assert t_flip_m(one).coeffs == {(): 1.0 + 0.0j}
    assert t_flip_m(elem((1,), (2,))).coeffs == {(1, 2): 1.0 + 0.0j}
    s = elem((1,), (2,)) + elem((), (1,), 2.0) + elem((2,), (), -1.0)
    got = t_flip_m(s)
    assert got.coeffs == {(1, 2): 1.0 + 0.0j, (1,): 2.0 + 0.0j, (2,): -1.0 + 0.0j}


def test_t_sigma_cases(ctx2, lam2, rng):
    s = random_tensor(ctx2, rng, 3)
    assert t_sigma(ctx2, s, 1.0, -1.0) is s
    one = TensorPoly.one(2, 4)
    assert max_pair_diff(t_sigma(lam2, one, 1.0, 1.0), one) == 0.0
    # legwise action matches the polynomial action on each leg
    from nctransport.modular import apply_sigma

    t = elem((1, 2), (2,), 1.5)
    got = t_sigma(lam2, t, -1.0, 0.5)
    pa = apply_sigma(lam2, NCPoly.monomial(2, (1, 2), 1.5, cap=3), -1.0)
    pb = apply_sigma(lam2, NCPoly.monomial(2, (2,), 1.0, cap=1), 0.5)
    assert max_pair_diff(got, tensor_of(pa, pb, 8)) < TOL


def test_mat_identity_neutral(ctx2, rng):
    entries = [[random_tensor(ctx2, rng, 2) for _ in range(2)] for _ in range(2)]
    q = TensorMatrix(2, tuple(tuple(r) for r in entries))
    ident = identity_matrix(2, 2, q.degree_cap)
    for i in range(2):
        for j in range(2):
            assert max_pair_diff(mat_mul(ident, q)[i, j], q[i, j]) < TOL
            assert max_pair_diff(mat_mul(q, ident)[i, j], q[i, j]) < TOL


def test_scalar_jacobian_inverse(lam2):
    # the twisted Jacobian of X is alpha; its inverse is (1 + A) / 2
    jx = TensorMatrix.scalar(lam2.alpha, 2, 4)
    inv = TensorMatrix.scalar(0.5 * (np.eye(2) + lam2.A), 2, 4)
    prod = mat_mul(jx, inv)
    ident = identity_matrix(2, 2, 4)
    for i in range(2):
        for j in range(2):
            assert max_pair_diff(prod[i, j], ident[i, j]) < TOL


def test_mat_vec_scalar_action(lam2):
    xs = [NCPoly.gen(2, 1, 6), NCPoly.gen(2, 2, 6)]
    got = mat_vec(TensorMatrix.scalar(lam2.A, 2, 6), xs)
    for i in range(2):
        expected = NCPoly(
            2, {(1,): complex(lam2.A[i, 0]), (2,): complex(lam2.A[i, 1])}, 6
        )
        assert max_coeff_diff(got[i], expected) < TOL


def test_vec_dot():
    f = [NCPoly.gen(2, 1, 6), NCPoly.gen(2, 2, 6)]
    got = vec_dot(f, f)
    assert got.coeffs == {(1, 1): 1.0 + 0.0j, (2, 2): 1.0 + 0.0j}
    with pytest.raises(DimMismatch):
        vec_dot(f, f[:1])


def test_traces(lam2):
    ident = identity_matrix(2, 2, 4)
    assert trace(ident).coeffs == {((), ()): 2.0 + 0.0j}
    got = trace_A(lam2, ident)
    assert got.coeffs == {((), ()): complex(np.trace(lam2.A))}
    # trace against the inverse weight of the scalar twisted Jacobian
    jx = TensorMatrix.scalar(lam2.alpha, 2, 4)
    got = trace_Ainv(lam2, jx)
    expected = complex(np.trace(lam2.A.T @ lam2.alpha))
    assert abs(got.coeffs[((), ())] - expected) < TOL


def test_trace_A_reduces_to_trace(ctx2, rng):
    entries = [[random_tensor(ctx2, rng, 2) for _ in range(2)] for _ in range(2)]
    q = TensorMatrix(2, tuple(tuple(r) for r in entries))
    assert max_pair_diff(trace_A(ctx2, q), trace(q)) < TOL


def test_pi_norm_bounds(lam2):
    one = TensorPoly.one(2, 4)
    assert pi_norm_bound(one, 3.0) == pytest.approx(1.0)
    assert pi_norm_bound(elem((1,), (2,)), 3.0) == pytest.approx(9.0)
    jx = TensorMatrix.scalar(lam2.alpha, 2, 4)
    expected = max(np.abs(lam2.alpha).sum(axis=1))
    assert pi_norm_bound_mat(jx, 5.0) == pytest.approx(expected)


def test_gradient_jacobian_star_identity(lam2, rng):
    # for self-adjoint centralizer G, the matrix adjoint of the twisted
    # Jacobian of the cyclic gradient is its half-twisted version
    for _ in range(6):
        g = random_centralizer(lam2, rng, 4, cap=10, self_adjoint=True)
        q = jac_J_sigma(lam2, grad_D(lam2, g))
        lhs = mat_star(q)
        rhs = mat_sigma(lam2, q, 1.0, 0.0)
        for i in range(2):
            for j in range(2):
                assert max_pair_diff(lhs[i, j], rhs[i, j]) < 1e-9


def test_gradient_jacobian_conjugation(lam2, rng):
    # legwise twist equals conjugation by matrix powers on gradient Jacobians
    from nctransport.modular import matrix_power

    for _ in range(4):
        g = random_centralizer(lam2, rng, 4, cap=10)
        q = jac_J_sigma(lam2, grad_D(lam2, g))
        for s in (0.5, -1.0):
            lhs = mat_sigma(lam2, q, -s, -s)
            a_s = TensorMatrix.scalar(matrix_power(lam2, s), 2, q.degree_cap)
            a_ms = TensorMatrix.scalar(matrix_power(lam2, -s), 2, q.degree_cap)
            rhs = mat_mul(a_s, mat_mul(q, a_ms))
            for i in range(2):
                for j in range(2):
                    assert max_pair_diff(lhs[i, j], rhs[i, j]) < 1e-9


def test_var_mismatch():
    with pytest.raises(VarCountMismatch):
        t_mul(TensorPoly.one(1, 4), TensorPoly.one(2, 4))
