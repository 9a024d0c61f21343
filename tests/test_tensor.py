from math import isqrt

import numpy as np
import pytest

from nctransport import ncpoly
from nctransport.calculus import grad_D, jac_J_sigma
from nctransport.errors import DimMismatch, VarCountMismatch
from nctransport.modular import build_context, matrix_power
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
from oracles import (
    fresh_view,
    identity_matrix,
    mat_vec,
    t_apply,
    t_flip_m,
    t_sigma_reference,
    views_equal,
)

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
        # fn() at the default threshold, with the loop only, with arrays
        # only, and with arrays again on the operands' coded views
        out = []
        for route in (limit, 10**9, 0, 0):
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", route)
            out.append([_bits(x) for x in fn()])
        return out

    for pairs in (limit - 1, limit):
        rows = next(r for r in range(40, 1, -1) if pairs % r == 0)
        S = _pair_poly(rng, n, rows, max_len, left_cap, seed_s)
        T = _pair_poly(rng, n, pairs // rows, max_len, cap, seed_t)
        assert len(S.coeffs) * len(T.coeffs) == pairs
        default, loop, batched, warm = routes(lambda: [t_mul(S, T), t_mul(T, S)])
        assert default == loop == batched == warm
        assert "_view" in S.__dict__ and "_view" in T.__dict__
        prod = t_mul(S, T)
        assert views_equal(prod.__dict__["_view"], fresh_view(prod))
    for side in (isqrt(limit - 1), isqrt(limit)):
        S = _pair_poly(rng, n, side, max_len, left_cap, seed_s)
        copy = TensorPoly(n, dict(S.coeffs), left_cap)
        # mat_mul(Q, Q) takes t_mul(S, S) on its diagonal, t_mul(S, copy)
        # (a tie) off it
        Q = TensorMatrix(2, ((S, copy), (copy, S)))
        default, loop, batched, warm = routes(lambda: [t_mul(S, S), *mat_mul(Q, Q).entries[0]])
        assert default == loop == batched == warm
        assert "_view" in S.__dict__ and "_view" in copy.__dict__


def _graded_pair_poly(rng, n, terms, cap, seed_terms):
    """Random tensor with exactly ``terms`` coefficients, ``seed_terms``
    among them, the rest on legs of at most two letters and of modulus
    between 0.05 and 0.5 times 10^(-3 (|a| + |b|)).  Seed terms are kept as
    given, a NaN one included."""
    coeffs = {k: complex(c) for k, c in seed_terms.items()}
    while len(coeffs) < terms:
        a, b = (tuple(int(j) for j in rng.integers(1, n + 1, rng.integers(0, 3))) for _ in "ab")
        c = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform()) * 10.0 ** (-3 * len(a + b))
        coeffs.setdefault((a, b), complex(c))
    return TensorPoly._pruned(n, coeffs, cap)


@pytest.mark.parametrize(
    "n, cap, nan, code_type",
    [
        # every pair beyond the cap lies in a bidegree the bound skips
        (3, 5, False, np.int64),
        (3, 8, False, np.int64),
        # a NaN coefficient of bidegree (1, 0) keeps every bidegree whose
        # bound it enters
        (3, 8, True, np.int64),
        (30, 12, False, object),
    ],
)
def test_t_mul_grade_bound_matches_loop(monkeypatch, n, cap, nan, code_type):
    # the batched # product skips the bidegrees whose bound proves every key
    # pruned and still gives the loop's product bit for bit, with either
    # operand in the outer loop and for t_mul(S, S)
    assert WordCodes(n, cap).dtype is code_type
    rng = np.random.default_rng(cap + nan)
    limit = ncpoly.PAIR_BATCH_MIN
    # (X1X1 (x) X1) # (X1 (x) X1) and (X1 (x) X1X1) # (X1X1 (x) 1) add
    # 0.6e-14 each onto X1X1X1 (x) X1X1, both with degrees 3 + 2: the sum
    # survives the prune, while no one split of bidegree (3, 2), and no
    # bound by total degree, exceeds it
    seed_s = {((1, 1), (1,)): 0.6e-8, ((1,), (1, 1)): 0.6e-8}
    seed_t = {((1,), (1,)): 1e-6, ((1, 1), ()): 1e-6}
    key = ((1, 1, 1), (1, 1))
    formed = []
    pair_sums = ncpoly.pair_sums

    def counting(codes, re, im):
        formed.append(len(codes))
        return pair_sums(codes, re, im)

    monkeypatch.setattr(ncpoly, "pair_sums", counting)
    for pairs in (limit - 1, limit):
        rows = next(r for r in range(40, 1, -1) if pairs % r == 0)
        if nan:
            seed_s[(2,), ()] = complex("nan")
        S = _graded_pair_poly(rng, n, rows, cap, seed_s)
        T = _graded_pair_poly(rng, n, pairs // rows, cap, seed_t)
        assert len(S.coeffs) * len(T.coeffs) == pairs
        for left, right in ((S, T), (T, S), (S, S)):
            sizes = [sum(map(len, k)) for k in left.coeffs], [sum(map(len, k)) for k in right.coeffs]
            fitting = sum(u + v <= cap for u in sizes[0] for v in sizes[1])
            low = sum(u + v <= 5 for u in sizes[0] for v in sizes[1])
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 10**9)
            loop = t_mul(left, right)
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 0)
            formed.clear()
            batched = t_mul(left, right)
            warm = t_mul(left, right)  # on the operands' coded views
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
            assert _bits(t_mul(left, right)) == _bits(loop) == _bits(batched) == _bits(warm)
            assert loop.truncated == (fitting < len(left.coeffs) * len(right.coeffs))
            if left is not right:
                assert abs(loop.coeffs[key] - 1.2e-14) < 1.5e-15
            assert 0 < formed[0] < fitting
            if not nan:
                # no pair of total degree 6 or more is formed
                assert formed[0] <= low


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


SIGMA_PAIRS = [(1.0, 0.0), (0.5, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.5, -1.0)]


@pytest.mark.parametrize(
    "lambdas, num_trivial",
    # at lambda = 1.0001 the unit twist of a right leg prunes its paths with
    # four off-diagonal entries
    [([2.0], 0), ([2.0, 3.0], 0), ([1.0001], 0), ([], 2)],
    ids=["lam2", "lam2_3", "lam1.0001", "tracial2"],
)
def test_t_sigma_matches_per_term_form(lambdas, num_trivial, rng):
    # the one-dict accumulation gives the per-term tensors summed by
    # TensorPoly.sum bit for bit: keys, key order, coefficients with the
    # sign of zero, and taint
    ctx = build_context(lambdas, num_trivial)
    n = ctx.num_vars
    inputs = [random_tensor(ctx, rng, 4, terms=12) for _ in range(3)]
    S = inputs[0]
    inputs.append(TensorPoly(n, S.coeffs, S.degree_cap, True))
    # a leg pair over the cap drops and taints; signed zeros; the empty pair
    inputs.append(TensorPoly(n, {
        ((), ()): complex(-1.0, -0.0),
        ((1,), (2,)): complex(-0.0, 2.0),
        ((1, 2, 1), (2, 2)): 0.5,
        ((2,), (1,)): complex(0.0, -0.0),
    }, 4))
    # coefficients near PRUNE_TOL: on the lambda=2 block some paths of the
    # left leg prune, and so do some products of the kept paths with the
    # right leg's twist
    inputs.append(TensorPoly(n, {((1,), (1, 2)): 2.5e-14, ((2,), (2, 2)): 1.5e-14, ((2,), (1,)): 1.1e-14j}, 6))
    # products at or below PRUNE_TOL onto keys that larger terms have made
    inputs.append(TensorPoly(n, {
        ((), (1,)): 1.0, ((), (2,)): 1.2e-14, ((1,), (1,)): 1.0, ((1,), (2,)): 1.2e-14,
    }, 6))
    # a right leg whose unit twist prunes (at lambda = 1.0001) under a
    # coefficient large enough to lift the pruned paths above PRUNE_TOL
    inputs.append(TensorPoly(n, {((1,), (1, 2, 1, 2)): 1e4, ((2,), (2, 1, 2, 1)): -3e3j}, 6))
    pairs = {pair: list(inputs) for pair in SIGMA_PAIRS}
    if lambdas:
        for (sl, sr), cases in pairs.items():
            # on the twisted leg, the keys X_1 X_k of X_1 X_1 and x X_2 X_1
            # cancel below PRUNE_TOL, and X_1 X_2 brings them back at the end
            M = matrix_power(ctx, -(sl or sr))
            x = complex(-M[0, 0] / M[1, 0])

            def pair(word):
                return (word, ()) if sl != 0.0 else ((), word)

            cancel = TensorPoly(n, {pair((1, 1)): 1.0, pair((2, 1)): x}, 6)
            ends = [pair((1, 1)), pair((1, 2))]
            assert not set(ends) & set(t_sigma(ctx, cancel, sl, sr).coeffs)
            back = TensorPoly(n, {**cancel.coeffs, pair((1, 2)): 0.5}, 6)
            assert list(t_sigma(ctx, back, sl, sr).coeffs)[-2:] == ends
            cases += [cancel, back]
    for _ in range(2):  # a cold and a warm sigma table
        for (sl, sr), cases in pairs.items():
            for T in cases:
                got = t_sigma(ctx, T, sl, sr)
                assert _bits(got) == _bits(t_sigma_reference(ctx, T, sl, sr))
                if ctx.is_tracial:
                    assert got is T
            assert t_sigma(ctx, inputs[4], sl, sr).truncated != ctx.is_tracial


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
