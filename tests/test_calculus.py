import numpy as np
import pytest

from nctransport import arakiwoods, calculus, ncpoly
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
from nctransport.arakiwoods import build_xi, conjugate_vars, invert_xi, natural_radius, potential_W
from nctransport.errors import IndexOutOfRange
from nctransport.modular import apply_sigma, build_context
from nctransport.moments import MomentOracle
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
from nctransport.transport import F_map, TransportConfig
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
    cyclic_D_loop,
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


def test_grad_D_builds_one_plan_and_keeps_none(monkeypatch, lam2, rng):
    # one plan per call, read by every component's cyclic_D, held by the
    # call and kept on no polynomial
    built = []
    twist_plan = calculus._twist_plan

    def counting(ctx, P):
        built.append(P)
        return twist_plan(ctx, P)

    monkeypatch.setattr(calculus, "_twist_plan", counting)
    p = random_poly(lam2, rng, 5, cap=6)
    before = dict(vars(p))
    for _ in range(2):
        built.clear()
        got = grad_D(lam2, p)
        assert len(built) == 1 and built[0] is p
        assert vars(p) == before
    assert [_bits(d) for d in got] == [_bits(cyclic_D(lam2, j, p)) for j in (1, 2)]


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
    "lambdas, num_trivial",
    # at lambda = 1.0001 the twist of a tail prunes its paths with four
    # off-diagonal entries
    [([2.0], 0), ([2.0, 3.0], 0), ([1.0001], 0), ([], 1)],
    ids=["lam2", "lam2_3", "lam1.0001", "trivial1"],
)
def test_cyclic_derivative_matches_per_term_form(lambdas, num_trivial, rng):
    # the array sums give the dict loop's result and the per-term products
    # summed by NCPoly.sum, bit for bit: keys, key order, coefficients and
    # taint
    ctx = build_context(lambdas, num_trivial)
    n = ctx.num_vars
    inputs = [random_poly(ctx, rng, 6, cap=6, terms=12) for _ in range(4)]
    p = inputs[0]
    inputs.append(NCPoly(n, p.coeffs, p.degree_cap, True))
    # the word beyond the cap drops its terms and taints
    inputs.append(NCPoly(n, {(1, 1): 0.5, (1,) * 6: 1.0}, 4))
    if lambdas:
        # tails whose twist prunes (at lambda = 1.0001) under a coefficient
        # large enough to lift the pruned paths above PRUNE_TOL
        inputs.append(NCPoly(n, {(2, 1, 2, 1, 2): 1e4, (1, 2, 1, 2, 1): -3e3j}, 6))
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
            got = _bits(cyclic_D(ctx, j, P))
            assert got == _bits(cyclic_D_loop(ctx, j, P)) == _bits(cyclic_D_reference(ctx, j, P))


@pytest.fixture(scope="module")
def two_block():
    """The two-block (lambda = [2, 3], N = 4) pipeline at q = 1e-5, level 4,
    cap 6, R = 7: its potential V and its transport solve's first iterate,
    after ``sigma_inv_op``, the input of that iteration's cyclic gradient."""
    ctx = build_context([2.0, 3.0])
    q = 1e-5
    xi = build_xi(ctx, q, 4)
    inv = invert_xi(ctx, xi, natural_radius(q, 1.0), 1e-9, 1.0)
    V = potential_W(ctx, conjugate_vars(ctx, xi, inv, MomentOracle(ctx, q))).V
    cfg = TransportConfig(R=7.0, R_prime=8.0, degree_cap=6, tolerance=1e-9)
    W = (V - quadratic_potential(ctx, V.degree_cap)).with_cap(cfg.degree_cap)
    f = grad_D(ctx, sigma_inv_op(W))
    ghat = symmetrize_S(ctx, pi_op(F_map(ctx, MomentOracle(ctx, 0.0), W, W, cfg, f)))
    return ctx, {"V": V, "iterate": sigma_inv_op(ghat)}


@pytest.mark.parametrize("name", ["V", "iterate"])
def test_cyclic_derivative_replays_every_drop(two_block, name):
    # on these inputs the dict loop's sums fall to PRUNE_TOL again and again:
    # each drops its key, which a later term inserts again at the end.  The
    # array sums give the loop's result and the per-term form's, bit for
    # bit, on a fresh polynomial and on one whose plan is kept
    ctx, inputs = two_block
    P = inputs[name]
    fresh = NCPoly(P.num_vars, P.coeffs, P.degree_cap, P.truncated)
    drops = back = 0
    for j in range(1, ctx.num_vars + 1):
        dropped: list = []
        loop = cyclic_D_loop(ctx, j, P, dropped)
        drops += len(dropped)
        back += len(set(dropped) & set(loop.coeffs))
        assert _bits(cyclic_D(ctx, j, fresh)) == _bits(loop) == _bits(cyclic_D_reference(ctx, j, P))
        assert _bits(cyclic_D(ctx, j, P)) == _bits(loop)
    assert drops >= 100 and back > 0


@pytest.mark.parametrize(
    "lambdas, num_trivial", [([2.0], 0), ([2.0], 1), ([], 2)], ids=["lam2", "lam2_triv1", "trivial2"]
)
def test_cyclic_derivative_edge_cases(lambdas, num_trivial):
    # the array route against the dict loop and the per-term form, bit for
    # bit, where the loop's skips, prunes and taint decide the result
    ctx = build_context(lambdas, num_trivial)
    n, cap = ctx.num_vars, 4
    nan = complex(float("nan"), 0.0)
    # |alpha_1n| < 1 on the block, 0 off it: c alpha_1n is pruned for j = 1
    tiny = 1.2e-14
    inputs = {
        # a NaN coefficient is kept, in every sum it enters, never dropped
        "nan": NCPoly(n, {(1, n, 1): nan, (n, 1): 1.0, (1,): 0.5, (1, 1): -0.5}, cap),
        # a word of cap + 1 letters fits, one of cap + 2 taints when one of
        # its terms is kept
        "cap + 1": NCPoly(n, {(1,) * (cap + 1): 1.0, (n, 1): 0.5}, cap),
        "cap + 2": NCPoly(n, {(1,) * (cap + 2): 1.0, (n, 1): 0.5}, cap),
        "cap + 2, pruned for j = 1": NCPoly(n, {(n,) * (cap + 2): tiny}, cap),
        "every term pruned for j = 1": NCPoly(n, {(n,): tiny, (n, n, n): tiny}, cap),
        "empty": NCPoly(n, {}, cap),
        "empty, tainted": NCPoly(n, {}, cap, True),
        "constant": NCPoly(n, {(): 3.0}, cap),
        "constant, tainted": NCPoly(n, {(): 3.0}, cap, True),
        # signed zeros, which 0j + ct * m clears
        "signed zeros": NCPoly(
            n, {(): complex(-1.0, -0.0), (1,): complex(-1.0, -0.0), (n, 1): complex(-0.0, 2.0)}, cap
        ),
    }
    got = {}
    for name, P in inputs.items():
        for j in range(1, n + 1):
            got[name, j] = out = cyclic_D(ctx, j, P)
            assert _bits(out) == _bits(cyclic_D_loop(ctx, j, P)), (name, j)
            assert _bits(out) == _bits(cyclic_D_reference(ctx, j, P)), (name, j)
    assert any(c != c for c in got["nan", 1].coeffs.values())
    assert not got["cap + 1", 1].truncated and (1,) * cap in got["cap + 1", 1].coeffs
    assert got["cap + 2", 1].truncated
    assert got["cap + 2, pruned for j = 1", 1].is_zero()
    assert not got["cap + 2, pruned for j = 1", 1].truncated
    assert got["cap + 2, pruned for j = 1", n].truncated
    assert got["every term pruned for j = 1", 1].is_zero()
    for name in ("empty", "constant"):
        for j in range(1, n + 1):
            assert got[name, j].is_zero() and not got[name, j].truncated
            assert got[name + ", tainted", j].is_zero() and got[name + ", tainted", j].truncated
    assert all(c.imag.hex() != "-0x0.0p+0" for c in got["signed zeros", 1].coeffs.values())


def _near_tol(rng) -> list[complex]:
    # values within a few ulps of PRUNE_TOL, on and off the axes, with
    # signed zeros, subnormals, NaN and inf
    tol = PRUNE_TOL
    near = [tol * (1 + k * 2.0**-52) for k in range(-8, 9)]
    parts = near + [0.0, -0.0, 5e-324, 1e-200, tol / 2**0.5, 1e-14 * 0.7, 1e300, float("inf"), float("nan")]
    values = [complex(a, b) for a in parts + [-x for x in parts] for b in (0.0, -0.0, *parts)]
    # near the circle |z| = PRUNE_TOL off the axes, where the squared modulus
    # rounds the other way than hypot
    values += [complex(d * (1 + k * 2.0**-52), d) for d in (tol / 2**0.5,) for k in range(-8, 9)]
    values += [complex(x, y) for x, y in (tol * rng.random((400, 2)) * 1.5).tolist()]
    return values


def test_prune_mask_decides_as_python_abs(rng):
    # the squared modulus decides far from PRUNE_TOL, hypot near it: the
    # mask equals abs(complex) <= PRUNE_TOL, NaN and inf included
    values = _near_tol(rng)
    re = np.array([z.real for z in values])
    im = np.array([z.imag for z in values])
    with np.errstate(over="ignore"):
        got = ncpoly._prunes(re, im)
    assert got.tolist() == [abs(z) <= PRUNE_TOL for z in values]


def test_array_prunes_keep_what_python_abs_keeps(rng, monkeypatch):
    # pair_sums and the kernel's level blocks keep exactly the values with
    # not abs(z) <= PRUNE_TOL
    values = _near_tol(rng)
    want = [i for i, z in enumerate(values) if not abs(z) <= PRUNE_TOL]
    re = np.array([z.real for z in values])
    im = np.array([z.imag for z in values])
    first, _, _ = ncpoly.pair_sums(np.arange(len(values)), re, im)
    assert first.tolist() == want
    # the level-1 block of N trivial generators, overwritten with the values
    # where the kernel decides which entries it keeps (no kernel block holds
    # the values that overflow the square)
    n = int(np.ceil(len(values) ** 0.5))
    block = np.ones(n * n, complex)
    block[: len(values)] = values
    prunes = arakiwoods._prunes

    def overwriting(re, im):
        re[...], im[...] = block.real.reshape(re.shape), block.imag.reshape(im.shape)
        with np.errstate(over="ignore"):
            return prunes(re, im)

    monkeypatch.setattr(arakiwoods, "_prunes", overwriting)
    xi = build_xi(build_context([], n), 0.5, 1).xi
    kept = [i * n + j for (a, b), _ in xi.coeffs.items() if a for i, j in [(a[0] - 1, b[0] - 1)]]
    assert [i for i in kept if i < len(values)] == want


def test_cyclic_derivative_on_python_int_codes(rng):
    # at N = 4 and cap 31 the key codes outgrow int64 and are Python ints
    ctx = build_context([2.0, 3.0])
    P = random_poly(ctx, rng, 6, cap=31, terms=30)
    assert ncpoly._word_codes(4, 31).dtype is object
    for j in range(1, 5):
        assert _bits(cyclic_D(ctx, j, P)) == _bits(cyclic_D_loop(ctx, j, P))


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
        assert max_coeff_diff(rho(lam2, s), s) < 1e-9


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
