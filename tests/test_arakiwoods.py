import dataclasses
import itertools

import numpy as np
import pytest

from nctransport import arakiwoods, build_context
from nctransport.arakiwoods import (
    RunConfig,
    XiData,
    XiInverse,
    _grams,
    _wick,
    build_xi,
    conjugate_check,
    conjugate_vars,
    invert_xi,
    natural_radius,
    orthonormal_basis,
    pi_bound,
    potential_W,
    q_gram,
    q_isomorphism_pipeline,
)
from nctransport.calculus import partial_bar, partial_sigma
from nctransport.errors import (
    DenominatorNonpositive,
    GramNotPositive,
    LevelTooLarge,
)
from nctransport.modular import apply_sigma
from nctransport.moments import MomentOracle
from nctransport.ncpoly import NCPoly, max_coeff_diff, quadratic_potential
from nctransport.tensor import (
    TensorPoly,
    max_pair_diff,
    pi_norm_bound,
    t_dagger,
    t_diamond,
    t_mul,
    t_sigma,
)
from nctransport.transport import HypothesisReport, check_hypotheses
from oracles import (
    build_xi_per_vector_reference,
    build_xi_reference,
    inner,
    q_gram_levelwise_reference,
    q_gram_reference,
    wick_poly,
    wick_reference,
)

TOL = 1e-12


def test_wick_single_letters(lam2):
    for j in (1, 2):
        got = wick_poly(lam2, 0.3, (j,))
        assert got.coeffs == {(j,): 1.0 + 0.0j}
    assert wick_poly(lam2, 0.3, ()).coeffs == {(): 1.0 + 0.0j}


def test_wick_hermite_recursion(ctx1):
    # one generator: X psi_n - [n]_q psi_{n-1} with q-integers [n]_q
    for q in (-0.4, 0.0, 0.5):
        psi2 = wick_poly(ctx1, q, (1, 1))
        assert max_coeff_diff(psi2, NCPoly(1, {(1, 1): 1.0, (): -1.0}, 2)) < TOL
        psi3 = wick_poly(ctx1, q, (1, 1, 1))
        expected = NCPoly(1, {(1, 1, 1): 1.0, (1,): -(2.0 + q)}, 3)
        assert max_coeff_diff(psi3, expected) < TOL
        x = NCPoly.gen(1, 1, 6)
        psi4 = wick_poly(ctx1, q, (1, 1, 1, 1))
        n_q = 1.0 + q + q * q
        assert max_coeff_diff(psi4, (x * psi3.with_cap(6)) - psi2.with_cap(6).scale(n_q)) < TOL


def test_wick_vectors_reproduce_gram(lam2):
    # <psi_u, psi_v> under the deformed state equals the level Gram entry
    q = 0.25
    o = MomentOracle(lam2, q)
    for n in (1, 2, 3):
        words = list(itertools.product((1, 2), repeat=n))
        gram = q_gram(lam2, q, n)
        for iu, u in enumerate(words):
            for iv, v in enumerate(words):
                pu = wick_poly(lam2, q, u)
                pv = wick_poly(lam2, q, v)
                assert abs(inner(o, pu, pv) - gram[iu, iv]) < 1e-10


def test_q_gram_level_one_orientation(lam2):
    gram = q_gram(lam2, 0.3, 1)
    # entry (u, v) is <e_u, e_v>_U, the transpose of alpha
    assert np.max(np.abs(gram - lam2.alpha.T)) < TOL


def test_q_gram_single_generator(ctx1):
    assert q_gram(ctx1, 0.3, 2)[0, 0] == pytest.approx(1.3)
    # [n]_q! diagonal growth: level 3 Gram is (1+q)(1+q+q^2)
    q = 0.3
    assert q_gram(ctx1, q, 3)[0, 0] == pytest.approx((1 + q) * (1 + q + q * q))


def test_q_gram_kron_at_zero(lam2):
    g1 = q_gram(lam2, 0.0, 1)
    g2 = q_gram(lam2, 0.0, 2)
    assert np.max(np.abs(g2 - np.kron(g1, g1))) < TOL


def test_q_gram_level_cap():
    # level 10 has N^n = 1024 = MAX_GRAM_DIM words and is built; level 11
    # (2048) and level 13 (8192) are over the bound and refused
    ctx = build_context([], 2)
    assert arakiwoods.MAX_GRAM_DIM == 2**10
    assert q_gram(ctx, 0.1, 10).shape == (1024, 1024)
    for n in (11, 13):
        with pytest.raises(LevelTooLarge, match=f"level {n} over 2 generators"):
            q_gram(ctx, 0.1, n)


@pytest.mark.parametrize("q", [0.0, 0.005, 0.3, -0.4])
def test_q_gram_matches_permutation_sum(q):
    for lambdas, top in (([2.0], 5), ([2.0, 3.0], 3)):
        ctx = build_context(lambdas)
        for n in range(top + 1):
            got, want = q_gram(ctx, q, n), q_gram_reference(ctx, q, n)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < TOL


@pytest.mark.parametrize("q", [0.0, 0.005, 0.3, -0.4])
def test_grams_share_one_recursion(q):
    # each level of the one recursion build_xi runs is the single-level
    # q_gram and the Gram of a recursion run for that level alone, bit for bit
    for lambdas, top in (([2.0], 5), ([2.0, 3.0], 4)):
        ctx = build_context(lambdas)
        grams = list(_grams(ctx, q, top))
        assert len(grams) == top
        for n, gram in enumerate(grams, 1):
            for want in (q_gram(ctx, q, n), q_gram_levelwise_reference(ctx, q, n)):
                assert (gram.dtype, gram.shape, gram.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_grams_check_each_level_before_its_step():
    # 17 generators: 17^3 is over MAX_GRAM_DIM, so build_xi stops at level
    # 3 after building levels 1 and 2; at q = -1 the level-2 Gram is
    # singular, and that error comes first
    ctx = build_context([], 17)
    with pytest.raises(LevelTooLarge, match="level 3 over 17 generators"):
        build_xi(ctx, 0.1, 3)
    with pytest.raises(GramNotPositive):
        build_xi(ctx, -1.0, 3)


def _bits(p):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in p.coeffs.items()], p.degree_cap, p.truncated


@pytest.mark.parametrize("lambdas, top", [([2.0], 5), ([2.0, 3.0], 4)])
def test_wick_matches_sum_of_polynomials(lambdas, top):
    # the one-dict recursion gives the polynomials of the product, scale and
    # sum route bit for bit: keys, key order, both parts of every
    # coefficient and taint
    ctx = build_context(lambdas)
    for q in (0.005, 0.3, -0.4):
        memo, ref_memo = {}, {}
        for n in range(top + 1):
            for word in itertools.product(range(1, ctx.num_vars + 1), repeat=n):
                got = _wick(ctx, q, word, memo)
                assert _bits(got) == _bits(wick_reference(ctx, q, word, ref_memo))


@pytest.mark.parametrize("lambdas, d", [([2.0], 5), ([2.0, 3.0], 4)])
def test_build_xi_matches_levelwise_build(lambdas, d):
    # one Gram recursion, the one-dict Wick polynomials and the blocks
    # wrapped without a second prune give the kernel of per-level Grams,
    # summed Wick polynomials and constructor-built blocks, bit for bit
    ctx = build_context(lambdas)
    for q in (0.005, -0.3):
        got, want = build_xi(ctx, q, d), build_xi_reference(ctx, q, d)
        assert got.max_level == want.max_level
        assert _bits(got.xi) == _bits(want.xi)


def test_q_gram_single_generator_closed_form(ctx1):
    # one generator: the level-n Gram is the q-factorial [1]_q [2]_q ... [n]_q
    for q in (0.3, -0.4, 0.9):
        fact = 1.0
        for n in range(9):
            if n:
                fact *= sum(q**k for k in range(n))
            assert q_gram(ctx1, q, n)[0, 0] == pytest.approx(fact, rel=1e-12)


def test_orthonormal_basis_single_generator(ctx1):
    q = 0.3
    assert orthonormal_basis(ctx1, q, 0)[0].coeffs == {(): 1.0 + 0.0j}
    fam1 = orthonormal_basis(ctx1, q, 1)
    assert max_coeff_diff(fam1[0], NCPoly.gen(1, 1, 1)) < 1e-10
    fam = orthonormal_basis(ctx1, q, 2)
    expected = NCPoly(1, {(1, 1): 1.0, (): -1.0}, 2).scale(1.0 / np.sqrt(1 + q))
    assert max_coeff_diff(fam[0], expected) < 1e-10


def test_orthonormal_basis_gram_identity(lam2):
    for q in (0.0, 0.2, -0.3):
        o = MomentOracle(lam2, q)
        for n in (1, 2, 3):
            fam = orthonormal_basis(lam2, q, n)
            for i, ri in enumerate(fam):
                for j, rj in enumerate(fam):
                    got = inner(o, ri, rj)
                    assert abs(got - (1.0 if i == j else 0.0)) < 1e-8


def test_orthonormal_family_is_complete(lam2, rng):
    # expanding a polynomial against the family reproduces it degreewise
    q = 0.2
    o = MomentOracle(lam2, q)
    fams = {n: orthonormal_basis(lam2, q, n) for n in range(4)}
    from nctransport.randgen import random_poly

    p = random_poly(lam2, rng, 3, cap=6)
    recon = NCPoly.zero(2, 6)
    for n, fam in fams.items():
        for r in fam:
            recon = recon + r.with_cap(6).scale(inner(o, r, p))
    assert max_coeff_diff(recon, p) < 1e-8


def test_build_xi_trivial(ctx1, lam2):
    for ctx in (ctx1, lam2):
        xi = build_xi(ctx, 0.0, 4)
        assert max_pair_diff(xi.xi, TensorPoly.one(ctx.num_vars, xi.xi.degree_cap)) == 0.0


def test_build_xi_single_generator_levels(ctx1):
    q = 0.3
    xi = build_xi(ctx1, q, 2)
    r2 = NCPoly(1, {(1, 1): 1.0, (): -1.0}, 2).scale(1.0 / np.sqrt(1 + q))
    expected = TensorPoly.one(1, 4)
    expected = expected + TensorPoly.elementary(1, (1,), (1,), q, cap=4)
    from nctransport.tensor import tensor_of

    expected = expected + tensor_of(r2, r2.adjoint(), 4).scale(q * q)
    assert max_pair_diff(xi.xi, expected) < 1e-10


@pytest.mark.parametrize("q", [0.005, 0.2, -0.3])
def test_build_xi_matches_per_vector_assembly(q):
    for lambdas, top in (([2.0], 4), ([2.0, 3.0], 3)):
        ctx = build_context(lambdas)
        for d in range(top + 1):
            got, want = build_xi(ctx, q, d), build_xi_per_vector_reference(ctx, q, d)
            assert got.max_level == want.max_level
            assert got.xi.degree_cap == want.xi.degree_cap
            assert (got.xi.truncated, want.xi.truncated) == (False, False)
            assert got.xi.coeffs.keys() == want.xi.coeffs.keys()
            assert max_pair_diff(got.xi, want.xi) < TOL


@pytest.mark.parametrize("lambdas, num_trivial", [([], 1), ([2.0], 0), ([2.0, 3.0], 0)])
def test_build_xi_gram_not_positive(lambdas, num_trivial):
    # at q = -1 the level-n Gram is an antisymmetrizer, singular for n >= 2;
    # at q = 1 it is a symmetrizer, singular for n >= 2 over two or more
    # generators.  Inside (-1, 1) it stays positive definite.
    ctx = build_context(lambdas, num_trivial)
    singular = [-1.0, -1.0 + 1e-13] + ([1.0, 1.0 - 1e-13] if ctx.num_vars > 1 else [])
    for d in (2, 3):
        for q in singular:
            with pytest.raises(GramNotPositive):
                build_xi(ctx, q, d)
        for q in (0.5, -0.5, 0.999, -0.999):
            assert build_xi(ctx, q, d).max_level == d


def test_xi_is_dagger_fixed(lam2):
    xi = build_xi(lam2, 0.2, 3)
    assert max_pair_diff(t_dagger(xi.xi), xi.xi) < 1e-10


def test_xi_is_modular_invariant(lam2):
    # both-legs twist fixes each level block
    xi = build_xi(lam2, 0.2, 3)
    for s in (0.5, -1.0):
        assert max_pair_diff(t_sigma(lam2, xi.xi, s, s), xi.xi) < 1e-8


def test_pi_bound_values():
    assert pi_bound(0.0, 1, 1.0, 1.0) == 0.0
    assert pi_bound(0.01, 1, 1.0, 1.0) == pytest.approx(0.32 / 1.64)
    with pytest.raises(DenominatorNonpositive):
        pi_bound(0.5, 2, 2.0, 1.0)


def test_invert_xi_neumann(ctx1):
    q = 0.05
    xi = build_xi(ctx1, q, 6)
    inv = invert_xi(ctx1, xi, natural_radius(q, 1.0), 1e-12, 1.0)
    assert inv.residual < 1e-10
    prod = t_mul(xi.xi, inv.inverse)
    one = TensorPoly.one(1, prod.degree_cap)
    assert max_pair_diff(prod, one) < 1e-10


def test_xi_deviation_below_closed_form(ctx1):
    for q in (0.01, 0.02):
        r = natural_radius(q, 1.0)
        xi = build_xi(ctx1, q, 6)
        dev = pi_norm_bound(xi.xi - TensorPoly.one(1, xi.xi.degree_cap), r)
        assert dev <= pi_bound(q, 1, 1.0, 1.0)


def test_conjugate_vars_trivial(ctx1, lam2):
    for ctx in (ctx1, lam2):
        xi = build_xi(ctx, 0.0, 4)
        inv = invert_xi(ctx, xi, 3.0, 1e-12, 1.0)
        o = MomentOracle(ctx, 0.0)
        got = conjugate_vars(ctx, xi, inv, o)
        for j in range(ctx.num_vars):
            assert max_coeff_diff(got[j], NCPoly.gen(ctx.num_vars, j + 1, got[j].degree_cap)) < TOL


def test_conjugate_vars_carry_truncation(lam2):
    # the Neumann inverse drops words beyond its cap; the conjugate variables
    # built from it must say so
    q = 3e-5
    xi = build_xi(lam2, q, 4)
    inv = invert_xi(lam2, xi, natural_radius(q, 1.0), 1e-9, 1.0)
    assert inv.inverse.truncated
    xv = conjugate_vars(lam2, xi, inv, MomentOracle(lam2, q))
    assert all(p.truncated for p in xv)


def test_conjugate_pairing_single_generator(ctx1):
    q = 0.05
    o = MomentOracle(ctx1, q)
    xi = build_xi(ctx1, q, 6)
    inv = invert_xi(ctx1, xi, natural_radius(q, 1.0), 1e-12, 1.0)
    xv = conjugate_vars(ctx1, xi, inv, o)
    assert conjugate_check(ctx1, o, xv, 4) < 1e-6
    # self-adjoint
    assert max_coeff_diff(xv[0], xv[0].adjoint()) < 1e-10


LAM2_Q = 0.02


@pytest.fixture(scope="module")
def lam2_conjugates(lam2):
    """Non-tracial conjugate variables; built once per module for speed.
    Level 3 is too coarse at this q (the symmetry check trips), so level 4."""
    o = MomentOracle(lam2, LAM2_Q)
    xi = build_xi(lam2, LAM2_Q, 4)
    inv = invert_xi(lam2, xi, natural_radius(LAM2_Q, 1.0), 1e-12, 1.0)
    xv = conjugate_vars(lam2, xi, inv, o)
    return o, xi, xv


class TestLambdaTwoConjugates:
    q = LAM2_Q

    @pytest.fixture()
    def setup(self, lam2_conjugates):
        return lam2_conjugates

    def test_pairing(self, lam2, setup):
        o, xi, xv = setup
        assert conjugate_check(lam2, o, xv, 2) < 1e-6

    def test_self_adjoint(self, lam2, setup):
        _, _, xv = setup
        for p in xv:
            assert max_coeff_diff(p, p.adjoint()) < 1e-9

    def test_modular_eigenvector(self, lam2, setup):
        # the twist at -i acts on conjugate variables through the matrix A
        _, _, xv = setup
        for j in (1, 2):
            lhs = apply_sigma(lam2, xv[j - 1], -1.0)
            rhs = NCPoly.zero(2, xv[j - 1].degree_cap)
            for k in (1, 2):
                rhs = rhs + xv[k - 1].scale(complex(lam2.A[j - 1, k - 1]))
            assert max_coeff_diff(lhs, rhs) < 1e-8

    def test_hessian_symmetry(self, lam2, setup):
        # mixed twisted derivatives of the family agree after a right-leg
        # twist followed by the leg swap
        _, _, xv = setup
        for j in (1, 2):
            for k in (1, 2):
                lhs = partial_sigma(lam2, k, xv[j - 1])
                rhs = t_diamond(t_sigma(lam2, partial_bar(lam2, j, xv[k - 1]), 0.0, -1.0))
                assert max_pair_diff(lhs.with_cap(40), rhs.with_cap(40)) < 1e-5

    def test_potential(self, lam2, setup):
        _, _, xv = setup
        pot = potential_W(lam2, xv)
        assert pot.grad_residual < 1e-6
        from nctransport.ncpoly import is_cyclically_symmetric

        assert is_cyclically_symmetric(lam2, pot.V, tol=1e-7)


def test_distance_to_generator_bound(ctx1):
    # |xi_j - X_j| at the natural radius is controlled by the kernel data
    q = 0.05
    c = 1.0
    o = MomentOracle(ctx1, q)
    r = natural_radius(q, c)
    xi = build_xi(ctx1, q, 6)
    inv = invert_xi(ctx1, xi, r, 1e-12, c)
    xv = conjugate_vars(ctx1, xi, inv, o)
    from nctransport.ncpoly import norm_R

    lhs = norm_R(xv[0] - NCPoly.gen(1, 1, xv[0].degree_cap), r)
    twisted = t_sigma(ctx1, inv.inverse, 1.0, 0.0)
    dev = pi_norm_bound(twisted - TensorPoly.one(1, twisted.degree_cap), r)
    bound = dev * (r + (2 * (1 - q) / c) * pi_norm_bound(xi.xi, r))
    assert lhs <= bound + 1e-9


def test_potential_trivial(ctx1, lam2):
    for ctx in (ctx1, lam2):
        xs = [NCPoly.gen(ctx.num_vars, j + 1, 8) for j in range(ctx.num_vars)]
        pot = potential_W(ctx, xs)
        v0 = quadratic_potential(ctx, pot.V.degree_cap)
        assert max_coeff_diff(pot.V, v0) < TOL
        assert pot.W.is_zero()
        assert pot.grad_residual < TOL


def test_potential_norm_shrinks_with_q(ctx1):
    from nctransport.ncpoly import norm_R_sigma

    norms = []
    for q in (0.01, 0.005, 0.002):
        o = MomentOracle(ctx1, q)
        xi = build_xi(ctx1, q, 6)
        inv = invert_xi(ctx1, xi, natural_radius(q, 1.0), 1e-12, 1.0)
        xv = conjugate_vars(ctx1, xi, inv, o)
        pot = potential_W(ctx1, xv)
        norms.append(norm_R_sigma(ctx1, pot.W.with_cap(6), 4.0).value)
    assert norms[0] > norms[1] > norms[2] > 0


def test_pipeline_trivial():
    cfg = RunConfig(lambdas=[], num_trivial=1, R=4.0, R_prime=5.0, rho=1.0, degree_cap=6,
                    tolerance=1e-10, level_cap=4)
    rep = q_isomorphism_pipeline(cfg, 4, None)
    assert rep["pass"]
    assert rep["sd_residual"] < 1e-12
    assert rep["norm_W_Rsigma"] == 0.0
    assert rep["transport"]["iterations"] == 0
    assert rep["monotone_certified"]
    assert rep["inverse_residual"] < 1e-12


LAM2_RUN = dict(lambdas=[2.0], R=6.0, R_prime=7.0, rho=1.0, degree_cap=6, tolerance=1e-9,
                level_cap=4)


def test_pipeline_nontracial_strict_regime():
    # small enough deformation that the sufficient inequalities hold and the
    # whole chain runs with the hypothesis gate enforced
    import warnings

    cfg = RunConfig(**LAM2_RUN, q=3e-5, strict_hypotheses=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = q_isomorphism_pipeline(cfg, 3, None)
    assert rep["hypotheses"]["pass"]
    assert rep["pass"]
    assert rep["sd_residual"] < 1e-9
    assert rep["monotone_certified"]
    assert rep["inverse_residual"] < 1e-12


def test_pipeline_nontracial_reports_gap():
    # here the perturbation norm is far outside the contractive ball at the
    # smallest admissible radius, so the pipeline must come back with a
    # quantified hypothesis report instead of crashing
    import warnings

    cfg = RunConfig(**LAM2_RUN, q=0.005)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = q_isomorphism_pipeline(cfg, 3, None)
    assert not rep["pass"]
    hyp = rep["hypotheses"]
    assert not hyp["pass"] and hyp["norm_W_Rsigma"] > hyp["bound_W"]
    assert 0.0 < hyp["q_estimate_pass"] < 0.005
    assert rep["transport"]["completed"] is False
    assert "error" in rep["transport"]


@pytest.mark.parametrize("lambdas, q", [([2.0], 3e-5), ([2.0], 0.005), ([2.0, 3.0], 1e-5)])
def test_xi_deviation_is_the_bound_of_xi_minus_one(lambdas, q):
    # the inversion's deviation is |1 - Xi|, bit for bit the |Xi - 1| the
    # pipeline reports as xi_deviation
    ctx = build_context(lambdas)
    r = natural_radius(q, 1.0)
    xi = build_xi(ctx, q, 4)
    inv = invert_xi(ctx, xi, r, 1e-9, 1.0)
    want = pi_norm_bound(xi.xi - TensorPoly.one(ctx.num_vars, xi.xi.degree_cap), r)
    assert inv.deviation.hex() == want.hex()


def test_stage_results_are_frozen(lam2):
    xi = build_xi(lam2, 3e-5, 2)
    inv = invert_xi(lam2, xi, natural_radius(3e-5, 1.0), 1e-9, 1.0)
    cfg = RunConfig(**LAM2_RUN)
    hyp = check_hypotheses(lam2, NCPoly.zero(2, 6), cfg)
    for value, kind, name in ((xi, XiData, "xi"), (inv, XiInverse, "inverse"),
                              (hyp, HypothesisReport, "pass_")):
        assert type(value) is kind
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
