import copy
import dataclasses

import numpy as np
import pytest

from nctransport import arakiwoods, build_context, calculus, cli, selftest
from nctransport.calculus import cyclic_D, partial_bar, partial_sigma
from nctransport.errors import EmptyContext, NonPositiveLambda, VarCountMismatch
from nctransport.modular import apply_sigma, matrix_power, twist_paths
from nctransport.moments import MomentOracle
from nctransport.ncpoly import PRUNE_TOL, NCPoly, max_coeff_diff, quadratic_potential, rho
from nctransport.randgen import random_poly, random_tensor
from nctransport.tensor import TensorPoly, t_sigma
from oracles import (
    apply_sigma_reference,
    cyclic_D_loop,
    cyclic_D_reference,
    moment_reference,
    rho_reference,
    t_sigma_reference,
    weighted_delta_reference,
)

TOL = 1e-10


def test_block_matrix_for_lambda_two(lam2):
    expected = np.array([[1.25, -0.75j], [0.75j, 1.25]])
    assert np.max(np.abs(lam2.A - expected)) < TOL


def test_trivial_context_is_identity():
    ctx = build_context([], 3)
    assert np.allclose(ctx.A, np.eye(3))
    assert np.allclose(ctx.alpha, np.eye(3))
    assert ctx.norm_A == 1.0


def test_alpha_solves_hermitian_system(lam2):
    # alpha = 2 (1 + A)^{-1}, known in closed form for the block parameter 2
    expected = np.array([[1.0, 1j / 3.0], [-1j / 3.0, 1.0]])
    assert np.max(np.abs(lam2.alpha - expected)) < TOL


def test_spectrum_and_transpose_inverse():
    for lams, nt in ([(2.0,), 0], [(2.0, 5.0), 1], [(0.7,), 2]):
        ctx = build_context(list(lams), nt)
        eigs = np.sort(np.linalg.eigvalsh(ctx.A))
        expected = sorted(
            [1.0] * nt + [l for l in lams] + [1.0 / l for l in lams]
        )
        assert np.max(np.abs(eigs - np.array(expected))) < TOL
        assert np.max(np.abs(ctx.A.T - np.linalg.inv(ctx.A))) < TOL
        assert ctx.norm_A == pytest.approx(max(expected))
        # row absolute sums bounded by the operator norm
        row_sums = np.abs(ctx.A).sum(axis=1)
        assert np.all(row_sums <= ctx.norm_A + TOL)


def test_alpha_properties(lam2):
    a = lam2.alpha
    assert np.max(np.abs(a - a.conj().T)) < TOL
    assert np.max(np.abs(np.diag(a) - 1.0)) < TOL
    assert np.max(np.abs(a)) <= 1.0 + TOL


def test_build_context_errors():
    with pytest.raises(NonPositiveLambda):
        build_context([0.0])
    with pytest.raises(NonPositiveLambda):
        build_context([2.0, -1.0])
    with pytest.raises(EmptyContext):
        build_context([], 0)


def test_matrix_power_group_law(lam2):
    assert np.allclose(matrix_power(lam2, 0.0), np.eye(2))
    assert np.allclose(matrix_power(lam2, 1.0), lam2.A)
    # negative one power recovers the transpose
    assert np.max(np.abs(matrix_power(lam2, -1.0) - lam2.A.T)) < TOL
    for s, t in [(0.3, 0.7), (-1.2, 0.5)]:
        lhs = matrix_power(lam2, s) @ matrix_power(lam2, t)
        assert np.max(np.abs(lhs - matrix_power(lam2, s + t))) < TOL


def test_apply_sigma_identity_cases(ctx2, lam2, rng):
    p = random_poly(ctx2, rng, 4, cap=8)
    assert apply_sigma(ctx2, p, 1.3) is p  # trivial group fast path
    q = random_poly(lam2, rng, 4, cap=8)
    assert apply_sigma(lam2, q, 0.0) is q


def test_apply_sigma_generator_row(lam2):
    # s = -1 sends X_1 to the first row of A
    x1 = NCPoly.gen(2, 1, 6)
    got = apply_sigma(lam2, x1, -1.0)
    expected = NCPoly(2, {(1,): 1.25, (2,): -0.75j}, 6)
    assert max_coeff_diff(got, expected) < TOL


def test_apply_sigma_composition(lam2, rng):
    p = random_poly(lam2, rng, 3, cap=8)
    for s, t in [(0.5, 0.25), (-1.0, 2.0)]:
        once = apply_sigma(lam2, apply_sigma(lam2, p, s), t)
        joint = apply_sigma(lam2, p, s + t)
        assert max_coeff_diff(once, joint) < 1e-9


def test_quadratic_potential_is_sigma_invariant(lam2):
    v0 = quadratic_potential(lam2, 6)
    assert max_coeff_diff(apply_sigma(lam2, v0, -1.0), v0) < TOL


def test_apply_sigma_degree_preserved(lam2, rng):
    p = random_poly(lam2, rng, 4, cap=8)
    q = apply_sigma(lam2, p, -1.0)
    assert set(q.degrees()) <= set(p.degrees())


def test_apply_sigma_var_mismatch(ctx1, lam2):
    p = NCPoly.gen(1, 1, 4)
    with pytest.raises(VarCountMismatch):
        apply_sigma(lam2, p, 1.0)


def test_adjoint_intertwines_sigma(lam2, rng):
    # sigma_{is}(P*) = (sigma_{-is} P)*
    p = random_poly(lam2, rng, 3, cap=8)
    for s in (-1.0, 0.5):
        lhs = apply_sigma(lam2, p.adjoint(), s)
        rhs = apply_sigma(lam2, p, -s).adjoint()
        assert max_coeff_diff(lhs, rhs) < 1e-10


def _state(ctx):
    # each attribute of a context, with a copy of its value
    return {k: (v, copy.deepcopy(v)) for k, v in vars(ctx).items()}


def _unchanged(ctx, state):
    # the same attributes, each the same object with the same value
    assert vars(ctx).keys() == state.keys()
    for k, (obj, value) in state.items():
        assert vars(ctx)[k] is obj, k
        if isinstance(value, np.ndarray):
            assert (obj.dtype, obj.shape, obj.tobytes()) == (value.dtype, value.shape, value.tobytes()), k
        else:
            assert obj == value, k


def _bits(p):
    return [(w, c.real.hex(), c.imag.hex()) for w, c in p.coeffs.items()], p.truncated


@pytest.mark.parametrize(
    "lambdas, num_trivial", [([2.0], 0), ([2.0, 3.0], 0), ([2.0], 1)], ids=["lam2", "lam2_3", "lam2_triv1"]
)
def test_apply_sigma_matches_expansion_per_call(lambdas, num_trivial, rng):
    # the expansion through the context's rows of A^{-s} gives the one
    # through numpy rows bit for bit: keys, key order, coefficients with the
    # sign of zero, and taint, on warm rows too
    ctx = build_context(lambdas, num_trivial)
    n = ctx.num_vars
    inputs = [random_poly(ctx, rng, 5, cap=6, terms=10) for _ in range(3)]
    # signed zeros in the coefficients, the empty word, a word over the cap
    inputs.append(
        NCPoly(n, {(): complex(-1.0, -0.0), (1, 2): complex(-0.0, 2.0), (2,) * 7: 0.5}, 6, True)
    )
    # coefficients near PRUNE_TOL, whose paths prune in part
    inputs.append(NCPoly(n, {(1,): 1e-14 + 0j, (2, 1): 1.3e-14j, (1, 1): 0.9e-14 + 0j}, 6))
    for _ in range(2):
        for P in inputs:
            for s in (1.0, 0.5, -1.0, -0.25, 2.0):
                assert _bits(apply_sigma(ctx, P, s)) == _bits(apply_sigma_reference(ctx, P, s))


def test_context_derives_its_tables_on_construction(rng):
    ctx = build_context([2.0])
    assert not any(isinstance(v, dict) for v in vars(ctx).values())
    assert "A_rows" not in repr(ctx)
    # A's rows: its nonzero entries row by row, index ascending
    assert ctx.A_rows == [[(k + 1, m) for k, m in enumerate(row) if m != 0] for row in ctx.A]
    state = _state(ctx)
    # the twisting operations read the context and keep nothing on it
    p = NCPoly(2, {(1, 2): 1.0, (2,): 0.5}, 4)
    for s in (-1.0, 0.5):
        apply_sigma(ctx, p, s)
    rho(ctx, p)
    t_sigma(ctx, random_tensor(ctx, rng, 3), 0.5, -1.0)
    cyclic_D(ctx, 1, NCPoly(2, {(1, 1, 2): 1.0, (2,): 0.5}, 4))
    _unchanged(ctx, state)
    # a context made from another by dataclasses.replace derives its own rows
    other = dataclasses.replace(ctx)
    assert other.A_rows == ctx.A_rows and other.A_rows is not ctx.A_rows
    # a right leg's twist is the twisted monomial, pruned
    unit = apply_sigma(ctx, NCPoly.monomial(2, (1, 2), 1.0, cap=4), -1.0)
    right = t_sigma(ctx, TensorPoly.elementary(2, (), (1, 2), 1.0, 4), 0.0, -1.0)
    assert {b: c for (_, b), c in right.coeffs.items()} == unit.coeffs
    assert unit.coeffs == {
        w: 0j + v for w, v in twist_paths(ctx.A_rows, (1, 2), 1.0 + 0j) if not abs(v) <= PRUNE_TOL
    }


def test_sigma_table_is_per_context(rng):
    a, b = build_context([2.0]), build_context([3.0])
    p = random_poly(a, rng, 4, cap=6)
    for ctx in (a, b):
        for j in (1, 2):
            assert _bits(cyclic_D(ctx, j, p)) == _bits(cyclic_D_reference(ctx, j, p))
            assert _bits(cyclic_D(ctx, j, p)) == _bits(cyclic_D_loop(ctx, j, p))
        # p keeps no plan: each call builds the one of its own context
        assert not any(isinstance(v, calculus._TwistPlan) for v in vars(p).values())
    word = NCPoly.monomial(2, next(w for w in p.coeffs if w), 1.0, cap=6)
    assert apply_sigma(a, word, 0.5) != apply_sigma(b, word, 0.5)
    assert a.A_rows != b.A_rows


def test_sigma_table_checks_and_tracial_shortcut(rng):
    lam = build_context([2.0])
    state = _state(lam)
    with pytest.raises(VarCountMismatch):
        apply_sigma(lam, NCPoly.gen(1, 1, 4), 1.0)
    with pytest.raises(VarCountMismatch):
        t_sigma(lam, TensorPoly.elementary(1, (1,), (1,), 1.0, 4), 1.0, 0.0)
    with pytest.raises(VarCountMismatch):
        cyclic_D(lam, 1, NCPoly.gen(1, 1, 4))
    _unchanged(lam, state)
    # the tracial shortcut returns its input and leaves the context as it is
    tr = build_context([], 2)
    state = _state(tr)
    p = random_poly(tr, rng, 4, cap=6)
    S = random_tensor(tr, rng, 3)
    assert apply_sigma(tr, p, -1.0) is p
    assert t_sigma(tr, S, 0.5, -1.0) is S
    _unchanged(tr, state)


def test_cli_runs_share_no_table_and_expand_each_word_once(strict_argv, monkeypatch):
    # each cli.run builds its own context, which the run leaves as it was
    # built.  The tails of each polynomial that grad_D differentiates are
    # expanded once, into the plan that grad_D holds and passes to the
    # cyclic_D call of each component
    contexts, planned, derived = [], [], []
    build, twist_plan, derive = arakiwoods.build_context, calculus._twist_plan, calculus.cyclic_D

    def recording_build(*args):
        ctx = build(*args)
        contexts.append((ctx, _state(ctx)))
        planned.append([])
        derived.append([])
        return ctx

    def recording_plan(ctx, P):
        plan = twist_plan(ctx, P)
        planned[-1].append((P, plan))
        return plan

    def recording_derive(ctx, j, P, plan=None):
        derived[-1].append((P, plan))
        return derive(ctx, j, P, plan)

    monkeypatch.setattr(arakiwoods, "build_context", recording_build)
    monkeypatch.setattr(calculus, "_twist_plan", recording_plan)
    monkeypatch.setattr(calculus, "cyclic_D", recording_derive)
    assert cli.run(strict_argv) == cli.EXIT_OK
    assert cli.run(strict_argv) == cli.EXIT_OK
    assert len(contexts) == 2 and contexts[0][0] is not contexts[1][0]
    for (ctx, state), plans, calls in zip(contexts, planned, derived):
        _unchanged(ctx, state)
        # one plan per polynomial, read by the N components, kept on none
        built = [id(P) for P, _ in plans]
        assert len(built) == len(set(built)) > 0
        assert [(id(P), id(plan)) for P, plan in calls] == [
            (id(P), id(plan)) for P, plan in plans for _ in range(ctx.num_vars)
        ]
        assert not any("_twist_plan" in vars(P) for P, _ in plans)
    assert len(planned[0]) == len(planned[1])


def test_selftest_leaves_its_contexts_unchanged(monkeypatch):
    # the battery twists at many powers (the sigma-homomorphism check) and
    # twists right legs (the Jacobian check); no context keeps any of it
    contexts = []
    build = selftest.build_context

    def recording_build(*args):
        ctx = build(*args)
        contexts.append((ctx, _state(ctx)))
        return ctx

    monkeypatch.setattr(selftest, "build_context", recording_build)
    assert all(ok for _, _, ok in selftest.run_selftest())
    assert len(contexts) >= 5
    for ctx, state in contexts:
        _unchanged(ctx, state)


def _hex(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize(
    "lambdas, num_trivial",
    [([2.0], 0), ([2.0, 3.0], 0), ([1.0001], 0), ([2.0], 1), ([], 1)],
    ids=["lam2", "lam2_3", "lam1.0001", "lam2_triv1", "triv1"],
)
def test_scalar_tables_match_numpy_reads(lambdas, num_trivial, rng):
    # every loop that reads the context's Python tables gives what the same
    # loop gives on numpy scalar reads of A, alpha and inner_U, bit for bit:
    # keys, key order, coefficients with the sign of zero, and taint
    ctx = build_context(lambdas, num_trivial)
    n = ctx.num_vars
    for rows, M in ((ctx.alpha_rows, ctx.alpha), (ctx.inner_rows, ctx.inner_U)):
        assert all(type(x) is complex for row in rows for x in row)
        assert [list(map(_hex, row)) for row in rows] == [list(map(_hex, row)) for row in M]
    # A's rows, which rho and cyclic_D read: its nonzero entries, index ascending
    assert all(type(m) is complex for row in ctx.A_rows for _, m in row)
    assert [[(k, _hex(m)) for k, m in row] for row in ctx.A_rows] == [
        [(k + 1, _hex(m)) for k, m in enumerate(row) if m != 0] for row in ctx.A
    ]
    state = _state(ctx)
    polys = [random_poly(ctx, rng, 5, cap=6, terms=10) for _ in range(3)]
    # real coefficients, whose products with real entries have zero parts
    polys.append(random_poly(ctx, rng, 5, cap=6, terms=10, real=True))
    polys.append(
        NCPoly(n, {(): complex(-1.0, -0.0), (1, n): complex(-0.0, 2.0), (n,) * 7: -0.5}, 6, True)
    )
    polys.append(NCPoly(n, {(1,): 1e-14 + 0j, (n, 1): -1.3e-14j, (1, 1): 0.9e-14 + 0j}, 6))
    tensors = [random_tensor(ctx, rng, 4, terms=12) for _ in range(3)]
    tensors.append(TensorPoly(n, {
        ((), ()): complex(-1.0, -0.0), ((1,), (n,)): complex(-0.0, 2.0), ((n, 1), (1,)): -0.5,
    }, 6))
    for _ in range(2):  # a cold and a repeated call
        for P in polys:
            assert _bits(rho(ctx, P)) == _bits(rho_reference(ctx, P, 1))
            for s in (1.0, 0.5, -1.0, 2.0):
                assert _bits(apply_sigma(ctx, P, s)) == _bits(apply_sigma_reference(ctx, P, s))
            for j in range(1, n + 1):
                assert _bits(cyclic_D(ctx, j, P)) == _bits(cyclic_D_reference(ctx, j, P))
                assert _bits(cyclic_D(ctx, j, P)) == _bits(cyclic_D_loop(ctx, j, P))
                assert _bits(partial_sigma(ctx, j, P)) == _bits(
                    weighted_delta_reference(ctx.alpha[:, j - 1], P)
                )
                assert _bits(partial_bar(ctx, j, P)) == _bits(
                    weighted_delta_reference(ctx.alpha[j - 1], P)
                )
        for T in tensors:
            for sl, sr in ((1.0, 0.0), (0.5, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.5, -1.0)):
                assert _bits(t_sigma(ctx, T, sl, sr)) == _bits(t_sigma_reference(ctx, T, sl, sr))
    _unchanged(ctx, state)
    # both moment routes, each word on a fresh memo and on one shared memo
    words = [()] + [
        tuple(int(x) for x in rng.integers(1, n + 1, size=m)) for m in (1, 2, 3, 4, 4, 6, 6, 8)
    ]
    for q in (0.0, 0.3, -0.45):
        shared = MomentOracle(ctx, q)
        for w in words:
            want = _hex(moment_reference(ctx, q, w))
            assert _hex(MomentOracle(ctx, q).moment(w)) == want
            assert _hex(shared.moment(w)) == want
