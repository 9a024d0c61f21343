import dataclasses

import numpy as np
import pytest

from nctransport import build_context, calculus, cli, modular
from nctransport.calculus import cyclic_D, partial_bar, partial_sigma
from nctransport.errors import EmptyContext, NonPositiveLambda, VarCountMismatch
from nctransport.modular import ModularContext, apply_sigma, matrix_power
from nctransport.moments import MomentOracle
from nctransport.ncpoly import NCPoly, max_coeff_diff, quadratic_potential, rho
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


def _empty(ctx):
    # the context's sigma memo: its rows of A^{-s} and its unit twists
    return not ctx.sigma_rows and not ctx.unit_twists


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


def test_sigma_table_starts_empty_and_fills_on_demand(lam2):
    ctx = build_context([2.0])
    assert _empty(ctx)
    assert "sigma_rows" not in repr(ctx) and "unit_twists" not in repr(ctx)
    p = NCPoly(2, {(1, 2): 1.0, (2,): 0.5}, 4)
    # apply_sigma expands its words on every call and keeps only the rows
    apply_sigma(ctx, p, -1.0)
    assert set(ctx.sigma_rows) == {-1.0} and not ctx.unit_twists
    # A^{-s} once per power, its nonzero entries row by row
    rows = [[(k + 1, m) for k, m in enumerate(row) if m != 0] for row in matrix_power(ctx, 1.0)]
    assert ctx.rows(-1.0) is ctx.sigma_rows[-1.0]
    assert ctx.sigma_rows[-1.0] == rows
    # cyclic_D expands its tails' twists from the rows, and keeps no unit twist
    cyclic_D(ctx, 1, NCPoly(2, {(1, 1, 2): 1.0, (2,): 0.5}, 4))
    assert set(ctx.sigma_rows) == {-1.0} and not ctx.unit_twists
    # a context made from another by dataclasses.replace starts empty
    assert _empty(dataclasses.replace(ctx))
    # the unit twist is the twisted monomial, pruned
    unit = apply_sigma(ctx, NCPoly.monomial(2, (1, 2), 1.0, cap=4), -1.0)
    assert ctx.unit_twist(-1.0, (1, 2)) == unit.coeffs
    assert ctx.unit_twist(-1.0, (1, 2)) is ctx.unit_twists[-1.0, (1, 2)]
    assert ctx.unit_twists is not lam2.unit_twists and ctx.sigma_rows is not lam2.sigma_rows


def test_sigma_table_is_per_context(rng):
    a, b = build_context([2.0]), build_context([3.0])
    p = random_poly(a, rng, 4, cap=6)
    for ctx in (a, b):
        for j in (1, 2):
            assert _bits(cyclic_D(ctx, j, p)) == _bits(cyclic_D_reference(ctx, j, p))
            assert _bits(cyclic_D(ctx, j, p)) == _bits(cyclic_D_loop(ctx, j, p))
        # p keeps the plan of the last context it was differentiated under
        assert p.__dict__["_twist_plan"].ctx is ctx
    assert set(a.unit_twists) == set(b.unit_twists)
    assert a.unit_twists is not b.unit_twists
    word = next(w for w in p.coeffs if w)
    assert a.unit_twist(0.5, word) != b.unit_twist(0.5, word)
    assert a.rows(0.5) != b.rows(0.5)


def test_sigma_table_checks_and_tracial_shortcut(rng):
    lam = build_context([2.0])
    with pytest.raises(VarCountMismatch):
        apply_sigma(lam, NCPoly.gen(1, 1, 4), 1.0)
    with pytest.raises(VarCountMismatch):
        t_sigma(lam, TensorPoly.elementary(1, (1,), (1,), 1.0, 4), 1.0, 0.0)
    with pytest.raises(VarCountMismatch):
        cyclic_D(lam, 1, NCPoly.gen(1, 1, 4))
    assert _empty(lam)
    # the tracial shortcut returns its input and leaves the memo empty
    tr = build_context([], 2)
    p = random_poly(tr, rng, 4, cap=6)
    S = random_tensor(tr, rng, 3)
    assert apply_sigma(tr, p, -1.0) is p
    assert t_sigma(tr, S, 0.5, -1.0) is S
    assert _empty(tr)


def test_cli_runs_share_no_table_and_expand_each_word_once(strict_argv, monkeypatch):
    # each cli.run builds its own context, whose memo starts empty.  On the
    # strict pipeline no unit twist is expanded or kept: cyclic_D expands the
    # tails of each polynomial it differentiates once, into the polynomial's
    # plan, which the components of grad_D share
    contexts, expansions, asked, planned = [], [], [], []
    build, paths, unit_twist = cli.build_context, modular.twist_paths, ModularContext.unit_twist
    twist_plan = calculus._twist_plan
    inside = [False]

    def counting_build(*args):
        ctx = build(*args)
        assert _empty(ctx)
        contexts.append(ctx)
        expansions.append(0)
        asked.append(set())
        planned.append([])
        return ctx

    def counting_paths(rows, word, c):
        expansions[-1] += inside[0]
        return paths(rows, word, c)

    def recording_unit_twist(self, s, word):
        asked[-1].add((s, word))
        inside[0] = True
        try:
            return unit_twist(self, s, word)
        finally:
            inside[0] = False

    def recording_plan(ctx, P):
        plan = P.__dict__.get("_twist_plan")
        planned[-1].append((P, plan is not None and plan.ctx is ctx))
        return twist_plan(ctx, P)

    monkeypatch.setattr(cli, "build_context", counting_build)
    monkeypatch.setattr(modular, "twist_paths", counting_paths)
    monkeypatch.setattr(ModularContext, "unit_twist", recording_unit_twist)
    monkeypatch.setattr(calculus, "_twist_plan", recording_plan)
    assert cli.run(strict_argv) == cli.EXIT_OK
    assert cli.run(strict_argv) == cli.EXIT_OK
    assert len(contexts) == 2 and contexts[0].unit_twists is not contexts[1].unit_twists
    for ctx, count, keys, plans in zip(contexts, expansions, asked, planned):
        assert count == len(keys) == len(ctx.unit_twists) == 0
        # one plan per polynomial, built on its first call and read by the
        # other components
        built = [id(P) for P, warm in plans if not warm]
        assert len(built) == len(set(built)) == len({id(P) for P, _ in plans}) > 0
        assert len(plans) == ctx.num_vars * len(built)
    assert len(planned[0]) == len(planned[1])


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
    # rho's rows: the nonzero entries of A, index ascending
    assert all(type(m) is complex for row in ctx.rows(-1.0) for _, m in row)
    assert [[(k, _hex(m)) for k, m in row] for row in ctx.rows(-1.0)] == [
        [(k + 1, _hex(m)) for k, m in enumerate(row) if m != 0] for row in ctx.A
    ]
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
    for _ in range(2):  # a cold and a warm memo
        for P in polys:
            assert _bits(rho(ctx, P)) == _bits(rho_reference(ctx, P, 1))
            for s in (1.0, 0.5, -1.0, 2.0):
                assert _bits(apply_sigma(ctx, P, s)) == _bits(apply_sigma_reference(ctx, P, s))
            for j in range(1, n + 1):
                assert _bits(cyclic_D(ctx, j, P)) == _bits(cyclic_D_reference(ctx, j, P))
                # the dict loop reads the unit twists from the memo
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
    assert ctx.unit_twists
    assert all(type(m) is complex for rows in ctx.sigma_rows.values() for row in rows for _, m in row)
    for unit in ctx.unit_twists.values():
        assert all(type(c) is complex for c in unit.values())
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
