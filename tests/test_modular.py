import dataclasses
import json

import numpy as np
import pytest

from nctransport import build_context, cli, modular
from nctransport.calculus import cyclic_D
from nctransport.errors import EmptyContext, NonPositiveLambda, VarCountMismatch
from nctransport.modular import ModularContext, apply_sigma, matrix_power
from nctransport.ncpoly import NCPoly, max_coeff_diff, quadratic_potential
from nctransport.randgen import random_poly, random_tensor
from nctransport.tensor import TensorPoly, t_sigma
from oracles import apply_sigma_reference

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


def _empty(table):
    return len(table) == 0 and not table.rows


def _bits(p):
    return [(w, c.real.hex(), c.imag.hex()) for w, c in p.coeffs.items()], p.truncated


@pytest.mark.parametrize(
    "lambdas, num_trivial", [([2.0], 0), ([2.0, 3.0], 0), ([2.0], 1)], ids=["lam2", "lam2_3", "lam2_triv1"]
)
def test_apply_sigma_matches_expansion_per_call(lambdas, num_trivial, rng):
    # the table's paths give the letter-by-letter expansion bit for bit:
    # keys, key order, coefficients with the sign of zero, and taint, on a
    # warm table too
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
    assert _empty(ctx.sigma_table)
    assert "sigma_table" not in repr(ctx)
    p = NCPoly(2, {(1, 2): 1.0, (2,): 0.5}, 4)
    apply_sigma(ctx, p, -1.0)
    assert set(ctx.sigma_table.twists) == {(-1.0, (1, 2)), (-1.0, (2,))}
    assert set(ctx.sigma_table.rows) == {-1.0}
    # A^{-s} once per power, its nonzero entries row by row
    rows = [[(k + 1, m) for k, m in enumerate(row) if m != 0] for row in matrix_power(ctx, 1.0)]
    assert ctx.sigma_table.rows[-1.0] == rows
    # a context made from another by dataclasses.replace starts empty
    assert _empty(dataclasses.replace(ctx).sigma_table)
    # the unit twist is the twisted monomial, pruned
    unit = apply_sigma(ctx, NCPoly.monomial(2, (1, 2), 1.0, cap=4), -1.0)
    assert ctx.twist(-1.0, (1, 2)).unit == unit.coeffs
    assert ctx.sigma_table is not lam2.sigma_table


def test_sigma_table_is_per_context(rng):
    a, b = build_context([2.0]), build_context([3.0])
    p = random_poly(a, rng, 4, cap=6)
    for ctx in (a, b):
        assert _bits(apply_sigma(ctx, p, 0.5)) == _bits(apply_sigma_reference(ctx, p, 0.5))
    assert set(a.sigma_table.twists) == set(b.sigma_table.twists)
    assert a.sigma_table is not b.sigma_table
    word = next(w for w in p.coeffs if w)
    assert a.twist(0.5, word).unit != b.twist(0.5, word).unit


def test_sigma_table_checks_and_tracial_shortcut(rng):
    lam = build_context([2.0])
    with pytest.raises(VarCountMismatch):
        apply_sigma(lam, NCPoly.gen(1, 1, 4), 1.0)
    with pytest.raises(VarCountMismatch):
        t_sigma(lam, TensorPoly.elementary(1, (1,), (1,), 1.0, 4), 1.0, 0.0)
    with pytest.raises(VarCountMismatch):
        cyclic_D(lam, 1, NCPoly.gen(1, 1, 4))
    assert _empty(lam.sigma_table)
    # the tracial shortcut returns its input and leaves the table empty
    tr = build_context([], 2)
    p = random_poly(tr, rng, 4, cap=6)
    S = random_tensor(tr, rng, 3)
    assert apply_sigma(tr, p, -1.0) is p
    assert t_sigma(tr, S, 0.5, -1.0) is S
    assert _empty(tr.sigma_table)


def _strict_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "lambdas": [2.0], "num_trivial": 0, "q": 3e-5, "R": 6.0, "R_prime": 7.0,
        "degree_cap": 6, "level_cap": 4, "tolerance": 1e-9, "strict_hypotheses": True,
    }))
    return ["q-isomorphism", "--config", str(cfg), "--degree", "3",
            "--conjugate-degree", "4", "--quiet"]


def test_cli_runs_share_no_table_and_expand_each_word_once(tmp_path, monkeypatch):
    # each cli.run builds its own context, whose table starts empty; on the
    # strict pipeline every distinct (s, word) is expanded exactly once
    contexts, expansions, asked = [], [], []
    build, expand, twist = cli.build_context, modular._expand, ModularContext.twist

    def counting_build(*args):
        ctx = build(*args)
        assert _empty(ctx.sigma_table)
        contexts.append(ctx)
        expansions.append(0)
        asked.append(set())
        return ctx

    def counting_expand(rows, word):
        expansions[-1] += 1
        return expand(rows, word)

    def recording_twist(self, s, word):
        asked[-1].add((s, word))
        return twist(self, s, word)

    monkeypatch.setattr(cli, "build_context", counting_build)
    monkeypatch.setattr(modular, "_expand", counting_expand)
    monkeypatch.setattr(ModularContext, "twist", recording_twist)
    argv = _strict_config(tmp_path)
    assert cli.run(argv) == cli.EXIT_OK
    assert cli.run(argv) == cli.EXIT_OK
    assert len(contexts) == 2 and contexts[0].sigma_table is not contexts[1].sigma_table
    for ctx, count, keys in zip(contexts, expansions, asked):
        assert count == len(keys) == len(ctx.sigma_table) > 0
        assert keys == set(ctx.sigma_table.twists)
    assert expansions[0] == expansions[1]
