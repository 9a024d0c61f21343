"""Headless property battery over randomized inputs.

Each check runs a family of randomized cases against an algebraic identity
and reports the worst deviation.  The CLI ``selftest`` subcommand prints one
line per check; the pytest suite asserts on the same results.  Seeds are
fixed, so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .calculus import grad_D, jac_J_sigma, pi_op, symmetrize_S
from .modular import apply_sigma, build_context, matrix_power
from .ncpoly import NCPoly, max_coeff_diff, norm_R, norm_R_sigma
from .randgen import random_centralizer, random_poly, random_tensor
from .tensor import (
    TensorMatrix,
    mat_mul,
    mat_sigma,
    max_pair_diff,
    t_dagger,
    t_diamond,
    t_mul,
    t_star,
)

TOL = 1e-9
CASES = 100


def _ctx_pair():
    return build_context([], 2), build_context([2.0])


def check_norm_submultiplicative(cases: int = CASES) -> float:
    """|PQ| <= |P| |Q| for the rotation-invariant norm on the centralizer."""
    ctx = build_context([2.0])
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(cases):
        p = random_centralizer(ctx, rng, 4, cap=12)
        q = random_centralizer(ctx, rng, 4, cap=12)
        np_, nq = norm_R_sigma(ctx, p, 2.0), norm_R_sigma(ctx, q, 2.0)
        npq = norm_R_sigma(ctx, p * q, 2.0)
        worst = max(worst, npq.value - np_.value * nq.value)
    return worst


def check_involutions(cases: int = CASES) -> float:
    """Involution algebra on word-pair tensors: the leg adjoint reverses #
    products, the dagger distributes over them, the leg swap squares to the
    identity, and the three maps compose as dagger = diamond after star."""
    worst = 0.0
    for ctx in _ctx_pair():
        rng = np.random.default_rng(103)
        for _ in range(cases // 2):
            s = random_tensor(ctx, rng, 3)
            t = random_tensor(ctx, rng, 3)
            worst = max(worst, max_pair_diff(t_star(t_mul(s, t)), t_mul(t_star(t), t_star(s))))
            worst = max(worst, max_pair_diff(t_dagger(t_mul(s, t)), t_mul(t_dagger(s), t_dagger(t))))
            worst = max(worst, max_pair_diff(t_diamond(t_diamond(s)), s))
            worst = max(worst, max_pair_diff(t_dagger(s), t_diamond(t_star(s))))
            worst = max(worst, max_pair_diff(t_dagger(s), t_star(t_diamond(s))))
            p = random_poly(ctx, rng, 3, cap=8)
            worst = max(worst, abs(norm_R(p.adjoint(), 1.7) - norm_R(p, 1.7)))
            worst = max(worst, max_coeff_diff(p.adjoint().adjoint(), p))
    return worst


def check_sigma_homomorphism(cases: int = CASES) -> float:
    """The modular action is multiplicative: sigma_s(PQ) = sigma_s(P) sigma_s(Q)."""
    ctx = build_context([2.0])
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(cases):
        p = random_poly(ctx, rng, 4, cap=8, terms=4)
        q = random_poly(ctx, rng, 4, cap=8, terms=4)
        s = float(rng.uniform(-1.5, 1.5))
        lhs = apply_sigma(ctx, p * q, s)
        rhs = apply_sigma(ctx, p, s) * apply_sigma(ctx, q, s)
        worst = max(worst, max_coeff_diff(lhs, rhs))
    return worst


def check_grad_symmetrize(cases: int = CASES) -> float:
    """The cyclic gradient kills the symmetrized projection defect:
    D(SymPi P) = D(P) on the centralizer."""
    worst = 0.0
    for ctx in _ctx_pair():
        rng = np.random.default_rng(107)
        for _ in range(cases // 2):
            p = random_centralizer(ctx, rng, 5, cap=10)
            lhs = grad_D(ctx, symmetrize_S(ctx, pi_op(p)))
            rhs = grad_D(ctx, p)
            for a, b in zip(lhs, rhs):
                worst = max(worst, max_coeff_diff(a, b))
    return worst


def check_jacobian_conjugation(cases: int = CASES) -> float:
    """Legwise modular action on the twisted Jacobian of a centralizer
    gradient equals conjugation by powers of the modular matrix."""
    ctx = build_context([2.0])
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(cases):
        g = random_centralizer(ctx, rng, 4, cap=10)
        f = grad_D(ctx, g)
        Q = jac_J_sigma(ctx, f)
        s = float(rng.choice([-1.0, -0.5, 0.5, 1.0]))
        lhs = mat_sigma(ctx, Q, -s, -s)
        a_s = matrix_power(ctx, s)
        a_ms = matrix_power(ctx, -s)
        rhs = mat_mul(
            TensorMatrix.scalar(a_s, ctx.num_vars, Q.degree_cap),
            mat_mul(Q, TensorMatrix.scalar(a_ms, ctx.num_vars, Q.degree_cap)),
        )
        for i in range(Q.dim):
            for j in range(Q.dim):
                worst = max(worst, max_pair_diff(lhs[i, j], rhs[i, j]))
    return worst


def check_gradient_eigenvector(cases: int = CASES) -> float:
    """A^{-1} # sigma_{-i}(f) = f for cyclic gradients f of centralizer
    elements."""
    ctx = build_context([2.0])
    rng = np.random.default_rng(111)
    ainv = ctx.A.T
    worst = 0.0
    for _ in range(cases):
        g = random_centralizer(ctx, rng, 4, cap=10)
        f = grad_D(ctx, g)
        sf = [apply_sigma(ctx, fj, -1.0) for fj in f]
        for j in range(ctx.num_vars):
            acc = NCPoly.sum(
                ctx.num_vars,
                (sf[k].scale(complex(ainv[j, k])) for k in range(ctx.num_vars)),
                10,
            )
            worst = max(worst, max_coeff_diff(acc, f[j]))
    return worst


ALL_CHECKS = [
    ("norm_submultiplicative", check_norm_submultiplicative),
    ("involution_identities", check_involutions),
    ("sigma_homomorphism", check_sigma_homomorphism),
    ("grad_of_symmetrized", check_grad_symmetrize),
    ("jacobian_conjugation", check_jacobian_conjugation),
    ("gradient_eigenvector", check_gradient_eigenvector),
]


def run_selftest(cases: int = CASES, tol: float = TOL) -> list[tuple[str, float, bool]]:
    """Run every check; returns (name, worst deviation, ok) triples."""
    results = []
    for name, fn in ALL_CHECKS:
        worst = fn(cases)
        results.append((name, worst, worst <= tol))
    return results
