import dataclasses
import gc
import json
import weakref
from functools import reduce
from operator import add, mul

import numpy as np
import pytest

from nctransport import cli, ncpoly
from nctransport.errors import VarCountMismatch
from nctransport.modular import apply_sigma, build_context
from nctransport.ncpoly import (
    PRUNE_TOL,
    NCPoly,
    is_cyclically_symmetric,
    max_coeff_diff,
    norm_R,
    norm_R_sigma,
    quadratic_potential,
    rho,
    substitute,
)
from nctransport.randgen import random_centralizer, random_poly, random_tensor
from nctransport.serialize import poly_from_terms, poly_to_terms
from nctransport.tensor import TensorPoly, t_mul, tensor_of
from oracles import (
    constant,
    fresh_view,
    is_centralizer,
    norm_R_sigma_reference,
    substitute_reference,
    tensor_of_reference,
    views_equal,
)

TOL = 1e-12


def x(j, n=2, cap=8):
    return NCPoly.gen(n, j, cap)


def test_add_and_scalar():
    p = x(1) + x(1)
    assert p.coeffs == {(1,): 2.0 + 0.0j}
    assert x(1).scale(0).is_zero()
    q = NCPoly.monomial(2, (1, 2), 1.0, cap=8)
    assert (q + q.scale(-1)).is_zero()


def test_add_cap_and_taint():
    p = NCPoly.monomial(2, (1, 2), 1.0, cap=4)
    q = NCPoly.monomial(2, (1,), 1.0, cap=6)
    assert (p + q).degree_cap == 4
    t = NCPoly(2, {(1, 2): 1.0}, 4, truncated=True)
    assert (t + q).truncated


def _term(kind, word, c, cap, n=2):
    """One-term NCPoly, or TensorPoly with the word split after its first letter."""
    if kind is NCPoly:
        return NCPoly.monomial(n, word, c, cap=cap)
    return TensorPoly.elementary(n, word[:1], word[1:], c, cap=cap)


def _random(kind, ctx, rng):
    if kind is NCPoly:
        return random_poly(ctx, rng, 4, cap=8)
    return random_tensor(ctx, rng, 4)


@pytest.mark.parametrize("kind", [NCPoly, TensorPoly])
def test_sum_is_left_fold(kind, lam2, rng):
    a, b, c = (_random(kind, lam2, rng) for _ in range(3))
    # x + y is 3 eps, below the prune threshold: it must be pruned before
    # x.scale(2) arrives, so that this coefficient ends at exactly 2.0
    word = (1, 2, 1, 2, 1)  # longer than any random part
    x = _term(kind, word, 1.0, 8)
    y = _term(kind, word, -1.0 + 3 * np.finfo(float).eps, 8)
    parts = [a, b, -a, -b, c, x, y, a, x.scale(2.0), c.scale(-1.0)]
    assert reduce(add, parts[:4]).is_zero() and (x + y).is_zero()
    want = reduce(add, parts, kind.zero(2, 8))
    got = kind.sum(2, parts, 8)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert (got.degree_cap, got.truncated) == (want.degree_cap, want.truncated)
    assert got.coeffs[next(iter(x.coeffs))] == 2.0


@pytest.mark.parametrize("kind", [NCPoly, TensorPoly])
def test_sum_enforces_cap(kind):
    short = _term(kind, (1, 2), 1.0, 4)
    long = _term(kind, (1, 2), 1.0, 6) + _term(kind, (2, 1, 2, 1, 2), 1.0, 6)
    for total in (kind.sum(2, [short, long], 4), short + long, long + short):
        assert total.degree_cap == 4 and total.truncated
        assert total.coeffs == {next(iter(short.coeffs)): 2.0}
    assert not kind.sum(2, [short, short], 4).truncated
    with pytest.raises(VarCountMismatch):
        kind.sum(2, [short, _term(kind, (1,), 1.0, 4, n=3)], 4)


def test_mul_examples():
    assert (x(1) * x(2)).coeffs == {(1, 2): 1.0 + 0.0j}
    p = random_poly_fixture()
    assert max_coeff_diff(NCPoly.one(2, 8) * p, p) == 0.0
    # cap drops the product and taints
    a = NCPoly.monomial(2, (1, 2), 1.0, cap=2)
    b = NCPoly.monomial(2, (1,), 1.0, cap=2)
    prod = a * b
    assert prod.is_zero() and prod.truncated


def random_poly_fixture():
    rng = np.random.default_rng(3)
    from nctransport import build_context

    return random_poly(build_context([], 2), rng, 3, cap=8)


def _word_poly(rng, n, terms, max_len, cap, seed_terms):
    """Random polynomial with exactly ``terms`` coefficients, ``seed_terms``
    among them, the rest spread over eight decades so that some products
    fall below the prune threshold."""
    coeffs = dict(seed_terms)
    while len(coeffs) < terms:
        word = tuple(int(j) for j in rng.integers(1, n + 1, rng.integers(0, max_len + 1)))
        coeffs.setdefault(word, complex(*rng.standard_normal(2)) * 10.0 ** -rng.integers(0, 8))
    return NCPoly(n, coeffs, cap)


def _bits(p):
    return [(w, c.real.hex(), c.imag.hex()) for w, c in p.coeffs.items()], p.truncated


@pytest.mark.parametrize(
    "n, cap, left_cap, max_len, code_type",
    [
        (2, 8, 8, 5, np.int64),
        (3, 7, 7, 4, np.int64),
        # the left operand holds words longer than the product's cap
        (2, 6, 11, 11, np.int64),
        (2, 62, 62, 31, object),
        (30, 12, 12, 6, object),
    ],
)
def test_mul_batched_matches_loop(monkeypatch, n, cap, left_cap, max_len, code_type):
    # the array route and the per-pair loop give the same product bit for
    # bit, key order, dropped words and taint included, on both sides of
    # the threshold, with int64 and with Python-int word codes
    assert ncpoly.WordCodes(n, left_cap).dtype is code_type
    rng = np.random.default_rng(cap)
    limit = ncpoly.PAIR_BATCH_MIN
    for pairs in (limit - 1, limit):
        rows = next(r for r in range(40, 1, -1) if pairs % r == 0)
        # X1 * (X1X1 / 4) cancels X1X1 * (-X1 / 4); (-2 X2) * (-3 X2X2) has
        # the imaginary part -0.0
        a = _word_poly(rng, n, rows, max_len, left_cap, {(1,): 1.0, (1, 1): 1.0, (2,): -2.0})
        b = _word_poly(
            rng, n, pairs // rows, max_len, cap, {(1, 1): 0.25, (1,): -0.25, (2, 2): -3.0}
        )
        assert len(a.coeffs) * len(b.coeffs) == pairs
        default = a * b
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 10**9)
        loop = a * b
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 0)
        batched = a * b
        # again on the coded views both operands now carry
        assert "_view" in a.__dict__ and "_view" in b.__dict__
        warm = a * b
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
        assert _bits(default) == _bits(loop) == _bits(batched) == _bits(warm)
        assert views_equal(warm.__dict__["_view"], fresh_view(warm))


def _graded_poly(rng, n, terms, max_len, cap, seed_terms):
    """Random polynomial with exactly ``terms`` coefficients, ``seed_terms``
    among them, the rest of modulus between 0.05 and 0.5 times 10^(-3 |w|):
    products of more than five letters fall below the prune threshold grade
    by grade.  Seed terms are kept as given, a NaN one included."""
    coeffs = {w: complex(c) for w, c in seed_terms.items()}
    while len(coeffs) < terms:
        word = tuple(int(j) for j in rng.integers(1, n + 1, rng.integers(0, max_len + 1)))
        c = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform()) * 10.0 ** (-3 * len(word))
        coeffs.setdefault(word, complex(c))
    return NCPoly._pruned(n, coeffs, cap)


@pytest.mark.parametrize(
    "n, cap, nan, code_type",
    [
        # every pair beyond the cap lies in a grade the bound skips
        (3, 5, False, np.int64),
        (3, 8, False, np.int64),
        # a NaN coefficient of degree 1 keeps degrees 1 to 5, which its
        # pairs reach
        (3, 8, True, np.int64),
        (30, 12, False, object),
    ],
)
def test_mul_grade_bound_matches_loop(monkeypatch, n, cap, nan, code_type):
    # the batched route skips the grades whose bound proves every key pruned
    # and still gives the loop's product bit for bit: keys, key order and
    # taint, on both sides of the batching threshold
    assert ncpoly.WordCodes(n, cap).dtype is code_type
    rng = np.random.default_rng(cap + nan)
    limit = ncpoly.PAIR_BATCH_MIN
    # X1X1 * X1X1X1 and X1X1X1 * X1X1 add 0.6e-14 each onto X1^5: the sum
    # survives the prune, while no one split of degree 5 bounds it above
    seed = {(1, 1): 1e-6, (1, 1, 1): 0.6e-8}
    formed = []
    pair_sums = ncpoly.pair_sums

    def counting(codes, re, im):
        formed.append(len(codes))
        return pair_sums(codes, re, im)

    monkeypatch.setattr(ncpoly, "pair_sums", counting)
    for pairs in (limit - 1, limit):
        rows = next(r for r in range(40, 1, -1) if pairs % r == 0)
        a = _graded_poly(rng, n, rows, 4, cap, {**seed, (2,): complex("nan")} if nan else seed)
        b = _graded_poly(rng, n, pairs // rows, 4, cap, seed)
        assert len(a.coeffs) * len(b.coeffs) == pairs
        fitting = sum(len(u) + len(v) <= cap for u in a.coeffs for v in b.coeffs)
        kept = sum(len(u) + len(v) <= 5 for u in a.coeffs for v in b.coeffs)
        for left, right in ((a, b), (b, a)):
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 10**9)
            loop = left * right
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 0)
            formed.clear()
            batched = left * right
            warm = left * right  # on the operands' coded views
            monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
            assert _bits(left * right) == _bits(loop) == _bits(batched) == _bits(warm)
            assert loop.truncated == (fitting < pairs)
            assert abs(loop.coeffs[(1,) * 5] - 1.2e-14) < 1e-15
            # the pairs of degree 6 and more are not formed
            assert set(formed) == {kept} and (kept < fitting) == (cap > 5)


def _pair_poly(rng, n, terms, max_len, cap):
    """Random tensor with exactly ``terms`` coefficients."""
    coeffs = {}
    while len(coeffs) < terms:
        a, b = (tuple(int(j) for j in rng.integers(1, n + 1, rng.integers(0, max_len + 1))) for _ in "ab")
        coeffs.setdefault((a, b), complex(*rng.standard_normal(2)))
    return TensorPoly(n, coeffs, cap)


def _plain_word_poly(rng, n, terms, max_len, cap):
    return _word_poly(rng, n, terms, max_len, cap, {})


# per kind: a random operand with exactly ``terms`` coefficients, and the product
PRODUCTS = {"NCPoly": (_plain_word_poly, mul), "TensorPoly": (_pair_poly, t_mul)}


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_coded_views_stay_out_of_eq_and_repr_and_follow_with_cap(monkeypatch, kind):
    # a batched product carries the coded view of its map; the view is no
    # field, shares the map's life, and with_cap passes it on only with the
    # map itself
    make, product = PRODUCTS[kind]
    rng = np.random.default_rng(5)
    monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 0)
    a, b = make(rng, 2, 20, 5, 12), make(rng, 2, 20, 5, 12)
    p = product(a, b)
    view = p.__dict__["_view"]
    assert views_equal(view, fresh_view(p))
    plain = type(p)(2, dict(p.coeffs), p.degree_cap, p.truncated)
    assert "_view" not in plain.__dict__
    assert "_view" not in {f.name for f in dataclasses.fields(p)}
    assert p == plain and repr(p) == repr(plain)
    degree = p.degree()
    assert degree == plain.degree() == view[1]
    shared = p.with_cap(degree)
    assert shared.coeffs is p.coeffs and shared.__dict__["_view"] is view
    cut = p.with_cap(degree - 1)
    assert cut.truncated and "_view" not in cut.__dict__
    coef = weakref.ref(view[3])
    del p, shared, view
    gc.collect()
    assert coef() is None


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
@pytest.mark.parametrize("n, low, high, max_len", [(2, 31, 62, 30), (30, 11, 12, 5)])
def test_coded_views_are_rebuilt_for_the_other_code_dtype(monkeypatch, kind, n, low, high, max_len):
    # views of int64 codes are never reused under Python-int codes, nor the
    # other way round: each product gives the per-pair loop's result
    assert ncpoly.WordCodes(n, low).dtype is np.int64
    assert ncpoly.WordCodes(n, high).dtype is object
    make, product = PRODUCTS[kind]
    rng = np.random.default_rng(n)
    if kind == "TensorPoly":
        max_len //= 2
    a, b = make(rng, n, 40, max_len, high), make(rng, n, 40, max_len, high)
    # a product with low_b has the cap ``low`` and takes int64 codes
    low_b = b.with_cap(low)
    before = []
    for x, y, dtype in ((a, low_b, np.int64), (a, b, object), (a, low_b, np.int64), (b, a, object)):
        before.append(tuple(z.__dict__.get("_view", [None])[0] for z in (x, y)))
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 10**9)
        loop = product(x, y)
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", 0)
        batched = product(x, y)
        assert _bits(batched) == _bits(loop)
        assert x.__dict__["_view"][0] is y.__dict__["_view"][0] is dtype
        assert views_equal(batched.__dict__["_view"], fresh_view(batched))
    # the views each product found on its operands: every product after the
    # first rebuilt one of the other dtype
    assert before == [(None, None), (np.int64, None), (object, np.int64), (object, np.int64)]


def test_coded_views_match_their_maps_after_a_strict_run(strict_argv, monkeypatch):
    # every view a strict pipeline run attaches, to an operand or to a
    # product, still codes its map when the run is over
    kept = []
    attach = ncpoly._Sparse._attach

    def recording(self, dtype, arrays, coef):
        kept.append(self)
        return attach(self, dtype, arrays, coef)

    monkeypatch.setattr(ncpoly._Sparse, "_attach", recording)
    assert cli.run(strict_argv) == cli.EXIT_OK
    assert {type(p) for p in kept} == {NCPoly, TensorPoly}
    for p in kept:
        assert views_equal(p.__dict__["_view"], fresh_view(p))


def _left_leg(P):
    """P (x) 1, with P's cap and taint."""
    return TensorPoly(P.num_vars, {(w, ()): c for w, c in P.coeffs.items()}, P.degree_cap, P.truncated)


@pytest.mark.parametrize(
    "n, cap, max_len, code_type",
    [
        (2, 12, 5, np.int64),
        # the left operand holds words longer than the product's cap
        (3, 6, 8, np.int64),
        (30, 12, 7, object),
    ],
)
@pytest.mark.parametrize("limit", [10**9, 0], ids=["loop", "batched"])
def test_word_product_is_the_sharp_product_on_the_left_leg(monkeypatch, n, cap, max_len, code_type, limit):
    # P sits in P (x) P^op as P (x) 1, so P * Q and (P (x) 1) # (Q (x) 1)
    # are one product: bit for bit, key order, dropped words and taint
    # included, on either route and with int64 and Python-int word codes.
    # P has fewer terms than Q, so t_mul keeps P in the outer loop.
    rng = np.random.default_rng(cap)
    monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
    # X1 * (X1X1 / 4) and X1X1 * (-X1 / 4) cancel; (-2 X2) * (-3 X2X2)
    # has the imaginary part -0.0
    P = _word_poly(rng, n, 30, max_len, max(cap, max_len), {(1,): 1.0, (1, 1): 1.0, (2,): -2.0})
    Q = _word_poly(rng, n, 40, max_len, cap, {(1, 1): 0.25, (1,): -0.25, (2, 2): -3.0})
    assert ncpoly.WordCodes(n, max(cap, P.degree())).dtype is code_type
    words = P * Q
    pairs = t_mul(_left_leg(P), _left_leg(Q))
    assert words.truncated == (P.degree() + Q.degree() > cap)
    assert _bits(pairs) == _bits(_left_leg(words))
    if limit == 0:
        assert views_equal(pairs.__dict__["_view"], fresh_view(pairs))


@pytest.mark.parametrize("limit", [10**9, 0], ids=["loop", "batched"])
def test_tensor_of_matches_its_loop(monkeypatch, limit):
    # tensor_of is the product (P (x) 1) # (1 (x) Q): the coefficients and
    # key order of the pair loop, its default cap P.cap + Q.cap, and the
    # taint exactly when a pair exceeds the cap
    rng = np.random.default_rng(7)
    monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
    P = _word_poly(rng, 2, 30, 4, 4, {(2,): -2.0})
    Q = _word_poly(rng, 2, 40, 5, 5, {(2, 2): -3.0})
    for cap in (None, 9, 6):
        got, want = tensor_of(P, Q, cap), tensor_of_reference(P, Q, cap)
        # the loop starts a new key from 0.0, the kernel from 0j: Python
        # 3.14 keeps the loop's -0.0 of (-2) * (-3) = 6 - 0j, where the
        # kernel stores +0.0.  Every other bit is the loop's.
        assert got.coeffs[((2,), (2, 2))].imag.hex() == (0.0).hex()
        plus_zero = [(k, c + 0j) for k, c in want.coeffs.items()]
        assert _bits(got) == ([(k, c.real.hex(), c.imag.hex()) for k, c in plus_zero], want.truncated)
        assert got.degree_cap == want.degree_cap == (9 if cap is None else cap)
        assert got.truncated == want.truncated == (cap == 6)
    tainted = NCPoly(2, P.coeffs, 4, truncated=True)
    assert tensor_of(tainted, Q).truncated and tensor_of(Q, tainted).truncated


def test_mul_new_key_has_no_negative_zero(monkeypatch):
    # (-2) * (-3) is 6 - 0j; the loop starts a new key from 0j, as the
    # array sums start from 0.0, so both routes store +0.0 on every Python
    a = NCPoly.monomial(2, (2,), -2.0, cap=4)
    b = NCPoly.monomial(2, (2, 2), -3.0, cap=4)
    for limit in (10**9, 0):
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
        assert _bits(a * b) == ([((2, 2, 2), (6.0).hex(), (0.0).hex())], False)


def test_mul_var_mismatch():
    with pytest.raises(VarCountMismatch):
        NCPoly.gen(1, 1, 4) * NCPoly.gen(2, 1, 4)


def test_adjoint():
    p = NCPoly.monomial(2, (1, 2), 1j, cap=4)
    assert p.adjoint().coeffs == {(2, 1): -1j}
    assert max_coeff_diff(p.adjoint().adjoint(), p) == 0.0
    one = NCPoly.one(2, 4)
    assert max_coeff_diff(one.adjoint(), one) == 0.0


def test_quadratic_potential_self_adjoint(lam2):
    v0 = quadratic_potential(lam2, 6)
    assert max_coeff_diff(v0.adjoint(), v0) < TOL


def test_project_degree():
    p = NCPoly(2, {(): 3.0, (1,): 1.0}, 4)
    assert p.project_degree(0).coeffs == {(): 3.0 + 0.0j}
    assert p.project_degree(5).is_zero()
    v0 = quadratic_potential_fixture()
    assert max_coeff_diff(v0.project_degree(2), v0) == 0.0
    # degree projections sum back to the whole
    q = NCPoly(2, {(): 1.0, (1,): 2.0, (1, 2): -1.0}, 4)
    total = NCPoly.zero(2, 4)
    for n in q.degrees():
        total = total + q.project_degree(n)
    assert max_coeff_diff(total, q) == 0.0


def quadratic_potential_fixture():
    from nctransport import build_context

    return quadratic_potential(build_context([2.0]), 6)


def test_substitute_identity_and_binomial(ctx2):
    rng = np.random.default_rng(5)
    p = random_poly(ctx2, rng, 3, cap=8)
    xs = [NCPoly.gen(2, 1, 8), NCPoly.gen(2, 2, 8)]
    assert max_coeff_diff(substitute(p, xs), p) < TOL
    # (X + c)^2 = X^2 + 2cX + c^2 in one generator
    c = 0.75
    shifted = NCPoly(1, {(1,): 1.0, (): c}, 8)
    sq = substitute(NCPoly.monomial(1, (1, 1), 1.0, cap=8), [shifted])
    expected = NCPoly(1, {(1, 1): 1.0, (1,): 2 * c, (): c * c}, 8)
    assert max_coeff_diff(sq, expected) < TOL


def test_substitute_matches_product_fold(monkeypatch, lam2):
    # substitute folds each word through the product's coefficient helper
    # and gives the per-letter NCPoly products' result bit for bit, taint
    # included, on both product routes
    rng = np.random.default_rng(11)
    P = random_poly(lam2, rng, 4, cap=6, terms=12)
    # an imaginary -0.0, a word whose products pass the cap of 5, and a
    # substituend of degree above it
    P = P + NCPoly(2, {(): complex(1.0, -0.0), (2, 2, 2, 2): 0.5}, 6)
    Y = [random_poly(lam2, rng, 2, cap=6, terms=6) + x(j, cap=6) for j in (1, 2)]
    Y[1] = Y[1] + NCPoly.monomial(2, (1, 2, 1, 2, 1, 2), 0.1, cap=6)
    for limit in (ncpoly.PAIR_BATCH_MIN, 10**9, 0):
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
        # X2 alone is tainted only by the substituend cut to the cap of 5
        for Q in (P, x(2, cap=6)):
            for cap in (5, 6):
                assert _bits(substitute(Q, Y, cap)) == _bits(substitute_reference(Q, Y, cap))
        assert substitute(x(2, cap=6), Y, 5).truncated
        tainted = [Y[0], NCPoly(2, Y[1].coeffs, 6, truncated=True)]
        assert _bits(substitute(P, tainted)) == _bits(substitute_reference(P, tainted, 6))


def test_substitute_matches_modular_action(lam2):
    # composing with A X equals the modular twist at -i
    v0 = quadratic_potential(lam2, 6)
    ax = []
    for j in range(2):
        row = lam2.A[j]
        ax.append(NCPoly(2, {(1,): complex(row[0]), (2,): complex(row[1])}, 6))
    assert max_coeff_diff(substitute(v0, ax), apply_sigma(lam2, v0, -1.0)) < TOL
    assert max_coeff_diff(substitute(v0, ax), v0) < TOL


def test_norm_R():
    p = NCPoly(2, {(1, 2): 1.0, (1,): 2.0}, 4)
    for r in (0.5, 1.0, 3.0):
        assert norm_R(p, r) == pytest.approx(r * r + 2 * r)
    assert norm_R(x(1), 2.5) == pytest.approx(2.5)


def test_norm_R_quadratic_potential(lam2):
    # half the entrywise absolute sum of (1 + A) / 2, times R^2
    v0 = quadratic_potential(lam2, 6)
    half = 0.5 * (lam2.A + np.eye(2))
    expected = 0.5 * np.abs(half).sum()
    for r in (1.0, 2.0, 4.0):
        assert norm_R(v0, r) == pytest.approx(expected * r * r)


def test_norm_splits_over_degrees(ctx2, rng):
    p = random_poly(ctx2, rng, 4, cap=8)
    total = sum(norm_R(p.project_degree(n), 1.7) for n in p.degrees())
    assert total == pytest.approx(norm_R(p, 1.7))


def _rotations(ctx, P, n):
    for _ in range(n):
        P = rho(ctx, P)
    return P


def test_rho_tracial_cyclic_shift(ctx2):
    p = NCPoly.monomial(2, (1, 2), 1.0, cap=6)
    assert rho(ctx2, p).coeffs == {(2, 1): 1.0 + 0.0j}
    # without a twist, n rotations of a degree-n word give it back
    assert max_coeff_diff(_rotations(ctx2, p, 2), p) < TOL


def test_rho_twisted(lam2):
    p = NCPoly.monomial(2, (1, 2), 1.0, cap=6)
    got = rho(lam2, p)
    expected = NCPoly(2, {(1, 1): 0.75j, (2, 1): 1.25}, 6)
    assert max_coeff_diff(got, expected) < TOL


def test_rho_fixes_constants(lam2):
    c = constant(2, 2.5 - 1j, 4)
    assert max_coeff_diff(rho(lam2, c), c) == 0.0
    assert max_coeff_diff(_rotations(lam2, c, 3), c) == 0.0


def test_rho_period_is_modular_action(lam2, rng):
    # n rotations of a degree-n component are one full modular twist
    for n in (1, 2, 3):
        p = random_poly(lam2, rng, n, cap=8).project_degree(n)
        assert max_coeff_diff(_rotations(lam2, p, n), apply_sigma(lam2, p, -1.0)) < 1e-9


def test_norm_R_sigma_tracial(ctx2, rng):
    p = random_poly(ctx2, rng, 4, cap=8)
    got = norm_R_sigma(ctx2, p, 2.0)
    assert got.exact
    # plain shifts permute words, so the per-degree max equals the norm
    assert got.value == pytest.approx(norm_R(p, 2.0))


def test_norm_R_sigma_cyclically_symmetric(lam2):
    v0 = quadratic_potential(lam2, 6)
    got = norm_R_sigma(lam2, v0, 3.0)
    assert got.exact
    assert got.value == pytest.approx(norm_R(v0, 3.0))


def test_norm_R_sigma_degree_one(ctx2):
    got = norm_R_sigma(ctx2, NCPoly.gen(2, 1, 4), 2.0)
    assert got.exact and got.value == pytest.approx(2.0)


def test_norm_R_sigma_outside_centralizer(lam2):
    # X_1 alone is not fixed by the modular action; the majorant is flagged
    got = norm_R_sigma(lam2, NCPoly.gen(2, 1, 4), 2.0)
    assert not got.exact
    assert got.value == pytest.approx(2.0)  # norm_A^0 * |X_1|_R


def test_norm_R_sigma_submultiplicative(lam2, rng):
    for _ in range(25):
        p = random_centralizer(lam2, rng, 4, cap=16)
        q = random_centralizer(lam2, rng, 4, cap=16)
        np_, nq = norm_R_sigma(lam2, p, 2.0), norm_R_sigma(lam2, q, 2.0)
        npq = norm_R_sigma(lam2, p * q, 2.0)
        assert np_.exact and nq.exact and npq.exact
        assert npq.value <= np_.value * nq.value + 1e-9


def test_norm_R_sigma_invariant_under_integer_twist(lam2, rng):
    p = random_centralizer(lam2, rng, 4, cap=10)
    base = norm_R_sigma(lam2, p, 2.0).value
    for m in (-2, -1, 1, 2):
        moved = apply_sigma(lam2, p, float(m))
        assert norm_R_sigma(lam2, moved, 2.0).value == pytest.approx(base, abs=1e-9)


def test_norm_R_sigma_matches_centralizer_first_form(ctx2, lam2, rng):
    # the centralizer test from the rotation one past the period agrees
    # with sigma_{-i} applied up front, in value and exactness
    triv = build_context([2.0], 1)
    cases = [
        (lam2, quadratic_potential(lam2, 6)),
        (lam2, NCPoly.gen(2, 1, 4)),
        (triv, NCPoly.gen(3, 3, 4)),
        (triv, NCPoly(3, {(3,): 1.0, (1,): 0.5, (3, 3): 2.0}, 4)),
        (ctx2, random_poly(ctx2, rng, 4, cap=8)),
        (ctx2, NCPoly.gen(2, 2, 4)),
    ]
    for _ in range(4):
        cases.append((lam2, random_centralizer(lam2, rng, 4, cap=8)))
        cases.append((triv, random_centralizer(triv, rng, 3, cap=6)))
        cases.append((lam2, random_poly(lam2, rng, 4, cap=8)))
        # centralizer up to degree 3, then a degree-4 part outside it
        mixed = random_centralizer(lam2, rng, 3, cap=8) + random_poly(lam2, rng, 4, cap=8).project_degree(4)
        cases.append((lam2, mixed))
    exact = [norm_R_sigma(ctx, p, 2.0).exact for ctx, p in cases]
    assert any(exact) and not all(exact)
    for ctx, p in cases:
        assert norm_R_sigma(ctx, p, 2.0) == norm_R_sigma_reference(ctx, p, 2.0)


def test_pruned_constructions_hold_the_prune_contract(monkeypatch, lam2, rng):
    # the paths that wrap an already-pruned map without re-pruning return
    # only complex coefficients above PRUNE_TOL, as the constructor would
    def held(p):
        assert all(type(c) is complex and abs(c) > PRUNE_TOL for c in p.coeffs.values())
        again = type(p)(p.num_vars, dict(p.coeffs), p.degree_cap, p.truncated)
        assert again == p and list(again.coeffs) == list(p.coeffs)

    a = random_poly(lam2, rng, 4, cap=8, terms=40)
    b = random_poly(lam2, rng, 4, cap=8, terms=40)
    near = NCPoly(2, {w: -c + 5e-15 for w, c in a.coeffs.items()}, 8)
    t = random_tensor(lam2, rng, 3)
    summed = (NCPoly.sum(2, (a, b, near), 8), a + near)
    for p in (*summed, -a, a.with_cap(3), a.with_cap(10), a.adjoint(), a.project_degree(2)):
        held(p)
    t_sum = TensorPoly.sum(2, (t, t.scale(-1 + 1e-16)), t.degree_cap)
    for p in (t_sum, t.with_cap(2), t.with_cap(10), -t):
        held(p)
    for limit in (10**9, 0):
        monkeypatch.setattr(ncpoly, "PAIR_BATCH_MIN", limit)
        held(a * b)
        held(near * b)
        held(t_mul(t, t))


def test_centralizer_predicates(lam2, rng):
    v0 = quadratic_potential(lam2, 6)
    assert is_centralizer(lam2, v0)
    assert is_cyclically_symmetric(lam2, v0)
    assert not is_centralizer(lam2, NCPoly.gen(2, 1, 4))
    p = random_centralizer(lam2, rng, 4, cap=8)
    assert is_centralizer(lam2, p)


def test_poly_file_roundtrip(ctx2, rng):
    p = random_poly(ctx2, rng, 3, cap=8)
    terms = poly_to_terms(p)
    json.dumps(terms)  # serializable
    q = poly_from_terms(2, terms, 8)
    assert max_coeff_diff(p, q) < 1e-15


def test_pruning_threshold():
    p = NCPoly(1, {(1,): 1e-20, (): 1.0}, 4)
    assert (1,) not in p.coeffs
