import itertools

import numpy as np
import pytest

from nctransport.errors import IndexOutOfRange
from nctransport.modular import apply_sigma
from nctransport.moments import MomentOracle
from nctransport.ncpoly import NCPoly, max_coeff_diff
from nctransport.randgen import random_poly, random_tensor
from nctransport.tensor import TensorPoly
from nctransport.calculus import delta

TOL = 1e-12

CATALAN = [1, 1, 2, 5, 14, 42]


def test_catalan(ctx1):
    o = MomentOracle(ctx1, 0.0)
    for n, c in enumerate(CATALAN):
        got = o.state(NCPoly.monomial(1, (1,) * (2 * n), 1.0))
        assert abs(got - c) < TOL


def test_fourth_moment_in_q(ctx1):
    for q in np.linspace(-0.5, 0.5, 21):
        o = MomentOracle(ctx1, float(q))
        assert abs(o.moment((1, 1, 1, 1)) - (2 + q)) < TOL


def test_odd_moments_vanish(lam2):
    o = MomentOracle(lam2, 0.3)
    assert o.moment((1,)) == 0
    assert o.moment((1, 2, 1)) == 0
    assert o.moment((2,) * 5) == 0


def test_second_moments_pin_orientation(lam2):
    # phi(X_j X_k) must be the deformed inner product <e_j, e_k>_U
    o = MomentOracle(lam2, 0.0)
    for j, k in itertools.product((1, 2), repeat=2):
        assert abs(o.moment((j, k)) - lam2.alpha[k - 1, j - 1]) < TOL


def test_four_point_closed_form(lam2):
    u = lam2.alpha.T
    for q in (-0.3, 0.0, 0.3):
        o = MomentOracle(lam2, q)
        for w in itertools.product((1, 2), repeat=4):
            a, b, c, d = (i - 1 for i in w)
            closed = (
                u[a, b] * u[c, d] + q * u[a, c] * u[b, d] + u[a, d] * u[b, c]
            )
            assert abs(o.moment(w) - closed) < TOL


def _enumerate(o: MomentOracle, word) -> complex:
    """Reference moment: sum over all pairings, counting crossings
    incrementally.

    Positions are paired smallest-first.  When chord (i, j) is laid down, it
    crosses exactly the already-open chords whose far end lies strictly
    between i and j.
    """
    q = o.q
    inner = o.ctx.inner_U

    def rec(remaining: tuple, open_ends: tuple) -> complex:
        if not remaining:
            return 1.0 + 0.0j
        i = remaining[0]
        rest = remaining[1:]
        active = tuple(b for b in open_ends if b > i)
        total = 0.0 + 0.0j
        for idx, j in enumerate(rest):
            crossings = sum(1 for b in active if b < j)
            w = inner[word[i] - 1, word[j] - 1] * q**crossings
            if w == 0:
                continue
            total += w * rec(rest[:idx] + rest[idx + 1:], active + (j,))
        return total

    return rec(tuple(range(len(word))), ())


def test_three_routes_agree(lam2, rng):
    # pairing enumeration is the reference for the non-crossing recursion
    # (q = 0) and the Fock walk (q != 0)
    oracles = [MomentOracle(lam2, q) for q in (0.0, 3e-5, 0.41, -0.3)]
    for n in (0, 2, 4, 6, 8):
        for _ in range(8):
            w = tuple(int(x) for x in rng.integers(1, 3, size=n))
            for o in oracles:
                assert abs(_enumerate(o, w) - o.moment(w)) < 1e-12


def test_moment_reversal_conjugation(lam2, rng):
    # phi(P*) is the conjugate of phi(P)
    o = MomentOracle(lam2, 0.25)
    for _ in range(20):
        n = 2 * int(rng.integers(0, 4))
        w = tuple(int(x) for x in rng.integers(1, 3, size=n))
        assert abs(o.moment(w) - o.moment(w[::-1]).conjugate()) < 1e-12


def test_state_positivity(lam2):
    words = [()]
    for n in (1, 2, 3):
        words += list(itertools.product((1, 2), repeat=n))
    for q in (-0.3, 0.0, 0.3):
        o = MomentOracle(lam2, q)
        gram = np.zeros((len(words), len(words)), dtype=complex)
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                gram[i, j] = o.moment(u[::-1] + v)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() > -1e-9


def test_kms_identity(lam2, rng):
    # phi(P Q) = phi(sigma_i(Q) P); the modular twist at +i is s = +1 here
    o = MomentOracle(lam2, 0.2)
    for _ in range(10):
        p = random_poly(lam2, rng, 3, cap=8)
        q = random_poly(lam2, rng, 3, cap=8)
        lhs = o.state(p * q)
        rhs = o.state(apply_sigma(lam2, q, 1.0) * p)
        assert abs(lhs - rhs) < 1e-10


def test_modular_invariance(lam2, rng):
    o = MomentOracle(lam2, 0.15)
    for _ in range(8):
        p = random_poly(lam2, rng, 3, cap=8)
        for s in (-1.0, 0.4, 2.0):
            assert abs(o.state(apply_sigma(lam2, p, s)) - o.state(p)) < 1e-10


def test_state_tensor_and_contractions(ctx1):
    o = MomentOracle(ctx1, 0.0)
    one = TensorPoly.one(1, 8)
    assert o.state_tensor(one) == 1.0
    p = NCPoly.monomial(1, (1, 1), 2.0, cap=8)
    t = TensorPoly.elementary(1, (), (1, 1), 2.0, cap=8)
    assert max_coeff_diff(o.contract_left(t), p) < TOL
    t2 = TensorPoly.elementary(1, (1, 1), (), 2.0, cap=8)
    assert max_coeff_diff(o.contract_right(t2), p) < TOL
    # contract the quotient of the cube: phi kills odd legs
    d = delta(1, NCPoly.monomial(1, (1, 1, 1), 1.0, cap=8))
    got = o.contract_right(d)
    expected = NCPoly(1, {(): 1.0, (1, 1): 1.0}, d.degree_cap)
    assert max_coeff_diff(got, expected) < TOL


def test_inner_products(lam2):
    o = MomentOracle(lam2, 0.1)
    p = NCPoly.gen(2, 1, 4)
    q = NCPoly.gen(2, 2, 4)
    assert abs(o.inner(p, q) - o.moment((1, 2))) < TOL
    # conjugate symmetry
    assert abs(o.inner(p, q) - o.inner(q, p).conjugate()) < TOL


def test_law_of(ctx1):
    o = MomentOracle(ctx1, 0.0)
    law = o.law_of([NCPoly.gen(1, 1, 8)])
    assert abs(law((1, 1, 1, 1)) - 2.0) < TOL
    law2 = o.law_of([NCPoly.gen(1, 1, 8).scale(2.0)])
    assert abs(law2((1, 1)) - 4.0) < TOL
    assert abs(law2(()) - 1.0) < TOL


@pytest.mark.parametrize("max_degree", [None, 9])
def test_law_values_do_not_depend_on_order(monkeypatch, lam2, max_degree):
    # a law asked for every word of length 1 to 6 gives the same values bit
    # for bit in sorted, reversed and shuffled order, and in sorted order
    # multiplies out each word once
    y = [
        NCPoly(2, {(1,): 1.0, (2, 1, 2): 0.05, (): 0.01j}, 8),
        NCPoly(2, {(2,): 1.0, (1, 1, 1): -0.03}, 8),
    ]
    words = [w for n in range(1, 7) for w in itertools.product((1, 2), repeat=n)]
    shuffled = list(words)
    np.random.default_rng(5).shuffle(shuffled)
    products = []
    mul = NCPoly.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(NCPoly, "__mul__", counting)
    values = []
    for order in (sorted(words), sorted(words, reverse=True), shuffled):
        products.clear()
        law = MomentOracle(lam2, 0.1).law_of(y, max_degree)
        for w in order:
            law(w)
        values.append([(law(w).real.hex(), law(w).imag.hex()) for w in words])
        if order == sorted(words):
            assert len(products) == len(words) == 126
    assert values[0] == values[1] == values[2]


def test_law_truncation_option(ctx1):
    o = MomentOracle(ctx1, 0.0)
    y = [NCPoly(1, {(1,): 1.0, (1, 1, 1): 0.01}, 8)]
    exact = o.law_of(y)
    coarse = o.law_of(y, max_degree=4)
    # low-degree words only lose the tail contributions of the cubic part
    assert abs(exact((1, 1))) > 0.9
    assert abs(exact((1, 1)) - coarse((1, 1))) < 5e-3


def test_law_linear_extensions(ctx1):
    o = MomentOracle(ctx1, 0.0)
    law = o.law()
    p = NCPoly(1, {(1, 1): 1.0, (): 1.0}, 8)
    assert abs(law.poly(p) - 2.0) < TOL
    t = TensorPoly.elementary(1, (1, 1), (1, 1), 1.0, cap=8)
    assert abs(law.tensor(t) - 1.0) < TOL


def test_index_validation(ctx1):
    o = MomentOracle(ctx1, 0.0)
    with pytest.raises(IndexOutOfRange):
        o.moment((1, 2))
    with pytest.raises(ValueError):
        MomentOracle(ctx1, 1.0)


def test_index_validation_after_memo_hits(lam2):
    # the memo is looked up before the letters are checked; a word with an
    # out-of-range letter still raises once valid words are memoised
    for q in (0.0, 0.3):
        o = MomentOracle(lam2, q)
        for w in ((1, 2), (2, 1, 1, 2), (1, 2), (2, 1, 1, 2), (1,)):
            o.moment(w)
        for bad in ((1, 3), (3,), (2, 1, 1, 3), (0, 1)):
            with pytest.raises(IndexOutOfRange):
                o.moment(bad)


def test_odd_words_are_memoised_after_the_check(lam2):
    # an odd word's zero is memoised once its letters are checked; a bad
    # letter raises every time and never enters the memo
    for q in (0.0, 0.3):
        o = MomentOracle(lam2, q)
        assert o.moment((1, 2, 1)) == 0.0 and (1, 2, 1) in o._memo
        assert o.moment([1, 2, 1]) == 0.0
        for bad in ((3,), (1, 2, 3), (0, 1, 1)):
            for _ in range(2):
                with pytest.raises(IndexOutOfRange):
                    o.moment(bad)
            assert bad not in o._memo


def _hex(z):
    return z.real.hex(), z.imag.hex()


def test_linear_extensions_read_the_memo(lam2, rng, monkeypatch):
    # state, state_tensor, inner and the contractions look words up in the
    # memo themselves and add the values moment() gives in the same order,
    # on a cold memo and on a warm one, where they call moment() no more
    P = random_poly(lam2, rng, 5, cap=6, terms=15)
    Q = random_poly(lam2, rng, 3, cap=6, terms=8)
    T = random_tensor(lam2, rng, 5, terms=15)
    for q in (0.0, 0.3):
        o = MomentOracle(lam2, q)
        ref = MomentOracle(lam2, q)
        calls = []
        moment = MomentOracle.moment

        def counting(self, word):
            calls.append(word)
            return moment(self, word)

        for warm in (False, True):
            state = sum((c * ref.moment(w) for w, c in P.coeffs.items()), 0.0 + 0.0j)
            tensor = sum(
                (c * ref.moment(a) * ref.moment(b) for (a, b), c in T.coeffs.items()),
                0.0 + 0.0j,
            )
            inner = 0.0 + 0.0j
            for wp, cp in P.coeffs.items():
                for wq, cq in Q.coeffs.items():
                    inner += cp.conjugate() * cq * ref.moment(wp[::-1] + wq)
            monkeypatch.setattr(MomentOracle, "moment", counting)
            calls.clear()
            assert _hex(o.state(P)) == _hex(state)
            assert _hex(o.state_tensor(T)) == _hex(tensor)
            assert _hex(o.inner(P, Q)) == _hex(inner)
            left, right = o.contract_left(T), o.contract_right(T)
            assert bool(calls) != warm
            monkeypatch.setattr(MomentOracle, "moment", moment)
            for got, leg in ((left, 0), (right, 1)):
                out = {}
                for key, c in T.coeffs.items():
                    v = c * ref.moment(key[leg])
                    if v != 0:
                        out[key[1 - leg]] = out.get(key[1 - leg], 0.0) + v
                want = NCPoly(2, out, T.degree_cap, T.truncated)
                assert [(w, _hex(c)) for w, c in got.coeffs.items()] == [
                    (w, _hex(c)) for w, c in want.coeffs.items()
                ]


def test_memo_determinism(lam2):
    a = MomentOracle(lam2, 0.3)
    b = MomentOracle(lam2, 0.3)
    w = (1, 2, 2, 1, 2, 1)
    assert a.moment(w) == b.moment(w)
