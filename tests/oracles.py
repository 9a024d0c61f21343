"""Reference implementations that only the tests use.

Each one is a slower or more literal form of a quantity the library
computes another way (or a paper identity built from library pieces); the
tests compare the two.
"""

from itertools import permutations, product

import numpy as np

from nctransport.arakiwoods import XiData, _orthonormal_columns, _wick
from nctransport.calculus import delta, partial_bar
from nctransport.errors import DimMismatch, VarCountMismatch
from nctransport.modular import ModularContext, apply_sigma, matrix_power, modular_norm, twist_paths
from nctransport.moments import MomentOracle
from nctransport.ncpoly import (
    CENTRALIZER_TOL,
    PRUNE_TOL,
    NCPoly,
    NormValue,
    Word,
    WordCodes,
    max_coeff_diff,
    norm_R,
    rho,
)
from nctransport.schwinger import deformed_adjoint
from nctransport.tensor import (
    TensorMatrix,
    TensorPoly,
    t_diamond,
    t_mul,
    t_sigma,
    tensor_of,
)


def sum_loop_reference(cls, num_vars: int, parts, cap: int):
    """``_Sparse.sum`` with every part added key by key from 0.0, an empty
    accumulator included, and pruned on touch; the map built by the
    constructor."""
    acc: dict = {}
    truncated = False
    for part in parts:
        if part.degree_cap > cap:
            part = part.with_cap(cap)
        truncated = truncated or part.truncated
        for k, c in part.coeffs.items():
            v = acc.get(k, 0.0) + c
            if not abs(v) <= PRUNE_TOL:
                acc[k] = v
            else:
                acc.pop(k, None)
    return cls(num_vars, acc, cap, truncated)


def norm_R_reference(P, R: float) -> float:
    """``norm_R`` with R raised to each key's degree, key by key."""
    return float(sum(abs(c) * R ** P._size(k) for k, c in P.coeffs.items()))


def max_coeff_diff_reference(P, Q) -> float:
    """``max_coeff_diff`` over the union of the key sets: NaN when any
    deviation is NaN, else the largest."""
    keys = set(P.coeffs) | set(Q.coeffs)
    diffs = [abs(P.coeffs.get(k, 0.0) - Q.coeffs.get(k, 0.0)) for k in keys]
    if any(d != d for d in diffs):
        return float("nan")
    return max(diffs, default=0.0)


def apply_sigma_reference(ctx: ModularContext, P: NCPoly, s: float) -> NCPoly:
    """Modular action expanded letter by letter on every call: each word's
    paths grow from its coefficient, one matrix row per letter."""
    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    if s == 0.0 or ctx.is_tracial:
        return P
    M = matrix_power(ctx, -s)
    out: dict[Word, complex] = {}
    for word, c in P.coeffs.items():
        paths = {(): c}
        for letter in word:
            row = M[letter - 1]
            nxt: dict[Word, complex] = {}
            for prefix, pc in paths.items():
                for k in range(ctx.num_vars):
                    m = row[k]
                    if m == 0:
                        continue
                    key = prefix + (k + 1,)
                    nxt[key] = nxt.get(key, 0.0) + pc * m
            paths = nxt
        for w2, c2 in paths.items():
            out[w2] = out.get(w2, 0.0) + c2
    return NCPoly(ctx.num_vars, out, P.degree_cap, P.truncated)


def t_sigma_reference(
    ctx: ModularContext, S: TensorPoly, s_left: float, s_right: float
) -> TensorPoly:
    """Legwise modular action term by term: each term c a (x) b is the
    tensor of the twisted monomials c a and b (``tensor_of_reference``, each
    key from 0.0), and the terms are summed by ``TensorPoly.sum``."""
    if S.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"tensor over {S.num_vars} vars, context has {ctx.num_vars}"
        )
    if ctx.is_tracial or (s_left == 0.0 and s_right == 0.0):
        return S

    def pieces():
        for (a, b), c in S.coeffs.items():
            pa = NCPoly.monomial(S.num_vars, a, c, cap=max(len(a), 1))
            pb = NCPoly.monomial(S.num_vars, b, 1.0, cap=max(len(b), 1))
            if s_left != 0.0:
                pa = apply_sigma_reference(ctx, pa, s_left)
            if s_right != 0.0:
                pb = apply_sigma_reference(ctx, pb, s_right)
            yield tensor_of_reference(pa, pb, S.degree_cap)

    out = TensorPoly.sum(S.num_vars, pieces(), S.degree_cap)
    return TensorPoly(S.num_vars, out.coeffs, S.degree_cap, S.truncated or out.truncated)


def tensor_of_reference(P: NCPoly, Q: NCPoly, cap: int | None = None) -> TensorPoly:
    """The tensor P (x) Q pair by pair, each key from 0.0 and pruned by the
    constructor."""
    P._check(Q)
    if cap is None:
        cap = P.degree_cap + Q.degree_cap
    out: dict = {}
    dropped = False
    for wa, ca in P.coeffs.items():
        for wb, cb in Q.coeffs.items():
            if len(wa) + len(wb) > cap:
                dropped = True
                continue
            key = (wa, wb)
            out[key] = out.get(key, 0.0) + ca * cb
    return TensorPoly(P.num_vars, out, cap, P.truncated or Q.truncated or dropped)


def product_reference(left, right, cap: int, outer_right: bool = False):
    """``ncpoly.product`` as one loop over all pairs of keys: ``left`` in
    the outer loop (``right`` with ``outer_right``, joined by ``_rjoin``),
    each key summed in that order from 0j, the sums pruned; a pair beyond
    the cap is dropped and taints the result."""
    size = left._size
    outer, inner, join = (right, left, left._rjoin) if outer_right else (left, right, left._join)
    out: dict = {}
    dropped = False
    for ka, ca in outer.coeffs.items():
        room = cap - size(ka)
        for kb, cb in inner.coeffs.items():
            if size(kb) > room:
                dropped = True
                continue
            k = join(ka, kb)
            out[k] = out.get(k, 0j) + ca * cb
    kept = {k: c for k, c in out.items() if not abs(c) <= PRUNE_TOL}
    return left._pruned(left.num_vars, kept, cap, left.truncated or right.truncated or dropped)


def live_pair_count(left, right, cap: int) -> int:
    """The pairs of keys within the cap whose grade (the leg lengths of the
    joined key) has bound(G) * (1 + 1e-9) > PRUNE_TOL, or a NaN bound:
    bound(G) sums, over the splits of G, the products of the largest moduli
    of the two operands at the split's grades."""

    def grade(key):
        return (len(key),) if left._legs == 1 else (len(key[0]), len(key[1]))

    def tops(P):
        top: dict = {}
        for k, c in P.coeffs.items():
            g, m = grade(k), abs(c)
            prev = top.get(g, 0.0)
            # a NaN modulus is kept
            top[g] = prev if prev != prev else m if m != m else max(prev, m)
        return top

    def join(g1, g2):
        return tuple(a + b for a, b in zip(g1, g2))

    top1, top2 = tops(left), tops(right)
    bound: dict = {}
    for g1, m1 in top1.items():
        for g2, m2 in top2.items():
            g = join(g1, g2)
            bound[g] = bound.get(g, 0.0) + m1 * m2
    return sum(
        1
        for k1 in left.coeffs
        for k2 in right.coeffs
        if sum(join(grade(k1), grade(k2))) <= cap
        and not bound[join(grade(k1), grade(k2))] * (1 + 1e-9) <= PRUNE_TOL
    )


def rho_reference(ctx: ModularContext, P: NCPoly, k: int = 1) -> NCPoly:
    """The k-fold twisted cyclic rotation (``ncpoly.rho`` is k = 1), per
    degree, reading the entries of A as numpy scalars, with the full twists
    from ``apply_sigma_reference``."""
    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    A = ctx.A
    n_gen = ctx.num_vars

    def pieces():
        for n in P.degrees():
            comp = P.project_degree(n)
            if n == 0 or k == 0:
                yield comp
                continue
            l = k % n
            m = (k - l) // n
            coeffs = comp.coeffs
            for _ in range(l):
                nxt: dict[Word, complex] = {}
                for w, c in coeffs.items():
                    last = w[-1]
                    head = w[:-1]
                    row = A[last - 1]
                    for v in range(n_gen):
                        a = row[v]
                        if a == 0:
                            continue
                        key = (v + 1,) + head
                        nxt[key] = nxt.get(key, 0.0) + c * a
                coeffs = nxt
            piece = NCPoly(ctx.num_vars, coeffs, P.degree_cap, comp.truncated)
            if m != 0:
                piece = apply_sigma_reference(ctx, piece, -float(m))
            yield piece

    out = NCPoly.sum(ctx.num_vars, pieces(), P.degree_cap)
    return NCPoly._pruned(ctx.num_vars, out.coeffs, P.degree_cap, P.truncated)


def weighted_delta_reference(weights, P: NCPoly) -> TensorPoly:
    """sum_k weights[k - 1] delta_k P with the weights as given (numpy
    scalars from a row or column of alpha), as ``partial_sigma`` and
    ``partial_bar`` sum it."""
    return TensorPoly.sum(
        P.num_vars,
        (delta(k, P).scale(a) for k, a in enumerate(weights, start=1) if abs(a) > 0),
        2 * P.degree_cap,
    )


def moment_reference(ctx: ModularContext, q: float, word: Word) -> complex:
    """A monomial moment by the two production routes of ``MomentOracle``,
    reading <e_j, e_k>_U as numpy scalars: the non-crossing interval
    recursion at q = 0, the Fock-space walk otherwise."""
    inner = ctx.inner_U
    if len(word) % 2 == 1:
        return 0.0 + 0.0j
    if q == 0.0:
        memo: dict[Word, complex] = {(): 1.0 + 0.0j}

        def rec(w: Word) -> complex:
            if len(w) % 2 == 1:
                return 0.0 + 0.0j
            got = memo.get(w)
            if got is not None:
                return got
            total = 0.0 + 0.0j
            first = w[0]
            for k in range(1, len(w), 2):
                c = inner[first - 1, w[k] - 1]
                if c == 0:
                    continue
                total += c * rec(w[1:k]) * rec(w[k + 1:])
            memo[w] = total
            return total

        return complex(rec(word))
    state: dict[Word, complex] = {(): 1.0 + 0.0j}
    n = len(word)
    for step, letter in enumerate(reversed(word)):
        budget = n - step - 1
        nxt: dict[Word, complex] = {}
        for vec, c in state.items():
            created = (letter,) + vec
            if len(created) <= budget:
                nxt[created] = nxt.get(created, 0.0) + c
            qfac = 1.0
            for m, slot in enumerate(vec):
                w = inner[letter - 1, slot - 1]
                if w != 0:
                    reduced = vec[:m] + vec[m + 1:]
                    if len(reduced) <= budget:
                        nxt[reduced] = nxt.get(reduced, 0.0) + c * qfac * w
                qfac *= q
        state = nxt
    return complex(state.get((), 0.0 + 0.0j))


def fresh_view(P) -> tuple:
    """The coded view of an ``NCPoly`` or ``TensorPoly`` that carries one,
    built again from its map under codes of the view's dtype."""
    dtype = P.__dict__["_view"][0]
    degree = max(map(P._size, P.coeffs), default=0)
    codes = WordCodes(P.num_vars, degree)
    if codes.dtype is not dtype:
        # every count of generators above one takes Python-int codes here
        codes = WordCodes(P.num_vars, 62)
    assert codes.dtype is dtype
    arrays = P._encode(list(P.coeffs), codes)
    coef = np.fromiter(P.coeffs.values(), complex, len(P.coeffs))
    return dtype, degree, arrays, coef


def views_equal(a: tuple, b: tuple) -> bool:
    """Two coded views hold the same dtype, degree, code arrays (values and
    dtypes) and coefficient bits."""
    return (
        a[0] is b[0]
        and a[1] == b[1]
        and len(a[2]) == len(b[2])
        and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a[2], b[2]))
        and a[3].tobytes() == b[3].tobytes()
    )


def constant(num_vars: int, c: complex, cap: int) -> NCPoly:
    """The constant polynomial c."""
    return NCPoly(num_vars, {(): c}, cap)


def number_op(P: NCPoly) -> NCPoly:
    """Multiply each word by its length."""
    return NCPoly(
        P.num_vars,
        {w: len(w) * c for w, c in P.coeffs.items()},
        P.degree_cap,
        P.truncated,
    )


def wick_poly(ctx: ModularContext, q: float, word, _memo=None) -> NCPoly:
    """Wick polynomial of a word (``arakiwoods._wick``), with the letters
    checked."""
    word = tuple(word)
    for j in word:
        ctx.check_index(j)
    return _wick(ctx, q, word, {} if _memo is None else _memo)


def is_centralizer(ctx: ModularContext, P: NCPoly, tol: float = CENTRALIZER_TOL) -> bool:
    """True when P is fixed by the modular action (sigma_{-i} P = P)."""
    if ctx.is_tracial:
        return True
    return max_coeff_diff(apply_sigma(ctx, P, -1.0), P) <= tol


def t_apply(S: TensorPoly, g: NCPoly) -> NCPoly:
    """Two-sided action (a (x) b) # c = a c b, extended bilinearly."""
    S._check(g)
    cap = min(S.degree_cap, g.degree_cap)
    out: dict[Word, complex] = {}
    dropped = False
    for (a, b), c1 in S.coeffs.items():
        for w, c2 in g.coeffs.items():
            word = a + w + b
            if len(word) > cap:
                dropped = True
                continue
            out[word] = out.get(word, 0.0) + c1 * c2
    return NCPoly(S.num_vars, out, cap, S.truncated or g.truncated or dropped)


def t_flip_m(S: TensorPoly) -> NCPoly:
    """Multiplication map m(a (x) b) = ab."""
    out: dict[Word, complex] = {}
    for (a, b), c in S.coeffs.items():
        w = a + b
        out[w] = out.get(w, 0.0) + c
    return NCPoly(S.num_vars, out, S.degree_cap, S.truncated)


def identity_matrix(num_vars: int, dim: int, cap: int) -> TensorMatrix:
    """The dim x dim matrix with 1 (x) 1 on the diagonal."""
    one = TensorPoly.one(num_vars, cap)
    zero = TensorPoly.zero(num_vars, cap)
    return TensorMatrix(
        dim,
        tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim)),
    )


def trace(Q: TensorMatrix) -> TensorPoly:
    """The plain trace sum_i Q_ii, which ``tensor.trace_A`` weights by A."""
    return TensorPoly.sum(Q.num_vars, (Q[i, i] for i in range(Q.dim)), Q.degree_cap)


def mat_vec(Q: TensorMatrix, g: list[NCPoly]) -> list[NCPoly]:
    """Matrix # vector: (Q # g)_i = sum_j Q_ij # g_j."""
    if Q.dim != len(g):
        raise DimMismatch(f"matrix dim {Q.dim}, vector length {len(g)}")
    cap = min(Q.degree_cap, *(p.degree_cap for p in g))
    return [
        NCPoly.sum(g[0].num_vars, (t_apply(Q[i, j], g[j]) for j in range(Q.dim)), cap)
        for i in range(Q.dim)
    ]


def _q_deriv_bar(ctx: ModularContext, j: int, P: NCPoly, Xi: TensorPoly) -> TensorPoly:
    """Deformed conjugate derivation: partial_bar followed by # with Xi,
    computed exactly (caps lifted to the degree sum)."""
    base = partial_bar(ctx, j, P)
    if Xi.coeffs == {((), ()): 1.0 + 0.0j}:
        return base
    full = base.degree() + Xi.degree()
    return t_mul(base.with_cap(full), Xi.with_cap(full))


def partial_q_star(
    o: MomentOracle, ctx: ModularContext, j: int, T: TensorPoly, Xi: TensorPoly
) -> NCPoly:
    """Adjoint of the deformed derivation applied to a word-pair tensor:
    elementwise a X_j s(b) - a s(CL(dbar_j b # Xi)) - CR(dbar_j a # Xi) s(b),
    with s the modular twist at -i.  With Xi = 1 (x) 1 this is the q = 0
    adjoint; in particular the unit maps to the generator X_j.
    """
    return deformed_adjoint(o, ctx, j, t_sigma(ctx, T, 0.0, -1.0), Xi)


def partial_q_star_reference(
    o: MomentOracle, ctx: ModularContext, j: int, T: TensorPoly, Xi: TensorPoly
) -> NCPoly:
    """Adjoint of the deformed derivation, term by term on a (x) b:

        a X_j s(b) - a s(CL(dbar_j b # Xi)) - CR(dbar_j a # Xi) s(b),

    with s the modular twist at -i, accumulated through polynomial
    arithmetic at the cap |T| + 1.
    """
    ctx.check_index(j)
    nv = ctx.num_vars
    cap = T.degree_cap + 1
    out = NCPoly.zero(nv, cap)
    xj = NCPoly.gen(nv, j, cap)
    for (a, b), c in T.coeffs.items():
        pa = NCPoly.monomial(nv, a, c, cap=cap)
        pb = NCPoly.monomial(nv, b, 1.0, cap=cap)
        sb = apply_sigma(ctx, pb, -1.0)
        t1 = pa * xj * sb
        t2 = pa * apply_sigma(ctx, o.contract_left(_q_deriv_bar(ctx, j, pb, Xi)), -1.0).with_cap(cap)
        t3 = o.contract_right(_q_deriv_bar(ctx, j, pa, Xi)).with_cap(cap) * sb
        out = out + t1 - t2 - t3
    return out


def jsigma_star(
    o: MomentOracle, ctx: ModularContext, Q: TensorMatrix, Xi: TensorPoly
) -> list[NCPoly]:
    """Adjoint of the twisted Jacobian: component j is sum_i of the adjoint
    derivation applied to entry (j, i)."""
    if Q.dim != ctx.num_vars:
        raise DimMismatch(f"matrix dim {Q.dim}, context has {ctx.num_vars}")
    out = []
    for j in range(1, ctx.num_vars + 1):
        acc = NCPoly.zero(ctx.num_vars, Q.degree_cap + 1)
        for i in range(1, ctx.num_vars + 1):
            acc = acc + partial_q_star(o, ctx, i, Q[j - 1, i - 1], Xi)
        out.append(acc)
    return out


def state_tensor(o: MomentOracle, T: TensorPoly) -> complex:
    """(state (x) state)(T): both legs of each key through the state."""
    return sum(
        (c * o.moment(a) * o.moment(b) for (a, b), c in T.coeffs.items()), 0.0 + 0.0j
    )


def inner(o: MomentOracle, P: NCPoly, Q: NCPoly) -> complex:
    """<P, Q> = state(P* Q), complex-linear in the second slot, computed
    wordwise so that no degree cap interferes."""
    total = 0.0 + 0.0j
    for wp, cp in P.coeffs.items():
        rev = wp[::-1]
        for wq, cq in Q.coeffs.items():
            total += cp.conjugate() * cq * o.moment(rev + wq)
    return total


def inner_tensor(o: MomentOracle, S: TensorPoly, T: TensorPoly) -> complex:
    """Inner product on the tensor square:
    <a (x) b, c (x) d> = state(a* c) state(d b*).
    """
    total = 0.0 + 0.0j
    for (a, b), cs in S.coeffs.items():
        ra, rb = a[::-1], b[::-1]
        for (c, d), ct in T.coeffs.items():
            total += cs.conjugate() * ct * o.moment(ra + c) * o.moment(d + rb)
    return total


def lmul(P: NCPoly, S: TensorPoly) -> TensorPoly:
    """Left action P . (a (x) b) = (Pa) (x) b."""
    return t_mul(tensor_of(P, NCPoly.one(P.num_vars, S.degree_cap), S.degree_cap), S)


def rmul(S: TensorPoly, P: NCPoly) -> TensorPoly:
    """Right action (a (x) b) . P = a (x) (bP)."""
    return t_mul(tensor_of(NCPoly.one(P.num_vars, S.degree_cap), P, S.degree_cap), S)


def partial_tilde(ctx: ModularContext, j: int, P: NCPoly) -> TensorPoly:
    """Leg-swapped variant sum_k alpha_jk delta_k(.)^diamond."""
    return t_diamond(partial_bar(ctx, j, P))


def cyclic_D_composed(ctx: ModularContext, j: int, P: NCPoly) -> NCPoly:
    """Cyclic derivative as m o diamond o (1 (x) sigma_{-i}) o partial_bar."""
    t = partial_bar(ctx, j, P)
    t = t_sigma(ctx, t, 0.0, -1.0)
    return t_flip_m(t_diamond(t)).with_cap(P.degree_cap)


def cyclic_D_loop(ctx: ModularContext, j: int, P: NCPoly, drops: list | None = None) -> NCPoly:
    """Cyclic derivative path by path, into one dict: each tail's twist with
    coefficient one, expanded through the context's rows of A on its first
    use in this call, each path from 0j and pruned; then each path's
    0j + ct (c alpha_{j, w_l}) pruned and added to its key with
    prune-on-touch, as ``NCPoly.sum`` adds the per-term products.  A key
    that a sum drops is appended to ``drops``, when given."""
    ctx.check_index(j)
    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    alpha = ctx.alpha_rows[j - 1]
    nv, cap = P.num_vars, P.degree_cap
    twists: dict[Word, dict[Word, complex]] = {}
    acc: dict[Word, complex] = {}
    dropped = False
    for w, c in P.coeffs.items():
        for l in range(len(w)):
            a = alpha[w[l] - 1]
            if abs(a) == 0.0:
                continue
            tail = w[l + 1:]
            if tail not in twists:
                paths = twist_paths(ctx.A_rows, tail, 1.0 + 0j)
                twists[tail] = {t: 0j + v for t, v in paths if not abs(v) <= PRUNE_TOL}
            tw = twists[tail]
            m = c * a
            if abs(m) <= PRUNE_TOL:
                continue
            if len(w) - 1 > cap:
                dropped = dropped or bool(tw)
                continue
            head = w[:l]
            for t, ct in tw.items():
                # the product's new key from 0j and its prune, then the sum's
                v = 0j + ct * m
                if abs(v) <= PRUNE_TOL:
                    continue
                key = t + head
                v = acc.get(key, 0.0) + v
                if not abs(v) <= PRUNE_TOL:
                    acc[key] = v
                else:
                    # only a key in acc gets here: a new key's sum is v
                    del acc[key]
                    if drops is not None:
                        drops.append(key)
    return NCPoly._pruned(nv, acc, cap, dropped or P.truncated)


def cyclic_D_reference(ctx: ModularContext, j: int, P: NCPoly) -> NCPoly:
    """Cyclic derivative term by term: each (word, position) term is the
    product twist(tail) * (c alpha_{j, w_l}) head, with one twist per
    distinct tail, and the terms are summed by ``NCPoly.sum``."""
    ctx.check_index(j)
    alpha = ctx.alpha
    nv, cap = P.num_vars, P.degree_cap
    twisted: dict[Word, NCPoly] = {}

    def terms():
        for w, c in P.coeffs.items():
            for l in range(len(w)):
                a = alpha[j - 1, w[l] - 1]
                if abs(a) == 0.0:
                    continue
                tail = w[l + 1:]
                if tail not in twisted:
                    mono = NCPoly.monomial(nv, tail, 1.0, cap=cap)
                    twisted[tail] = apply_sigma_reference(ctx, mono, -1.0)
                yield twisted[tail] * NCPoly.monomial(nv, w[:l], c * a, cap=cap)

    out = NCPoly.sum(nv, terms(), cap)
    return NCPoly(nv, out.coeffs, cap, out.truncated or P.truncated)


def substitute_reference(P: NCPoly, Y: list[NCPoly], cap: int) -> NCPoly:
    """Composition P(Y_1, ..., Y_N) term by term: each word's product is
    ``one.scale(c)`` times one ``NCPoly`` product per letter, and the terms
    are summed by ``NCPoly.sum``."""
    nv = Y[0].num_vars
    one = NCPoly.one(nv, cap)
    capped = [y.with_cap(cap) for y in Y]

    def terms():
        for word, c in P.coeffs.items():
            term = one.scale(c)
            for j in word:
                term = term * capped[j - 1]
            yield term

    out = NCPoly.sum(nv, terms(), cap)
    taint = P.truncated or any(y.truncated for y in Y)
    return NCPoly(nv, out.coeffs, cap, out.truncated or taint)


def norm_R_sigma_reference(ctx: ModularContext, P: NCPoly, R: float) -> NormValue:
    """Rotation-invariant norm with the centralizer test done first, by the
    modular action (``is_centralizer``), before any rotation."""
    total = 0.0
    for n in P.degrees():
        comp = P.project_degree(n)
        if n == 0:
            total += norm_R(comp, R)
            continue
        if not is_centralizer(ctx, comp):
            bound = ctx.norm_A ** max(P.degree() - 1, 0) * norm_R(P, R)
            return NormValue(float(bound), False)
        best = norm_R(comp, R)
        rotated = comp
        for _ in range(1, n):
            rotated = rho(ctx, rotated)
            best = max(best, norm_R(rotated, R))
        total += best
    return NormValue(float(total), True)


def q_gram_reference(ctx: ModularContext, q: float, n: int) -> np.ndarray:
    """Level-n q-Gram as the literal permutation sum: entry (u, v) is
    sum_pi q^{inv pi} prod_k <e_{u_k}, e_{v_{pi(k)}}>_U over words in
    lexicographic order.  Cost n! N^{2n}."""
    words = list(product(range(1, ctx.num_vars + 1), repeat=n))
    perms = []
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        perms.append((perm, q**inv))
    inner = ctx.inner_U
    gram = np.zeros((len(words), len(words)), dtype=complex)
    for iu, u in enumerate(words):
        for iv, v in enumerate(words):
            total = 0.0 + 0.0j
            for perm, w in perms:
                prod_val = w
                for k in range(n):
                    prod_val *= inner[u[k] - 1, v[perm[k]] - 1]
                total += prod_val
            gram[iu, iv] = total
    return gram


def q_gram_levelwise_reference(ctx: ModularContext, q: float, n: int) -> np.ndarray:
    """Level-n q-Gram by its own run of the Bozejko-Speicher recursion from
    level 1, in the array steps ``arakiwoods._grams`` shares between the
    levels: the same array, bit for bit."""
    nv = ctx.num_vars
    p = np.ones((1, 1))
    for m in range(1, n + 1):
        lifted = np.kron(np.eye(nv), p)
        index = np.arange(nv**m).reshape((nv,) * m)
        p = sum(q**k * lifted[:, np.moveaxis(index, 0, k).ravel()] for k in range(m))
    gram = p.reshape((nv,) * n + (nv**n,))
    for k in range(n):
        gram = np.moveaxis(np.tensordot(ctx.inner_U, gram, axes=([1], [k])), 0, k)
    return gram.reshape(nv**n, nv**n).astype(complex)


def wick_reference(ctx: ModularContext, q: float, word: Word, memo: dict) -> NCPoly:
    """Wick polynomial of a word by the head-letter recursion, as a sum of
    polynomials: the generator times the tail's polynomial, minus the
    scaled contractions, added by ``NCPoly.sum``.  ``arakiwoods._wick``
    takes the same float steps in one dict."""
    got = memo.get(word)
    if got is not None:
        return got
    n = len(word)
    cap = max(n, 1)
    if n == 0:
        out = NCPoly.one(ctx.num_vars, cap)
    else:
        head, rest = word[0], word[1:]
        inner = ctx.inner_rows[head - 1]
        parts = [NCPoly.gen(ctx.num_vars, head, cap) * wick_reference(ctx, q, rest, memo).with_cap(cap)]
        for k in range(len(rest)):
            w = q**k * inner[rest[k] - 1]
            if w != 0:
                parts.append(wick_reference(ctx, q, rest[:k] + rest[k + 1:], memo).scale(-w))
        out = NCPoly.sum(ctx.num_vars, parts, cap)
    memo[word] = out
    return out


def build_xi_reference(ctx: ModularContext, q: float, d: int) -> XiData:
    """Level-sum kernel with each level's Gram from its own recursion
    (``q_gram_levelwise_reference``), the Wick polynomials as sums of
    polynomials (``wick_reference``) and each level block built by the
    constructor: ``arakiwoods.build_xi``'s value bit for bit."""
    nv, cap = ctx.num_vars, max(2 * d, 2)
    memo: dict = {}

    def level(n: int) -> TensorPoly:
        cols = _orthonormal_columns(q_gram_levelwise_reference(ctx, q, n))
        wicks = [wick_reference(ctx, q, w, memo) for w in product(range(1, nv + 1), repeat=n)]
        monos = list(dict.fromkeys(m for wick in wicks for m in wick.coeffs))
        row = {m: i for i, m in enumerate(monos)}
        wk = np.zeros((len(monos), len(wicks)), dtype=complex)
        for j, wick in enumerate(wicks):
            for m, c in wick.coeffs.items():
                wk[row[m], j] = c
        vecs = wk @ cols
        block = q**n * (vecs @ vecs.conj().T)
        coeffs = {
            (a, b[::-1]): c for a, entries in zip(monos, block.tolist()) for b, c in zip(monos, entries)
        }
        return TensorPoly(nv, coeffs, cap, any(wick.truncated for wick in wicks))

    levels = range(1, d + 1) if q != 0.0 else ()
    xi = TensorPoly.sum(nv, [TensorPoly.one(nv, cap), *map(level, levels)], cap)
    return XiData(q=q, max_level=d, xi=xi)


def build_xi_per_vector_reference(ctx: ModularContext, q: float, d: int) -> XiData:
    """Level-sum kernel assembled one basis vector at a time:
    sum over n <= d of q^n sum_i r_i (x) r_i*, where the level-n family is
    Gram-Schmidt on the Wick polynomials, r_i = sum_w C[w, i] psi_w with
    C = L^{-H} for the Cholesky factor L of ``q_gram_reference``."""
    nv, cap = ctx.num_vars, max(2 * d, 2)
    memo: dict = {}

    def level(n: int) -> TensorPoly:
        if n == 0:
            return TensorPoly.one(nv, cap)
        wicks = [wick_poly(ctx, q, w, memo) for w in product(range(1, nv + 1), repeat=n)]
        cols = np.linalg.inv(np.linalg.cholesky(q_gram_reference(ctx, q, n))).conj().T
        fam = [
            NCPoly.sum(nv, (wk.scale(complex(c)) for wk, c in zip(wicks, col)), n)
            for col in cols.T
        ]
        block = TensorPoly.sum(nv, (tensor_of(r, r.adjoint(), cap) for r in fam), cap)
        return block.scale(q**n)

    xi = TensorPoly.sum(nv, map(level, range(d + 1 if q != 0.0 else 1)), cap)
    return XiData(q=q, max_level=d, xi=xi)


def load_config_reference(raw: dict) -> dict:
    """The configuration fields of a valid JSON object as the float/int
    casts of the former ``cli.load_config`` set them, ``transport()`` fields
    included; every default spelled out."""
    lambdas = [float(x) for x in raw.get("lambdas", [])]
    r_default = 4.0 * modular_norm(lambdas) ** 0.5
    return {
        "lambdas": lambdas,
        "num_trivial": int(raw.get("num_trivial", 0)),
        "q": float(raw.get("q", 0.0)),
        "R": float(raw.get("R", r_default)),
        "R_prime": float(raw.get("R_prime", raw.get("R", r_default) + 1.0)),
        "rho": float(raw.get("rho", 1.0)),
        "degree_cap": int(raw.get("degree_cap", 8)),
        "tolerance": float(raw.get("tolerance", 1e-9)),
        "max_iterations": int(raw.get("max_iterations", 200)),
        "gamma": float(raw.get("gamma", 0.25)),
        "level_cap": int(raw.get("level_cap", min(int(raw.get("degree_cap", 8)), 8))),
        "c": float(raw.get("c", 1.0)),
        "law_degree": int(raw["law_degree"]) if raw.get("law_degree") is not None else None,
        "strict_hypotheses": bool(raw.get("strict_hypotheses", False)),
    }


def inversion_constant_reference(norm_f_S: float, s_prime: float, S: float) -> float:
    """C(S') = |f|_S max_k k S'^{k-1} S^{-k} by a scan of every k from 1 up
    to one past floor(S' / (S - S')) + 1, where the terms stop growing;
    ``transport._inversion_constant`` evaluates three k around that peak."""
    k_max = int(s_prime / (S - s_prime)) + 2
    best = max(k * (s_prime / S) ** (k - 1) / S for k in range(1, k_max + 1))
    return norm_f_S * best
