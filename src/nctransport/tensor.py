"""Word-pair polynomials (the algebra P (x) P^op) and N x N matrices of them.

An elementary tensor a (x) b is stored as the pair of words (a, b); the
product is (a (x) b) # (c (x) d) = (ac) (x) (db).  The degree cap applies to
|a| + |b|.  Storage, pruning, the cap rule and the linear structure,
including the in-place accumulator every sum goes through, are the ones of
``ncpoly.NCPoly``: both classes share one base.  The projective-norm value
computed here is the upper bound read off the stored elementary-tensor
representation, which is what every estimate in this library consumes.

Large # products are summed as numpy arrays, through the helper that
``NCPoly`` products use (``ncpoly.batched_pairs``), with the per-pair loop's
result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, VarCountMismatch
from .modular import ModularContext
from . import ncpoly
from .ncpoly import PRUNE_TOL, NCPoly, Word, WordCodes, _Sparse, batched_pairs

Pair = tuple[Word, Word]


class TensorPoly(_Sparse):
    """Sparse element of P (x) P^op with a total-degree cap and taint flag."""

    @staticmethod
    def _size(pair: Pair) -> int:
        return len(pair[0]) + len(pair[1])

    @staticmethod
    def _encode(pairs: list[Pair], codes: WordCodes) -> tuple:
        """Index and length arrays of the left legs, then of the right legs."""
        return (*codes.index([a for a, _ in pairs]), *codes.index([b for _, b in pairs]))

    @staticmethod
    def _sizes(arrays: tuple) -> np.ndarray:
        return arrays[1] + arrays[3]

    @staticmethod
    def one(num_vars: int, cap: int) -> "TensorPoly":
        """The unit 1 (x) 1."""
        return TensorPoly(num_vars, {((), ()): 1.0}, cap)

    @staticmethod
    def elementary(num_vars: int, left, right, c: complex = 1.0, cap: int | None = None) -> "TensorPoly":
        left, right = tuple(left), tuple(right)
        if cap is None:
            cap = max(len(left) + len(right), 1)
        return TensorPoly(num_vars, {(left, right): c}, cap)

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        return TensorPoly.sum(self.num_vars, (self, other), min(self.degree_cap, other.degree_cap))

    def __repr__(self):
        n = len(self.coeffs)
        taint = ", truncated" if self.truncated else ""
        return f"TensorPoly<{n} terms, deg<={self.degree()}{taint}>"


def tensor_of(P: NCPoly, Q: NCPoly, cap: int | None = None) -> TensorPoly:
    """The tensor P (x) Q of two polynomials."""
    P._check(Q)
    if cap is None:
        cap = P.degree_cap + Q.degree_cap
    out: dict[Pair, complex] = {}
    dropped = False
    for wa, ca in P.coeffs.items():
        for wb, cb in Q.coeffs.items():
            if len(wa) + len(wb) > cap:
                dropped = True
                continue
            key = (wa, wb)
            out[key] = out.get(key, 0.0) + ca * cb
    return TensorPoly(P.num_vars, out, cap, P.truncated or Q.truncated or dropped)


def t_mul(S: TensorPoly, T: TensorPoly) -> TensorPoly:
    """# product: (a (x) b) # (c (x) d) = (ac) (x) (db).

    The outer loop runs over the operand with fewer terms, over S on a tie
    but over T when S is T.  With at least ``ncpoly.PAIR_BATCH_MIN``
    coefficient pairs the pairs are summed as arrays (``_t_mul_batched``),
    with the same result.
    """
    S._check(T)
    cap = min(S.degree_cap, T.degree_cap)
    swapped = len(S.coeffs) > len(T.coeffs) or S is T
    if len(S.coeffs) * len(T.coeffs) >= ncpoly.PAIR_BATCH_MIN:
        codes = WordCodes(S.num_vars, max(cap, S.degree(), T.degree()))
        return _t_mul_batched(S, T, cap, codes, swapped)
    out: dict[Pair, complex] = {}
    dropped = False
    small, big = (T, S) if swapped else (S, T)
    for (a1, b1), c1 in small.coeffs.items():
        for (a2, b2), c2 in big.coeffs.items():
            if swapped:
                pa, pb = a2 + a1, b1 + b2
            else:
                pa, pb = a1 + a2, b2 + b1
            if len(pa) + len(pb) > cap:
                dropped = True
                continue
            key = (pa, pb)
            # from 0j, as in NCPoly.__mul__
            out[key] = out.get(key, 0j) + c1 * c2
    return TensorPoly(
        S.num_vars, out, cap, S.truncated or T.truncated or dropped
    )


def _t_mul_batched(
    left: TensorPoly, right: TensorPoly, cap: int, codes: WordCodes, outer_right: bool
) -> TensorPoly:
    """The # product loop's result under ``cap``, from
    ``ncpoly.batched_pairs``, with its coded view attached; the loop runs
    over ``right`` outside with ``outer_right``.  ``codes`` must cover every
    word of both operands.  A term's grade codes its bidegree (|a|, |b|): the
    pair (a1 (x) b1, a2 (x) b2) onto a key is fixed by (|a1|, |b1|)."""
    k1, k2 = list(left.coeffs), list(right.coeffs)
    _, _, (ia1, la1, ib1, lb1), c1 = left._coded(codes)
    _, _, (ia2, la2, ib2, lb2), c2 = right._coded(codes)
    fits = (la1 + lb1)[:, None] + (la2 + lb2)[None, :] <= cap
    # no leg is longer than codes.cap, so distinct bidegrees get distinct grades
    g1, g2 = la1 * (codes.cap + 1) + lb1, la2 * (codes.cap + 1) + lb2

    def legs(s, t):
        # (a1 (x) b1) # (a2 (x) b2) = a1 a2 (x) b2 b1, each leg's index and
        # length
        return (
            ia1[s] * codes.powers[la2[t]] + ia2[t], la1[s] + la2[t],
            ib2[t] * codes.powers[lb1[s]] + ib1[s], lb2[t] + lb1[s],
        )

    def key(s, t):
        # the index of the word a1 a2 b2 b1, then the lengths of both legs
        ia, pa, ib, pb = legs(s, t)
        c = codes.cap + 1
        return ((ia * codes.powers[pb] + ib) * c + pa) * c + pb

    s, t, re, im = batched_pairs(c1, g1, c2, g2, fits, key, outer_right)
    out = {
        (k1[x][0] + k2[y][0], k2[y][1] + k1[x][1]): complex(u, v)
        for x, y, u, v in zip(s.tolist(), t.tolist(), re.tolist(), im.tolist())
    }
    taint = left.truncated or right.truncated or not fits.all()
    prod = TensorPoly._pruned(left.num_vars, out, cap, taint)
    prod._attach(codes.dtype, legs(s, t), ncpoly._coef_array(re, im))
    return prod


def t_star(S: TensorPoly) -> TensorPoly:
    """Adjoint on each leg: conjugate coefficients, reverse both words."""
    return TensorPoly(
        S.num_vars,
        {(a[::-1], b[::-1]): c.conjugate() for (a, b), c in S.coeffs.items()},
        S.degree_cap,
        S.truncated,
    )


def t_diamond(S: TensorPoly) -> TensorPoly:
    """Linear leg swap: a (x) b -> b (x) a."""
    return TensorPoly(
        S.num_vars,
        {(b, a): c for (a, b), c in S.coeffs.items()},
        S.degree_cap,
        S.truncated,
    )


def t_dagger(S: TensorPoly) -> TensorPoly:
    """Conjugate-linear involution a (x) b -> b* (x) a*."""
    return TensorPoly(
        S.num_vars,
        {(b[::-1], a[::-1]): c.conjugate() for (a, b), c in S.coeffs.items()},
        S.degree_cap,
        S.truncated,
    )


def t_sigma(ctx: ModularContext, S: TensorPoly, s_left: float, s_right: float) -> TensorPoly:
    """Legwise modular action at imaginary parameters (s_left, s_right).

    Each term c a (x) b becomes sigma(c a) (x) sigma(b): c goes through the
    paths of a's twist at s_left, pruned as ``apply_sigma`` prunes, and b
    takes its unit twist at s_right, both from the context's sigma table.
    The pairs are added into one dict as ``TensorPoly.sum`` adds the
    per-term tensors ``tensor_of(sigma(c a), sigma(b))``: each product from
    0.0 and pruned, then summed with prune-on-touch.  A term over the cap
    with a pair on both legs sets the taint.
    """
    if S.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"tensor over {S.num_vars} vars, context has {ctx.num_vars}"
        )
    if ctx.is_tracial or (s_left == 0.0 and s_right == 0.0):
        return S
    cap = S.degree_cap
    acc: dict[Pair, complex] = {}
    dropped = False
    for (a, b), c in S.coeffs.items():
        if s_left == 0.0:
            left = [(a, c)]
        else:
            left = []
            for wa, v in ctx.twist(s_left, a).fold(c):
                # apply_sigma's sum from 0.0, then its prune
                v = 0.0 + v
                if abs(v) > PRUNE_TOL:
                    left.append((wa, complex(v)))
        right = ctx.twist(s_right, b).unit if s_right != 0.0 else {b: 1.0 + 0j}
        if len(a) + len(b) > cap:
            dropped = dropped or bool(left and right)
            continue
        for wa, ca in left:
            for wb, cb in right.items():
                # tensor_of's new key from 0.0 and its prune, then the sum's
                v = 0.0 + ca * cb
                if not abs(v) > PRUNE_TOL:
                    continue
                key = (wa, wb)
                v = acc.get(key, 0.0) + v
                if abs(v) > PRUNE_TOL:
                    acc[key] = v
                else:
                    acc.pop(key, None)
    return TensorPoly._pruned(S.num_vars, acc, cap, S.truncated or dropped)


def pi_norm_bound(S: TensorPoly, R: float) -> float:
    """Projective-norm upper bound from the stored representation."""
    if R <= 0:
        raise ValueError("R must be positive")
    return float(
        sum(abs(c) * R ** (len(a) + len(b)) for (a, b), c in S.coeffs.items())
    )


def max_pair_diff(S: TensorPoly, T: TensorPoly) -> float:
    S._check(T)
    keys = set(S.coeffs) | set(T.coeffs)
    return max(
        (abs(S.coeffs.get(k, 0.0) - T.coeffs.get(k, 0.0)) for k in keys), default=0.0
    )


# -- matrices over the tensor algebra ---------------------------------------


@dataclass(frozen=True)
class TensorMatrix:
    """Square matrix with TensorPoly entries, all over the same generators."""

    dim: int
    entries: tuple  # tuple of tuples of TensorPoly

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        nv = rows[0][0].num_vars
        for row in rows:
            if len(row) != self.dim:
                raise DimMismatch("ragged matrix")
            for e in row:
                if e.num_vars != nv:
                    raise VarCountMismatch("mixed generator counts in matrix")

    @property
    def num_vars(self) -> int:
        return self.entries[0][0].num_vars

    @property
    def degree_cap(self) -> int:
        return min(e.degree_cap for row in self.entries for e in row)

    @property
    def truncated(self) -> bool:
        return any(e.truncated for row in self.entries for e in row)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @staticmethod
    def scalar(M, num_vars: int, cap: int) -> "TensorMatrix":
        """Embed a numeric matrix as degree-zero tensor entries."""
        dim = len(M)
        return TensorMatrix(
            dim,
            tuple(
                tuple(TensorPoly(num_vars, {((), ()): M[i][j]}, cap) for j in range(dim))
                for i in range(dim)
            ),
        )

    def map_entries(self, fn) -> "TensorMatrix":
        return TensorMatrix(
            self.dim,
            tuple(tuple(fn(e) for e in row) for row in self.entries),
        )

    def __add__(self, other: "TensorMatrix") -> "TensorMatrix":
        if self.dim != other.dim:
            raise DimMismatch("matrix dims differ")
        return TensorMatrix(
            self.dim,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "TensorMatrix") -> "TensorMatrix":
        return self + other.map_entries(lambda e: -e)

    def scale(self, c: complex) -> "TensorMatrix":
        return self.map_entries(lambda e: e.scale(c))


def mat_mul(Q: TensorMatrix, Qp: TensorMatrix) -> TensorMatrix:
    """Entrywise # matrix product."""
    if Q.dim != Qp.dim:
        raise DimMismatch(f"matrix dims {Q.dim} and {Qp.dim}")
    n = Q.dim
    cap = min(Q.degree_cap, Qp.degree_cap)
    return TensorMatrix(
        n,
        tuple(
            tuple(
                TensorPoly.sum(Q.num_vars, (t_mul(Q[i, k], Qp[k, j]) for k in range(n)), cap)
                for j in range(n)
            )
            for i in range(n)
        ),
    )


def vec_dot(f: list[NCPoly], g: list[NCPoly]) -> NCPoly:
    """Vector pairing f # g = sum_j f_j g_j."""
    if len(f) != len(g):
        raise DimMismatch(f"vector lengths {len(f)} and {len(g)}")
    cap = min(p.degree_cap for p in f + g)
    return NCPoly.sum(f[0].num_vars, (fj * gj for fj, gj in zip(f, g)), cap)


def trace(Q: TensorMatrix) -> TensorPoly:
    return TensorPoly.sum(Q.num_vars, (Q[i, i] for i in range(Q.dim)), Q.degree_cap)


def _trace_weighted(ctx: ModularContext, Q: TensorMatrix, M) -> TensorPoly:
    if Q.dim != ctx.num_vars:
        raise DimMismatch(f"matrix dim {Q.dim}, context has {ctx.num_vars}")
    n = Q.dim
    weights = ((i, j, complex(M[i][j])) for i in range(n) for j in range(n))
    return TensorPoly.sum(
        Q.num_vars,
        (Q[j, i].scale(m) for i, j, m in weights if abs(m) > PRUNE_TOL),
        Q.degree_cap,
    )


def trace_A(ctx: ModularContext, Q: TensorMatrix) -> TensorPoly:
    """Tr(A # Q) = sum_{ij} A_ij Q_ji."""
    return _trace_weighted(ctx, Q, ctx.A)


def trace_Ainv(ctx: ModularContext, Q: TensorMatrix) -> TensorPoly:
    """Tr(A^{-1} # Q); A^{-1} = A^T for the block structure used here."""
    return _trace_weighted(ctx, Q, ctx.A.T)


def pi_norm_bound_mat(Q: TensorMatrix, R: float) -> float:
    """Max row sum of entrywise projective-norm bounds."""
    return max(
        sum(pi_norm_bound(Q[i, j], R) for j in range(Q.dim)) for i in range(Q.dim)
    )


def mat_star(Q: TensorMatrix) -> TensorMatrix:
    """Matrix adjoint: transpose with entrywise leg adjoints."""
    return TensorMatrix(
        Q.dim,
        tuple(
            tuple(t_star(Q[j, i]) for j in range(Q.dim)) for i in range(Q.dim)
        ),
    )


def mat_sigma(ctx: ModularContext, Q: TensorMatrix, s_left: float, s_right: float) -> TensorMatrix:
    """Legwise modular action applied to every entry."""
    return Q.map_entries(lambda e: t_sigma(ctx, e, s_left, s_right))
