"""Word-pair polynomials (the algebra P (x) P^op) and N x N matrices of them.

An elementary tensor a (x) b is stored as the pair of words (a, b); the
product is (a (x) b) # (c (x) d) = (ac) (x) (db).  The degree cap applies to
|a| + |b|.  Storage, pruning, the cap rule and the linear structure,
including the in-place accumulator every sum goes through, are the ones of
``ncpoly.NCPoly``: both classes share one base.  The projective-norm value
computed here is the upper bound read off the stored elementary-tensor
representation, which is what every estimate in this library consumes.

The # product and the word product of ``NCPoly`` are one kernel,
``ncpoly.product``: a word pair is a key of two legs, and the right leg,
of the opposite algebra, joins right to left.  A pair's grade is its
bidegree; the kernel forms only the pairs of live grades, and sums large
products as numpy arrays, with the per-pair loop's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimMismatch, VarCountMismatch
from .modular import ModularContext, matrix_power, twist_paths, twist_rows
from . import ncpoly
from .ncpoly import PRUNE_TOL, NCPoly, Word, _Sparse, max_or_nan

Pair = tuple[Word, Word]


class TensorPoly(_Sparse):
    """Sparse element of P (x) P^op with a total-degree cap and taint flag."""

    @staticmethod
    def _size(pair: Pair) -> int:
        return len(pair[0]) + len(pair[1])

    _legs = 2

    @staticmethod
    def _join(k1: Pair, k2: Pair) -> Pair:
        """(a1 (x) b1) # (a2 (x) b2) = a1 a2 (x) b2 b1."""
        (a1, b1), (a2, b2) = k1, k2
        return a1 + a2, b2 + b1

    _rjoin = staticmethod(lambda k2, k1: (k1[0] + k2[0], k2[1] + k1[1]))

    def _term_grades(self) -> list:
        """Each pair's grade, its bidegree (|a|, |b|), in key order."""
        return [(len(a), len(b)) for a, b in self.coeffs]

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
    """The tensor P (x) Q = (P (x) 1) # (1 (x) Q) of two polynomials."""
    if cap is None:
        cap = P.degree_cap + Q.degree_cap
    left = TensorPoly._pruned(P.num_vars, {(w, ()): c for w, c in P.coeffs.items()}, cap, P.truncated)
    right = TensorPoly._pruned(Q.num_vars, {((), w): c for w, c in Q.coeffs.items()}, cap, Q.truncated)
    return ncpoly.product(left, right, cap)


def t_mul(S: TensorPoly, T: TensorPoly) -> TensorPoly:
    """# product: (a (x) b) # (c (x) d) = (ac) (x) (db).

    The outer loop runs over the operand with fewer terms, over S on a tie,
    so equal operands give equal results whether or not they are one
    object.
    """
    cap = min(S.degree_cap, T.degree_cap)
    return ncpoly.product(S, T, cap, outer_right=len(S.coeffs) > len(T.coeffs))


# The involutions map keys one to one and keep every modulus, so each wraps
# its map without pruning again.
def t_star(S: TensorPoly) -> TensorPoly:
    """Adjoint on each leg: conjugate coefficients, reverse both words."""
    return TensorPoly._pruned(
        S.num_vars,
        {(a[::-1], b[::-1]): c.conjugate() for (a, b), c in S.coeffs.items()},
        S.degree_cap,
        S.truncated,
    )


def t_diamond(S: TensorPoly) -> TensorPoly:
    """Linear leg swap: a (x) b -> b (x) a."""
    return TensorPoly._pruned(
        S.num_vars,
        {(b, a): c for (a, b), c in S.coeffs.items()},
        S.degree_cap,
        S.truncated,
    )


def t_dagger(S: TensorPoly) -> TensorPoly:
    """Conjugate-linear involution a (x) b -> b* (x) a*."""
    return TensorPoly._pruned(
        S.num_vars,
        {(b[::-1], a[::-1]): c.conjugate() for (a, b), c in S.coeffs.items()},
        S.degree_cap,
        S.truncated,
    )


def t_sigma(ctx: ModularContext, S: TensorPoly, s_left: float, s_right: float) -> TensorPoly:
    """Legwise modular action at imaginary parameters (s_left, s_right).

    Each term c a (x) b becomes sigma(c a) (x) sigma(b): c is carried along
    the paths of a's twist at s_left (``modular.twist_paths``), pruned as
    ``apply_sigma`` prunes, and b takes its twist at s_right with
    coefficient one, each path from 0j and pruned.  The rows of each nonzero
    power are built once per call, and each distinct right leg is expanded
    once, into a dict that lives for this call only.
    The pairs are added into one dict as ``TensorPoly.sum`` adds the
    per-term tensors of sigma(c a) and sigma(b), each built pair by pair
    with every key from 0.0 and pruned, then summed with prune-on-touch.  A
    term over the cap with a pair on both legs sets the taint.
    """
    if S.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"tensor over {S.num_vars} vars, context has {ctx.num_vars}"
        )
    if ctx.is_tracial or (s_left == 0.0 and s_right == 0.0):
        return S
    cap = S.degree_cap
    rows_left, rows_right = (twist_rows(matrix_power(ctx, -s)) if s else None for s in (s_left, s_right))
    rights: dict[Word, dict[Word, complex]] = {}
    acc: dict[Pair, complex] = {}
    dropped = False
    for (a, b), c in S.coeffs.items():
        if s_left == 0.0:
            left = [(a, c)]
        else:
            # apply_sigma's sum from 0.0 (|v| unchanged), then its prune
            left = [(wa, 0.0 + v) for wa, v in twist_paths(rows_left, a, c) if not abs(v) <= PRUNE_TOL]
        if s_right == 0.0:
            right = {b: 1.0 + 0j}
        elif (right := rights.get(b)) is None:
            # each path from 0j, which leaves |v| as it is, then pruned
            paths = twist_paths(rows_right, b, 1.0 + 0j)
            right = rights[b] = {wb: 0j + v for wb, v in paths if not abs(v) <= PRUNE_TOL}
        if len(a) + len(b) > cap:
            dropped = dropped or bool(left and right)
            continue
        for wa, ca in left:
            for wb, cb in right.items():
                # the per-term tensor's new key from 0.0 and its prune, then the sum's
                v = 0.0 + ca * cb
                if abs(v) <= PRUNE_TOL:
                    continue
                key = (wa, wb)
                v = acc.get(key, 0.0) + v
                if not abs(v) <= PRUNE_TOL:
                    acc[key] = v
                else:
                    acc.pop(key, None)
    return TensorPoly._pruned(S.num_vars, acc, cap, S.truncated or dropped)


# The projective-norm upper bound read off the stored representation, and the
# largest coefficient deviation: the ``NCPoly`` bodies, on word-pair keys.
pi_norm_bound = ncpoly.norm_R
max_pair_diff = ncpoly.max_coeff_diff


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


def _trace_weighted(ctx: ModularContext, Q: TensorMatrix, M) -> TensorPoly:
    if Q.dim != ctx.num_vars:
        raise DimMismatch(f"matrix dim {Q.dim}, context has {ctx.num_vars}")
    n = Q.dim
    weights = ((i, j, complex(M[i][j])) for i in range(n) for j in range(n))
    return TensorPoly.sum(
        Q.num_vars,
        (Q[j, i].scale(m) for i, j, m in weights if not abs(m) <= PRUNE_TOL),
        Q.degree_cap,
    )


def trace_A(ctx: ModularContext, Q: TensorMatrix) -> TensorPoly:
    """Tr(A # Q) = sum_{ij} A_ij Q_ji."""
    return _trace_weighted(ctx, Q, ctx.A)


def trace_Ainv(ctx: ModularContext, Q: TensorMatrix) -> TensorPoly:
    """Tr(A^{-1} # Q); A^{-1} = A^T for the block structure used here."""
    return _trace_weighted(ctx, Q, ctx.A.T)


def pi_norm_bound_mat(Q: TensorMatrix, R: float) -> float:
    """Max row sum of entrywise projective-norm bounds; NaN when a row sum
    is NaN."""
    return max_or_nan(
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
