"""Modular data of a quasi-free state on finitely many generators.

The state is parametrized by a positive matrix A acting on the span of the
generators.  A is block diagonal: one 2x2 block per parameter lambda_k plus
an identity block, so its spectrum is {1} together with the pairs
lambda_k^{+-1}.  All one-parameter symmetries used here are real powers of A
acting linearly on generators and multiplicatively on words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyContext, NonPositiveLambda, VarCountMismatch

# Eigenvalues of A below this indicate corrupted input, never legitimate data.
EIG_FLOOR = 1e-12

MATRIX_TOL = 1e-10

Word = tuple[int, ...]


class Twist:
    """The image of one word under X_j -> sum_k [A^{-s}]_{jk} X_k.

    ``paths`` holds each twisted word with the matrix entries
    ([A^{-s}]_{w_1 k_1}, ..., [A^{-s}]_{w_n k_n}) along it, zero entries
    skipped, in the order of the letter-by-letter expansion (k ascending at
    each letter).  ``unit`` is the twist of the word with coefficient one as
    ``apply_sigma`` returns it: each path's ``fold`` of 1 + 0j, added to 0.0
    and pruned.
    """

    __slots__ = ("paths", "unit")

    def __init__(self, paths: tuple[tuple[Word, tuple], ...], unit: dict[Word, complex]):
        self.paths = paths
        self.unit = unit

    def fold(self, c: complex) -> list[tuple[Word, complex]]:
        """Each twisted word with c carried along its path by v -> 0j + v * m,
        the steps of the letter-by-letter expansion."""
        out = []
        for w, ms in self.paths:
            v = c
            for m in ms:
                v = 0j + v * m
            out.append((w, v))
        return out


class SigmaTable:
    """The modular twists a context has computed, filled on demand by
    ``ModularContext.twist``: per power s the nonzero entries of each row of
    A^{-s} as Python ``complex`` (``rows``), and per (s, word) the word's
    ``Twist`` (``twists``).
    Its length is the number of twisted (s, word) pairs."""

    __slots__ = ("rows", "twists")

    def __init__(self):
        self.rows: dict[float, list] = {}
        self.twists: dict[tuple[float, Word], Twist] = {}

    def __len__(self) -> int:
        return len(self.twists)


@dataclass(frozen=True)
class ModularContext:
    """Immutable bundle of the modular matrix A and derived data.

    Attributes
    ----------
    num_vars : number of generators N (= 2 * len(lambdas) + num_trivial).
    lambdas : the strictly positive block parameters.
    num_trivial : size of the trailing identity block.
    A : N x N Hermitian positive matrix.
    alpha : 2 (1 + A)^{-1}; Hermitian with unit diagonal, |alpha_jk| <= 1.
    norm_A : operator norm of A, the largest of 1 and lambda_k^{+-1}.
    A_rows, alpha_rows, inner_rows : A, alpha and ``inner_U`` as lists of
        rows of Python ``complex``, which the per-term loops read: an entry
        read from a list and multiplied costs about a third of a numpy
        scalar's, with the same bits.  Derived on construction.
    """

    num_vars: int
    lambdas: tuple[float, ...]
    num_trivial: int
    A: np.ndarray
    alpha: np.ndarray
    norm_A: float
    # Eigendecomposition of A, cached for real matrix powers.
    _eigvals: np.ndarray = field(repr=False, default=None)
    _eigvecs: np.ndarray = field(repr=False, default=None)
    # Every twist by A^{-s} computed on this context; a fresh context, or one
    # made from it by ``dataclasses.replace``, starts with an empty table.
    sigma_table: SigmaTable = field(
        default_factory=SigmaTable, init=False, repr=False, compare=False
    )
    A_rows: list = field(init=False, repr=False, compare=False)
    alpha_rows: list = field(init=False, repr=False, compare=False)
    inner_rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # complex, never float, so that no product is a mixed complex * float
        for name, M in (("A_rows", self.A), ("alpha_rows", self.alpha), ("inner_rows", self.inner_U)):
            object.__setattr__(self, name, np.asarray(M, dtype=complex).tolist())

    @property
    def inner_U(self) -> np.ndarray:
        """Deformed generator inner products, read-only:
        inner_U[j-1, k-1] = <e_j, e_k>_U = alpha_{kj}."""
        return self.alpha.T

    @property
    def is_tracial(self) -> bool:
        """True when A is the identity, i.e. the state is a trace."""
        return not self.lambdas

    def check_index(self, j: int) -> None:
        from .errors import IndexOutOfRange

        if not 1 <= j <= self.num_vars:
            raise IndexOutOfRange(f"generator index {j} outside 1..{self.num_vars}")

    def twist(self, s: float, word: Word) -> Twist:
        """The ``Twist`` of ``word`` at s, expanded on the first request for
        (s, word) and read from the sigma table after that."""
        table = self.sigma_table
        got = table.twists.get((s, word))
        if got is None:
            rows = table.rows.get(s)
            if rows is None:
                rows = table.rows[s] = [
                    [(k + 1, m) for k, m in enumerate(row) if m != 0]
                    for row in matrix_power(self, -s).tolist()
                ]
            got = table.twists[s, word] = _expand(rows, word)
        return got


def _expand(rows: list, word: Word) -> Twist:
    """The ``Twist`` of a word, one row of nonzero (index, entry) pairs per
    letter."""
    from .ncpoly import PRUNE_TOL

    paths = [((), ())]
    for letter in word:
        paths = [(w + (k,), ms + (m,)) for w, ms in paths for k, m in rows[letter - 1]]
    twist = Twist(tuple(paths), {})
    for w, v in twist.fold(1.0 + 0j):
        v = 0j + v
        if abs(v) > PRUNE_TOL:
            twist.unit[w] = v
    return twist


def modular_norm(lambdas) -> float:
    """Operator norm of A: the largest of 1 and lambda_k^{+-1}.  Non-positive
    lambdas, which build_context rejects, are skipped."""
    return max([1.0] + [max(l, 1.0 / l) for l in lambdas if l > 0])


def build_context(lambdas, num_trivial: int = 0) -> ModularContext:
    """Assemble the modular matrix from block parameters.

    Each lambda contributes the 2x2 block
        1/2 [[l + 1/l, -i (l - 1/l)], [i (l - 1/l), l + 1/l]],
    and num_trivial appends an identity block.  alpha solves the Hermitian
    system (1 + A) alpha = 2 I exactly.
    """
    lambdas = tuple(float(l) for l in lambdas)
    for l in lambdas:
        if l <= 0.0:
            raise NonPositiveLambda(f"lambda must be > 0, got {l}")
    if num_trivial < 0:
        raise ValueError("num_trivial must be >= 0")
    n = 2 * len(lambdas) + num_trivial
    if n == 0:
        raise EmptyContext("context needs at least one generator")

    A = np.zeros((n, n), dtype=complex)
    for k, l in enumerate(lambdas):
        d = 0.5 * (l + 1.0 / l)
        o = 0.5 * (l - 1.0 / l)
        i0 = 2 * k
        A[i0, i0] = d
        A[i0 + 1, i0 + 1] = d
        A[i0, i0 + 1] = -1j * o
        A[i0 + 1, i0] = 1j * o
    for k in range(num_trivial):
        A[2 * len(lambdas) + k, 2 * len(lambdas) + k] = 1.0

    alpha = np.linalg.solve(A + np.eye(n), 2.0 * np.eye(n))
    # Enforce exact Hermitian symmetry lost to rounding in the solve.
    alpha = 0.5 * (alpha + alpha.conj().T)

    w, v = np.linalg.eigh(A)
    if np.min(w) < EIG_FLOOR:
        raise NonPositiveLambda(f"modular matrix lost positivity: min eig {np.min(w)}")

    ctx = ModularContext(
        num_vars=n,
        lambdas=lambdas,
        num_trivial=num_trivial,
        A=A,
        alpha=alpha,
        norm_A=modular_norm(lambdas),
        _eigvals=w,
        _eigvecs=v,
    )
    A.setflags(write=False)
    alpha.setflags(write=False)
    return ctx


def matrix_power(ctx: ModularContext, t: float) -> np.ndarray:
    """Real power A^t through the cached eigendecomposition."""
    if t == 0.0:
        return np.eye(ctx.num_vars, dtype=complex)
    if t == 1.0:
        return ctx.A.copy()
    w, v = ctx._eigvals, ctx._eigvecs
    return (v * (w.astype(complex) ** t)) @ v.conj().T


def apply_sigma(ctx: ModularContext, P, s: float):
    """Modular action at imaginary parameter: X_j -> sum_k [A^{-s}]_{jk} X_k.

    Extended to words multiplicatively and to polynomials linearly.  s = -1
    sends the generator vector to A X; s = 0 is the identity.  Each word's
    paths come from the context's sigma table.
    """
    from .ncpoly import NCPoly

    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    if s == 0.0 or ctx.is_tracial:
        return P
    out: dict[Word, complex] = {}
    for word, c in P.coeffs.items():
        for w2, v in ctx.twist(s, word).fold(c):
            out[w2] = out.get(w2, 0.0) + v
    return NCPoly(ctx.num_vars, out, P.degree_cap, P.truncated)
