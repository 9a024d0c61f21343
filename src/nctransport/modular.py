"""Modular data of a quasi-free state on finitely many generators.

The state is parametrized by a positive matrix A acting on the span of the
generators.  A is block diagonal: one 2x2 block per parameter lambda_k plus
an identity block, so its spectrum is {1} together with the pairs
lambda_k^{+-1}.  All one-parameter symmetries used here are real powers of A
acting linearly on generators and multiplicatively on words.
A word is twisted letter by letter (``twist_paths``) through the nonzero
entries of A^{-s} row by row (``twist_rows``).  A context derives those of
A itself (s = -1) on construction; ``apply_sigma`` and ``tensor.t_sigma``
build those of their power once per call.  A context is derived in full on
construction and never changes afterwards: it keeps no memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyContext, IndexOutOfRange, NonPositiveLambda, VarCountMismatch

# Eigenvalues of A below this indicate corrupted input, never legitimate data.
EIG_FLOOR = 1e-12

Word = tuple[int, ...]


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
    alpha_rows, inner_rows : alpha and ``inner_U`` as lists of rows of
        Python ``complex``, which the per-term loops read: an entry read from
        a list and multiplied costs about a third of a numpy scalar's, with
        the same bits.
    A_rows : the nonzero entries of A row by row (``twist_rows``), through
        which ``ncpoly.rho`` and ``calculus.cyclic_D`` twist at s = -1.
    All three are derived on construction; nothing else is kept.
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
    alpha_rows: list = field(init=False, repr=False, compare=False)
    inner_rows: list = field(init=False, repr=False, compare=False)
    A_rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # complex, never float, so that no product is a mixed complex * float
        for name, M in (("alpha_rows", self.alpha), ("inner_rows", self.inner_U)):
            object.__setattr__(self, name, np.asarray(M, dtype=complex).tolist())
        object.__setattr__(self, "A_rows", twist_rows(self.A))

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
        if not 1 <= j <= self.num_vars:
            raise IndexOutOfRange(f"generator index {j} outside 1..{self.num_vars}")


def twist_rows(M: np.ndarray) -> list:
    """The nonzero entries of each row of M, as (index, entry) pairs with
    index ascending and the entry a Python ``complex``: the rows that
    ``twist_paths`` reads for M = A^{-s}."""
    return [[(k + 1, m) for k, m in enumerate(row) if m != 0] for row in np.asarray(M, complex).tolist()]


def twist_paths(rows: list, word: Word, c: complex) -> list[tuple[Word, complex]]:
    """Each twisted word of c ``word`` with its coefficient, for one row of
    nonzero (index, entry) pairs per letter (``twist_rows``).  c is
    carried letter by letter, v -> 0j + v * m, index ascending at each
    letter.  No two paths end in the same word."""
    paths = [((), c)]
    for letter in word:
        paths = [(w + (k,), 0j + v * m) for w, v in paths for k, m in rows[letter - 1]]
    return paths


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
    sends the generator vector to A X; s = 0 is the identity.  The rows of
    A^{-s} are built once per call, and each word's paths are expanded from
    its coefficient (``twist_paths``).
    """
    from .ncpoly import NCPoly

    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    if s == 0.0 or ctx.is_tracial:
        return P
    rows = twist_rows(matrix_power(ctx, -s))
    out: dict[Word, complex] = {}
    for word, c in P.coeffs.items():
        for w2, v in twist_paths(rows, word, c):
            out[w2] = out.get(w2, 0.0) + v
    return NCPoly(ctx.num_vars, out, P.degree_cap, P.truncated)
