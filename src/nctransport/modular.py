"""Modular data of a quasi-free state on finitely many generators.

The state is parametrized by a positive matrix A acting on the span of the
generators.  A is block diagonal: one 2x2 block per parameter lambda_k plus
an identity block, so its spectrum is {1} together with the pairs
lambda_k^{+-1}.  All one-parameter symmetries used here are real powers of A
acting linearly on generators and multiplicatively on words.
A word is twisted letter by letter (``twist_paths``) through the rows of
A^{-s}, which a context keeps per power s.  It also keeps, without bound,
each (s, word)'s twist with coefficient one that ``unit_twist`` is asked
for: the right legs of ``tensor.t_sigma`` at s != 0 ask for them.
``calculus.cyclic_D`` expands its tails' twists from the rows itself and
keeps them on the polynomial, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyContext, NonPositiveLambda, VarCountMismatch

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
        the same bits.  Derived on construction.  The rows of A^{-s} are read
        the same way, through ``rows``.
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
    # The rows of A^{-s} and the unit twists this context has computed, per
    # power s and per (s, word); a fresh context, or one made from it by
    # ``dataclasses.replace``, starts with both empty.  Only ``unit_twist``
    # fills the unit twists, for the right legs of ``tensor.t_sigma``.
    sigma_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    unit_twists: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    alpha_rows: list = field(init=False, repr=False, compare=False)
    inner_rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # complex, never float, so that no product is a mixed complex * float
        for name, M in (("alpha_rows", self.alpha), ("inner_rows", self.inner_U)):
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

    def rows(self, s: float) -> list:
        """The nonzero entries of each row of A^{-s}, as (index, entry) pairs
        with index ascending and the entry a Python ``complex``; computed on
        the first request for s and kept."""
        got = self.sigma_rows.get(s)
        if got is None:
            got = self.sigma_rows[s] = [
                [(k + 1, m) for k, m in enumerate(row) if m != 0]
                for row in matrix_power(self, -s).tolist()
            ]
        return got

    def unit_twist(self, s: float, word: Word) -> dict[Word, complex]:
        """The twist of ``word`` at s with coefficient one, as ``apply_sigma``
        returns it: each path's coefficient taken from 0j and pruned.
        Expanded on the first request for (s, word) and kept, without bound;
        ``tensor.t_sigma`` asks for the twists of its right legs."""
        got = self.unit_twists.get((s, word))
        if got is None:
            from .ncpoly import PRUNE_TOL

            # adding to 0j leaves |v| as it is
            got = self.unit_twists[s, word] = {
                w: 0j + v
                for w, v in twist_paths(self.rows(s), word, 1.0 + 0j)
                if not abs(v) <= PRUNE_TOL
            }
        return got


def twist_paths(rows: list, word: Word, c: complex) -> list[tuple[Word, complex]]:
    """Each twisted word of c ``word`` with its coefficient, for one row of
    nonzero (index, entry) pairs per letter (``ModularContext.rows``).  c is
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
    sends the generator vector to A X; s = 0 is the identity.  Each word's
    paths are expanded from its coefficient (``twist_paths``).
    """
    from .ncpoly import NCPoly

    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    if s == 0.0 or ctx.is_tracial:
        return P
    rows = ctx.rows(s)
    out: dict[Word, complex] = {}
    for word, c in P.coeffs.items():
        for w2, v in twist_paths(rows, word, c):
            out[w2] = out.get(w2, 0.0) + v
    return NCPoly(ctx.num_vars, out, P.degree_cap, P.truncated)
