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
    sends the generator vector to A X; s = 0 is the identity.
    """
    from .ncpoly import NCPoly

    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    if s == 0.0 or ctx.is_tracial:
        return P
    M = matrix_power(ctx, -s)
    out: dict[tuple[int, ...], complex] = {}
    for word, c in P.coeffs.items():
        # Expand the product of one matrix row per letter.
        paths = {(): c}
        for letter in word:
            row = M[letter - 1]
            nxt: dict[tuple[int, ...], complex] = {}
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
