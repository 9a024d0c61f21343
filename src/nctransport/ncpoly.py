"""Truncated non-commutative power series in N generators.

A polynomial is a finite map from words (tuples of generator indices in
1..N) to complex coefficients.  Every instance carries a degree cap; any
operation that would produce words beyond the cap drops them and sets the
``truncated`` taint flag, so downstream reports can state "exact modulo
degree > cap" honestly.  Sums enforce the cap too: the coefficient format
and its linear structure, including the one in-place accumulator every sum
goes through, live in a base class shared with ``tensor.TensorPoly``.

One kernel, ``_product``, multiplies both kinds.  A key has one leg (a
word) or two (a word pair of P (x) P^op); leg 0 joins left to right, and
leg 1, of the opposite algebra, right to left.  The word product is the #
product on the left leg.  Large products are summed as numpy arrays instead
of pair by pair (``batched_pairs``).  Words then travel as exact integer
codes (``WordCodes``), and ``pair_sums`` adds the value of every pair onto
its key in pair order and prunes the sums exactly as the per-pair loop and
the constructor do, so both routes give the same coefficients, bit for bit,
in the same key order.  Pairs in a grade whose bound proves every key
pruned are not formed.  An operand's leg codes and coefficient array are
built once and kept on the instance (its coded view, ``_Sparse._coded``); a
batched product hands its result the view it already holds from the kept
keys' codes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import VarCountMismatch
from .modular import ModularContext, Word

# Coefficients below this are double-precision noise, well under every test
# tolerance, and are pruned on construction.  Every prune test reads
# ``not abs(c) <= PRUNE_TOL``, so a NaN coefficient is kept, never pruned.
PRUNE_TOL = 1e-14

CENTRALIZER_TOL = 1e-9

# Products (NCPoly and #) with at least this many coefficient pairs are summed
# as numpy arrays; below it numpy's fixed cost per call makes the per-pair
# loop faster.
PAIR_BATCH_MIN = 1024


class WordCodes:
    """Exact integer codes for the words of at most ``cap`` letters over
    ``num_vars`` generators.

    A word is its base-N index (letter j is digit j - 1) together with its
    length.  Every key built from these, up to a word pair of total length
    ``cap`` with both lengths attached, stays below N^cap (cap + 1)^2.  The
    codes are int64 while that is below 2^62 and Python ints (``object``
    arrays) beyond, so they never wrap around.
    """

    def __init__(self, num_vars: int, cap: int):
        self.num_vars = num_vars
        self.cap = cap
        self.dtype = np.int64 if num_vars**cap * (cap + 1) ** 2 < 2**62 else object
        # powers[l] = N^l, the shift of a word's index past l more letters
        self.powers = np.array([num_vars**l for l in range(cap + 1)], dtype=self.dtype)

    def index(self, words: list[Word]) -> tuple[np.ndarray, np.ndarray]:
        """Base-N indices and lengths of the words."""
        lens = np.fromiter(map(len, words), np.intp, len(words))
        letters = np.fromiter(chain.from_iterable(words), np.intp, int(lens.sum()))
        ends = np.cumsum(lens)
        # each letter's digit, shifted by the letters after it in its word
        digits = (letters - 1) * self.powers[np.repeat(ends, lens) - 1 - np.arange(len(letters))]
        idx = np.zeros(len(words), self.dtype)
        full = lens > 0
        if full.any():
            idx[full] = np.add.reduceat(digits, (ends - lens)[full])
        return idx, lens


def pair_sums(codes: np.ndarray, re: np.ndarray, im: np.ndarray):
    """Sum the values of a list of pairs onto the pairs' keys.

    ``codes`` holds each pair's exact key code, ``re`` and ``im`` its value.
    The values of one key are added in pair order from 0.0, as the per-pair
    loop adds them into its dict.  Sums with |c| <= PRUNE_TOL are dropped.
    Returns, in order of first occurrence, the index of each kept key's first
    pair and the real and imaginary parts of its sum.
    """
    if not len(codes):
        return np.zeros(0, np.intp), re, im
    perm = np.argsort(codes)
    ordered = codes[perm]
    starts = np.empty(len(codes), bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    # the sort need not be stable: a key's first pair is its least index
    first = np.minimum.reduceat(perm, np.flatnonzero(starts))
    key_of = np.empty(len(codes), np.intp)
    key_of[perm] = np.cumsum(starts) - 1
    # bincount adds each key's values in pair order
    sum_re = np.bincount(key_of, weights=re, minlength=len(first))
    sum_im = np.bincount(key_of, weights=im, minlength=len(first))
    kept = np.flatnonzero(~(np.hypot(sum_re, sum_im) <= PRUNE_TOL))
    order = kept[np.argsort(first[kept])]
    return first[order], sum_re[order], sum_im[order]


@dataclass(frozen=True)
class _Sparse:
    """Sparse coefficient map with a degree cap and taint flag.

    The storage and linear structure shared by ``NCPoly`` (keys are words)
    and ``tensor.TensorPoly`` (keys are word pairs).  A subclass supplies
    the key rules of ``_product``: ``_size`` (a key's degree), ``_legs`` and
    ``_join``, and ``_rjoin``, the join on swapped arguments.  Coefficients
    at noise level are pruned on construction, and every sum goes through
    ``sum``, which enforces the cap: words beyond it are dropped and set the
    taint flag.  Each subclass defines its own one-line ``__add__``, where
    the per-layer tracer of ``perfbench/tracing.py`` looks it up.  Code
    whose map is already pruned and holds ``complex`` values wraps it with
    ``_pruned``, which keeps it.

    No instance changes its map, so the coded view a batched product reads
    (``_coded``) stays valid for the instance's life.  It is an attribute,
    not a field: it takes no part in ``==`` or ``repr``.
    """

    num_vars: int
    coeffs: dict
    degree_cap: int
    truncated: bool = False

    def __post_init__(self):
        kept = {k: complex(c) for k, c in self.coeffs.items() if not abs(c) <= PRUNE_TOL}
        object.__setattr__(self, "coeffs", kept)

    @classmethod
    def _pruned(cls, num_vars: int, coeffs: dict, cap: int, truncated: bool = False):
        """An instance on ``coeffs`` as given: every value a ``complex`` that
        the prune keeps, so ``__post_init__`` would keep it unchanged."""
        obj = object.__new__(cls)
        obj.__dict__.update(num_vars=num_vars, coeffs=coeffs, degree_cap=cap, truncated=truncated)
        return obj

    @classmethod
    def zero(cls, num_vars: int, cap: int):
        return cls(num_vars, {}, cap)

    @classmethod
    def sum(cls, num_vars: int, parts, cap: int):
        """Sum of the parts under the cap, accumulated in one dict in place.

        Equal, coefficient for coefficient, to the left fold of ``+`` from
        zero: touched coefficients are pruned after each part.  A part with a
        larger cap goes through ``with_cap(cap)`` first; the taint flags of
        the parts are ORed.  A part that meets an empty accumulator is
        copied as 0.0 + c: its keys are new, and |0.0 + c| = |c| passes the
        prune that built the part.
        """
        acc: dict = {}
        truncated = False
        for part in parts:
            if part.num_vars != num_vars:
                raise VarCountMismatch(
                    f"operands over {num_vars} and {part.num_vars} generators"
                )
            if part.degree_cap > cap:
                part = part.with_cap(cap)
            truncated = truncated or part.truncated
            if not acc:
                acc = {k: 0.0 + c for k, c in part.coeffs.items()}
                continue
            for k, c in part.coeffs.items():
                v = acc.get(k, 0.0) + c
                if not abs(v) <= PRUNE_TOL:
                    acc[k] = v
                else:
                    acc.pop(k, None)
        return cls._pruned(num_vars, acc, cap, truncated)

    def _encode(self, keys: list, codes: WordCodes) -> tuple:
        """Index and length arrays of each leg of the keys, leg by leg."""
        legs = [keys] if self._legs == 1 else [[k[l] for k in keys] for l in range(self._legs)]
        return tuple(a for leg in legs for a in codes.index(leg))

    def _coded(self, codes: WordCodes) -> tuple:
        """The coded view for ``codes``: (dtype, degree, per-leg index and
        length arrays from ``_encode``, coefficient array), in key order.
        Built on the first request and kept; a view of the other code dtype
        (int64 or ``object``) is never reused, but rebuilt."""
        view = self.__dict__.get("_view")
        if view is None or view[0] is not codes.dtype:
            coef = np.fromiter(self.coeffs.values(), complex, len(self.coeffs))
            view = self._attach(codes.dtype, self._encode(list(self.coeffs), codes), coef)
        return view

    def _attach(self, dtype, arrays: tuple, coef: np.ndarray) -> tuple:
        """Keep ``arrays`` and ``coef``, which must code this map in key
        order under codes of ``dtype``, as the coded view."""
        degree = int(sum(arrays[1::2]).max(initial=0))
        view = self.__dict__["_view"] = (dtype, degree, arrays, coef)
        return view

    def degree(self) -> int:
        view = self.__dict__.get("_view")
        if view is not None:
            return view[1]
        return max(map(self._size, self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def with_cap(self, cap: int):
        """Retarget the cap, dropping (and tainting on) too-long keys."""
        if self.degree() <= cap:
            # nothing to drop: share the map, which no instance changes, and
            # its coded view
            out = self._pruned(self.num_vars, self.coeffs, cap, self.truncated)
            if "_view" in self.__dict__:
                out.__dict__["_view"] = self.__dict__["_view"]
            return out
        size = self._size
        kept = {k: c for k, c in self.coeffs.items() if size(k) <= cap}
        return self._pruned(self.num_vars, kept, cap, True)

    def _check(self, other) -> None:
        if self.num_vars != other.num_vars:
            raise VarCountMismatch(
                f"operands over {self.num_vars} and {other.num_vars} generators"
            )

    def __neg__(self):
        return self._pruned(
            self.num_vars,
            {k: -c for k, c in self.coeffs.items()},
            self.degree_cap,
            self.truncated,
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: complex):
        return type(self)(
            self.num_vars,
            {k: c * v for k, v in self.coeffs.items()},
            self.degree_cap,
            self.truncated,
        )

    def __rmul__(self, c):
        return self.scale(c)


class NCPoly(_Sparse):
    """Sparse non-commutative polynomial with a degree cap and taint flag."""

    _size = staticmethod(len)
    _legs = 1
    _join = staticmethod(operator.add)
    _rjoin = staticmethod(lambda w2, w1: w1 + w2)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(num_vars: int, cap: int) -> "NCPoly":
        return NCPoly(num_vars, {(): 1.0}, cap)

    @staticmethod
    def gen(num_vars: int, j: int, cap: int) -> "NCPoly":
        """The generator X_j."""
        if not 1 <= j <= num_vars:
            from .errors import IndexOutOfRange

            raise IndexOutOfRange(f"generator index {j} outside 1..{num_vars}")
        return NCPoly(num_vars, {(j,): 1.0}, cap)

    @staticmethod
    def monomial(num_vars: int, word, c: complex = 1.0, cap: int | None = None) -> "NCPoly":
        word = tuple(word)
        if cap is None:
            cap = max(len(word), 1)
        return NCPoly(num_vars, {word: c}, cap)

    def __repr__(self):
        if not self.coeffs:
            return "NCPoly<0>"
        parts = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w))[:6]:
            c = self.coeffs[w]
            mono = "*".join(f"X{j}" for j in w) if w else "1"
            parts.append(f"({c:.6g})*{mono}")
        more = "+..." if len(self.coeffs) > 6 else ""
        taint = ", truncated" if self.truncated else ""
        return f"NCPoly<{' + '.join(parts)}{more}{taint}>"

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return NCPoly.sum(self.num_vars, (self, other), min(self.degree_cap, other.degree_cap))

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """Word-concatenation product; words beyond the cap are dropped."""
        self._check(other)
        return _product(self, other, min(self.degree_cap, other.degree_cap))

    def adjoint(self) -> "NCPoly":
        """Word reversal with conjugated coefficients; an involution."""
        return NCPoly._pruned(
            self.num_vars,
            {w[::-1]: c.conjugate() for w, c in self.coeffs.items()},
            self.degree_cap,
            self.truncated,
        )

    def project_degree(self, n: int) -> "NCPoly":
        """Keep exactly the words of length n."""
        return NCPoly._pruned(
            self.num_vars,
            {w: c for w, c in self.coeffs.items() if len(w) == n},
            self.degree_cap,
            self.truncated,
        )

    def degrees(self):
        return sorted({len(w) for w in self.coeffs})


def _product(left: _Sparse, right: _Sparse, cap: int, outer_right: bool = False) -> _Sparse:
    """The product of two maps of one kind under ``cap``: each pair of keys
    joins by the class's ``_join``.  A pair beyond the cap is dropped and
    taints the result, as a tainted operand does.

    The pairs run with ``left`` in the outer loop (``right`` with
    ``outer_right``, joined by ``_rjoin``), and each key sums its pairs in
    that order from 0j, as ``pair_sums`` starts from 0.0 in each part:
    Python 3.14's 0.0 + c would keep a -0.0.  With at least
    ``PAIR_BATCH_MIN`` coefficient pairs they are summed as arrays
    (``_product_batched``), with the loop's result bit for bit.
    """
    taint = left.truncated or right.truncated
    if len(left.coeffs) * len(right.coeffs) >= PAIR_BATCH_MIN:
        return _product_batched(left, right, cap, taint, outer_right)
    size = left._size
    outer, inner, join = (right, left, left._rjoin) if outer_right else (left, right, left._join)
    out = {}
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
    return left._pruned(left.num_vars, kept, cap, taint or dropped)


def batched_pairs(
    c1: np.ndarray, g1: np.ndarray, c2: np.ndarray, g2: np.ndarray, fits: np.ndarray, key,
    outer_second: bool = False,
):
    """The per-pair product loop of two coefficient lists, as array sums.

    Over the pairs (p, r) with ``fits[p, r]``, p in the outer loop (r with
    ``outer_second``), adds c1[p] * c2[r] onto the exact key code
    ``key(p, r)`` of integer arrays p and r, and prunes as ``pair_sums``
    does.  Each product uses Python's complex-product formula on the parts,
    so it is bit-identical to ``c1[p] * c2[r]``.  Returns p and r of each
    kept key's first pair and the real and imaginary parts of its sum, in
    order of first occurrence.

    ``g1`` and ``g2`` grade the terms by nonnegative integers that add under
    the product: the pairs onto a key of grade G split it as g1 + g2 = G, at
    most one pair per split.  Such a key's sum is then at most
    bound(G) = sum over g1 + g2 = G of max|c1 at g1| * max|c2 at g2|.  Where
    bound(G) is at most PRUNE_TOL, with a margin far above the rounding of
    the sums, ``pair_sums`` prunes every key of grade G whatever the order
    of its sums, and those pairs are not formed.  The pairs of every other
    key stay, in loop order, so the result is the one over all pairs.
    """
    m1 = np.zeros(g1.max(initial=0) + 1)
    m2 = np.zeros(g2.max(initial=0) + 1)
    # a NaN coefficient makes its grade's maximum and every bound it enters
    # NaN, and a NaN bound keeps its grade
    with np.errstate(invalid="ignore"):
        np.maximum.at(m1, g1, np.abs(c1))
        np.maximum.at(m2, g2, np.abs(c2))
        live = ~(np.convolve(m1, m2) * (1 + 1e-9) <= PRUNE_TOL)
    fits = fits & live[g1[:, None] + g2[None, :]]
    if outer_second:
        r, p = np.nonzero(fits.T)
    else:
        p, r = np.nonzero(fits)
    a, b = c1[p], c2[r]
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    first, re, im = pair_sums(key(p, r), re, im)
    return p[first], r[first], re, im


def _coef_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with these parts, bit for bit."""
    coef = np.empty(len(re), complex)
    coef.real, coef.imag = re, im
    return coef


def _product_batched(
    left: _Sparse, right: _Sparse, cap: int, taint: bool, outer_right: bool
) -> _Sparse:
    """The product loop's result under ``cap``, from ``batched_pairs``, with
    its coded view attached.  A term's grade is its leg lengths in mixed
    radix: no leg is longer than the codes' cap, so the split of a key's
    legs fixes the pair onto it."""
    codes = WordCodes(left.num_vars, max(cap, left.degree(), right.degree()))
    radix = codes.cap + 1
    _, _, v1, c1 = left._coded(codes)
    _, _, v2, c2 = right._coded(codes)
    fits = sum(v1[1::2])[:, None] + sum(v2[1::2])[None, :] <= cap

    def grade(view):
        g = view[1]
        for lens in view[3::2]:
            g = g * radix + lens
        return g

    def legs(p, r):
        # leg 0 joins left to right, leg 1 (of P^op) right to left: each
        # leg's index and length
        out = []
        sides = ((v1, p), (v2, r))
        for leg in range(left._legs):
            (va, a), (vb, b) = sides if leg == 0 else sides[::-1]
            ia, la, ib, lb = va[2 * leg][a], va[2 * leg + 1][a], vb[2 * leg][b], vb[2 * leg + 1][b]
            out += [ia * codes.powers[lb] + ib, la + lb]
        return out

    def key(p, r):
        # the index of the legs' concatenated words, above the grade
        view = legs(p, r)
        code = view[0]
        for index, lens in zip(view[2::2], view[3::2]):
            code = code * codes.powers[lens] + index
        return code * radix**left._legs + grade(view)

    p, r, re, im = batched_pairs(c1, grade(v1), c2, grade(v2), fits, key, outer_right)
    k1, k2, join = list(left.coeffs), list(right.coeffs), left._join
    out = {
        join(k1[x], k2[y]): complex(u, v)
        for x, y, u, v in zip(p.tolist(), r.tolist(), re.tolist(), im.tolist())
    }
    prod = left._pruned(left.num_vars, out, cap, taint or not fits.all())
    prod._attach(codes.dtype, tuple(legs(p, r)), _coef_array(re, im))
    return prod


def substitute(P: NCPoly, Y: list[NCPoly], cap: int | None = None) -> NCPoly:
    """Composition P(Y_1, ..., Y_N); each word maps to the ordered product.

    The result lives over the Y's generators.  ``cap`` defaults to the
    smallest cap among the Y_j; truncation taints propagate.
    """
    if len(Y) != P.num_vars:
        raise VarCountMismatch(f"need {P.num_vars} substituends, got {len(Y)}")
    nv = Y[0].num_vars
    for y in Y:
        if y.num_vars != nv:
            raise VarCountMismatch("substituends over differing generator counts")
    if cap is None:
        cap = min(y.degree_cap for y in Y)
    taint = P.truncated or any(y.truncated for y in Y)
    capped = [y.with_cap(cap) for y in Y]

    def terms():
        # each word's product is the left fold from c times the unit, pruned
        # as a constructed constant, so c enters every product first
        for word, c in P.coeffs.items():
            c = c * (1 + 0j)
            term = NCPoly._pruned(nv, {} if abs(c) <= PRUNE_TOL else {(): c}, cap)
            for j in word:
                term = _product(term, capped[j - 1], cap)
            yield term

    out = NCPoly.sum(nv, terms(), cap)
    return NCPoly._pruned(nv, out.coeffs, cap, out.truncated or taint)


def norm_R(P: _Sparse, R: float) -> float:
    """Weighted coefficient-sum norm: sum |c(k)| R^{|k|}, with |k| the
    degree of the key (``_size``)."""
    if R <= 0:
        raise ValueError("R must be positive")
    size = P._size
    powers = [R**n for n in range(P.degree() + 1)]
    return float(sum(abs(c) * powers[size(k)] for k, c in P.coeffs.items()))


def max_coeff_diff(P: _Sparse, Q: _Sparse) -> float:
    """Largest coefficient deviation between two maps of one kind; NaN when
    any deviation is NaN."""
    P._check(Q)
    p, q = P.coeffs, Q.coeffs
    diffs = [abs(c - q.get(k, 0.0)) for k, c in p.items()]
    # |0.0 - c| = |c| on the keys P lacks
    diffs += [abs(c) for k, c in q.items() if k not in p]
    # max passes over a NaN after the first item; a sum of moduli is NaN
    # only through one
    total = sum(diffs)
    return total if total != total else max(diffs, default=0.0)


def rho(ctx: ModularContext, P: NCPoly) -> NCPoly:
    """Twisted cyclic rotation: each word's last letter moves to the front
    after acting on it by the modular matrix A.  On a degree-n word, n
    rotations amount to one full modular twist of every letter.  Constants
    are fixed.

    One pass over the words in stable degree order, each new key from 0j;
    the sums are then added to 0.0 and pruned, as a sum of one polynomial
    per degree would.
    """
    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    A = ctx.rows(-1.0)
    rotated: dict[Word, complex] = {}
    for w, c in sorted(P.coeffs.items(), key=lambda t: len(t[0])):
        if not w:
            rotated[w] = c
            continue
        head = w[:-1]
        for v, a in A[w[-1] - 1]:
            key = (v,) + head
            rotated[key] = rotated.get(key, 0j) + c * a
    # adding to 0.0 leaves |c| as it is
    out = {key: 0.0 + c for key, c in rotated.items() if not abs(c) <= PRUNE_TOL}
    return NCPoly._pruned(ctx.num_vars, out, P.degree_cap, P.truncated)


def is_cyclically_symmetric(
    ctx: ModularContext, P: NCPoly, tol: float = CENTRALIZER_TOL
) -> bool:
    """True when P is fixed by the twisted cyclic rotation."""
    return max_coeff_diff(rho(ctx, P), P) <= tol


class NormValue(NamedTuple):
    """Value of the rotation-invariant norm plus an exactness flag."""

    value: float
    exact: bool


def norm_R_sigma(ctx: ModularContext, P: NCPoly, R: float) -> NormValue:
    """Rotation-invariant norm: per degree, the max of norm_R over all
    twisted cyclic rearrangements.

    On centralizer input the supremum over all rotations is a finite max
    over one period per degree, returned exactly.  Outside the centralizer
    the rotation orbit is unbounded in general; the returned value is the
    norm_A^{deg-1} * norm_R majorant with ``exact=False``.  The centralizer
    test (sigma_{-i} P = P) takes one rotation past the period of a degree-n
    component: n twisted rotations are one full modular twist.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    total = 0.0
    for n in P.degrees():
        comp = P.project_degree(n)
        if n == 0:
            total += norm_R(comp, R)
            continue
        best = norm_R(comp, R)
        rotated = comp
        for _ in range(1, n):
            rotated = rho(ctx, rotated)
            best = max(best, norm_R(rotated, R))
        if not (ctx.is_tracial or max_coeff_diff(rho(ctx, rotated), comp) <= CENTRALIZER_TOL):
            deg = P.degree()
            bound = ctx.norm_A ** max(deg - 1, 0) * norm_R(P, R)
            return NormValue(float(bound), False)
        total += best
    return NormValue(float(total), True)


def quadratic_potential(ctx: ModularContext, cap: int) -> NCPoly:
    """The quadratic potential whose cyclic gradient is the generator vector:
    1/2 sum_{j,k} [(1+A)/2]_{jk} X_k X_j.
    """
    n = ctx.num_vars
    half = 0.5 * (ctx.A + np.eye(n))
    return NCPoly(n, {(k + 1, j + 1): 0.5 * half[j, k] for j in range(n) for k in range(n)}, cap)


def generators(ctx: ModularContext, cap: int) -> list[NCPoly]:
    """The vector (X_1, ..., X_N)."""
    return [NCPoly.gen(ctx.num_vars, j, cap) for j in range(1, ctx.num_vars + 1)]
