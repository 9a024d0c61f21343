"""Truncated non-commutative power series in N generators.

A polynomial is a finite map from words (tuples of generator indices in
1..N) to complex coefficients.  Every instance carries a degree cap; any
operation that would produce words beyond the cap drops them and sets the
``truncated`` taint flag, so downstream reports can state "exact modulo
degree > cap" honestly.  Sums enforce the cap too: the coefficient format
and its linear structure, including the one in-place accumulator every sum
goes through, live in a base class shared with ``tensor.TensorPoly``.

One kernel, ``product``, multiplies both kinds.  A key has one leg (a
word) or two (a word pair of P (x) P^op); leg 0 joins left to right, and
leg 1, of the opposite algebra, right to left.  The word product is the #
product on the left leg.  Each operand keeps a grade summary, its largest
modulus and term count per grade (``_Sparse._grades``), and the kernel
reads from the two summaries which pairs of grades are live: a grade whose
bound proves every key pruned forms no pair, on either route.  Products
with at least ``PAIR_BATCH_MIN`` live pairs are summed as numpy arrays
instead of pair by pair (``_product_batched``).  Words then travel as exact
integer codes (``WordCodes``), ``live_pairs`` lists the live pairs in loop
order, and ``pair_sums`` adds the value of every pair onto its key in pair
order and prunes the sums exactly as the per-pair loop and the constructor
do, so both routes give the same coefficients, bit for bit, in the same
key order.  An operand's leg codes and coefficient array are built once and
kept on the instance (its coded view, ``_Sparse._coded``); a batched
product hands its result the view it already holds from the kept keys'
codes.  The loop route keeps its inner operand's terms grouped by grade
(``_Sparse._rows``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from .errors import VarCountMismatch
from .modular import ModularContext, Word

# Coefficients below this are double-precision noise, well under every test
# tolerance, and are pruned on construction.  Every prune test reads
# ``not abs(c) <= PRUNE_TOL``, so a NaN coefficient is kept, never pruned.
PRUNE_TOL = 1e-14
# Squared moduli surely at most, and surely above, PRUNE_TOL**2 (``_prunes``).
_BELOW, _ABOVE = PRUNE_TOL**2 * (1 - 1e-9), PRUNE_TOL**2 * (1 + 1e-9)

CENTRALIZER_TOL = 1e-9

# Products (NCPoly and #) with at least this many live pairs are summed as
# numpy arrays; below it numpy's fixed cost per call makes the per-pair loop
# faster.
PAIR_BATCH_MIN = 256


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

    def words(self, keys: np.ndarray) -> list[Word]:
        """The words of the codes index * (cap + 1) + length."""
        index, lens = keys // (self.cap + 1), (keys % (self.cap + 1)).astype(np.intp)
        # each position's digit, shifted by the letters after it
        shifts = lens[:, None] - 1 - np.arange(int(lens.max(initial=0)))
        letters = index[:, None] // self.powers[np.maximum(shifts, 0)] % self.num_vars + 1
        return [tuple(row[:n]) for row, n in zip(letters.tolist(), lens.tolist())]


def _prunes(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Whether |re + i im| <= PRUNE_TOL, as ``abs`` of a Python complex
    decides it, for arrays of parts (``pair_sums``, the kernel's level
    blocks, ``cyclic_D``): hypot, which is slow, is taken only where the
    squared modulus, within a few ulps of the square of hypot, lies near
    PRUNE_TOL**2.  A NaN square, or one that overflows (numpy warns), is
    not pruned, as no NaN or infinite modulus is."""
    square = re * re + im * im
    out = square <= _BELOW
    near = (square <= _ABOVE) ^ out
    if np.count_nonzero(near):
        out[near] = np.hypot(re[near], im[near]) <= PRUNE_TOL
    return out


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
    with np.errstate(over="ignore"):
        kept = np.flatnonzero(~_prunes(sum_re, sum_im))
    order = kept[np.argsort(first[kept])]
    return first[order], sum_re[order], sum_im[order]


@dataclass(frozen=True)
class _Sparse:
    """Sparse coefficient map with a degree cap and taint flag.

    The storage and linear structure shared by ``NCPoly`` (keys are words)
    and ``tensor.TensorPoly`` (keys are word pairs).  A subclass supplies
    the key rules of ``product``: ``_size`` (a key's degree), ``_legs`` and
    ``_join``, ``_rjoin``, the join on swapped arguments, and
    ``_term_grades``, the leg lengths of each key.  Coefficients
    at noise level are pruned on construction, and every sum goes through
    ``sum``, which enforces the cap: words beyond it are dropped and set the
    taint flag.  Each subclass defines its own one-line ``__add__``, where
    the per-layer tracer of ``perfbench/tracing.py`` looks it up.  Code
    whose map is already pruned and holds ``complex`` values wraps it with
    ``_pruned``, which keeps it.

    No instance changes its map, so what the products read from it and keep
    on it stays valid for the instance's life: the coded view (``_coded``),
    the grade summary (``_grades``) and the terms by grade (``_rows``).
    None of them moves to another instance.  They are attributes, not
    fields: they take no part in ``==`` or ``repr``.
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

    def _grades(self) -> list:
        """The grade summary ``product`` reads: per grade, the tuple (size,
        length of leg 0, largest modulus, term count, grade), in ascending
        order of size.  A NaN coefficient makes its grade's largest modulus
        NaN.  Built on the first request, from the coded view where the
        instance has one, and kept."""
        summary = self.__dict__.get("_summary")
        if summary is not None:
            return summary
        view = self.__dict__.get("_view")
        acc: dict = {}
        if view is None:
            for g, m in zip(self._term_grades(), map(abs, self.coeffs.values())):
                entry = acc.get(g)
                if entry is None:
                    acc[g] = [m, 1]
                else:
                    entry[1] += 1
                    # a NaN is kept: nothing compares above it
                    if m > entry[0] or m != m:
                        entry[0] = m
        else:
            lens, mods = view[2][1::2], np.abs(view[3])
            radix = view[1] + 1
            codes = lens[0] if self._legs == 1 else lens[0] * radix + lens[1]
            counts = np.bincount(codes)
            top = np.zeros(len(counts))
            # np.maximum keeps a NaN
            with np.errstate(invalid="ignore"):
                np.maximum.at(top, codes, mods)
            grades = np.flatnonzero(counts)
            for g, m, n in zip(grades.tolist(), top[grades].tolist(), counts[grades].tolist()):
                acc[g if self._legs == 1 else divmod(g, radix)] = [m, n]
        summary = []
        for g, (m, n) in acc.items():
            size, first = (g, g) if self._legs == 1 else (g[0] + g[1], g[0])
            summary.append((size, first, m, n, g))
        # size and the length of leg 0 fix the grade, so no tie reaches the
        # moduli
        summary.sort()
        self.__dict__["_summary"] = summary
        return summary

    def _rows(self, grades: tuple) -> list:
        """The (index, key, coefficient) of the terms of ``grades``, in key
        order: what the loop route reads of its inner operand.  The rows of
        single grades are built on the first request, those of a tuple
        merged from them by index, and each is kept."""
        rows = self.__dict__.get("_grade_rows")
        if rows is None:
            rows = self.__dict__["_grade_rows"] = {}
            for i, (k, c), g in zip(count(), self.coeffs.items(), self._term_grades()):
                rows.setdefault((g,), []).append((i, k, c))
        row = rows.get(grades)
        if row is None:
            row = rows[grades] = sorted(chain.from_iterable(rows[(g,)] for g in grades))
        return row

    def degree(self) -> int:
        view = self.__dict__.get("_view")
        if view is not None:
            return view[1]
        summary = self.__dict__.get("_summary")
        if summary is not None:
            return summary[-1][0] if summary else 0
        return max(map(self._size, self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def with_cap(self, cap: int):
        """Retarget the cap, dropping (and tainting on) too-long keys; with none
        to drop, the instance itself at its cap, else a bare one on its map."""
        if self.degree() <= cap:
            return self if cap == self.degree_cap else self._pruned(self.num_vars, self.coeffs, cap, self.truncated)
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

    def _term_grades(self) -> list:
        """Each word's grade, its length, in key order."""
        return list(map(len, self.coeffs))

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
        return product(self, other, min(self.degree_cap, other.degree_cap))

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


def product(left: _Sparse, right: _Sparse, cap: int, outer_right: bool = False) -> _Sparse:
    """The product of two maps of one kind under ``cap``: each pair of keys
    joins by the class's ``_join``.  A pair beyond the cap is dropped and
    taints the result, as a tainted operand does.  The operands' own caps
    play no part.  Operands over differing generator counts raise.

    The pairs run with ``left`` in the outer loop (``right`` with
    ``outer_right``, joined by ``_rjoin``), and each key sums its pairs in
    that order from 0j, as ``pair_sums`` starts from 0.0 in each part:
    Python 3.14's 0.0 + c would keep a -0.0.

    Only the live pairs are formed.  A key's grade is its leg lengths
    (``_term_grades``), which add under the product, and a key of grade G
    gets at most one pair per split g1 + g2 = G, since the split fixes where
    the key's legs are cut.  So its sum is at most bound(G), the sum over the
    splits of the largest moduli at g1 and at g2 (``_grades``).  Where
    bound(G) is at most PRUNE_TOL, with a margin far above the rounding of
    the sums, every key of grade G is pruned whatever the order of its sums,
    and its pairs are skipped; a NaN bound keeps its grade.  Every other key
    keeps all of its pairs in loop order, so the result is the one over all
    pairs, bit for bit.  The taint comes from the degrees: a pair of grades
    beyond the cap drops its pairs.  With at least ``PAIR_BATCH_MIN`` live
    pairs they are summed as arrays (``_product_batched``).
    """
    left._check(right)
    if outer_right:
        outer, inner, join = right, left, left._rjoin
    else:
        outer, inner, join = left, right, left._join
    # a key's grade is fixed by its size and the length of its leg 0
    radix = cap + 1
    bound: dict = {}
    fitting = []
    dropped = False
    inner_grades = inner._grades()
    for size1, first1, top1, n1, g1 in outer._grades():
        room = cap - size1
        for size2, first2, top2, n2, g2 in inner_grades:
            if size2 > room:
                dropped = True
                break
            g = (size1 + size2) * radix + first1 + first2
            bound[g] = bound.get(g, 0.0) + top1 * top2
            fitting.append((g, g1, g2, n1 * n2))
    # per outer grade, its live inner grades
    partners: dict = {}
    pairs = 0
    for g, g1, g2, n in fitting:
        if not bound[g] * (1 + 1e-9) <= PRUNE_TOL:
            partners.setdefault(g1, []).append(g2)
            pairs += n
    taint = left.truncated or right.truncated or dropped
    if pairs >= PAIR_BATCH_MIN:
        return _product_batched(left, right, cap, taint, outer_right, partners)
    # per outer grade, the inner terms of its live grades in inner order
    rows = {g: inner._rows(tuple(part)) for g, part in partners.items()}
    out: dict = {}
    get = out.get
    for (ka, ca), g in zip(outer.coeffs.items(), outer._term_grades()):
        for _, kb, cb in rows.get(g, ()):
            k = join(ka, kb)
            out[k] = get(k, 0j) + ca * cb
    kept = {k: c for k, c in out.items() if not abs(c) <= PRUNE_TOL}
    return left._pruned(left.num_vars, kept, cap, taint)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [s, s + l) of each start s and length l, one after the other."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def live_pairs(g1: np.ndarray, g2: np.ndarray, partners: dict, size: int) -> tuple:
    """The pairs (p, r) of terms with g2[r] one of ``partners[g1[p]]``, in
    the order of the loop over p and, within it, over r.

    Each term's grade is an integer below ``size``.  Block b holds the
    inner terms live with the b-th outer grade, in index order: the nonzero
    entries of a table of blocks by inner terms.
    """
    blocks = list(partners)
    # the last block, of the outer grades with no live partner, is empty
    live = np.zeros((len(blocks) + 1) * size, bool)
    live[[b * size + g for b, a in enumerate(blocks) for g in partners[a]]] = True
    owner, rows = np.nonzero(live.reshape(-1, size)[:, g2])
    width = np.bincount(owner, minlength=len(blocks) + 1)
    block_of = [len(blocks)] * size
    for b, a in enumerate(blocks):
        block_of[a] = b
    block = np.array(block_of)[g1]
    n = width[block]
    return np.repeat(np.arange(len(g1)), n), rows[_ranges((np.cumsum(width) - width)[block], n)]


def _cmul(ar, ai, br, bi):
    """The parts of the products a * b by Python's complex-product formula."""
    return ar * br - ai * bi, ar * bi + ai * br


def _coef_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with these parts, bit for bit."""
    coef = np.empty(len(re), complex)
    coef.real, coef.imag = re, im
    return coef


@functools.cache
def _word_codes(num_vars: int, cap: int) -> WordCodes:
    """The one ``WordCodes`` of each generator count and cap."""
    return WordCodes(num_vars, cap)


def _product_batched(
    left: _Sparse, right: _Sparse, cap: int, taint: bool, outer_right: bool, partners: dict
) -> _Sparse:
    """The product loop's result under ``cap`` over the live pairs of
    ``product``, those of each outer grade with its ``partners``, as array
    sums, with its coded view attached.

    The live pairs come from ``live_pairs`` in loop order.  Each product
    uses Python's complex-product formula on the parts, so it is
    bit-identical to ``c1[p] * c2[r]``, and ``pair_sums`` adds them onto
    their keys' exact codes and prunes as the loop does.  A term's grade is
    its leg lengths in mixed radix: no leg is longer than the codes' cap, so
    the split of a key's legs fixes the pair onto it."""
    codes = _word_codes(left.num_vars, max(cap, left.degree(), right.degree()))
    radix = codes.cap + 1
    _, _, v1, c1 = left._coded(codes)
    _, _, v2, c2 = right._coded(codes)

    def grade(view):
        g = view[1]
        for lens in view[3::2]:
            g = g * radix + lens
        return g

    def grade_code(g):
        return g if left._legs == 1 else g[0] * radix + g[1]

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

    coded = {grade_code(a): [grade_code(b) for b in part] for a, part in partners.items()}
    if outer_right:
        r, p = live_pairs(grade(v2), grade(v1), coded, radix**left._legs)
    else:
        p, r = live_pairs(grade(v1), grade(v2), coded, radix**left._legs)
    a, b = c1[p], c2[r]
    re, im = _cmul(a.real, a.imag, b.real, b.imag)
    first, re, im = pair_sums(key(p, r), re, im)
    p, r = p[first], r[first]
    coef = _coef_array(re, im)
    k1, k2 = list(left.coeffs), list(right.coeffs)
    keys = map(left._join, map(k1.__getitem__, p.tolist()), map(k2.__getitem__, r.tolist()))
    prod = left._pruned(left.num_vars, dict(zip(keys, coef.tolist())), cap, taint)
    prod._attach(codes.dtype, tuple(legs(p, r)), coef)
    return prod


def substitute(P: NCPoly, Y: list[NCPoly], cap: int) -> NCPoly:
    """Composition P(Y_1, ..., Y_N); each word maps to the ordered product.

    The result lives over the Y's generators, truncated at ``cap``; the
    Y_j are cut to it first, and truncation taints propagate.
    """
    if len(Y) != P.num_vars:
        raise VarCountMismatch(f"need {P.num_vars} substituends, got {len(Y)}")
    nv = Y[0].num_vars
    for y in Y:
        if y.num_vars != nv:
            raise VarCountMismatch("substituends over differing generator counts")
    taint = P.truncated or any(y.truncated for y in Y)
    capped = [y.with_cap(cap) for y in Y]

    def terms():
        # each word's product is the left fold from c times the unit, pruned
        # as a constructed constant, so c enters every product first
        for word, c in P.coeffs.items():
            c = c * (1 + 0j)
            term = NCPoly._pruned(nv, {} if abs(c) <= PRUNE_TOL else {(): c}, cap)
            for j in word:
                term = product(term, capped[j - 1], cap)
            yield term

    out = NCPoly.sum(nv, terms(), cap)
    return NCPoly._pruned(nv, out.coeffs, cap, out.truncated or taint)


def norm_R(P: _Sparse, R: float) -> float:
    """Weighted coefficient-sum norm: sum |c(k)| R^{|k|}, with |k| the
    degree of the key (``_size``); +inf where a power of R overflows."""
    if R <= 0:
        raise ValueError("R must be positive")
    size = P._size
    try:
        powers = [R**n for n in range(P.degree() + 1)]
    except OverflowError:
        # R^degree overflows: the norm reads +inf (NaN with a NaN coefficient)
        return float(sum(abs(c) * float("inf") for c in P.coeffs.values()))
    return float(sum(abs(c) * powers[size(k)] for k, c in P.coeffs.items()))


def max_or_nan(values) -> float:
    """The largest of some non-negative floats, 0.0 for none; NaN when any
    is NaN."""
    values = list(values)
    # max passes over a NaN after the first item; a sum of non-negative
    # floats is NaN only through one
    total = sum(values)
    return total if total != total else max(values, default=0.0)


def max_coeff_diff(P: _Sparse, Q: _Sparse) -> float:
    """Largest coefficient deviation between two maps of one kind; NaN when
    any deviation is NaN."""
    P._check(Q)
    p, q = P.coeffs, Q.coeffs
    diffs = [abs(c - q.get(k, 0.0)) for k, c in p.items()]
    # |0.0 - c| = |c| on the keys P lacks
    diffs += [abs(c) for k, c in q.items() if k not in p]
    return max_or_nan(diffs)


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
    A = ctx.A_rows
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
