"""Moment evaluation for the q-quasi-free state.

A monomial moment is a sum over pair partitions of the letter positions,
each pairing weighted by q per chord crossing and by the deformed inner
product of the paired generators.  Odd-degree monomials vanish.

Two production routes compute the values:

* a non-crossing interval recursion, exact at q = 0;
* a truncated Fock-space walk for every word at q != 0.

The tests keep a third route, pairing enumeration with incremental crossing
counts, as the reference oracle for both.  Results are memoized per word on
the oracle instance, so they are deterministic and reproducible.
"""

from __future__ import annotations

from .errors import DimMismatch, IndexOutOfRange, VarCountMismatch
from .modular import ModularContext
from .ncpoly import NCPoly, Word, product
from .tensor import TensorPoly


class MomentOracle:
    """Evaluator of the q-quasi-free state, with a per-word memo cache.

    The generator inner products are <e_j, e_k>_U = alpha_{kj}
    (``ModularContext.inner_U``), pinned by matching the second moments of
    the two-generator context against the four-point closed form.
    """

    def __init__(self, ctx: ModularContext, q: float):
        if not -1.0 < q < 1.0:
            raise ValueError(f"q must lie in (-1, 1), got {q}")
        self.ctx = ctx
        self.q = float(q)
        self._memo: dict[Word, complex] = {(): 1.0 + 0.0j}

    # -- single-word moments -------------------------------------------

    def moment(self, word) -> complex:
        word = tuple(word)
        # the memo holds only words whose letters were checked
        got = self._memo.get(word)
        if got is not None:
            return got
        for j in word:
            if not 1 <= j <= self.ctx.num_vars:
                raise IndexOutOfRange(f"index {j} outside 1..{self.ctx.num_vars}")
        if len(word) % 2 == 1:
            val = 0.0 + 0.0j
        elif self.q == 0.0:
            val = self._noncrossing(word)
        else:
            val = self._fock_walk(word)
        val = complex(val)
        self._memo[word] = val
        return val

    def _noncrossing(self, word: Word) -> complex:
        """Interval recursion over non-crossing pairings (q = 0 only)."""
        inner = self.ctx.inner_rows
        memo = self._memo

        def rec(w: Word) -> complex:
            if len(w) % 2 == 1:
                return 0.0 + 0.0j
            got = memo.get(w)
            if got is not None:
                return got
            total = 0.0 + 0.0j
            row = inner[w[0] - 1]
            for k in range(1, len(w), 2):
                c = row[w[k] - 1]
                if c == 0:
                    continue
                total += c * rec(w[1:k]) * rec(w[k + 1:])
            memo[w] = total
            return total

        return rec(word)

    def _fock_walk(self, word: Word) -> complex:
        """Apply the field operators to the vacuum, right to left.

        States are dicts keyed by tensor words.  Annihilation of the m-th
        slot costs q^{m-1}; words too long to annihilate back down to the
        vacuum within the remaining steps are pruned.
        """
        q = self.q
        inner = self.ctx.inner_rows
        state: dict[Word, complex] = {(): 1.0 + 0.0j}
        n = len(word)
        for step, letter in enumerate(reversed(word)):
            budget = n - step - 1
            nxt: dict[Word, complex] = {}
            row = inner[letter - 1]
            for vec, c in state.items():
                created = (letter,) + vec
                if len(created) <= budget:
                    nxt[created] = nxt.get(created, 0j) + c
                qfac = 1.0
                for m, slot in enumerate(vec):
                    w = row[slot - 1]
                    if w != 0:
                        reduced = vec[:m] + vec[m + 1:]
                        if len(reduced) <= budget:
                            nxt[reduced] = nxt.get(reduced, 0j) + c * qfac * w
                    qfac *= q
            state = nxt
        return state.get((), 0.0 + 0.0j)

    # -- linear extensions -----------------------------------------------

    def _check_vars(self, P) -> None:
        if P.num_vars != self.ctx.num_vars:
            raise VarCountMismatch(
                f"operand over {P.num_vars} vars, oracle context has {self.ctx.num_vars}"
            )

    # The state and the contractions read the memo themselves and call
    # ``moment`` only for words it does not hold yet.

    def state(self, P: NCPoly) -> complex:
        self._check_vars(P)
        memo, moment = self._memo, self.moment
        return sum(
            (
                c * (m if (m := memo.get(w)) is not None else moment(w))
                for w, c in P.coeffs.items()
            ),
            0.0 + 0.0j,
        )

    def contract_left(self, T: TensorPoly) -> NCPoly:
        """(phi (x) 1): a (x) b -> state(a) b."""
        return self._contract(T, 0)

    def contract_right(self, T: TensorPoly) -> NCPoly:
        """(1 (x) phi): a (x) b -> state(b) a."""
        return self._contract(T, 1)

    def _contract(self, T: TensorPoly, leg: int) -> NCPoly:
        """The state on leg ``leg`` of each key (0 left, 1 right), the
        other leg kept."""
        self._check_vars(T)
        memo, moment = self._memo, self.moment
        kept = 1 - leg
        out: dict[Word, complex] = {}
        for key, c in T.coeffs.items():
            m = memo.get(key[leg])
            if m is None:
                m = moment(key[leg])
            v = c * m
            if v != 0:
                out[key[kept]] = out.get(key[kept], 0.0) + v
        return NCPoly(T.num_vars, out, T.degree_cap, T.truncated)

    def law_of(self, Y: list[NCPoly], max_degree: int | None = None) -> "Law":
        """Moment functional of the tuple Y under this state."""
        if len(Y) != self.ctx.num_vars:
            raise DimMismatch(f"need {self.ctx.num_vars} components, got {len(Y)}")
        return Law(self, Y, max_degree)


class Law:
    """Moment functional w -> state(Y_{w_1} ... Y_{w_n}), memoized.

    Products of the Y_j are exact by default; ``max_degree`` truncates them,
    trading accuracy for speed on larger generator counts.  A word's product
    is the left fold of its factors from one, each step a ``product`` with
    Y_j itself at the prefix's cap.  The law keeps the products of
    the prefixes of the last word it multiplied out, and a new word starts
    from the longest prefix it shares with that word: asked for in
    lexicographic order, every word is multiplied out once, and one word's
    prefix products are alive at a time.  The values do not depend on the
    order.  A law is a word functional only, as ``MomentOracle.moment`` is:
    the residual checks of ``schwinger`` take either.
    """

    def __init__(self, oracle: MomentOracle, Y: list[NCPoly], max_degree: int | None):
        self.oracle = oracle
        self.Y = list(Y)
        self.max_degree = max_degree
        self._memo: dict[Word, complex] = {}
        # _chain[i] is the product of _last[:i + 1]
        self._last: Word = ()
        self._chain: list[NCPoly] = []
        self._degrees = [max(y.degree(), 1) for y in self.Y]

    def __call__(self, word) -> complex:
        word = tuple(word)
        got = self._memo.get(word)
        if got is not None:
            return got
        if not word:
            return 1.0 + 0.0j
        val = self.oracle.state(self._product(word))
        self._memo[word] = val
        return val

    def _product(self, word: Word) -> NCPoly:
        """Y_{w_1} ... Y_{w_n} as the left fold from one; the product of
        each prefix is under the cap ``max_degree`` (or the prefix's degree
        sum when that is None)."""
        chain, last = self._chain, self._last
        shared = 0
        while shared < min(len(word), len(last)) and word[shared] == last[shared]:
            shared += 1
        del chain[shared:]
        for n in range(shared + 1, len(word) + 1):
            maxdeg = self.max_degree
            if maxdeg is None:
                maxdeg = sum(self._degrees[j - 1] for j in word[:n])
            prod = chain[-1] if chain else NCPoly.one(self.oracle.ctx.num_vars, maxdeg)
            chain.append(product(prod, self.Y[word[n - 1] - 1], maxdeg))
        self._last = word
        return chain[-1]
