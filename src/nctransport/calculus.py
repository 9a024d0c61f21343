"""Derivations and structural operators on the polynomial algebra.

Contains the free difference quotient delta_j, its alpha-weighted variants,
the twisted cyclic gradient, Jacobian matrices, the partial inverse of the
number operator, and the cyclic symmetrization.  Tensor-valued outputs get a
degree cap of twice the input cap so that downstream # products have room
before truncation.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, VarCountMismatch
from .modular import ModularContext
from .ncpoly import PRUNE_TOL, NCPoly, Word, WordCodes, _cmul, _prunes, _word_codes, rho
from .tensor import TensorMatrix, TensorPoly


def delta(j: int, P: NCPoly) -> TensorPoly:
    """Free difference quotient: split each word at every occurrence of X_j."""
    if not 1 <= j <= P.num_vars:
        raise IndexOutOfRange(f"generator index {j} outside 1..{P.num_vars}")
    cap = 2 * P.degree_cap
    out: dict[tuple[Word, Word], complex] = {}
    for w, c in P.coeffs.items():
        for k, letter in enumerate(w):
            if letter != j:
                continue
            key = (w[:k], w[k + 1:])
            out[key] = out.get(key, 0.0) + c
    return TensorPoly(P.num_vars, out, cap, P.truncated)


def _weighted_delta(weights, P: NCPoly) -> TensorPoly:
    return TensorPoly.sum(
        P.num_vars,
        (delta(k, P).scale(a) for k, a in enumerate(weights, start=1) if abs(a) > 0),
        2 * P.degree_cap,
    )


def partial_sigma(ctx: ModularContext, j: int, P: NCPoly) -> TensorPoly:
    """Twisted difference quotient sum_k alpha_kj delta_k."""
    ctx.check_index(j)
    return _weighted_delta(ctx.inner_rows[j - 1], P)


def partial_bar(ctx: ModularContext, j: int, P: NCPoly) -> TensorPoly:
    """Conjugate variant sum_k alpha_jk delta_k."""
    ctx.check_index(j)
    return _weighted_delta(ctx.alpha_rows[j - 1], P)


# The terms each key's running sum takes per step of ``_touch_sums``: most
# keys of the strict run finish in two steps, and a key that drops reads
# again at most this many terms (a two-block call drops about 1,500 times).
TOUCH_WINDOW = 64
# ``cyclic_D`` sums the keys of about PATH_CHUNK paths at a time and forms
# TERM_CHUNK terms at a time, so that a large P (the gap run's potential
# has a million paths) takes a few MB of temporary arrays.
PATH_CHUNK = 1 << 16
TERM_CHUNK = 1 << 13


class _TwistPlan(NamedTuple):
    """What ``cyclic_D`` reads of a polynomial P under one context.

    A segment is one (word, position l) of P, in loop order: P's words in
    key order, l ascending; its tail is the word after l.  A path is one
    path of a segment's tail twist, the segments' paths one after the other
    in loop order.  The path arrays hold the paths of the segments within
    the cap, stably sorted by their keys' codes, so each key's paths are
    one run, in loop order."""

    letter: np.ndarray  # per segment: w_l - 1
    c_re: np.ndarray  # per segment: the parts of its word's coefficient
    c_im: np.ndarray
    over: np.ndarray  # the segments over the cap whose tail twist has a path
    base: np.ndarray  # per segment: a path's index in loop order less its twist
    seg: np.ndarray  # per path, in key order: its segment and its tail's
    twist: np.ndarray  # twist path (an index into tw_re, tw_im)
    bounds: np.ndarray  # each key's first path, and the number of paths
    chunks: np.ndarray  # the first key of each chunk, and the number of keys
    keys: np.ndarray  # each key's code, as ``WordCodes.words`` reads it
    tw_re: np.ndarray  # the parts of the unit twist paths of the distinct tails
    tw_im: np.ndarray
    codes: WordCodes


def _tail_twists(rows: list, letters: np.ndarray, first: np.ndarray, lengths: np.ndarray, codes):
    """The twist of each tail with coefficient one, for all tails at once,
    about PATH_CHUNK paths at a time: the paths of ``twist_paths`` from
    1 + 0j through ``rows``, each then added to 0j and pruned, as
    ``tensor.t_sigma`` twists a right leg.  Tail u is the ``lengths[u]`` letters after
    position ``first[u]`` of ``letters``; the lengths ascend.  Returns, per
    kept path in the expansion's order, its tail, the base-N index of its
    word, and the parts of its coefficient."""
    # each row's entries in a row of the table, index ascending
    width = max(map(len, rows))
    filled = np.zeros((len(rows), width), bool)
    index_of = np.zeros(len(rows) * width, np.intp)
    entry = np.zeros(len(rows) * width, complex)
    for x, row in enumerate(rows):
        for r, (k, m) in enumerate(row):
            filled[x, r], index_of[x * width + r], entry[x * width + r] = True, k - 1, m
    entry_re, entry_im = entry.real.copy(), entry.imag.copy()
    # chunks of tails with at most about PATH_CHUNK paths, width^length each
    size = np.array([width**n for n in range(int(lengths.max(initial=0)) + 1)])[lengths]
    chunks = np.append(_firsts((np.cumsum(size) - size) // PATH_CHUNK), len(first))
    done = [(np.zeros(0, np.intp), np.zeros(0, codes.dtype), np.zeros(0), np.zeros(0))]
    for u0, u1 in zip(chunks[:-1], chunks[1:]):
        owner = np.arange(u0, u1)
        index = np.zeros(len(owner), codes.dtype)
        re, im = np.ones(len(owner)), np.zeros(len(owner))
        for i in range(int(lengths[u1 - 1])):
            # the paths of the tails that end here come first, and are done
            end = np.count_nonzero(lengths[owner] <= i)
            done.append((owner[:end], index[:end], re[:end], im[:end]))
            owner, index, re, im = owner[end:], index[end:], re[end:], im[end:]
            # each path splits by the row of its tail's next letter
            x = letters[first[owner] + 1 + i] - 1
            parent, r = np.nonzero(filled[x])
            at = x[parent] * width + r
            owner, index = owner[parent], index[parent] * len(rows) + index_of[at]
            re, im = _cmul(re[parent], im[parent], entry_re[at], entry_im[at])
            # v -> 0j + v * m
            re += 0.0
            im += 0.0
        done.append((owner, index, re, im))
    owner, index, re, im = map(np.concatenate, zip(*done))
    # the unit twist's 0j + v and prune
    re += 0.0
    im += 0.0
    kept = ~_prunes(re, im)
    return owner[kept], index[kept], re[kept], im[kept]


def _firsts(a: np.ndarray) -> np.ndarray:
    """The index of each run's first entry in an array whose equal entries
    are runs."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))[: len(a)]


def _twist_plan(ctx: ModularContext, P: NCPoly) -> _TwistPlan:
    """P's plan under ``ctx``, from the context's rows of A, kept nowhere:
    its caller holds it."""
    if P.num_vars != ctx.num_vars:
        raise VarCountMismatch(
            f"polynomial over {P.num_vars} vars, context has {ctx.num_vars}"
        )
    words = list(P.coeffs)
    codes = _word_codes(P.num_vars, max(P.degree_cap, P.degree()))
    radix = codes.cap + 1
    widx, wlen = codes.index(words)
    coef = np.fromiter(P.coeffs.values(), complex, len(words))
    # segment s is the letter at position s of P's words, one after the other
    letters = np.fromiter(chain.from_iterable(words), np.intp, int(wlen.sum()))
    word = np.repeat(np.arange(len(words)), wlen)
    tail = np.repeat(np.cumsum(wlen), wlen) - 1 - np.arange(len(letters))
    head = wlen[word] - 1 - tail
    # one expansion per distinct tail, coded by its length and the index of
    # the word's last letters, so that the lengths ascend
    tail_codes = tail.astype(codes.dtype) * codes.powers[-1] + widx[word] % codes.powers[tail]
    order = np.argsort(tail_codes)
    new = np.zeros(len(order), bool)
    new[_firsts(tail_codes[order])] = True
    tail_of = np.empty(len(order), np.intp)
    tail_of[order] = np.cumsum(new) - 1
    first = order[new]
    owner, index, tw_re, tw_im = _tail_twists(ctx.A_rows, letters, first, tail[first], codes)
    count = np.bincount(owner, minlength=len(first))
    n = count[tail_of]
    fits = wlen[word] - 1 <= P.degree_cap
    segs = np.flatnonzero(fits)
    # the paths of the segments within the cap, in loop order: segment s
    # has n[s] of them, those of its tail's twist
    # (int32 indices, which halve the plan of a large P)
    seg = np.repeat(segs.astype(np.int32), n[segs])
    base = np.zeros(len(letters), np.intp)
    base[segs] = np.cumsum(n[segs]) - n[segs] - (np.cumsum(count) - count)[tail_of[segs]]
    twist = np.empty(len(seg), np.int32)
    for lo in range(0, len(seg), PATH_CHUNK):
        at = slice(lo, lo + PATH_CHUNK)
        twist[at] = np.arange(lo, lo + len(seg[at])) - base.take(seg[at])
    # the key t + head: the twisted tail's index shifted past the head, plus
    # the head's index, the word's index without its tail and letter l; with
    # its length, as WordCodes.words reads it
    scale = codes.powers[head] * radix
    shift = widx[word] // codes.powers[tail + 1] * radix + wlen[word] - 1
    # the narrowest dtype that holds the codes: numpy sorts 16-bit integers
    # by radix sort, and int32 halves the sort's memory
    top = codes.powers[-1] * radix
    keys = np.empty(len(seg), np.uint16 if top <= 2**16 else np.int32 if top <= 2**31 else codes.dtype)
    for lo in range(0, len(seg), PATH_CHUNK):
        at = slice(lo, lo + PATH_CHUNK)
        keys[at] = index[twist[at]] * scale[seg[at]] + shift[seg[at]]
    del index
    pos = np.argsort(keys, kind="stable")
    keys = keys[pos]
    seg = seg[pos]
    twist = twist[pos]
    del pos
    starts = _firsts(keys)
    return _TwistPlan(
        letters - 1,
        coef.real[word],
        coef.imag[word],
        np.flatnonzero(~fits & (n > 0)),
        base,
        seg,
        twist,
        np.append(starts, len(seg)),
        # a chunk's keys start within one stretch of PATH_CHUNK paths
        np.append(_firsts(starts // PATH_CHUNK), len(starts)),
        keys[starts],
        tw_re,
        tw_im,
        codes,
    )


def _touch_sums(v: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Sum each run of terms v[start:end] as a dict sums one key's terms with
    prune-on-touch: in order, each term added to the sum so far, where a sum
    at or below PRUNE_TOL drops the key and the next term starts it again
    from 0.0.

    The runs advance together, ``TOUCH_WINDOW`` terms at a time: a window
    is one row of a block, its first term added to the run's sum so far,
    summed by one sequential ``cumsum``.  A run that drops inside a window
    goes on from the term after the drop.  Returns the runs whose key is
    kept, the first term of each one's last start, and its sum."""
    pos, begin = starts.copy(), starts.copy()
    total = np.zeros(len(starts), complex)
    todo = np.flatnonzero(starts < ends)
    cols = np.arange(TOUCH_WINDOW)
    # a window reads 0j past its run's last term, which repeats the run's
    # last sum: a drop there follows one at the last term
    v = np.append(v, 0j)
    while len(todo):
        at, left = pos[todo], ends[todo] - pos[todo]
        block = v[np.where(cols < left[:, None], at[:, None] + cols, len(v) - 1)]
        # a run that goes on adds its sum so far to its next term; a new
        # key's first sum is 0.0 + v, which is v
        going = at > begin[todo]
        block[going, 0] += total[todo[going]]
        np.cumsum(block, axis=1, out=block)
        drops = _prunes(block.real, block.imag)
        hit = drops.argmax(axis=1)
        rows = np.arange(len(todo))
        dropped = drops[rows, hit]
        step = np.where(dropped, hit + 1, np.minimum(left, TOUCH_WINDOW))
        total[todo] = np.where(dropped, 0j, block[rows, step - 1])
        pos[todo] = at + step
        begin[todo[dropped]] = pos[todo[dropped]]
        todo = todo[pos[todo] < ends[todo]]
    # a run that drops at its last term begins again at its end
    live = np.flatnonzero(begin < ends)
    return live, begin[live], total[live]


def _summed_terms(plan: _TwistPlan, live: np.ndarray, m_re, m_im, lo: int, hi: int):
    """The terms 0j + ct * m of the paths [lo, hi) in key order that are
    summed, those of live segments that the prune keeps, formed
    ``TERM_CHUNK`` paths at a time.  Returns the summed paths, their terms,
    and whether each path of [lo, hi) is summed."""
    # (take, which reads int32 indices faster than indexing does)
    summed = live.take(plan.seg[lo:hi])
    at = np.flatnonzero(summed) + lo
    v = np.empty(len(at), complex)
    for part in range(0, len(at), TERM_CHUNK):
        paths = at[part : part + TERM_CHUNK]
        seg, twist = plan.seg[paths], plan.twist[paths]
        v_re, v_im = _cmul(plan.tw_re.take(twist), plan.tw_im.take(twist), m_re.take(seg), m_im.take(seg))
        v.real[part : part + TERM_CHUNK] = v_re + 0.0
        v.imag[part : part + TERM_CHUNK] = v_im + 0.0
    kept = ~_prunes(v.real, v.imag)
    summed[summed] = kept
    return at[kept], v[kept], summed


def cyclic_D(ctx: ModularContext, j: int, P: NCPoly, plan: _TwistPlan | None = None) -> NCPoly:
    """Twisted cyclic derivative.

    On a word, every position l contributes alpha_{j, w_l} times the tail,
    twisted by the modular action at s = -1, followed by the head.  The
    result is the one of the per-term loop kept in ``tests/oracles.py``, bit
    for bit: keys, key order, coefficients and taint.  That loop skips a
    term with alpha_{j, w_l} = 0 or |c alpha_{j, w_l}| <= PRUNE_TOL, lets a
    word over the cap taint the result when its tail's twist has a path,
    and adds each path's 0j + ct (c alpha_{j, w_l}), unless pruned, into one
    dict with prune-on-touch.

    Here the twists and keys come from P's plan under ``ctx``
    (``_twist_plan``): ``plan`` when the caller holds it, as ``grad_D``
    does for its N components, and otherwise one built for this call.
    The products take Python's complex-product formula on the parts, each
    key's terms are summed in loop order with the loop's drops and restarts
    (``_touch_sums``), and a kept key sits where the loop last inserted it.
    The output carries the input's truncation taint.
    """
    ctx.check_index(j)
    if plan is None:
        plan = _twist_plan(ctx, P)
    a = ctx.alpha[j - 1][plan.letter]
    # NaN and inf run through as in Python's float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        m_re, m_im = _cmul(plan.c_re, plan.c_im, a.real, a.imag)
        live = (a != 0) & ~_prunes(m_re, m_im)
        dropped = bool(live[plan.over].any())

        # a chunk of keys at a time: each key's run of summed terms, those
        # of the paths of live segments that the prune keeps
        parts = [(np.zeros(0, np.intp),) * 2 + (np.zeros(0, complex),)]
        for g0, g1 in zip(plan.chunks[:-1], plan.chunks[1:]):
            bounds = plan.bounds[g0 : g1 + 1]
            at, v, summed = _summed_terms(plan, live, m_re, m_im, bounds[0], bounds[-1])
            runs = np.concatenate(([0], np.cumsum(summed)))[bounds - bounds[0]]
            keys, start, total = _touch_sums(v, runs[:-1], runs[1:])
            parts.append((keys + g0, at[start], total))
    keys, first, total = map(np.concatenate, zip(*parts))
    order = np.argsort(plan.twist.take(first) + plan.base.take(plan.seg.take(first)))
    words = plan.codes.words(plan.keys[keys[order]])
    coef = total[order].tolist()
    return NCPoly._pruned(P.num_vars, dict(zip(words, coef)), P.degree_cap, dropped or P.truncated)


def grad_D(ctx: ModularContext, P: NCPoly) -> list[NCPoly]:
    """Cyclic gradient vector (D_1 P, ..., D_N P): one ``cyclic_D`` call per
    component, all reading the one plan of P that this call builds."""
    plan = _twist_plan(ctx, P)
    return [cyclic_D(ctx, j, P, plan) for j in range(1, ctx.num_vars + 1)]


def _jacobian(ctx: ModularContext, f: list[NCPoly], entry) -> TensorMatrix:
    """The matrix with entry(j, f_i) at (i, j), row by row."""
    if len(f) != ctx.num_vars:
        raise DimMismatch(f"need {ctx.num_vars} components, got {len(f)}")
    js = range(1, ctx.num_vars + 1)
    return TensorMatrix(ctx.num_vars, tuple(tuple(entry(j, fi) for j in js) for fi in f))


def jac_J(ctx: ModularContext, f: list[NCPoly]) -> TensorMatrix:
    """Plain Jacobian: entry (i, j) is delta_j f_i."""
    return _jacobian(ctx, f, delta)


def jac_J_sigma(ctx: ModularContext, f: list[NCPoly]) -> TensorMatrix:
    """Twisted Jacobian: entry (i, j) is partial_sigma_j f_i."""
    return _jacobian(ctx, f, lambda j, fi: partial_sigma(ctx, j, fi))


def sigma_inv_op(P: NCPoly) -> NCPoly:
    """Divide each word by its length; constants map to zero."""
    return NCPoly(
        P.num_vars,
        {w: c / len(w) for w, c in P.coeffs.items() if w},
        P.degree_cap,
        P.truncated,
    )


def pi_op(P: NCPoly) -> NCPoly:
    """Remove the constant term."""
    return NCPoly(
        P.num_vars,
        {w: c for w, c in P.coeffs.items() if w},
        P.degree_cap,
        P.truncated,
    )


def symmetrize_S(ctx: ModularContext, P: NCPoly) -> NCPoly:
    """Average of twisted cyclic rotations, per degree; constants fixed.

    Centralizer input lands on rotation-fixed output, and the map contracts
    the rotation-invariant norm there.
    """

    def averaged(n: int) -> NCPoly:
        comp = P.project_degree(n)
        if n == 0:
            return comp
        # comp and its n - 1 successive rotations, one at a time
        orbit = accumulate(range(1, n), lambda p, _: rho(ctx, p), initial=comp)
        return NCPoly.sum(P.num_vars, orbit, P.degree_cap).scale(1.0 / n)

    return NCPoly.sum(P.num_vars, map(averaged, P.degrees()), P.degree_cap)
