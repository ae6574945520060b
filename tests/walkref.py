"""The transversal walk of search_wavelet_sets as it stood before its
inner loop was inlined, kept as the reference the library walk must
match: the same families in the same order, the same examined count and
the same exhausted flag.

The prologue of search_wavelet_sets, _walk_transversals and the two
helpers it calls are copied unchanged, so a change to the library's
helpers cannot move both sides at once.  Each member's used fractional
classes are a set of digit tuples, chain keys are counted in a Counter
and every dropped subtree's size is computed afresh.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from math import inf

from vilenkin_wavelets.errors import ResolutionCapError
from vilenkin_wavelets.group import check_base
from vilenkin_wavelets.setalg import MAX_REFINE_CELLS, DigitMap, PSet, _cylinder, _exceeds
from vilenkin_wavelets.verifier import SearchResult, WaveletFamily


def reference_search(p: int, window: tuple[int, int], *, budget: int | None = None) -> SearchResult:
    """search_wavelet_sets with the reference walk."""
    lo, hi = window
    if lo > hi:
        raise ValueError("window lower bound exceeds upper bound")
    check_base(p)
    if hi < 0 or lo > 1:
        # A member takes p**hi atoms: a fraction for hi < 0, and for lo > 1
        # p - 1 members need more than the p**(hi - lo + 1) in the window.
        return SearchResult(families=[], exhausted=False, examined=0)

    span = hi - lo + 1
    if _exceeds(p, span, MAX_REFINE_CELLS):
        raise ResolutionCapError(
            f"search window {lo}..{hi} holds {p}**{span} atoms, "
            f"more than the cap {MAX_REFINE_CELLS}"
        )
    per_set = p**hi
    # Each member of a candidate that survives the walk is a transversal:
    # one of p**(1 - lo) integer parts for each of the p**hi classes.
    if budget is None and _exceeds(p ** (1 - lo), per_set * (p - 1), MAX_REFINE_CELLS):
        raise ResolutionCapError(
            f"search window {lo}..{hi} has up to {p ** (1 - lo)}**{per_set * (p - 1)} "
            f"transversal families, more than the cap {MAX_REFINE_CELLS}; give a budget"
        )

    # Counts only meet the budget, so they are exact up to budget + 1.
    cap = inf if budget is None else budget + 1
    n = p**span
    # tail[k]: the choices of the members after member k, which do not
    # depend on what member k takes.
    tail = [1] * (p - 1)
    for k in range(p - 3, -1, -1):
        tail[k] = min(tail[k + 1] * _comb_upto(n - (k + 1) * per_set, per_set, cap), cap)
    total = min(_comb_upto(n, per_set, cap) * tail[0], cap)
    limit = total if budget is None else min(total, budget)
    found: list[WaveletFamily] = []
    if limit:
        _walk_transversals(p, lo, hi, per_set, tail, cap, limit, found)
    return SearchResult(
        families=found,
        exhausted=budget is not None and total > budget,
        examined=limit,
    )


def _comb_upto(n: int, k: int, cap: int | float) -> int:
    """min(comb(n, k), cap), without building a huge binomial.

    The partial products comb(n - k + i, i) grow with i, so the first
    one to reach the cap settles the answer.
    """
    k = min(k, n - k)
    if k < 0:
        return 0
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c >= cap:
            return cap
    return c


def _window_cell(p: int, lo: int, hi: int, i: int) -> DigitMap:
    """The i-th resolution-hi cell of the window in lexicographic order:
    position lo carries the most significant base-p digit of i."""
    digits = []
    for pos in range(hi, lo - 1, -1):
        i, d = divmod(i, p)
        if d:
            digits.append((pos, d))
    return tuple(reversed(digits))


def _walk_transversals(
    p: int,
    lo: int,
    hi: int,
    per_set: int,
    tail: list[int],
    cap: int | float,
    limit: int,
    found: list[WaveletFamily],
) -> None:
    """Visit the candidates of rank below `limit` in order, appending to
    `found` every complete candidate whose keys fill the shell
    (search_wavelet_sets proves each one a wavelet set).  Subtree sizes
    are counted up to `cap`, which exceeds `limit`."""
    shell_weight = (p - 1) * p ** (hi - lo)
    names = tuple(f"omega{u}" for u in range(1, p))
    seen: dict[int, tuple] = {}

    def atom(i: int) -> tuple:
        """(cell, fractional class, shell key, its truncations at resolutions
        0..its own, weight) of atom i, worked out on first use; the zero
        atom has no key."""
        if i not in seen:
            x = _window_cell(p, lo, hi, i)
            frac = tuple(pd for pd in x if pd[0] > 0)
            if not x:
                seen[i] = (x, frac, None, (), 0)
            else:
                m = x[0][0]
                digits = tuple((pos - m, d) for pos, d in x)
                chain = tuple(
                    (q, tuple(pd for pd in digits if pd[0] <= q)) for q in range(hi - m + 1)
                )
                seen[i] = (x, frac, chain[-1], chain, p ** (m - lo))
        return seen[i]

    chosen_keys: set = set()
    inside: Counter = Counter()  # chain keys of the chosen atoms
    members: list[list[int]] = []
    rank = weight = 0

    def admissible(x: int, used: set) -> bool:
        """Not the zero atom (it holds an identity neighbourhood), a class
        new to this member, and a key nesting with no chosen key."""
        _, frac, key, chain, _ = atom(x)
        return (
            key is not None
            and frac not in used
            and not inside[key]
            and not any(c in chosen_keys for c in chain)
        )

    def take(x: int, used: set, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) atom x from the partial family."""
        nonlocal weight
        _, frac, key, chain, w = atom(x)
        weight += sign * w
        (used.add if sign > 0 else used.discard)(frac)
        (chosen_keys.add if sign > 0 else chosen_keys.discard)(key)
        for c in chain:
            inside[c] += sign

    def examine() -> None:
        if weight == shell_weight:
            # Atoms are cells of the window, so the constructor only merges.
            sets = (
                PSet(p, [_cylinder(p, hi, atom(i)[0]) for i in m], validate=False)
                for m in members
            )
            found.append(WaveletFamily(p, names, tuple(sets)))

    def walk(k: int, pool: Sequence[int]) -> bool:
        """Member k's choices from pool; False once the rank hits the limit."""
        nonlocal rank
        size = len(pool)
        used: set = set()
        picks: list[int] = []  # pool indices, increasing
        j = 0
        while True:
            if rank >= limit:
                return False
            need = per_set - len(picks)
            if j > size - need:
                if not picks:
                    return True
                j = picks.pop()
                take(pool[j], used, -1)
                j += 1
                continue
            x = pool[j]
            if not admissible(x, used):
                rank += _comb_upto(size - j - 1, need - 1, cap) * tail[k]
                j += 1
                continue
            take(x, used, 1)
            if need > 1:
                picks.append(j)
            else:
                members.append([pool[i] for i in picks] + [x])
                if k + 2 < p:
                    taken = set(members[-1])
                    going = walk(k + 1, [a for a in pool if a not in taken])
                else:
                    examine()
                    rank += 1
                    going = True
                members.pop()
                take(x, used, -1)
                if not going:
                    return False
            j += 1

    walk(0, range(p ** (hi - lo + 1)))
