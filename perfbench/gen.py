"""Seeded wavelet families with answers known from their construction.

A family is built from the shell of the dual group: member u owns the
shell cells {digit 0 = u, digits 1..m = t}, and each cell is moved by
its own coarsening shift k <= m (the cylinder dilated by -k).  Whatever
the shifts, the contracting dilates of the moved cells tile the dual
group, because the shell's dilates do.  What the
shifts decide is the fractional code of a moved cell, the digits it
pins at positions >= 1:

    code = t[k:]               for k >= 0
    code = 0^(|k|-1) . u . t   for k < 0

A member has measure one iff the Kraft sum of its codes is one, and it
is translation congruent to the unit cell iff its codes form a complete
prefix-free code.  Every answer below is computed from these words in
plain integer arithmetic; nothing here imports the library under test.

PASS families start from the Shannon family (one cell per member with
t = () and k = 0), split cells (t -> t + (d,) for every digit d, which
extends each code by d) and swap codes between two cells of a member
when each code is a shift image of the other cell's shell word.  FAIL
families perturb the shifts of a PASS family or put one cell into two
members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_RESOLUTION = 24  # the library's documented cap, restated for the reference


@dataclass(frozen=True)
class Cell:
    u: int
    t: tuple[int, ...]
    k: int

    @property
    def m(self) -> int:
        return len(self.t)

    @property
    def resolution(self) -> int:
        return self.m - self.k

    def digits(self) -> dict[int, int]:
        out = {-self.k: self.u}
        for i, d in enumerate(self.t, start=1):
            if d:
                out[i - self.k] = d
        return out

    def code(self) -> tuple[int, ...]:
        return code_of(self.u, self.t, self.k)


def code_of(u: int, t: tuple[int, ...], k: int) -> tuple[int, ...]:
    if k >= 0:
        return t[k:]
    return (0,) * (-k - 1) + (u,) + t


@dataclass
class Family:
    p: int
    members: list[list[Cell]]  # members[u - 1]
    kind: str  # pass | shift | dup | group-shift

    @property
    def cells(self) -> list[Cell]:
        return [c for member in self.members for c in member]

    def cylinders(self, member: list[Cell] | None = None) -> frozenset:
        """Canonical cylinders of one member, or of the union."""
        return canonical(self.p, [_cyl(c) for c in (self.cells if member is None else member)])

    @property
    def resolution(self) -> int:
        """Finest canonical cylinder of the union, as the verifier sees it."""
        return max(r for r, _ in self.cylinders())

    @property
    def lowest(self) -> int:
        """Lowest pinned nonzero digit position of the union."""
        return min(digits[0][0] for _, digits in self.cylinders())

    def member_resolutions(self) -> list[int]:
        return [max(r for r, _ in self.cylinders(m)) for m in self.members]

    def document(self) -> dict:
        return {
            "p": self.p,
            "family": [
                {
                    "name": f"omega{u}",
                    "cylinders": [
                        {
                            "resolution": c.resolution,
                            "digits": {str(pos): d for pos, d in sorted(c.digits().items())},
                        }
                        for c in sorted(member, key=lambda c: (c.resolution, sorted(c.digits().items())))
                    ],
                }
                for u, member in enumerate(self.members, start=1)
            ],
        }


# -- reference answers ---------------------------------------------------------------


def kraft_is_one(p: int, codes: list[tuple[int, ...]]) -> bool:
    top = max(len(c) for c in codes)
    return sum(p ** (top - len(c)) for c in codes) == p**top


def prefix_free(codes: list[tuple[int, ...]]) -> bool:
    ordered = sorted(codes)
    return all(b[: len(a)] != a for a, b in zip(ordered, ordered[1:]))


def complete_code(p: int, codes: list[tuple[int, ...]]) -> bool:
    return prefix_free(codes) and kraft_is_one(p, codes)


def expected_conditions(family: Family) -> dict[str, bool]:
    """Per-condition truth of the wavelet-set conditions, from the words alone."""
    p = family.p
    measure = all(kraft_is_one(p, [c.code() for c in m]) for m in family.members)
    congruence = all(complete_code(p, [c.code() for c in m]) for m in family.members)
    shell_words = [(c.u, c.t) for c in family.cells]
    tiling = len(set(shell_words)) == len(shell_words) and all(
        complete_code(p, [t for v, t in shell_words if v == u]) for u in range(1, p)
    )
    return {
        "measure-one": measure,
        "dilation-tiling": tiling,
        "translation-congruence": congruence,
    }


# -- construction ---------------------------------------------------------------------


def shannon(p: int) -> Family:
    return Family(p, [[Cell(u, (), 0)] for u in range(1, p)], "pass")


def _split(member: list[Cell], cell: Cell, p: int) -> list[Cell]:
    member.remove(cell)
    children = [Cell(cell.u, cell.t + (d,), cell.k) for d in range(p)]
    member.extend(children)
    return children


def _make_leaf(member: list[Cell], code: tuple[int, ...], p: int) -> Cell | None:
    """Split the cell whose code is a prefix of `code` until a cell has
    exactly that code; None when `code` is inside the trie, not below it."""
    by_code = {c.code(): c for c in member}
    owner = next((by_code[code[:n]] for n in range(len(code) + 1) if code[:n] in by_code), None)
    while owner is not None and owner.code() != code:
        depth = len(owner.code())
        owner = next(c for c in _split(member, owner, p) if c.code() == code[: depth + 1])
    return owner


def _swap(member: list[Cell], a: Cell, i: int, p: int) -> bool:
    """Give cell A the code 0^i.u.t_A and the cell B holding that code the
    old code of A, when that is a shift image of B's shell word."""
    target = (0,) * i + (a.u,) + a.t
    if target[: len(a.code())] == a.code():
        return False
    b = _make_leaf(member, target, p)
    if b is None:
        return False
    k_b = next((k for k in range(b.m + 1) if code_of(b.u, b.t, k) == a.code()), None)
    if k_b is None:
        return False
    member.remove(a)
    member.remove(b)
    member.extend([Cell(a.u, a.t, -(i + 1)), Cell(b.u, b.t, k_b)])
    return True


def _deep_swap(rng: random.Random, member: list[Cell], p: int, resolution: int, i: int) -> bool:
    """A swap that leaves the moved cell A at exactly `resolution`: A has an
    unshifted shell word of length resolution - i - 1."""
    word = tuple(rng.randrange(p) for _ in range(resolution - i - 1))
    a = _make_leaf(member, word, p)
    return a is not None and a.k == 0 and _swap(member, a, i, p)


def pass_family(rng: random.Random, p: int, resolution: int, lowest: int, n_cells: int) -> Family:
    """A PASS family whose members all have canonical resolution
    `resolution`, whose union pins its lowest nonzero digit at `lowest`,
    with `n_cells` cells (a multiple of p - 1), by rejection.

    Splits do not change a set, only how many cylinders describe it; the
    swaps shape it.  Each member first gets one swap that reaches the
    resolution, then random splits and shallower swaps."""
    depth = -lowest - 1  # the i of the deepest swap, so that B moves by -lowest

    def fits(fam: Family) -> bool:
        return (
            max(fam.member_resolutions()) <= resolution
            and fam.lowest >= lowest
            and len(fam.cells) <= n_cells
        )

    for _ in range(10_000):
        fam = shannon(p)
        if resolution > 0:
            # The deepest swap moves a cell with a nonempty shell word of
            # length resolution - depth - 1.
            assert 0 <= depth <= resolution - 2, "unreachable resolution and lowest position"
            ok = True
            for u, member in enumerate(fam.members):
                i = depth if u == 0 else rng.randint(0, depth)
                ok = ok and _deep_swap(rng, member, p, resolution, i)
            if not ok or not fits(fam):
                continue
        for _ in range(4 * n_cells):
            if len(fam.cells) == n_cells:
                break
            member = rng.choice(fam.members)
            before = list(member)
            if rng.random() < 0.3:
                a = rng.choice(member)
                _swap(member, a, rng.randint(0, depth), p)
            else:
                _split(member, rng.choice(member), p)
            if not fits(fam):
                member[:] = before
        if (
            fam.member_resolutions() == [resolution] * (p - 1)
            and fam.lowest == lowest
            and len(fam.cells) == n_cells
        ):
            assert all(expected_conditions(fam).values())
            return fam
    raise RuntimeError(f"no family with p={p} R={resolution} w={lowest} and {n_cells} cells")


def _copy(fam: Family, kind: str) -> Family:
    return Family(fam.p, [list(m) for m in fam.members], kind)


def shift_mutant(rng: random.Random, fam: Family) -> Family:
    """Move one cell by another coarsening shift; its code length changes.
    The family keeps its resolution and lowest pinned position where some
    move allows it."""
    out = _copy(fam, "shift")
    L, w = fam.resolution, fam.lowest

    def moves(lo, hi):
        return [
            (member, cell, k)
            for member in out.members
            for cell in member
            for k in range(lo(cell), hi(cell) + 1)
            if k != cell.k
        ]

    kept = moves(lambda c: max(-2, c.m - L), lambda c: min(c.m, -w))
    rng.shuffle(kept)
    for member, cell, k in kept:
        at = member.index(cell)
        member[at] = Cell(cell.u, cell.t, k)
        if (out.resolution, out.lowest) == (L, w):
            return out
        member[at] = cell
    member, cell, k = rng.choice(moves(lambda c: -2, lambda c: c.m))
    member[member.index(cell)] = Cell(cell.u, cell.t, k)
    return out


def dup_mutant(rng: random.Random, fam: Family) -> Family:
    """Put one cell of member u into a second member as well (p >= 3)."""
    out = _copy(fam, "dup")
    u, v = rng.sample(range(len(out.members)), 2)
    out.members[v].append(rng.choice(out.members[u]))
    return out


def group_shift_mutant(rng: random.Random, fam: Family) -> Family | None:
    """Move a complete sibling group to resolution 0, so it merges into a
    single cylinder one unit coset wide."""
    out = _copy(fam, "group-shift")
    groups = []
    for member in out.members:
        by_parent: dict = {}
        for c in member:
            if c.m:
                by_parent.setdefault(c.t[:-1], []).append(c)
        groups += [(member, g) for g in by_parent.values() if len(g) == fam.p]
    if not groups:
        return None
    member, group = rng.choice(groups)
    for c in group:
        member[member.index(c)] = Cell(c.u, c.t, c.m)
    return out


# -- scaling spectrum reference ---------------------------------------------------------
#
# Cylinders are (resolution, digits) with digits a sorted tuple of the
# nonzero (position, digit) pairs.  The spectrum of a family is the union
# of its contracting dilates j >= 1; its depth-J truncation T plus the
# identity ball B at depth w + J is a fixed point of S -> s(D) | s(S)
# exactly when the spectrum is resolved, and then its lattice translates
# are disjoint iff no two of its cylinders with different integer parts
# have prefix-related fractional codes.


def _cyl(cell: Cell) -> tuple:
    return (cell.resolution, tuple(sorted(cell.digits().items())))


def _dilate(cyl: tuple, j: int) -> tuple:
    res, digits = cyl
    return (res + j, tuple((pos + j, d) for pos, d in digits))


def canonical(p: int, cyls) -> frozenset:
    """Merge complete sibling groups of pairwise disjoint cylinders, finest first."""
    levels: dict[int, set] = {}
    for res, digits in cyls:
        levels.setdefault(res, set()).add(digits)
    out = set()
    while levels:
        res = max(levels)
        groups: dict = {}
        for digits in levels.pop(res):
            base = tuple((q, d) for q, d in digits if q != res)
            groups.setdefault(base, []).append(digits)
        for base, members in groups.items():
            if len(members) == p:
                levels.setdefault(res - 1, set()).add(base)
            else:
                out.update((res, digits) for digits in members)
    return frozenset(out)


def _lowest(cyl: tuple) -> int:
    return cyl[1][0][0]


def _with_ball(p: int, cyls, depth: int) -> frozenset:
    """Union with the identity ball at `depth`; every cylinder given pins a
    nonzero digit, so it lies inside the ball or pins one at or below it."""
    return canonical(p, [c for c in cyls if _lowest(c) <= depth] + [(depth, ())])


@dataclass
class Spectrum:
    resolved: bool
    cylinders: frozenset  # canonical T | B; the spectrum itself when resolved


def spectrum(family: Family, depth: int) -> Spectrum:
    p = family.p
    union = [_cyl(c) for c in family.cells]
    truncated = [_dilate(c, j) for c in union for j in range(1, depth + 1)]
    ball = family.lowest + depth
    s = _with_ball(p, truncated, ball)
    # D meets S only inside B, so the cells of s(D) outside s(B) are new.
    image = canonical(
        p,
        [_dilate(c, 1) for c in s]
        + [_dilate(c, 1) for c in union if _lowest(c) <= ball],
    )
    return Spectrum(image == s, s)


def translates_disjoint(cyls) -> bool:
    """Lattice translates of a cylinder set (resolutions >= 0) are disjoint."""
    owners: dict[tuple, set] = {}
    keyed = []
    for res, digits in cyls:
        pinned = dict(digits)
        integer = tuple((q, d) for q, d in digits if q <= 0)
        code = tuple(pinned.get(q, 0) for q in range(1, res + 1))
        owners.setdefault(code, set()).add(integer)
        keyed.append((code, integer))
    for code, integer in keyed:
        for n in range(len(code) + 1):
            if owners.get(code[:n], {integer}) - {integer}:
                return False
    return True


def filter_resolution(family: Family, spec: Spectrum) -> int:
    """Resolution of the library's filter tables on a resolved spectrum."""
    members = [family.cylinders(m) for m in family.members]
    return max(
        [1, max(r for r, _ in spec.cylinders)]
        + [max(r for r, _ in m) + 1 for m in members]
    )


def cell_count(p: int, cyls, level: int) -> int:
    return sum(p ** (level - r) for r, _ in cyls)
