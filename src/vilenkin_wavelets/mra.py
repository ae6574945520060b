"""Multiresolution structure built on top of a verified wavelet family.

The candidate scaling spectrum is the union of all forward contracting
dilates of the family.  Working with its depth-J truncation keeps every
quantity an exact cylinder set; the untruncated remainder lives inside an
identity ball of measure p**(-J) and is accounted for explicitly, never
approximated.  When the truncation plus that ball is literally a fixed
point of S -> sigma(D) | sigma(S), the spectrum has been resolved
exactly; every PASS below is decided on that exact spectrum.

Filters are 0/1 and lattice periodic: the low-pass vanishes on the first
dilate of the family and equals one on the rest of the spectrum; each
band filter is the indicator of the first dilate of its member set.
Periodic extension is well defined because the spectrum's lattice
translates partition the dual group once the intersection-measure
criterion holds, and each filter is kept as one cylinder set, its level
set on the unit cell, folded from the spectrum.  The quadrature
identities are cover checks of those sets.  The refinement equations
are one refinement step, the dilate by -1 of a set's points where a
filter is one, unfolded from its level set piece by piece, and the
low-pass product is that step iterated from an identity ball.  Only
the cell-by-cell report rows of FilterBank.to_json list cells."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DigitError, ResolutionCapError, VilenkinError
from .group import from_digits, identity, lambda_encode
from .setalg import (
    Cylinder,
    DigitMap,
    Measure,
    PSet,
    _cylinder,
    _nested_pairs,
    _union,
    theta_ball,
    unit_cell,
)
from .verifier import (
    VerdictReport,
    WaveletFamily,
    _cover_defects,
    _least_cell,
    congruence_partition,
    is_wavelet_set,
)


def _require_verified(family: WaveletFamily, verdict: VerdictReport | None) -> VerdictReport:
    if verdict is None:
        verdict = is_wavelet_set(family)
    if not verdict.overall:
        raise VilenkinError("family does not verify as a wavelet set")
    return verdict


@dataclass
class OmegaSigma:
    """Depth-J truncation of the scaling spectrum, plus exact-tail data."""

    p: int
    depth: int
    truncated: PSet
    level: int  # family union resolution
    lowest_fixed: int  # coarsest pinned digit position of the family union
    resolved: PSet | None  # exact spectrum (a superset of truncated) when the tail is self-similar
    _measured: tuple[PSet, Measure] | None = field(default=None, init=False, repr=False, compare=False)

    def truncated_measure(self) -> Measure:
        """The truncation's measure, an O(J^2) sum at depth J, taken once
        per truncation: a reassigned `truncated` is measured afresh."""
        if self._measured is None or self._measured[0] is not self.truncated:
            self._measured = (self.truncated, self.truncated.measure())
        return self._measured[1]

    def tail_bound(self) -> Measure:
        return Measure.make(1, self.p, self.depth)

    def spectrum(self) -> PSet:
        """Best available cylinder representation of the spectrum."""
        return self.resolved if self.resolved is not None else self.truncated


def _dilates(union: PSet, depth: int) -> PSet:
    """The union of the dilates of a verified family's union by 1 to depth.

    Dilation tiling makes those dilates pairwise disjoint, so their
    cylinders make one canonical set; the constructor still checks it.
    """
    return PSet(
        union.p, (c.dilate(j) for j in range(1, depth + 1) for c in union.cylinders)
    )


def _fixed_point(union: PSet, truncated: PSet, ball: int) -> PSet | None:
    """truncated | theta_ball(p, ball) when it equals its own image
    sigma(union) | sigma(itself), else None."""
    candidate = truncated.union(theta_ball(union.p, ball))
    image = union.dilate(1).union(candidate.dilate(1))
    return candidate if image == candidate else None


def accumulate_omega_sigma(
    family: WaveletFamily,
    depth: int,
    *,
    verdict: VerdictReport | None = None,
) -> OmegaSigma:
    """Union of the first `depth` contracting dilates of the family union.

    Also tests for the fixed point: if the truncation plus the identity
    ball theta_ball(p, w + depth), w the family's lowest pinned position,
    satisfies S == sigma(D) | sigma(S) exactly, the spectrum is
    self-similar and S represents it exactly (a.e.).  The test runs at
    every depth; check_mra_condition shows it succeeds from depth L - w
    on, L the family's resolution.

    So the dilates are built only up to settle = min(depth, max(L - w, 1)).
    A deeper truncation is read off the fixed point S found there: S is
    the disjoint union of all the dilates, sigma^depth(S) the union of
    those past depth, and S - sigma^depth(S) the truncation (clopen sets
    equal a.e. are equal).  A spectrum that is not the fixed point at
    settle contradicts that proof and raises VilenkinError.

    The fixed-point test at depth would find S again, so it is not run.
    The union is zero below w and S is made of its dilates by 1 and more,
    so S lies in the ball B(w) = theta_ball(p, w); then sigma^depth(S)
    lies in B(w + depth), which lies in B(w + settle), which lies in S.
    So the truncation plus B(w + depth),
    (S - sigma^depth(S)) | B(w + depth), is S itself.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _require_verified(family, verdict)
    union = family.union()
    w_lo = union.min_fixed_position
    assert w_lo is not None

    settle = min(depth, max(union.max_resolution - w_lo, 1))
    truncated = _dilates(union, settle)
    resolved = _fixed_point(union, truncated, w_lo + settle)
    if depth > settle:
        if resolved is None:
            raise VilenkinError(f"the spectrum is not the fixed point at depth {settle}")
        truncated = resolved.difference(resolved.dilate(depth))
    sigma = OmegaSigma(
        p=family.p,
        depth=depth,
        truncated=truncated,
        level=union.max_resolution,
        lowest_fixed=w_lo,
        resolved=resolved,
    )
    expected = Fraction(1) - Fraction(1, family.p**depth)
    if sigma.truncated_measure().as_fraction() != expected:
        raise VilenkinError("truncated spectrum does not telescope to 1 - p^-J")
    return sigma


# -- intersection-measure criterion ---------------------------------------------


@dataclass
class MraRow:
    lattice_index: int
    measure: Measure

    def expected(self) -> str:
        return "1-p^-J" if self.lattice_index == 0 else "0"


@dataclass
class MraReport:
    status: str  # PASS | FAIL | INCONCLUSIVE
    certified: bool
    certification: str | None  # how the verdict was certified
    depth: int
    rows: list[MraRow]
    witnesses: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def check_mra_condition(omega_sigma: OmegaSigma) -> MraReport:
    """Decide whether the spectrum's lattice translates are a.e. disjoint.

    The reported table always contains the truncated measures.  A nonzero
    row other than the identity is a certified failure (truncation is a
    subset, so the true overlap can only be larger).  An all-zero table
    passes only on the exactly resolved spectrum, whose own overlaps are
    then checked too; on a spectrum that is not resolved it stays
    INCONCLUSIVE rather than guessing.  Witnesses of the truncation come
    before those of the exact spectrum, which are marked "tail".

    Each table is read off the congruence partition of its set S, the
    triples (a, piece, T_a) with T_a the piece of integer part a moved
    into the unit cell.  A lattice shift n rewrites only the digits at
    positions <= 0, so S & (S + n) is the disjoint union, over the parts
    a, of (T_a & T_b) + a with b = a - n.  The cells of T_a & T_b, a != b,
    are the nested pairs across the moved pieces (setalg._nested_pairs):
    each goes to row lambda(a - b) moved back by a, and to row
    lambda(b - a) moved back by b.  Siblings share their integer part, so
    the row is the canonical set S.intersect(S.translate(n)).  The rows
    are the differences of two parts and the p shifts of the digit at
    position 0; a row no pair meets reads 0.  A cylinder coarser than
    resolution 0 spans several integer parts and raises DigitError.

    Every verified family is resolved from depth L - w on, so no depth
    threshold is needed to certify a deeper table.  Write U for the
    family union, L for its finest resolution, w for its lowest pinned
    position, T_J for the union of sigma^1(U) .. sigma^J(U), B(k) =
    theta_ball(p, k) (the points whose digits at positions <= k are all
    0) and S = T_J | B(w + J).  Then sigma(U) | sigma(S) =
    T_{J+1} | B(w + J + 1).  Each cylinder of U pins a nonzero digit, and
    its points have their first nonzero digit at its lowest pinned
    position, which lies in [w, L]; so the points of sigma^k(U) have it
    in [w + k, L + k].  sigma^{J+1}(U) lies in B(w + J), so the image
    lies in S.  What S has beyond the image lies in the shell
    B(w + J) - B(w + J + 1) of points whose first nonzero digit is at
    w + J + 1.  Dilation tiling puts each such point in one sigma^k(U),
    with w + k <= w + J + 1 <= L + k, that is
    J + 1 - (L - w) <= k <= J + 1; when J >= L - w every such k is at
    least 1, the shell lies in T_{J+1}, and S is the fixed point.
    """
    p = omega_sigma.p

    def overlaps(S: PSet, tail: bool) -> tuple[list[MraRow], list[dict]]:
        """The rows and witnesses of S's overlaps with its lattice
        translates, read off its congruence partition, one row per
        lattice index but the identity, whose overlap is S itself."""
        if any(c.resolution < 0 for c in S.cylinders):
            raise DigitError("integer part requires resolution >= 0")
        parts = congruence_partition(S)
        diff = [[lambda_encode(a.subtract(b)) for b, _, _ in parts] for a, _, _ in parts]
        # Rows for the differences of two parts and the p digit-0 shifts.
        found: dict[int, list[Cylinder]] = {k: [] for r in [range(p), *diff] for k in r}
        prefixes = [tuple(n.support()) for n, _, _ in parts]
        # An equal pair comes up from both sides; the constructor keeps one.
        for j, x, i, _ in _nested_pairs([moved.cylinders for _, _, moved in parts]):
            for a, b in ((i, j), (j, i)):
                found[diff[a][b]].append(_cylinder(p, x.resolution, prefixes[a] + x.digits))
        rows, witnesses = [], []
        for index in sorted(found):
            if not index:
                continue
            overlap = PSet(p, found[index], validate=False)
            m = overlap.measure()
            rows.append(MraRow(index, m))
            if m > 0:
                witness = {
                    "lattice_index": index,
                    "measure": m.exact_string(),
                    "cell": _least_cell(overlap.cylinders),
                }
                if tail:
                    witness["tail"] = True
                witnesses.append(witness)
        return rows, witnesses

    exact = omega_sigma.resolved
    rows, witnesses = overlaps(omega_sigma.truncated, False)
    rows.insert(0, MraRow(0, omega_sigma.truncated_measure()))
    if exact is not None:
        witnesses += overlaps(exact, True)[1]

    if witnesses:
        status = "FAIL"
    elif exact is not None:
        status = "PASS"
    else:
        status = "INCONCLUSIVE"

    return MraReport(
        status=status,
        certified=status != "INCONCLUSIVE",
        certification="self-similar-fixed-point" if exact is not None else None,
        depth=omega_sigma.depth,
        rows=rows,
        witnesses=witnesses,
    )


# -- filter construction -----------------------------------------------------------


@dataclass
class FilterBank:
    """The 0/1 filters of a resolved spectrum, each one cylinder set: its
    level set Per_1 on the unit cell, the points whose digits at
    positions 1 to the table resolution make the filter one.  A filter
    is lattice periodic, so that set fixes it everywhere; on the unit
    cell it is zero off the set."""

    p: int
    resolution: int
    spectrum: PSet
    m0: PSet
    m1: tuple[PSet, ...]  # indexed by u - 1

    def all_tables(self) -> list[PSet]:
        return [self.m0, *self.m1]

    def to_json(self) -> dict:
        """One row per resolution-r cell of the spectrum, r the table
        resolution, with each filter's value there."""
        r = self.resolution
        ones = [t.cells_at(r) for t in self.all_tables()]
        rows = []
        for key in sorted(self.spectrum.cells_at(r)):
            fraction = tuple((pos, d) for pos, d in key if pos > 0)
            m0, *m1 = (int(fraction in cells) for cells in ones)
            rows.append({"cell": Cylinder(self.p, r, key).to_json(), "m0": m0, "m1": m1})
        return {
            "resolution": r,
            "rows": rows,
            "translation_candidates": [
                lambda_encode(n) for n, _, _ in congruence_partition(self.spectrum)
            ],
        }


def _fold(s: PSet) -> PSet:
    """The lattice translates of a set's pieces that lie in the unit cell,
    as one set; they are disjoint when the set's lattice translates are."""
    parts = congruence_partition(s)
    return PSet(s.p, (c for _, _, t in parts for c in t.cylinders), validate=False)


def _unfold(s: PSet, level_set: PSet) -> PSet:
    """The points of s where the lattice-periodic extension of a unit-cell
    level set is one: each piece of s's congruence partition meets the
    level set moved onto it, the inverse of _fold.  A piece coarser than
    resolution 0 is kept whole when the level set holds all of its fold,
    the unit cell; it never meets a smaller one here (see verify_two_scale)."""
    out = []
    for n, piece, moved in congruence_partition(s):
        kept = moved.intersect(level_set)
        out += (piece if kept == moved else kept.translate(n)).cylinders
    return PSet(s.p, out, validate=False)


def build_filters(
    family: WaveletFamily,
    omega_sigma: OmegaSigma,
    *,
    mra: MraReport | None = None,
) -> FilterBank:
    """The 0/1 low-pass and band filters of the exactly resolved spectrum
    Omega; a spectrum that is not resolved raises ValueError.

    The low-pass vanishes on the first dilate sigma(U) of the family
    union and is one on the rest of Omega; band u is the indicator of
    sigma(D_u).  Omega's lattice translates partition the dual group
    once the criterion passes, so each level set is a fold onto the
    unit cell: Per_1(m0) = fold(Omega - sigma(U)) and Per_1(m1_u) =
    fold(sigma(D_u)).
    """
    if mra is None:
        mra = check_mra_condition(omega_sigma)
    if not mra.passed:
        raise VilenkinError("the intersection-measure criterion did not pass")
    domain = omega_sigma.resolved
    if domain is None:
        raise ValueError("the filters need an exactly resolved spectrum")

    first_dilates = [s.dilate(1) for s in family.sets]
    resolution = max(
        [1, domain.max_resolution] + [piece.max_resolution for piece in first_dilates]
    )
    return FilterBank(
        p=family.p,
        resolution=resolution,
        spectrum=domain,
        m0=_fold(domain.difference(family.union().dilate(1))),
        m1=tuple(_fold(piece) for piece in first_dilates),
    )


# -- filter identity checks ----------------------------------------------------------


@dataclass
class FilterIdentityReport:
    level: int
    passed: bool
    exact: bool  # always: 0/1 tables are decided as cylinder sets
    checked_cells: int
    failing_cells: list[dict]
    formulations_agree: bool


def check_identity_level(bank: FilterBank, level: int) -> None:
    """Raise when the identity level is coarser than the table resolution."""
    r = max(bank.resolution, 1)  # the rotation acts at position 1
    if level < r:
        raise ResolutionCapError(
            f"identity level {level} is coarser than the table resolution {r}"
        )


def _cells(p: int, entries: list[dict], rotations=None) -> PSet:
    """The points the entries' cells cover, or that a rotation moves
    into them."""
    cells = [Cylinder.from_json(p, entry["cell"]) for entry in entries]
    return _union(p, [(c.translate(n),) for c in cells for n in rotations or [identity(p)]])


def verify_filter_identities(bank: FilterBank, level: int) -> FilterIdentityReport:
    """Check the quadrature identities on every resolution-`level` unit cell.

    At a point w the p x p matrix M[k][c] = table c at w + k e_1, the p
    rotations of the position-1 digit, must be unitary.  A 0/1 matrix is
    unitary iff it is a permutation matrix, so both formulations are
    cover checks of the tables' level sets S_c on the unit cell:

    - columns: the p rotations of each S_c cover the unit cell exactly
      once (the count at w is column c's sum);
    - rows: the S_c together cover the unit cell exactly once (the count
      at w is row 0's sum).

    Each call decides the diagonal of its formulation.  Its overlaps
    (count > 1) are where the other formulation's off-diagonal entries
    fail: two tables one at the same point, or one table at two
    rotations.  So the columns formulation fails on the column defects
    and the rotations of the row overlaps, the rows formulation on the
    rotations of the row defects and the column overlaps, and both sets
    must agree.  The failing cells are the defect entries of the calls,
    {"formulation", "cell", "count"} plus "table" for a column call and
    "cells", the resolution-`level` cells an entry spans, as "p^k".
    Every value depends only on positions 1 to the table resolution, so
    the level labels the entries and counts the p**level checked cells.
    """
    p = bank.p
    check_identity_level(bank, level)
    unit = unit_cell(p)
    rotations = [from_digits(p, {1: k} if k else {}) for k in range(p)]
    tables = bank.all_tables()
    names = ["m0", *(f"m1[{u}]" for u in range(1, p))]

    def defects(pieces: list[PSet]) -> list[dict]:
        return _cover_defects(unit, pieces, cell_resolution=level)

    columns = [
        (name, defects([t.translate(n) for n in rotations])) for name, t in zip(names, tables)
    ]
    rows = defects(tables)
    failing = [
        {"formulation": "columns", "table": name, **entry}
        for name, entries in columns
        for entry in entries
    ] + [{"formulation": "rows", **entry} for entry in rows]

    column_entries = [entry for _, entries in columns for entry in entries]
    row_overlaps = [entry for entry in rows if entry["count"] > 1]
    column_overlaps = [entry for entry in column_entries if entry["count"] > 1]
    columns_fail = _cells(p, column_entries).union(_cells(p, row_overlaps, rotations))
    rows_fail = _cells(p, rows, rotations).union(_cells(p, column_overlaps))
    agree = columns_fail == rows_fail
    return FilterIdentityReport(
        level=level,
        passed=not failing and agree,
        exact=True,
        checked_cells=p**level,
        failing_cells=failing,
        formulations_agree=agree,
    )


# -- two-scale and infinite-product checks ----------------------------------------


@dataclass
class TwoScaleReport:
    passed: bool
    window: int
    checked_cells: int  # cylinders on the two sides of every equation
    failing_cells: list[dict]


def verify_two_scale(
    family: WaveletFamily,
    omega_sigma: OmegaSigma,
    bank: FilterBank,
    *,
    window: int | None = None,
) -> TwoScaleReport:
    """The refinement equations and the low-pass product, each decided as
    an equality of two cylinder sets on the resolved spectrum.

    With 0/1 filters every identity compares two indicators.  Write Omega
    for the spectrum, D_u for the members, sigma^-j for the dilate by -j,
    Per_1(t) for the points whose digits at positions 1 to the table
    resolution r make table t one (the bank's own set, extended lattice
    periodically), B(k) = theta_ball(p, k) and F_t(S) =
    sigma^-1(S & Per_1(t)), one refinement step.  The identities are

    - low-pass refinement: F_m0(Omega) = Omega;
    - band refinement: F_m1_u(Omega) = D_u;
    - low-pass product: P = Omega, P the points x of B(-window) at which
      every factor m0(sigma^j x), j >= 1, is one.

    Write P_k(v) for the points of B(-v) whose first k factors are one.
    The first factor is m0 at sigma(x), a point of B(1 - v), and the
    others are the first k - 1 factors at sigma(x), so

        P_0(v) = B(-v),  P_k(v) = F_m0(P_{k-1}(v - 1)),

    and P_k(window) is F_m0 applied k times to B(k - window).  From
    j = window + r on, sigma^j(x) lies in B(r), where m0 takes its value
    at the zero fraction, the same for every such j: P is
    P_{window + r}(window), F_m0 applied window + r times to B(r).

    F_t meets a set with Per_1(t) piece by piece over its congruence
    partition (_unfold), so no lattice copy of a table is listed.  The
    spectrum has measure 1, so none of its pieces is coarser than
    resolution 0.  A piece of F_m0(S) coarser than that is the dilate of
    a part of S & Per_1(m0) that holds a whole lattice translate of the
    unit cell, so m0 is one on all of the unit cell and _unfold keeps
    every piece whole.  No identity involves the truncation depth, and
    only intersections, translates and dilates by -1 are taken, so no set
    gets finer than the spectrum and the tables, and the cost is the same
    at every depth.  A failure is the symmetric difference of the two
    sides, listed as {"cell", "problems"} entries whose problems name the
    identity and its "lhs" and "rhs" values at that cell; refinement
    cells are moved one position back into the frame of the filter
    argument.

    A spectrum that is not exactly resolved raises ValueError.
    """
    if omega_sigma.resolved is None:
        raise ValueError("the two-scale check needs an exactly resolved spectrum")
    p = family.p
    w_lo = omega_sigma.lowest_fixed
    if window is None:
        window = max(2, 1 - w_lo)
    if window < 1 - w_lo:
        raise ValueError("window does not cover the family's coarse extent")

    omega = omega_sigma.resolved
    # (identity, lhs set, rhs set, shift back to the filter argument).
    equations = [
        (name, lhs, _unfold(omega, one).dilate(-1), 1)
        for name, lhs, one in zip(
            ["two-scale-m0", *(f"two-scale-m1[{u}]" for u in range(1, p))],
            [omega, *family.sets],
            bank.all_tables(),
        )
    ]
    product = theta_ball(p, bank.resolution)
    for _ in range(window + bank.resolution):
        product = _unfold(product, bank.m0).dilate(-1)
    equations.append(("low-pass-product", product, omega, 0))

    problems: dict[tuple[int, DigitMap], list[dict]] = {}
    checked = 0
    for name, lhs, rhs, shift in equations:
        checked += len(lhs.cylinders) + len(rhs.cylinders)
        for inside, outside, value in ((lhs, rhs, 1), (rhs, lhs, 0)):
            for c in inside.difference(outside).cylinders:
                key = (c.resolution + shift, tuple((pos + shift, d) for pos, d in c.digits))
                problems.setdefault(key, []).append(
                    {"identity": name, "lhs": value, "rhs": 1 - value}
                )
    failing = [
        {"cell": Cylinder(p, *key).to_json(), "problems": found}
        for key, found in sorted(problems.items())
    ]
    return TwoScaleReport(
        passed=not failing,
        window=window,
        checked_cells=checked,
        failing_cells=failing,
    )


# -- spectrum decomposition identity ---------------------------------------------


@dataclass
class CalderonReport:
    passed: bool
    truncation_measure: Measure
    recomputed_measure: Measure
    symmetric_difference: Measure
    tail_allowance: Fraction
    pieces_disjoint: bool


def verify_calderon(
    family: WaveletFamily,
    omega_sigma: OmegaSigma,
    *,
    verdict: VerdictReport | None = None,
) -> CalderonReport:
    """Spectrum-vs-dilates energy identity as an exact set computation.

    For indicator wavelets the identity says the scaling spectrum Omega
    is the disjoint union of all forward contracting dilates sigma^j(D_u),
    j >= 1, of the family.  Omega is recomputed here without
    accumulate_omega_sigma: the dilates of the family union U by 1 to
    s = max(L - w, 1) + 2 (L the family's resolution, w its lowest pinned
    position) make one set through the validating constructor, which
    checks them pairwise disjoint, and with the ball theta_ball(p, w + s)
    they close into the fixed point Omega' = sigma(U) | sigma(Omega')
    (check_mra_condition's docstring proves it from s >= L - w on; a
    family that does not close raises VilenkinError).

    - pieces_disjoint: unrolling the fixed point makes Omega' the union
      of every sigma^j(U), j >= 1, up to the null point 0, and those
      pieces' measures sum to (p - 1)(p^-1 + p^-2 + ..) = 1.  So Omega'
      has measure 1 exactly when the pieces are pairwise a.e. disjoint,
      which needs no dilate past s.
    - The reported truncation T_J passes when T_J | sigma^J(Omega') =
      Omega' with the two pieces disjoint, that is T_J = Omega' minus its
      J-th dilate, the union of the dilates 1 to J.

    The symmetric difference of T_J and the truncation two levels deeper,
    read off Omega' the same way, and the telescoped tail it equals are
    reported too.  No set is built from a dilate of U past s, so the cost
    grows with the family, not with the depth.
    """
    _require_verified(family, verdict)
    p = family.p
    J = omega_sigma.depth
    union = family.union()
    w_lo = union.min_fixed_position
    settle = max(union.max_resolution - w_lo, 1) + 2
    omega = _fixed_point(union, _dilates(union, settle), w_lo + settle)
    if omega is None:
        raise VilenkinError(f"the dilates 1 to {settle} do not close into the spectrum")

    T = omega_sigma.truncated
    truncation = omega.difference(omega.dilate(J))  # the dilates 1 to J
    ring = omega.difference(omega.dilate(2)).dilate(J)  # the dilates J + 1 and J + 2
    deeper = truncation.union(ring)
    exact = T == truncation
    # A T that is the truncation lies in deeper, which it misses on the ring.
    sym = ring.difference(T) if exact else T.difference(deeper).union(deeper.difference(T))
    pieces_disjoint = omega.measure() == 1
    return CalderonReport(
        passed=pieces_disjoint and exact,
        truncation_measure=T.measure(),
        recomputed_measure=deeper.measure(),
        symmetric_difference=sym.measure(),
        tail_allowance=Fraction(1, p**J) - Fraction(1, p ** (J + 2)),
        pieces_disjoint=pieces_disjoint,
    )
