"""Multiresolution structure built on top of a verified wavelet family.

The candidate scaling spectrum is the union of all forward contracting
dilates of the family.  Working with its depth-J truncation keeps every
quantity an exact cylinder set; the untruncated remainder lives inside an
identity ball of measure p**(-J) and is accounted for explicitly, never
hidden in a tolerance.  When the truncation plus that ball is literally a
fixed point of S -> sigma(D) | sigma(S), the spectrum has been resolved
exactly; every PASS below is decided on that exact spectrum.

Filters are 0/1 cell tables: the low-pass vanishes on the first dilate of
the family and equals one on the rest of the spectrum; each band filter
is the indicator of the first dilate of its member set.  Lattice-periodic
extension is well defined because the spectrum's lattice translates
partition the dual group once the intersection-measure criterion holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DigitError, ResolutionCapError, VilenkinError
from .group import GroupElement, from_digits, lambda_encode
from .setalg import (
    Cylinder,
    DigitMap,
    Measure,
    PSet,
    _cylinder,
    empty_set,
    expanded_unit,
    theta_ball,
    unit_cell,
)
from .verifier import VerdictReport, WaveletFamily, is_wavelet_set


class _Unresolved:
    """Sentinel for filter evaluations that fall outside the resolved cells."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNRESOLVED"


UNRESOLVED = _Unresolved()


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
    resolved: PSet | None  # exact spectrum when the tail is self-similar

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
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _require_verified(family, verdict)
    union = family.union()
    w_lo = union.min_fixed_position
    assert w_lo is not None

    truncated = _dilates(union, depth)
    expected = Fraction(1) - Fraction(1, family.p**depth)
    if truncated.measure().as_fraction() != expected:
        raise VilenkinError("truncated spectrum does not telescope to 1 - p^-J")

    candidate = truncated.union(theta_ball(family.p, w_lo + depth))
    image = union.dilate(1).union(candidate.dilate(1))
    return OmegaSigma(
        p=family.p,
        depth=depth,
        truncated=truncated,
        level=union.max_resolution,
        lowest_fixed=w_lo,
        resolved=candidate if image == candidate else None,
    )


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


def _integer_parts(s: PSet) -> list[GroupElement]:
    parts = {c.integer_part() for c in s.cylinders}
    return sorted(parts, key=lambda_encode)


def _translation_candidates(s: PSet, p: int) -> list[GroupElement]:
    """Lattice elements that could give the spectrum a nonzero self-overlap.

    Any translate with positive intersection measure must match a
    difference of integer parts of two cells, because lattice shifts act
    digitwise on the pinned digits at nonpositive positions.
    """
    parts = _integer_parts(s)
    seen: dict[int, GroupElement] = {}
    for a in parts:
        for b in parts:
            n = a.subtract(b)
            seen.setdefault(lambda_encode(n), n)
    for k in range(p):
        n = from_digits(p, {0: k} if k else {})
        seen.setdefault(lambda_encode(n), n)
    return [seen[k] for k in sorted(seen)]


def check_mra_condition(omega_sigma: OmegaSigma) -> MraReport:
    """Decide whether the spectrum's lattice translates are a.e. disjoint.

    The reported table always contains the truncated measures.  A nonzero
    row other than the identity is a certified failure (truncation is a
    subset, so the true overlap can only be larger).  An all-zero table
    passes only on the exactly resolved spectrum, whose own overlaps are
    then checked too; on a spectrum that is not resolved it stays
    INCONCLUSIVE rather than guessing.

    Every verified family is resolved from depth L - w on, so no depth
    threshold is needed to certify a deeper table.  Write U for the family union, L for its
    finest resolution, w for its lowest pinned position, T_J for the
    union of sigma^1(U) .. sigma^J(U), B(k) = theta_ball(p, k) (the
    points whose digits at positions <= k are all 0) and
    S = T_J | B(w + J).  Then sigma(U) | sigma(S) = T_{J+1} | B(w + J + 1).
    Each cylinder of U pins a nonzero digit, and its points have their
    first nonzero digit at its lowest pinned position, which lies in
    [w, L]; so the points of sigma^k(U) have it in [w + k, L + k].
    sigma^{J+1}(U) lies in B(w + J), so the image lies in S.  What S has
    beyond the image lies in the shell B(w + J) - B(w + J + 1) of points
    whose first nonzero digit is at w + J + 1.  Dilation tiling puts each
    such point in one sigma^k(U), with w + k <= w + J + 1 <= L + k, that is
    J + 1 - (L - w) <= k <= J + 1; when J >= L - w every such k is at
    least 1, the shell lies in T_{J+1}, and S is the fixed point.
    """
    p = omega_sigma.p
    T = omega_sigma.truncated
    rows: list[MraRow] = []
    witnesses: list[dict] = []

    # The truncation's table, then the overlaps of the exact spectrum when
    # the tail is resolved; identity rows overlap by definition.
    exact = omega_sigma.resolved
    passes = [(T, False)] if exact is None else [(T, False), (exact, True)]
    for S, tail in passes:
        for n in _translation_candidates(S, p):
            if n.is_identity:
                if not tail:
                    rows.append(MraRow(0, S.measure()))
                continue
            overlap = S.intersect(S.translate(n))
            m = overlap.measure()
            if not tail:
                rows.append(MraRow(lambda_encode(n), m))
            if m > 0:
                witness = {
                    "lattice_index": lambda_encode(n),
                    "measure": m.exact_string(),
                    "cell": min(overlap.cylinders, key=Cylinder.sort_key).to_json(),
                }
                if tail:
                    witness["tail"] = True
                witnesses.append(witness)

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
class FilterTable:
    """Lattice-periodic piecewise-constant function resolved on spectrum cells.

    A query is shifted by the lattice element that moves its integer part
    onto a candidate; the first candidate whose shifted cell is resolved
    gives the value.  A lattice shift rewrites only positions <= 0, so the
    value depends on the query's fractional digits (positions 1 to the
    table resolution) alone, and one index built from the table answers
    every lookup.
    """

    p: int
    resolution: int
    values: dict[DigitMap, complex]
    candidates: tuple[GroupElement, ...]  # integer parts of resolved cells
    _by_fraction: dict[DigitMap, object] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_integer: dict[DigitMap, dict[DigitMap, object]] = {}
        for key, value in self.values.items():
            integer = tuple((pos, d) for pos, d in key if pos <= 0)
            by_integer.setdefault(integer, {})[key[len(integer) :]] = value
        self._by_fraction = {}
        for base in self.candidates:
            integer = tuple(
                (pos, d) for pos, d in base.support() if pos <= self.resolution
            )
            for fraction, value in by_integer.get(integer, {}).items():
                self._by_fraction.setdefault(fraction, value)

    def _lookup(self, digits) -> object:
        fraction = tuple((pos, d) for pos, d in digits if 0 < pos <= self.resolution)
        return self._by_fraction.get(fraction, UNRESOLVED)

    def evaluate_cell(self, cell: Cylinder):
        """Value on a cell at least as fine as the table, or UNRESOLVED."""
        if cell.resolution < self.resolution:
            raise ResolutionCapError(
                f"query at resolution {cell.resolution} is coarser than the "
                f"table resolution {self.resolution}"
            )
        if cell.resolution < 0:
            raise DigitError("integer part requires resolution >= 0")
        return self._lookup(cell.digits)

    def evaluate_point(self, omega: GroupElement):
        """Value at a single dual point, or UNRESOLVED."""
        return self._lookup(omega.support())

    def is_binary(self) -> bool:
        return all(v in (0, 1) for v in self.values.values())

    def level_set(self, value) -> PSet:
        """The points of the unit cell where the table takes this value, as
        cylinders of the table resolution: one period of the lattice-periodic
        set where its extension does."""
        r = max(self.resolution, 0)
        return PSet(
            self.p,
            (_cylinder(self.p, r, f) for f, v in self._by_fraction.items() if v == value),
            validate=False,
        )


@dataclass
class FilterBank:
    p: int
    resolution: int
    m0: FilterTable
    m1: tuple[FilterTable, ...]  # indexed by u - 1

    def all_tables(self) -> list[FilterTable]:
        return [self.m0, *self.m1]

    def to_json(self) -> dict:
        cells = sorted(self.m0.values)
        rows = []
        for key in cells:
            rows.append(
                {
                    "cell": Cylinder(self.p, self.resolution, key).to_json(),
                    "m0": _render_value(self.m0.values[key]),
                    "m1": [
                        _render_value(t.values[key]) for t in self.m1
                    ],
                }
            )
        return {
            "resolution": self.resolution,
            "rows": rows,
            "translation_candidates": [
                lambda_encode(n) for n in self.m0.candidates
            ],
        }


def _render_value(v) -> object:
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def build_filters(
    family: WaveletFamily,
    omega_sigma: OmegaSigma,
    *,
    mra: MraReport | None = None,
) -> FilterBank:
    """Construct the 0/1 low-pass and band filters on the cells of the
    exactly resolved spectrum; a spectrum that is not resolved raises
    ValueError."""
    if mra is None:
        mra = check_mra_condition(omega_sigma)
    if not mra.passed:
        raise VilenkinError("the intersection-measure criterion did not pass")
    domain = omega_sigma.resolved
    if domain is None:
        raise ValueError("the filters need an exactly resolved spectrum")

    p = family.p
    first_dilates = [s.dilate(1) for s in family.sets]
    resolution = max(
        [domain.max_resolution] + [piece.max_resolution for piece in first_dilates]
    )
    resolution = max(resolution, 1)

    domain_cells = domain.cells_at(resolution)
    zero_cells = set()
    band_cells: list[frozenset] = []
    for piece in first_dilates:
        cells = piece.cells_at(resolution)
        band_cells.append(cells)
        zero_cells |= cells

    m0_values = {cell: (0 if cell in zero_cells else 1) for cell in domain_cells}
    candidates = tuple(_integer_parts(domain))
    m0 = FilterTable(p, resolution, m0_values, candidates)
    m1 = tuple(
        FilterTable(
            p,
            resolution,
            {cell: (1 if cell in cells else 0) for cell in domain_cells},
            candidates,
        )
        for cells in band_cells
    )
    return FilterBank(p=p, resolution=resolution, m0=m0, m1=m1)


# -- filter identity checks ----------------------------------------------------------


@dataclass
class FilterIdentityReport:
    level: int
    passed: bool
    exact: bool
    checked_cells: int
    failing_cells: list[dict]
    skipped_cells: int
    skipped_mass: Measure
    formulations_agree: bool


def _digit_maps(p: int, positions: range):
    """Every digit map on `positions`, first position most significant."""
    for combo in itertools.product(range(p), repeat=len(positions)):
        yield tuple((pos, d) for pos, d in zip(positions, combo) if d)


def check_identity_level(bank: FilterBank, level: int) -> int:
    """The table resolution the identities are decided at; raise when the
    identity level is coarser than it."""
    r = max(bank.resolution, 1)  # the rotation acts at position 1
    if level < r:
        raise ResolutionCapError(
            f"identity level {level} is coarser than the table resolution {r}"
        )
    return r


def verify_filter_identities(
    bank: FilterBank, level: int, *, tolerance: float = 1e-12
) -> FilterIdentityReport:
    """Check the quadrature identities on every resolution-`level` unit cell.

    At each cell the p x p matrix of filter values over the p position-1
    digit rotations must be unitary; equivalently each filter column has
    unit energy across the rotations and distinct columns are orthogonal.
    Both formulations are evaluated and must agree cell by cell.  Binary
    tables are checked in exact integer arithmetic.

    Every value read depends only on the digits at positions up to the
    table resolution r, so the check runs once per resolution-r cell and
    counts for its p**(level - r) sub-cells; a failing cell lists each of
    them as a witness.  A cell where some table has no value is skipped,
    counted in skipped_cells and skipped_mass, and fails the check; the
    banks build_filters makes skip none.
    """
    p = bank.p
    r = check_identity_level(bank, level)
    tables = bank.all_tables()
    exact = all(t.is_binary() for t in tables)
    weight = p ** (level - r)
    cell_mass = Measure.make(1, p, r)

    failing: list[dict] = []
    skipped = 0
    skipped_mass = Measure.zero(p)
    checked = 0
    agree = True

    for cell_map in _digit_maps(p, range(1, r + 1)):
        base = dict(cell_map)
        rows = []
        unresolved = False
        for x in range(p):
            rotated = dict(base)
            d = (rotated.get(1, 0) + x) % p
            rotated.pop(1, None)
            if d:
                rotated[1] = d
            query = Cylinder(p, r, tuple(sorted(rotated.items())))
            row = [t.evaluate_cell(query) for t in tables]
            if any(v is UNRESOLVED for v in row):
                unresolved = True
                break
            rows.append(row)
        if unresolved:
            skipped += weight
            skipped_mass = skipped_mass + cell_mass
            continue
        checked += weight

        # Column c energy across rotations, and cross-column products.
        bad = []
        for a in range(p):
            for b in range(p):
                total = sum(
                    rows[x][a] * _conj(rows[x][b]) for x in range(p)
                )
                want = 1 if a == b else 0
                ok = (total == want) if exact else abs(total - want) <= tolerance
                if not ok:
                    bad.append({"columns": [a, b], "sum": _render_value(total)})
        # Row-based formulation (matrix times adjoint); must agree with the
        # column identities on square tables.
        row_bad = False
        for x in range(p):
            for y in range(p):
                total = sum(rows[x][c] * _conj(rows[y][c]) for c in range(p))
                want = 1 if x == y else 0
                ok = (total == want) if exact else abs(total - want) <= tolerance
                if not ok:
                    row_bad = True
        if bool(bad) != row_bad:
            agree = False
        if bad:
            failing.extend(
                {
                    "cell": Cylinder(p, level, cell_map + tail).to_json(),
                    "violations": bad,
                }
                for tail in _digit_maps(p, range(r + 1, level + 1))
            )

    passed = not failing and not skipped and agree
    return FilterIdentityReport(
        level=level,
        passed=passed,
        exact=exact,
        checked_cells=checked,
        failing_cells=failing,
        skipped_cells=skipped,
        skipped_mass=skipped_mass,
        formulations_agree=agree,
    )


def _conj(v):
    return v.conjugate() if isinstance(v, complex) else v


# -- two-scale and infinite-product checks ----------------------------------------


@dataclass
class TwoScaleReport:
    passed: bool
    window: int
    checked_cells: int  # cylinders on the two sides of every equation
    failing_cells: list[dict]
    unresolved_mass: Measure


def _lift(unit: PSet, m: int) -> PSet:
    """The lattice-periodic extension of a unit-cell set, inside
    theta_ball(p, m): for m < 0 one copy per integer part of the ball,
    p**(-m) of them."""
    p = unit.p
    if m >= 0:
        return unit.intersect(theta_ball(p, m))
    return PSet(
        p,
        (
            _cylinder(p, c.resolution, integer + c.digits)
            for integer in _digit_maps(p, range(m + 1, 1))
            for c in unit.cylinders
        ),
        validate=False,
    )


def verify_two_scale(
    family: WaveletFamily,
    omega_sigma: OmegaSigma,
    bank: FilterBank,
    *,
    window: int | None = None,
    product_depth: int | None = None,
) -> TwoScaleReport:
    """The refinement equations and the truncated low-pass product, each
    decided as an equality of two cylinder sets on the resolved spectrum.

    With 0/1 filters every identity compares two indicators.  Write Omega
    for the spectrum, D_u for the members, sigma^-j for the dilate by -j,
    Per_v(t) for the points whose digits at positions 1 to the table
    resolution take the value v in table t, B(k) = theta_ball(p, k),
    W = B(-window), and Z for the union over j = 1..product_depth of
    sigma^-j(Per_0(m0) & B(j - window)): the points of W where one of the
    first product_depth low-pass factors vanishes.  The identities are

    - low-pass refinement: sigma^-1(Omega & Per_1(m0)) = Omega;
    - band refinement: sigma^-1(Omega & Per_1(m1_u)) = D_u;
    - low-pass product: (W - B(L + J)) - Z = Omega - B(L + J).

    Only intersections, differences and dilates by k <= 0 are taken, so
    no set gets finer than the spectrum and the tables, whatever the depth.
    A failure is the symmetric difference of the two sides, listed as
    {"cell", "problems"} entries whose problems name the identity and its
    "lhs" and "rhs" values at that cell; refinement cells are moved one
    position back into the frame of the filter argument.  A fraction
    that some table has no value for counts in unresolved_mass and fails
    the check.

    A spectrum that is not exactly resolved, or a bank that is not 0/1,
    raises ValueError.
    """
    if omega_sigma.resolved is None:
        raise ValueError("the two-scale check needs an exactly resolved spectrum")
    tables = bank.all_tables()
    if not all(t.is_binary() for t in tables):
        raise ValueError("the two-scale check needs 0/1 filter tables")
    p = family.p
    J = omega_sigma.depth
    L = omega_sigma.level
    w_lo = omega_sigma.lowest_fixed
    if window is None:
        window = max(2, 1 - w_lo)
    if window + L > J:
        raise ValueError(
            f"window {window} too wide for depth {J} at family resolution {L}"
        )
    if window < 1 - w_lo:
        raise ValueError("window does not cover the family's coarse extent")
    if product_depth is None:
        product_depth = J
    if not 0 < product_depth <= J:
        raise ValueError(f"product depth must lie in [1, {J}]")

    omega = omega_sigma.resolved
    levels = [(t.level_set(0), t.level_set(1)) for t in tables]
    unit = unit_cell(p)
    unresolved = empty_set(p)
    for zero, one in levels:
        unresolved = unresolved.union(unit.difference(zero.union(one)))

    # (identity, lhs set, rhs set, shift back to the filter argument).
    # Omega lies in B(w_lo), inside B(1 - window).
    equations = [
        (name, lhs, omega.intersect(_lift(one, 1 - window)).dilate(-1), 1)
        for name, lhs, (_, one) in zip(
            ["two-scale-m0", *(f"two-scale-m1[{u}]" for u in range(1, p))],
            [omega, *family.sets],
            levels,
        )
    ]
    ball = theta_ball(p, L + J)
    product = expanded_unit(p, window).difference(ball)
    # From j = window + resolution on, B(j - window) lies in one table
    # cell, so every later term repeats that one.
    for j in range(1, min(product_depth, window + bank.resolution) + 1):
        product = product.difference(_lift(levels[0][0], j - window).dilate(-j))
    equations.append(("low-pass-product", product, omega.difference(ball), 0))

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
        passed=not failing and unresolved.is_empty,
        window=window,
        checked_cells=checked,
        failing_cells=failing,
        unresolved_mass=unresolved.measure(),
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

    For indicator wavelets the identity says the scaling spectrum is the
    disjoint union of all forward contracting dilates of the family.  The
    truncated union is recomputed independently two levels deeper, from
    the dilates of the family union by 1 to J + 2 at any depth J; the
    symmetric difference must not exceed the telescoped tail, and the
    pieces must be pairwise disjoint (measure additivity over the members'
    own dilates certifies this).
    """
    _require_verified(family, verdict)
    p = family.p
    J = omega_sigma.depth
    deeper = _dilates(family.union(), J + 2)

    T = omega_sigma.truncated
    sym = T.difference(deeper).union(deeper.difference(T))
    sym_measure = sym.measure()
    allowance = Fraction(1, p**J) - Fraction(1, p ** (J + 2))

    total = Measure.zero(p)
    for s in family.sets:
        for j in range(1, J + 1):
            total = total + s.dilate(j).measure()
    pieces_disjoint = total == T.measure()

    passed = sym_measure.as_fraction() <= allowance and pieces_disjoint
    return CalderonReport(
        passed=passed,
        truncation_measure=T.measure(),
        recomputed_measure=deeper.measure(),
        symmetric_difference=sym_measure,
        tail_allowance=allowance,
        pieces_disjoint=pieces_disjoint,
    )
