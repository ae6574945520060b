"""Multiresolution structure built on top of a verified wavelet family.

The candidate scaling spectrum is the union of all forward contracting
dilates of the family.  Working with its depth-J truncation keeps every
quantity an exact cylinder set; the untruncated remainder lives inside an
identity ball of measure p**(-J) and is accounted for explicitly, never
hidden in a tolerance.  When the truncation plus that ball is literally a
fixed point of S -> sigma(D) | sigma(S), the spectrum has been resolved
exactly and every verdict upgrades to certified.

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
    MAX_RESOLUTION,
    Cylinder,
    DigitMap,
    Measure,
    PSet,
    _NestingIndex,
    empty_set,
    theta_ball,
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
    self_similar_tail_resolved: bool

    def tail_bound(self) -> Measure:
        return Measure.make(1, self.p, self.depth)

    def spectrum(self) -> PSet:
        """Best available cylinder representation of the spectrum."""
        return self.resolved if self.resolved is not None else self.truncated


def accumulate_omega_sigma(
    family: WaveletFamily,
    depth: int,
    *,
    verdict: VerdictReport | None = None,
) -> OmegaSigma:
    """Union of the first `depth` contracting dilates of the family union.

    Also attempts fixed-point detection: if truncation plus the matching
    identity ball satisfies S == sigma(D) | sigma(S) exactly, the
    spectrum is self-similar and S represents it exactly (a.e.).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _require_verified(family, verdict)
    union = family.union()
    level = union.max_resolution
    w_lo = union.min_fixed_position
    assert w_lo is not None

    truncated = union.dilate(1)
    for j in range(2, depth + 1):
        truncated = truncated.union(union.dilate(j))

    expected = Fraction(1) - Fraction(1, family.p**depth)
    if truncated.measure().as_fraction() != expected:
        raise VilenkinError("truncated spectrum does not telescope to 1 - p^-J")

    resolved = None
    fixed = False
    ball_depth = w_lo + depth
    if ball_depth <= MAX_RESOLUTION:
        candidate = truncated.union(theta_ball(family.p, ball_depth))
        image = union.dilate(1).union(candidate.dilate(1))
        if image == candidate:
            resolved = candidate
            fixed = True

    return OmegaSigma(
        p=family.p,
        depth=depth,
        truncated=truncated,
        level=level,
        lowest_fixed=w_lo,
        resolved=resolved,
        self_similar_tail_resolved=fixed,
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
    subset, so the true overlap can only be larger).  An all-zero table is
    certified through the exact fixed point when available, otherwise
    through a depth threshold; below the threshold the verdict stays
    INCONCLUSIVE rather than guessing.
    """
    p = omega_sigma.p
    T = omega_sigma.truncated
    rows: list[MraRow] = []
    witnesses: list[dict] = []

    # The truncation's table, then the overlaps of the exact spectrum when
    # the tail is resolved; identity rows overlap by definition.
    exact = omega_sigma.resolved if omega_sigma.self_similar_tail_resolved else None
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

    certification: str | None = None
    if exact is not None:
        certification = "self-similar-fixed-point"
    else:
        # 2 p^-J below the family cell measure closes the tolerance band;
        # families pinned at negative positions need extra depth before a
        # zero table rules out overlaps hiding past the truncation.
        threshold = Fraction(2, p**omega_sigma.depth) < Fraction(
            1, p**omega_sigma.level
        )
        sound_depth = omega_sigma.level - 2 * min(omega_sigma.lowest_fixed, 0) + 1
        if threshold and omega_sigma.depth >= sound_depth:
            certification = "depth-threshold"

    if witnesses:
        status = "FAIL"
        certified = True
    elif certification is not None:
        status = "PASS"
        certified = True
    else:
        status = "INCONCLUSIVE"
        certified = False

    return MraReport(
        status=status,
        certified=certified,
        certification=certification if status != "INCONCLUSIVE" else None,
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


@dataclass
class FilterBank:
    p: int
    resolution: int
    m0: FilterTable
    m1: tuple[FilterTable, ...]  # indexed by u - 1
    unresolved_allowance: Measure

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
    """Construct the 0/1 low-pass and band filters on the spectrum cells."""
    if mra is None:
        mra = check_mra_condition(omega_sigma)
    if not mra.passed:
        raise VilenkinError("the intersection-measure criterion did not pass")

    p = family.p
    domain = omega_sigma.spectrum()
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
    # Unresolved lookups can only land inside the identity ball that holds
    # the truncation tail, so that ball's measure is the honest allowance.
    allowance = (
        Measure.zero(p)
        if omega_sigma.resolved is not None
        else Measure.make(1, p, omega_sigma.lowest_fixed + omega_sigma.depth)
    )
    return FilterBank(
        p=p,
        resolution=resolution,
        m0=m0,
        m1=m1,
        unresolved_allowance=allowance,
    )


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
    them as a witness.
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

    allowance = bank.unresolved_allowance
    passed = not failing and skipped_mass <= allowance and agree
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
    checked_cells: int
    failing_cells: list[dict]
    excluded_mass: Measure
    unresolved_mass: Measure


def _membership_index(s: PSet):
    """Where cells lie relative to s, answered from truncated digit keys.

    Returns a function of a cell: 1 if the cell is inside s (a cylinder
    of s contains it), None if it straddles s (it strictly contains a
    cylinder of s and lies inside none), else 0.
    """
    index = _NestingIndex(s.cylinders)
    covers, straddled = index.covers, index.straddled

    def locate(cell: Cylinder) -> int | None:
        if covers(cell.digits, cell.resolution):
            return 1
        return None if straddled(cell.resolution, cell.digits) else 0

    return locate


def verify_two_scale(
    family: WaveletFamily,
    omega_sigma: OmegaSigma,
    bank: FilterBank,
    *,
    window: int | None = None,
    product_depth: int | None = None,
) -> TwoScaleReport:
    """Cell-wise refinement equations and the truncated low-pass product.

    Checks, on the dilation-invariant window, that the spectrum indicator
    reproduces under the low-pass filter, that each member-set indicator
    reproduces under its band filter, and that the product of low-pass
    values along contracting shifts equals the spectrum indicator outside
    the identity ball.

    The product runs to the full truncation depth on an exactly resolved
    spectrum.  On a truncation it runs to window + level: for 0/1 filters
    a vanishing factor must appear within that many shifts, and deeper
    factors would only query cells the truncation cannot resolve.
    """
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
        product_depth = J if omega_sigma.resolved is not None else window + L
    if not 0 < product_depth <= J:
        raise ValueError(f"product depth must lie in [1, {J}]")

    phi = _membership_index(omega_sigma.spectrum())
    bands = [_membership_index(member) for member in family.sets]
    if omega_sigma.resolved is None:
        tail = _membership_index(theta_ball(p, w_lo + J))
        two_scale_exclusion = tail
        product_exclusion = tail  # the wider of the two balls
    else:
        two_scale_exclusion = _membership_index(empty_set(p))
        product_exclusion = _membership_index(theta_ball(p, L + J))

    failing: list[dict] = []
    checked = 0
    excluded = Measure.zero(p)
    unresolved = Measure.zero(p)

    def evaluate(table: FilterTable, cell: Cylinder):
        """(value, hopeless): splitting cannot resolve a lookup that already
        carries the table's full digit prefix, only one that is coarser."""
        if cell.resolution < table.resolution:
            return UNRESOLVED, False
        value = table.evaluate_cell(cell)
        return value, value is UNRESOLVED

    stack = [Cylinder(p, -window, ())]
    while stack:
        cell = stack.pop()
        split = False
        hopeless = False

        # Exclusion handling: skip cells fully inside, split straddlers.
        exc2 = two_scale_exclusion(cell)
        excp = product_exclusion(cell)
        if exc2 is None or excp is None:
            stack.extend(cell.refine_to(cell.resolution + 1))
            continue

        up = cell.dilate(-1)
        phi_here = phi(cell)
        phi_up = phi(up)
        problems = []

        if exc2 == 0:
            m0_here, m0_hopeless = evaluate(bank.m0, cell)
            # Refinement equation for the scaling spectrum.
            if phi_here == 0 and phi_up == 0:
                pass  # 0 = m * 0 regardless of the filter value
            elif phi_here is None or phi_up is None:
                split = True
            elif m0_here is UNRESOLVED:
                if m0_hopeless:
                    hopeless = True
                else:
                    split = True
            elif phi_up != m0_here * phi_here:
                problems.append(
                    {
                        "identity": "two-scale-m0",
                        "lhs": phi_up,
                        "rhs": _render_value(m0_here * phi_here),
                    }
                )
            # Band refinement equations.
            if not split:
                for u, (table, band) in enumerate(zip(bank.m1, bands), start=1):
                    psi_up = band(up)
                    if phi_here == 0 and psi_up == 0:
                        continue
                    m1_here, m1_hopeless = evaluate(table, cell)
                    if psi_up is None or phi_here is None:
                        split = True
                        break
                    if m1_here is UNRESOLVED:
                        if m1_hopeless:
                            hopeless = True
                            continue
                        split = True
                        break
                    if psi_up != m1_here * phi_here:
                        problems.append(
                            {
                                "identity": f"two-scale-m1[{u}]",
                                "lhs": psi_up,
                                "rhs": _render_value(m1_here * phi_here),
                            }
                        )

        if excp == 0 and not split:
            # Truncated product of low-pass values along contracting shifts.
            product: object = 1
            product_hopeless = False
            for j in range(1, product_depth + 1):
                if cell.resolution + j > MAX_RESOLUTION:
                    factor, factor_hopeless = UNRESOLVED, True
                else:
                    factor, factor_hopeless = evaluate(bank.m0, cell.dilate(j))
                if factor == 0:
                    product = 0
                    break
                if factor is UNRESOLVED:
                    product = UNRESOLVED
                    product_hopeless = factor_hopeless
                    break
                product = product * factor
            if phi_here is None:
                split = True
            elif product is UNRESOLVED:
                if product_hopeless:
                    hopeless = True
                else:
                    split = True
            elif product != phi_here:
                problems.append(
                    {
                        "identity": "low-pass-product",
                        "lhs": _render_value(product),
                        "rhs": phi_here,
                    }
                )

        if split:
            if cell.resolution < MAX_RESOLUTION:
                stack.extend(cell.refine_to(cell.resolution + 1))
            else:
                unresolved = unresolved + cell.measure()
            continue
        if hopeless:
            unresolved = unresolved + cell.measure()
            continue

        if exc2 == 1 and excp == 1:
            excluded = excluded + cell.measure()
            continue

        checked += 1
        if problems:
            failing.append({"cell": cell.to_json(), "problems": problems})

    # Truncations leave two kinds of undecidable mass: translated copies
    # of the unresolved tail in every lattice coset meeting the window,
    # and the deep shells whose late product factors cross the resolved
    # depth.  One extra power of p covers their sum.
    allowance = (
        Measure.zero(p)
        if omega_sigma.resolved is not None
        else Measure.make(1, p, w_lo + J - window - L - 1)
    )
    passed = not failing and unresolved <= allowance
    return TwoScaleReport(
        passed=passed,
        window=window,
        checked_cells=checked,
        failing_cells=failing,
        excluded_mass=excluded,
        unresolved_mass=unresolved,
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
    truncated union is recomputed independently two levels deeper; the
    symmetric difference must not exceed the telescoped tail, and the
    pieces must be pairwise disjoint (measure additivity certifies this).
    """
    _require_verified(family, verdict)
    p = family.p
    J = omega_sigma.depth
    union = family.union()

    deeper = union.dilate(1)
    for j in range(2, J + 3):
        deeper = deeper.union(union.dilate(j))

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
