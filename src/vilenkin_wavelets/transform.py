"""Finite radix-p transforms on quotient grids, and wavelet synthesis.

A quotient grid holds functions supported on the depth-M expanded unit
subgroup that are constant on depth-N cells; such a function is a vector
of p**(M+N) samples indexed by the digits at positions -M+1, ..., N
(first position most significant).  Band-limited, cell-constant
functions are represented exactly, so the transform pair below is the
honest Fourier transform of the group restricted to the grid, not an
approximation; aliasing is always an error, never silent wraparound.

The transform factors into one p-point kernel per digit position, giving
the radix-p generalization of the fast Walsh-Hadamard butterfly with
O(n (M+N) p) arithmetic.  The dual grid swaps the two depths because the
duality pairing matches position j with dual position 1 - j.

Only the grid code here computes in floating point, so numpy is loaded
on first use: ``np`` starts as a stand-in whose first attribute read
imports numpy and rebinds ``np`` to it.  The exact commands import this
module with the package and never load numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import AliasingError, BaseMismatchError, ParseError, SchemaError
from .group import (
    _ALPHABET,
    GroupElement,
    check_base,
    check_text_base,
    lambda_decode,
    parse_element,
)
from .setalg import PSet
from .verifier import WaveletFamily, congruence_defects


class _LazyNumpy:
    """Stands in for numpy until a grid function reads an attribute of np."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

_NORM_RTOL = 1e-9
_LABEL_TABLE = 1 << 8  # most label ends `labels` holds
_CSV_CHUNK_ROWS = 1 << 16  # most rows `write_csv` and `read_csv` hold at once


@dataclass(frozen=True)
class QuotientGrid:
    """Sample grid for functions supported in U_M and constant on U_{-N} cells."""

    p: int
    M: int
    N: int

    def __post_init__(self) -> None:
        check_base(self.p)
        if self.M < 0 or self.N < 0 or self.M + self.N == 0:
            raise ValueError("grid depths must be nonnegative and not both zero")

    @property
    def num_positions(self) -> int:
        return self.M + self.N

    @property
    def size(self) -> int:
        return self.p**self.num_positions

    @property
    def positions(self) -> range:
        return range(-self.M + 1, self.N + 1)

    @property
    def cell_measure(self) -> float:
        return float(self.p) ** (-self.N)

    def dual(self) -> "QuotientGrid":
        return QuotientGrid(self.p, self.N, self.M)

    # -- indexing -------------------------------------------------------------
    #
    # A cell's index is its digits read as a base-p numeral, first position
    # most significant, so the samples reshaped to (p,)*num_positions have
    # one axis per position, in position order.

    def weight(self, position: int) -> int:
        k = position - (-self.M + 1)
        return self.p ** (self.num_positions - 1 - k)

    def index_of(self, digits: dict[int, int]) -> int:
        total = 0
        for pos, d in digits.items():
            if pos not in self.positions:
                if d:
                    raise AliasingError(f"digit at position {pos} outside the grid")
                continue
            total += d * self.weight(pos)
        return total

    def labels(self) -> Iterator[str]:
        """Canonical radix-point label of every cell, in index order.

        The label ends over the last k positions (p**k <= _LABEL_TABLE of
        them) are built once, and each label is one of them behind a
        prefix from the leading digits, so what is held does not grow
        with the grid.
        """
        check_text_base(self.p)
        p, M, N = self.p, self.M, self.N
        alphabet = _ALPHABET[:p]
        k = 1
        while k < M + N and p ** (k + 1) <= _LABEL_TABLE:
            k += 1
        heads = map("".join, itertools.product(alphabet, repeat=M + N - k))
        tails = ["".join(d) for d in itertools.product(alphabet, repeat=k)]
        if k <= N:
            # Fraction digits only: the all-zero end strips the head's
            # trailing zeros (up to the point), any other end keeps them.
            ends = [t.rstrip("0") for t in tails[1:]]
            prefixes = (h[:M].lstrip("0") + "." + h[M:] for h in heads)
            return itertools.chain.from_iterable(
                itertools.chain((x.rstrip("0"),), map(x.__add__, ends)) for x in prefixes
            )
        # The point lies in the table; only the all-zero head, the first,
        # leaves the table's own leading zeros to strip.
        ends = [t[: k - N] + "." + t[k - N :].rstrip("0") for t in tails]
        next(heads)
        return itertools.chain(
            [e.lstrip("0") for e in ends],
            itertools.chain.from_iterable(map(h.lstrip("0").__add__, ends) for h in heads),
        )

    def index_of_element(self, x: GroupElement) -> int:
        return self.index_of(dict(x.support()))


@dataclass
class GridSignal:
    """Complex samples on a quotient grid."""

    grid: QuotientGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if values.shape[0] != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got {values.shape[0]}"
            )
        self.values = values

    @staticmethod
    def zeros(grid: QuotientGrid) -> "GridSignal":
        return GridSignal(grid, np.zeros(grid.size, dtype=np.complex128))

    def norm_sq(self) -> float:
        return float(self.grid.cell_measure * np.sum(np.abs(self.values) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: "GridSignal") -> complex:
        if self.grid != other.grid:
            raise BaseMismatchError("signals live on different grids")
        return complex(
            self.grid.cell_measure * np.sum(self.values * np.conj(other.values))
        )


# -- transform pair ------------------------------------------------------------


def _kernel(p: int, conjugate: bool) -> np.ndarray:
    # Each entry is exp(2 pi i m / p) of its reduced exponent m = jk mod p,
    # so every stage uses the same values and the two kernels are exact
    # conjugates; quarter turns are exact, which makes the p = 2 kernel
    # the Walsh-Hadamard [[1, 1], [1, -1]].
    a = np.arange(p)
    m = np.outer(a, a) % p
    kernel = np.exp(2j * np.pi * m / p)
    quarter = 4 * m % p == 0
    kernel[quarter] = np.array([1, 1j, -1, -1j])[4 * m[quarter] // p]
    return kernel.conj() if conjugate else kernel


def _tensor_apply(values: np.ndarray, p: int, num: int, kernel: np.ndarray) -> np.ndarray:
    t = values.reshape((p,) * num)
    for _ in range(num):
        # Contract the leading axis; the transformed axis lands last, so a
        # full pass leaves the axes in the original order, each now indexed
        # by the paired dual digit.
        t = np.tensordot(t, kernel, axes=([0], [0]))
    # The pairing matches position j with dual position 1 - j, so ascending
    # input positions come out as descending dual positions; reverse them
    # to match the dual grid's ascending layout.
    return t.transpose(tuple(reversed(range(num)))).reshape(-1)


def forward(signal: GridSignal) -> GridSignal:
    """Fourier transform onto the dual grid (character-conjugated kernel)."""
    g = signal.grid
    vals = _tensor_apply(signal.values, g.p, g.num_positions, _kernel(g.p, True))
    return GridSignal(g.dual(), vals * g.cell_measure)


def inverse(spectrum: GridSignal) -> GridSignal:
    """Inverse transform; inverse(forward(f)) == f to machine precision."""
    g = spectrum.grid
    vals = _tensor_apply(spectrum.values, g.p, g.num_positions, _kernel(g.p, False))
    return GridSignal(g.dual(), vals * g.cell_measure)


# -- indicators and synthesis ---------------------------------------------------


def indicator_on_grid(pset: PSet, grid: QuotientGrid) -> np.ndarray:
    """Boolean mask of grid cells lying inside the set.

    Raises if any cylinder has pinned digits outside the grid window,
    because then cells would straddle the set.
    """
    if pset.p != grid.p:
        raise BaseMismatchError("set and grid bases differ")
    lo = grid.positions.start
    mask = np.zeros((grid.p,) * grid.num_positions, dtype=bool)
    for c in pset.cylinders:
        if c.resolution > grid.positions.stop - 1:
            raise AliasingError(
                f"cylinder at resolution {c.resolution} exceeds the grid window; "
                f"need fine depth >= {c.resolution}"
            )
        if c.min_fixed_position is not None and c.min_fixed_position < lo:
            raise AliasingError(
                f"cylinder pins digit at position {c.min_fixed_position} below "
                f"the grid window; need coarse depth >= {1 - c.min_fixed_position}"
            )
        mask[
            tuple(
                c.digit(pos) if pos <= c.resolution else slice(None)
                for pos in grid.positions
            )
        ] = True
    return mask.reshape(-1)


def synthesize_wavelet(pset: PSet, grid: QuotientGrid) -> GridSignal:
    """Inverse transform of the exact set indicator on the dual grid."""
    dual = grid.dual()
    spectrum = GridSignal(dual, indicator_on_grid(pset, dual).astype(np.complex128))
    return inverse(spectrum)


# -- dilation-translation action ---------------------------------------------------


def _as_lattice(n, p: int) -> GroupElement:
    if isinstance(n, GroupElement):
        return n
    return lambda_decode(int(n), p)


def _roll(t: np.ndarray, positions: Sequence[int], n: GroupElement) -> np.ndarray:
    """t(y - n) on a tensor whose axes carry the digits at ``positions``."""
    for axis, pos in enumerate(positions):
        if shift := n.digit(pos):
            t = np.roll(t, shift, axis)
    return t


def dilate_translate(signal: GridSignal, j: int, n) -> GridSignal:
    """Samples of p**(j/2) f(rho^j(x) - n), exactly re-indexed on the grid.

    Positive j compresses: the input must be constant across the trailing
    j digit positions or the result is not grid-representable.  Negative
    j stretches: support may escape the coarse end of the window.  Both
    failure modes raise AliasingError; a final norm comparison guards any
    silent mass loss.
    """
    g = signal.grid
    p, M, num = g.p, g.M, g.num_positions
    n_elt = _as_lattice(n, p)
    if n_elt.max_pos is not None and n_elt.max_pos > 0:
        raise AliasingError("translation index must lie in the integer lattice")
    if n_elt.min_pos is not None and n_elt.min_pos <= -M - max(j, 0):
        raise AliasingError(
            f"translation with digits at position {n_elt.min_pos} exceeds the "
            f"coarse capacity of the grid at level {j}"
        )
    if abs(j) > num:
        raise AliasingError(f"dilation by {j} exceeds the grid extent")

    scale = float(p) ** (j / 2.0)
    ref = float(np.max(np.abs(signal.values))) if signal.values.size else 0.0
    positions = list(g.positions)

    # Addition never carries, so the lattice shift rolls each digit axis
    # on its own; the dilation then moves whole axes across the window.
    if j >= 0:
        blocks = signal.values.reshape(-1, p**j)
        if j > 0:
            spread = float(np.max(np.abs(blocks - blocks[:, :1])))
            if spread > _NORM_RTOL * max(ref, 1.0):
                raise AliasingError(
                    f"signal varies across the {j} finest digit positions; "
                    "the compressed copy is not representable on this grid"
                )
        core = _roll(blocks[:, 0].reshape((p,) * (num - j)), positions[: num - j], n_elt)
        # The support sits where the j leading window digits cancel the
        # coarse digits of the translation; elsewhere the argument leaves
        # the support subgroup and the samples vanish.
        out = np.zeros((p,) * num, dtype=np.complex128)
        out[tuple(n_elt.digit(pos - j) for pos in positions[:j])] = core * scale
    else:
        m = -j
        core = _roll(signal.values.reshape((p,) * num), positions, n_elt)[(0,) * m]
        out = np.broadcast_to(core[(...,) + (None,) * m], (p,) * num) * scale

    result = GridSignal(g, out)
    in_norm = signal.norm_sq()
    if abs(result.norm_sq() - in_norm) > _NORM_RTOL * max(in_norm, 1.0):
        raise AliasingError("support escapes the grid under this dilation")
    return result


# -- orthonormality and completeness ------------------------------------------------


def wavelet_system(
    family: WaveletFamily,
    grid: QuotientGrid,
    j_range: Sequence[int],
    n_count,
) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Stack dilated-translated wavelets as rows of a matrix.

    ``n_count`` is either an int (same translate count for every level) or
    a callable j -> count.  Returns (labels, matrix) with labels
    (u, j, lattice index).
    """
    base = [synthesize_wavelet(s, grid) for s in family.sets]
    labels: list[tuple[int, int, int]] = []
    rows = []
    for u, psi in enumerate(base, start=1):
        for j in j_range:
            count = n_count(j) if callable(n_count) else n_count
            for lam in range(count):
                rows.append(dilate_translate(psi, j, lam).values)
                labels.append((u, j, lam))
    matrix = np.vstack(rows) if rows else np.zeros((0, grid.size), dtype=np.complex128)
    return labels, matrix


def gram_matrix(
    family: WaveletFamily,
    grid: QuotientGrid,
    j_range: Sequence[int],
    n_count,
) -> tuple[np.ndarray, float]:
    """Gram matrix of the wavelet system and its max deviation from identity."""
    _, matrix = wavelet_system(family, grid, j_range, n_count)
    gram = (matrix @ matrix.conj().T) * grid.cell_measure
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0])))) if gram.size else 0.0
    return gram, dev


@dataclass
class WaveletAnalysis:
    grid: QuotientGrid
    labels: list[tuple[int, int, int]]
    matrix: np.ndarray
    coefficients: np.ndarray
    energy_ratio: float
    uncovered_fraction: float


def band_mask(family: WaveletFamily, grid: QuotientGrid, j_range: Sequence[int]) -> np.ndarray:
    """Dual-grid mask of the spectrum band covered by the requested levels."""
    dual = grid.dual()
    mask = np.zeros(dual.size, dtype=bool)
    for s in family.sets:
        for j in j_range:
            mask |= indicator_on_grid(s.dilate(-j), dual)
    return mask


def analyze(
    f: GridSignal,
    family: WaveletFamily,
    j_range: Sequence[int],
    n_count=None,
) -> WaveletAnalysis:
    """Expand a signal over the wavelet system on the requested levels.

    The default translate count per level is the full grid span p**(M+j),
    which is exactly the number of independent translates the grid holds.
    The uncovered fraction reports spectral energy outside the band,
    which bounds the energy the expansion can capture.
    """
    grid = f.grid
    p, M = grid.p, grid.M
    if n_count is None:
        def n_count(j, _p=p, _M=M):
            if _M + j < 0:
                raise AliasingError(f"level {j} has no translates on this grid")
            return _p ** (_M + j)

    labels, matrix = wavelet_system(family, grid, j_range, n_count)
    coeffs = (matrix.conj() @ f.values) * grid.cell_measure
    norm_sq = f.norm_sq()
    energy_ratio = float(np.sum(np.abs(coeffs) ** 2) / norm_sq) if norm_sq else 0.0

    spectrum = forward(f)
    mask = band_mask(family, grid, j_range)
    total = float(np.sum(np.abs(spectrum.values) ** 2))
    outside = float(np.sum(np.abs(spectrum.values[~mask]) ** 2))
    uncovered = outside / total if total else 0.0

    return WaveletAnalysis(
        grid=grid,
        labels=labels,
        matrix=matrix,
        coefficients=coeffs,
        energy_ratio=energy_ratio,
        uncovered_fraction=uncovered,
    )


def reconstruct(analysis: WaveletAnalysis) -> GridSignal:
    values = analysis.matrix.T @ analysis.coefficients
    return GridSignal(analysis.grid, values)


# -- unit-translate orthonormality --------------------------------------------------


@dataclass
class TranslateOrthonormalityReport:
    passed: bool
    exact: bool
    failing_cells: list[dict]
    max_deviation: float


def translate_orthonormality_exact(pset: PSet) -> TranslateOrthonormalityReport:
    """Exact unit-energy check: lattice translates of the set must cover
    the unit cell exactly once."""
    _, failing = congruence_defects(pset)
    return TranslateOrthonormalityReport(
        passed=not failing,
        exact=True,
        failing_cells=failing,
        max_deviation=0.0 if not failing else 1.0,
    )


def translate_orthonormality_grid(
    spectrum: GridSignal, tolerance: float = 1e-10
) -> TranslateOrthonormalityReport:
    """Numeric check of unit translate energy on a dual-grid spectrum.

    Sums |f^(w + n)|^2 over all lattice digit combinations in the window
    and compares against one on every unit-cell pattern.
    """
    grid = spectrum.grid
    lattice_axes = sum(1 for pos in grid.positions if pos <= 0)
    rest = grid.num_positions - lattice_axes
    power = np.abs(spectrum.values.reshape(grid.p**lattice_axes, -1)) ** 2
    sums = power.sum(axis=0)
    dev = float(np.max(np.abs(sums - 1.0)))
    failing = []
    if dev > tolerance:
        bad = np.nonzero(np.abs(sums - 1.0) > tolerance)[0]
        for flat in bad[:16]:
            failing.append({"unit_cell_index": int(flat), "sum": float(sums[flat])})
    return TranslateOrthonormalityReport(
        passed=dev <= tolerance,
        exact=False,
        failing_cells=failing,
        max_deviation=dev,
    )


# -- coarse-subspace residual ----------------------------------------------------------


def v0_residual(
    phi: GridSignal,
    family: WaveletFamily,
    depth: int,
    n_count=None,
) -> float:
    """Norm of the scaling function minus its projection on the negative levels.

    Projects onto the wavelet system at levels -depth, ..., -1.  The
    levels are orthonormal on the grid, so the residual is computed from
    coefficient energy.  Depth zero returns the full norm.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth == 0:
        return phi.norm()
    grid = phi.grid
    if n_count is None and grid.M - depth < 0:
        raise AliasingError(
            f"coarse depth {grid.M} cannot host level {-depth} translates"
        )
    analysis = analyze(phi, family, range(-depth, 0), n_count)
    residual_sq = phi.norm_sq() - float(np.sum(np.abs(analysis.coefficients) ** 2))
    return math.sqrt(max(residual_sq, 0.0))


# -- CSV interchange ---------------------------------------------------------------


def _reprs(x: np.ndarray) -> list[str]:
    """``repr`` of every float in ``x``, formatted in C by the list's ``str``."""
    return str(x.tolist())[1:-1].split(", ")


def write_csv(signal: GridSignal, stream: TextIO) -> None:
    labels = signal.grid.labels()  # rejects bases above 36 before any write
    stream.write("cell,re,im\n")
    for start in range(0, signal.grid.size, _CSV_CHUNK_ROWS):
        chunk = signal.values[start : start + _CSV_CHUNK_ROWS]
        cells = itertools.islice(labels, chunk.size)
        rows = map(",".join, zip(cells, _reprs(chunk.real), _reprs(chunk.imag)))
        stream.write("\n".join(rows) + "\n")


def _read_lines(stream: TextIO, count: int) -> list[str]:
    """Up to ``count`` more lines; bytes the stream cannot decode are a schema error."""
    try:
        return list(itertools.islice(stream, count))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode the CSV input: {exc}") from exc


def _canonical_rows(lines: list[str], cells: list[str]) -> np.ndarray | None:
    """Samples of rows that hold ``cells`` in order, three fields each, as
    write_csv writes them; None if any row is otherwise or not finite."""
    n = len(lines)
    if len(cells) != n or list(map(str.count, lines, itertools.repeat(","))) != [2] * n:
        return None
    fields = ",".join(lines).split(",")
    if fields[0::3] != cells:
        return None
    out = np.empty(n, dtype=np.complex128)
    try:
        # float() ignores the line ending left on the last field.
        out.real = np.fromiter(map(float, fields[1::3]), np.float64, n)
        out.imag = np.fromiter(map(float, fields[2::3]), np.float64, n)
    except ValueError:
        return None
    return out if np.isfinite(out).all() else None


def read_csv(grid: QuotientGrid, stream: TextIO) -> GridSignal:
    header = "".join(_read_lines(stream, 1)).strip()
    if header != "cell,re,im":
        raise SchemaError(f"expected header 'cell,re,im', got {header!r}")
    values = np.zeros(grid.size, dtype=np.complex128)
    labels = grid.labels()
    chunks = iter(functools.partial(_read_lines, stream, _CSV_CHUNK_ROWS), [])
    # Rows as write_csv writes them are read a chunk at a time; from the
    # first chunk that holds any other row, the row loop below reads on.
    start = 0
    for chunk in chunks:
        cells = list(itertools.islice(labels, len(chunk)))
        rows = _canonical_rows(chunk, cells)
        if rows is None:
            lines = itertools.chain(chunk, itertools.chain.from_iterable(chunks))
            _read_rows(grid, values, lines, start, itertools.chain(cells, labels))
            break
        values[start : start + len(chunk)] = rows
        start += len(chunk)
    return GridSignal(grid, values)


def _read_rows(
    grid: QuotientGrid,
    values: np.ndarray,
    lines: Iterable[str],
    start: int,
    labels: Iterable[str],
) -> None:
    """Rows in any order and spelling, from row ``start`` on; the only
    place a row is rejected, with its line number."""
    seen = np.zeros(grid.size, dtype=bool)
    seen[:start] = True
    # Rows in index order with canonical labels are placed without parsing
    # the label; any other row is parsed and located.
    expected = enumerate(labels, start)
    next_idx, next_label = next(expected, (None, None))
    for lineno, line in enumerate(lines, start=2 + start):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise SchemaError(f"line {lineno}: expected 'cell,re,im'")
        try:
            if parts[0] == next_label:
                idx = next_idx
                next_idx, next_label = next(expected, (None, None))
            else:
                idx = grid.index_of_element(parse_element(parts[0], grid.p))
            re, im = float(parts[1]), float(parts[2])
        except (ValueError, AliasingError, ParseError) as exc:
            raise SchemaError(f"line {lineno}: {exc}") from exc
        for text, x in ((parts[1], re), (parts[2], im)):
            if not math.isfinite(x):
                raise SchemaError(f"line {lineno}: non-finite value {text!r}")
        if seen[idx]:
            raise SchemaError(f"line {lineno}: duplicate cell {parts[0]!r}")
        seen[idx] = True
        values[idx] = complex(re, im)
