"""Differential tests of the grid layer against flat-index references.

The references below compute indicators, the dilation-translation action
and CSV labels from flat cell indices, digit by digit, the way the grid
layer did before it worked on the (p,)*(M+N) tensor view.  The CSV reader
is compared with the row-at-a-time reader it replaced.  The library
must agree with them exactly: equal arrays and CSV bytes, or the same
exception type and message.
"""

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets.errors import AliasingError, ParseError, SchemaError
from vilenkin_wavelets import transform
from vilenkin_wavelets.group import format_element, from_digits, lambda_decode, parse_element
from vilenkin_wavelets.setalg import (
    Cylinder,
    PSet,
    annulus,
    expanded_unit,
    theta_ball,
    unit_cell,
)
from vilenkin_wavelets.transform import (
    GridSignal,
    QuotientGrid,
    dilate_translate,
    indicator_on_grid,
    read_csv,
    synthesize_wavelet,
    write_csv,
)
from vilenkin_wavelets.verifier import shannon_family

from .families import empty_set
from .oracle import grid_cell_element

_NORM_RTOL = 1e-9

GRIDS = [
    (2, 0, 3), (2, 3, 0), (2, 2, 2), (2, 1, 3), (2, 0, 1), (2, 1, 0),
    (3, 0, 2), (3, 2, 0), (3, 1, 2), (3, 2, 1),
    (5, 0, 2), (5, 2, 0), (5, 1, 1), (5, 1, 2),
]


# -- flat-index references --------------------------------------------------------


def digit_rows(grid):
    idx = np.arange(grid.size)
    return np.array([(idx // grid.weight(pos)) % grid.p for pos in grid.positions])


def reference_indicator(pset, grid):
    lo = grid.positions.start
    mask = np.zeros(grid.size, dtype=bool)
    if pset.is_empty:
        return mask
    rows = digit_rows(grid)
    pos_index = {pos: k for k, pos in enumerate(grid.positions)}
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
        cell_mask = np.ones(grid.size, dtype=bool)
        for pos in grid.positions:
            if pos <= c.resolution:
                cell_mask &= rows[pos_index[pos]] == c.digit(pos)
        mask |= cell_mask
    return mask


def reference_dilate_translate(signal, j, n):
    g = signal.grid
    p, M, num = g.p, g.M, g.num_positions
    n_elt = n if not isinstance(n, int) else lambda_decode(n, p)
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
    if j >= 0:
        core_positions = list(g.positions)[: num - j]
        blocks = signal.values.reshape(-1, p**j)
        if j > 0:
            spread = float(np.max(np.abs(blocks - blocks[:, :1])))
            if spread > _NORM_RTOL * max(ref, 1.0):
                raise AliasingError(
                    f"signal varies across the {j} finest digit positions; "
                    "the compressed copy is not representable on this grid"
                )
        core = blocks[:, 0]
        csize = core.shape[0]
        idx = np.arange(csize)
        y_index = np.zeros(csize, dtype=np.int64)
        for k, pos in enumerate(core_positions):
            w = p ** (len(core_positions) - 1 - k)
            d = (idx // w) % p
            y_index += ((d - n_elt.digit(pos)) % p) * w
        gathered = core[y_index] * scale
        offset = 0
        for pos in list(g.positions)[:j]:
            offset += n_elt.digit(pos - j) * g.weight(pos)
        out = np.zeros(g.size, dtype=np.complex128)
        out[offset : offset + csize] = gathered
    else:
        m = -j
        idx = np.arange(g.size)
        y_index = np.zeros(g.size, dtype=np.int64)
        for pos in g.positions:
            src = pos - m
            if src in g.positions:
                d = (idx // g.weight(src)) % p
            else:
                d = np.zeros(g.size, dtype=np.int64)
            y_index += ((d - n_elt.digit(pos)) % p) * g.weight(pos)
        out = signal.values[y_index] * scale

    result = GridSignal(g, out)
    in_norm = signal.norm_sq()
    if abs(result.norm_sq() - in_norm) > _NORM_RTOL * max(in_norm, 1.0):
        raise AliasingError("support escapes the grid under this dilation")
    return result


def reference_write_csv(signal, stream):
    stream.write("cell,re,im\n")
    for idx in range(signal.grid.size):
        v = complex(signal.values[idx])
        label = format_element(grid_cell_element(signal.grid, idx))
        stream.write(f"{label},{v.real!r},{v.imag!r}\n")


def reference_read_csv(grid, stream):
    lines = iter(stream)
    header = next(lines, "").strip()
    if header != "cell,re,im":
        raise SchemaError(f"expected header 'cell,re,im', got {header!r}")
    values = np.zeros(grid.size, dtype=np.complex128)
    seen = np.zeros(grid.size, dtype=bool)
    expected = ((i, format_element(grid_cell_element(grid, i))) for i in range(grid.size))
    next_idx, next_label = next(expected)
    for lineno, line in enumerate(lines, start=2):
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
            value = complex(float(parts[1]), float(parts[2]))
        except (ValueError, AliasingError, ParseError) as exc:
            raise SchemaError(f"line {lineno}: {exc}") from exc
        if seen[idx]:
            raise SchemaError(f"line {lineno}: duplicate cell {parts[0]!r}")
        seen[idx] = True
        values[idx] = value
    return GridSignal(grid, values)


def outcome(fn, *args):
    """('ok', value) or ('raise', exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raise", type(exc), str(exc))


def assert_same(got, want, context):
    assert got[0] == want[0], (context, got, want)
    if got[0] == "raise":
        assert got[1:] == want[1:], context
    else:
        a, b = got[1], want[1]
        a = a.values if isinstance(a, GridSignal) else a
        b = b.values if isinstance(b, GridSignal) else b
        assert a.dtype == b.dtype and np.array_equal(a, b), context


# -- indicators -------------------------------------------------------------------


def random_cylinders(rnd, p, count):
    out = []
    for _ in range(count):
        res = rnd.randint(-3, 3)
        digits = tuple(
            (pos, rnd.randrange(1, p))
            for pos in range(-3, res + 1)
            if rnd.random() < 0.4
        )
        out.append(Cylinder(p, res, digits))
    return out


def sample_sets(p, seed):
    rnd = random.Random(seed)
    sets = [empty_set(p), unit_cell(p), annulus(p), theta_ball(p, 1),
            theta_ball(p, 3), expanded_unit(p, 1), expanded_unit(p, 2)]
    sets += list(shannon_family(p).sets)
    for _ in range(12):
        acc = empty_set(p)
        for c in random_cylinders(rnd, p, rnd.randint(1, 4)):
            acc = acc.union(PSet(p, [c]))
        sets.append(acc)
    return sets


@pytest.mark.parametrize("p,M,N", GRIDS)
def test_indicator_matches_digit_rows(p, M, N):
    grid = QuotientGrid(p, M, N)
    for k, pset in enumerate(sample_sets(p, seed=1000 * p + 10 * M + N)):
        for g in (grid, grid.dual()):
            assert_same(
                outcome(indicator_on_grid, pset, g),
                outcome(reference_indicator, pset, g),
                (k, g),
            )


# -- dilation-translation ---------------------------------------------------------


def lattice_indices(grid):
    p, M = grid.p, grid.M
    values = {0, 1, p - 1, p, p**M - 1, p**M, p ** (M + 1) + 1, p ** (M + 2) - 1}
    return sorted(v for v in values if v >= 0) + [from_digits(p, {1: 1})]


def sample_signals(grid, j, n, rng):
    """Generic, fine-constant (compressible) and coarse-slice (stretchable)."""
    p, num = grid.p, grid.num_positions
    shape = (p,) * num

    def noise(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    signals = [np.zeros(grid.size), noise(grid.size)]
    k = min(abs(j), num)
    signals.append(np.repeat(noise(p ** (num - k)), p**k))
    if j < 0:
        n_elt = n if not isinstance(n, int) else lambda_decode(n, p)
        sliced = np.zeros(shape, dtype=np.complex128)
        lead = tuple((-n_elt.digit(pos)) % p for pos in list(grid.positions)[:k])
        sliced[lead] = noise(p ** (num - k)).reshape((p,) * (num - k))
        signals.append(sliced.reshape(-1))
    return [GridSignal(grid, v) for v in signals]


@pytest.mark.parametrize("p,M,N", GRIDS)
def test_dilate_translate_matches_index_arithmetic(p, M, N):
    grid = QuotientGrid(p, M, N)
    rng = np.random.default_rng(7 * p + 3 * M + N)
    num = grid.num_positions
    ok_levels, failed_levels = set(), set()
    for j in range(-num - 1, num + 2):
        for n in lattice_indices(grid):
            for f in sample_signals(grid, j, n, rng):
                got = outcome(dilate_translate, f, j, n)
                assert_same(got, outcome(reference_dilate_translate, f, j, n), (j, n))
                (ok_levels if got[0] == "ok" else failed_levels).add(j)
    # Every level in range succeeds somewhere and, away from j = 0, aliases
    # somewhere, so both code paths are compared at every level.
    assert ok_levels == set(range(-num, num + 1))
    assert failed_levels >= set(range(-num - 1, num + 2)) - {0}


def test_dilate_translate_on_synthesized_wavelets():
    for p, M, N in [(2, 3, 3), (3, 2, 2)]:
        grid = QuotientGrid(p, M, N)
        for s in shannon_family(p).sets:
            psi = synthesize_wavelet(s, grid)
            for j in range(-grid.num_positions, grid.num_positions + 1):
                for n in range(p ** (M + 1)):
                    assert_same(
                        outcome(dilate_translate, psi, j, n),
                        outcome(reference_dilate_translate, psi, j, n),
                        (p, j, n),
                    )


# -- CSV labels and bytes ------------------------------------------------------------


LABEL_GRIDS = GRIDS + [(11, 1, 1), (11, 0, 2), (36, 1, 1), (36, 1, 0)]


@pytest.mark.parametrize("p,M,N", LABEL_GRIDS)
def test_labels_and_csv_bytes_match_format_element(p, M, N):
    check_labels_and_csv_bytes(p, M, N)


@pytest.mark.parametrize("p,M,N", LABEL_GRIDS)
def test_labels_and_csv_bytes_across_small_chunks(p, M, N, monkeypatch):
    # Small enough that every grid spans several chunks and label tables.
    monkeypatch.setattr(transform, "_CSV_CHUNK_ROWS", 3)
    monkeypatch.setattr(transform, "_LABEL_TABLE", 4)
    check_labels_and_csv_bytes(p, M, N)


def check_labels_and_csv_bytes(p, M, N):
    grid = QuotientGrid(p, M, N)
    assert list(grid.labels()) == [
        format_element(grid_cell_element(grid, i)) for i in range(grid.size)
    ]
    rng = np.random.default_rng(p * 100 + M * 10 + N)
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    special = [0.0, complex(-0.0, 1e-300), 1.0 / 3.0, -2.5e17j][: grid.size]
    values[: len(special)] = special
    signal = GridSignal(grid, values)
    got, want = io.StringIO(), io.StringIO()
    write_csv(signal, got)
    reference_write_csv(signal, want)
    assert got.getvalue() == want.getvalue()
    got.seek(0)
    assert np.array_equal(read_csv(grid, got).values, signal.values)


# Where repr changes form (1e15 / 1e16, 1e-4 / 1e-5), both zeros and the
# least subnormal; a signal drawn from these repeats values within and
# across chunks, so each row's text comes from the table of its chunk.
FEW_VALUES = [0.0, -0.0, 1.0, -0.5, 1 / 3, 1e15, 1e16, -1e16, 1e-4, 1e-5, 5e-324, -5e-324]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    shape=st.sampled_from([(2, 2, 2), (3, 1, 1), (5, 0, 2), (2, 0, 3)]),
    data=st.data(),
)
def test_csv_bytes_on_few_valued_signals(shape, data):
    grid = QuotientGrid(*shape)
    column = st.lists(st.sampled_from(FEW_VALUES), min_size=grid.size, max_size=grid.size)
    constant = st.sampled_from(FEW_VALUES).map(lambda v: [v] * grid.size)
    re = data.draw(column)
    im = data.draw(st.one_of(column, constant))
    re[:2] = [0.0, -0.0]  # both zeros in the first chunk of every size but 1
    values = np.empty(grid.size, dtype=np.complex128)
    values.real, values.imag = re, im
    signal = GridSignal(grid, values)
    want = io.StringIO()
    reference_write_csv(signal, want)
    for chunk in (1, 3, transform._CSV_CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transform, "_CSV_CHUNK_ROWS", chunk)
            got = io.StringIO()
            write_csv(signal, got)
            assert got.getvalue() == want.getvalue(), chunk
            got.seek(0)
            back = read_csv(grid, got).values
        assert np.array_equal(back, values)
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_labels_reject_bases_above_36():
    with pytest.raises(ParseError, match="bases up to 36; got 37"):
        QuotientGrid(37, 1, 1).labels()
    signal = GridSignal.zeros(QuotientGrid(37, 1, 1))
    out = io.StringIO()
    with pytest.raises(ParseError):
        write_csv(signal, out)
    assert out.getvalue() == ""


# -- reading rows out of order or spelled differently ------------------------------


def csv_rows(signal):
    out = io.StringIO()
    write_csv(signal, out)
    header, *rows = out.getvalue().splitlines()
    return header, rows


def respell(row, how):
    label, rest = row.split(",", 1)
    left, right = label.split(".")
    if how == "leading-zero":
        label = f"0{left}.{right}"
    elif how == "trailing-zero":
        label = f"{left}.{right}0"
    elif how == "upper":
        label = label.upper()
    return f"{label},{rest}"


@pytest.mark.parametrize("p,M,N", [(2, 1, 2), (3, 0, 2), (5, 2, 0), (11, 1, 1)])
def test_read_csv_accepts_any_order_and_spelling(p, M, N):
    grid = QuotientGrid(p, M, N)
    rng = np.random.default_rng(42)
    signal = GridSignal(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    header, rows = csv_rows(signal)
    rnd = random.Random(p)
    hows = ["leading-zero", "trailing-zero", "upper", None]
    rows = [respell(r, hows[i % len(hows)]) for i, r in enumerate(rows)]
    rnd.shuffle(rows)
    for k in range(0, len(rows), 3):
        rows.insert(k, "")
    text = "\n".join([header, *rows, "", ""])
    got = read_csv(grid, io.StringIO(text))
    assert np.array_equal(got.values, signal.values)


def test_read_csv_spellings_and_blank_lines():
    grid = QuotientGrid(2, 1, 2)
    text = "cell,re,im\n0.1,1.0,0.0\n\n.010,2.0,0.0\n  \n01.,3.0,0.0\n"
    expected = np.zeros(grid.size, dtype=np.complex128)
    expected[grid.index_of({1: 1})] = 1.0
    expected[grid.index_of({2: 1})] = 2.0
    expected[grid.index_of({0: 1})] = 3.0
    assert np.array_equal(read_csv(grid, io.StringIO(text)).values, expected)


def test_read_csv_uppercase_digit():
    grid = QuotientGrid(11, 1, 1)
    text = "cell,re,im\nA.,1.5,0.0\n.a,0.0,2.0\n"
    got = read_csv(grid, io.StringIO(text))
    assert got.values[grid.index_of({0: 10})] == 1.5
    assert got.values[grid.index_of({1: 10})] == 2.0j


@pytest.mark.parametrize(
    "first,second",
    [(".1", "0.1"), (".1", ".10"), ("a.", "A."), ("0a.", "A.")],
)
def test_read_csv_rejects_one_cell_under_two_spellings(first, second):
    grid = QuotientGrid(11, 1, 1)
    text = f"cell,re,im\n{first},1.0,0.0\n{second},2.0,0.0\n"
    with pytest.raises(SchemaError, match=rf"line 3: duplicate cell '{second}'"):
        read_csv(grid, io.StringIO(text))


def test_read_csv_error_messages():
    # A digit outside the base is a schema error with its line number too.
    grid = QuotientGrid(2, 1, 1)
    cases = {
        "cell,re,im\n.001,1.0,0.0\n": "line 2: digit at position 3 outside the grid",
        "cell,re,im\n.,1.0\n": "line 2: expected 'cell,re,im'",
        "cell,re,im\n.,x,0\n": "line 2: could not convert string to float: 'x'",
        "cell,re,im\n.2,1.0,0.0\n": "line 2: digit '2' in '.2' is >= base 2",
    }
    for text, message in cases.items():
        with pytest.raises(SchemaError) as info:
            read_csv(grid, io.StringIO(text))
        assert str(info.value) == message


# -- the chunked reader against the row-at-a-time reader ---------------------------


def csv_text(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    out = io.StringIO()
    reference_write_csv(GridSignal(grid, values), out)
    return out.getvalue()


def edit_row(text, k, edit):
    """The CSV with data row k (0-based) replaced by edit(row, rows)."""
    header, *rows = text.split("\n")
    rows[k] = edit(rows[k], rows)
    return "\n".join([header, *rows])


def reader_cases(grid, chunk):
    text = csv_text(grid, seed=grid.size)
    rows = text.splitlines()[1:]
    cases = {"canonical": text, "crlf": text.replace("\n", "\r\n"), "no-final-newline": text[:-1]}
    # A 2-field row then a 4-field row keep the comma count at 2 per row;
    # the second makes the fields after the split line up with the labels.
    two = f"{rows[1].split(',')[0]},0"
    four = f"5,{rows[2].split(',')[0]},0,0"
    cases["2-and-4-fields"] = edit_row(edit_row(text, 1, lambda r, _: two), 2, lambda r, _: four)
    # The six fields of rows k and k + 1 split 1 + 5, 2 + 4, 4 + 2 or 5 + 1:
    # within a chunk, across a chunk boundary and at the end of the file,
    # each with CRLF endings and with no final newline.  Labels and samples
    # all parse as floats, so only the row shape tells these from rows.
    for k in sorted({1, chunk - 1, len(rows) - 2}):
        six = ",".join(rows[k : k + 2]).split(",")
        for a in (1, 2, 4, 5):
            lines = rows[:k] + [",".join(six[:a]), ",".join(six[a:])] + rows[k + 2 :]
            split = "\n".join([text.split("\n")[0], *lines, ""])
            cases[f"{a}-and-{6 - a}-fields-at-{k}"] = split
            cases[f"{a}-and-{6 - a}-fields-at-{k}-crlf"] = split.replace("\n", "\r\n")
            cases[f"{a}-and-{6 - a}-fields-at-{k}-no-final-newline"] = split[:-1]
    cases["spaces"] = edit_row(text, 2, lambda r, _: " " + r.replace(",", " , ") + " ")
    cases["blank-line"] = edit_row(text, 2, lambda r, _: "\n" + r)
    for k in (chunk - 1, chunk, chunk + 1):
        cases[f"respelled-{k}"] = edit_row(text, k, lambda r, _: "0" + r)
        cases[f"swapped-{k}"] = edit_row(text, k, lambda r, rs: rs[k + 1])
        cases[f"bad-float-{k}"] = edit_row(text, k, lambda r, _: r.split(",")[0] + ",1.0,x")
        cases[f"blank-{k}"] = edit_row(text, k, lambda r, _: "")
    # A canonical run, then one of its cells again with a leading zero
    # (".1" then "0.1").
    cases["respelled-duplicate"] = text + "0" + rows[2 * chunk + 1] + "\n"
    cases["too-many-rows"] = text + rows[0] + "\n"
    cases["header-only"] = "cell,re,im\n"
    return cases


@pytest.mark.parametrize("p,M,N", [(2, 2, 2), (3, 1, 2)])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_chunked_reader_matches_row_reader(p, M, N, chunk, monkeypatch):
    monkeypatch.setattr(transform, "_CSV_CHUNK_ROWS", chunk)
    grid = QuotientGrid(p, M, N)
    for name, text in reader_cases(grid, chunk).items():
        assert_same(
            outcome(read_csv, grid, io.StringIO(text)),
            outcome(reference_read_csv, grid, io.StringIO(text)),
            name,
        )


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_lines_split_at_carriage_returns(chunk, monkeypatch, tmp_path):
    # A stream that ends lines at "\r" alone passes "\n" through inside a
    # line, so a break can end a field in mid-line: here the first row is
    # ".,1" and the second "5\n,1.,0,0", two fields and then four.
    monkeypatch.setattr(transform, "_CSV_CHUNK_ROWS", chunk)
    grid = QuotientGrid(2, 1, 0)
    texts = {
        "canonical": "cell,re,im\r.,1.0,0.0\r1.,0.0,2.0\r",
        "2-and-4-fields": "cell,re,im\r.,1\r5\n,1.,0,0\r",
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        with open(path, newline="\r") as got, open(path, newline="\r") as want:
            assert_same(outcome(read_csv, grid, got), outcome(reference_read_csv, grid, want), name)


@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_write_csv_output_stays_off_the_row_reader(chunk, monkeypatch):
    # write_csv's own rows, with either line ending and with or without the
    # final newline, are read a chunk at a time and never one row at a time.
    monkeypatch.setattr(transform, "_CSV_CHUNK_ROWS", chunk)

    def row_reader(*args):
        raise AssertionError("the row reader read write_csv output")

    monkeypatch.setattr(transform, "_read_rows", row_reader)
    grid = QuotientGrid(3, 1, 2)
    rng = np.random.default_rng(chunk)
    values = rng.normal(size=grid.size) + 1j * rng.integers(-1, 2, size=grid.size)
    out = io.StringIO()
    write_csv(GridSignal(grid, values), out)
    text = out.getvalue()
    for form in (text, text.replace("\n", "\r\n"), text[:-1]):
        assert np.array_equal(read_csv(grid, io.StringIO(form)).values, values)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", [0, 4])
@pytest.mark.parametrize("part", [1, 2])
def test_read_csv_rejects_non_finite_samples(value, row, part, monkeypatch):
    monkeypatch.setattr(transform, "_CSV_CHUNK_ROWS", 3)
    grid = QuotientGrid(2, 2, 2)

    def poison(r, _):
        fields = r.split(",")
        fields[part] = value
        return ",".join(fields)

    text = edit_row(csv_text(grid, seed=1), row, poison)
    with pytest.raises(SchemaError) as info:
        read_csv(grid, io.StringIO(text))
    assert str(info.value) == f"line {row + 2}: non-finite value {value!r}"
