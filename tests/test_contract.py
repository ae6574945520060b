"""The exit-code contract of the command line.

Every malformed input exits 2 with a one-line message and no traceback;
every resource limit exits 1, with one line, before the work starts.
"""

import contextlib
import copy
import decimal
import io
import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets.cli import main

SHANNON2_FILE = str(pathlib.Path(__file__).resolve().parent.parent / "families" / "shannon2.json")
SHANNON2 = {
    "p": 2,
    "family": [{"name": "omega1", "cylinders": [{"resolution": 0, "digits": {"0": 1}}]}],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def run(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_line(code, stderr, want):
    assert code == want, stderr
    assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr


def parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is(kind, value):
    return type(value) is kind


# Each mutation takes a copy of the Shannon p = 2 document and a drawn
# value, and returns a document that no reading of the format accepts.
MUTATIONS = {
    "top-level": (json_values.filter(lambda v: not _is(dict, v)), lambda doc, v: v),
    "p": (
        json_values.filter(lambda v: not (_is(int, v) and v == 2)),
        lambda doc, v: {**doc, "p": v},
    ),
    "no-p": (st.none(), lambda doc, v: {"family": doc["family"]}),
    "family": (
        json_values.filter(lambda v: not _is(list, v) or not v),
        lambda doc, v: {**doc, "family": v},
    ),
    "entry": (json_values.filter(lambda v: not _is(dict, v)), lambda doc, v: {**doc, "family": [v]}),
    "extra-entry": (st.none(), lambda doc, v: {**doc, "family": doc["family"] * 2}),
    "name": (
        json_values.filter(lambda v: not (_is(str, v) and v)),
        lambda doc, v: _set(doc, ["family", 0, "name"], v),
    ),
    "cylinders": (
        json_values.filter(lambda v: not _is(list, v) or not v),
        lambda doc, v: _set(doc, ["family", 0, "cylinders"], v),
    ),
    "cylinder": (
        json_values.filter(lambda v: not (_is(dict, v) and "resolution" in v)),
        lambda doc, v: _set(doc, ["family", 0, "cylinders", 0], v),
    ),
    "resolution": (
        json_values.filter(lambda v: not (_is(int, v) and v >= 0)),
        lambda doc, v: _set(doc, ["family", 0, "cylinders", 0, "resolution"], v),
    ),
    "digits": (
        json_values.filter(lambda v: not _is(dict, v)),
        lambda doc, v: _set(doc, ["family", 0, "cylinders", 0, "digits"], v),
    ),
    "digit-position": (
        st.text(max_size=4).filter(lambda k: not parses_as_int(k) or int(k) > 0),
        lambda doc, k: _set(doc, ["family", 0, "cylinders", 0, "digits", k], 1),
    ),
    "digit-value": (
        json_values.filter(lambda v: not (_is(int, v) and v == 1)),
        lambda doc, v: _set(doc, ["family", 0, "cylinders", 0, "digits", "0"], v),
    ),
    "overlap": (
        st.integers(1, 40),
        lambda doc, r: _set(doc, ["family", 0, "cylinders", 1], {"resolution": r, "digits": {"0": 1}}),
    ),
}


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if isinstance(target, list) and path[-1] == len(target):
        target.append(value)
    else:
        target[path[-1]] = value
    return doc


@st.composite
def malformed_documents(draw):
    name = draw(st.sampled_from(sorted(MUTATIONS)))
    values, mutate = MUTATIONS[name]
    return mutate(SHANNON2, draw(values))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


class TestMalformedInputExitsTwo:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(doc=malformed_documents(), command=st.sampled_from(["verify", "mra", "filters"]))
    def test_malformed_family_documents(self, work, doc, command):
        path = work / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([command, "--p", "2", "--input", str(path)])
        assert_one_line(code, err, 2)
        assert out == ""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(raw=st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
    def test_bytes_that_are_no_family(self, work, raw):
        path = work / "raw.json"
        path.write_bytes(raw)
        code, _, err = run(["verify", "--p", "2", "--input", str(path)])
        assert_one_line(code, err, 2)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_malformed_argv(self, work, data):
        argv = data.draw(malformed_argv(work))
        code, out, err = run(argv)
        assert_one_line(code, err, 2)
        assert out == ""

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"p": 2, "family": [{"x": %s}]}' % ("[" * 50_000 + "]" * 50_000)],
        ids=["top-level", "inside-family"],
    )
    def test_deep_nesting(self, tmp_path, text):
        # The JSON decoder recurses once per level and used to escape as a
        # RecursionError traceback with exit 1.
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, _, err = run(["verify", "--p", "2", "--input", str(path)])
        assert_one_line(code, err, 2)
        assert err.startswith(f"{path} is not valid JSON: ")

    def test_integer_past_the_digit_limit(self, tmp_path):
        # Python refuses to read an integer of more than 4300 digits; that
        # ValueError used to escape as a traceback with exit 1.
        path = tmp_path / "long.json"
        doc = json.dumps(SHANNON2).replace('"resolution": 0', '"resolution": ' + "1" * 5000)
        path.write_text(doc)
        code, _, err = run(["verify", "--p", "2", "--input", str(path)])
        assert_one_line(code, err, 2)
        assert err.startswith(f"{path} is not valid JSON: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12"])
    @pytest.mark.parametrize("command", ["filters", "transform"])
    def test_tolerance_outside_its_domain(self, work, command, value):
        # A NaN tolerance made every transform FAIL; it is refused before
        # any file is read, so the CSV input need not exist.  filters
        # takes no --tolerance (every bank it builds is 0/1 and decided
        # exactly), so there any value is a usage error.
        argv = {
            "filters": base_argv("filters", work),
            "transform": ["transform", "--p", "2", "--grid", "1", "1", "--input",
                          str(work / "absent.csv"), "--samples", str(work / "out.csv")],
        }[command]
        code, out, err = run(argv + [f"--tolerance={value}"])
        assert_one_line(code, err, 2)
        assert out == ""
        if command == "transform":
            assert err.startswith("--tolerance must be finite and nonnegative, got ")
        else:
            assert err.endswith(f"error: unrecognized arguments: --tolerance={value}\n")

    @pytest.mark.parametrize("value", ["0", "1e-10", "0.5"])
    def test_filters_takes_no_tolerance(self, work, value):
        # The option was validated and written to the report but acted on
        # no bank; it is gone, so even a valid value exits 2 with one line.
        code, out, err = run(base_argv("filters", work) + ["--tolerance", value])
        assert_one_line(code, err, 2)
        assert out == "" and "unrecognized arguments: --tolerance" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--bogus"],
            ["verify", "--p", "x", "--input", "f"],
            [],
            ["nosuch"],
            ["verify", "--p", "2", "--input", SHANNON2_FILE, "--extra-range", "0"],
            ["search", "--p", "2", "--window", "0", "1", "--resolution", "1"],
        ],
        ids=["unknown-flag", "non-integer", "no-command", "unknown-command",
             "verify-extra-range", "search-resolution"],
    )
    def test_usage_errors_are_one_line(self, argv):
        # argparse printed its usage text, several lines, before the error.
        code, out, err = run(argv)
        assert_one_line(code, err, 2)
        assert "error: " in err and out == ""


INT_OPTIONS = {
    "verify": ["--p"],
    "mra": ["--p", "--depth"],
    "filters": ["--p", "--depth", "--level"],
    "synthesize": ["--p", "--set"],
    "search": ["--p", "--budget"],
}
OUT_OF_DOMAIN = {
    "--depth": st.integers(max_value=0),
    "--budget": st.integers(max_value=-1),
    "--set": st.integers(max_value=0) | st.integers(min_value=2),
}


def base_argv(command, work):
    family = ["--input", SHANNON2_FILE]
    samples = ["--samples", str(work / "samples.csv")]
    return {
        "verify": ["verify", "--p", "2", *family],
        "mra": ["mra", "--p", "2", *family, "--depth", "4"],
        "filters": ["filters", "--p", "2", *family, "--depth", "4", "--level", "4"],
        "synthesize": ["synthesize", "--p", "2", *family, "--grid", "1", "1", "--set", "1", *samples],
        "search": ["search", "--p", "2", "--window", "0", "1", "--budget", "5"],
    }[command]


@st.composite
def malformed_argv(draw, work):
    """A valid command line with one change that makes it malformed."""
    command = draw(st.sampled_from(sorted(INT_OPTIONS)))
    argv = base_argv(command, work)
    kind = draw(st.sampled_from(["not-an-integer", "out-of-domain", "unknown-flag", "drop-required"]))
    if kind == "not-an-integer":
        option = draw(st.sampled_from(INT_OPTIONS[command]))
        value = draw(st.text(min_size=1, max_size=5).filter(lambda t: not parses_as_int(t)))
        argv[argv.index(option) + 1] = value
    elif kind == "out-of-domain":
        options = [o for o in INT_OPTIONS[command] if o in OUT_OF_DOMAIN]
        options.append("--window" if command == "search" else "--p")
        option = draw(st.sampled_from(options))
        i = argv.index(option) + 1
        if option == "--window":  # reversed bounds
            argv[i], argv[i + 1] = "2", "1"
        elif option == "--p":  # a base that the family file does not have
            argv[i] = str(draw(st.integers(3, 9)))
        else:
            argv[i] = str(draw(OUT_OF_DOMAIN[option]))
    elif kind == "unknown-flag":
        flag = draw(st.sampled_from(["--bogus", "--depthh", "-x", "--extra"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    else:
        required = {"--p", "--input", "--grid", "--samples", "--window"}
        option = draw(st.sampled_from([a for a in argv if a in required]))
        i = argv.index(option)
        width = 3 if option in ("--grid", "--window") else 2
        del argv[i : i + width]
    return argv


class TestResourceLimitsExitOne:
    @pytest.mark.parametrize("command", ["synthesize", "transform"])
    @pytest.mark.parametrize("grid", [("40", "40"), ("11", "10")])
    def test_grid_past_the_cell_cap(self, command, grid, tmp_path):
        # 2**80 and 2**21 cells: refused before any file is read or array
        # allocated, so the input CSV need not exist.
        samples = tmp_path / "out.csv"
        source = SHANNON2_FILE if command == "synthesize" else str(tmp_path / "in.csv")
        code, out, err = run(
            [command, "--p", "2", "--input", source, "--grid", *grid, "--samples", str(samples)]
        )
        assert_one_line(code, err, 1)
        cells = int(grid[0]) + int(grid[1])
        assert err == f"--grid {grid[0]} {grid[1]} holds 2**{cells} cells, more than the cap 2000000\n"
        assert not samples.exists() and out == ""

    @pytest.mark.parametrize(
        "cylinders, message",
        [
            (
                [{"resolution": 10_000_000, "digits": {"0": 1}}],
                "the cover check could list 20000002 witnesses, more than the cap 2000000\n",
            ),
            (
                [{"resolution": 0, "digits": {}}, {"resolution": 3, "digits": {"-10000000": 1}}],
                "the dilate range [1, 10000003] could list 10000003 witnesses, "
                "more than the cap 2000000\n",
            ),
        ],
        ids=["gap-chain", "identity-dilates"],
    )
    def test_witness_listing_past_the_cap(self, cylinders, message, tmp_path):
        # Ten million resolutions between the shell and a key, or ten million
        # dilates falling into an identity cylinder: refused before listing.
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"p": 2, "family": [{"name": "omega1", "cylinders": cylinders}]}))
        start = time.perf_counter()
        code, out, err = run(["verify", "--p", "2", "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert_one_line(code, err, 1)
        assert err == message and out == ""


def test_report_integers_of_any_length(work):
    # checked_cells is 2**20000 at level 20000; str() refuses integers of
    # more than 4300 digits, and the report used to end in a ValueError
    # traceback after the whole check.
    report = work / "long-count.json"
    code, _, err = run(
        ["filters", "--p", "2", "--input", SHANNON2_FILE, "--level", "20000", "--output", str(report)]
    )
    assert code == 0 and err == ""
    with decimal.localcontext() as context:
        context.prec = 7000
        count = str(decimal.Decimal(2) ** 20000)
    assert f'"checked_cells": {count},\n' in report.read_text()
