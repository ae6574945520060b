import decimal
import json
import pathlib
import random
import time
import warnings
from fractions import Fraction

import pytest

from perfbench import gen
from vilenkin_wavelets.cli import main, run_command
from vilenkin_wavelets.errors import SchemaError
from vilenkin_wavelets.famio import emit_report, parse_family_file
from vilenkin_wavelets.verifier import is_wavelet_set, shannon_family

from .mutants import all_mutants
from .test_verifier import expand_cover_defects, per_k_dilation_tiling

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


class TestFamilyFiles:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_files_parse(self, p):
        family = parse_family_file(f"families/shannon{p}.json")
        assert family.sets == shannon_family(p).sets

    def test_digit_too_large(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "p": 2,
                    "family": [
                        {"name": "omega1", "cylinders": [
                            {"resolution": 0, "digits": {"0": 5}}
                        ]}
                    ],
                }
            )
        )
        with pytest.raises(SchemaError, match=r"family\[0\].cylinders\[0\]"):
            parse_family_file(str(bad))

    @pytest.mark.parametrize(
        "cylinder, message",
        [
            ('{"resolution": 1e400, "digits": {"0": 1}}', "cannot convert float infinity"),
            ('{"resolution": null, "digits": {"0": 1}}', "not 'NoneType'"),
            ('{"resolution": 0, "digits": {"0": [1]}}', "not 'list'"),
        ],
        ids=["overflow", "null-resolution", "list-digit"],
    )
    def test_malformed_numbers_exit_two(self, cylinder, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"p": 2, "family": [{"name": "omega1", "cylinders": [%s]}]}' % cylinder
        )
        with pytest.raises(SchemaError, match=r"family\[0\]\.cylinders\[0\]: "):
            parse_family_file(str(bad))
        code = main(["verify", "--p", "2", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize(
        "cylinder, message",
        [
            ('{"resolution": 0.9, "digits": {"0": 1}}', "got 0.9"),
            ('{"resolution": 0, "digits": {"0": 1.7}}', "got 1.7"),
            ('{"resolution": 0, "digits": {"0": 1.0}}', "got 1.0"),
            ('{"resolution": 0.9, "digits": {"0": 1.7}}', "got 1.7"),
            ('{"resolution": true, "digits": {"0": 1}}', "got true"),
            ('{"resolution": 0, "digits": {"0": true}}', "got true"),
            ('{"resolution": "0", "digits": {"0": 1}}', 'got "0"'),
            ('{"resolution": 0, "digits": {"0": "1"}}', 'got "1"'),
        ],
        ids=[
            "float-resolution", "float-digit", "integral-float-digit", "float-both",
            "bool-resolution", "bool-digit", "string-resolution", "string-digit",
        ],
    )
    def test_non_integer_numbers_exit_two(self, cylinder, message, tmp_path, capsys):
        # Each of these once truncated or coerced to the Shannon cylinder
        # {"resolution": 0, "digits": {"0": 1}} and verified as PASS.
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"p": 2, "family": [{"name": "omega1", "cylinders": [%s]}]}' % cylinder
        )
        with pytest.raises(SchemaError, match=r"family\[0\]\.cylinders\[0\]: "):
            parse_family_file(str(bad))
        code = main(["verify", "--p", "2", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and message in err, err

    def test_overlapping_cylinders_rejected(self, tmp_path):
        bad = tmp_path / "overlap.json"
        bad.write_text(
            json.dumps(
                {
                    "p": 2,
                    "family": [
                        {"name": "omega1", "cylinders": [
                            {"resolution": 0, "digits": {"0": 1}},
                            {"resolution": 1, "digits": {"0": 1, "1": 1}},
                        ]}
                    ],
                }
            )
        )
        with pytest.raises(SchemaError, match="overlap"):
            parse_family_file(str(bad))

    def test_wrong_arity(self, tmp_path):
        short = tmp_path / "short.json"
        short.write_text(
            json.dumps(
                {
                    "p": 3,
                    "family": [
                        {"name": "omega1", "cylinders": [
                            {"resolution": 0, "digits": {"0": 1}}
                        ]}
                    ],
                }
            )
        )
        code, report = run_command(["verify", "--p", "3", "--input", str(short)])
        assert code == 2 and "error" in report


class TestExitCodes:
    def test_pass_is_zero(self):
        code, report = run_command(
            ["verify", "--p", "2", "--input", "families/shannon2.json"]
        )
        assert code == 0 and report["verdict"] == "PASS"

    def test_fail_is_one(self):
        code, report = run_command(
            ["verify", "--p", "2", "--input", "families/mutant-moved-cylinder-p2.json"]
        )
        assert code == 1 and report["verdict"] == "FAIL"
        failing = [c for c in report["conditions"] if not c["passed"]]
        assert failing and all(c["witnesses"] for c in failing)

    def test_base_mismatch_is_two(self):
        code, _ = run_command(
            ["verify", "--p", "3", "--input", "families/shannon2.json"]
        )
        assert code == 2

    def test_unknown_flag_is_two(self):
        code, _ = run_command(
            ["verify", "--p", "2", "--input", "families/shannon2.json", "--bogus"]
        )
        assert code == 2

    def test_search_budget_exhausted_is_one(self):
        code, report = run_command(
            ["search", "--p", "2", "--window", "0", "2", "--budget", "3"]
        )
        assert code == 1 and report["verdict"] == "INCONCLUSIVE"


def write_family(path, p, cylinders):
    path.write_text(json.dumps({"p": p, "family": [{"name": "omega1", "cylinders": cylinders}]}))
    return str(path)


def witness_measure(witnesses, p):
    """The total measure of witness cylinders, each p**-resolution."""
    return sum(Fraction(1, p ** w["cell"]["resolution"]) for w in witnesses)


def cell_count(p, witness):
    """The cells a defect witness spans: its "cells" power "p^k", or 1."""
    base, _, k = witness.get("cells", f"{p}^0").partition("^")
    assert int(base) == p
    return p ** int(k)


class TestResolutionCap:
    def test_verify_names_first_over_cap_dilate(self, tmp_path, capsys):
        # Resolutions 20, 26 and 30, where the dilates used to pass the cap
        # (the first at the resolution-26 cylinder moved to 27): verify now
        # decides the family.  By hand, omega1 has measure
        # 2^-20 + 2^-26 + 2^-30; its shell keys (resolutions 20, 26 and 31)
        # do not nest, so the tiling defects are the shell minus them; its
        # translates (20, {1}), (26, {26}) and (30, {}) are disjoint, so
        # the congruence defects are the unit cell minus them.
        family = write_family(tmp_path / "deep.json", 2, [
            {"resolution": 26, "digits": {"0": 1, "26": 1}},
            {"resolution": 20, "digits": {"0": 1, "1": 1}},
            {"resolution": 30, "digits": {"-1": 1}},
        ])
        out = tmp_path / "report.json"
        code = main(["verify", "--p", "2", "--input", family, "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["verdict"] == "FAIL"
        measure, tiling, congruence = report["conditions"]
        omega = Fraction(1, 2**20) + Fraction(1, 2**26) + Fraction(1, 2**30)
        assert measure["witnesses"] == [{"set": "omega1", "measure": "1041*2^-30"}]
        assert Fraction(1041, 2**30) == omega
        assert {w["kind"] for w in tiling["witnesses"]} == {"cover-defect"}
        assert {w["count"] for w in tiling["witnesses"]} == {0}
        assert witness_measure(tiling["witnesses"], 2) == 1 - Fraction(2081, 2**31)
        assert {w["kind"] for w in congruence["witnesses"]} == {"cover-gap"}
        assert witness_measure(congruence["witnesses"], 2) == 1 - omega

    @pytest.mark.parametrize("depth", [25, 40])
    @pytest.mark.parametrize("command", ["mra", "filters"])
    def test_spectrum_past_the_cap(self, command, depth, tmp_path, capsys):
        # The truncated spectrum reaches resolution `depth`, past
        # MAX_RESOLUTION; the verdict is PASS with the exact measure.
        out = tmp_path / "report.json"
        argv = [command, "--p", "2", "--input", "families/shannon2.json", "--depth", str(depth)]
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["verdict"] == "PASS"
        rows = report["conditions"][-1 if command == "mra" else -2]["measures"]["rows"]
        assert rows[0]["measure"]["exact"] == f"{2**depth - 1}*2^-{depth}"
        if command == "mra":
            assert report["spectrum"]["self_similar_tail_resolved"] is True


    def test_filter_rows_past_the_cap(self, tmp_path, capsys):
        # The library decides this family's filters, identities and
        # two-scale check (tests/test_mra.py), but the report lists one
        # row per cell of the spectrum at the table resolution, 25.
        family = tmp_path / "r24.json"
        family.write_text(json.dumps(gen.pass_family(random.Random(5), 2, 24, -2, 40).document()))
        argv = ["filters", "--p", "2", "--input", str(family), "--depth", "28", "--level", "26"]
        assert main(argv + ["--output", str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == "resolution 25 exceeds the cap 24\n"


class TestBoundedByInput:
    def test_low_pinned_digit_is_fast_and_small(self, tmp_path):
        # The one cylinder's shell key is (18, {0}); the shell minus it is
        # 2**18 - 1 cells at resolution 18, once listed one by one (105 MB),
        # now as the 18 cylinders (q, {0, q}).
        family = write_family(tmp_path / "k20.json", 2, [{"resolution": -2, "digits": {"-20": 1}}])
        out = tmp_path / "report.json"
        start = time.perf_counter()
        code = main(["verify", "--p", "2", "--input", family, "--output", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out.stat().st_size < 10_000
        tiling = json.loads(out.read_text())["conditions"][1]
        gaps = [w for w in tiling["witnesses"] if w["kind"] == "cover-defect"]
        assert [w["cell"]["resolution"] for w in gaps] == list(range(1, 19))
        assert sum(cell_count(2, w) for w in gaps) == 2**18 - 1

    def test_coarse_member_is_one_piece(self, tmp_path, capsys):
        # The member (-16, {-17: 1}) spans 2**16 integer parts.  Split to
        # resolution 0 it made 2**16 certificate entries (35.6 MB in
        # 6.6 s); now it is one piece whose translate, the unit cell,
        # counts 2**16 times.
        family = write_family(tmp_path / "coarse.json", 2, [{"resolution": -16, "digits": {"-17": 1}}])
        out = tmp_path / "report.json"
        start = time.perf_counter()
        code = main(["verify", "--p", "2", "--input", family, "--output", str(out)])
        assert time.perf_counter() - start < 0.5
        assert code == 1 and capsys.readouterr().err == ""
        assert out.stat().st_size < 5_000
        report = json.loads(out.read_text())
        unit = {"resolution": 0, "digits": {}}
        assert report["conditions"][2]["witnesses"] == [
            {"kind": "translate-overlap", "set": "omega1", "cell": unit, "count": 2**16}
        ]
        assert report["certificate"][0]["partition"] == [{
            "lattice_index": 2**17,
            "piece": [{"resolution": -16, "digits": {"-17": 1}}],
            "translated": [unit],
        }]

    def test_deep_identity_level_is_fast(self, tmp_path, capsys):
        # checked_cells is 2**3000000, 903090 digits, written by binary
        # splitting instead of one division by 10**600 per chunk.
        level = 3_000_000
        out = tmp_path / "report.json"
        argv = ["filters", "--p", "2", "--input", "families/shannon2.json", "--level", str(level)]
        start = time.perf_counter()
        code = main(argv + ["--output", str(out)])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and capsys.readouterr().err == ""
        text = out.read_text()
        digits = text.split('"checked_cells": ', 1)[1].split(",", 1)[0]
        assert len(digits) == 903_090
        assert digits[-20:] == f"{pow(2, level, 10**20):020d}"
        with decimal.localcontext() as ctx:
            ctx.prec = 30
            lead = (decimal.Decimal(2) ** level).as_tuple().digits[:20]
        assert digits[:20] == "".join(map(str, lead))

    def test_deep_cylinder_report_grows_linearly(self, tmp_path, capsys):
        # One resolution-15000 cylinder, its own shell key: the shell and
        # the unit cell minus it are 15000 gap cylinders each.  Each entry names its cell
        # count as a power, so the report holds short entries, not the
        # counts 2**(15000 - q) written out, which past 4300 digits cannot
        # be printed at all.
        R = 15_000
        family = write_family(tmp_path / "deep.json", 2, [{"resolution": R, "digits": {"0": 1}}])
        out = tmp_path / "report.json"
        code = main(["verify", "--p", "2", "--input", family, "--output", str(out)])
        assert code == 1 and capsys.readouterr().err == ""
        assert out.stat().st_size < 600 * R
        report = json.loads(out.read_text())
        assert report["verdict"] == "FAIL"
        _, tiling, congruence = report["conditions"]
        for record in (tiling, congruence):
            gaps = record["witnesses"]
            assert {w["count"] for w in gaps} == {0}
            assert [w["cell"]["resolution"] for w in gaps] == list(range(1, R + 1))
            assert [cell_count(2, w) for w in gaps[:2]] == [2 ** (R - 1), 2 ** (R - 2)]
            assert witness_measure(gaps, 2) == 1 - Fraction(1, 2**R)

    def test_deeper_cylinder_fails_without_traceback(self, tmp_path, capsys):
        # Resolution 10**5, in the text format, which prints the first
        # witnesses only: still one FAIL report and no error.
        family = write_family(tmp_path / "deeper.json", 2, [{"resolution": 10**5, "digits": {"0": 1}}])
        out = tmp_path / "report.txt"
        code = main(["verify", "--p", "2", "--input", family, "--format", "text", "--output", str(out)])
        assert code == 1 and capsys.readouterr().err == ""
        text = out.read_text()
        assert "verdict: FAIL" in text and '"cells": "2^99999"' in text
        assert len(text) < 10_000

    def test_long_measure_fails_without_traceback(self, tmp_path, capsys):
        # Measure (2^15000 + 1) * 2^-15000: its count has 4516 digits, more
        # than str() of an int writes by default.
        R = 15_000
        family = write_family(tmp_path / "long.json", 2, [
            {"resolution": 0, "digits": {"0": 1}},
            {"resolution": R, "digits": {"-3": 1}},
        ])
        out = tmp_path / "report.json"
        code = main(["verify", "--p", "2", "--input", family, "--output", str(out)])
        assert code == 1 and capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["verdict"] == "FAIL"
        measure = report["conditions"][0]
        assert not measure["passed"]
        with decimal.localcontext() as ctx:
            ctx.prec = 5000  # Decimal writes its digits without that limit
            count = decimal.Decimal(2) ** R + 1
        assert measure["witnesses"][0]["measure"] == f"{count}*2^-{R}"

    def test_identity_family_ignores_extra_range(self, tmp_path):
        # The identity cylinder (1, {}) meets every dilate of the union;
        # the overlaps are listed for d up to L - w = 1 - (-2), a range
        # read off the family alone.
        family = write_family(tmp_path / "identity.json", 2, [
            {"resolution": 1, "digits": {}},
            {"resolution": 0, "digits": {"-2": 1}},
        ])
        code, report = run_command(["verify", "--p", "2", "--input", family])
        assert code == 1 and report["parameters"] == {"p": 2, "input": family}
        tiling = report["conditions"][1]
        assert tiling["measures"] == {"resolution": 1, "degenerate": True}
        assert [w["d"] for w in tiling["witnesses"] if w["kind"] == "dilate-overlap"] == [1, 2, 3]

    @pytest.mark.parametrize("path", sorted(str(f.relative_to(ROOT)) for f in (ROOT / "families").glob("*.json")))
    def test_extra_range_sweep_keeps_file_reports(self, path):
        # The per-k reference scans ranges extra_range wider than the fixed
        # L - w the report lists, and finds the report's tiling condition.
        family = parse_family_file(path)
        code, report = run_command(["verify", "--p", str(family.p), "--input", path])
        assert code == (0 if report["verdict"] == "PASS" else 1)
        tiling = report["conditions"][1]
        got = tiling["passed"], expand_cover_defects(family.p, tiling["witnesses"]), tiling["measures"]
        for extra_range in (0, 1, 2, 40):
            want = per_k_dilation_tiling(family, extra_range)
            assert got == (want.passed, expand_cover_defects(family.p, want.witnesses), want.details)


class TestNegativeResolutionMember:
    def test_verify_reports_translate_overlap(self, tmp_path):
        # Two resolution-0 siblings merge into one cylinder of resolution
        # -1; it spans two integer parts, and both translate onto the unit
        # cell.  verify must write a FAIL report, not stop on the split.
        family = tmp_path / "negative.json"
        family.write_text(
            json.dumps(
                {
                    "p": 2,
                    "family": [
                        {"name": "omega1", "cylinders": [
                            {"resolution": 0, "digits": {"-1": 1}},
                            {"resolution": 0, "digits": {"-1": 1, "0": 1}},
                        ]}
                    ],
                }
            )
        )
        out = tmp_path / "report.json"
        code = main(["verify", "--p", "2", "--input", str(family), "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["verdict"] == "FAIL"
        congruence = {c["name"]: c for c in report["conditions"]}["translation-congruence"]
        assert not congruence["passed"]
        assert congruence["witnesses"] == [
            {
                "kind": "translate-overlap",
                "set": "omega1",
                "cell": {"resolution": 0, "digits": {}},
                "count": 2,
            }
        ]


class TestVerdictsMatchLibrary:
    @pytest.mark.parametrize(
        "path,p",
        [
            ("families/shannon2.json", 2),
            ("families/shannon3.json", 3),
            ("families/mutant-moved-cylinder-p2.json", 2),
            ("families/mutant-positive-position-digit-p2.json", 2),
            ("families/mutant-measure-deficit-p2.json", 2),
        ],
    )
    def test_cli_is_a_thin_shell(self, path, p):
        code, report = run_command(["verify", "--p", str(p), "--input", path])
        library = is_wavelet_set(parse_family_file(path))
        assert (report["verdict"] == "PASS") == library.overall
        assert (code == 0) == library.overall
        by_name = {c["name"]: c["passed"] for c in report["conditions"]}
        for record in library.conditions:
            assert by_name[record.name] == record.passed


class TestDeterminism:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_verify_reports_byte_stable(self, p):
        args = ["verify", "--p", str(p), "--input", f"families/shannon{p}.json"]
        _, first = run_command(args)
        _, second = run_command(args)
        assert emit_report(first) == emit_report(second)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_verify_golden(self, p):
        _, report = run_command(
            ["verify", "--p", str(p), "--input", f"families/shannon{p}.json"]
        )
        golden = (GOLDEN / f"verify-shannon{p}.json").read_bytes()
        assert emit_report(report) == golden

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mra_golden(self, p):
        _, report = run_command(
            [
                "mra", "--p", str(p),
                "--input", f"families/shannon{p}.json",
                "--depth", "8",
            ]
        )
        golden = (GOLDEN / f"mra-shannon{p}.json").read_bytes()
        assert emit_report(report) == golden

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("verify-three-shell2", ["verify"]),
            ("mra-three-shell2", ["mra", "--depth", "8"]),
            ("filters-three-shell2", ["filters", "--level", "4"]),
            ("verify-mutant-moved-cylinder-p2", ["verify"]),
        ],
    )
    def test_merging_and_witness_golden(self, name, argv):
        # Multi-cylinder sets run the sibling merge; the mutant's FAIL
        # report lists witnesses.  The Shannon goldens do neither.
        family = "families/" + name.split("-", 1)[1] + ".json"
        _, report = run_command(argv[:1] + ["--p", "2", "--input", family] + argv[1:])
        golden = (GOLDEN / f"{name}.json").read_bytes()
        assert emit_report(report) == golden

    @pytest.mark.parametrize("mutant", ["shell-inflate", "moved-cylinder", "measure-deficit"])
    def test_p3_mutant_golden(self, mutant):
        # Between them these FAIL reports hold every witness kind the
        # overlap walk feeds: set-overlap (shell-inflate), dilate-overlap
        # and cover-defect (moved-cylinder), and the identity-neighbourhood
        # branch (measure-deficit).  The files are the catalogue's mutants.
        path = f"families/mutant-{mutant}-p3.json"
        [want] = [m for m in all_mutants((3,)) if m.name == mutant]
        assert parse_family_file(path).sets == want.family.sets
        code, report = run_command(["verify", "--p", "3", "--input", path])
        assert code == 1
        assert emit_report(report) == (GOLDEN / f"verify-mutant-{mutant}-p3.json").read_bytes()

    @pytest.mark.parametrize(
        "name,window,budget,code",
        [
            ("search-p2-w-1_2", ("2", "-1", "2"), [], 0),
            ("search-p3-w0_1", ("3", "0", "1"), [], 0),
            ("search-p2-w0_2-budget3", ("2", "0", "2"), ["--budget", "3"], 1),
            ("search-p2-w-1_1", ("2", "-1", "1"), [], 0),
            ("search-p2-w-2_1", ("2", "-2", "1"), [], 0),
            ("search-p2-w-3_1", ("2", "-3", "1"), [], 0),
            ("search-p3-w-1_0", ("3", "-1", "0"), [], 0),
            ("search-p3-w-2_0", ("3", "-2", "0"), [], 0),
            ("search-p5-w0_0", ("5", "0", "0"), [], 0),
            # The budget runs out inside the second member's subtree.
            ("search-p3-w0_1-budget1370", ("3", "0", "1"), ["--budget", "1370"], 1),
        ],
    )
    def test_search_golden(self, name, window, budget, code):
        p, lo, hi = window
        got, report = run_command(["search", "--p", p, "--window", lo, hi] + budget)
        assert got == code
        assert emit_report(report) == (GOLDEN / f"{name}.json").read_bytes()

    def test_text_format_renders(self):
        _, report = run_command(
            ["verify", "--p", "2", "--input", "families/shannon2.json"]
        )
        text = emit_report(report, "text").decode()
        assert "verdict: PASS" in text


class TestThreeShellFile:
    def test_verify_and_mra(self):
        code, report = run_command(
            ["verify", "--p", "2", "--input", "families/three-shell2.json"]
        )
        assert code == 0 and report["verdict"] == "PASS"
        code, report = run_command(
            ["mra", "--p", "2", "--input", "families/three-shell2.json", "--depth", "8"]
        )
        assert code == 0 and report["verdict"] == "PASS"


class TestMraCommand:
    def test_depth_table(self):
        code, report = run_command(
            ["mra", "--p", "2", "--input", "families/shannon2.json", "--depth", "8"]
        )
        assert code == 0 and report["verdict"] == "PASS"
        cond = [c for c in report["conditions"] if c["name"] == "scaling-spectrum-translates"][0]
        rows = cond["measures"]["rows"]
        identity_row = [r for r in rows if r["lattice_index"] == 0][0]
        assert identity_row["measure"]["exact"] == "255*2^-8"
        for row in rows:
            if row["lattice_index"] != 0:
                assert row["measure"]["exact"] == "0*2^0"

    def test_mutant_fails_before_spectrum(self):
        code, report = run_command(
            ["mra", "--p", "2", "--input", "families/mutant-moved-cylinder-p2.json"]
        )
        assert code == 1 and report["verdict"] == "FAIL"
        names = [c["name"] for c in report["conditions"]]
        assert "scaling-spectrum-translates" not in names


class TestFiltersCommand:
    @pytest.mark.parametrize("p", [2, 3])
    def test_filters_pass(self, p):
        code, report = run_command(
            [
                "filters", "--p", str(p),
                "--input", f"families/shannon{p}.json",
                "--level", "3",
            ]
        )
        assert code == 0 and report["verdict"] == "PASS"
        assert report["filters"]["rows"]
        cond = [c for c in report["conditions"] if c["name"] == "filter-identities"][0]
        assert cond["exact"] and cond["measures"]["checked_cells"] == p**3

    def test_default_level_follows_fine_tables(self, tmp_path, capsys):
        # Tables of resolution 9: an omitted --level checks the identities
        # at 9, and the report is the one --level 9 writes.
        family = tmp_path / "r8.json"
        family.write_text(json.dumps(gen.pass_family(random.Random(5), 2, 8, -2, 40).document()))
        argv = ["filters", "--p", "2", "--input", str(family), "--depth", "12"]
        outputs = []
        for extra in ([], ["--level", "9"]):
            out = tmp_path / f"report{len(outputs)}.json"
            assert main(argv + extra + ["--output", str(out)]) == 0
            assert capsys.readouterr().err == ""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["parameters"]["level"] == report["filters"]["resolution"] == 9
        cond = [c for c in report["conditions"] if c["name"] == "filter-identities"][0]
        assert cond["measures"]["level"] == 9 and cond["measures"]["checked_cells"] == 2**9

    @pytest.mark.parametrize(
        "path", ["families/shannon2.json", "families/three-shell2.json",
                 "families/mutant-moved-cylinder-p2.json"],
    )
    def test_default_level_is_four_for_coarse_tables(self, path, tmp_path):
        # Where 4 was a valid default, reports keep their bytes, PASS or FAIL.
        outputs, codes = [], []
        for extra in ([], ["--level", "4"]):
            out = tmp_path / f"report{len(outputs)}.json"
            codes.append(main(["filters", "--p", "2", "--input", path, "--output", str(out)] + extra))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and codes[0] == codes[1]
        assert json.loads(outputs[0])["parameters"]["level"] == 4


class TestSignalCommands:
    def test_synthesize_and_transform(self, tmp_path):
        samples = tmp_path / "psi.csv"
        code, report = run_command(
            [
                "synthesize", "--p", "2",
                "--input", "families/shannon2.json",
                "--grid", "3", "3",
                "--samples", str(samples),
            ]
        )
        assert code == 0
        assert abs(report["conditions"][0]["measures"]["norm"] - 1.0) < 1e-12
        assert samples.read_text().startswith("cell,re,im")

        spectrum = tmp_path / "spec.csv"
        code, report = run_command(
            [
                "transform", "--p", "2", "--grid", "3", "3",
                "--direction", "forward",
                "--input", str(samples), "--samples", str(spectrum),
            ]
        )
        assert code == 0
        assert report["conditions"][0]["measures"]["round_trip_error"] <= 1e-10

        back = tmp_path / "back.csv"
        code, report = run_command(
            [
                "transform", "--p", "2", "--grid", "3", "3",
                "--direction", "inverse",
                "--input", str(spectrum), "--samples", str(back),
            ]
        )
        assert code == 0
        # Inverse of the forward transform returns the original samples.
        import numpy as np
        from vilenkin_wavelets.transform import QuotientGrid, read_csv

        grid = QuotientGrid(2, 3, 3)
        with open(samples) as f1, open(back) as f2:
            a = read_csv(grid, f1)
            b = read_csv(grid, f2)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_header_only_samples_are_the_zero_signal(self, tmp_path):
        # A cell with no row reads as 0, so a file of the header alone is
        # the zero signal, and its transform too.
        samples = tmp_path / "zero.csv"
        samples.write_text("cell,re,im\n")
        spectrum = tmp_path / "spec.csv"
        code, report = run_command(
            [
                "transform", "--p", "2", "--grid", "1", "2",
                "--input", str(samples), "--samples", str(spectrum),
            ]
        )
        assert code == 0
        measures = report["conditions"][0]["measures"]
        assert measures["input_norm"] == measures["output_norm"] == 0
        rows = spectrum.read_text().splitlines()
        assert rows[0] == "cell,re,im" and len(rows) == 1 + 2**3
        assert all(row.endswith(",0.0,0.0") for row in rows[1:])


class TestCsvCommandInputErrors:
    """Grid and CSV input errors exit 2 with a one-line message."""

    def _fails_with(self, capsys, argv, message):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and message in err, err

    def test_base_above_36_rejected_before_any_file(self, tmp_path, capsys):
        samples = tmp_path / "psi.csv"
        self._fails_with(
            capsys,
            ["synthesize", "--p", "37", "--input", "families/shannon2.json",
             "--grid", "1", "1", "--samples", str(samples)],
            "bases up to 36; got 37",
        )
        assert not samples.exists()
        # The base is checked before the missing input file is opened.
        self._fails_with(
            capsys,
            ["transform", "--p", "37", "--grid", "1", "1",
             "--input", str(tmp_path / "missing.csv"), "--samples", str(samples)],
            "bases up to 36; got 37",
        )
        assert not samples.exists()

    @pytest.mark.parametrize("command", ["synthesize", "transform"])
    def test_empty_grid(self, command, tmp_path, capsys):
        self._fails_with(
            capsys,
            [command, "--p", "2", "--input", "families/shannon2.json",
             "--grid", "0", "0", "--samples", str(tmp_path / "out.csv")],
            "--grid 0 0: grid depths must be nonnegative and not both zero",
        )

    @pytest.mark.parametrize("command", ["synthesize", "transform"])
    def test_negative_depth(self, command, tmp_path, capsys):
        self._fails_with(
            capsys,
            [command, "--p", "2", "--input", "families/shannon2.json",
             "--grid", "-1", "2", "--samples", str(tmp_path / "out.csv")],
            "--grid -1 2: grid depths must be nonnegative and not both zero",
        )

    def test_missing_csv_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        self._fails_with(
            capsys,
            ["transform", "--p", "2", "--grid", "1", "1",
             "--input", str(missing), "--samples", str(tmp_path / "out.csv")],
            f"cannot read {missing}",
        )

    def test_unwritable_synthesize_samples(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "psi.csv"
        self._fails_with(
            capsys,
            ["synthesize", "--p", "2", "--input", "families/shannon2.json",
             "--grid", "1", "1", "--samples", str(target)],
            f"cannot write {target}",
        )

    def test_unwritable_transform_samples(self, tmp_path, capsys):
        samples = tmp_path / "psi.csv"
        code, _ = run_command(
            ["synthesize", "--p", "2", "--input", "families/shannon2.json",
             "--grid", "1", "1", "--samples", str(samples)]
        )
        assert code == 0
        target = tmp_path / "no-such-dir" / "spec.csv"
        self._fails_with(
            capsys,
            ["transform", "--p", "2", "--grid", "1", "1",
             "--input", str(samples), "--samples", str(target)],
            f"cannot write {target}",
        )

    def test_digit_outside_base_in_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("cell,re,im\n.2,1.0,0.0\n")
        self._fails_with(
            capsys,
            ["transform", "--p", "2", "--grid", "1", "1",
             "--input", str(bad), "--samples", str(tmp_path / "out.csv")],
            "line 2: digit '2' in '.2' is >= base 2",
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_csv_sample(self, value, row, tmp_path, capsys):
        rows = [".,0.0,0.0", ".1,1.0,0.0", "1.,0.0,1.0", "1.1,0.5,0.5"]
        rows[row] = rows[row].replace("0.0", value, 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("cell,re,im\n" + "\n".join(rows) + "\n")
        self._fails_with(
            capsys,
            ["transform", "--p", "2", "--grid", "1", "1",
             "--input", str(bad), "--samples", str(tmp_path / "out.csv")],
            f"line {row + 2}: non-finite value {value!r}",
        )

    @pytest.mark.parametrize(
        "direction, cell, value",
        [
            # The forward samples are finite; their round trip overflows.
            ("forward", ".11", "1e308"),
            # Every sample is finite; the norm of the input overflows.
            ("forward", ".11", "1e200"),
            ("inverse", "1.", "-1e308"),
        ],
    )
    def test_finite_samples_whose_transform_overflows(
        self, direction, cell, value, tmp_path, capsys
    ):
        samples = tmp_path / "big.csv"
        samples.write_text(f"cell,re,im\n{cell},{value},0.0\n")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            self._fails_with(
                capsys,
                ["transform", "--p", "2", "--grid", "1", "2", "--direction", direction,
                 "--input", str(samples), "--samples", str(out)],
                f"{samples}: the {direction} transform of these samples overflows float64",
            )
        assert not out.exists()

    def test_non_utf8_csv_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"cell,re,im\n\xff\xfe,1,0\n")
        self._fails_with(
            capsys,
            ["transform", "--p", "2", "--grid", "1", "1",
             "--input", str(bad), "--samples", str(tmp_path / "out.csv")],
            "cannot decode the CSV input: 'utf-8' codec can't decode byte 0xff",
        )


class TestInputErrorsExitTwo:
    """Malformed family files, unwritable reports and out-of-range numeric
    options exit 2 with a one-line message."""

    _fails_with = TestCsvCommandInputErrors._fails_with

    def test_non_utf8_family_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"p": 2}')
        self._fails_with(
            capsys,
            ["verify", "--p", "2", "--input", str(bad)],
            f"cannot decode {bad}: 'utf-8' codec can't decode byte 0xff",
        )

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "r.json"
        self._fails_with(
            capsys,
            ["verify", "--p", "2", "--input", "families/shannon2.json",
             "--output", str(target)],
            f"cannot write {target}",
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mra", "--p", "2", "--input", "families/shannon2.json", "--depth", "0"],
             "--depth must be at least 1, got 0"),
            (["filters", "--p", "2", "--input", "families/shannon2.json", "--depth", "-3"],
             "--depth must be at least 1, got -3"),
            (["search", "--p", "2", "--window", "3", "1"],
             "--window 3 1: the lower bound exceeds the upper bound"),
            (["search", "--p", "2", "--window", "0", "1", "--budget", "-1"],
             "--budget must be nonnegative, got -1"),
        ],
        ids=["mra-depth", "filters-depth", "window", "budget"],
    )
    def test_numeric_options_rejected_before_work(self, argv, message, capsys, monkeypatch):
        import vilenkin_wavelets.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        for name in ("parse_family_file", "search_wavelet_sets"):
            monkeypatch.setattr(cli, name, no_work)
        self._fails_with(capsys, argv, message)


    def test_filters_level_below_table_resolution(self, capsys, monkeypatch):
        import vilenkin_wavelets.cli as cli

        def no_identities(*args, **kwargs):
            raise AssertionError("identities checked before the level")

        monkeypatch.setattr(cli, "verify_filter_identities", no_identities)
        self._fails_with(
            capsys,
            ["filters", "--p", "2", "--input", "families/shannon2.json", "--level", "0"],
            "identity level 0 is coarser than the table resolution 1",
        )

    @pytest.mark.parametrize("p", ["1", "0", "256"])
    def test_search_base_out_of_range(self, p, capsys, monkeypatch):
        import vilenkin_wavelets.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("search started before the base was checked")

        monkeypatch.setattr(cli, "search_wavelet_sets", no_work)
        self._fails_with(capsys, ["search", "--p", p, "--window", "0", "1"], f"--p {p}: base")


class TestSearchCommand:
    def test_search_finds_shannon(self):
        code, report = run_command(["search", "--p", "2", "--window", "0", "2"])
        assert code == 0
        docs = report["families"]
        shannon_doc = {
            "p": 2,
            "family": [
                {"name": "omega1", "cylinders": [{"resolution": 0, "digits": {"0": 1}}]}
            ],
        }
        assert shannon_doc in docs

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p", "2", "--window", "-30", "30", "--budget", "5"],
             "search window -30..30 holds 2**61 atoms, more than the cap 2000000"),
            (["--p", "2", "--window", "-3", "6"],
             "search window -3..6 has up to 16**64 transversal families, "
             "more than the cap 2000000; give a budget"),
            (["--p", "13", "--window", "0", "0"],
             "search window 0..0 has up to 13**12 transversal families"),
        ],
        ids=["atoms", "transversals", "members"],
    )
    def test_preflight_bound_exits_one_before_atoms(self, argv, message, capsys, monkeypatch):
        import vilenkin_wavelets.verifier as verifier

        def no_atoms(*args, **kwargs):
            raise AssertionError("atoms built before the bound was checked")

        monkeypatch.setattr(verifier, "_window_cell", no_atoms)
        monkeypatch.setattr(verifier.itertools, "product", no_atoms)
        code = main(["search"] + argv)
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and message in err, err

    def test_budget_lifts_the_transversal_bound(self):
        code, report = run_command(
            ["search", "--p", "2", "--window", "-3", "6", "--budget", "1000"]
        )
        measures = report["conditions"][0]["measures"]
        assert code == 1 and report["verdict"] == "INCONCLUSIVE"
        assert measures == {"examined": 1000, "found": 0, "exhausted": True}

    def test_window_below_resolution_zero_has_no_candidates(self):
        code, report = run_command(["search", "--p", "2", "--window", "-2", "-1"])
        measures = report["conditions"][0]["measures"]
        assert code == 0 and measures == {"examined": 0, "found": 0, "exhausted": False}


class TestMainEntryPoint:
    def test_writes_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify", "--p", "2", "--input", "families/shannon2.json",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_error_goes_to_stderr(self, capsys):
        code = main(["verify", "--p", "3", "--input", "families/shannon2.json"])
        assert code == 2
        assert "does not match" in capsys.readouterr().err
