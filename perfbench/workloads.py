"""The four workloads: seeded op lists and the checks of every op.

Each builder writes its inputs under a work directory and returns the
ops of one pass.  A CLI op runs ``cli.main(argv + ["--output", path])``
in-process; a library op calls the package's public functions.  Every
check compares against references that share no code with the library
(gen, gridref, searchref and the oracle-derived expected_search.json),
never against the library's own output.

Failures that match a known defect of the library are classified, so a
change in any other kind of failure shows as ``correct: false``:

- resolution-cap: ResolutionCapError once dilates pass resolution 24;
- negative-resolution-member: a member merges into one cylinder of
  resolution < 0 and ``verify`` exits 1 with no report;
- two-scale-false-fail: verify_two_scale reports FAIL with no failing
  cell on an exactly resolved spectrum.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import gridref
import searchref

HERE = os.path.dirname(os.path.abspath(__file__))

KNOWN_DEFECTS = {
    "exceeds the cap": "resolution-cap",
    "integer part requires resolution >= 0": "negative-resolution-member",
}


@dataclass
class Op:
    label: str
    argv: list[str] | None = None  # CLI op, run as cli.main(argv)
    output: str | None = None  # report path of a CLI op
    call: Callable | None = None  # library op
    expect: dict = field(default_factory=dict)
    check: Callable | None = None  # (op, result) -> Outcome


@dataclass
class Result:
    code: int | None
    value: object
    stderr: str
    raised: BaseException | None


@dataclass
class Outcome:
    ok: bool
    wrong_verdict: bool = False
    defect: str | None = None  # known-defect class of a failed op
    detail: str = ""


def _known(text: str) -> str | None:
    for needle, name in KNOWN_DEFECTS.items():
        if needle in text:
            return name
    return None


def _failure(result: Result, what: str) -> Outcome:
    text = result.stderr + (repr(result.raised) if result.raised else "")
    return Outcome(False, defect=_known(text), detail=f"{what}: {text.strip()[:200]}")


def _report(op: Op, result: Result) -> dict | None:
    if result.raised is not None or not os.path.exists(op.output):
        return None
    with open(op.output, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _conditions(report: dict) -> dict:
    return {c["name"]: c for c in report["conditions"]}


def _truncation(p: int, depth: int) -> str:
    """Exact string of the measure 1 - p^-J of a depth-J truncation."""
    return f"{p**depth - 1}*{p}^{-depth}"


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    """Seeded order, except that the first op (the smallest stratum's, which
    also serves as the warm-up op) stays first."""
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


def _cli(work: str, name: str, argv: list[str], expect: dict, check) -> Op:
    output = os.path.join(work, f"{name}.report.json")
    return Op(name, argv=argv + ["--output", output], output=output, expect=expect, check=check)


# Families per stratum and pass: seeds differ in the families they draw,
# and more of them per stratum keep the pass cost alike across seeds.
COPIES = {"verify-mix": 4, "mra-certify": 2}

# -- verify-mix -----------------------------------------------------------------------

# (p, family resolution R, lowest pinned position w, cells).  p = 2 runs
# past 2R - w > 24, where verify hits the resolution cap.
VERIFY_STRATA = [
    (2, 0, 0, 1), (2, 2, -1, 6), (2, 4, -2, 12), (2, 6, -2, 24), (2, 8, -2, 48),
    (2, 9, -2, 100), (2, 10, -2, 40), (2, 11, -2, 60), (2, 11, -3, 40), (2, 12, -2, 40),
    (2, 13, -1, 40),
    (3, 0, 0, 2), (3, 2, -1, 14), (3, 4, -2, 40), (3, 5, -2, 50), (3, 6, -2, 60), (3, 7, -2, 70),
    (5, 0, 0, 4), (5, 2, -1, 48), (5, 3, -1, 80), (5, 4, -2, 120),
]


def _check_verify(op: Op, result: Result) -> Outcome:
    want = op.expect["conditions"]
    report = _report(op, result)
    if report is None:
        return _failure(result, "no report")
    got = {name: c["passed"] for name, c in _conditions(report).items()}
    verdict = "PASS" if all(want.values()) else "FAIL"
    if report["verdict"] != verdict or got != want:
        return Outcome(False, wrong_verdict=True, detail=f"verdict {report['verdict']} {got} != {want}")
    if result.code != (0 if verdict == "PASS" else 1):
        return Outcome(False, detail=f"exit {result.code}")
    return Outcome(True)


def build_verify_mix(rng: random.Random, work: str) -> list[Op]:
    ops = []
    for index, (p, R, w, n) in enumerate(VERIFY_STRATA * COPIES["verify-mix"]):
        base = gen.pass_family(rng, p, R, w, n)
        fams = [base, gen.shift_mutant(rng, base)]
        if p >= 3:
            fams.append(gen.dup_mutant(rng, base))
        grouped = gen.group_shift_mutant(rng, base) if index % 3 == 0 else None
        if grouped is not None:
            fams.append(grouped)
        for fam in fams:
            name = f"verify-p{p}-R{R}w{w}-{fam.kind}-{index}"
            path = _write(os.path.join(work, f"{name}.json"), fam.document())
            ops.append(_cli(
                work, name, ["verify", "--p", str(p), "--input", path],
                {"conditions": gen.expected_conditions(fam)}, _check_verify,
            ))
    return _shuffled(rng, ops)


# -- search-enum ----------------------------------------------------------------------

# Repeats per pass, so that small windows give enough latency samples.
SEARCH_REPEATS = {(2, -1, 1): 12, (2, -2, 1): 6, (2, -3, 1): 2, (2, -1, 2): 1,
                  (3, -1, 0): 10, (3, -2, 0): 1, (3, 0, 1): 1, (5, 0, 0): 6}


def _check_search(op: Op, result: Result) -> Outcome:
    want = op.expect
    report = _report(op, result)
    if report is None:
        return _failure(result, "no report")
    measures = report["conditions"][0]["measures"]
    lo, hi = want["window"]
    digest = searchref.family_digest(
        [searchref.cells_of_document(doc, lo, hi) for doc in report["families"]]
    )
    if (measures["found"], digest) != (want["found"], want["digest"]):
        return Outcome(False, wrong_verdict=True, detail=f"found {measures['found']} {digest}")
    if report["verdict"] != "PASS" or result.code != 0 or measures["examined"] != want["examined"]:
        return Outcome(False, detail=f"verdict {report['verdict']} exit {result.code}")
    return Outcome(True)


def build_search_enum(rng: random.Random, work: str) -> list[Op]:
    with open(os.path.join(HERE, "expected_search.json"), encoding="utf-8") as handle:
        expected = {(e["p"], *e["window"]): e for e in json.load(handle)}
    ops = []
    for (p, lo, hi), repeats in SEARCH_REPEATS.items():
        for i in range(repeats):
            name = f"search-p{p}-w{lo}_{hi}-{i}"
            ops.append(_cli(
                work, name, ["search", "--p", str(p), "--window", str(lo), str(hi)],
                expected[(p, lo, hi)], _check_search,
            ))
    return _shuffled(rng, ops)


# -- mra-certify ----------------------------------------------------------------------

# (p, R, w, cells), as in VERIFY_STRATA.
MRA_STRATA = [
    (2, 0, 0, 1), (2, 2, -1, 6), (2, 3, -1, 10), (2, 4, -1, 12), (2, 4, -2, 12), (2, 5, -2, 16),
    (2, 6, -2, 20), (2, 7, -2, 24),
    (3, 0, 0, 2), (3, 2, -1, 14), (3, 3, -1, 30), (3, 4, -2, 40),
    (5, 0, 0, 4), (5, 2, -1, 48), (5, 3, -1, 80),
]
LEVEL_CAP = {2: 12, 3: 7, 5: 5}  # identity walks of at most p**level cells
DEFAULT_DEPTH = 20  # the CLI's --depth default


@dataclass
class MraCase:
    fam: gen.Family
    depth: int
    default_depth: bool
    level: int
    mra_pass: bool
    table_resolution: int
    rows: int
    m0_ones: int


def _mra_case(rng: random.Random, stratum: tuple, index: int) -> MraCase:
    """A PASS family whose spectrum resolves by depth MAX - R - 2, with
    its depth, identity level and the reference spectrum data."""
    p = stratum[0]
    for _ in range(1000):
        fam = gen.pass_family(rng, *stratum)
        L, w = fam.resolution, fam.lowest
        top = gen.MAX_RESOLUTION - L - 2
        fixed = next((J for J in range(1, top + 1) if gen.spectrum(fam, J).resolved), None)
        if fixed is None:
            continue
        low = max(fixed, L + max(2, 1 - w))  # verify_two_scale needs window + L <= J
        if low > top:
            continue
        spec = gen.spectrum(fam, low)
        table = gen.filter_resolution(fam, spec)
        if table + 1 > LEVEL_CAP[p]:
            continue
        default = index % 4 == 3 and low <= DEFAULT_DEPTH
        depth = DEFAULT_DEPTH if default else (top if index % 2 else low)
        rows = gen.cell_count(p, spec.cylinders, table)
        # m0 vanishes on the first dilates of the members.
        zeros = sum(gen.cell_count(p, fam.cylinders(m), table - 1) for m in fam.members)
        return MraCase(
            fam, depth, default, [table, table + 1, LEVEL_CAP[p]][index % 3],
            gen.translates_disjoint(spec.cylinders), table, rows, rows - zeros,
        )
    raise RuntimeError(f"no usable MRA family in stratum {stratum}")


def _check_mra(op: Op, result: Result) -> Outcome:
    case: MraCase = op.expect["case"]
    report = _report(op, result)
    if report is None:
        return _failure(result, "no report")
    verdict = "PASS" if case.mra_pass else "FAIL"
    if report["verdict"] != verdict:
        return Outcome(False, wrong_verdict=True, detail=f"verdict {report['verdict']}")
    spectrum = _conditions(report)["scaling-spectrum-translates"]["measures"]
    identity = spectrum["rows"][0]
    if (
        result.code != (0 if case.mra_pass else 1)
        or not report["spectrum"]["self_similar_tail_resolved"]
        or identity["lattice_index"] != 0
        or identity["measure"]["exact"] != _truncation(case.fam.p, case.depth)
    ):
        return Outcome(False, detail=f"exit {result.code} spectrum {report['spectrum']}")
    return Outcome(True)


def _check_filters(op: Op, result: Result) -> Outcome:
    case: MraCase = op.expect["case"]
    p = case.fam.p
    report = _report(op, result)
    if report is None:
        return _failure(result, "no report")
    verdict = "PASS" if case.mra_pass else "FAIL"
    if report["verdict"] != verdict:
        return Outcome(False, wrong_verdict=True, detail=f"verdict {report['verdict']}")
    if result.code != (0 if case.mra_pass else 1):
        return Outcome(False, detail=f"exit {result.code}")
    if case.mra_pass:
        bank = report["filters"]
        identities = _conditions(report)["filter-identities"]["measures"]
        got = (
            bank["resolution"], len(bank["rows"]), sum(row["m0"] for row in bank["rows"]),
            identities["checked_cells"], identities["skipped_cells"],
        )
        want = (case.table_resolution, case.rows, case.m0_ones, p**case.level, 0)
        if got != want:
            return Outcome(False, detail=f"filters {got} != {want}")
    return Outcome(True)


def _certify(vw, path: str, depth: int):
    """Calderon and two-scale on the same spectrum, as demos/02 does."""
    family = vw.famio.parse_family_file(path)
    verdict = vw.verifier.is_wavelet_set(family)
    sigma = vw.mra.accumulate_omega_sigma(family, depth, verdict=verdict)
    bank = vw.mra.build_filters(family, sigma, mra=vw.mra.check_mra_condition(sigma))
    calderon = vw.mra.verify_calderon(family, sigma, verdict=verdict)
    return calderon, vw.mra.verify_two_scale(family, sigma, bank)


def _check_certify(op: Op, result: Result) -> Outcome:
    case: MraCase = op.expect["case"]
    if result.raised is not None:
        return _failure(result, "raised")
    calderon, two_scale = result.value
    if not calderon.passed or not calderon.pieces_disjoint:
        return Outcome(False, wrong_verdict=True, detail="calderon FAIL")
    if calderon.truncation_measure.exact_string() != _truncation(case.fam.p, case.depth):
        return Outcome(False, detail=f"truncation {calderon.truncation_measure.exact_string()}")
    if not two_scale.passed:
        false_fail = not two_scale.failing_cells
        return Outcome(
            False, wrong_verdict=True, defect="two-scale-false-fail" if false_fail else None,
            detail=f"two-scale FAIL, {len(two_scale.failing_cells)} failing cells",
        )
    return Outcome(True)


def build_mra_certify(rng: random.Random, work: str, vw) -> list[Op]:
    ops = []
    for index, (p, R, w, n) in enumerate(MRA_STRATA * COPIES["mra-certify"]):
        case = _mra_case(rng, (p, R, w, n), index)
        name = f"mra-p{p}-R{R}w{w}-{index}"
        path = _write(os.path.join(work, f"{name}.json"), case.fam.document())
        depth = [] if case.default_depth else ["--depth", str(case.depth)]
        expect = {"case": case}
        ops.append(_cli(work, f"{name}-mra", ["mra", "--p", str(p), "--input", path] + depth,
                        expect, _check_mra))
        ops.append(_cli(work, f"{name}-filters",
                        ["filters", "--p", str(p), "--input", path, "--level", str(case.level)] + depth,
                        expect, _check_filters))
        if case.mra_pass:
            ops.append(Op(f"{name}-certify", call=lambda path=path, d=case.depth: _certify(vw, path, d),
                          expect=expect, check=_check_certify))
    return _shuffled(rng, ops)


# -- grid-numeric ---------------------------------------------------------------------

GRID_STRATA = [(2, 14), (2, 15), (3, 9), (5, 6)]  # (p, M + N)
TOLERANCE = 1e-12


def _check_grid(op: Op, result: Result) -> Outcome:
    want = op.expect
    report = _report(op, result)
    if report is None:
        return _failure(result, "no report")
    if report["verdict"] != "PASS" or result.code != 0:
        return Outcome(False, wrong_verdict=True, detail=f"verdict {report['verdict']}")
    cells, values = gridref.read_samples(want["samples"])
    if cells != list(gridref.labels(*want["grid"])):
        return Outcome(False, detail="cell labels")
    ref = want["values"]
    error = float(np.max(np.abs(values - ref)))
    if error > TOLERANCE * max(1.0, float(np.max(np.abs(ref)))):
        return Outcome(False, detail=f"samples differ from numpy.fft by {error:.3g}")
    measures = report["conditions"][0]["measures"]
    if "round_trip_error" in measures:
        # Parseval: the transform keeps the norm; and it inverts exactly.
        in_norm, out_norm = want["norms"]
        if (
            abs(measures["input_norm"] - in_norm) > 1e-9 * in_norm
            or abs(measures["output_norm"] - out_norm) > 1e-9 * in_norm
            or abs(in_norm - out_norm) > 1e-9 * in_norm
            or measures["round_trip_error"] > 1e-10
        ):
            return Outcome(False, detail=f"norms {measures}")
    elif abs(measures["norm"] - want["norms"][1]) > 1e-9 or measures["cells"] != ref.size:
        return Outcome(False, detail=f"synthesis {measures}")
    return Outcome(True)


def build_grid_numeric(rng: random.Random, work: str) -> list[Op]:
    chains = []
    for index, (p, n) in enumerate(GRID_STRATA):
        fam = gen.pass_family(rng, p, 2, -1, {2: 6, 3: 14, 5: 48}[p])
        L, w = fam.resolution, fam.lowest
        M = rng.randint(L, n - (1 - w))  # dual window -N+1..M holds the family
        N = n - M
        u = 1 + index % (p - 1)
        cyls = [(res, dict(digits)) for res, digits in fam.cylinders(fam.members[u - 1])]
        psi = gridref.inverse(gridref.indicator(p, N, M, cyls), p, M)
        spectrum = gridref.forward(psi, p, N)
        back = gridref.inverse(spectrum, p, M)
        norm = gridref.norm(psi, p, N)
        name = f"grid-p{p}-n{n}"
        path = _write(os.path.join(work, f"{name}.json"), fam.document())
        samples = [os.path.join(work, f"{name}-{s}.csv") for s in ("psi", "fwd", "inv")]
        grid = ["--grid", str(M), str(N)]
        chains.append([
            _cli(work, f"{name}-synthesize",
                 ["synthesize", "--p", str(p), "--input", path, "--set", str(u), "--samples", samples[0]] + grid,
                 {"samples": samples[0], "grid": (p, M, N), "values": psi, "norms": (norm, norm)},
                 _check_grid),
            _cli(work, f"{name}-forward",
                 ["transform", "--p", str(p), "--direction", "forward",
                  "--input", samples[0], "--samples", samples[1]] + grid,
                 {"samples": samples[1], "grid": (p, N, M), "values": spectrum,
                  "norms": (norm, gridref.norm(spectrum, p, M))},
                 _check_grid),
            _cli(work, f"{name}-inverse",
                 ["transform", "--p", str(p), "--direction", "inverse",
                  "--input", samples[1], "--samples", samples[2]] + grid,
                 {"samples": samples[2], "grid": (p, M, N), "values": back,
                  "norms": (gridref.norm(spectrum, p, M), gridref.norm(back, p, N))},
                 _check_grid),
        ])
    return [op for chain in chains for op in chain]
