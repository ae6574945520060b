"""Command-line front end.

Commands: verify, mra, filters, synthesize, transform, search.  Every
command produces a report (JSON by default) whose bytes depend only on
the inputs and the tool version; timing is only filled in when --timing
is passed so reports stay byte-stable.  Exit codes: 0 for PASS, 1 for
FAIL, for INCONCLUSIVE (search --budget) or resource limits, 2 for input
errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import __version__
from .errors import DigitError, ParseError, ResolutionCapError, SchemaError, VilenkinError
from .famio import (
    build_report,
    emit_report,
    family_to_document,
    measure_json,
    parse_family_file,
    verdict_conditions,
)
from .group import check_base, check_text_base
from .mra import (
    accumulate_omega_sigma,
    build_filters,
    check_identity_level,
    check_mra_condition,
    verify_filter_identities,
)
from .setalg import MAX_REFINE_CELLS, Measure, _exceeds
from .transform import QuotientGrid, forward, inverse, read_csv, synthesize_wavelet, write_csv
from .verifier import is_wavelet_set, search_wavelet_sets

DEFAULT_LEVEL = 4  # filters --level when the tables are no finer


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vilenkin-wavelets",
        description="Exact wavelet-set verification and construction on Vilenkin groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, needs_input: bool = True):
        p.add_argument("--p", type=int, required=True, help="digit base")
        if needs_input:
            p.add_argument("--input", required=True, help="family file (JSON)")
        p.add_argument("--output", help="write the report to this file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true", help="include wall time")

    v = sub.add_parser("verify", help="decide the wavelet-set conditions")
    common(v)

    m = sub.add_parser("mra", help="verify plus the scaling-spectrum criterion")
    common(m)
    m.add_argument("--depth", type=int, default=20, help="truncation depth J")

    f = sub.add_parser("filters", help="construct filters and check their identities")
    common(f)
    f.add_argument("--depth", type=int, default=20)
    f.add_argument("--level", type=int, default=None,
                   help="identity check resolution (default: 4, or the filter "
                        "table resolution when that is finer)")

    s = sub.add_parser("synthesize", help="sample a wavelet onto a grid as CSV")
    common(s)
    s.add_argument("--grid", type=int, nargs=2, metavar=("M", "N"), required=True)
    s.add_argument("--set", type=int, default=1, dest="member",
                   help="which member set (1-based)")
    s.add_argument("--samples", required=True, help="CSV output path")

    t = sub.add_parser("transform", help="forward/inverse transform of a CSV signal")
    common(t, needs_input=False)
    t.add_argument("--grid", type=int, nargs=2, metavar=("M", "N"), required=True)
    t.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    t.add_argument("--input", required=True, help="CSV signal path")
    t.add_argument("--samples", required=True, help="CSV output path")
    t.add_argument("--tolerance", type=float, default=1e-10)

    q = sub.add_parser("search", help="enumerate wavelet families in a digit window")
    common(q, needs_input=False)
    q.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"), required=True)
    q.add_argument("--budget", type=int, default=None)

    return parser


def _check_numbers(args) -> None:
    """Reject numeric options outside their domain before any work starts."""
    if getattr(args, "depth", 1) < 1:
        raise SchemaError(f"--depth must be at least 1, got {args.depth}")
    if not 0 <= getattr(args, "tolerance", 0) < math.inf:  # also refuses NaN
        raise SchemaError(f"--tolerance must be finite and nonnegative, got {args.tolerance}")
    if args.command == "search":
        try:
            check_base(args.p)
        except DigitError as exc:
            raise SchemaError(f"--p {args.p}: {exc}") from exc
        lo, hi = args.window
        if lo > hi:
            raise SchemaError(f"--window {lo} {hi}: the lower bound exceeds the upper bound")
        if args.budget is not None and args.budget < 0:
            raise SchemaError(f"--budget must be nonnegative, got {args.budget}")


def _load_family(args):
    family = parse_family_file(args.input)
    if family.p != args.p:
        raise SchemaError(
            f"--p {args.p} does not match the family file base {family.p}"
        )
    return family


def _cmd_verify(args) -> tuple[dict, int]:
    family = _load_family(args)
    report = is_wavelet_set(family)
    verdict = "PASS" if report.overall else "FAIL"
    doc = build_report(
        version=__version__,
        command="verify",
        parameters={"p": args.p, "input": args.input},
        verdict=verdict,
        conditions=verdict_conditions(report),
        extra={"certificate": report.certificate},
    )
    return doc, 0 if report.overall else 1


def _mra_condition_json(mra) -> dict:
    return {
        "name": "scaling-spectrum-translates",
        "passed": mra.passed,
        "exact": True,
        "witnesses": mra.witnesses,
        "measures": {
            "status": mra.status,
            "certification": "self-similar-fixed-point",
            "depth": mra.depth,
            "rows": [
                {
                    "lattice_index": row.lattice_index,
                    "measure": measure_json(row.measure),
                    "expected": row.expected(),
                }
                for row in mra.rows
            ],
        },
    }


def _spectrum_stage(args):
    """Load and verify the family, then decide the scaling-spectrum criterion.

    Returns (report conditions so far, family, spectrum, criterion report);
    the last two are None when the family does not verify.
    """
    family = _load_family(args)
    verdict_report = is_wavelet_set(family)
    conditions = verdict_conditions(verdict_report)
    if not verdict_report.overall:
        return conditions, family, None, None
    sigma = accumulate_omega_sigma(family, args.depth, verdict=verdict_report)
    mra = check_mra_condition(sigma)
    conditions.append(_mra_condition_json(mra))
    return conditions, family, sigma, mra


def _cmd_mra(args) -> tuple[dict, int]:
    params = {"p": args.p, "input": args.input, "depth": args.depth}
    conditions, _, sigma, mra = _spectrum_stage(args)
    if mra is None:
        verdict, extra = "FAIL", None
    else:
        verdict = mra.status
        extra = {
            "spectrum": {
                "depth": sigma.depth,
                "tail_bound": measure_json(sigma.tail_bound()),
                "truncated_measure": measure_json(sigma.truncated_measure()),
                "self_similar_tail_resolved": True,
            }
        }
    doc = build_report(
        version=__version__, command="mra", parameters=params,
        verdict=verdict, conditions=conditions, extra=extra,
    )
    return doc, 0 if verdict == "PASS" else 1


def _cmd_filters(args) -> tuple[dict, int]:
    params = {
        "p": args.p, "input": args.input, "depth": args.depth,
        "level": DEFAULT_LEVEL if args.level is None else args.level,
    }
    conditions, family, sigma, mra = _spectrum_stage(args)
    if mra is None or not mra.passed:
        doc = build_report(
            version=__version__, command="filters", parameters=params,
            verdict="FAIL" if mra is None else mra.status, conditions=conditions,
        )
        return doc, 1
    bank = build_filters(family, sigma, mra=mra)
    if args.level is None:  # the table resolution is known only now
        params["level"] = max(DEFAULT_LEVEL, bank.resolution)
    try:
        check_identity_level(bank, params["level"])
    except ResolutionCapError as exc:
        raise SchemaError(str(exc)) from exc
    identities = verify_filter_identities(bank, params["level"])
    conditions.append(
        {
            "name": "filter-identities",
            "passed": identities.passed,
            "exact": identities.exact,
            "witnesses": identities.failing_cells,
            "measures": {
                "level": identities.level,
                "checked_cells": identities.checked_cells,
                "skipped_cells": 0,  # a level set has a value at every point
                "skipped_mass": measure_json(Measure.zero(args.p)),
                "formulations_agree": identities.formulations_agree,
            },
        }
    )
    verdict = "PASS" if identities.passed else "FAIL"
    doc = build_report(
        version=__version__, command="filters", parameters=params,
        verdict=verdict, conditions=conditions,
        extra={"filters": bank.to_json()},
    )
    return doc, 0 if identities.passed else 1


def _csv_grid(args) -> QuotientGrid:
    """The primal grid of a CSV command, checked before any file is opened
    or any array allocated: more than MAX_REFINE_CELLS cells is refused."""
    M, N = args.grid
    try:
        check_text_base(args.p)  # CSV cell labels spell one digit per character
        grid = QuotientGrid(args.p, M, N)
    except (ValueError, DigitError, ParseError) as exc:
        raise SchemaError(f"--p {args.p} --grid {M} {N}: {exc}") from exc
    if _exceeds(args.p, M + N, MAX_REFINE_CELLS):
        raise ResolutionCapError(
            f"--grid {M} {N} holds {args.p}**{M + N} cells, more than the cap {MAX_REFINE_CELLS}"
        )
    return grid


def _open_csv(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise SchemaError(f"cannot {verb} {path}: {exc}") from exc


def _cmd_synthesize(args) -> tuple[dict, int]:
    grid = _csv_grid(args)
    family = _load_family(args)
    if not 1 <= args.member <= family.p - 1:
        raise SchemaError(f"--set must be in [1, {family.p - 1}]")
    psi = synthesize_wavelet(family.sets[args.member - 1], grid)
    with _open_csv(args.samples, "w") as handle:
        write_csv(psi, handle)
    doc = build_report(
        version=__version__, command="synthesize",
        parameters={
            "p": args.p, "input": args.input, "grid": list(args.grid),
            "set": args.member, "samples": args.samples,
        },
        verdict="PASS",
        conditions=[
            {
                "name": "synthesis",
                "passed": True,
                "exact": False,
                "witnesses": [],
                "measures": {"norm": psi.norm(), "cells": grid.size},
            }
        ],
    )
    return doc, 0


def _cmd_transform(args) -> tuple[dict, int]:
    import numpy as np  # only the grid commands load numpy

    primal = _csv_grid(args)
    in_grid = primal if args.direction == "forward" else primal.dual()
    with _open_csv(args.input, "r") as handle:
        signal = read_csv(in_grid, handle)
    # Finite samples can still overflow float64 in the transform's sums,
    # its round trip or the norms; that is refused before any sample is
    # written.  A finite drift implies a finite round trip, and finite
    # norms finite samples.
    with np.errstate(over="ignore", invalid="ignore"):
        result = forward(signal) if args.direction == "forward" else inverse(signal)
        round_trip = inverse(result) if args.direction == "forward" else forward(result)
        drift = float(abs(round_trip.values - signal.values).max())
        input_norm, output_norm = signal.norm(), result.norm()
    if not all(map(math.isfinite, (drift, input_norm, output_norm))):
        raise SchemaError(
            f"{args.input}: the {args.direction} transform of these samples overflows float64"
        )
    with _open_csv(args.samples, "w") as handle:
        write_csv(result, handle)
    passed = drift <= args.tolerance
    doc = build_report(
        version=__version__, command="transform",
        parameters={
            "p": args.p, "grid": list(args.grid), "direction": args.direction,
            "input": args.input, "samples": args.samples,
            "tolerance": args.tolerance,
        },
        verdict="PASS" if passed else "FAIL",
        conditions=[
            {
                "name": "round-trip",
                "passed": passed,
                "exact": False,
                "witnesses": [],
                "measures": {
                    "input_norm": input_norm,
                    "output_norm": output_norm,
                    "round_trip_error": drift,
                },
            }
        ],
    )
    return doc, 0 if passed else 1


def _cmd_search(args) -> tuple[dict, int]:
    result = search_wavelet_sets(args.p, tuple(args.window), budget=args.budget)
    verdict = "PASS" if not result.exhausted else "INCONCLUSIVE"
    doc = build_report(
        version=__version__, command="search",
        parameters={"p": args.p, "window": list(args.window), "budget": args.budget},
        verdict=verdict,
        conditions=[
            {
                "name": "enumeration",
                "passed": not result.exhausted,
                "exact": True,
                "witnesses": [],
                "measures": {
                    "examined": result.examined,
                    "found": len(result.families),
                    "exhausted": result.exhausted,
                },
            }
        ],
        extra={"families": [family_to_document(f) for f in result.families]},
    )
    return doc, 0 if not result.exhausted else 1


_HANDLERS = {
    "verify": _cmd_verify,
    "mra": _cmd_mra,
    "filters": _cmd_filters,
    "synthesize": _cmd_synthesize,
    "transform": _cmd_transform,
    "search": _cmd_search,
}


def _run(argv: list[str]) -> tuple[int, dict | None, object | None]:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and bad flags
        return int(exc.code or 0), None, None

    start = time.perf_counter()
    try:
        _check_numbers(args)
        report, code = _HANDLERS[args.command](args)
    except SchemaError as exc:
        return 2, {"error": str(exc), "exit": 2}, args
    except VilenkinError as exc:
        return 1, {"error": str(exc), "exit": 1}, args
    if getattr(args, "timing", False):
        report["timing"] = round(time.perf_counter() - start, 6)
    return code, report, args


def run_command(argv: list[str]) -> tuple[int, dict | None]:
    """Programmatic entry point: returns (exit code, report dict)."""
    code, report, _ = _run(argv)
    return code, report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, report, args = _run(argv)
    if report is None:
        return code
    if "error" in report:
        sys.stderr.write(report["error"] + "\n")
        return code
    payload = emit_report(report, getattr(args, "format", "json"))
    output = getattr(args, "output", None)
    if output:
        try:
            with open(output, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            sys.stderr.write(f"cannot write {output}: {exc}\n")
            return 2
    else:
        sys.stdout.buffer.write(payload)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
