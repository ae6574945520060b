"""Benchmark of the vilenkin-wavelets package.

Run from the repository root:

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --sweep

A workload is a seeded list of ops, run as a closed loop: one process,
one op in flight.  Exact and grid ops go in-process through
``vilenkin_wavelets.cli.main([..., "--output", <file>])``, so argument
parsing, family parsing, the library, report emission and the file
write are all inside the timed op; interpreter start-up only counts in
``setup_s``.  The timed run is a whole number of passes over the op
list: passes start until ``--seconds`` have elapsed.  Every op is timed
and checked against references that share no code with the library.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the op list runs one warm-up pass, one untraced pass and
one pass with the tracer installed, whatever ``--seconds`` says; the
last line reports per-layer totals of the traced pass.
``--sweep`` records per-layer time against cylinder resolution, depth,
identity level and grid size, and is not part of any gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_REPEATS = 3

# Shared cores change speed by half or more over tens of seconds, which
# moves every wall time alike.  The benchmark gauges the momentary speed
# with a fixed pure-Python loop run between ops (outside the timed
# intervals) and reports every time at the reference speed: raw time x
# GAUGE_REF_S / median gauge time of the same pass.  GAUGE_REF_S is
# about the gauge's median on a 2-core 2.1 GHz x86 VM with Python 3.11;
# raw times are printed above the result line.
GAUGE_REF_S = 0.008
GAUGE_EVERY_S = 0.25

# Highest percentile with at least ten samples beyond it at the op
# counts a 20-second run gives, fixed per workload so that the metric
# means the same thing in every run.  grid-numeric runs two or three
# passes of 12 ops of about half a second each, so its p75 has 6 to 9
# samples beyond it.
TAIL_PERCENTILE = {"verify-mix": 98, "search-enum": 93, "mra-certify": 95, "grid-numeric": 75}
WORKLOADS = list(TAIL_PERCENTILE)


def _load_package():
    """Import the package from ./src of the checkout, and nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "vilenkin_wavelets", "__init__.py")):
        sys.exit(f"perfbench: no src/vilenkin_wavelets under {os.getcwd()}; run from the repository root")
    sys.path.insert(0, src)
    import vilenkin_wavelets
    import vilenkin_wavelets.cli  # noqa: F401

    if not os.path.abspath(vilenkin_wavelets.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported vilenkin_wavelets from {vilenkin_wavelets.__file__}, not {src}")
    return vilenkin_wavelets


def _build(workload: str, seed: int, work: str, vw):
    import workloads

    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-mix":
        return workloads.build_verify_mix(rng, work)
    if workload == "search-enum":
        return workloads.build_search_enum(rng, work)
    if workload == "mra-certify":
        return workloads.build_mra_certify(rng, work, vw)
    return workloads.build_grid_numeric(rng, work)


def execute(op, vw):
    """Run one op; only the call itself is inside the timed interval."""
    from workloads import Result

    if op.output and os.path.exists(op.output):
        os.remove(op.output)
    err = io.StringIO()
    code = value = raised = None
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.argv is not None:
                code = vw.cli.main(op.argv)
            else:
                value = op.call()
        except Exception as exc:  # every op is timed and counted, whatever it does
            raised = exc
        elapsed = time.perf_counter() - start
    return elapsed, Result(code, value, err.getvalue(), raised)


def gauge() -> float:
    """Seconds a fixed pure-Python loop takes now: integer arithmetic,
    tuple-keyed dict inserts and a sort, like the library's own work."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    table = {}
    for i in range(20_000):
        table[(i, i % 13)] = total
    sorted(table)
    return time.perf_counter() - start


def _setup(workload: str, seed: int, root: str, vw):
    """Generate and write the inputs and run one warm-up op, several times;
    returns the median time at the reference speed and the ops of the
    last repetition."""
    times = []
    for i in range(SETUP_REPEATS):
        work = os.path.join(root, f"setup{i}")
        os.makedirs(work)
        before = gauge()
        start = time.perf_counter()
        ops = _build(workload, seed, work, vw)
        execute(ops[0], vw)
        elapsed = time.perf_counter() - start
        times.append(elapsed * GAUGE_REF_S / statistics.median([before, gauge()]))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(work)
    return statistics.median(times), ops


class Tally:
    def __init__(self) -> None:
        self.raw: list[float] = []  # wall seconds per op
        self.latencies: list[float] = []  # the same at the reference speed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.defects: dict[str, int] = {}
        self.unexplained: list[str] = []

    def record(self, op, elapsed: float, result) -> None:
        outcome = op.check(op, result)
        self.raw.append(elapsed)
        self.attempted += 1
        if outcome.ok:
            return
        self.failed += 1
        self.wrong += outcome.wrong_verdict
        if outcome.defect:
            self.defects[outcome.defect] = self.defects.get(outcome.defect, 0) + 1
        else:
            self.unexplained.append(f"{op.label}: {outcome.detail}")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


def run_passes(ops, vw, seconds: float, tally: Tally, on_op=None) -> int:
    """Whole passes until `seconds` have elapsed (at least one); each
    pass's op times are scaled by the gauge readings taken during it."""
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        readings = [gauge()]
        last = time.perf_counter()
        first = len(tally.raw)
        for i, op in enumerate(ops):
            if time.perf_counter() - last > GAUGE_EVERY_S:
                readings.append(gauge())
                last = time.perf_counter()
            if on_op is not None:
                on_op(i)
            elapsed, result = execute(op, vw)
            tally.record(op, elapsed, result)
        readings.append(gauge())
        scale = GAUGE_REF_S / statistics.median(readings)
        tally.latencies.extend(t * scale for t in tally.raw[first:])
        passes += 1
    return passes


def end_to_end(args, vw, import_s: float, root: str) -> dict:
    setup_s, ops = _setup(args.workload, args.seed, root, vw)
    tally = Tally()
    passes = run_passes(ops, vw, args.seconds, tally)
    q = TAIL_PERCENTILE[args.workload]
    n = len(tally.latencies)
    beyond = n - int(q / 100 * n) - 1
    busy = sum(tally.latencies)
    print(f"workload {args.workload}: seed {args.seed}, {passes} passes of {len(ops)} ops, "
          f"{n} samples, tail = p{q} with {beyond} samples beyond it")
    print(f"failed_op_ratio {tally.failed / n:.4f} ({tally.failed}/{n}), wrong_verdicts {tally.wrong}, "
          f"known defects {json.dumps(tally.defects, sort_keys=True)}")
    for line in tally.unexplained[:10]:
        print(f"UNEXPLAINED {line}")
    print(f"raw wall times: {n / sum(tally.raw):.6g} ops/s, p50 {1000 * statistics.median(tally.raw):.6g} ms, "
          f"p{q} {1000 * _percentile(tally.raw, q):.6g} ms, import {import_s:.6g} s; "
          f"machine speed {busy / sum(tally.raw):.4g} x reference")
    metrics = {
        "setup_s": (import_s * GAUGE_REF_S / gauge() + setup_s, "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(tally.latencies), "ms"),
        "op_tail_ms": (1000 * _percentile(tally.latencies, q), "ms"),
        "ok_op_ratio": (1 - tally.failed / n, "ratio"),
        "right_verdict_ratio": (1 - tally.wrong / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not tally.unexplained,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(args, vw, root: str) -> dict:
    from tracer import Tracer

    work = os.path.join(root, "trace")
    os.makedirs(work)
    ops = _build(args.workload, args.seed, work, vw)
    run_passes(ops, vw, 0, Tally())  # warm-up pass
    untraced = Tally()
    run_passes(ops, vw, 0, untraced)
    tracer = Tracer()
    tracer.install()
    traced = Tally()
    try:
        run_passes(ops, vw, 0, traced, on_op=lambda i: setattr(tracer, "op_id", i))
    finally:
        tracer.remove()
    tracer.save(os.path.join(os.getcwd(), ".perfbench", f"trace-{args.workload}-seed{args.seed}.npz"))
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) / sum(untraced.latencies), "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not (untraced.unexplained or traced.unexplained),
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


SELF_TIMES = [
    "setalg.pset_init", "setalg.union", "setalg.intersect", "setalg.difference", "setalg.dilate",
    "setalg.translate", "setalg.refine", "setalg.cells_at",
    "verifier.is_wavelet_set", "verifier.check_measure_one", "verifier.check_dilation_tiling",
    "verifier.check_translation_congruence", "verifier.congruence_partition",
    "verifier.search_wavelet_sets",
    "mra.accumulate_omega_sigma", "mra.check_mra_condition", "mra.build_filters",
    "mra.verify_filter_identities", "mra.verify_calderon", "mra.verify_two_scale",
    "transform.synthesize_wavelet", "transform.indicator_on_grid", "transform.forward",
    "transform.inverse", "transform.write_csv", "transform.read_csv",
    "famio.parse_family_file", "famio.emit_report", "cli.main",
]
COUNTS = [
    "setalg.pset_init.calls", "setalg.pset_init.cylinders_in", "setalg.pset_init.cylinders_out",
    "setalg.cells_at.cells", "setalg.max_resolution_seen", "verifier.search.examined",
    "mra.mra_rows", "mra.identity_cells_checked", "mra.two_scale_cells_checked",
    "transform.csv_bytes", "famio.report_bytes", "group.lambda_encode.calls",
]
COUNT_UNITS = {"setalg.max_resolution_seen": "resolution", "transform.csv_bytes": "bytes",
               "famio.report_bytes": "bytes"}


def layer_metrics(tracer) -> dict:
    """Per-layer totals over one traced pass; layers the workload does
    not call read 0."""
    c = tracer.counters
    out = {f"{name}.self_s": (tracer.self_s.get(name, 0.0), "s") for name in SELF_TIMES}
    out.update({name: (float(c.get(name, 0)), COUNT_UNITS.get(name, "count")) for name in COUNTS})
    examined = c.get("verifier.search.examined", 0)
    out["verifier.search.found_per_examined"] = (
        c.get("verifier.search.found", 0) / examined if examined else 0.0, "ratio")
    calls = c.get("mra.accumulate_calls", 0)
    out["mra.spectrum_resolved_ratio"] = (c.get("mra.spectrum_resolved", 0) / calls if calls else 0.0, "ratio")
    return dict(sorted(out.items()))


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="scaling sweeps, not gated")
    args = parser.parse_args(argv)
    if not args.sweep and args.workload is None:
        parser.error("--workload is required unless --sweep is given")

    start = time.perf_counter()
    vw = _load_package()
    import_s = time.perf_counter() - start
    root = os.path.join(os.getcwd(), ".perfbench", f"run-{os.getpid()}")
    os.makedirs(root)
    try:
        if args.sweep:
            import sweep

            result = sweep.run(vw, root)
            print(json.dumps(result))
            return 0
        if args.trace:
            result = per_layer(args, vw, root)
        else:
            result = end_to_end(args, vw, import_s, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
