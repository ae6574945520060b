"""Scaling sweeps: per-layer self time against one size parameter each.

Not part of any gate; it shows the exponential blow-ups as curves:

- cylinder resolution R: ``verify`` on PASS families with p = 2 and 3,
  for verifier.check_translation_congruence and setalg.cells_at;
- depth J: ``mra --depth J`` on one p = 2 family, for
  mra.accumulate_omega_sigma;
- identity level: ``filters --level`` on the Shannon families, for
  mra.verify_filter_identities;
- grid size: ``synthesize`` then ``transform --direction forward`` at
  p = 2, for transform.write_csv, transform.read_csv and transform.forward.
"""

from __future__ import annotations

import json
import os
import random

import gen
from run import execute, machine
from tracer import Tracer
from workloads import Op


def _traced(vw, argv: list[str], out: str, names: list[str]) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        elapsed, result = execute(Op("sweep", argv=argv + ["--output", out], output=out), vw)
    finally:
        tracer.remove()
    row = {f"{n}.self_s": round(tracer.self_s.get(n, 0.0), 6) for n in names}
    row.update(wall_s=round(elapsed, 6), exit=result.code)
    return row


def _family(work: str, fam: gen.Family, name: str) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fam.document(), handle)
    return path


def run(vw, work: str) -> dict:
    rng = random.Random("sweep")
    out = os.path.join(work, "report.json")
    result: dict = {"machine": machine()}

    rows = []
    names = ["verifier.check_translation_congruence", "setalg.cells_at"]
    for p, top in ((2, 11), (3, 7)):
        for R in range(2, top + 1):
            path = _family(work, gen.pass_family(rng, p, R, -1, (p - 1) * (4 * R + 1)), f"R{p}-{R}")
            rows.append({"p": p, "R": R, **_traced(vw, ["verify", "--p", str(p), "--input", path], out, names)})
    result["resolution"] = rows

    rows = []
    fam = gen.pass_family(rng, 2, 4, -2, 12)
    path = _family(work, fam, "depth")
    for J in range(2, gen.MAX_RESOLUTION - fam.resolution + 1, 2):
        argv = ["mra", "--p", "2", "--input", path, "--depth", str(J)]
        rows.append({"J": J, **_traced(vw, argv, out, ["mra.accumulate_omega_sigma"])})
    result["depth"] = rows

    rows = []
    for p, top in ((2, 12), (3, 7), (5, 5)):
        path = _family(work, gen.shannon(p), f"shannon{p}")
        for level in range(1, top + 1):
            argv = ["filters", "--p", str(p), "--input", path, "--level", str(level)]
            rows.append({"p": p, "level": level, **_traced(vw, argv, out, ["mra.verify_filter_identities"])})
    result["level"] = rows

    rows = []
    path = _family(work, gen.shannon(2), "grid")
    csv_in, csv_out = os.path.join(work, "psi.csv"), os.path.join(work, "fwd.csv")
    for n in range(8, 17, 2):
        grid = ["--grid", str(n // 2), str(n - n // 2)]
        synth = _traced(vw, ["synthesize", "--p", "2", "--input", path, "--samples", csv_in] + grid,
                        out, ["transform.write_csv"])
        fwd = _traced(vw, ["transform", "--p", "2", "--input", csv_in, "--samples", csv_out] + grid,
                      out, ["transform.read_csv", "transform.forward", "transform.write_csv"])
        rows.append({"p": 2, "cells": 2**n, "synthesize": synth, "forward": fwd})
    result["grid"] = rows

    path = os.path.join(os.getcwd(), ".perfbench", "sweep.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    for key in ("resolution", "depth", "level", "grid"):
        for row in result[key]:
            print(key, json.dumps(row))
    return result
