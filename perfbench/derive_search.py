"""Derive the expected results of the search-enum workload with the
brute-force oracle in tests/oracle.py, and store them in
perfbench/expected_search.json.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/derive_search.py

Candidates are enumerated here from the documented search space (each
member takes p**hi of the resolution-hi cells inside the digit window,
members disjoint) and decided by the oracle alone; the library's search
is never called.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

sys.path.insert(0, os.getcwd())

from tests.oracle import CellSet, oracle_is_wavelet_set  # noqa: E402

from searchref import WINDOWS, family_digest  # noqa: E402


def candidates(pool: tuple, per_set: int, members: int, chosen: list):
    if len(chosen) == members:
        yield tuple(chosen)
        return
    for combo in itertools.combinations(pool, per_set):
        taken = set(combo)
        chosen.append(combo)
        yield from candidates(tuple(a for a in pool if a not in taken), per_set, members, chosen)
        chosen.pop()


def derive(p: int, lo: int, hi: int) -> dict:
    atoms = list(itertools.product(range(p), repeat=hi - lo + 1))
    examined = 0
    found = []
    for cand in candidates(tuple(atoms), p**hi, p - 1, []):
        examined += 1
        sets = [CellSet(p, lo, hi, frozenset(member)) for member in cand]
        if oracle_is_wavelet_set(p, sets)["overall"]:
            found.append([sorted(member) for member in cand])
    return {
        "p": p,
        "window": [lo, hi],
        "examined": examined,
        "found": len(found),
        "digest": family_digest(found),
    }


def main() -> None:
    out = [derive(p, lo, hi) for p, lo, hi in WINDOWS]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_search.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    for row in out:
        print(row)


if __name__ == "__main__":
    main()
