"""Search windows of the search-enum workload and the digest that
compares found families without the library."""

from __future__ import annotations

import hashlib
import itertools
import json

# (p, lo, hi): candidates examined are 28, 120, 496, 1820 (p = 2),
# 72, 702, 1680 (p = 3) and 120 (p = 5).
WINDOWS = [
    (2, -1, 1),
    (2, -2, 1),
    (2, -3, 1),
    (2, -1, 2),
    (3, -1, 0),
    (3, -2, 0),
    (3, 0, 1),
    (5, 0, 0),
]


def family_digest(families: list[list[list[tuple]]]) -> str:
    """Order-free digest of families given as member lists of window cells."""
    canon = sorted(json.dumps([sorted(map(list, m)) for m in fam]) for fam in families)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]


def cells_of_document(doc: dict, lo: int, hi: int) -> list[list[tuple]]:
    """Members of a reported family as digit tuples over positions lo..hi."""
    p = doc["p"]
    members = []
    for entry in doc["family"]:
        cells = set()
        for cyl in entry["cylinders"]:
            res = cyl["resolution"]
            pinned = {int(q): d for q, d in cyl["digits"].items()}
            fixed = tuple(pinned.get(q, 0) for q in range(lo, res + 1))
            for tail in itertools.product(range(p), repeat=hi - res):
                cells.add(fixed + tail)
        members.append(sorted(cells))
    return members
