"""Walkthrough: exhaustively enumerating wavelet families in a digit window.

Candidates are unions of resolution-2 cells whose pinned digits sit at
positions 0..2, one measure-one set per family member.  For p = 2 that
is a 70-candidate search: the walk skips the candidates that provably
fail, counting them, and decides the rest itself -- each member a
transversal of the fractional digit classes (measure one, congruence),
no identity cell, and shell keys that do not nest and fill the shell
(tiling).  Each family found is verified again below as an independent
check.
"""

from vilenkin_wavelets import is_wavelet_set, search_wavelet_sets, shannon_family

result = search_wavelet_sets(2, (0, 2))
print(f"examined {result.examined} candidates, found {len(result.families)}")
print(f"budget exhausted: {result.exhausted}\n")

shannon = shannon_family(2)
for i, family in enumerate(result.families):
    tag = "  <- Shannon-type" if family.sets == shannon.sets else ""
    print(f"family {i}{tag}:")
    for name, member in zip(family.names, family.sets):
        print(f"  {name}: {member.to_json()}")
    assert is_wavelet_set(family).overall

# A tight budget yields a partial, flagged enumeration.
partial = search_wavelet_sets(2, (0, 2), budget=10)
print(f"\nwith budget 10: examined {partial.examined}, exhausted={partial.exhausted}")
