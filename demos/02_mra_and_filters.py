"""Walkthrough: from a verified wavelet family to a multiresolution analysis.

The candidate scaling spectrum is the union of all forward contracting
dilates of the family.  The wavelets come from an MRA exactly when the
spectrum's lattice translates are almost-everywhere disjoint; in that
case the scaling function is the indicator's inverse transform and the
filters are 0/1 cell tables satisfying the quadrature identities.
"""

from vilenkin_wavelets import (
    accumulate_omega_sigma,
    build_filters,
    check_mra_condition,
    shannon_family,
    verify_calderon,
    verify_filter_identities,
    verify_two_scale,
)

p = 2
depth = 8
family = shannon_family(p)

# ---------------------------------------------------------------------------
# Accumulate the truncated scaling spectrum.  For the Shannon family the
# dilates telescope: the depth-J truncation is the unit cell minus the
# depth-J identity ball, and the tail is detected as exactly self-similar.
# ---------------------------------------------------------------------------
sigma = accumulate_omega_sigma(family, depth)
print(f"truncated spectrum measure: {sigma.truncated.measure().exact_string()}")
print(f"tail bound: {sigma.tail_bound().exact_string()}")
print(f"self-similar tail resolved: {sigma.self_similar_tail_resolved}")
print(f"resolved spectrum: {sigma.spectrum().to_json()}")

# ---------------------------------------------------------------------------
# The intersection-measure table: identity row 1 - p^-J, all other
# lattice translates exactly zero.
# ---------------------------------------------------------------------------
mra = check_mra_condition(sigma)
print(f"\nMRA criterion: {mra.status} (certified via {mra.certification})")
for row in mra.rows:
    print(f"  n={row.lattice_index}: {row.measure.exact_string()}")

# ---------------------------------------------------------------------------
# Filters: the low-pass vanishes on the first dilate of the family and
# equals one on the rest of the spectrum; band filters are indicators of
# the first dilates.  All the quadrature identities are 0/1-exact.
# ---------------------------------------------------------------------------
bank = build_filters(family, sigma, mra=mra)
print(f"\nfilter table at resolution {bank.resolution}:")
for row in bank.to_json()["rows"]:
    print(f"  cell {row['cell']}: m0={row['m0']} m1={row['m1']}")

identities = verify_filter_identities(bank, 4)
print(
    f"\nquadrature identities at level 4: "
    f"{'pass' if identities.passed else 'FAIL'} "
    f"({identities.checked_cells} cells, exact={identities.exact})"
)

two_scale = verify_two_scale(family, sigma, bank)
print(
    f"refinement equations + depth-{depth} product: "
    f"{'pass' if two_scale.passed else 'FAIL'} "
    f"({two_scale.checked_cells} cylinders decided)"
)

calderon = verify_calderon(family, sigma)
print(
    f"spectrum decomposition identity: "
    f"{'pass' if calderon.passed else 'FAIL'} "
    f"(symmetric difference {calderon.symmetric_difference.exact_string()})"
)
