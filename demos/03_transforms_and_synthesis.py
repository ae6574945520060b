"""Walkthrough: the finite radix-p transform and numerical cross-checks.

Band-limited, cell-constant functions are represented exactly on a
quotient grid, so the finite transform is the group Fourier transform
restricted to the grid rather than an approximation.  That makes the
numerical checks sharp: Parseval to 1e-12, Gram matrices to 1e-10.
"""

import numpy as np

from vilenkin_wavelets import (
    GridSignal,
    QuotientGrid,
    accumulate_omega_sigma,
    analyze,
    dilate_translate,
    forward,
    gram_matrix,
    inverse,
    reconstruct,
    shannon_family,
    synthesize_wavelet,
    translate_orthonormality_grid,
    v0_residual,
)

rng = np.random.default_rng(0)
p = 2
grid = QuotientGrid(p, 6, 6)
print(f"grid: {p}^({grid.M}+{grid.N}) = {grid.size} cells")

# ---------------------------------------------------------------------------
# Transform pair: round trip and Parseval.
# ---------------------------------------------------------------------------
f = GridSignal(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
spectrum = forward(f)
back = inverse(spectrum)
print(f"round-trip error: {np.max(np.abs(back.values - f.values)):.2e}")
print(f"Parseval gap:     {abs(f.norm() - spectrum.norm()):.2e}")

# ---------------------------------------------------------------------------
# Synthesize the Shannon wavelet and inspect its orthonormal system.
# ---------------------------------------------------------------------------
family = shannon_family(p)
psi = synthesize_wavelet(family.sets[0], grid)
print(f"\nwavelet norm: {psi.norm():.12f}")

moved = dilate_translate(psi, 1, 3)  # one level finer, shifted by 3
print(f"dilated-translated copy norm: {moved.norm():.12f}")

gram, deviation = gram_matrix(family, grid, range(-2, 3), lambda j: 8)
print(f"gram deviation over {gram.shape[0]} functions: {deviation:.2e}")

report = translate_orthonormality_grid(forward(psi))
print(f"unit-translate energy deviation: {report.max_deviation:.2e}")

# ---------------------------------------------------------------------------
# Expand a band-limited signal and reconstruct it.  Levels -3..3 cover
# the spectral shells between the contracted and expanded unit cells, so
# a signal built there expands with unit coefficient energy.
# ---------------------------------------------------------------------------
from vilenkin_wavelets import expanded_unit, indicator_on_grid, theta_ball

dual = grid.dual()
band = expanded_unit(p, 2).difference(theta_ball(p, 2))
mask = indicator_on_grid(band, dual)
spec = np.where(mask, rng.normal(size=dual.size) + 1j * rng.normal(size=dual.size), 0)
g = inverse(GridSignal(dual, spec))
analysis = analyze(g, family, range(-3, 4))
print(f"\ncoefficient energy ratio: {analysis.energy_ratio:.6f}")
print(f"spectral mass outside the band: {analysis.uncovered_fraction:.2e}")
rec = reconstruct(analysis)
rel = np.linalg.norm(rec.values - g.values) / np.linalg.norm(g.values)
print(f"reconstruction relative error: {rel:.2e}")

# ---------------------------------------------------------------------------
# The scaling function's residual against the negative levels shrinks
# like p^(-depth/2): the uncovered spectral mass is the identity ball.
# ---------------------------------------------------------------------------
sigma = accumulate_omega_sigma(family, 8)
phi = synthesize_wavelet(sigma.resolved, QuotientGrid(p, 5, 4))
print("\ncoarse-subspace residuals:")
for depth in range(5):
    print(f"  depth {depth}: {v0_residual(phi, family, depth):.6f}")
