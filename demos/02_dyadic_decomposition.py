"""Dyadic (Littlewood-Paley) frequency decomposition and norm equivalences.

A field is split into shells supported on annuli |k| ~ 2^q by smooth radial
cutoffs.  The shells sum back to the field exactly, and weighted shell sums
reproduce Sobolev norms up to fixed constants.
"""

import numpy as np

from hallmhd.littlewood_paley import (
    besov_norm,
    chi,
    direct_sobolev_norm,
    dyadic_sobolev_norm,
    lambda_q,
    max_shell,
    phi_q,
    project_shell,
    resolved_band,
)
from hallmhd.random_fields import random_band_field
from hallmhd.spectral import Grid, SpectralField, lp_norm

grid = Grid(3, 32)
Q = max_shell(grid)
print(f"grid 32^3 resolves shells q = -1 .. {Q}; band |k| <= {resolved_band(grid)}")

# The radial cutoffs telescope: chi + sum of ring functions = 1 on the band.
# grid.kmag covers the half spectrum (k_z >= 0), which holds every |k|.
kmag = grid.kmag
total = chi(kmag)
for q in range(0, Q + 1):
    total = total + phi_q(kmag, q)
band = kmag <= resolved_band(grid)
print("partition-of-unity deviation:", np.abs(total[band] - 1.0).max())

# Shells reconstruct the field exactly.
f = random_band_field(grid, 42, resolved_band(grid))
back = SpectralField.zero(grid, 3)
for q in range(-1, Q + 1):
    back = back + project_shell(f, q)
print("reconstruction error:", lp_norm(back - f, 2) / lp_norm(f, 2))

# Per-shell energy distribution.
for q in range(-1, Q + 1):
    print(f"  shell q={q:+d} (|k| ~ {lambda_q(q):g}):  ||f_q||_2 =",
          f"{lp_norm(project_shell(f, q), 2):.4f}")

# The dyadic H^s norm (weighted shell sum) is equivalent to the multiplier
# definition (1 + |k|^2)^{s/2}; the ratio is bounded by fixed constants.
for s in (0.0, 1.0, 1.75):
    ratio = dyadic_sobolev_norm(f, s) / direct_sobolev_norm(f, s)
    print(f"H^{s} dyadic/multiplier ratio: {ratio:.4f}")

print("Besov B^1_{2,inf} norm:", besov_norm(f, 1.0, 2))
