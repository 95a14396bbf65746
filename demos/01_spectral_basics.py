"""Tour of the spectral core: transforms, derivatives, projection, dealiasing.

Fields live on the periodic box [0, 2pi)^n and are stored as complex Fourier
amplitudes, so differential operators are exact multiplier operations and
quadratic products are computed pseudo-spectrally with 2/3-rule dealiasing.
The fields are real, so only the real-FFT half spectrum is kept: the last
axis holds k_z = 0 .. N/2, and coeffs[c, i, j, l] is the amplitude of
component c at k = (fftfreq[i], fftfreq[j], l).
"""

import numpy as np

from hallmhd.spectral import (
    Grid,
    curl,
    divergence,
    gradient,
    leray_project,
    lp_norm,
    multiply,
    to_physical,
    to_spectral,
)

grid = Grid(3, 32)
x, y, z = grid.coordinates()

# Transforms are amplitude-normalized: a constant field has coefficient equal
# to its value at k = 0, and round-trips are exact to machine precision.
f = to_spectral(grid, np.sin(2 * x) * np.cos(y))
print("roundtrip error:", np.abs(to_physical(f) - np.sin(2 * x) * np.cos(y)).max())

# Derivatives are exact on trigonometric polynomials.
g = gradient(f)
exact = 2 * np.cos(2 * x) * np.cos(y)
print("d/dx error:", np.abs(to_physical(g)[0] - exact).max())

# The Leray projection removes the gradient part of a vector field; the result
# is divergence-free and the projection is idempotent.
print("coefficient shape on a 32^3 grid:", f.coeffs.shape)  # (1, 32, 32, 17)

rng = np.random.default_rng(0)
v = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
pv = leray_project(v)
print("divergence after projection:", lp_norm(divergence(pv), 2))
print("idempotency defect:", lp_norm(leray_project(pv) - pv, 2))

# curl(grad) = 0 and div(curl) = 0 hold exactly as multiplier identities.
print("curl grad:", lp_norm(curl(gradient(f)), 2))
print("div curl: ", lp_norm(divergence(curl(v)), 2))

# Products are dealiased by the 2/3 rule: squaring cos(5x) on a 16-point axis
# would alias the k = 10 harmonic back into the resolved band; dealiasing
# removes it, leaving only the mean.
small = Grid(3, 16)
xs = small.coordinates()[0]
c5 = to_spectral(small, np.cos(5 * xs))
sq = multiply(c5, c5)
coef = sq.coeffs[0].copy()
print("mean of cos^2(5x):", coef[0, 0, 0].real)
# k = 10 aliases onto k_x = +-6, indices 6 and 10 of the (full) first axis
print("amplitude at k_x = +-6:", abs(coef[6, 0, 0]), abs(coef[10, 0, 0]))
coef[0, 0, 0] = 0.0
print("largest surviving non-mean amplitude:", np.abs(coef).max())
