"""Seeded identity and inequality sweeps backing the `verify` subcommand.

Each check returns a CheckResult; exact identities are tested at roundoff
tolerances, inequality-type estimates as measured-ratio sweeps whose constants
must be uniform across shells (max over q / median over q < 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .config import RunConfig
from .littlewood_paley import (
    bernstein_ratio,
    chi,
    decompose,
    lambda_q,
    max_shell,
    phi_q,
    project_shell,
    resolved_band,
)
from .paraproduct import (
    bony_splits,
    commutator_cross_curl,
    commutator_curl_cross,
    commutator_ratios,
    commutator_transport,
)
from .random_fields import random_band_field
from .spectral import (
    Grid,
    SpectralField,
    advect,
    gradient,
    lp_norm,
    to_physical,
    to_spectral,
)
from .uniqueness import cancellation_check


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_partition_of_unity(grid: Grid) -> CheckResult:
    Q = max_shell(grid)
    kmag = grid.kmag
    total = chi(kmag)
    for q in range(0, Q + 1):
        total = total + phi_q(kmag, q)
    band = kmag <= resolved_band(grid)
    err = float(np.abs(total[band] - 1.0).max())
    return CheckResult(
        "partition_of_unity", err < 1e-12, f"max deviation {err:.3e} on |k| <= {resolved_band(grid)}"
    )


def _bony_residual(grid: Grid, seed: int, band: float) -> float:
    """check_bony_identity's worst residual on the pair of fields of seeds
    seed and seed + 1; nothing of the pair outlives the call."""
    worst = 0.0
    u = random_band_field(grid, seed, band)
    v = random_band_field(grid, seed + 1, band)
    direct_all = advect(u, v)
    scale = lp_norm(direct_all, 2)
    for split in bony_splits(u, v):
        direct = project_shell(direct_all, split.q)
        res = lp_norm(split.total() - direct, 2)
        denom = lp_norm(direct, 2)
        if denom > 1e-8 * scale:
            worst = max(worst, res / denom)
        else:
            # nearly empty shell: compare against the full product scale
            worst = max(worst, res / scale * 1e2)
        del split, direct  # not held while the next shell is expanded
    return worst


def check_bony_identity(grid: Grid, n_pairs: int, seed0: int) -> CheckResult:
    band = resolved_band(grid)
    worst = 0.0
    for i in range(n_pairs):
        worst = max(worst, _bony_residual(grid, seed0 + 2 * i, band))
    return CheckResult("bony_exact_sum", worst < 1e-10, f"max relative residual {worst:.3e}")


def check_commutators_vanish(grid: Grid, seed: int) -> CheckResult:
    band = resolved_band(grid)
    v = random_band_field(grid, seed, band)
    const = SpectralField.zero(grid, 3)
    const.coeffs[(slice(None),) + (0,) * grid.n] = [0.7, -0.3, 1.1]
    scale = lp_norm(v, 2)
    worst = max(
        lp_norm(commutator_transport(const, v, 1), 2) / scale,
        lp_norm(commutator_cross_curl(const, v, 1), 2) / scale,
        lp_norm(commutator_curl_cross(const, v, 1), 2) / scale,
    )
    return CheckResult(
        "commutators_vanish_on_constants", worst < 1e-12, f"max relative norm {worst:.3e}"
    )


def _uniform_over_q(ratios_by_q: dict) -> tuple[bool, str]:
    maxima = np.array([max(v) for v in ratios_by_q.values() if v])
    if len(maxima) == 0:
        return False, "no data"
    spread = maxima.max() / np.median(maxima)
    return bool(spread < 10.0), f"max {maxima.max():.3e}, max/median over q {spread:.2f}"


def check_commutator_ratio_sweeps(grid: Grid, n_seeds: int, seed0: int) -> list[CheckResult]:
    band = resolved_band(grid)
    qs = range(0, max_shell(grid) + 1)
    data = {name: {q: [] for q in qs} for name in ("transport", "cross_curl", "curl_cross", "trilinear")}
    for i in range(n_seeds):
        # unnamed here, so that commutator_ratios frees the fields once it
        # holds their cubes
        ratios_by_q = commutator_ratios(
            random_band_field(grid, seed0 + 4 * i, band),
            random_band_field(grid, seed0 + 4 * i + 1, band),
            random_band_field(grid, seed0 + 4 * i + 2, band),
            qs,
        )
        for q, ratios in ratios_by_q.items():
            for name, r in ratios.items():
                if r is not None:
                    data[name][q].append(r)

    results = []
    for name, by_q in data.items():
        check = f"{name}_commutator_ratio"
        if name == "transport" and not any(by_q.values()):
            # mean-free fields have empty low-pass blocks below q = 2, so no
            # admissible (p, q) pair exists when the grid resolves fewer shells
            results.append(CheckResult(check, True, "no admissible shells at this resolution"))
            continue
        ok, detail = _uniform_over_q(by_q)
        finite = all(np.isfinite(v).all() for v in by_q.values() if v)
        results.append(CheckResult(check, ok and finite, detail))
    return results


def check_bernstein_sweep(grid: Grid, n_seeds: int, seed0: int) -> CheckResult:
    Q = max_shell(grid)
    per_q_max = {}
    for i in range(n_seeds):
        f = random_band_field(grid, seed0 + i, resolved_band(grid))
        for q in range(0, Q + 1):
            fq = project_shell(f, q)
            if lp_norm(fq, 2) == 0.0:
                continue
            r = bernstein_ratio(fq, q, 2, np.inf)
            per_q_max[q] = max(per_q_max.get(q, 0.0), r)
    maxima = np.array(list(per_q_max.values()))
    spread = maxima.max() / np.median(maxima)
    return CheckResult(
        "bernstein_ratio_sweep",
        bool(np.isfinite(maxima).all() and spread < 10.0),
        f"max ratio {maxima.max():.3e}, max/median over q {spread:.2f}",
    )


def _gradient_contaminated(U: SpectralField, u2: SpectralField) -> SpectralField:
    """u2 plus a gradient of the same L2 norm whose potential is correlated
    with |U|^2, so that the transport identity fails at O(1)."""
    grid = U.grid
    ehat = to_spectral(grid, (to_physical(U) ** 2).sum(axis=0))
    bump = gradient(SpectralField(grid, -ehat.coeffs * grid.inv_ksq))
    return u2 + bump * (lp_norm(u2, 2) / lp_norm(bump, 2))


def check_cancellations(grid: Grid, seed: int) -> list[CheckResult]:
    band = resolved_band(grid)
    U = random_band_field(grid, seed, band)
    B = random_band_field(grid, seed + 1, band)
    u2 = random_band_field(grid, seed + 2, band)
    b1 = random_band_field(grid, seed + 3, band)
    b2 = random_band_field(grid, seed + 4, band)
    residuals = cancellation_check(U, B, u2, b1, b2)
    worst = max(residuals)
    results = [
        CheckResult(
            "difference_cancellations", worst < 1e-10,
            "residuals " + ", ".join(f"{r:.2e}" for r in residuals),
        )
    ]

    # negative control, on a contaminated copy of u2; u2 itself is let go
    contaminated = _gradient_contaminated(U, u2)
    del u2
    bad = cancellation_check(U, B, contaminated, b1, b2)
    results.append(
        CheckResult(
            "cancellation_negative_control", bad[0] > 1e-2,
            f"gradient-contaminated residual {bad[0]:.2e}",
        )
    )
    return results


def check_shell_reconstruction(grid: Grid, seed: int) -> CheckResult:
    f = random_band_field(grid, seed, resolved_band(grid))
    total = SpectralField.zero(grid, 3)
    for sh in decompose(f):
        total = total + sh
    err = lp_norm(total - f, 2) / lp_norm(f, 2)
    return CheckResult("shell_reconstruction", err < 1e-12, f"relative error {err:.3e}")


# Check lanes.  The seven checks are independent, so where a grid's FFT
# batches run one field lane (spectral._field_lanes) and the process may use
# two cores, the checks run in two lanes.  The caller first runs the
# partition of unity and the shell reconstruction, which build the grid's
# shared caches in its own memory.  Then one thread, started and joined
# here, takes the commutator ratio sweeps while the caller takes the Bony
# identity, the cancellations and the commutators on constants, and the
# Bernstein sweep goes to whichever lane is done first: in two lanes at 3D
# 32^3 the caller's own checks took 0.34-0.38 s and the sweeps 0.25-0.27 s
# at sweep.size 5, and 1.30-1.41 s against 1.44-1.64 s at the default 20, so
# the Bernstein sweep (0.03 s and 0.14-0.20 s) ran in the thread at 5 and in
# the caller at 20.  The thread takes only the checks with small transients:
# a thread's malloc arena keeps its largest size resident until the process
# ends, while the main arena's is reused by later allocations.
# Each check's largest transient is one dealiased product over what it
# still holds, and no check holds a field or product past its use, so the
# two lanes together peak below what the whole run did in order before
# (tests/test_verification.py).  Field lanes and check lanes never stack,
# and a process bound to one core runs the checks in order with no thread.
_FIRST, _CALLER_LANE, _THREAD_LANE, _EITHER_LANE = (0, 1), (2, 6, 3), (4,), (5,)


def run_verification(cfg: RunConfig) -> list[CheckResult]:
    """The results of every check, in order.  Where one raises, the first in
    that order that raises is re-raised, once every lane has finished."""
    grid = cfg.grid()
    size = cfg["sweep.size"]
    seed = cfg["sweep.seed"]
    checks = [
        lambda: [check_partition_of_unity(grid)],
        lambda: [check_shell_reconstruction(grid, seed)],
        lambda: [check_bony_identity(grid, min(size, 20), seed + 100)],
        lambda: [check_commutators_vanish(grid, seed + 200)],
        lambda: check_commutator_ratio_sweeps(grid, size, seed + 300),
        lambda: [check_bernstein_sweep(grid, size, seed + 700)],
        lambda: check_cancellations(grid, seed + 800),
    ]
    outcomes = [None] * len(checks)

    def run(i):
        # as in order: no check after one that raised runs
        if any(isinstance(o, Exception) for o in outcomes[:i]):
            return
        try:
            outcomes[i] = checks[i]()
        except Exception as exc:
            outcomes[i] = exc

    if spectral._LANES >= 2 and spectral._field_lanes(grid.n, grid.dims) == 1:
        for i in _FIRST:
            run(i)
        either = list(_EITHER_LANE)

        def lane(own):
            for i in own:
                run(i)
            while True:
                try:
                    i = either.pop(0)  # atomic: each check runs in one lane
                except IndexError:
                    return
                run(i)

        spectral._in_threads([lambda: lane(_CALLER_LANE), lambda: lane(_THREAD_LANE)])
    else:
        for i in range(len(checks)):
            run(i)
    results = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        results.extend(outcome)
    return results
