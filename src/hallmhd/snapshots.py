"""Deterministic binary snapshots and diagnostic CSVs.

Snapshot layout (little-endian):

    magic "HMHD" | format version u32 | n u32 | dims u32 x n | components u32
    | time f64 | u components then b components as f64 physical-space arrays
    in axis-major (C) order.

read(write(x)) is bit-exact.  read_snapshot checks the state's entry
invariants: u and b divergence-free to 1e-8 and supported inside the 2/3
dealias cube to 1e-12 of their largest amplitude.  CSVs print every float
with 17 significant digits; files are written atomically (temp file + rename).
"""

from __future__ import annotations

import functools
import os
import struct
import tempfile

import numpy as np

from .diagnostics import balance_residuals, flux_terms, shell_energies
from .littlewood_paley import SobolevParams
from .solver import PhysicalParams, State, StateDriftError, _check_divergence, _check_support
from .spectral import Grid, SpectralField, to_physical, to_spectral

MAGIC = b"HMHD"
VERSION = 1

SHELL_CSV = "shell_energies.csv"
FLUX_CSV = "flux.csv"

# one Grid, with its wavevector and shell-multiplier caches, per (n, dims):
# every snapshot of a run shares it instead of rebuilding them per file
_grid = functools.lru_cache(maxsize=4)(Grid)


def _atomic_write(path, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _physical_payload(f: SpectralField) -> np.ndarray:
    # fields produced by read_snapshot carry the stored samples verbatim, so a
    # read-then-write cycle is a byte-level identity despite FFT rounding
    cached = getattr(f, "_phys_payload", None)
    if cached is not None and np.array_equal(cached[0], f.coeffs):
        return cached[1]
    return to_physical(f).astype("<f8")


def write_snapshot(path, state: State) -> None:
    g = state.grid
    header = MAGIC + struct.pack(
        f"<II{g.n}II", VERSION, g.n, *((g.dims,) * g.n), state.u.m
    )
    header += struct.pack("<d", state.t)
    pu = _physical_payload(state.u)
    pb = _physical_payload(state.b)
    _atomic_write(path, header + pu.tobytes(order="C") + pb.tobytes(order="C"))


def read_snapshot(path) -> State:
    """Read a snapshot; a malformed file or a state that breaks the entry
    invariants raises a one-line ValueError naming the path (and the field)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    (n,) = struct.unpack_from("<I", data, 8)
    dims = struct.unpack_from(f"<{n}I", data, 12)
    off = 12 + 4 * n
    (m,) = struct.unpack_from("<I", data, off)
    off += 4
    (t,) = struct.unpack_from("<d", data, off)
    off += 8
    if len(set(dims)) != 1:
        raise ValueError(f"{path}: unequal axis resolutions {dims}")
    grid = _grid(n, dims[0])
    count = m * grid.npoints
    payload = np.frombuffer(data, dtype="<f8", offset=off)
    if payload.size != 2 * count:
        raise ValueError(
            f"{path}: truncated payload ({payload.size} values, expected {2 * count})"
        )
    shape = (m,) + grid.shape
    pu = payload[:count].reshape(shape)
    pb = payload[count:].reshape(shape)
    u = to_spectral(grid, pu)
    b = to_spectral(grid, pb)
    u._phys_payload = (u.coeffs.copy(), pu)
    b._phys_payload = (b.coeffs.copy(), pb)
    state = State(u, b, t)
    try:
        _check_divergence(state)
        _check_support(state)
    except StateDriftError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return state


def snapshot_name(step: int) -> str:
    return f"snap_{step:08d}.hmhd"


def list_snapshots(run_dir) -> list[str]:
    names = sorted(f for f in os.listdir(run_dir) if f.endswith(".hmhd"))
    return [os.path.join(run_dir, f) for f in names]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_diagnostics(
    run_dir, params: PhysicalParams, sob: SobolevParams, out_dir=None
):
    """Compute the shell-energy and flux CSVs from the stored snapshots.

    Streams the snapshots: each is read, reduced to its shell-energy and flux
    records, and dropped before the next is read.  Returns
    (energies, fluxes, residual_u, residual_b); the residuals are nan when
    fewer than 3 snapshots exist.  Deterministic: running this twice over the
    same snapshots produces bit-identical files, which is also how
    simulate-time CSVs are generated.
    """
    out_dir = out_dir or run_dir
    energies, fluxes = [], []
    for path in list_snapshots(run_dir):
        state = read_snapshot(path)
        energies.append(shell_energies(state, sob))
        fluxes.append(flux_terms(state, params, sob))
    if not energies:
        raise ValueError(f"no snapshots found in {run_dir}")

    shell_lines = ["t,q,e_u,e_b,d_u,d_b"]
    for rec in energies:
        for i, q in enumerate(range(-1, len(rec.e_u) - 1)):
            shell_lines.append(
                ",".join(
                    [_fmt(rec.t), str(q), _fmt(rec.e_u[i]), _fmt(rec.e_b[i]),
                     _fmt(rec.d_u[i]), _fmt(rec.d_b[i])]
                )
            )
    _atomic_write(
        os.path.join(out_dir, SHELL_CSV), ("\n".join(shell_lines) + "\n").encode()
    )

    if len(energies) >= 3:
        _, res_u, res_b = balance_residuals(energies, fluxes, params)
    else:
        res_u = res_b = np.full(len(energies), np.nan)
    flux_lines = ["t,I1,I2,I3,I4,I5,residual_u,residual_b"]
    for f, ru, rb in zip(fluxes, res_u, res_b):
        flux_lines.append(
            ",".join(_fmt(v) for v in (f.t, f.I1, f.I2, f.I3, f.I4, f.I5, ru, rb))
        )
    _atomic_write(
        os.path.join(out_dir, FLUX_CSV), ("\n".join(flux_lines) + "\n").encode()
    )
    return energies, fluxes, res_u, res_b
