"""Deterministic binary snapshots and diagnostic CSVs.

Snapshot layout (little-endian):

    magic "HMHD" | format version u32 | n u32 | dims u32 x n | components u32
    | time f64 | u components then b components as f64 physical-space arrays
    in axis-major (C) order.

The exact round trip is on the file: writing a read snapshot reproduces its
bytes, while the coefficients of read(write(x)) match x's only to FFT
roundoff.  read_snapshot reads onto the run's Grid, which every state it
returns shares: it checks the header (that grid's dims, 3 components per
field, a finite time) and the solver's entry invariants (solver._check_state)
on the whole forward transform of the stored samples: u and b finite,
divergence-free, inside the 2/3 dealias cube and Hermitian on the k_last = 0
plane, and u = 0 in a hall_only run's snapshot.  It then cuts u and b to the
cube (spectral.dealias), dropping the transform's roundoff tail, so a read
state is exactly zero outside the cube, as every state run yields; the
stored samples stay attached, so writing it back gives the same bytes.
write_diagnostics takes its physics, mode, Sobolev pair and grid from the
run's config and snapshots on that grid whose times strictly increase in
file-name order.  CSVs print every float with 17 significant digits; files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .config import RunConfig
from .diagnostics import balance_residuals, flux_terms, shell_energies
from .solver import State, StateDriftError, _check_state, integrated_params
from .spectral import Grid, SpectralField, dealias, to_physical, to_spectral

MAGIC = b"HMHD"
VERSION = 1

SHELL_CSV = "shell_energies.csv"
FLUX_CSV = "flux.csv"

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


def read_snapshot(path, grid: Grid, mode: str = "full") -> State:
    """Read a snapshot onto grid; a malformed file, a snapshot of another grid
    or a state that breaks the entry invariants of a run in mode raises a
    one-line ValueError naming the path (and the field)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    try:
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
    except struct.error:
        raise ValueError(f"{path}: truncated header ({len(data)} bytes)") from None
    if dims != grid.shape:
        raise ValueError(f"{path}: grid {dims} differs from the grid {grid.shape} of the run's config")
    if m != 3:
        raise ValueError(f"{path}: {m} components per field, expected 3")
    if not np.isfinite(t):
        raise ValueError(f"{path}: non-finite time {t!r}")
    count = m * grid.npoints
    payload = np.frombuffer(data, dtype="<f8", offset=off)
    if payload.size != 2 * count:
        raise ValueError(
            f"{path}: truncated payload ({payload.size} values, expected {2 * count})"
        )
    shape = (m,) + grid.shape
    pu = payload[:count].reshape(shape)
    pb = payload[count:].reshape(shape)
    u, b = to_spectral(grid, pu), to_spectral(grid, pb)
    try:
        _check_state(State(u, b, t), mode)
    except StateDriftError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # the check saw the whole transform; what it let pass outside the cube is
    # FFT roundoff of the stored samples, cut as run's states have none
    u, b = dealias(u), dealias(b)
    u._phys_payload = (u.coeffs.copy(), pu)
    b._phys_payload = (b.coeffs.copy(), pb)
    return State(u, b, t)


def snapshot_name(step: int) -> str:
    return f"snap_{step:08d}.hmhd"


def list_snapshots(run_dir) -> list[str]:
    names = sorted(f for f in os.listdir(run_dir) if f.endswith(".hmhd"))
    return [os.path.join(run_dir, f) for f in names]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_diagnostics(run_dir, cfg: RunConfig, out_dir=None):
    """Compute the shell-energy and flux CSVs from the stored snapshots of the
    run whose config is cfg, in the physics it integrated
    (solver.integrated_params) and its Sobolev pair.

    Streams the snapshots: each is read, reduced to its shell-energy and flux
    records, and dropped before the next is read.  Returns
    (energies, fluxes, residual_u, residual_b); the residuals are nan when
    fewer than 3 snapshots exist.  Deterministic: running this twice over the
    same snapshots produces bit-identical files, which is also how
    simulate-time CSVs are generated.  The time derivatives of the residuals
    need snapshots on cfg's grid whose times strictly increase in file-name
    order, and in cfg's mode (u = 0 in hall_only); another grid, a time that
    does not increase, or a nonzero u in a hall_only run raises a one-line
    ValueError naming the file before out_dir (default run_dir) is made.
    """
    params = integrated_params(cfg.physical_params(), cfg["solver.mode"])
    sob, grid = cfg.sobolev(), cfg.grid()
    energies, fluxes = [], []
    paths = list_snapshots(run_dir)
    for i, path in enumerate(paths):
        state = read_snapshot(path, grid, cfg["solver.mode"])
        if i and not state.t > energies[-1].t:
            raise ValueError(
                f"{path}: time t={_fmt(state.t)} does not follow t={_fmt(energies[-1].t)} "
                f"of the snapshot before it, {paths[i - 1]}"
            )
        energies.append(shell_energies(state, sob))
        fluxes.append(flux_terms(state, params, sob))
    if not energies:
        raise ValueError(f"no snapshots found in {run_dir}")
    out_dir = out_dir or run_dir
    os.makedirs(out_dir, exist_ok=True)

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
