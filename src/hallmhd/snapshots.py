"""Deterministic binary snapshots and diagnostic CSVs.

Snapshot layout (little-endian):

    magic "HMHD" | format version u32 (2) | n u32 | dims u32 x n
    | components u32 | time f64 | the 2/3 dealias cubes of u then b,
    complex128 of shape (2, components, *Grid.cube_shape) in C order.

A snapshot holds its state exactly, as every state run yields is zero outside
the cube (write_snapshot checks that by spectral._support, the one exact
in-cube test): read_snapshot(write_snapshot(x)) equals x, and writing it
again gives the same bytes.  read_snapshot reads onto the run's Grid, which
every state it returns shares, and checks the header and the solver's entry
invariants (solver._check_state) in the run's mode.  simulate and analyze
reduce states with state_records and write them with write_csvs, so their
CSVs are the same bytes; floats get 17 significant digits.  Files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .config import RunConfig
from .diagnostics import FluxRecord, ShellEnergyRecord, balance_residuals, flux_terms, shell_energies
from .solver import State, StateDriftError, _check_state, integrated_params
from .spectral import Grid, _expanded, _support, dealias_cutoff, gather_cube

MAGIC = b"HMHD"
VERSION = 2

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


def write_snapshot(path, state: State) -> None:
    """Write state's dealias cubes to path; a field with a nonzero coefficient
    outside the cube raises a one-line ValueError naming the path and field."""
    g = state.grid
    header = MAGIC + struct.pack(
        f"<II{g.n}IId", VERSION, g.n, *((g.dims,) * g.n), state.u.m, state.t)
    cubes = np.empty((2, state.u.m, *g.cube_shape), dtype="<c16")
    for name, f, cube in (("u", state.u, cubes[0]), ("b", state.b, cubes[1])):
        if _support(f.coeffs, g.n).max(initial=-1) > dealias_cutoff(g.dims):
            raise ValueError(f"{path}: {name} has nonzero coefficients outside the 2/3 dealias "
                             "cube, which a snapshot cannot hold")
        gather_cube(f.coeffs, cube)
    _atomic_write(path, header + cubes.tobytes())


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
            raise ValueError(
                f"{path}: unsupported format version {version} (this reader takes version {VERSION})"
            )
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
    shape = (2, m, *grid.cube_shape)
    if len(data) - off != 16 * math.prod(shape):
        raise ValueError(
            f"{path}: truncated payload ({len(data) - off} bytes, expected {16 * math.prod(shape)})"
        )
    cubes = np.frombuffer(data, dtype="<c16", offset=off).reshape(shape)
    state = State(_expanded(grid, cubes[0]), _expanded(grid, cubes[1]), t)
    try:
        _check_state(state, mode)
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


def state_records(state: State, cfg: RunConfig) -> tuple[ShellEnergyRecord, FluxRecord]:
    """The shell-energy and flux records (one row of each CSV) of a state of
    the run whose config is cfg, in the physics it integrated
    (solver.integrated_params) and its Sobolev pair."""
    sob = cfg.sobolev()
    params = integrated_params(cfg.physical_params(), cfg["solver.mode"])
    return shell_energies(state, sob), flux_terms(state, params, sob)


def write_csvs(out_dir, cfg: RunConfig, records: list[tuple[ShellEnergyRecord, FluxRecord]]):
    """Write the CSVs of a run's state_records, in time order, to out_dir, made
    if missing.  Returns (energies, fluxes, residual_u, residual_b); the
    residuals are nan when fewer than 3 records exist."""
    energies, fluxes = map(list, zip(*records))
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
        params = integrated_params(cfg.physical_params(), cfg["solver.mode"])
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


def write_diagnostics(run_dir, cfg: RunConfig, out_dir=None):
    """Compute the shell-energy and flux CSVs from the stored snapshots of the
    run whose config is cfg, with the reduction and writer of simulate
    (state_records, write_csvs), so both write the same bytes.

    Streams the snapshots: each is read, reduced to its records, and dropped
    before the next is read.  Returns what write_csvs returns.  The time
    derivatives of the residuals need snapshots on cfg's grid whose times
    strictly increase in file-name order, and in cfg's mode (u = 0 in
    hall_only); another grid, a time that does not increase, or a nonzero u
    in a hall_only run raises a one-line ValueError naming the file before
    out_dir (default run_dir) is made.
    """
    grid, records = cfg.grid(), []
    paths = list_snapshots(run_dir)
    for i, path in enumerate(paths):
        state = read_snapshot(path, grid, cfg["solver.mode"])
        if records and not state.t > records[-1][0].t:
            raise ValueError(
                f"{path}: time t={_fmt(state.t)} does not follow t={_fmt(records[-1][0].t)} "
                f"of the snapshot before it, {paths[i - 1]}"
            )
        records.append(state_records(state, cfg))
    if not records:
        raise ValueError(f"no snapshots found in {run_dir}")
    return write_csvs(out_dir or run_dir, cfg, records)
