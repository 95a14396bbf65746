"""Snapshot format, config parsing, CSV determinism, CLI subcommands."""

import os
import struct
from collections import Counter

import numpy as np
import pytest

from hallmhd import Grid, PhysicalParams, SobolevParams, SolverConfig, State, make_initial, run
from hallmhd import cli, snapshots
from hallmhd.cli import main
from hallmhd.config import RunConfig, load_config, parse_config
from hallmhd.snapshots import (
    FLUX_CSV,
    MAGIC,
    SHELL_CSV,
    list_snapshots,
    read_snapshot,
    snapshot_name,
    write_diagnostics,
    write_snapshot,
)
from hallmhd.solver import BlowUpError
from hallmhd.spectral import _workers, lp_norm, to_physical, to_spectral

SOB = SobolevParams(1.0, 1.75, 0.25)


@pytest.fixture()
def small_state():
    g = Grid(3, 16)
    return make_initial("random_band", g, 5, (1.0, 1.0), SOB)


def test_snapshot_roundtrip_bit_exact(tmp_path, small_state):
    p1 = tmp_path / "a.hmhd"
    p2 = tmp_path / "b.hmhd"
    st = small_state
    st.t = 0.375
    write_snapshot(p1, st)
    back = read_snapshot(p1)
    assert back.t == 0.375
    assert back.grid.dims == 16 and back.grid.n == 3
    write_snapshot(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    # values survive the physical-space roundtrip to near roundoff
    assert np.abs(to_physical(back.u) - to_physical(st.u)).max() < 1e-13


def test_read_snapshot_interns_grid(tmp_path, small_state):
    write_snapshot(tmp_path / "a.hmhd", small_state)
    write_snapshot(tmp_path / "b.hmhd", small_state)
    assert read_snapshot(tmp_path / "a.hmhd").grid is read_snapshot(tmp_path / "b.hmhd").grid


def test_snapshot_layout(tmp_path, small_state):
    path = tmp_path / "c.hmhd"
    write_snapshot(path, small_state)
    data = path.read_bytes()
    # magic | version u32 | n u32 | dims u32 x3 | components u32 | time f64
    assert data[:4] == MAGIC == b"HMHD"
    assert struct.unpack_from("<I", data, 4)[0] == 1
    assert struct.unpack_from("<I", data, 8)[0] == 3
    assert struct.unpack_from("<3I", data, 12) == (16, 16, 16)
    assert struct.unpack_from("<I", data, 24)[0] == 3
    header = 36
    assert len(data) == header + 2 * 3 * 16**3 * 8
    payload = np.frombuffer(data, dtype="<f8", offset=header)
    u_vals = payload[: 3 * 16**3].reshape((3, 16, 16, 16))
    assert np.abs(u_vals - to_physical(small_state.u)).max() < 1e-15


def test_snapshot_corruption_errors(tmp_path, small_state):
    path = tmp_path / "d.hmhd"
    write_snapshot(path, small_state)
    data = bytearray(path.read_bytes())

    bad = tmp_path / "bad.hmhd"
    bad.write_bytes(b"NOPE" + bytes(data[4:]))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad)

    wrong_version = bytearray(data)
    struct.pack_into("<I", wrong_version, 4, 99)
    bad.write_bytes(bytes(wrong_version))
    with pytest.raises(ValueError, match="version"):
        read_snapshot(bad)

    bad.write_bytes(bytes(data[:-16]))
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(bad)

    unequal = bytearray(data)
    struct.pack_into("<I", unequal, 16, 32)
    bad.write_bytes(bytes(unequal))
    with pytest.raises(ValueError, match="unequal"):
        read_snapshot(bad)


def _crafted_snapshots(run_dir, state):
    """Two snapshots that break an entry invariant: b = (sin x, 0, 0) is not
    divergence-free; u gains a mode at |k_1| = kmax = 7, outside the 2/3 cube."""
    g = state.grid
    x = g.coordinates()[0]
    zero = np.zeros_like(x)
    divergent = State(state.u, to_spectral(g, np.stack([np.sin(x), zero, zero])), 0.0)
    wide = State(state.u + to_spectral(g, np.stack([zero, np.cos(7 * x), zero])), state.b, 0.0)
    paths = {}
    for name, st, field in (("div", divergent, "div b"), ("wide", wide, "u has")):
        paths[run_dir / f"{name}.hmhd"] = field
        write_snapshot(run_dir / f"{name}.hmhd", st)
    return paths


def test_read_snapshot_checks_entry_invariants(tmp_path, small_state):
    for path, field in _crafted_snapshots(tmp_path, small_state).items():
        with pytest.raises(ValueError) as info:
            read_snapshot(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: state drift: {field}") and "\n" not in msg


def test_analyze_rejects_crafted_snapshot(tmp_path, capsys, small_state):
    for path, field in _crafted_snapshots(tmp_path, small_state).items():
        run_dir = tmp_path / path.stem
        run_dir.mkdir()
        (run_dir / "config.txt").write_text("grid.dims = 16\n")
        os.replace(path, run_dir / snapshot_name(0))
        rc = main(["analyze", "--run", str(run_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {run_dir / snapshot_name(0)}: state drift: {field}")


def test_snapshot_names_sorted(tmp_path, small_state):
    for i in (100, 2, 30):
        write_snapshot(tmp_path / snapshot_name(i), small_state)
    names = [os.path.basename(p) for p in list_snapshots(tmp_path)]
    assert names == ["snap_00000002.hmhd", "snap_00000030.hmhd", "snap_00000100.hmhd"]


def test_no_temp_files_left(tmp_path, small_state):
    write_snapshot(tmp_path / "x.hmhd", small_state)
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []


def test_config_defaults_and_roundtrip():
    cfg = parse_config("")
    assert cfg["grid.dims"] == 32
    assert cfg["solver.mode"] == "full"
    again = parse_config(cfg.to_text())
    assert again.values == cfg.values


def test_config_overrides_and_comments():
    cfg = parse_config(
        """
        # comment line
        grid.dims = 16
        params.nu = 0.25   # trailing comment
        solver.mode = mhd
        """
    )
    assert cfg["grid.dims"] == 16
    assert cfg["params.nu"] == 0.25
    assert cfg["solver.mode"] == "mhd"


def test_config_error_messages():
    with pytest.raises(ValueError, match="line 1.*unknown key"):
        parse_config("grid.shape = 32")
    with pytest.raises(ValueError, match="line 2.*expected"):
        parse_config("grid.dims = 32\nnonsense")
    with pytest.raises(ValueError, match="grid.dims.*cannot parse"):
        parse_config("grid.dims = large")
    with pytest.raises(ValueError, match="s > n/2 - 1"):
        parse_config("sobolev.s = 0.1")
    with pytest.raises(ValueError, match="mode"):
        parse_config("solver.mode = warp")


def test_simulate_then_analyze_bit_identical(tmp_path, capsys, monkeypatch):
    counted = ("read_snapshot", "shell_energies", "flux_terms")
    calls = Counter()

    def count(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counted:
        monkeypatch.setattr(snapshots, name, count(name, getattr(snapshots, name)))

    conf = tmp_path / "run.conf"
    conf.write_text(
        "grid.dims = 16\nsolver.tmax = 0.004\nsolver.snapshot_every = 2\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    shell1 = (out / SHELL_CSV).read_bytes()
    flux1 = (out / FLUX_CSV).read_bytes()
    assert len(list_snapshots(out)) == 3  # steps 0, 2, 4
    # each snapshot is read and reduced once per command
    assert calls == dict.fromkeys(counted, 3)
    calls.clear()

    redo = tmp_path / "redo"
    assert main(["analyze", "--run", str(out), "--out", str(redo)]) == 0
    assert (redo / SHELL_CSV).read_bytes() == shell1
    assert (redo / FLUX_CSV).read_bytes() == flux1
    assert calls == dict.fromkeys(counted, 3)
    captured = capsys.readouterr()
    assert "existence time" in captured.out or "horizon" in captured.out
    assert "max energy-balance residual" in captured.out


def test_csv_schema(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.002\nsolver.snapshot_every = 1\n")
    out = tmp_path / "out"
    main(["simulate", "--config", str(conf), "--out", str(out)])
    shell_lines = (out / SHELL_CSV).read_text().splitlines()
    assert shell_lines[0] == "t,q,e_u,e_b,d_u,d_b"
    flux_lines = (out / FLUX_CSV).read_text().splitlines()
    assert flux_lines[0] == "t,I1,I2,I3,I4,I5,residual_u,residual_b"
    # every float field printed with 17 significant digits round-trips
    row = flux_lines[1].split(",")
    assert float(row[0]) == 0.0
    qs = {line.split(",")[1] for line in shell_lines[1:]}
    assert qs == {"-1", "0", "1"}  # shells on a 16^3 grid


def test_simulate_zero_initial(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "grid.dims = 16\nsolver.tmax = 0.002\nsolver.snapshot_every = 1\n"
        "init.target_u = 0\ninit.target_b = 0\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    for line in (out / SHELL_CSV).read_text().splitlines()[1:]:
        vals = [float(v) for v in line.split(",")[2:]]
        assert vals == [0.0, 0.0, 0.0, 0.0]


def test_verify_subcommand(tmp_path, capsys):
    conf = tmp_path / "v.conf"
    conf.write_text("grid.dims = 16\nsweep.size = 3\n")
    rc = main(["verify", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[PASS]" in captured.out
    assert "[FAIL]" not in captured.out


def test_scaling_subcommand(tmp_path, capsys):
    conf = tmp_path / "s.conf"
    conf.write_text("grid.dims = 32\nsolver.tmax = 0.004\n")
    rc = main(["scaling", "--mode", "mhd", "--lambda", "2", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "scaling residual" in captured.out
    value = float(captured.out.split(":")[-1])
    assert value < 1e-10


def test_uniqueness_subcommand(tmp_path, capsys):
    conf = tmp_path / "u.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.004\nsolver.snapshot_every = 2\n")
    rc = main(["uniqueness", "--config", str(conf), "--perturb", "1e-6"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "minimal passing C_nu_mu" in captured.out
    assert "holds" in captured.out


def test_cli_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("grid.dims = 100\n")
    rc = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "line, field",
    [
        ("solver.snapshot_every = 0", "solver.snapshot_every"),
        ("params.nu = nan", "params.nu"),
        ("solver.tmax = -1", "solver.tmax"),
        ("solver.tmax = 0.0025", "solver.tmax"),
    ],
)
def test_cli_rejects_invalid_value(tmp_path, capsys, line, field):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"grid.dims = 16\n{line}\n")
    rc = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert field in err and len(err.strip().splitlines()) == 1


def test_cli_reports_blowup_without_traceback(tmp_path, capsys, monkeypatch):
    def blow_up(*args, **kwargs):
        raise BlowUpError("numerical blow-up at t=0.003")

    monkeypatch.setattr(cli, "run", blow_up)
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\n")
    rc = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.strip() == "error: numerical blow-up at t=0.003"


def test_simulate_blowup_keeps_diagnostics(tmp_path, capsys, monkeypatch):
    # the run writes the step-0 and step-5 snapshots, then blows up
    def blow_up(initial, config, sinks=()):
        for i in (0, 5):
            st = initial.copy()
            st.t = i * config.dt
            for sink in sinks:
                sink(i, st)
        raise BlowUpError("numerical blow-up at t=0.006")

    monkeypatch.setattr(cli, "run", blow_up)
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\n")
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(conf), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.strip() == "error: numerical blow-up at t=0.006"
    for name in (SHELL_CSV, FLUX_CSV):
        rows = (out / name).read_text().splitlines()[1:]
        assert sorted({float(row.split(",")[0]) for row in rows}) == [0.0, 0.005]
    assert len((out / FLUX_CSV).read_text().splitlines()) == 3


def test_simulate_rejects_state_outside_dealias_cube(tmp_path, capsys, monkeypatch):
    initial_state = RunConfig.initial_state

    def widened(self):
        st = initial_state(self)
        st.u.coeffs[0, 0, 0, 7] = 0.5  # k = (0, 0, 7): outside the 2/3 cube at 16^3
        return st

    monkeypatch.setattr(RunConfig, "initial_state", widened)
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\n")
    rc = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: state drift: u has 1.000e+00 of its largest amplitude outside")


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_cli_rejects_bad_thread_count(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("HMHD_THREADS", value)
    conf = tmp_path / "v.conf"
    conf.write_text("grid.dims = 16\nsweep.size = 1\n")
    rc = main(["verify", "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: HMHD_THREADS: must be a positive integer, got '{value}'\n"


def test_workers_env(monkeypatch):
    monkeypatch.setenv("HMHD_THREADS", "2")
    assert _workers() == 2
    monkeypatch.delenv("HMHD_THREADS")
    assert _workers() == -1


def test_write_diagnostics_empty_dir(tmp_path):
    with pytest.raises(ValueError, match="no snapshots"):
        write_diagnostics(tmp_path, PhysicalParams(0.1, 0.1, 0.0), SOB)
