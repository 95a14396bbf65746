"""Snapshot format, config parsing, CSV determinism, CLI subcommands."""

import os
import struct
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hallmhd import Grid, PhysicalParams, SobolevParams, SolverConfig, State, make_initial, run
from hallmhd import cli, snapshots, solver, uniqueness
from hallmhd.cli import main
from hallmhd.config import _DEFAULTS, RunConfig, load_config, parse_config
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
from hallmhd.spectral import (
    SpectralField, dealias, gather_cube, lp_norm, to_physical, to_spectral,
)

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
    back = read_snapshot(p1, st.grid)
    assert back.t == 0.375
    assert back.grid.dims == 16 and back.grid.n == 3
    write_snapshot(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    # values survive the physical-space roundtrip to near roundoff
    assert np.abs(to_physical(back.u) - to_physical(st.u)).max() < 1e-13


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (2, 64)])
def test_snapshot_holds_the_state_exactly(tmp_path, n, dims):
    g = Grid(n, dims)
    states = []
    initial = make_initial("random_band", g, 5, (1.0, 1.0), SOB)
    run(initial, SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 0.002, snapshot_every=1),
        sinks=[lambda i, st: states.append(st.copy())])
    p1, p2 = tmp_path / "a.hmhd", tmp_path / "b.hmhd"
    for st in states:  # the initial state and two steps
        write_snapshot(p1, st)
        back = read_snapshot(p1, g)
        assert back.t == st.t
        assert np.array_equal(back.u.coeffs, st.u.coeffs)
        assert np.array_equal(back.b.coeffs, st.b.coeffs)
        write_snapshot(p2, back)
        assert p1.read_bytes() == p2.read_bytes()


def test_write_snapshot_refuses_content_outside_the_dealias_cube(tmp_path, small_state):
    path = tmp_path / "wide.hmhd"
    b = small_state.b.copy()
    b.coeffs[0, 0, 0, 7] = 0.5  # k = (0, 0, 7): outside the 2/3 cube at 16^3
    with pytest.raises(ValueError) as info:
        write_snapshot(path, State(small_state.u, b, 0.0))
    assert str(info.value) == (
        f"{path}: b has nonzero coefficients outside the 2/3 dealias cube, "
        "which a snapshot cannot hold"
    )
    assert os.listdir(tmp_path) == []


def test_read_snapshot_interns_grid(tmp_path, small_state):
    # every state read onto a grid shares it, with its wavevector caches
    grid = Grid(3, 16)
    for name in ("a.hmhd", "b.hmhd"):
        write_snapshot(tmp_path / name, small_state)
        back = read_snapshot(tmp_path / name, grid)
        assert back.grid is back.u.grid is back.b.grid is grid


def test_read_snapshot_rejects_another_grid_before_transforming(tmp_path, monkeypatch):
    path = tmp_path / "big.hmhd"
    write_snapshot(path, make_initial("random_band", Grid(3, 32), 5, (1.0, 1.0), SOB))

    def no_transform(*args):
        raise AssertionError("_expanded called on a snapshot of another grid")

    monkeypatch.setattr(snapshots, "_expanded", no_transform)
    with pytest.raises(ValueError) as info:
        read_snapshot(path, Grid(3, 16))
    assert str(info.value) == (
        f"{path}: grid (32, 32, 32) differs from the grid (16, 16, 16) of the run's config"
    )


def test_snapshot_layout(tmp_path, small_state):
    path = tmp_path / "c.hmhd"
    write_snapshot(path, small_state)
    data = path.read_bytes()
    # magic | version u32 | n u32 | dims u32 x3 | components u32 | time f64
    assert data[:4] == MAGIC == b"HMHD"
    assert struct.unpack_from("<I", data, 4)[0] == 2
    assert struct.unpack_from("<I", data, 8)[0] == 3
    assert struct.unpack_from("<3I", data, 12) == (16, 16, 16)
    assert struct.unpack_from("<I", data, 24)[0] == 3
    header = 36
    cube = small_state.grid.cube_shape  # (11, 11, 6) at 16^3
    # the dealias cubes of u then b, complex128 in C order
    assert len(data) == header + 2 * 3 * np.prod(cube) * 16
    payload = np.frombuffer(data, dtype="<c16", offset=header)
    u_cube = payload[: 3 * np.prod(cube)].reshape((3, *cube))
    assert np.array_equal(u_cube, gather_cube(small_state.u.coeffs, np.empty_like(u_cube)))


def test_snapshot_corruption_errors(tmp_path, small_state):
    grid = small_state.grid
    path = tmp_path / "d.hmhd"
    write_snapshot(path, small_state)
    data = bytearray(path.read_bytes())

    bad = tmp_path / "bad.hmhd"
    bad.write_bytes(b"NOPE" + bytes(data[4:]))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad, grid)

    wrong_version = bytearray(data)
    for version in (1, 99):
        struct.pack_into("<I", wrong_version, 4, version)
        bad.write_bytes(bytes(wrong_version))
        with pytest.raises(ValueError) as info:
            read_snapshot(bad, grid)
        assert str(info.value) == (
            f"{bad}: unsupported format version {version} (this reader takes version 2)"
        )

    bad.write_bytes(bytes(data[:-16]))
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(bad, grid)

    unequal = bytearray(data)
    struct.pack_into("<I", unequal, 16, 32)
    bad.write_bytes(bytes(unequal))
    with pytest.raises(ValueError, match="differs from the grid"):
        read_snapshot(bad, grid)


def _crafted_snapshots(run_dir, state):
    """Two snapshots that break an entry invariant: b = (sin x, 0, 0) is not
    divergence-free; u gains i/2 at k = (1, 2, 0) and at -k, a divergence-free
    mode inside the 2/3 cube that is not Hermitian on the k_last = 0 plane."""
    g = state.grid
    x = g.coordinates()[0]
    zero = np.zeros_like(x)
    divergent = State(state.u, dealias(to_spectral(g, np.stack([np.sin(x), zero, zero]))), 0.0)
    skewed = State(state.u.copy(), state.b, 0.0)
    skewed.u.coeffs[2, 1, 2, 0] += 0.5j
    skewed.u.coeffs[2, -1, -2, 0] += 0.5j
    paths = {}
    for name, st, field in (("div", divergent, "div b"), ("skewed", skewed, "u is not Hermitian")):
        paths[run_dir / f"{name}.hmhd"] = field
        write_snapshot(run_dir / f"{name}.hmhd", st)
    return paths


def test_read_snapshot_checks_entry_invariants(tmp_path, small_state):
    for path, field in _crafted_snapshots(tmp_path, small_state).items():
        with pytest.raises(ValueError) as info:
            read_snapshot(path, small_state.grid)
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


def test_read_snapshot_rejects_non_finite_payload(tmp_path, capsys, small_state):
    path = tmp_path / snapshot_name(0)
    write_snapshot(path, small_state)
    data = bytearray(path.read_bytes())
    data[-8:] = struct.pack("<d", np.nan)  # the last sample of b
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as info:
        read_snapshot(path, small_state.grid)
    assert str(info.value).startswith(f"{path}: non-finite state: b has ")
    (tmp_path / "config.txt").write_text("grid.dims = 16\n")
    rc = main(["analyze", "--run", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {path}: non-finite state: b has ")


def test_analyze_rejects_snapshot_times_that_do_not_increase(tmp_path, capsys, small_state):
    run_dir, out = tmp_path / "run", tmp_path / "out"
    run_dir.mkdir()
    (run_dir / "config.txt").write_text("grid.dims = 16\n")
    for step, t in ((0, 0.0), (5, 0.25), (6, 0.25), (10, 0.5)):
        write_snapshot(run_dir / snapshot_name(step), State(small_state.u, small_state.b, t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["analyze", "--run", str(run_dir), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {run_dir / snapshot_name(6)}: time t=0.25 does not follow t=0.25 "
        f"of the snapshot before it, {run_dir / snapshot_name(5)}"
    ]
    assert not (out / SHELL_CSV).exists() and not (out / FLUX_CSV).exists()
    assert not out.exists()


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


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(block).values == _DEFAULTS


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
    # each state is reduced once per command; simulate reads no snapshot back
    assert calls == {"shell_energies": 3, "flux_terms": 3}  # read_snapshot: 0
    calls.clear()

    redo = tmp_path / "redo"
    assert main(["analyze", "--run", str(out), "--out", str(redo)]) == 0
    assert (redo / SHELL_CSV).read_bytes() == shell1
    assert (redo / FLUX_CSV).read_bytes() == flux1
    assert calls == dict.fromkeys(counted, 3)
    captured = capsys.readouterr()
    assert "existence time" in captured.out or "horizon" in captured.out
    assert "max energy-balance residual" in captured.out


def test_simulate_refuses_a_reused_out(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.004\nsolver.snapshot_every = 2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    # a second run, on another grid, into the same directory
    monkeypatch.setattr(cli, "run", no_run)
    other = tmp_path / "other.conf"
    other.write_text("grid.dims = 32\nsolver.tmax = 0.002\n")
    assert main(["simulate", "--config", str(other), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out: {out} already holds 3 snapshot(s) of an earlier run; "
        "choose a new or empty directory"
    ]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_mhd_csvs_do_not_depend_on_eta(tmp_path, capsys):
    # mhd integrates eta = 0, so params.eta must not reach the CSVs either:
    # I5 is 0 and both files match those of the same run with params.eta = 0
    files, stdout = [], []
    for eta in (1.0, 0.0):
        conf = tmp_path / f"eta{eta}.conf"
        conf.write_text(
            "grid.dims = 16\nsolver.tmax = 0.01\nsolver.snapshot_every = 2\n"
            f"solver.mode = mhd\nparams.eta = {eta}\n"
        )
        out = tmp_path / f"eta{eta}"
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
        redo = tmp_path / f"redo{eta}"
        assert main(["analyze", "--run", str(out), "--out", str(redo)]) == 0
        stdout.append(capsys.readouterr().out)
        for d in (out, redo):
            files.append([(d / name).read_bytes() for name in (SHELL_CSV, FLUX_CSV)])
    assert all(f == files[0] for f in files)
    rows = files[0][1].decode().splitlines()[1:]
    assert [float(row.split(",")[5]) for row in rows] == [0.0] * 6
    assert stdout[0] == stdout[1] and "max energy-balance residual" in stdout[0]


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


def test_uniqueness_reduces_each_snapshot_pair_once(tmp_path, capsys, monkeypatch):
    # the default calibration.C_nu_mu = 0 asks for the minimal constant, and
    # the check at it reuses the one reduction; each reduced pair takes one
    # gradient, of b2
    calls = []
    gradient = uniqueness.gradient

    def counted(f):
        calls.append(f)
        return gradient(f)

    monkeypatch.setattr(uniqueness, "gradient", counted)
    conf = tmp_path / "u.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.004\nsolver.snapshot_every = 2\n")
    assert load_config(str(conf))["calibration.C_nu_mu"] == 0.0
    assert main(["uniqueness", "--config", str(conf), "--perturb", "1e-6"]) == 0
    assert "holds with C_nu_mu=" in capsys.readouterr().out
    assert len(calls) == 3  # the snapshots at steps 0, 2 and 4


def test_uniqueness_reports_two_halted_runs(tmp_path, capsys, monkeypatch):
    # both runs trip the guard at the first snapshot, t = 0.01 of tmax = 0.05
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1e-12)
    conf = tmp_path / "u.conf"
    conf.write_text("grid.dims = 16\n")
    assert main(["uniqueness", "--config", str(conf), "--perturb", "1e-6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[1].startswith("difference energy at t=0.01: ")
    assert lines[3].startswith("gronwall bound holds")
    assert lines[4:] == [
        "reference run halted early: blow-up guard tripped at t=0.01",
        "perturbed run halted early: blow-up guard tripped at t=0.01",
    ]


@pytest.mark.parametrize("extra, t", [("", "0.01"), ("solver.snapshot_every = 150\n", "0.1")])
def test_uniqueness_names_the_one_halted_run(tmp_path, capsys, monkeypatch, extra, t):
    # --perturb -1 makes the perturbed data zero, which the guard never halts;
    # with snapshot_every = 150 the reference run halts at the guard step 100,
    # between the snapshots of the other run
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1e-12)
    conf = tmp_path / "u.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.2\n" + extra)
    assert main(["uniqueness", "--config", str(conf), "--perturb", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: reference run halted early: blow-up guard tripped at t={t}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_uniqueness_rejects_non_finite_perturb(tmp_path, capsys, monkeypatch, value):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "trajectory", no_run)
    conf = tmp_path / "u.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.004\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["uniqueness", "--config", str(conf), "--perturb", value])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: --perturb: must be a finite number, got {float(value)!r}\n"


def test_scaling_rejects_empty_band(tmp_path, capsys):
    # lambda = 4 on 16^3: the band dealias_cutoff(16) / 4 - 1 = 0.25 holds no mode
    conf = tmp_path / "s.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.004\n")
    rc = main(["scaling", "--mode", "mhd", "--lambda", "4", "--config", str(conf)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: --lambda: 4 ") and "grid.dims = 16" in err


def test_cli_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("grid.dims = 100\n")
    rc = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def _snapshot_fault(path, state, fault):
    """Write state's snapshot to path, broken as the fault names."""
    write_snapshot(path, state)
    data = bytearray(path.read_bytes())
    if fault == "snapshot truncated":
        path.write_bytes(bytes(data[:-16]))
    elif fault == "snapshot cut in its header":
        path.write_bytes(bytes(data[:30]))
    elif fault == "snapshot of a wrong version":
        struct.pack_into("<I", data, 4, 99)
        path.write_bytes(bytes(data))
    elif fault == "snapshot of format version 1":
        struct.pack_into("<I", data, 4, 1)
        path.write_bytes(bytes(data))
    elif fault == "snapshot of 1-component fields":
        u, b = (SpectralField(state.grid, f.coeffs[:1]) for f in (state.u, state.b))
        write_snapshot(path, State(u, b, 0.0))
    elif fault == "snapshot at a NaN time":
        write_snapshot(path, State(state.u, state.b, float("nan")))
    elif fault == "snapshot repeated":
        # the next snapshot holds the same time, so the times do not increase
        path.with_name(snapshot_name(1)).write_bytes(bytes(data))
    elif fault == "snapshot on another grid than the config's":
        zero = SpectralField.zero(Grid(3, 32), 3)
        write_snapshot(path, State(zero, zero, 0.0))
    elif fault == "snapshot followed by one on another grid":
        g = Grid(3, 32)
        zero = SpectralField.zero(g, 3)
        write_snapshot(path.with_name(snapshot_name(1)), State(zero, zero, 1.0))
    elif fault == "snapshot with u in a hall_only run":
        # a config that loads clean in hall_only, and state's nonzero u
        with open(path.parent / "config.txt", "a") as fh:
            fh.write("solver.mode = hall_only\ninit.target_u = 0\n")
    elif fault == "snapshot drifted":
        x = state.grid.coordinates()[0]
        divergent = dealias(to_spectral(state.grid, np.stack([np.sin(x), 0 * x, 0 * x])))
        write_snapshot(path, State(state.u, divergent, 0.0))
    else:
        raise AssertionError(f"unknown fault {fault!r}")


@pytest.mark.parametrize(
    "line, field",
    [
        # a config line, through every subcommand that loads a config
        ("solver.snapshot_every = 0", "solver.snapshot_every"),
        ("params.nu = nan", "params.nu"),
        ("solver.tmax = -1", "solver.tmax"),
        ("solver.tmax = 0.0025", "solver.tmax"),
        ("solver.mode = warp", "solver.mode"),
        ("solver.scheme = euler", "solver.scheme"),
        ("sweep.size = 0", "sweep.size"),
        ("init.seed = -5", "init.seed"),
        ("sweep.seed = -5", "sweep.seed"),
        ("init.target_u = -1", "init.target_u"),
        ("init.target_u = nan", "init.target_u"),
        ("init.band = -2", "init.band"),
        # no lattice mode has 0 < |k| < 1, so the draw would be zero
        ("init.band = 0.5", "init.band"),
        # s and eps are named by their own keys, not by the derived r, and
        # the space H^s x H^(s+1-eps) takes eps > 0
        ("sobolev.eps = nan", "sobolev.eps: must be finite and positive"),
        ("sobolev.s = inf", "sobolev.s: must be finite"),
        ("sobolev.eps = 0", "sobolev.eps: must be finite and positive"),
        ("sobolev.eps = -3", "sobolev.eps: must be finite and positive"),
        ("calibration.C = inf", "calibration.C"),
        ("calibration.C_nu_mu = -1", "calibration.C_nu_mu"),
        ("calibration.gamma_low = -1", "calibration.gamma_low"),
        ("calibration.gamma_high = 0.5", "calibration.gamma_high"),
        ("grid.dims = 12", "grid.dims"),
        ("grid.n = 4", "grid.n"),
        # a repeated key is refused, not taken at its last value
        ("grid.n = 3\ngrid.n = 2", "config line 3: key 'grid.n' repeats line 2"),
        # hall_only holds u at 0, and the default init.target_u is 1
        ("solver.mode = hall_only", "init.target_u"),
        # Beltrami data has u = 0, and the default init.target_u is 1
        ("init.kind = beltrami", "init.target_u"),
        ("init.target_u = 1e300", "init.target_u"),
        # a byte that is not UTF-8, named by file, line and column
        ("config byte 0xff on line 3", "config.txt line 3: not UTF-8 (byte 0xff at column 5)"),
        # "commands: fault", met after a clean load by the subcommands named
        ("analyze: snapshot truncated", "snap_00000000.hmhd"),
        ("analyze: snapshot cut in its header", "snap_00000000.hmhd"),
        ("analyze: snapshot of a wrong version", "snap_00000000.hmhd"),
        ("analyze: snapshot of format version 1",
         "snap_00000000.hmhd: unsupported format version 1"),
        ("analyze: snapshot drifted", "snap_00000000.hmhd"),
        ("analyze: snapshot with u in a hall_only run",
         "snap_00000000.hmhd: state drift: u must be zero in hall_only mode"),
        ("analyze: snapshot of 1-component fields", "snap_00000000.hmhd"),
        ("analyze: snapshot at a NaN time", "snap_00000000.hmhd"),
        ("analyze: snapshot repeated", "snap_00000001.hmhd"),
        ("analyze: snapshot on another grid than the config's",
         "snap_00000000.hmhd: grid (32, 32, 32) differs from the grid (16, 16, 16) "
         "of the run's config"),
        ("analyze: snapshot followed by one on another grid",
         "snap_00000001.hmhd: grid (32, 32, 32) differs from the grid (16, 16, 16)"),
        ("simulate analyze: --out below a regular file", "file/out"),
        ("simulate: --out holding a snapshot", "already holds 1 snapshot"),
        ("simulate uniqueness: params.eta = 1e300", "numerical blow-up"),
        # the first large arrays, 3 and 6 PiB, are beyond any address space and
        # fail at once, with no page touched
        ("simulate verify: grid.dims = 65536", "Unable to allocate"),
    ],
)
def test_cli_rejects_invalid_value(tmp_path, capsys, small_state, line, field):
    commands, _, fault = line.rpartition(": ")
    run_dir, out = tmp_path / "run", tmp_path / "out"
    run_dir.mkdir()
    conf = run_dir / "config.txt"
    # grid.dims is stated once: a fault that sets it stands alone
    fault_text = f"{fault}\n" if " = " in fault else ""
    conf.write_text(fault_text if fault.startswith("grid.dims = ") else "grid.dims = 16\n" + fault_text)
    if fault.startswith("snapshot "):
        _snapshot_fault(run_dir / snapshot_name(0), small_state, fault)
    elif fault == "config byte 0xff on line 3":
        conf.write_bytes(b"grid.dims = 16\n# sweep\ninit\xff.seed = 1\n")
    if fault == "--out below a regular file":
        # a valid run, so that analyze reaches its --out
        write_snapshot(run_dir / snapshot_name(0), small_state)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    elif fault == "--out holding a snapshot":
        out.mkdir()
        write_snapshot(out / snapshot_name(0), small_state)
    argvs = {
        "simulate": ["simulate", "--config", str(conf), "--out", str(out)],
        "verify": ["verify", "--config", str(conf)],
        "scaling": ["scaling", "--mode", "hall", "--lambda", "2", "--config", str(conf)],
        "uniqueness": ["uniqueness", "--perturb", "0.01", "--config", str(conf)],
        "analyze": ["analyze", "--run", str(run_dir), "--out", str(out)],
    }
    for command in commands.split() or argvs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argvs[command])
        # a warning prints to stderr when raised, before main's error line
        lines = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
        assert rc == 2, command
        assert lines[-1].startswith("error: ") and field in lines[-1], (command, lines)
        if field == "numerical blow-up":
            # the advisory CFL warning may come first, but no NumPy warning
            assert not any("encountered" in ln for ln in lines), (command, lines)
        else:
            assert len(lines) == 1, (command, lines)
        if not fault.startswith("--out") and field != "numerical blow-up":
            # simulate makes --out only once its initial state is built, and
            # analyze only once every snapshot has passed
            assert not out.exists(), command


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


@pytest.mark.parametrize("target_b, gamma, T", [("1e10", 40, "0"), ("1e-100", 2, "inf")])
def test_analyze_prints_existence_time_past_the_float_range(tmp_path, capsys, target_b, gamma, T):
    # psi0**gamma overflows (T = 0) or underflows (T = inf) a float
    conf = tmp_path / "run.conf"
    conf.write_text(
        "grid.dims = 16\nsolver.tmax = 0.002\ninit.kind = beltrami\ninit.target_u = 0\n"
        f"init.target_b = {target_b}\ncalibration.gamma_low = {gamma}\n"
        f"calibration.gamma_high = {gamma}\n"
    )
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 0
    captured = capsys.readouterr()
    assert f"predicted existence time T={T}, observed horizon 0.002\n" in captured.out
    assert captured.err == ""


def test_uniqueness_reports_blowup_of_huge_data_without_numpy_warning(tmp_path, capsys):
    # the squares in the sup norms of the CFL advisory overflow at t = 0
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.002\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["uniqueness", "--perturb=1e200", "--config", str(conf)])
    lines = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
    assert rc == 2
    assert lines[-1] == "error: numerical blow-up at t=0.001"
    assert "exceeds the advisory CFL bound" in lines[0]
    assert not any("encountered" in ln for ln in lines), lines


def test_cli_reports_bare_memory_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_verification", out_of_memory)
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\n")
    rc = main(["verify", "--config", str(conf)])
    assert rc == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


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


def test_simulate_rejects_non_hermitian_state(tmp_path, capsys, monkeypatch):
    initial_state = RunConfig.initial_state

    def skewed(self):
        st = initial_state(self)
        # i/2 at k = (1, 2, 0) and at -k: an anti-Hermitian, divergence-free
        # mode inside the 2/3 cube at 16^3
        st.b.coeffs[2, 1, 2, 0] += 0.5j
        st.b.coeffs[2, -1, -2, 0] += 0.5j
        return st

    monkeypatch.setattr(RunConfig, "initial_state", skewed)
    conf = tmp_path / "run.conf"
    conf.write_text("grid.dims = 16\n")
    rc = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: state drift: b is not Hermitian: ")


def test_uniqueness_rejects_option_like_perturb(tmp_path, capsys, monkeypatch):
    # argparse reads "-inf" as an option, so --perturb has no value
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "trajectory", no_run)
    conf = tmp_path / "u.conf"
    conf.write_text("grid.dims = 16\nsolver.tmax = 0.004\n")
    rc = main(["uniqueness", "--config", str(conf), "--perturb", "-inf"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "--perturb" in err


@pytest.mark.parametrize(
    "argv, word",
    [
        ([], "command"),
        (["bogus"], "bogus"),
        (["simulate", "--config", "c"], "--out"),
        (["scaling", "--mode", "mhd", "--lambda", "3", "--config", "c"], "--lambda"),
    ],
)
def test_cli_usage_errors_one_line(capsys, argv, word):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: hmhd") and word in captured.err


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["uniqueness", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: hmhd" in capsys.readouterr().out


def test_write_diagnostics_empty_dir(tmp_path):
    with pytest.raises(ValueError, match="no snapshots"):
        write_diagnostics(tmp_path, RunConfig())
