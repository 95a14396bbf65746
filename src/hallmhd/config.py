"""Flat key-value run configuration.

The config format is plain text, one dotted key per line:

    grid.n = 3
    grid.dims = 32
    params.nu = 0.05
    ...

'#' starts a comment.  Unknown or repeated keys, malformed lines and bad
values are rejected at load time with a field-level message, as are a
Sobolev pair that is not admissible and a nonzero init.target_u where u is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .littlewood_paley import SobolevParams
from .solver import PhysicalParams, SolverConfig, State, make_initial, whole_steps
from .spectral import Grid

_DEFAULTS = {
    "grid.n": 3,
    "grid.dims": 32,
    "params.nu": 0.05,
    "params.mu": 0.05,
    "params.eta": 0.1,
    "sobolev.s": 1.0,
    "sobolev.eps": 0.25,
    "solver.dt": 1e-3,
    "solver.tmax": 0.05,
    "solver.mode": "full",
    "solver.snapshot_every": 10,
    "init.kind": "random_band",
    "init.seed": 7,
    "init.target_u": 1.0,
    "init.target_b": 1.0,
    "init.band": 0.0,  # 0 means "use the grid's resolved band"
    "calibration.C": 1.0,
    "calibration.gamma_low": 1.0,
    "calibration.gamma_high": 1.0,
    "calibration.C_nu_mu": 0.0,  # 0 means "report the minimal passing value"
    "sweep.size": 20,
    "sweep.seed": 1234,
}


# value constraints checked at load: (keys, test, the rule the message states)
_RULES = (
    (("sweep.size",), lambda x: x >= 1, "at least 1"),
    (("init.seed", "sweep.seed"), lambda x: x >= 0, "non-negative"),
    # no lattice mode has 0 < |k| < 1, so a band below 1 draws zero fields
    (("init.band",), lambda x: x == 0 or x >= 1, "0 (the grid's resolved band) or at least 1"),
    (
        # the flux diagnostics are cubic in the data: larger targets overflow them
        ("init.target_u", "init.target_b"),
        lambda x: 0 <= x <= 1e100,
        "between 0 and 1e100",
    ),
    (("calibration.C_nu_mu",), lambda x: math.isfinite(x) and x >= 0, "finite and non-negative"),
    (
        ("calibration.C", "calibration.gamma_low"),
        lambda x: math.isfinite(x) and x > 0,
        "finite and positive",
    ),
)


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    def grid(self) -> Grid:
        return Grid(self.values["grid.n"], self.values["grid.dims"])

    def physical_params(self) -> PhysicalParams:
        v = self.values
        return PhysicalParams(v["params.nu"], v["params.mu"], v["params.eta"])

    def sobolev(self) -> SobolevParams:
        sob = SobolevParams.from_s_eps(self.values["sobolev.s"], self.values["sobolev.eps"])
        sob.validate(self.values["grid.n"])
        return sob

    def solver_config(self) -> SolverConfig:
        v = self.values
        return SolverConfig(
            params=self.physical_params(),
            sobolev=self.sobolev(),
            dt=v["solver.dt"],
            tmax=v["solver.tmax"],
            mode=v["solver.mode"],
            snapshot_every=v["solver.snapshot_every"],
        )

    def initial_state(self) -> State:
        v = self.values
        band = v["init.band"] if v["init.band"] > 0 else None
        return make_initial(
            v["init.kind"],
            self.grid(),
            v["init.seed"],
            (v["init.target_u"], v["init.target_b"]),
            self.sobolev(),
            band=band,
        )

    def validate(self) -> None:
        self.grid()
        self.sobolev()
        self.solver_config()
        tmax, dt = self.values["solver.tmax"], self.values["solver.dt"]
        if not whole_steps(tmax, dt):
            raise ValueError(
                f"solver.tmax: must be a whole number of solver.dt steps, "
                f"got tmax={tmax!r} with dt={dt!r} ({tmax / dt:.6g} steps)"
            )
        if self.values["init.kind"] not in ("beltrami", "taylor_green_like", "random_band"):
            raise ValueError(f"init.kind: unknown kind {self.values['init.kind']!r}")
        for keys, ok, rule in _RULES:
            for key in keys:
                if not ok(self.values[key]):
                    raise ValueError(f"{key}: must be {rule}, got {self.values[key]!r}")
        for key, value in (("solver.mode", "hall_only"), ("init.kind", "beltrami")):
            if self.values[key] == value and self.values["init.target_u"] != 0:
                raise ValueError(
                    f"init.target_u: must be 0 with {key} = {value}, which has u = 0, "
                    f"got {self.values['init.target_u']!r}"
                )
        low, high = self.values["calibration.gamma_low"], self.values["calibration.gamma_high"]
        if not (math.isfinite(high) and high >= low):
            raise ValueError(
                f"calibration.gamma_high: must be finite and at least "
                f"calibration.gamma_low = {low!r}, got {high!r}"
            )

    def to_text(self) -> str:
        lines = []
        for key in _DEFAULTS:
            val = self.values[key]
            if isinstance(val, float):
                lines.append(f"{key} = {val:.17g}")
            else:
                lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    values, seen = dict(_DEFAULTS), {}  # seen: key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _DEFAULTS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {seen[key]}")
        try:
            # each key has the type of its default: int, float or str
            values[key] = type(_DEFAULTS[key])(val)
        except ValueError:
            raise ValueError(f"config key {key}: cannot parse value {val!r}") from None
    cfg = RunConfig(values)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
