"""Run configuration: INI files with sections, overridable from the command line.

Runs have enough knobs that flag-only invocation is unreadable, so the source
of truth is a structured-text file; every key can still be overridden with
``--set section.key=value``.  A configuration hashes to a short digest that
each report embeds, making artifacts self-describing.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import maps, synth
from .forms import Grid

__all__ = ["RunConfig", "config_hash", "load_config"]

MAP_KINDS = ("geodesic", "perturbed", "heatflow", "synthetic_omega")
BASES = ("constant", "geodesic")
_RANDOM_KINDS = ("perturbed", "heatflow", "synthetic_omega")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a pipeline run, flat and validated."""

    # grid
    n: int = 3
    res: int = 32
    # map
    map_kind: str = "heatflow"
    m: int = 3
    base: str = "constant"         # starting map for perturbed/heatflow kinds
    wave: tuple = (1, 0, 0)        # winding vector of geodesic maps
    delta: float = 3e-4            # perturbation amplitude
    seed: int | None = 42
    kmin: int = 4                  # perturbation band
    kmax: int = 4
    flow_time: float = 0.0137      # total heat-flow time
    flow_steps: int = 0            # 0 derives steps from the stability bound
    # omega
    epsilon: float | None = None   # target Lorentz size of synthetic connections
    exact_frac: float = 0.0
    omega_kmax: int = 2
    support: str = "full"
    # gauge
    gauge_tol: float = 1e-5
    gauge_max_iter: int = 5000
    # solver
    solver_tol: float = 1e-8
    solver_max_iter: int = 200
    regime_limit: float = 1.0
    probe_seed: int | None = 7
    # study
    resolutions: tuple = (16, 32, 64)
    # output
    out_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "wave", tuple(int(w) for w in self.wave))
        object.__setattr__(
            self, "resolutions", tuple(int(r) for r in self.resolutions))
        if self.map_kind not in MAP_KINDS:
            raise ValueError(f"map kind must be one of {MAP_KINDS}, "
                             f"got {self.map_kind!r}")
        if self.base not in BASES:
            raise ValueError(f"base map must be one of {BASES}, got {self.base!r}")
        if self.m < 2:
            raise ValueError(f"target dimension must be >= 2, got {self.m}")
        for name in ("gauge_tol", "solver_tol", "flow_time"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails it too
                raise ValueError(f"{name} must be positive and finite")
        if not self.regime_limit > 0:  # inf lifts the guard; NaN fails
            raise ValueError("regime_limit must be positive")
        for name in ("gauge_max_iter", "solver_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.flow_steps < 0:
            raise ValueError("flow_steps must be nonnegative")
        if self.epsilon is not None and not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if self.map_kind in _RANDOM_KINDS and self.seed is None:
            raise ValueError(
                f"map kind {self.map_kind!r} draws random numbers: set a seed")
        self._check_rungs()

    def _check_rungs(self):
        """Refuse at load what a stage would refuse at `res` or a study rung,
        with the rule the stage runs: the grid, and each wave, noise
        amplitude, connection or band, where the stage builds or draws it."""
        perturbs = self.map_kind in ("perturbed", "heatflow")
        needs_wave = self.map_kind == "geodesic" or (
            perturbs and self.base == "geodesic")
        draws_omega = self.map_kind == "synthetic_omega" and self.epsilon != 0.0
        if perturbs:
            maps.check_noise(self.delta)
        if draws_omega:
            synth.check_connection(self.support, self.exact_frac)
        for res in (self.res,) + self.resolutions:
            grid = Grid(self.n, res)  # raises on a dimension or resolution no grid takes
            if needs_wave:
                maps.check_wave(grid, self.wave)
            if perturbs and self.delta != 0.0:
                synth.check_band(res, self.kmax, self.kmin)
            if draws_omega:
                synth.check_band(res, self.omega_kmax)

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc.pop("out_dir")  # where a run lands does not define the run
        return doc


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of every field; embedded in all reports."""
    blob = json.dumps(cfg.as_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _opt_int(text: str) -> int | None:
    return None if text.strip().lower() == "none" else int(text)


def _float(text: str) -> float:
    if math.isnan(value := float(text)):
        raise ValueError(f"a configuration number cannot be NaN, got {text!r}")
    return value


def _opt_float(text: str) -> float | None:
    return None if text.strip().lower() == "none" else _float(text)


def _int_tuple(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# section -> key -> (RunConfig field, parser)
_SCHEMA = {
    "grid": {"n": ("n", int), "res": ("res", int)},
    "map": {
        "kind": ("map_kind", str),
        "m": ("m", int),
        "base": ("base", str),
        "wave": ("wave", _int_tuple),
        "delta": ("delta", _float),
        "seed": ("seed", _opt_int),
        "kmin": ("kmin", int),
        "kmax": ("kmax", int),
        "flow_time": ("flow_time", _float),
        "flow_steps": ("flow_steps", int),
    },
    "omega": {
        "epsilon": ("epsilon", _opt_float),
        "exact_frac": ("exact_frac", _float),
        "kmax": ("omega_kmax", int),
        "support": ("support", str),
    },
    "gauge": {"tol": ("gauge_tol", _float), "max_iter": ("gauge_max_iter", int)},
    "solver": {
        "tol": ("solver_tol", _float),
        "max_iter": ("solver_max_iter", int),
        "regime_limit": ("regime_limit", _float),
        "probe_seed": ("probe_seed", _opt_int),
    },
    "study": {"resolutions": ("resolutions", _int_tuple)},
    "output": {"dir": ("out_dir", str)},
}


def _parse(section: str, key: str, raw: str) -> tuple:
    """(RunConfig field, parsed value) of one key; errors name the key."""
    try:
        field, parse = _SCHEMA[section][key]
    except KeyError:
        raise ValueError(f"unknown configuration key {section}.{key}") from None
    try:
        return field, parse(raw)
    except ValueError as exc:
        raise ValueError(f"{section}.{key}: {exc}") from None


def load_config(path, overrides=()) -> RunConfig:
    """Parse an INI file, apply ``section.key=value`` overrides, validate."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None
    fields = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            field, value = _parse(section, key, raw)
            fields[field] = value
    for item in overrides:
        target, sep, raw = item.partition("=")
        if not sep or "." not in target:
            raise ValueError(f"overrides look like section.key=value, got {item!r}")
        section, _, key = target.partition(".")
        field, value = _parse(section.strip(), key.strip(), raw)
        fields[field] = value
    return RunConfig(**fields)
