"""Experiment configuration files.

One YAML file describes an experiment: the plant (either a lattice
geometry or explicit matrices, inline or in referenced whitespace text
files), the solver settings, and optional sweep and comparison sections.
Everything is resolved and validated up front, so a bad reference fails
before any computation starts. The loader checks each section's keys and
shape and maps it onto the constructor that checks its values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .admm import AdmmConfig
from .baselines import DEFAULT_BUDGET
from .exceptions import ConfigError, DimensionError, InputError
from .linalg import _integral, _real
from .model import FieldGeometry, SystemModel, build_diffusion_system

__all__ = ["ExperimentConfig", "load_experiment"]

# A config's ``kind`` pins it to the command of that name.
_KINDS = ("run", "sweep", "compare", "validate")

_TOP_KEYS = {"kind", "system", "admm", "sweep", "compare", "seed", "output"}
_SYSTEM_KEYS = {"field", "matrices"}
_FIELD_KEYS = {f.name for f in fields(FieldGeometry)} | {"q_scale", "r_scale"}
_MATRIX_KEYS = ("A", "B", "C", "Q", "R")  # loaded in this order
_ADMM_KEYS = {f.name for f in fields(AdmmConfig)}
_SWEEP_KEYS = {"gammas", "etas"}
_COMPARE_KEYS = {"trials", "oracle", "total_activations", "budget"}
# libyaml's safe loader where PyYAML was built with it: the same objects as
# the pure-Python SafeLoader, parsed about ten times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: plant, solver settings, and extras."""

    system: SystemModel
    admm: Optional[AdmmConfig]
    kind: Optional[str]
    seed: int
    output: Optional[str]
    sweep_gammas: Optional[tuple]
    sweep_etas: Optional[tuple]
    compare_trials: int
    compare_oracle: bool
    compare_total_activations: Optional[int]
    compare_budget: int


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), its InputError or DimensionError re-raised as
    a ConfigError behind the YAML path ``where``. Each constructor, the two
    scalar rules, linalg._integral and _real, and the shape rule, _array,
    name the argument at the start of their messages, so "admm." and "period
    must be an integer, got 4.5" give the field's own path, and
    "system.matrices." and "Q is not positive semidefinite" give the
    matrix's."""
    try:
        return build(*args, **kwargs)
    except (InputError, DimensionError) as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _load_matrix(value, base: Path, where: str):
    """The matrix a file path string names, or the YAML value itself, which
    SystemModel reads by the shape rule."""
    if not isinstance(value, str):
        return value
    path = (base / value).resolve()
    if not path.is_file():
        raise ConfigError(f"{where}: referenced file {path} does not exist")
    try:
        return np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{where}: could not parse {path}: {exc}") from exc


def _build_system(section: dict, base: Path) -> SystemModel:
    section = _require_mapping(section, "system")
    _check_keys(section, _SYSTEM_KEYS, "system")
    sources = [k for k in ("field", "matrices") if k in section]
    if len(sources) != 1:
        raise ConfigError("system needs exactly one of 'field' or 'matrices'")

    if sources[0] == "field":
        f = _require_mapping(section["field"], "system.field")
        _check_keys(f, _FIELD_KEYS, "system.field")
        for key in ("ell_h", "ell_v", "sensor_sites"):
            if key not in f:
                raise ConfigError(f"system.field.{key} is required")
        lattice = {k: f[k] for k in f if k not in ("q_scale", "r_scale")}
        geom = _checked("system.field.", FieldGeometry, **lattice)
        # The YAML default of q_scale is 1.0, not the function's 0.25.
        scales = {"q_scale": 1.0, **{k: f[k] for k in ("q_scale", "r_scale") if k in f}}
        return _checked("system.field.", build_diffusion_system, geom, **scales)

    m = _require_mapping(section["matrices"], "system.matrices")
    _check_keys(m, set(_MATRIX_KEYS), "system.matrices")
    missing = [k for k in _MATRIX_KEYS if k not in m]
    if missing:
        raise ConfigError(f"system.matrices.{missing[0]} is required")
    mats = {k: _load_matrix(m[k], base, f"system.matrices.{k}") for k in _MATRIX_KEYS}
    return _checked("system.matrices.", SystemModel, **mats)


def _build_admm(section: dict) -> AdmmConfig:
    section = _require_mapping(section, "admm")
    _check_keys(section, _ADMM_KEYS, "admm")
    for key in ("period", "gamma", "eta"):
        if key not in section:
            raise ConfigError(f"admm.{key} is required")
    return _checked("admm.", AdmmConfig, **section)


def _check_sweep_grid(admm: AdmmConfig, n_sensors: int, gammas: tuple, etas: tuple) -> None:
    """Hold every sweep entry to the rules of admm.gamma and admm.eta, so a
    bad cell fails at load rather than after the cells before it ran."""
    cells = [("sweep.gammas", {"gamma": g}) for g in gammas]
    cells += [("sweep.etas", {"eta": e}) for e in etas]
    for where, change in cells:
        cell = _checked(f"{where}: ", replace, admm, **change)
        _checked(f"{where}: ", cell.eta_tuple, n_sensors)


def load_experiment(path) -> ExperimentConfig:
    """Parse and fully resolve one experiment file.

    Raises ConfigError with the offending field on any structural problem,
    including missing referenced files.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = yaml.load(path.read_bytes(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")
    base = path.parent

    kind = raw.get("kind")
    if kind is not None and kind not in _KINDS:
        raise ConfigError(f"kind must be one of {', '.join(_KINDS)}; got {kind!r}")

    if "system" not in raw:
        raise ConfigError("system section is required")
    system = _build_system(raw["system"], base)

    admm = None
    if "admm" in raw:
        admm = _build_admm(raw["admm"])
        _checked("admm.", admm.eta_tuple, system.n_sensors)

    sweep_gammas = None
    sweep_etas = None
    if "sweep" in raw:
        s = _require_mapping(raw["sweep"], "sweep")
        _check_keys(s, _SWEEP_KEYS, "sweep")
        if "gammas" in s:
            if not isinstance(s["gammas"], list) or not s["gammas"]:
                raise ConfigError("sweep.gammas must be a non-empty list")
            sweep_gammas = tuple(_checked("sweep.", _real, g, "gammas") for g in s["gammas"])
        if "etas" in s:
            if not isinstance(s["etas"], list) or not s["etas"]:
                raise ConfigError("sweep.etas must be a non-empty list")
            sweep_etas = tuple(tuple(e) if isinstance(e, list) else e for e in s["etas"])
        if admm is not None:
            _check_sweep_grid(admm, system.n_sensors, sweep_gammas or (), sweep_etas or ())

    compare_trials = 500
    compare_oracle = False
    compare_total = None
    compare_budget = DEFAULT_BUDGET
    if "compare" in raw:
        c = _require_mapping(raw["compare"], "compare")
        _check_keys(c, _COMPARE_KEYS, "compare")
        trials = c.get("trials", compare_trials)
        compare_trials = _checked("compare.", _integral, trials, "trials", least=0)
        compare_oracle = c.get("oracle", False)
        if not isinstance(compare_oracle, bool):
            raise ConfigError(f"compare.oracle must be true or false, got {compare_oracle!r}")
        if c.get("total_activations") is not None:
            # Held to the admm bounds here, not after the solve it would waste.
            most = None if admm is None else sum(admm.eta_tuple(system.n_sensors))
            total = c["total_activations"]
            compare_total = _checked("compare.", _integral, total, "total_activations", 0, most)
        compare_budget = _checked("compare.", _integral, c.get("budget", compare_budget), "budget")

    seed = _checked("", _integral, raw.get("seed", 0), "seed", least=0)
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output must be a directory path string")

    return ExperimentConfig(
        system=system,
        admm=admm,
        kind=kind,
        seed=seed,
        output=output,
        sweep_gammas=sweep_gammas,
        sweep_etas=sweep_etas,
        compare_trials=compare_trials,
        compare_oracle=compare_oracle,
        compare_total_activations=compare_total,
        compare_budget=compare_budget,
    )
