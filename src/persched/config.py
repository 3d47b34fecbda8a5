"""Experiment configuration files.

One YAML file describes an experiment: the plant (either a lattice
geometry or explicit matrices, inline or in referenced whitespace text
files), the solver settings, and optional sweep and comparison sections.
Everything is resolved and validated up front, so a bad reference fails
before any computation starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .admm import AdmmConfig
from .baselines import DEFAULT_BUDGET
from .exceptions import ConfigError, InputError
from .model import FieldGeometry, SystemModel, build_diffusion_system

__all__ = ["ExperimentConfig", "load_experiment"]

# A config's ``kind`` pins it to the command of that name.
_KINDS = ("run", "sweep", "compare", "validate")

_TOP_KEYS = {"kind", "system", "admm", "sweep", "compare", "seed", "output"}
_SYSTEM_KEYS = {"field", "matrices"}
_FIELD_KEYS = {
    "ell_h",
    "ell_v",
    "spacing",
    "sample_interval",
    "sensor_sites",
    "q_scale",
    "r_scale",
}
_MATRIX_KEYS = {"A", "B", "C", "Q", "R"}
_ADMM_KEYS = {f.name for f in fields(AdmmConfig)}
_SWEEP_KEYS = {"gammas", "etas"}
_COMPARE_KEYS = {"trials", "oracle", "total_activations", "budget"}


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


def _integer(value, where: str) -> int:
    """A YAML integer field as an int. Integral floats such as 4.0 pass;
    anything else, 4.5 or a string or a boolean, is a ConfigError rather
    than a silent truncation."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A YAML real field as a float. Ints and floats pass; a string or a
    boolean is a ConfigError rather than a parse error or a silent 1.0."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _load_matrix(value, base: Path, where: str) -> np.ndarray:
    if isinstance(value, str):
        path = (base / value).resolve()
        if not path.is_file():
            raise ConfigError(f"{where}: referenced file {path} does not exist")
        try:
            return np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{where}: could not parse {path}: {exc}") from exc
    if isinstance(value, list):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: not a numeric array: {exc}") from exc
        if arr.ndim != 2:
            raise ConfigError(f"{where}: expected a 2-D array, got ndim={arr.ndim}")
        return arr
    raise ConfigError(f"{where} must be a nested array or a file path string")


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
        sites = f["sensor_sites"]
        if not isinstance(sites, list) or not all(
            isinstance(s, list) and len(s) == 2 for s in sites
        ):
            raise ConfigError("system.field.sensor_sites must be a list of [i, j] pairs")
        where = "system.field.sensor_sites"
        geom = FieldGeometry(
            ell_h=_integer(f["ell_h"], "system.field.ell_h"),
            ell_v=_integer(f["ell_v"], "system.field.ell_v"),
            spacing=_number(f.get("spacing", 1.0), "system.field.spacing"),
            sample_interval=_number(f.get("sample_interval", 0.5), "system.field.sample_interval"),
            sensor_sites=tuple((_integer(i, where), _integer(j, where)) for i, j in sites),
        )
        scales = {k: _number(f.get(k, 1.0), f"system.field.{k}") for k in ("q_scale", "r_scale")}
        return build_diffusion_system(geom, **scales)

    m = _require_mapping(section["matrices"], "system.matrices")
    _check_keys(m, _MATRIX_KEYS, "system.matrices")
    missing = sorted(_MATRIX_KEYS - set(m))
    if missing:
        raise ConfigError(f"system.matrices.{missing[0]} is required")
    mats = {k: _load_matrix(m[k], base, f"system.matrices.{k}") for k in _MATRIX_KEYS}
    return SystemModel(A=mats["A"], B=mats["B"], C=mats["C"], Q=mats["Q"], R=mats["R"])


def _build_admm(section: dict) -> AdmmConfig:
    section = _require_mapping(section, "admm")
    _check_keys(section, _ADMM_KEYS, "admm")
    for key in ("period", "gamma", "eta"):
        if key not in section:
            raise ConfigError(f"admm.{key} is required")
    kwargs = {
        "period": _integer(section["period"], "admm.period"),
        "gamma": _number(section["gamma"], "admm.gamma"),
        "eta": tuple(section["eta"]) if isinstance(section["eta"], list) else section["eta"],
    }
    if "max_iters" in section:
        kwargs["max_iters"] = _integer(section["max_iters"], "admm.max_iters")
    for key in ("rho", "eps"):
        if key in section:
            kwargs[key] = _number(section[key], f"admm.{key}")
    try:
        return AdmmConfig(**kwargs)
    except InputError as exc:
        raise ConfigError(f"admm: {exc}") from exc


def _check_sweep_grid(admm: AdmmConfig, n_sensors: int, gammas: tuple, etas: tuple) -> None:
    """Hold every sweep entry to the rules of admm.gamma and admm.eta, so a
    bad cell fails at load rather than after the cells before it ran."""
    cells = [("sweep.gammas", {"gamma": g}) for g in gammas]
    cells += [("sweep.etas", {"eta": e}) for e in etas]
    for where, change in cells:
        try:
            replace(admm, **change).eta_tuple(n_sensors)
        except InputError as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def load_experiment(path) -> ExperimentConfig:
    """Parse and fully resolve one experiment file.

    Raises ConfigError with the offending field on any structural problem,
    including missing referenced files.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = yaml.safe_load(path.read_text())
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
        try:
            admm.eta_tuple(system.n_sensors)
        except InputError as exc:
            raise ConfigError(f"admm.eta: {exc}") from exc

    sweep_gammas = None
    sweep_etas = None
    if "sweep" in raw:
        s = _require_mapping(raw["sweep"], "sweep")
        _check_keys(s, _SWEEP_KEYS, "sweep")
        if "gammas" in s:
            if not isinstance(s["gammas"], list) or not s["gammas"]:
                raise ConfigError("sweep.gammas must be a non-empty list")
            sweep_gammas = tuple(_number(g, "sweep.gammas") for g in s["gammas"])
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
        compare_trials = _integer(c.get("trials", compare_trials), "compare.trials")
        if compare_trials < 0:
            raise ConfigError("compare.trials must be nonnegative")
        compare_oracle = c.get("oracle", False)
        if not isinstance(compare_oracle, bool):
            raise ConfigError(f"compare.oracle must be true or false, got {compare_oracle!r}")
        if c.get("total_activations") is not None:
            compare_total = _integer(c["total_activations"], "compare.total_activations")
        compare_budget = _integer(c.get("budget", compare_budget), "compare.budget")

    seed = _integer(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
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
