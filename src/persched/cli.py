"""Batch command-line front-end.

Four subcommands over one YAML experiment file: ``run`` executes a single
solve and writes report.json, schedule.txt, and trace.csv; ``sweep`` solves
once per sweep gamma into tradeoff.csv; ``compare`` scores the solver against
the random baseline and, when enabled, the exhaustive oracle into
compare.csv; ``validate`` checks the plant's standing assumptions and
writes nothing, so only the other three take ``--out``. ``main`` loads the
config once, checks that its ``kind`` names the command and that it has the
sections the command reads (``admm`` for the three that solve, ``sweep``
for sweep), and hands the command the loaded ExperimentConfig. Outputs are
plain JSON/CSV for external plotting and are byte-for-byte reproducible for
a fixed config, whose ``seed`` seeds the random baseline. The PERSCHED_LOG
environment variable sets the log level.

report.json, and each sweep cell's report, is
``json.dumps(report.to_dict(), indent=2, sort_keys=True)`` of the
SolveReport plus a newline, byte for byte; _json_text writes that text
recursively, each list of finite floats in one join of their reprs. Configs
parse through libyaml when PyYAML has it (config.load_experiment).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from . import __version__
from .admm import IterationRecord
from .admm import run as admm_run
from .admm import sweep as admm_sweep
from .baselines import exhaustive_search, random_baseline
from .config import ExperimentConfig, load_experiment
from .exceptions import BudgetError, ConfigError, PerschedError
from .model import validate_assumptions

__all__ = ["cmd_run", "cmd_sweep", "cmd_compare", "cmd_validate", "main", "console_main"]

logger = logging.getLogger(__name__)


def _setup_logging() -> None:
    name = os.environ.get("PERSCHED_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _out_dir(cfg: ExperimentConfig, out: Optional[str]) -> Path:
    path = Path(out if out is not None else (cfg.output or "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) byte for byte, for a value
    that starts on a line indented by ``indent``. Given an indent, json.dumps
    drops its C encoder and writes every element in Python; here a list of
    floats is one join of float.__repr__, json's own text for a finite float.
    Any other list, or one holding a NaN or an infinity (the only reprs with
    an "n"), goes item by item. A dict with a key that is not a string is
    left to json.dumps."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        if not all(isinstance(key, str) for key in value):
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
        items = (json.dumps(key) + ": " + _json_text(value[key], inner) for key in sorted(value))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        sep = ",\n" + inner
        try:
            text = sep.join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            text = ""
        if not text or "n" in text:
            text = sep.join(_json_text(item, inner) for item in value)
        return "[\n" + inner + text + "\n" + indent + "]"
    return json.dumps(value)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_text(payload) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _format_eta(eta) -> str:
    if hasattr(eta, "__len__"):
        return ";".join(str(int(e)) for e in eta)
    return str(int(eta))


def cmd_run(cfg: ExperimentConfig, out: Optional[str] = None) -> int:
    """Single solve. Exit 0 on convergence, 2 with a result at the cap."""
    report = admm_run(cfg.system, cfg.admm)

    out_dir = _out_dir(cfg, out)
    _write_json(out_dir / "report.json", report.to_dict())
    (out_dir / "schedule.txt").write_text(report.schedule.to_text() + "\n")
    columns = [f.name for f in fields(IterationRecord)]
    _write_csv(
        out_dir / "trace.csv",
        columns,
        ([getattr(rec, name) for name in columns] for rec in report.trace),
    )
    status = "converged" if report.converged else "hit the iteration cap"
    print(
        f"{status} after {report.iterations} iterations: "
        f"J_polished={report.j_polished:.6g}, "
        f"activations={report.schedule.total_activations}; results in {out_dir}"
    )
    return 0 if report.converged else 2


def cmd_sweep(cfg: ExperimentConfig, out: Optional[str] = None) -> int:
    """One solve per gamma into tradeoff.csv plus one report JSON per cell."""
    cells = admm_sweep(cfg.system, cfg.admm, cfg.sweep_gammas)
    eta = _format_eta(cfg.admm.eta)
    out_dir = _out_dir(cfg, out)
    rows = []
    for i, cell in enumerate(cells):
        if cell.report is None:
            rows.append((cell.gamma, eta, "", "", "", "", "", cell.error))
            continue
        rep = cell.report
        rows.append(
            (
                cell.gamma,
                eta,
                rep.schedule.total_activations,
                rep.j_raw,
                rep.j_polished,
                rep.iterations,
                rep.converged,
                "ok",
            )
        )
        _write_json(out_dir / f"cell_{i:03d}_report.json", rep.to_dict())
    _write_csv(
        out_dir / "tradeoff.csv",
        (
            "gamma",
            "eta",
            "total_activations",
            "j_raw",
            "j_polished",
            "iterations",
            "converged",
            "status",
        ),
        rows,
    )
    n_ok = sum(1 for cell in cells if cell.report is not None)
    print(f"swept {len(cells)} cells ({n_ok} succeeded); results in {out_dir}")
    if n_ok == len(cells):
        return 0
    return 2 if n_ok else 1


def cmd_compare(cfg: ExperimentConfig, out: Optional[str] = None) -> int:
    """Solver vs random baseline vs oracle, into compare.csv.

    The baseline, seeded by the config's ``seed``, matches the solver's
    total activation count. The oracle, when enabled, searches all schedules
    within the frequency bounds; a refusal at exhaustive_search's fixed
    budget is recorded as a note rather than failing the command.
    """
    admm_cfg = cfg.admm
    report = admm_run(cfg.system, admm_cfg)
    matched = report.schedule.total_activations
    eta = admm_cfg.eta_tuple(cfg.system.n_sensors)

    rows = [
        (
            "admm_polished",
            report.j_polished,
            "",
            1,
            report.schedule.total_activations,
            "converged" if report.converged else "cap hit",
        )
    ]

    if cfg.compare_trials > 0:
        baseline = random_baseline(
            cfg.system,
            admm_cfg.period,
            eta,
            total_activations=matched,
            trials=cfg.compare_trials,
            seed=cfg.seed,
        )
        rows.append(
            ("random_baseline", baseline.mean, baseline.std, cfg.compare_trials, matched, "")
        )
    else:
        rows.append(("random_baseline", "", "", 0, "", "skipped: trials = 0"))

    if cfg.compare_oracle:
        try:
            oracle = exhaustive_search(cfg.system, admm_cfg.period, eta)
            note = f"skipped {oracle.n_skipped} invalid" if oracle.n_skipped else ""
            rows.append(
                (
                    "oracle",
                    oracle.J,
                    "",
                    oracle.n_evaluated,
                    oracle.schedule.total_activations,
                    note,
                )
            )
        except BudgetError as exc:
            rows.append(("oracle", "", "", "", "", f"skipped: {exc}"))
    else:
        rows.append(("oracle", "", "", "", "", "skipped: oracle disabled"))

    out_dir = _out_dir(cfg, out)
    _write_csv(
        out_dir / "compare.csv",
        ("method", "J", "J_std", "count", "total_activations", "note"),
        rows,
    )
    print(f"compared {len(rows)} methods; results in {out_dir}")
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    """Standing-assumption checks. Exit 0 when all pass."""
    report = validate_assumptions(cfg.system)
    print(report.summary())
    return 0 if report.all_ok else 1


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="persched",
        description="Joint design of periodic estimator gains and sparse sensor schedules.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": (cmd_run, "one solve: report.json, schedule.txt, trace.csv"),
        "sweep": (cmd_sweep, "one solve per gamma: tradeoff.csv"),
        "compare": (cmd_compare, "solver vs baseline vs oracle: compare.csv"),
        "validate": (cmd_validate, "check plant assumptions"),
    }
    for name, (_, text) in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="experiment YAML file")
        if name != "validate":
            p.add_argument("--out", default=None, help="output directory (default from config)")
    options = vars(parser.parse_args(argv))

    name = options.pop("command")
    try:
        cfg = load_experiment(options.pop("config"))
        if cfg.kind is not None and cfg.kind != name:
            raise ConfigError(f"config kind {cfg.kind!r} does not match command {name!r}")
        if cfg.admm is None and name != "validate":
            raise ConfigError(f"admm section is required for {name}")
        if name == "sweep" and cfg.sweep_gammas is None:
            raise ConfigError("sweep section with gammas is required for sweep")
        return commands[name][0](cfg, **options)
    except (PerschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
