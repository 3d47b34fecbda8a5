"""Command-line front-end: outputs, exit codes, reproducibility."""

import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persched as ps
import persched.cli as cli
from persched.cli import main

ROOT = Path(__file__).resolve().parent.parent

TINY = """
system:
  field:
    ell_h: 1
    ell_v: 1
    spacing: 1.0
    sample_interval: 0.5
    sensor_sites: [[0, 0], [1, 1]]
    q_scale: 0.25
admm:
  period: 4
  gamma: 0.02
  eta: 2
  rho: 20.0
seed: 3
"""


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRun:
    def test_converged_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert "converged" in capsys.readouterr().out

        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["config"]["period"] == 4
        assert report["config"]["rho"] == 20.0
        assert len(report["trace"]) == report["iterations"]

        grid = (out / "schedule.txt").read_text()
        rows = [line.split() for line in grid.strip().splitlines()]
        assert len(rows) == 4
        assert all(len(r) == 2 for r in rows)

        trace = read_csv(out / "trace.csv")
        assert trace[0] == [
            "iteration",
            "primal_residual",
            "g_change",
            "phi",
            "cardinality",
            "inner_iterations",
        ]
        assert len(trace) == report["iterations"] + 1

    def test_cap_hit_exits_two_with_outputs(self, tmp_path):
        cfg = write_config(tmp_path, TINY.replace("rho: 20.0", "rho: 20.0\n  max_iters: 1"))
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert (out / "report.json").is_file()
        assert json.loads((out / "report.json").read_text())["converged"] is False

    def test_invalid_settings_rejected_before_solving(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY.replace("rho: 20.0", "rho: 0.0"))
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert "rho" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_reference_exits_one_without_outputs(self, tmp_path, capsys):
        text = """
system:
  matrices:
    A: a.txt
    B: b.txt
    C: c.txt
    Q: q.txt
    R: r.txt
admm: {period: 2, gamma: 0.0, eta: 1}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_admm_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY.split("admm:")[0])
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "admm section" in capsys.readouterr().err

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind: sweep\n" + TINY)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "kind" in capsys.readouterr().err

    def test_config_that_is_not_utf8_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_bytes(b"\x80\x81")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: could not parse")

    def test_byte_for_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        for name in ("report.json", "schedule.txt", "trace.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_benchmark_regression(self, tmp_path):
        # The shipped diffusion benchmark with a sparsity penalty: the solve
        # must converge and activate only the interior sensors.
        out = tmp_path / "results"
        assert main(["run", str(ROOT / "configs" / "benchmark.yaml"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["total_activations"] > 0
        schedule = (out / "schedule.txt").read_text()
        assert "1" in schedule


def report_text(report):
    """The report.json of ``report`` as json itself writes it."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


class TestReportBytes:
    """report.json and each sweep cell's report are json.dumps(...,
    indent=2, sort_keys=True) of SolveReport.to_dict(), byte for byte."""

    def test_run_report(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        exp = ps.load_experiment(cfg)
        report = ps.run(exp.system, exp.admm)
        assert (out / "report.json").read_text() == report_text(report)

    def test_sweep_cell_report(self, tmp_path):
        cfg = write_config(tmp_path, TINY + "sweep:\n  gammas: [0.0, 0.05]\n")
        out = tmp_path / "results"
        assert main(["sweep", cfg, "--out", str(out)]) == 0
        exp = ps.load_experiment(cfg)
        cells = ps.sweep(exp.system, exp.admm, exp.sweep_gammas)
        assert (out / "cell_001_report.json").read_text() == report_text(cells[1].report)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)


@st.composite
def number_arrays(draw):
    """Nested lists of equal lengths down to numbers, booleans and None,
    ints and floats mixed: the shape the writer encodes in one call."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    leaves = st.none() | st.booleans() | st.integers() | st.floats()
    words = draw(st.lists(leaves, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    for length in reversed(shape[1:]):
        words = [words[i : i + length] for i in range(0, len(words), length)]
    return words


PAYLOADS = st.recursive(
    SCALARS | number_arrays(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    """cli._json_text writes what json.dumps(x, indent=2, sort_keys=True)
    writes, on any payload with string keys."""

    @example({})
    @example([[], [[]], {}])
    @example([[-0.0, 5e-324, 1e308], [float("nan"), float("inf"), -float("inf")]])
    @example({"b": [[1, 2.5], [True, None]], "a": [[[0.1]], [[-2]]], "é\n\"": "\u2028\x00"})
    @example([[1, 2], [3]])
    @example([[1, [2]], [3, 4]])
    @example([["a, b", "[c]"], ["d", "e"]])
    @example([[0.5, 1e-7, float("nan")], [2.5, -3.0, float("-inf")]])
    @example([np.float64(0.1), np.float64(-0.0), np.float64(1e300)])
    @example([[0.5, 1], [0.5, True], [0.5, None], [None, 0.5]])
    @example([[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]])
    @given(payload=PAYLOADS)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_matches_json_dumps(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_non_string_keys_left_to_json(self):
        payload = {"x": {2: [1.5], 1: None}}
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


class TestSweep:
    def test_grid_outputs(self, tmp_path):
        text = TINY + "sweep:\n  gammas: [0.0, 0.05, 0.1]\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "results"
        assert main(["sweep", cfg, "--out", str(out)]) == 0

        rows = read_csv(out / "tradeoff.csv")
        assert rows[0] == [
            "gamma",
            "eta",
            "total_activations",
            "j_raw",
            "j_polished",
            "iterations",
            "converged",
            "status",
        ]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["0.0", "0.05", "0.1"]
        # Every cell solves at the admm section's eta.
        assert [r[1] for r in rows[1:]] == ["2", "2", "2"]
        assert all(r[-1] == "ok" for r in rows[1:])
        assert (out / "cell_000_report.json").is_file()
        assert (out / "cell_002_report.json").is_file()

    def test_single_cell_matches_run(self, tmp_path):
        run_cfg = write_config(tmp_path, TINY, name="run.yaml")
        sweep_cfg = write_config(
            tmp_path, TINY + "sweep:\n  gammas: [0.02]\n", name="sweep.yaml"
        )
        out_run, out_sweep = tmp_path / "run_out", tmp_path / "sweep_out"
        assert main(["run", run_cfg, "--out", str(out_run)]) == 0
        assert main(["sweep", sweep_cfg, "--out", str(out_sweep)]) == 0

        report = json.loads((out_run / "report.json").read_text())
        cell = json.loads((out_sweep / "cell_000_report.json").read_text())
        assert cell == report
        row = read_csv(out_sweep / "tradeoff.csv")[1]
        assert float(row[4]) == pytest.approx(report["j_polished"], rel=1e-12)

    def test_empty_gamma_list_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY + "sweep:\n  gammas: []\n")
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, error",
        [
            pytest.param(grid, error, id=grid)
            for grid, error in [
                ("gammas: [0.0, -1.0]", "sweep.gammas: gamma must be nonnegative, got -1.0"),
                # A leftover etas key is refused whatever its entries: eta is admm.eta.
                ("etas: [2, 9]", "unknown key 'etas' in sweep"),
                ("etas: [2, x]", "unknown key 'etas' in sweep"),
            ]
        ],
    )
    def test_bad_grid_entry_fails_before_any_cell(self, tmp_path, capsys, grid, error):
        cfg = write_config(tmp_path, TINY + f"sweep:\n  {grid}\n")
        out = tmp_path / "results"
        assert main(["sweep", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_missing_sweep_section_rejected(self, tmp_path, capsys):
        for section in ("", "sweep: {}\n"):
            cfg = write_config(tmp_path, TINY + section)
            assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 1
            error = capsys.readouterr().err
            assert error == "error: sweep section with gammas is required for sweep\n"


# At gamma = 0 the tiny plant keeps a saturated, non-degenerate schedule, so
# the matched-cardinality baseline has many masks to draw from.
COMPARE_TINY = TINY.replace("gamma: 0.02", "gamma: 0.0")


class TestCompare:
    def test_three_methods_with_oracle(self, tmp_path):
        text = COMPARE_TINY + "compare:\n  trials: 30\n  oracle: true\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "results"
        assert main(["compare", cfg, "--out", str(out)]) == 0

        rows = read_csv(out / "compare.csv")
        assert rows[0] == ["method", "J", "J_std", "count", "total_activations", "note"]
        methods = [r[0] for r in rows[1:]]
        assert methods == ["admm_polished", "random_baseline", "oracle"]
        j_admm, j_base, j_oracle = (float(rows[i][1]) for i in (1, 2, 3))
        assert j_oracle <= j_admm + 1e-9
        assert j_oracle <= j_base + 1e-9

    def test_budget_refusal_is_noted_not_fatal(self, tmp_path):
        # K = 12 with two sensors at eta = 6 has 6,300,100 candidate
        # schedules, more than exhaustive_search's default budget admits.
        text = TINY.replace("period: 4", "period: 12").replace("eta: 2", "eta: 6")
        cfg = write_config(tmp_path, text + "compare:\n  trials: 5\n  oracle: true\n")
        out = tmp_path / "results"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        oracle_row = read_csv(out / "compare.csv")[3]
        assert oracle_row[1] == ""
        assert oracle_row[5] == (
            "skipped: 6300100 candidate schedules exceed the enumeration budget of 1000000"
        )

    def test_zero_trials_noted(self, tmp_path):
        text = TINY + "compare:\n  trials: 0\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "results"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        baseline_row = read_csv(out / "compare.csv")[2]
        assert baseline_row[3] == "0"
        assert "trials" in baseline_row[5]

    def test_seed_reproducible_and_overridable(self, tmp_path):
        # The config's seed is the baseline's one seed.
        text = COMPARE_TINY + "compare:\n  trials: 20\n"
        cfg = write_config(tmp_path, text)
        reseeded = write_config(tmp_path, text.replace("seed: 3", "seed: 99"), "reseeded.yaml")
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["compare", cfg, "--out", str(out_a)]) == 0
        assert main(["compare", cfg, "--out", str(out_b)]) == 0
        assert main(["compare", reseeded, "--out", str(out_c)]) == 0
        assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()
        assert (out_a / "compare.csv").read_bytes() != (out_c / "compare.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["oracle", "baseline"])
    def test_kind_names_the_command(self, tmp_path, capsys, kind):
        # compare is pinned by kind: compare alone; no alias stands in for it.
        cfg = write_config(tmp_path, f"kind: {kind}\n" + TINY + "compare:\n  trials: 5\n")
        assert main(["compare", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "kind must be one of run, sweep, compare, validate" in capsys.readouterr().err


class TestValidate:
    def test_sound_plant_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        assert main(["validate", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_undetectable_plant_fails(self, tmp_path, capsys):
        text = """
system:
  matrices:
    A: [[1.1, 0.0], [0.0, 0.5]]
    B: [[0.0], [1.0]]
    C: [[0.0, 1.0]]
    Q: [[1.0]]
    R: [[1.0]]
"""
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out


    @pytest.mark.parametrize("content", ["", "  \n\n", "# no rows\n"])
    def test_empty_matrix_file_is_a_parse_error(self, tmp_path, content):
        # NumPy warns on a file with no data; the command reports it as the
        # one error line of an unparsable file, with no warning beside it.
        (tmp_path / "b.txt").write_text(content)
        text = """
system:
  matrices:
    A: [[0.5]]
    B: b.txt
    C: [[1.0]]
    Q: [[1.0]]
    R: [[1.0]]
"""
        cfg = write_config(tmp_path, text)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "persched.cli", "validate", cfg],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: system.matrices.B: could not parse")


COMMANDS = ("run", "sweep", "compare", "validate")


# (command, a config it must refuse, the refusal), each refused before a solve
BAD_CONFIGS = [
    pytest.param(
        c, f"kind: {k}\n" + TINY, f"config kind {k!r} does not match command {c!r}", id=f"{c}-kind"
    )
    for c, k in zip(COMMANDS, ("validate", "validate", "validate", "run"))
] + [
    pytest.param(c, TINY.split("admm:")[0], f"admm section is required for {c}", id=f"{c}-admm")
    for c in COMMANDS[:3]
]


def out_flag(command, tmp_path):
    return [] if command == "validate" else ["--out", str(tmp_path / "o")]


class TestMainEntry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "persched" in capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--seed", "3"]])
    def test_unread_flags_rejected(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path, TINY)
        with pytest.raises(SystemExit) as excinfo:
            main([command, cfg, *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_loaded_once(self, tmp_path, monkeypatch, command):
        loads = []

        def counting_load(path):
            loads.append(path)
            return ps.load_experiment(path)

        monkeypatch.setattr(cli, "load_experiment", counting_load)
        text = COMPARE_TINY + "sweep:\n  gammas: [0.0]\ncompare:\n  trials: 5\n"
        cfg = write_config(tmp_path, text)
        assert main([command, cfg, *out_flag(command, tmp_path)]) == 0
        assert loads == [cfg]

    @pytest.mark.parametrize("command, text, message", BAD_CONFIGS)
    def test_config_checked_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, text, message
    ):
        solves = []
        for name in ("admm_run", "admm_sweep", "validate_assumptions"):
            monkeypatch.setattr(cli, name, lambda *args: solves.append(args))
        cfg = write_config(tmp_path, text + "sweep:\n  gammas: [0.0]\n")
        assert main([command, cfg, *out_flag(command, tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert solves == []
        assert not (tmp_path / "o").exists()

    def test_validate_rejects_out(self, tmp_path, capsys):
        # validate writes no file, so an output directory would go unread.
        cfg = write_config(tmp_path, TINY)
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", cfg, "--out", str(tmp_path / "results")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "x.yaml"])
        assert excinfo.value.code == 2

    def test_log_level_from_environment(self, monkeypatch):
        captured = {}

        def fake_basic_config(**kwargs):
            captured.update(kwargs)

        monkeypatch.setenv("PERSCHED_LOG", "debug")
        monkeypatch.setattr(logging, "basicConfig", fake_basic_config)
        with pytest.raises(SystemExit):
            main(["--version"])
        assert captured["level"] == logging.DEBUG

    def test_unknown_log_level_falls_back(self, monkeypatch):
        captured = {}
        monkeypatch.setenv("PERSCHED_LOG", "chatty")
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: captured.update(kw))
        with pytest.raises(SystemExit):
            main(["--version"])
        assert captured["level"] == logging.WARNING


def test_module_entry_runs_the_command(tmp_path):
    # python -m persched.cli runs the same main as the console script: it
    # solves and writes the report, not merely imports the module.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "persched.cli", "run", str(ROOT / "configs" / "benchmark.yaml")]
        + ["--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "schedule" in json.loads((out / "report.json").read_text())
