"""Experiment file loading and validation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import persched.cli as cli
from persched import ConfigError, FieldGeometry, build_diffusion_system, load_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
SRC = ROOT / "src"

FIELD_SYSTEM = """
system:
  field:
    ell_h: 1
    ell_v: 1
    spacing: 1.0
    sample_interval: 0.5
    sensor_sites: [[0, 0], [1, 1]]
    q_scale: 0.25
    r_scale: 1.0
"""

MATRIX_SYSTEM = """
system:
  matrices:
    A: [[0.9, 0.0], [0.0, 0.8]]
    B: [[1.0, 0.0], [0.0, 1.0]]
    C: [[1.0, 0.0]]
    Q: [[1.0, 0.0], [0.0, 1.0]]
    R: [[1.0]]
"""

ADMM_BLOCK = """
admm:
  period: 4
  gamma: 0.1
  eta: 2
"""


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSystemSection:
    def test_field_system(self, tmp_path):
        cfg = load_experiment(write_config(tmp_path, FIELD_SYSTEM))
        assert cfg.system.n_states == 4
        assert cfg.system.n_sensors == 2
        np.testing.assert_allclose(cfg.system.Q, 0.25 * np.eye(4))

    def test_omitted_q_scale_is_the_diffusion_default(self, tmp_path):
        # A field without q_scale gets build_diffusion_system's own default.
        text = FIELD_SYSTEM.replace("    q_scale: 0.25\n", "")
        cfg = load_experiment(write_config(tmp_path, text))
        geom = FieldGeometry(ell_h=1, ell_v=1, spacing=1.0, sensor_sites=((0, 0), (1, 1)))
        expected = build_diffusion_system(geom)
        np.testing.assert_array_equal(cfg.system.Q, expected.Q)
        np.testing.assert_array_equal(cfg.system.A, expected.A)

    def test_inline_matrices(self, tmp_path):
        cfg = load_experiment(write_config(tmp_path, MATRIX_SYSTEM))
        assert cfg.system.n_states == 2
        assert cfg.system.n_sensors == 1
        np.testing.assert_allclose(cfg.system.A, np.diag([0.9, 0.8]))

    def test_matrix_file_references(self, tmp_path):
        for name, content in [
            ("a.txt", "0.9 0.0\n0.0 0.8\n"),
            ("b.txt", "1.0 0.0\n0.0 1.0\n"),
            ("c.txt", "1.0 0.0\n"),
            ("q.txt", "1.0 0.0\n0.0 1.0\n"),
            ("r.txt", "1.0\n"),
        ]:
            (tmp_path / name).write_text(content)
        text = """
system:
  matrices:
    A: a.txt
    B: b.txt
    C: c.txt
    Q: q.txt
    R: r.txt
"""
        cfg = load_experiment(write_config(tmp_path, text))
        np.testing.assert_allclose(cfg.system.A, np.diag([0.9, 0.8]))
        assert cfg.system.C.shape == (1, 2)

    def test_missing_referenced_file(self, tmp_path):
        text = MATRIX_SYSTEM.replace("[[1.0]]", "missing.txt")
        with pytest.raises(ConfigError, match="does not exist"):
            load_experiment(write_config(tmp_path, text))

    def test_both_sources_rejected(self, tmp_path):
        text = FIELD_SYSTEM + "  matrices:\n    A: [[1.0]]\n"
        with pytest.raises(ConfigError, match="exactly one"):
            load_experiment(write_config(tmp_path, text))

    def test_missing_system(self, tmp_path):
        with pytest.raises(ConfigError, match="system"):
            load_experiment(write_config(tmp_path, "kind: run\n"))

    def test_missing_field_key(self, tmp_path):
        text = FIELD_SYSTEM.replace("    sensor_sites: [[0, 0], [1, 1]]\n", "")
        with pytest.raises(ConfigError, match="sensor_sites"):
            load_experiment(write_config(tmp_path, text))

    def test_missing_matrix(self, tmp_path):
        text = MATRIX_SYSTEM.replace("    R: [[1.0]]\n", "")
        with pytest.raises(ConfigError, match="matrices.R"):
            load_experiment(write_config(tmp_path, text))

    def test_missing_files_reported_in_matrix_order(self, tmp_path):
        # A and B both name missing files. The matrices load in the order A,
        # B, C, Q, R, so the error names A under any string hash seed, also in
        # a child run at seed 1, where a set of the five keys lists B first.
        text = MATRIX_SYSTEM.replace("A: [[0.9, 0.0], [0.0, 0.8]]", "A: a.txt")
        path = write_config(tmp_path, text.replace("B: [[1.0, 0.0], [0.0, 1.0]]", "B: b.txt"))
        missing = (tmp_path / "a.txt").resolve()
        message = f"system.matrices.A: referenced file {missing} does not exist"
        with pytest.raises(ConfigError) as caught:
            load_experiment(path)
        assert str(caught.value) == message
        code = "import sys, persched\ntry:\n    persched.load_experiment(sys.argv[1])\n"
        code += "except persched.ConfigError as exc:\n    print(exc)\n"
        env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(SRC)}
        child = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
        )
        assert child.stdout.strip() == message

    def test_bad_matrix_value_names_its_path(self, tmp_path):
        text = MATRIX_SYSTEM.replace("Q: [[1.0, 0.0]", "Q: [[-1.0, 0.0]")
        with pytest.raises(ConfigError, match="^system.matrices.Q is not positive semidefinite$"):
            load_experiment(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("A: [[0.9, 0.0], [0.0, 0.8]]", "A: 5", r"A must have shape \(N, N\), got \(\)"),
            ("A: [[0.9, 0.0], [0.0, 0.8]]", "A: [[0.9], [0.8]]", r"A must have shape \(N, N\)"),
            ("C: [[1.0, 0.0]]", "C: [[1.0, x]]", "C must be a finite real array, got dtype <U"),
            ("R: [[1.0]]", "R: {r: 1.0}", "R must be a finite real array, got dtype object"),
        ],
    )
    def test_unreadable_matrix_names_its_path(self, tmp_path, old, new, message):
        text = MATRIX_SYSTEM.replace(old, new)
        with pytest.raises(ConfigError, match=f"^system\\.matrices\\.{message}"):
            load_experiment(write_config(tmp_path, text))

    @pytest.mark.parametrize("sites, got", [("[[0, 0, 0]]", r"\(1, 3\)"), ("5", r"\(\)")])
    def test_sites_not_pairs_names_its_path(self, tmp_path, sites, got):
        text = FIELD_SYSTEM.replace("sensor_sites: [[0, 0], [1, 1]]", f"sensor_sites: {sites}")
        message = rf"^system\.field\.sensor_sites must have shape \(S, 2\), got {got}$"
        with pytest.raises(ConfigError, match=message):
            load_experiment(write_config(tmp_path, text))

    def test_bad_matrix_shape_names_its_path(self, tmp_path):
        text = MATRIX_SYSTEM.replace("B: [[1.0, 0.0], [0.0, 1.0]]", "B: [[1.0], [0.0], [0.0]]")
        message = r"^system\.matrices\.B must have shape \(2, p\), got \(3, 1\)$"
        with pytest.raises(ConfigError, match=message):
            load_experiment(write_config(tmp_path, text))


class TestValidation:
    def test_unknown_top_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            load_experiment(write_config(tmp_path, FIELD_SYSTEM + "extra: 1\n"))

    def test_unknown_admm_key(self, tmp_path):
        text = FIELD_SYSTEM + ADMM_BLOCK + "  momentum: 0.9\n"
        with pytest.raises(ConfigError, match="momentum"):
            load_experiment(write_config(tmp_path, text))

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            load_experiment(write_config(tmp_path, "kind: optimize\n" + FIELD_SYSTEM))

    def test_non_integer_seed(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_experiment(write_config(tmp_path, FIELD_SYSTEM + "seed: '7'\n"))

    def test_negative_seed_rejected(self, tmp_path):
        # Rejected before any solve, not by the random generator after one.
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            load_experiment(write_config(tmp_path, FIELD_SYSTEM + "seed: -1\n"))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("inner_tol_cap", "1.0e-6"),
            ("inner_max_iters", "100"),
            ("armijo_alpha", "0.3"),
            ("armijo_beta", "0.5"),
            ("zero_tol", "1.0e-8"),
            ("init_schedule", "[[1, 0], [0, 1], [1, 0], [0, 1]]"),
        ],
    )
    def test_inner_solver_settings_rejected(self, tmp_path, key, value):
        # Fixed in the solver (lstep's constants, schedule_from_gains' nonzero
        # rule, default_init_schedule's staggered start), not settings.
        text = FIELD_SYSTEM + ADMM_BLOCK + f"  {key}: {value}\n"
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in admm"):
            load_experiment(write_config(tmp_path, text))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_experiment(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="parse"):
            load_experiment(write_config(tmp_path, "system: [unclosed\n"))

    def test_non_mapping_root(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_experiment(write_config(tmp_path, "- just\n- a\n- list\n"))

    def test_eta_list_must_match_sensor_count(self, tmp_path):
        text = FIELD_SYSTEM + "admm:\n  period: 4\n  gamma: 0.0\n  eta: [1, 2, 3]\n"
        with pytest.raises(ConfigError, match="entries"):
            load_experiment(write_config(tmp_path, text))

    @pytest.mark.parametrize("eta", ["1.5", "[1, 1.5]", "true", "[1, true]", "", "[1, null]"])
    def test_non_integral_eta_rejected(self, tmp_path, eta):
        text = FIELD_SYSTEM + f"admm:\n  period: 4\n  gamma: 0.0\n  eta: {eta}\n"
        with pytest.raises(ConfigError, match=r"admm\.eta\[\d\] must be an integer, got "):
            load_experiment(write_config(tmp_path, text))


# (field, config text, the field's line as a template, its integer value there)
INTEGER_FIELDS = [
    ("admm.period", FIELD_SYSTEM + ADMM_BLOCK, "period: {}", 4),
    ("admm.max_iters", FIELD_SYSTEM + ADMM_BLOCK + "  max_iters: 30\n", "max_iters: {}", 30),
    ("compare.trials", FIELD_SYSTEM + "compare:\n  trials: 2\n", "trials: {}", 2),
    ("system.field.ell_h", FIELD_SYSTEM, "ell_h: {}", 1),
    ("system.field.ell_v", FIELD_SYSTEM, "ell_v: {}", 1),
    ("system.field.sensor_sites", FIELD_SYSTEM, "[1, {}]]", 1),
    ("seed", FIELD_SYSTEM + "seed: 3\n", "seed: {}", 3),
]


def with_value(text, template, old, new):
    line = template.format(old)
    assert text.count(line) == 1
    return text.replace(line, template.format(new))


def by_field(rows):
    """The rows as pytest params whose id is the field path, not the text."""
    return [pytest.param(*row, id=row[0]) for row in rows]


class TestIntegerFields:
    @pytest.mark.parametrize("bad", ["4.5", "1.0e-1", "'4'", "true"])
    @pytest.mark.parametrize("field, text, template, value", by_field(INTEGER_FIELDS))
    def test_non_integral_value_rejected(self, tmp_path, field, text, template, value, bad):
        path = write_config(tmp_path, with_value(text, template, value, bad))
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            load_experiment(path)

    @pytest.mark.parametrize("field, text, template, value", by_field(INTEGER_FIELDS))
    def test_integral_float_accepted(self, tmp_path, field, text, template, value):
        as_int = load_experiment(write_config(tmp_path, text))
        floated = with_value(text, template, value, f"{value}.0")
        as_float = load_experiment(write_config(tmp_path, floated, "float.yaml"))
        assert as_float.admm == as_int.admm
        for name in ("compare_trials", "seed"):
            assert repr(getattr(as_float, name)) == repr(getattr(as_int, name))
        np.testing.assert_array_equal(as_float.system.A, as_int.system.A)
        np.testing.assert_array_equal(as_float.system.C, as_int.system.C)


# Optional admm real fields, each with a valid value as written in YAML.
ADMM_NUMBERS = {
    "rho": "5.0",
    "eps": "0.01",
}

# (field, config text, the field's line as a template, its value there as written)
NUMBER_FIELDS = (
    [("admm.gamma", FIELD_SYSTEM + ADMM_BLOCK, "gamma: {}", "0.1")]
    + [
        (f"admm.{key}", FIELD_SYSTEM + ADMM_BLOCK + f"  {key}: {value}\n", key + ": {}", value)
        for key, value in ADMM_NUMBERS.items()
    ]
    + [
        (f"system.field.{key}", FIELD_SYSTEM, key + ": {}", value)
        for key, value in (
            ("spacing", "1.0"),
            ("sample_interval", "0.5"),
            ("q_scale", "0.25"),
            ("r_scale", "1.0"),
        )
    ]
    + [("sweep.gammas", FIELD_SYSTEM + "sweep:\n  gammas: [0, 0.5]\n", "gammas: [0, {}]", "0.5")]
)


class TestNumberFields:
    @pytest.mark.parametrize("bad", ["fast", "'0.5'", "1e-3", "true"])
    @pytest.mark.parametrize("field, text, template, value", by_field(NUMBER_FIELDS))
    def test_non_numeric_value_rejected(self, tmp_path, field, text, template, value, bad):
        # YAML 1.1 reads 1e-3, without a mantissa point, as a string.
        path = write_config(tmp_path, with_value(text, template, value, bad))
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            load_experiment(path)

    def test_integers_accepted_as_numbers(self, tmp_path):
        text = FIELD_SYSTEM + ADMM_BLOCK + "  rho: 5\nsweep:\n  gammas: [0, 2]\n"
        cfg = load_experiment(write_config(tmp_path, text.replace("spacing: 1.0", "spacing: 1")))
        assert repr(cfg.admm.rho) == "5.0"
        assert cfg.sweep_gammas == (0.0, 2.0)
        assert all(isinstance(g, float) for g in cfg.sweep_gammas)
        as_float = load_experiment(write_config(tmp_path, FIELD_SYSTEM, "float.yaml"))
        np.testing.assert_array_equal(cfg.system.A, as_float.system.A)


class TestAdmmSection:
    def test_defaults_applied(self, tmp_path):
        cfg = load_experiment(write_config(tmp_path, FIELD_SYSTEM + ADMM_BLOCK))
        assert cfg.admm.rho == 10.0
        assert cfg.admm.eps == 1e-3
        assert cfg.admm.max_iters == 200
        assert cfg.admm.period == 4

    def test_overrides_applied(self, tmp_path):
        text = FIELD_SYSTEM + ADMM_BLOCK + "  rho: 5.0\n  eps: 0.01\n  max_iters: 50\n"
        cfg = load_experiment(write_config(tmp_path, text))
        assert cfg.admm.rho == 5.0
        assert cfg.admm.eps == 0.01
        assert cfg.admm.max_iters == 50

    def test_invalid_admm_values_surface(self, tmp_path):
        text = FIELD_SYSTEM + ADMM_BLOCK.replace("gamma: 0.1", "gamma: -0.1")
        with pytest.raises(ValueError, match="gamma"):
            load_experiment(write_config(tmp_path, text))

    @pytest.mark.parametrize("key", ["gamma", "rho", "eps"])
    @pytest.mark.parametrize("value, shown", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")])
    def test_non_finite_settings_rejected(self, tmp_path, key, value, shown):
        # YAML reads these as floats; a NaN gamma used to report an empty
        # schedule as converged and write "gamma": NaN into report.json.
        settings = {"gamma": "0.1", "rho": "10.0", "eps": "0.001", key: value}
        text = FIELD_SYSTEM + "admm:\n  period: 4\n  eta: 2\n"
        text += "".join(f"  {name}: {v}\n" for name, v in settings.items())
        with pytest.raises(ConfigError, match=f"admm.{key} must be finite, got {shown}"):
            load_experiment(write_config(tmp_path, text))


class TestSweepAndCompare:
    def test_sweep_lists(self, tmp_path):
        text = FIELD_SYSTEM + ADMM_BLOCK + "sweep:\n  gammas: [0, 0.1]\n"
        cfg = load_experiment(write_config(tmp_path, text))
        assert cfg.sweep_gammas == (0.0, 0.1)
        assert all(type(g) is float for g in cfg.sweep_gammas)

    def test_sweep_reads_only_gammas(self, tmp_path):
        # Every cell solves at admm.eta; eta is not a sweep axis.
        text = FIELD_SYSTEM + ADMM_BLOCK + "sweep:\n  gammas: [0.1]\n  etas: [1, 2]\n"
        with pytest.raises(ConfigError, match="^unknown key 'etas' in sweep$"):
            load_experiment(write_config(tmp_path, text))

    def test_empty_sweep_list_rejected(self, tmp_path):
        text = FIELD_SYSTEM + ADMM_BLOCK + "sweep:\n  gammas: []\n"
        with pytest.raises(ConfigError, match="non-empty"):
            load_experiment(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("gammas: [0.1, -1.0]", "sweep.gammas: gamma must be nonnegative, got -1.0"),
            ("gammas: [0.1, .nan]", "sweep.gammas must be finite, got nan"),
            ("gammas: [.inf]", "sweep.gammas must be finite, got inf"),
        ],
    )
    def test_sweep_entries_checked_at_load(self, tmp_path, grid, message):
        # Each entry meets the rule of admm.gamma.
        text = FIELD_SYSTEM + ADMM_BLOCK + f"sweep:\n  {grid}\n"
        with pytest.raises(ConfigError, match=message):
            load_experiment(write_config(tmp_path, text))

    def test_compare_defaults(self, tmp_path):
        cfg = load_experiment(write_config(tmp_path, FIELD_SYSTEM))
        assert cfg.compare_trials == 500
        assert cfg.compare_oracle is False

    def test_compare_overrides(self, tmp_path):
        text = FIELD_SYSTEM + "compare:\n  trials: 25\n  oracle: true\n"
        cfg = load_experiment(write_config(tmp_path, text))
        assert cfg.compare_trials == 25
        assert cfg.compare_oracle is True

    @pytest.mark.parametrize("key, value", [("total_activations", "2"), ("budget", "100")])
    def test_compare_reads_only_trials_and_oracle(self, tmp_path, key, value):
        # The baseline takes the solver's activation count and the oracle
        # exhaustive_search's default budget; neither is a setting.
        text = FIELD_SYSTEM + ADMM_BLOCK + f"compare:\n  {key}: {value}\n"
        with pytest.raises(ConfigError, match=f"^unknown key '{key}' in compare$"):
            load_experiment(write_config(tmp_path, text))

    def test_string_oracle_rejected(self, tmp_path):
        # YAML reads the quoted "no" as a string, which bool() would take as true.
        text = FIELD_SYSTEM + 'compare:\n  oracle: "no"\n'
        with pytest.raises(ConfigError, match="compare.oracle must be true or false"):
            load_experiment(write_config(tmp_path, text))

    def test_negative_trials_rejected(self, tmp_path):
        text = FIELD_SYSTEM + "compare:\n  trials: -1\n"
        with pytest.raises(ConfigError, match="^compare.trials must be nonnegative, got -1$"):
            load_experiment(write_config(tmp_path, text))

    def test_kind_and_output_carried(self, tmp_path):
        text = "kind: sweep\noutput: results\nseed: 9\n" + FIELD_SYSTEM
        cfg = load_experiment(write_config(tmp_path, text))
        assert cfg.kind == "sweep"
        assert cfg.output == "results"
        assert cfg.seed == 9


def test_readme_config_example_loads(tmp_path):
    # The first YAML block of README's "Config files" section is a complete
    # experiment file; keep it loadable as the schema changes.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config files", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = load_experiment(write_config(tmp_path, example))
    assert cfg.kind == "run"
    assert cfg.admm.period == 10
    assert cfg.system.n_sensors == 2
    assert cfg.sweep_gammas == (0.05, 0.15, 2.0)
    assert cfg.compare_oracle is True


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(path):
    # Every config the repo ships loads, and a pinned kind names a command.
    cfg = load_experiment(path)
    assert cfg.kind is None or callable(getattr(cli, f"cmd_{cfg.kind}", None))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_parse_alike_with_and_without_libyaml(path):
    # load_experiment parses with libyaml's CSafeLoader where it exists; the
    # pure-Python SafeLoader, used elsewhere, must read the same objects.
    data = path.read_bytes()
    assert yaml.load(data, Loader=yaml.CSafeLoader) == yaml.load(data, Loader=yaml.SafeLoader)


def test_tradeoff_sweep_repeats_the_benchmark_plant():
    # The sweep and the tests' benchmark plant must be one plant: an edit to
    # one file's system section alone would split them.
    benchmark, sweep = (
        yaml.safe_load((ROOT / "configs" / name).read_bytes())["system"]
        for name in ("benchmark.yaml", "tradeoff_sweep.yaml")
    )
    assert sweep == benchmark
