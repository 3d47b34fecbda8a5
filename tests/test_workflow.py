"""The CI workflow file parses, its job has a time limit, and each of its
steps is well formed."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_steps_are_well_formed():
    # A plain scalar holding ": " is a YAML error that only the CI runner
    # would otherwise report, by not running the workflow at all.
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    assert steps
    for step in steps:
        assert "uses" in step or isinstance(step.get("run"), str), step
    names = [step["name"] for step in steps if "name" in step]
    assert len(names) == len(set(names))


def test_tier1_job_has_a_time_limit():
    # Without one, a hung solve holds the runner for the platform's default
    # of six hours.
    minutes = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"].get("timeout-minutes")
    assert type(minutes) is int and minutes > 0


def test_every_shipped_config_is_run_and_diffed():
    # A config that the console steps do not run, and run again to diff,
    # could ship outputs that no longer reproduce.
    steps = {
        step.get("name"): step.get("run", "")
        for step in yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    }
    configs = sorted((WORKFLOW.parents[2] / "configs").glob("*.yaml"))
    assert configs
    for name in ("Console script", "Console outputs are byte-for-byte reproducible"):
        missing = [p.name for p in configs if f"configs/{p.name}" not in steps[name]]
        assert not missing, f"{name!r} does not run {missing}"
