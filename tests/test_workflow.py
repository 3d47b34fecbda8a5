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
