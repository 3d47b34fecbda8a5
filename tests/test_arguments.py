"""Every public scalar argument obeys one of two rules, linalg._integral and
linalg._real: a bad value is an InputError that names the argument, never a
TypeError or a silent conversion, and a good one is kept as a plain int or
float."""

import re

import numpy as np
import pytest

import persched as ps
from persched import AdmmConfig, FieldGeometry, GStepProblem, InputError, LStepProblem, lstep

ADMM = dict(period=4, gamma=0.1, eta=1, rho=10.0, eps=1e-3, max_iters=50)
LINE = ps.SystemModel(
    A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]]
)


def admm(name):
    return lambda v: getattr(AdmmConfig(**{**ADMM, name: v}), name)


def geometry(name):
    return lambda v: getattr(FieldGeometry(**{"ell_h": 1, "ell_v": 1, name: v}), name)


def site(v):
    return FieldGeometry(ell_h=1, ell_v=1, sensor_sites=((v, 0),)).sensor_sites[0][0]


def noise(name):
    geom = FieldGeometry(ell_h=1, ell_v=1, sensor_sites=((0, 0),))
    return lambda v: float(ps.build_diffusion_system(geom, **{name: v}).Q[0, 0])


def gstep(name):
    base = dict(S=np.zeros((2, 2, 1)), gamma=0.1, rho=1.0, eta=1)
    return lambda v: getattr(GStepProblem(**{**base, name: v}), name)


def lstep_rho(v):
    return LStepProblem(LINE, np.zeros((1, 2, 1)), v).rho


def lstep_tol(v):
    prob = LStepProblem(LINE, np.zeros((1, 2, 1)), 1.0)
    return lstep.solve(prob, np.zeros((1, 2, 1)), tol=v).phi


def budget(v):
    return ps.exhaustive_search(LINE, K=1, eta=1, budget=v).J


# (entry, argument as the error names it, a valid plain value, the value as
# the entry keeps or uses it)
INTEGERS = [
    ("AdmmConfig", "period", 4, admm("period")),
    ("AdmmConfig", "max_iters", 50, admm("max_iters")),
    ("FieldGeometry", "ell_h", 1, geometry("ell_h")),
    ("FieldGeometry", "ell_v", 1, geometry("ell_v")),
    ("FieldGeometry", "sensor_sites", 1, site),
    ("exhaustive_search", "budget", 10, budget),
]
REALS = [
    ("AdmmConfig", "gamma", 0.1, admm("gamma")),
    ("AdmmConfig", "rho", 10.0, admm("rho")),
    ("AdmmConfig", "eps", 1e-3, admm("eps")),
    ("FieldGeometry", "spacing", 1.5, geometry("spacing")),
    ("FieldGeometry", "sample_interval", 0.5, geometry("sample_interval")),
    ("build_diffusion_system", "q_scale", 0.25, noise("q_scale")),
    ("build_diffusion_system", "r_scale", 2.0, noise("r_scale")),
    ("GStepProblem", "gamma", 0.1, gstep("gamma")),
    ("GStepProblem", "rho", 1.0, gstep("rho")),
    ("LStepProblem", "rho", 1.0, lstep_rho),
    ("lstep.solve", "tol", 1e-6, lstep_tol),
]


def cases(table, values):
    return [
        pytest.param(name, use, value, id=f"{entry}.{name}-{value!r}")
        for entry, name, _, use in table
        for value in values
    ]


def rows(table):
    return [pytest.param(plain, use, id=f"{entry}.{name}") for entry, name, plain, use in table]


BAD = [True, "1", None, np.nan, np.inf]


def message(name, rule, value):
    return f"^{name} must be {rule}, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("name, use, value", cases(INTEGERS, BAD + [2.5]))
def test_bad_integer_names_its_argument(name, use, value):
    with pytest.raises(InputError, match=message(name, "an integer", value)):
        use(value)


@pytest.mark.parametrize("name, use, value", cases(REALS, BAD))
def test_bad_real_names_its_argument(name, use, value):
    rule = "finite" if isinstance(value, float) else "a number"
    with pytest.raises(InputError, match=message(name, rule, value)):
        use(value)


@pytest.mark.parametrize("plain, use", rows(INTEGERS))
def test_integer_kept_plain(plain, use):
    expected = use(plain)
    for good in (np.int64(plain), np.int32(plain), float(plain), np.float64(plain), np.array(plain)):
        kept = use(good)
        assert (type(kept), kept) == (type(expected), expected), repr(good)


@pytest.mark.parametrize("plain, use", rows(REALS))
def test_real_kept_plain(plain, use):
    expected = use(plain)
    assert type(expected) is float
    for good in (np.float64(plain), np.array(plain), np.float32(plain)):
        kept = use(good)
        assert type(kept) is float, repr(good)
        assert kept == expected or isinstance(good, np.float32), repr(good)
    assert use(np.int64(1)) == use(1) == use(1.0)


def test_fractional_site_is_not_truncated():
    with pytest.raises(InputError, match=message("sensor_sites", "an integer", 0.5)):
        FieldGeometry(ell_h=1, ell_v=1, sensor_sites=((0.5, 0),))
