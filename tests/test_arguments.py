"""Every public scalar argument obeys one of two rules, linalg._integral and
linalg._real: a bad value is an InputError that names the argument, never a
TypeError or a silent conversion, and a good one is kept as a plain int or
float. A value outside the argument's range is refused by the same rule, as
"{name} must be {range}, got {value!r}", and the range's ends are kept.
Every array argument obeys one shape rule, linalg._array: a wrong shape is a
DimensionError and an array NumPy cannot read as finite and real an
InputError, each naming the argument, never a bare NumPy error or a silent
cast."""

import re

import numpy as np
import pytest

import persched as ps
from persched import (
    AdmmConfig,
    BaselineResult,
    DimensionError,
    FieldGeometry,
    InputError,
    Schedule,
    SystemModel,
    lstep,
)
from persched.periodic import check_schedule_detectability

ADMM = dict(period=4, gamma=0.1, eta=1, rho=10.0, eps=1e-3, max_iters=50)
LINE = ps.SystemModel(
    A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]]
)
# The floats next to zero: the first outside a nonnegative range, and the
# first inside a positive one.
BELOW_ZERO, ABOVE_ZERO = -5e-324, 5e-324


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
    base = dict(targets=np.ones((2, 2, 1)), gamma=0.1, rho=1.0, eta=1)
    return lambda v: float(ps.g_step(**{**base, name: v}).sum())


def lstep_solve(name):
    base = dict(targets=np.zeros((1, 2, 1)), rho=1.0, init=np.zeros((1, 2, 1)))
    return lambda v: lstep.solve(LINE, **{**base, name: v}).phi


def init_period(v):
    return ps.default_init_schedule(LINE, v, 1).K


def oracle(name):
    base = dict(K=2, eta=1)
    return lambda v: ps.exhaustive_search(LINE, **{**base, name: v}).J


def baseline(name):
    base = dict(K=2, eta=1, total_activations=1, trials=2, seed=0)
    return lambda v: ps.random_baseline(LINE, **{**base, name: v}).values


# (entry, argument as the error names it, a valid plain value, the value as
# the entry keeps or uses it, and the range: None, or its wording, the
# values just outside it and the values at its ends)
INTEGERS = [
    ("AdmmConfig", "period", 4, admm("period"), ("at least 1", [0], [1])),
    ("AdmmConfig", "max_iters", 50, admm("max_iters"), ("at least 1", [0], [1])),
    ("AdmmConfig", "eta[0]", 1, admm("eta"), ("in 1..4", [0, 5], [1, 4])),
    ("FieldGeometry", "ell_h", 1, geometry("ell_h"), ("nonnegative", [-1], [0])),
    ("FieldGeometry", "ell_v", 1, geometry("ell_v"), ("nonnegative", [-1], [0])),
    ("FieldGeometry", "sensor_sites", 1, site, None),
    ("g_step", "eta[0]", 1, gstep("eta"), ("in 0..2", [-1, 3], [0, 2])),
    ("default_init_schedule", "K", 2, init_period, ("at least 1", [0], [1])),
    ("exhaustive_search", "K", 2, oracle("K"), ("at least 1", [0], [1])),
    ("random_baseline", "K", 2, baseline("K"), ("at least 1", [0], [1])),
    (
        "random_baseline",
        "total_activations",
        1,
        baseline("total_activations"),
        ("in 0..1", [-1, 2], [0, 1]),
    ),
    ("random_baseline", "trials", 2, baseline("trials"), ("at least 1", [0], [1])),
    ("random_baseline", "seed", 0, baseline("seed"), ("nonnegative", [-1], [0])),
]
REALS = [
    ("AdmmConfig", "gamma", 0.1, admm("gamma"), ("nonnegative", [BELOW_ZERO], [0.0])),
    ("AdmmConfig", "rho", 10.0, admm("rho"), ("positive", [0.0], [ABOVE_ZERO])),
    ("AdmmConfig", "eps", 1e-3, admm("eps"), ("positive", [0.0], [ABOVE_ZERO])),
    ("FieldGeometry", "spacing", 1.5, geometry("spacing"), ("positive", [0.0], [ABOVE_ZERO])),
    (
        "FieldGeometry",
        "sample_interval",
        0.5,
        geometry("sample_interval"),
        ("nonnegative", [BELOW_ZERO], [0.0]),
    ),
    ("build_diffusion_system", "q_scale", 0.25, noise("q_scale"), ("positive", [0], [ABOVE_ZERO])),
    ("build_diffusion_system", "r_scale", 2.0, noise("r_scale"), ("positive", [0], [ABOVE_ZERO])),
    ("g_step", "gamma", 0.1, gstep("gamma"), ("nonnegative", [BELOW_ZERO], [0.0])),
    ("g_step", "rho", 1.0, gstep("rho"), ("positive", [0.0], [ABOVE_ZERO])),
    ("lstep.solve", "rho", 1.0, lstep_solve("rho"), ("nonnegative", [BELOW_ZERO], [0.0])),
    ("lstep.solve", "tol", 1e-6, lstep_solve("tol"), ("nonnegative", [BELOW_ZERO, -1.0], [0.0])),
]


def cases(table, values):
    return [
        pytest.param(name, use, value, id=f"{entry}.{name}-{value!r}")
        for entry, name, _, use, _ in table
        for value in values
    ]


def rows(table):
    return [
        pytest.param(plain, use, id=f"{entry}.{name}")
        for entry, name, plain, use, _ in table
    ]


def ranges(table, ends=False):
    """One case per value just outside each range, or at its ends."""
    return [
        pytest.param(name, use, bound[0], value, id=f"{entry}.{name}-{value!r}")
        for entry, name, _, use, bound in table
        if bound is not None
        for value in bound[2 if ends else 1]
    ]


BAD = [True, "1", None, np.nan, np.inf]


def message(name, rule, value):
    return f"^{re.escape(name)} must be {rule}, got {re.escape(repr(value))}$"


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


@pytest.mark.parametrize("name, use, wording, value", ranges(INTEGERS + REALS))
def test_value_outside_range_names_its_argument(name, use, wording, value):
    with pytest.raises(InputError, match=message(name, wording, value)):
        use(value)


@pytest.mark.parametrize("name, use, wording, value", ranges(INTEGERS + REALS, ends=True))
def test_range_end_accepted(name, use, wording, value):
    assert use(value) is not None


def plant(**change):
    """A SystemModel of LINE's matrices with ``change`` applied."""
    return SystemModel(**{**{k: getattr(LINE, k) for k in "ABCQR"}, **change})


def sites(value):
    return FieldGeometry(ell_h=1, ell_v=1, sensor_sites=value)


def wide_schedule(top):
    # On the unstable plant (top 1.2) the mask would index the lift's rows;
    # on the stable one the lift is skipped. The width is checked first.
    wide = Schedule(np.ones((2, 3)))
    return lambda: check_schedule_detectability(plant(A=[[top, 0.1], [0.0, 0.4]]), wide)


RAGGED_GAINS, RAGGED_MASKS = [[[0.0], [0.0]], [[0.0]]], [[[1]], [[1], [0]]]
NO_SENSOR, NO_STEP = np.zeros((2, 3, 0)), np.zeros((0, 2, 1))

# (entry, argument as the error names it, the error, and a call that raises it)
ARRAYS = [
    ("SystemModel", "A", InputError, lambda: plant(A=[[0.5, 0.1], [0.4]])),
    ("SystemModel", "A", InputError, lambda: plant(A=[[0.5, 0.1j], [0.0, 0.4]])),
    ("SystemModel", "C", DimensionError, lambda: plant(C=np.zeros((0, 2)), R=np.zeros((0, 0)))),
    ("SystemModel", "R", DimensionError, lambda: plant(R=np.zeros((0, 0)))),
    ("SystemModel", "B", DimensionError, lambda: plant(B=np.zeros((2, 0)), Q=np.zeros((0, 0)))),
    ("SystemModel", "Q", DimensionError, lambda: plant(Q=np.zeros((0, 0)))),
    ("FieldGeometry", "sensor_sites", DimensionError, lambda: sites(((0, 0, 0),))),
    ("FieldGeometry", "sensor_sites", DimensionError, lambda: sites((0,))),
    ("FieldGeometry", "sensor_sites", DimensionError, lambda: sites(None)),
    ("FieldGeometry", "sensor_sites", DimensionError, lambda: sites([(0, 0), (1,)])),
    ("FieldGeometry.site_index", "site", DimensionError, lambda: sites(()).site_index((0, 0, 0))),
    ("FieldGeometry.site_index", "site", InputError, lambda: sites(()).site_index((0.5, 0))),
    ("Schedule", "mask", InputError, lambda: Schedule([[1, 0], [1]])),
    ("evaluate_schedules", "masks", InputError, lambda: ps.evaluate_schedules(LINE, RAGGED_MASKS)),
    ("check_schedule_detectability", "sched.mask", DimensionError, wide_schedule(1.2)),
    ("check_schedule_detectability", "sched.mask", DimensionError, wide_schedule(0.5)),
    ("schedule_from_gains", "gains", DimensionError, lambda: ps.schedule_from_gains(NO_SENSOR)),
    ("lstep.solve", "targets", InputError, lambda: lstep_solve("targets")(RAGGED_GAINS)),
    ("lstep.solve", "targets", DimensionError, lambda: lstep_solve("targets")(NO_STEP)),
    ("g_step", "targets", InputError, lambda: gstep("targets")("abc")),
    ("BaselineResult", "values", DimensionError, lambda: BaselineResult.from_values([])),
]


@pytest.mark.parametrize(
    "name, error, call",
    [
        pytest.param(name, error, call, id=f"{entry}.{name}-{case}")
        for case, (entry, name, error, call) in enumerate(ARRAYS)
    ],
)
def test_bad_array_names_its_argument(name, error, call):
    with pytest.raises(error, match=f"^{re.escape(name)} "):
        call()
