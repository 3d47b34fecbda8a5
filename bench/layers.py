"""Per-layer tracing of persched from outside the package.

``Tracer.install`` replaces every public function of persched's modules with
a timing wrapper, at every place a module looks the function up: a function
that ``periodic`` imports by name from ``linalg`` is wrapped in ``periodic``'s
namespace as well as in ``linalg``'s. The ADMM driver's methods are wrapped
on the class. Each wrapper records calls, inclusive time and self time (its
duration minus the time of the wrapped calls it makes), the namespace the
call went through, and the time spent under each caller. ``uninstall``
puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("linalg", "model", "periodic", "lstep", "gstep", "admm", "baselines", "config", "cli")
DRIVER_METHODS = ("initialize", "step", "run")


class Tracer:
    def __init__(self):
        self.calls = Counter()  # label -> calls
        self.inclusive = defaultdict(float)  # label -> seconds
        self.self_time = defaultdict(float)  # label -> seconds
        self.site_calls = Counter()  # (namespace, label) -> calls
        self.site_raised = Counter()  # (namespace, label) -> calls that raised
        self.under = defaultdict(float)  # (caller label, label) -> seconds
        self.inner_iterations = 0
        self.armijo_underflows = 0
        self._stack = []
        self._patches = []

    def _wrap(self, fn, label: str, site: str):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.site_raised[(site, label)] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[label] += 1
                self.inclusive[label] += elapsed
                self.self_time[label] += elapsed - frame[1]
                self.site_calls[(site, label)] += 1
                if stack:
                    stack[-1][1] += elapsed
                    self.under[(stack[-1][0], label)] += elapsed
            if label == "lstep.solve":
                self.inner_iterations += result.iterations
                self.armijo_underflows += int(result.line_search_failed)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("persched")
        namespaces = {"persched": package}
        for name in MODULES:
            namespaces[name] = importlib.import_module(f"persched.{name}")

        labels = {}  # public function -> label
        for name in MODULES:
            module = namespaces[name]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    labels[fn] = f"{name}.{attr}"

        for site, module in namespaces.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in labels:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, labels[value], site))

        driver = namespaces["admm"].AdmmDriver
        for attr in DRIVER_METHODS:
            method = vars(driver)[attr]
            self._patches.append((driver, attr, method))
            setattr(driver, attr, self._wrap(method, f"admm.AdmmDriver.{attr}", "admm"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict:
        """Per-layer figures, keyed by metric name; times in seconds."""
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        # Every Armijo trial tests stability once through lstep's binding of
        # monodromy_spectral_radius; each lstep.solve makes one more test up front.
        trials = self.site_calls[("lstep", "periodic.monodromy_spectral_radius")] - calls["lstep.solve"]
        scored = self.site_calls[("baselines", "periodic.evaluate_schedule")]
        skipped = self.site_raised[("baselines", "periodic.evaluate_schedule")]
        admm_self = sum((t for label, t in self_time.items() if label.startswith("admm.")), 0.0)
        return {
            "linalg.solve_dlyap.calls": calls["linalg.solve_dlyap"],
            "linalg.solve_dlyap.s": inclusive["linalg.solve_dlyap"],
            "linalg.solve_gain_sylvester.calls": calls["linalg.solve_gain_sylvester"],
            "linalg.solve_gain_sylvester.s": inclusive["linalg.solve_gain_sylvester"],
            "periodic.covariance_limit_cycle.calls": calls["periodic.covariance_limit_cycle"],
            "periodic.covariance_limit_cycle.self_s": self_time["periodic.covariance_limit_cycle"],
            "periodic.value_cycle.calls": calls["periodic.value_cycle"],
            "periodic.value_cycle.self_s": self_time["periodic.value_cycle"],
            "periodic.init_gains_for_schedule.calls": calls["periodic.init_gains_for_schedule"],
            "periodic.init_gains_for_schedule.s": inclusive["periodic.init_gains_for_schedule"],
            "periodic.evaluate_schedule.calls": calls["periodic.evaluate_schedule"],
            "periodic.evaluate_schedule.self_s": self_time["periodic.evaluate_schedule"],
            "lstep.solve.calls": calls["lstep.solve"],
            "lstep.solve.self_s": self_time["lstep.solve"],
            "lstep.anderson_moore_update.self_s": self_time["lstep.anderson_moore_update"],
            "lstep.inner_iterations": self.inner_iterations,
            "lstep.armijo_trials": trials,
            "lstep.accepted_per_trial": self.inner_iterations / trials if trials else 0.0,
            "lstep.armijo_underflows": self.armijo_underflows,
            "gstep.g_step.calls": calls["gstep.g_step"],
            "gstep.g_step.s": inclusive["gstep.g_step"],
            "admm.outer_iterations": calls["admm.AdmmDriver.step"],
            "admm.run.self_s": admm_self,
            "admm.polish_s": self.under[("admm.AdmmDriver.run", "periodic.evaluate_schedule")],
            "baselines.schedules_scored": scored - skipped,
            "baselines.schedules_skipped": skipped,
            "baselines.draw_self_s": self_time["baselines.random_baseline"],
            "baselines.enumerate_self_s": self_time["baselines.exhaustive_search"],
            "config.load_experiment.s": inclusive["config.load_experiment"],
            "cli.cmd_run.self_s": self_time["cli.cmd_run"],
        }
