"""Tests of the benchmark itself, at small sizes."""

from __future__ import annotations

import cmath
import math
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import pace
from perfbench import run as bench
from perfbench import workloads
from perfbench.tracing import SPECS, UNITS, Tracer

SMALL = {
    "deep-sum": {"sum_n": 40_000, "density_n": 20_000, "interval_m": 20_000},
    "monte-carlo": {"parseval_samples": 200, "box_samples": 300, "levelset_samples": 100},
}


def _is_program_module(name: str) -> bool:
    return name == "weyl_lab" or name.startswith("weyl_lab.")


@pytest.fixture(autouse=True)
def isolated_program():
    """Workload set-up re-imports weyl_lab; give the other tests theirs back."""
    saved = {k: v for k, v in sys.modules.items() if _is_program_module(k)}
    yield
    for name in [k for k in sys.modules if _is_program_module(k)]:
        del sys.modules[name]
    sys.modules.update(saved)


def _bindings() -> dict:
    """Every module global and module-level dict value of weyl_lab."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not _is_program_module(name):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if type(value) is dict:
                for k2, v2 in value.items():
                    out[(name, key, k2)] = v2
    return out


@pytest.mark.parametrize("s", range(2, 11))
def test_dyadic_gauss_closed_form(s):
    n = 1 << s
    for a in range(1, n, 2):
        direct = sum(cmath.exp(2j * math.pi * ((a * k * k) % n) / n) for k in range(n))
        assert abs(direct - workloads.gauss_sum_dyadic(a, s)) < 1e-9 * n


def test_tracer_wraps_import_sites_and_restores_them():
    prog = workloads.load_program()
    workload = workloads.DeepSum(prog, 7, SMALL["deep-sum"])
    before = _bindings()
    with Tracer(prog) as tracer:
        during = _bindings()
        workload.run()
    after = _bindings()

    replaced = {k for k in before if during[k] is not before[k]}
    # names bound by `from .x import f` and dict entries are wrapped too
    assert ("weyl_lab.experiments", "weyl_sum") in replaced
    assert ("weyl_lab.cli", "render_json") in replaced
    assert ("weyl_lab.acceptance", "RUNNERS", "E1") in replaced
    assert {(f"weyl_lab.{s.module}", s.name) for s in SPECS} <= replaced
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.layer_metrics()["engine.terms"] > 0


@pytest.mark.parametrize("name", ["deep-sum", "monte-carlo"])
def test_traced_run_gives_untraced_reports(name):
    run = bench.trace(name, 7, SMALL[name])
    assert run["checks"][-1][0] == "traced reports equal untraced reports"
    assert all(ok for _, ok in run["checks"]), run["checks"]
    assert set(run["metrics"]) == set(UNITS)
    # a declared time is measured on every workload, never a constant 0
    declared = bench.declared_units(trace_on=True)
    times = [m for m, unit in declared.items() if unit in ("s", "ns/term", "us/call")]
    assert len(times) == 5
    assert all(run["metrics"][m] > 0 for m in times), {m: run["metrics"][m] for m in times}


def test_untraced_run_reports_declared_metrics():
    run = bench.measure("deep-sum", 3, 0.0, SMALL["deep-sum"])
    assert all(ok for _, ok in run["checks"]), run["checks"]
    assert set(run["metrics"]) == set(bench.declared_units(trace_on=False))
    assert all(v > 0 for v in run["metrics"].values())


def test_pass_wall_leaves_checks_out():
    workload = workloads.DeepSum(workloads.load_program(), 7, SMALL["deep-sum"])
    ticks = iter(range(10**6))
    # one tick per clock read: the four task timers read it twice each,
    # and the interval reference computed for the checks reads it not at all
    res = workload.run(clock=lambda: float(next(ticks)))
    assert res.wall == sum(res.times.values()) == 4.0
    assert next(ticks) == 8


def test_pace_samples_on_a_timer_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as p:
        t0, c0 = time.perf_counter(), p.clock()
        while time.perf_counter() - t0 < 3 * pace.INTERVAL_S:
            pass
        t1, c1 = time.perf_counter(), p.clock()
    assert len(p.samples) >= 2
    assert c1 - c0 == pytest.approx(t1 - t0 - p.paused, abs=1e-3)
    assert p.paused > sum(p.samples)  # the warm-up runs are left out too
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert pace.factor([pace.REF_S, 2 * pace.REF_S, 9.0]) == 0.5


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gates"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
