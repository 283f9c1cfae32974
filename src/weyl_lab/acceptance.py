"""Acceptance gates.

Each gate body computes a pass/fail verdict and the measured quantities;
one runner, `_gate`, times every body and renders its canonical report
bytes.  Tolerances are pinned here: either fixed numbers stated with the
gate, or calibrated constants read from the packaged calibration file
(asserted with the slack stated per gate, never loosened at run time).
Gates at the reference construction read it from experiments.

The determinism gate (E10) compares the seeded gates' report bytes with
those of a rerun in a second interpreter, with hash seed 1, so no body
may put wall-clock values into its details.  `run_all` starts that child
before E1, and the child also runs the unseeded gates E2, E4 and E6
once (CHILD_ONLY); the parent does not run them.  So the parent runs E1
and the seeded gates' first passes, the child the unseeded gates and
the reruns, and the two overlap on two CPUs (under a one-CPU affinity
mask they share the one, and nothing overlaps); E10's runtime_s times
only the wait for the child.  The child writes one JSON object, an entry
[description, passed, runtime_s, details, report text] per gate of
IN_CHILD, which the parent rebuilds as results; output that does not
read so fails E2, E4, E6 and E10.  The child's resident memory, about
57 MB at its peak, counts in RUSAGE_CHILDREN, not in the parent's
RUSAGE_SELF peak.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import _engine
from ._rng import counter_numerators, counter_units
from .calibration import (
    load_calibration,
    run_approx_sweep,
    run_fe_sweep,
)
from .exactangle import (
    GOLDEN,
    MODULUS,
    Angle,
    angle_from_fraction,
)
from .experiments import (
    DEFAULT_EPS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    REFERENCE_CF,
    REFERENCE_QS,
    REFERENCE_THETA,
    box_experiment,
    density_probe,
    growth_report,
    modulation_cap,
    product_error,
    resume_witness,
)
from .reporting import render_json, report_dict
from .weylsum import (
    SkewPoint,
    dirichlet_bs_closed,
    parseval_estimates,
    skew_shift_n,
    weyl_sum,
)


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    runtime_s: float
    details: dict
    report_bytes: bytes

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cid}: {self.description} ({self.runtime_s:.1f}s)"


def _result(cid: str, description: str, passed: bool, runtime_s: float, details: dict) -> CriterionResult:
    """The gate's result, its report bytes {"criterion", "passed", **details}."""
    report = {"criterion": cid, "passed": bool(passed), **details}
    return CriterionResult(cid, description, bool(passed), runtime_s, details, render_json(report).encode())


def _gate(cid: str, description: str):
    """Make a gate runner of a body that returns (passed, details): the
    runner times the body and renders its result (_result); the runner
    keeps the gate's description as .description."""

    def runner(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body(*args, **kwargs)
            return _result(cid, description, passed, time.perf_counter() - t0, details)

        run.description = description
        return run

    return runner


# E1 ---------------------------------------------------------------------

_E1_SINGULAR_OFFSETS = [
    Fraction(1, 10 ** 8),
    Fraction(1, 1 << 10),
    Fraction(1, 1 << 15),
    Fraction(1, 1 << 19),
    Fraction(1, 1 << 20),
    Fraction(3, 1 << 21),
    Fraction(1, 1 << 25),
    Fraction(1, 1 << 30),
]


@_gate("E1", "closed form of b matches direct summation to 1e-9")
def run_e1(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Direct and closed-form geometric sums agree to 1e-9 for 10^4
    random (x, m <= 10^4), near-singular x included.  Each stream is
    drawn for every instance at once; the direct sums go through the
    engine in packed passes (_engine.qsums), and the closed forms' half
    phases through one e_phase call (dirichlet_bs_closed)."""
    count = 10_000
    xs = counter_numerators(seed, count, "e1-x")
    # every 20th x sits near 0, at the offsets in turn, on alternate sides
    singular = range(19, count, 20)
    for i in singular:
        off = _E1_SINGULAR_OFFSETS[(i // 20) % len(_E1_SINGULAR_OFFSETS)]
        xs[i] = angle_from_fraction(-off if (i // 20) % 2 == 0 else off).numerator
    ms = (counter_units(seed, count, "e1-m") * 10_001).astype(np.int64).tolist()
    errors = np.abs(_engine.qsums(zip(itertools.repeat(0), xs, ms)) - dirichlet_bs_closed(xs, ms))
    worst = float(np.max(errors))
    return worst < 1e-9, {
        "seed": seed,
        "instances": count,
        "near_singular_instances": len(singular),
        "max_abs_error": worst,
        "tolerance": 1e-9,
    }


# E2 ---------------------------------------------------------------------


def _angles(seed: int, n: int, stream: str) -> list[Angle]:
    # the draws of indices 0 .. n-1 of a stream, as grid points
    return list(map(Angle, counter_numerators(seed, n, stream)))


def _lengths(seed: int, n: int, stream: str) -> list[int]:
    # sum lengths 1 + floor(10**4 u) from the unit draws of indices 0 .. n-1
    return [1 + int(u * 10_000) for u in counter_units(seed, n, stream).tolist()]


@_gate("E2", "cocycle composition law holds to relative 1e-12")
def run_e2(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Cocycle identity a(x,y,n+m) = a(x,y,n) + a(T^n(x,y), m) to a
    relative 1e-12 over 100 random instances, n, m <= 10^4."""
    thetas, xs, ys = (_angles(seed, 100, s) for s in ("e2-theta", "e2-x", "e2-y"))
    ns, ms = (_lengths(seed, 100, s) for s in ("e2-n", "e2-m"))
    worst = 0.0
    for theta, x, y, n, m in zip(thetas, xs, ys, ns, ms):
        whole = weyl_sum(theta, x, y, n + m)
        first = weyl_sum(theta, x, y, n)
        shifted = skew_shift_n(theta, SkewPoint(x, y), n)
        second = weyl_sum(theta, shifted.x, shifted.y, m)
        worst = max(worst, float(np.abs(whole - first - second)) / (n + m))
    return worst < 1e-12, {
        "seed": seed,
        "instances": 100,
        "max_relative_error": worst,
        "tolerance": 1e-12,
    }


# E3 ---------------------------------------------------------------------


@_gate("E3", "mean square of |a(.,q)| matches q within 5 standard errors")
def run_e3(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Monte Carlo mean of |a(x,q)|^2 within 5 standard errors of q for
    q in {13, 17, 83523}, 10^5 samples each."""
    per_q = {}
    passed = True
    # 13 is off the schedule; one draw of the samples serves every q
    for est in parseval_estimates(REFERENCE_THETA, (13, *REFERENCE_QS), DEFAULT_SAMPLES, seed):
        ok = abs(est.mean - est.q) <= 5.0 * est.std_error
        passed = passed and ok
        per_q[str(est.q)] = {
            "mean": est.mean,
            "std_error": est.std_error,
            "deviation": est.mean - est.q,
            "within_5se": ok,
        }
    return passed, {"seed": seed, "samples": DEFAULT_SAMPLES, "per_q": per_q}


# E4 ---------------------------------------------------------------------


def _iterate_skew(theta: Angle, p: SkewPoint, n: int) -> SkewPoint:
    """The n-th iterate of (x, y) -> (x + theta, y + 2x + theta), step by
    step on unreduced numerators, reduced mod 2**256 once at the end, which
    is exact since the reduction commutes with + and x2.  Each step adds
    s = 2x + theta to y and 2 theta to s, so x = (s - theta) / 2."""
    t = theta.numerator
    y, s, t2 = p.y.numerator, 2 * p.x.numerator + t, 2 * t
    for _ in range(n):
        y += s
        s += t2
    return SkewPoint(Angle((s - t) // 2 % MODULUS), Angle(y % MODULUS))


@_gate("E4", "skew-shift closed form equals n-fold iteration exactly")
def run_e4(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Closed-form skew iterate equals step-by-step iteration exactly
    (grid equality): 100 random starts with n <= 10^4 plus three runs
    to n = 10^6: the starts of indices 0 .. 99 and 1000 .. 1002."""
    thetas, xs, ys = (_angles(seed, 1003, s) for s in ("e4-theta", "e4-x", "e4-y"))
    ns = _lengths(seed, 100, "e4-n") + [10 ** 6] * 3
    starts = ((thetas[i], SkewPoint(xs[i], ys[i]), n) for i, n in zip([*range(100), 1000, 1001, 1002], ns))
    all_equal = all(_iterate_skew(*start) == skew_shift_n(*start) for start in starts)
    details = {"seed": seed, "starts": 103, "max_n": max(ns), "exact_equality": all_equal}
    return all_equal, details


# E5 ---------------------------------------------------------------------


@_gate("E5", "rescaling residual bounded by calibrated max, no growth in k")
def run_e5(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Rescaling-identity residual: the seeded sweep max stays at the
    calibrated figure and the per-decade maxima show no growth in k
    (slope of decade max against log10 k at most 0.05).

    The sweep is pinned to the calibration seed; the gate's own seed
    plays no role here.
    """
    calib = load_calibration()["fe_residual"]
    sweep = run_fe_sweep(seed=calib["seed"])
    r_max = calib["max_residual"]
    passed = sweep["max_residual"] <= r_max * (1 + 1e-12) and sweep["decade_slope"] <= 0.05
    return passed, {
        "sweep": sweep,
        "calibrated_max": r_max,
        "slope_tolerance": 0.05,
    }


# E6 ---------------------------------------------------------------------


@_gate("E6", "growth statistics match the square-root regime for golden theta")
def run_e6(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Golden-angle growth: sup_x |a|/sqrt(n) within the calibrated
    constant on n in {1e2..1e5}; sup |a|/n strictly decreasing;
    |a(0,n)|/sqrt(n) reaches 0.5 by n = 10^4; the theta = 0 control has
    sup |a|/n identically 1."""
    calib = load_calibration()["growth_golden"]
    rep = growth_report(GOLDEN, calib["schedule"], calib["grid"])
    c_g = calib["sup_sqrt_max"]
    sqrt_ok = max(rep.sup_ratio_sqrt) <= c_g * (1 + 1e-12)
    decreasing = all(
        a > b for a, b in zip(rep.sup_ratio_linear, rep.sup_ratio_linear[1:])
    )
    peak_1e4 = rep.a0_peak_ratio[calib["schedule"].index(10_000)]
    peak_ok = peak_1e4 >= 0.5
    control = growth_report(Angle(0), [100, 1000, 10_000], 64)
    control_ok = all(v == 1.0 for v in control.sup_ratio_linear)
    passed = sqrt_ok and decreasing and peak_ok and control_ok
    return passed, {
        "sup_ratio_sqrt": list(rep.sup_ratio_sqrt),
        "calibrated_c_g": c_g,
        "sup_ratio_linear": list(rep.sup_ratio_linear),
        "strictly_decreasing": decreasing,
        "a0_peak_at_1e4": peak_1e4,
        "control_sup_linear": list(control.sup_ratio_linear),
    }


# E7 ---------------------------------------------------------------------


@_gate("E7", "product approximation constant calibrated; scheduled raw errors in bound")
def run_e7(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Product-approximation inequality: seeded sweep max within 1.5x the
    calibrated constant; on scheduled levels with the side conditions in
    force, the raw error stays below C_cal * q^(-eps/8)."""
    calib = load_calibration()["approx_ratio"]
    sweep = run_approx_sweep(seed=calib["seed"])
    c_cal = calib["max_ratio"]
    sweep_ok = sweep["max_ratio"] <= 1.5 * c_cal
    eps = DEFAULT_EPS
    raw_checks = []
    raw_ok = True
    candidates = _angles(seed, 200, "e7-x")
    for q in REFERENCE_QS:
        bound = c_cal * q ** (-eps / 8.0)
        a_cap = 2.0 * q ** (0.5 + eps / 10.0)
        m_cap = modulation_cap(q, eps)
        found = 0
        for x in candidates:
            if found == 3:
                break
            a_q = weyl_sum(REFERENCE_THETA, x, Angle(0), q)
            if not 0 < np.abs(a_q) <= a_cap:
                continue
            found += 1
            for m in (2, min(7, m_cap), min(29, m_cap)):
                raw = product_error(REFERENCE_THETA, x, q, m, a_q)
                ok = raw <= bound
                raw_ok = raw_ok and ok
                raw_checks.append(
                    {"q": q, "m": m, "raw_error": raw, "bound": bound, "ok": ok}
                )
    passed = sweep_ok and raw_ok and len(raw_checks) >= 12
    return passed, {
        "sweep": sweep,
        "calibrated_c": c_cal,
        "sweep_within_slack": sweep_ok,
        "raw_checks": raw_checks,
    }


# E8 ---------------------------------------------------------------------


@_gate("E8", "essential-value witness and box experiment at q3 = 83523")
def run_e8(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """End-to-end essential-value echo at level q3 = 83523 of the
    standard construction: witness product within 0.05 of 1/2, exact
    checks (i) and (iii) inside their bounds, box experiment with
    symmetric difference at most 0.1 and modulus fraction at least 0.9."""
    witness = resume_witness(REFERENCE_THETA, REFERENCE_CF, seed=seed)
    box = box_experiment(REFERENCE_THETA, witness, seed=seed)
    product_ok = abs(witness.product_value - 0.5) <= 0.05
    eps_ok = witness.eps_n <= 0.1
    sym_ok = box.symdiff_ratio <= 0.1
    mod_ok = box.modulus_fraction >= 0.9
    passed = (
        witness.q == REFERENCE_QS[-1]
        and product_ok
        and witness.check_i
        and witness.check_iii
        and witness.value_iii <= witness.eps_n
        and eps_ok
        and sym_ok
        and mod_ok
    )
    return passed, {
        "seed": seed,
        "witness": report_dict(witness),
        "box": report_dict(box),
        "product_within_0.05": product_ok,
        "symdiff_le_0.1": sym_ok,
        "modulus_fraction_ge_0.9": mod_ok,
    }


# E9 ---------------------------------------------------------------------


@_gate("E9", "disk coverage of the partial-sum walk vs the degenerate control")
def run_e9(seed: int = DEFAULT_SEED) -> tuple[bool, dict]:
    """Density echo: partial sums over the depth-4 construction cover at
    least 95% of the radius-2 disk at cell 0.25 within 10^7 terms; the
    theta = 0 control covers less than 20%."""
    (x,) = _angles(seed, 1, "density")
    rep = density_probe(REFERENCE_THETA, x, 10_000_000)
    control = density_probe(Angle(0), x, 10_000_000)
    passed = rep.covered_fraction >= 0.95 and control.covered_fraction < 0.2
    return passed, {
        "seed": seed,
        "covered_fraction": rep.covered_fraction,
        "n_visited": rep.n_visited,
        "n_disk_cells": rep.n_disk_cells,
        "control_covered_fraction": control.covered_fraction,
    }


# E10 --------------------------------------------------------------------


# the child's arguments to the interpreter, before the seed: this module's
# __main__ block, which runs _rerun_seeded
_RERUN_ARGS = ("-m", "weyl_lab.acceptance")
# the parent's wait for the child's output; the child's start-up, E2, E4,
# E6 and the five reruns take 1.8-2.1 s on an idle core of a 2-core Xeon VM
_RERUN_TIMEOUT_S = 600.0


def _rerun_seeded(seed: int) -> None:
    """The child's work: the gates of CHILD_ONLY, run here once, and the
    seeded gates' reruns, written to stdout once, at the end, as one JSON
    object that maps each gate to its description, verdict, runtime,
    details and report text."""
    output = {}
    for cid in IN_CHILD:
        res = RUNNERS[cid](seed)
        output[cid] = [res.description, res.passed, res.runtime_s, res.details, res.report_bytes.decode()]
    sys.stdout.write(json.dumps(output))


def _start_reruns(seed: int) -> subprocess.Popen:
    """A second interpreter running the gates of IN_CHILD at `seed`, with
    hash seed 1 and stdin closed, on this weyl_lab's source tree: its
    directory goes first on PYTHONPATH, and is the child's working directory
    too, since `-m` puts that directory first on sys.path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *_RERUN_ARGS, str(seed)],
        cwd=src,
        env={**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": path},
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )


def _stop(child: subprocess.Popen) -> None:
    """Kill the child unless it has exited, and reap it."""
    child.kill()
    child.wait()
    child.stdout.close()


def _child_output(child: subprocess.Popen) -> tuple[dict[str, CriterionResult] | None, str]:
    """The child's results by gate of IN_CHILD, or None and why there are
    none; the child is reaped either way."""
    try:
        out, _ = child.communicate(timeout=_RERUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(child)
        return None, f"no reports within {_RERUN_TIMEOUT_S} s"
    if child.returncode != 0:
        return None, f"rerun exited with code {child.returncode}"
    try:
        output = json.loads(out)
        return {
            cid: CriterionResult(cid, description, bool(passed), float(runtime_s), dict(details), report.encode())
            for cid in IN_CHILD
            for description, passed, runtime_s, details, report in [output[cid]]
        }, ""
    except (ValueError, TypeError, KeyError, AttributeError):
        return None, "rerun output unreadable"


@_gate("E10", "reports are byte-identical across reruns with the same seed")
def run_e10(seed: int, first_pass: dict[str, bytes], rerun: dict[str, bytes] | None, error: str = "") -> tuple[bool, dict]:
    """The seeded gates' reruns (None when the child gave none, and
    `error` says why) reproduce the first-pass report bytes; without
    reruns every seeded gate is a mismatch."""
    details = {"seed": seed, "compared": list(SEEDED)}
    if rerun is None:
        return False, {**details, "mismatches": list(SEEDED), "error": error}
    mismatches = [cid for cid in SEEDED if rerun[cid] != first_pass[cid]]
    return not mismatches, {**details, "mismatches": mismatches}


def _from_child(seed: int, first_pass: dict[str, bytes], child: subprocess.Popen) -> dict[str, CriterionResult]:
    """The results of CHILD_ONLY's gates and E10 from the output of `child`
    (from `_start_reruns`), by gate: each of CHILD_ONLY as the child
    rendered it, with its verdict and runtime, and E10 against the
    first-pass bytes.  A child that crashes, writes output that does not
    parse or outlasts _RERUN_TIMEOUT_S fails all of them, each with an
    error key.  E10's runtime_s, and a failed gate's, is the wait for the
    child."""
    t0 = time.perf_counter()
    output, error = _child_output(child)
    wait = time.perf_counter() - t0
    if output is None:
        results = {
            cid: _result(cid, _DESCRIPTIONS[cid], False, wait, {"seed": seed, "error": error})
            for cid in CHILD_ONLY
        }
        rerun = None
    else:
        results = {cid: output[cid] for cid in CHILD_ONLY}
        rerun = {cid: output[cid].report_bytes for cid in SEEDED}
    return {**results, "E10": replace(run_e10(seed, first_pass, rerun, error), runtime_s=wait)}


RUNNERS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
}

# each gate's description, as the runners carry it
_DESCRIPTIONS = {cid: fn.description for cid, fn in RUNNERS.items()}

# the seeded gates whose reports E10 reproduces; the unseeded gates that
# only the child runs; and the gates the child runs
SEEDED = ("E3", "E5", "E7", "E8", "E9")
CHILD_ONLY = ("E2", "E4", "E6")
IN_CHILD = (*CHILD_ONLY, *SEEDED)


def run_all(seed: int = DEFAULT_SEED, out_dir: str | None = None) -> list[CriterionResult]:
    """Run every gate, then the determinism gate against the first-pass
    bytes, and return the results in gate order; optionally write each
    report to out_dir.

    The child starts first and runs the gates of CHILD_ONLY and the seeded
    gates' reruns while E1 and the seeded gates' first passes run here; it
    is killed and reaped on every path out.
    """
    child = _start_reruns(seed)
    try:
        results = {cid: fn(seed) for cid, fn in RUNNERS.items() if cid not in CHILD_ONLY}
        first_pass = {cid: results[cid].report_bytes for cid in SEEDED}
        results.update(_from_child(seed, first_pass, child))
    finally:
        _stop(child)
    results = [results[cid] for cid in (*RUNNERS, "E10")]
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for res in results:
            (out / f"{res.cid}.json").write_bytes(res.report_bytes)
    return results


if __name__ == "__main__":
    _rerun_seeded(int(sys.argv[1]))
