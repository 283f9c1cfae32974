"""The benchmark's workloads.

Each workload is a closed loop: one caller issues its tasks in sequence
and waits for each.  Constructing a workload is its set-up (inputs from
the seed); `run()` is one measured pass returning task times, report
digests and correctness checks.  Program functions are always looked up
through their module at call time, so a Tracer installed around `run()`
sees every call.

Why each workload exists, and which layer metric should move which task,
is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import numpy as np

MODULES = (
    "_engine",
    "_rng",
    "exactangle",
    "contfrac",
    "weylsum",
    "renorm",
    "experiments",
    "calibration",
    "acceptance",
    "reporting",
    "cli",
)

# the reference depth-4 construction of the README and gates E3/E7-E9
DEPTH4 = "construct:0.5,4"
DEPTH4_Q = 83523
# resume_witness's cost follows its seed through M_n (1.8 s to 70 s over
# seeds 1-8), and E8 and E10 run it, so the witness search and the gates
# run at seed 7, the cheapest, whatever the benchmark seed
# (`weyl-lab verify-all --seed 2` shows E9 failing; see NOTES.md)
WITNESS_SEED = 7
GATE_SEED = 7

# one sum's error budget |a - exact| <= n * 2**-51 (the README's claim)
ULP_BUDGET = 2.0 ** -51


def load_program() -> SimpleNamespace:
    """Import weyl_lab afresh and return its modules by name.

    Earlier imports are dropped from sys.modules first, so the import cost
    is paid again; this is the first part of every workload's set-up.
    """
    for name in [m for m in sys.modules if m == "weyl_lab" or m.startswith("weyl_lab.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"weyl_lab.{m}") for m in MODULES}
    )


def digest(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class PassResult:
    """One pass: seconds per task, report digests, (check, passed) pairs.

    `times` holds the task timers, read with `clock`; the pass's wall time
    is their sum, so the checks and digests after the tasks are not timed.
    `gates` holds the gates' own runtime_s.
    """

    clock: Callable[[], float] = time.perf_counter
    times: dict[str, float] = field(default_factory=dict)
    gates: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


class _Timer:
    def __init__(self, result: PassResult, task: str) -> None:
        self.result = result
        self.task = task

    def __enter__(self) -> None:
        self.t0 = self.result.clock()

    def __exit__(self, *exc) -> None:
        self.result.times[self.task] = (
            self.result.times.get(self.task, 0.0) + self.result.clock() - self.t0
        )


def run_cli(prog, argv: list[str]) -> bytes:
    """weyl-lab <argv> in-process; returns the report bytes it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"weyl-lab {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue().encode()


def _random_x(rnd: random.Random) -> str:
    """A uniform grid angle as the 64-digit hex form the CLI accepts."""
    return format(rnd.getrandbits(256), "064x")


def gauss_sum_dyadic(a: int, s: int) -> complex:
    """G(a, 2^s) = sum_{k<2^s} e(a k^2 / 2^s) for odd a and s >= 2.

    Closed form (2/a)^s (1 + i^a) 2^(s/2) (Berndt-Evans-Williams, Gauss
    and Jacobi Sums).  i^a comes from a % 4: float powers of 1j drift
    past the error budget for large a.
    """
    if a % 2 == 0 or s < 2:
        raise ValueError("need odd a and s >= 2")
    jacobi_2a = 1 if a % 8 in (1, 7) else -1
    i_pow_a = (1, 1j, -1, -1j)[a % 4]
    return jacobi_2a ** s * (1 + i_pow_a) * 2.0 ** (s / 2)


def _within(name: str, err: float, budget: float) -> tuple[str, bool]:
    return f"{name}: |err| {err:.3g} <= {budget:.3g}", err <= budget


class Gates:
    """`weyl-lab verify-all --seed 7` through cli.main: gates E1-E10.

    The benchmark seed is not passed through (see GATE_SEED).
    """

    def __init__(self, prog, seed: int, params: dict | None = None) -> None:
        self.prog = prog
        self.argv = ["verify-all", "--seed", str(GATE_SEED)]

    def run(self, clock: Callable[[], float] = time.perf_counter) -> PassResult:
        res = PassResult(clock)
        acceptance = self.prog.acceptance
        run_all = acceptance.run_all
        captured: list = []

        def capture(*args, **kwargs):
            results = run_all(*args, **kwargs)
            captured.extend(results)
            return results

        acceptance.run_all = capture
        out, err = io.StringIO(), io.StringIO()
        try:
            with _Timer(res, "task.verify_all"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.prog.cli.main(self.argv)
        finally:
            acceptance.run_all = run_all
        for gate in captured:
            res.gates[f"gate.{gate.cid}"] = gate.runtime_s
            res.digests[gate.cid] = digest(gate.report_bytes)
            res.checks.append((f"gate {gate.cid} passed", gate.passed))
        all_passed = len(captured) == 10 and all(g.passed for g in captured)
        res.checks.append(("exit code matches verdicts", code == (0 if all_passed else 1)))
        return res


TRAJ_STRIDE = 1000
DEEP_PARAMS = {
    "sum_n": 25_000_000,  # per independent sum; three sums
    "density_n": 10_000_000,
    "interval_m": 4_000_000,  # 33 sums of this length
}


class DeepSum:
    """A few long sums, no sampling: the engine's term loop dominates."""

    def __init__(self, prog, seed: int, params: dict | None = None) -> None:
        self.prog = prog
        sz = {**DEEP_PARAMS, **(params or {})}
        rnd = random.Random(f"deep-sum:{seed}")
        n = sz["sum_n"] - sz["sum_n"] % TRAJ_STRIDE
        # s <= 20 keeps n = c * 2^s within 2^20 terms (4.2 %) of sum_n, so the
        # work hardly depends on the seed
        s = rnd.randint(16, 20)
        a = rnd.randrange(1, 1 << s, 2)
        c = max(1, n // (1 << s))
        self.dyadic = (a, s, c)
        x_deep = _random_x(rnd)
        self.sums = {
            "golden": ["sum", "--theta", "golden", "--x", _random_x(rnd), "--n", str(n)],
            "dyadic": ["sum", "--theta", f"{a}/{1 << s}", "--n", str(c << s)],
            "depth4": ["sum", "--theta", DEPTH4, "--x", x_deep, "--n", str(n)],
        }
        self.traj = [
            "traj", "--theta", DEPTH4, "--x", x_deep, "--n", str(n),
            "--stride", str(TRAJ_STRIDE),
        ]
        self.density = [
            "density", "--theta", DEPTH4, "--x", _random_x(rnd), "--n", str(sz["density_n"]),
        ]
        # the shape of resume_witness's interval check: 33 sums sharing
        # theta and M, x on a grid across [x - r, x + r]
        exp, ea = prog.experiments, prog.exactangle
        cf, _ = prog.contfrac.construct_f_member(0.5, 4)
        self.theta = prog.contfrac.angle_from_cf(cf)
        self.interval_m = sz["interval_m"]
        self.x_center = ea.Angle(rnd.getrandbits(256))
        r = exp.interval_radius(DEPTH4_Q, exp.DEFAULT_EPS)
        half = (exp.INTERVAL_GRID - 1) // 2
        self.offsets = np.array(
            [(g - half) / half * r for g in range(exp.INTERVAL_GRID)]
        )
        self.interval_xs = [
            ea.wrap_add(self.x_center, ea.angle_from_fraction(Fraction(off)))
            for off in self.offsets.tolist()
        ]
        self._interval_reference = None

    def run(self, clock: Callable[[], float] = time.perf_counter) -> PassResult:
        prog = self.prog
        res = PassResult(clock)
        sums = {}
        with _Timer(res, "task.sum"):
            for name, argv in self.sums.items():
                sums[name] = run_cli(prog, argv)
        with _Timer(res, "task.trajectory"):
            traj = run_cli(prog, self.traj)
        with _Timer(res, "task.density"):
            density = run_cli(prog, self.density)
        with _Timer(res, "task.interval"):
            zero = prog.exactangle.Angle(0)
            values = [
                prog.weylsum.weyl_sum(self.theta, x, zero, self.interval_m)
                for x in self.interval_xs
            ]
        interval = prog.reporting.render_json(
            {"interval": [[z.real, z.imag] for z in values]}
        )
        for name, payload in [*sums.items(), ("traj", traj), ("density", density),
                              ("interval", interval)]:
            res.digests[name] = digest(payload)

        a, s, c = self.dyadic
        dyadic = json.loads(sums["dyadic"])
        err = abs(complex(dyadic["re"], dyadic["im"]) - c * gauss_sum_dyadic(a, s))
        res.checks.append(_within("dyadic sum equals c*G(a, 2^s)", err, dyadic["n"] * ULP_BUDGET))

        deep = json.loads(sums["depth4"])
        n_end, re_end, im_end = json.loads(traj)["points"][-1]
        err = abs(complex(re_end, im_end) - complex(deep["re"], deep["im"]))
        if n_end != deep["n"]:
            err = float("inf")
        res.checks.append(_within("trajectory endpoint equals weyl_sum", err, deep["n"] * ULP_BUDGET))

        reference, tail = self.interval_reference()
        err = float(np.max(np.abs(np.abs(values) - reference)))
        res.checks.append(
            _within("interval sums equal the moment expansion", err,
                    2 * self.interval_m * ULP_BUDGET + tail)
        )
        return res

    def interval_reference(self) -> tuple[np.ndarray, float]:
        """|a(x + u, M)| on the interval grid by qsum_moments, computed once,
        outside the task timers."""
        if self._interval_reference is None:
            self._interval_reference = self.prog.experiments.modulus_on_interval(
                self.theta, self.x_center, self.interval_m, self.offsets
            )
        return self._interval_reference


MC_PARAMS = {
    "parseval_samples": 100_000,
    "box_samples": 100_000,
    "levelset_samples": 10_000,
}
LEVELSET_DEPTH = 2  # Gauss depth of the U-map in the level-set estimates


class MonteCarlo:
    """Seeded sampling at the depth-4 theta: per-sample Python dominates."""

    def __init__(self, prog, seed: int, params: dict | None = None) -> None:
        self.prog = prog
        self.seed = seed
        self.sz = {**MC_PARAMS, **(params or {})}
        self.parseval = [
            "parseval", "--theta", DEPTH4, "--q", str(DEPTH4_Q),
            "--samples", str(self.sz["parseval_samples"]), "--seed", str(seed),
        ]
        self.cf, _ = prog.contfrac.construct_f_member(0.5, 4)
        self.theta = prog.contfrac.angle_from_cf(self.cf)

    def run(self, clock: Callable[[], float] = time.perf_counter) -> PassResult:
        prog, sz, seed = self.prog, self.sz, self.seed
        render = prog.reporting.render_json
        res = PassResult(clock)
        with _Timer(res, "task.parseval"):
            parseval = run_cli(prog, self.parseval)
        with _Timer(res, "task.box"):
            witness = prog.experiments.resume_witness(
                self.theta, self.cf, x_candidates=256, seed=WITNESS_SEED
            )
            box = prog.experiments.box_experiment(
                self.theta, witness, samples=sz["box_samples"], seed=seed
            )
            reports = {"witness": render(witness), "box": render(box)}
        with _Timer(res, "task.levelset"):
            n = sz["levelset_samples"]
            u = prog.renorm.u_measure_lower(self.theta, LEVELSET_DEPTH, 0.1, n, seed)
            b = prog.renorm.b_level_measure(self.theta, LEVELSET_DEPTH, 1.0, n, seed)
            reports.update(u_measure=render(u), b_level=render(b))
        res.digests["parseval"] = digest(parseval)
        for name, payload in reports.items():
            res.digests[name] = digest(payload)

        est = json.loads(parseval)
        res.checks.append(
            ("parseval mean within 5 standard errors of q",
             abs(est["mean"] - DEPTH4_Q) <= 5.0 * est["std_error"])
        )
        res.checks.append(("box symdiff_ratio <= 0.1", box.symdiff_ratio <= 0.1))
        res.checks.append(("box modulus_fraction >= 0.9", box.modulus_fraction >= 0.9))
        res.checks.append(("u-measure estimate positive", u.estimate > 0))
        res.checks.append(("b-level estimate positive", b.estimate > 0))
        return res


WORKLOADS = {"gates": Gates, "deep-sum": DeepSum, "monte-carlo": MonteCarlo}
