"""Per-layer tracing of weyl_lab from outside the program.

The tracer replaces selected public functions of each weyl_lab module with
timing wrappers for the duration of a `with Tracer(prog):` block and puts
the original objects back afterwards.  Nothing under src/ knows about it.

- A name bound by `from .weylsum import weyl_sum` is a separate global in
  every importing module, so a wrapper is installed at every import site:
  each global of each weyl_lab module (and each value of a module-level
  dict, such as acceptance.RUNNERS) that is the original object.
- Generators (`phase_chunks`, `qsum_partials`) are timed only inside
  `next()`; what the consumer does between two items is the consumer's.
- Time is aggregated in memory per (function, caller), where the caller is
  the innermost wrapped function on the stack ("-" at the top).  Self time
  is a span's duration minus the time of the wrapped spans inside it; the
  wrappers' own bookkeeping lands in the caller's self time, and its total
  shows as trace.overhead_frac.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# qsum calls with at most this many terms run as one engine block
ONE_BLOCK_TERMS = 1 << 15
ROOT = "-"


@dataclass(frozen=True)
class Spec:
    """One traced function.

    `work` maps an argument getter to the work a call brings (terms,
    samples, candidates); `result` maps the return value to a count that
    is summed per function.
    """

    module: str
    name: str
    generator: bool = False
    work: Callable[[Callable[[str], Any]], int] | None = None
    result: Callable[[Any, Any], int] | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


def _passes_product_gate(fm, experiments) -> int:
    # the last witness gate of resume_witness, at its default tolerance
    return int(fm.m >= 1 and abs(fm.product_value - 0.5) <= experiments.PRODUCT_TOL)


SPECS: tuple[Spec, ...] = (
    Spec("_engine", "phase_chunks", generator=True, work=lambda arg: arg("n")),
    Spec("_engine", "qsum", work=lambda arg: arg("n")),
    Spec("_engine", "qsum_partials", generator=True, work=lambda arg: arg("n")),
    Spec("_engine", "qsum_moments", work=lambda arg: arg("n")),
    Spec(
        "_engine",
        "poly_eval_unit_circle",
        work=lambda arg: len(arg("rho")) * len(arg("coeffs")),
    ),
    Spec("_rng", "counter_angle"),
    Spec("_rng", "counter_unit"),
    Spec("exactangle", "angle_from_fraction"),
    Spec("contfrac", "construct_f_member"),
    Spec("weylsum", "weyl_sum", work=lambda arg: arg("n")),
    Spec("weylsum", "weyl_sum_over_x", work=lambda arg: len(arg("xs"))),
    Spec("weylsum", "dirichlet_b"),
    Spec("weylsum", "dirichlet_b_closed"),
    Spec("weylsum", "psi", work=lambda arg: arg("k")),
    Spec("weylsum", "parseval_estimate", work=lambda arg: arg("samples")),
    Spec("weylsum", "trajectory"),
    Spec("renorm", "renorm_step"),
    Spec("renorm", "fe_residual"),
    Spec("renorm", "u_measure_lower", work=lambda arg: arg("samples")),
    Spec("renorm", "b_level_measure", work=lambda arg: arg("samples")),
    Spec("experiments", "_find_mn_from_modulus", result=_passes_product_gate),
    Spec(
        "experiments",
        "resume_witness",
        work=lambda arg: arg("x_candidates"),
        result=lambda w, _: len(w.grid_deviations) * w.M_n,
    ),
    Spec("experiments", "box_experiment", work=lambda arg: arg("samples")),
    Spec("experiments", "density_probe", work=lambda arg: arg("n_terms")),
    Spec("experiments", "growth_report"),
    Spec("calibration", "run_fe_sweep"),
    Spec(
        "calibration",
        "run_approx_sweep",
        work=lambda arg: arg("samples"),
        result=lambda sweep, _: sweep["skipped"],
    ),
    Spec("acceptance", "run_all"),
    *(Spec("acceptance", f"run_e{i}") for i in range(1, 11)),
    Spec("reporting", "render_json", result=lambda text, _: len(text.encode())),
    Spec("cli", "main"),
)


# unit of every per-layer metric a traced run prints; BENCHMARK.json
# declares the subset that is measured on every workload (see NOTES.md)
UNITS = {
    "engine.phase_chunks.ns_per_term": "ns/term",
    "engine.qsum.ns_per_term": "ns/term",
    "engine.qsum.us_per_call": "us/call",
    "engine.qsum.terms_per_call": "terms/call",
    "engine.qsum_partials.ns_per_term": "ns/term",
    "engine.qsum_moments.ns_per_term": "ns/term",
    "engine.poly_eval_unit_circle.ns_per_sample_term": "ns/sample-term",
    "engine.terms": "terms",
    "engine.calls": "count",
    "rng.draws": "count",
    "rng.us_per_draw": "us/draw",
    "exactangle.angle_from_fraction.calls": "count",
    "exactangle.angle_from_fraction.us_per_call": "us/call",
    "weylsum.weyl_sum_over_x.self_us_per_sample": "us/sample",
    "weylsum.dirichlet_b.calls": "count",
    "weylsum.dirichlet_b_closed.us_per_call": "us/call",
    "weylsum.psi.calls": "count",
    "weylsum.psi.terms": "terms",
    "weylsum.trajectory.s": "s",
    "renorm.renorm_step.calls": "count",
    "renorm.renorm_step.us_per_call": "us/call",
    "renorm.levelset.self_us_per_sample": "us/sample",
    "renorm.fe_residual.us_per_call": "us/call",
    "experiments.resume_witness.s": "s",
    "experiments.resume_witness.interval_terms": "terms",
    "experiments.resume_witness.pass_ratio": "ratio",
    "experiments.box_experiment.self_us_per_sample": "us/sample",
    "experiments.density_probe.self_ns_per_term": "ns/term",
    "experiments.growth_report.s": "s",
    "contfrac.construct_f_member.calls": "count",
    "calibration.run_fe_sweep.s": "s",
    "calibration.run_approx_sweep.s": "s",
    "calibration.run_approx_sweep.skip_ratio": "ratio",
    "acceptance.run_e2.s": "s",
    "acceptance.run_e4.s": "s",
    "acceptance.run_e7.s": "s",
    "acceptance.run_e10.s": "s",
    "reporting.render_json.calls": "count",
    "reporting.render_json.bytes": "bytes",
    "reporting.render_json.us_per_call": "us/call",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Stat:
    """Aggregate of one (function, caller) pair; times in ns."""

    __slots__ = ("calls", "total", "self", "work", "result")

    def __init__(self) -> None:
        self.calls = self.total = self.self = self.work = self.result = 0


def _arg_getter(sig: inspect.Signature) -> Callable[[tuple, dict], Callable[[str], Any]]:
    names = list(sig.parameters)
    defaults = {n: p.default for n, p in sig.parameters.items()}

    def bind(args: tuple, kwargs: dict) -> Callable[[str], Any]:
        def arg(name: str) -> Any:
            if name in kwargs:
                return kwargs[name]
            pos = names.index(name)
            return args[pos] if pos < len(args) else defaults[name]

        return arg

    return bind


class _TimedIterator:
    __slots__ = ("_tracer", "_key", "_it")

    def __init__(self, tracer: "Tracer", key: str, it) -> None:
        self._tracer = tracer
        self._key = key
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        frame = tracer._enter(self._key)
        try:
            return next(self._it)
        finally:
            tracer._leave(frame, calls=0, work=0)


class Tracer:
    """Context manager installing timing wrappers on a loaded program.

    `prog` has one attribute per weyl_lab module (see workloads.load_program).
    """

    def __init__(self, prog) -> None:
        self.prog = prog
        self.stats: dict[tuple[str, str], Stat] = {}
        # qsum calls of at most ONE_BLOCK_TERMS terms: [calls, total ns, terms]
        self.one_block = [0, 0, 0]
        self._stack: list[list] = []
        self._patches: list[tuple[dict, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, key: str) -> list:
        caller = self._stack[-1][0] if self._stack else ROOT
        frame = [key, caller, 0, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, calls: int, work: int) -> int:
        dur = time.perf_counter_ns() - frame[3]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += dur
        stat = self._stat(frame[0], frame[1])
        stat.calls += calls
        stat.total += dur
        stat.self += dur - frame[2]
        stat.work += work
        return dur

    def _stat(self, key: str, caller: str) -> Stat:
        stat = self.stats.get((key, caller))
        if stat is None:
            stat = self.stats[(key, caller)] = Stat()
        return stat

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, spec: Spec, orig: Callable) -> Callable:
        key = spec.key
        bind = _arg_getter(inspect.signature(orig)) if spec.work else None
        module = getattr(self.prog, spec.module)

        if spec.generator:

            @functools.wraps(orig)
            def gen_wrapper(*args, **kwargs):
                caller = self._stack[-1][0] if self._stack else ROOT
                stat = self._stat(key, caller)
                stat.calls += 1
                stat.work += spec.work(bind(args, kwargs)) if bind else 0
                return _TimedIterator(self, key, orig(*args, **kwargs))

            return gen_wrapper

        one_block = key == "_engine.qsum"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            work = spec.work(bind(args, kwargs)) if bind else 0
            frame = self._enter(key)
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = self._leave(frame, calls=1, work=work)
                if one_block and work <= ONE_BLOCK_TERMS:
                    self.one_block[0] += 1
                    self.one_block[1] += dur
                    self.one_block[2] += work
            if spec.result is not None:
                self._stat(key, frame[1]).result += spec.result(result, module)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for spec in SPECS:
            orig = getattr(getattr(self.prog, spec.module), spec.name)
            wrappers[id(orig)] = (orig, self._wrap(spec, orig))

        def patch(namespace: dict, key, value) -> None:
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self._patches.append((namespace, key, value))
                namespace[key] = hit[1]

        try:
            for name, module in list(sys.modules.items()):
                if name != "weyl_lab" and not name.startswith("weyl_lab."):
                    continue
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if type(value) is dict:
                        for k2, v2 in list(value.items()):
                            patch(value, k2, v2)
                    else:
                        patch(namespace, key, value)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original object back where a wrapper replaced it."""
        while self._patches:
            namespace, key, orig = self._patches.pop()
            namespace[key] = orig

    # -- per-layer metrics ----------------------------------------------------

    def _sum(self, key: str, field: str) -> int:
        return sum(getattr(s, field) for (k, _), s in self.stats.items() if k == key)

    def span_lines(self) -> list[str]:
        """One line per (function, caller): calls, total and self seconds."""
        lines = []
        for (key, caller), s in sorted(self.stats.items()):
            lines.append(
                f"span {key} caller={caller} calls={s.calls} work={s.work} "
                f"total_s={s.total / 1e9:.6f} self_s={s.self / 1e9:.6f}"
            )
        return lines

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of UNITS but trace.overhead_frac.

        A function the traced pass did not call gives 0.
        """

        def calls(key):
            return self._sum(key, "calls")

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        def self_per_work(key, scale):
            return ratio(self._sum(key, "self"), self._sum(key, "work"), scale)

        def total_per_call(key, scale=1e-3):
            return ratio(self._sum(key, "total"), calls(key), scale)

        def seconds(key):
            return self._sum(key, "total") / 1e9

        engine_calls = sum(
            s.calls
            for (k, caller), s in self.stats.items()
            if k.startswith("_engine.") and not caller.startswith("_engine.")
        )
        draws = calls("_rng.counter_angle") + calls("_rng.counter_unit")
        draw_ns = self._sum("_rng.counter_angle", "total") + self._sum(
            "_rng.counter_unit", "total"
        )
        levelset = ("renorm.u_measure_lower", "renorm.b_level_measure")
        ob_calls, ob_ns, ob_terms = self.one_block
        return {
            "engine.phase_chunks.ns_per_term": self_per_work("_engine.phase_chunks", 1.0),
            "engine.qsum.ns_per_term": self_per_work("_engine.qsum", 1.0),
            "engine.qsum.us_per_call": ratio(ob_ns, ob_calls, 1e-3),
            "engine.qsum.terms_per_call": ratio(ob_terms, ob_calls),
            "engine.qsum_partials.ns_per_term": self_per_work("_engine.qsum_partials", 1.0),
            "engine.qsum_moments.ns_per_term": self_per_work("_engine.qsum_moments", 1.0),
            "engine.poly_eval_unit_circle.ns_per_sample_term": ratio(
                self._sum("_engine.poly_eval_unit_circle", "total"),
                self._sum("_engine.poly_eval_unit_circle", "work"),
            ),
            "engine.terms": self._sum("_engine.phase_chunks", "work"),
            "engine.calls": engine_calls,
            "rng.draws": draws,
            "rng.us_per_draw": ratio(draw_ns, draws, 1e-3),
            "exactangle.angle_from_fraction.calls": calls("exactangle.angle_from_fraction"),
            "exactangle.angle_from_fraction.us_per_call": total_per_call(
                "exactangle.angle_from_fraction"
            ),
            "weylsum.weyl_sum_over_x.self_us_per_sample": self_per_work(
                "weylsum.weyl_sum_over_x", 1e-3
            ),
            "weylsum.dirichlet_b.calls": calls("weylsum.dirichlet_b"),
            "weylsum.dirichlet_b_closed.us_per_call": total_per_call("weylsum.dirichlet_b_closed"),
            "weylsum.psi.calls": calls("weylsum.psi"),
            "weylsum.psi.terms": self._sum("weylsum.psi", "work"),
            "weylsum.trajectory.s": seconds("weylsum.trajectory"),
            "renorm.renorm_step.calls": calls("renorm.renorm_step"),
            "renorm.renorm_step.us_per_call": total_per_call("renorm.renorm_step"),
            "renorm.levelset.self_us_per_sample": ratio(
                sum(self._sum(k, "self") for k in levelset),
                sum(self._sum(k, "work") for k in levelset),
                1e-3,
            ),
            "renorm.fe_residual.us_per_call": total_per_call("renorm.fe_residual"),
            "experiments.resume_witness.s": seconds("experiments.resume_witness"),
            "experiments.resume_witness.interval_terms": self._sum(
                "experiments.resume_witness", "result"
            ),
            "experiments.resume_witness.pass_ratio": ratio(
                self._sum("experiments._find_mn_from_modulus", "result"),
                self._sum("experiments.resume_witness", "work"),
            ),
            "experiments.box_experiment.self_us_per_sample": self_per_work(
                "experiments.box_experiment", 1e-3
            ),
            "experiments.density_probe.self_ns_per_term": self_per_work(
                "experiments.density_probe", 1.0
            ),
            "experiments.growth_report.s": seconds("experiments.growth_report"),
            "contfrac.construct_f_member.calls": calls("contfrac.construct_f_member"),
            "calibration.run_fe_sweep.s": seconds("calibration.run_fe_sweep"),
            "calibration.run_approx_sweep.s": seconds("calibration.run_approx_sweep"),
            "calibration.run_approx_sweep.skip_ratio": ratio(
                self._sum("calibration.run_approx_sweep", "result"),
                self._sum("calibration.run_approx_sweep", "work"),
            ),
            "acceptance.run_e2.s": seconds("acceptance.run_e2"),
            "acceptance.run_e4.s": seconds("acceptance.run_e4"),
            "acceptance.run_e7.s": seconds("acceptance.run_e7"),
            "acceptance.run_e10.s": seconds("acceptance.run_e10"),
            "reporting.render_json.calls": calls("reporting.render_json"),
            "reporting.render_json.bytes": self._sum("reporting.render_json", "result"),
            "reporting.render_json.us_per_call": total_per_call("reporting.render_json"),
            "cli.main.self_s": self._sum("cli.main", "self") / 1e9,
        }
