"""Benchmark of weyl-lab, run from the root of a checkout.

    python3 perfbench/run.py --workload {gates,deep-sum,monte-carlo,all}
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 sets the workload up several times (fresh import of weyl_lab and
the workload's inputs; set-up time is the median), then runs whole passes
until --seconds have passed (at least one pass), and reports end-to-end
metrics: medians over passes, peak memory, and every task's time.  Times
are paced (perfbench/pace.py): measured seconds scaled by the machine's
speed at the time, read from a reference kernel; the measured ones are
printed too.  --trace 1 runs one untraced pass and one traced pass and
reports the per-layer metrics of perfbench/tracing.py, the tracing
overhead, and whether both passes gave the same report digests.
--workload all runs each workload in a child process of its own, so that
each peak_rss_mb is the workload's own.

Every line but the last is for people: the environment, checks, report
digests and every metric with its unit.  The last line is one JSON object
with the keys correct, attempted, failed and metrics, where metrics holds
those BENCHMARK.json declares for the mode.  Exit code 2 without a result
when the program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
WORKLOAD_NAMES = ("gates", "deep-sum", "monte-carlo")


def environment() -> dict:
    """Machine and library facts, read from this process and /proc."""
    import numpy as np

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                env["cpu_model"] = value.strip()
            elif key.strip() == "cache size":
                env["cpuinfo_cache_size"] = value.strip()
            if "cpu_model" in env and "cpuinfo_cache_size" in env:
                break
    # /proc/cpuinfo names only one cache level; the kernel's per-level
    # description sits next to it in sysfs
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            env[f"l{level}_cache"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, params: dict | None = None) -> dict:
    """Untraced run: set-up repeats, then passes until `seconds` have passed.

    Set-up repeats alternate with kernel samples, and the median set-up
    time is paced by them; each pass is paced by the samples taken during
    it and on either side of it.
    """
    from perfbench.pace import Pace, factor
    from perfbench.workloads import WORKLOADS, load_program

    pace = Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](load_program(), seed, params)
        setups.append(time.perf_counter() - t0)
    pace.sample()
    kernel_times = pace.take()
    setup_factor = factor(kernel_times)
    passes, factors = [], []
    start = time.perf_counter()
    with pace:
        while not passes or time.perf_counter() - start < seconds:
            pace.sample()
            passes.append(workload.run(pace.clock))
            pace.sample()
            samples = pace.take()
            factors.append(factor(samples))
            kernel_times += samples
    checks = [c for p in passes for c in p.checks]
    checks += [
        (f"pass {i + 1} reports equal pass 1", p.digests == passes[0].digests)
        for i, p in enumerate(passes[1:], 1)
    ]
    paced = [({**p.times, **p.gates}, p.wall, f) for p, f in zip(passes, factors)]
    lines = {
        f"{key}_s": (statistics.median(times[key] * f for times, _, f in paced), "s")
        for key in paced[0][0]
    }
    lines.update(
        {
            "passes": (len(passes), "count"),
            "measured.setup_s": (statistics.median(setups), "s"),
            "measured.wall_s": (statistics.median(p.wall for p in passes), "s"),
            "pace.kernel_ms": (statistics.median(kernel_times) * 1e3, "ms"),
            "pace.samples": (len(kernel_times), "count"),
        }
    )
    return {
        "metrics": {
            "setup_s": statistics.median(setups) * setup_factor,
            "wall_s": statistics.median(wall * f for _, wall, f in paced),
            "peak_rss_mb": peak_rss_mb(),
        },
        "units": {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"},
        "lines": lines,
        "digests": passes[0].digests,
        "checks": checks,
    }


def trace(name: str, seed: int, params: dict | None = None) -> dict:
    """Traced run: one untraced pass, then the same pass under the Tracer.

    Times here are measured seconds, not paced: the kernel samples would
    land inside the traced spans.
    """
    from perfbench.tracing import UNITS, Tracer
    from perfbench.workloads import WORKLOADS, load_program

    workload = WORKLOADS[name](load_program(), seed, params)
    plain = workload.run()
    with Tracer(workload.prog) as tracer:
        traced = workload.run()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    checks = plain.checks + traced.checks
    checks.append(("traced reports equal untraced reports", traced.digests == plain.digests))
    lines = {f"{key}_s": (t, "s") for key, t in {**traced.times, **traced.gates}.items()}
    return {
        "metrics": metrics,
        "units": UNITS,
        "lines": lines,
        "spans": tracer.span_lines(),
        "digests": traced.digests,
        "checks": checks,
    }


def declared_units(trace_on: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def report(name: str, run: dict) -> None:
    """The human-readable lines of one workload's run."""
    for line in run.get("spans", []):
        print(f"{name} {line}")
    for report_name, sha in sorted(run["digests"].items()):
        print(f"{name} sha256 {report_name} {sha}")
    for check, passed in run["checks"]:
        print(f"{name} check {'PASS' if passed else 'FAIL'} {check}")
    failed = sum(not ok for _, ok in run["checks"])
    attempted = len(run["checks"])
    print(f"{name} failed_fraction {failed / attempted!r} ({failed}/{attempted} checks)")
    for key, (value, unit) in run["lines"].items():
        print(f"{name} {key} {value!r} {unit}")
    for metric, value in run["metrics"].items():
        print(f"{name} {metric} {value!r} {run['units'][metric]}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a child process of its own; one merged result."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        last = None
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            for line in child.stdout:
                if last is not None:
                    print(last, end="", flush=True)
                last = line
        if child.returncode != 0 or last is None:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weyl_lab" / "__init__.py").is_file():
        print(f"error: no weyl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    print("env " + json.dumps(environment(), sort_keys=True))
    name = args.workload
    run = trace(name, args.seed) if args.trace else measure(name, args.seed, args.seconds)
    report(name, run)
    units = declared_units(bool(args.trace))
    wrong = [m for m, unit in units.items() if run["units"].get(m) != unit]
    if wrong:
        raise RuntimeError(f"BENCHMARK.json metrics not measured as declared: {wrong}")
    failed = sum(not ok for _, ok in run["checks"])
    metrics = {m: {"value": run["metrics"][m], "unit": unit} for m, unit in units.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(run["checks"]),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
