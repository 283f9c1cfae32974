"""Acceptance gates, one test per criterion.

Each test runs its gate at the stated tolerance and prints the one-line
verdict; run with -s (or look at captured output) for the summary lines.
Gate results are shared across the session.  One `verify-all` run, with
its first pass reusing them, starts the second interpreter (hash seed 1)
that runs the unseeded gates E2, E4 and E6 and reruns the seeded gates,
as verify-all always does: E10 compares the reruns against the first
pass, and each unseeded gate's report from the child must equal an
in-process run's.  The tests of the child's failures replace its command
(`acceptance._RERUN_ARGS`) with a program that crashes, hangs, writes an
entry of the wrong shape or alters a report; each fails E10, and all but
the altered report fail E2, E4 and E6 too.
"""

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_lab import acceptance, cli
from weyl_lab.calibration import load_calibration
from weyl_lab.exactangle import MODULUS, Angle
from weyl_lab.weylsum import SkewPoint

SEED = 7

# SHA-256 of each gate's report bytes at SEED: a change that moves any
# report byte, within a run or across versions, shows here
REPORT_SHA256 = {
    "E1": "12fef1e083a6d3e3906aacfc01532a07ab15497941caad2fe0b494100965e261",
    "E2": "1b1e11281934494c6be8454a819b638fdeb0ab283e4cf3686c42cf10c72041ba",
    "E3": "63383a9a61f558fa1aa446a23cb0766dc21938c71eac630074cbcfdb8ce87bc3",
    "E4": "8fc6e13318101549f31c1623b065056ccd1a370ae74a830e5431beb306f403e7",
    "E5": "52a3f0f8f6e563c4ea96d35dcd0acc9ecf34695e1f34acb5df73949832dcd958",
    "E6": "b31d75f6fb5a4dc3324da1205110b3005d60bcacb7708c4663582ebd54c28d56",
    "E7": "b0d068e94312872503724a41f331ba4272e7410c24e9028696a89045daa94726",
    "E8": "eada202e713cd73fefde6fe25746c260e8b5f1bc5233695ebe1ce582d1bea837",
    "E9": "fd21d2f9fb866d372dcc58d893a99d6a1c051e5382e9a53ad31c04341b523462",
    "E10": "db750007c2d2e179f90dc92c60de451eabcb3d8b04f3aee93a0604d70da1c276",
}


@pytest.fixture(scope="session")
def gate():
    # the runners as imported: verify_all puts lambdas that call back here
    # in their place
    results, runners = {}, dict(acceptance.RUNNERS)

    def run(cid):
        if cid not in results:
            results[cid] = runners[cid](SEED)
        return results[cid]

    return run


def _check(result):
    print(result.summary_line())
    assert result.passed, result.details
    return result


def test_e1_closed_form_equivalence(gate):
    res = _check(gate("E1"))
    assert res.details["max_abs_error"] < 1e-9
    assert res.runtime_s < 10.0


def test_e2_cocycle_identity(gate):
    res = _check(gate("E2"))
    assert res.details["max_relative_error"] < 1e-12
    assert res.runtime_s < 10.0


def test_e3_parseval_identity(gate):
    res = _check(gate("E3"))
    for q, entry in res.details["per_q"].items():
        assert entry["within_5se"], f"q={q}: {entry}"
    assert res.runtime_s < 60.0


def test_e4_exact_skew_dynamics(gate):
    res = _check(gate("E4"))
    assert res.details["exact_equality"]
    assert res.details["max_n"] == 10 ** 6
    assert res.runtime_s < 10.0


def _iterate_skew_masked(theta, p, n):
    # the map step by step, each step's numerators reduced mod 2**256
    xn, yn, mask = p.x.numerator, p.y.numerator, MODULUS - 1
    for _ in range(n):
        yn = (yn + 2 * xn + theta.numerator) & mask
        xn = (xn + theta.numerator) & mask
    return SkewPoint(Angle(xn), Angle(yn))


# uniform numerators besides hypothesis's own integers, which favour the edges
_NUMERATORS = st.one_of(
    st.randoms(use_true_random=True).map(lambda r: r.randrange(MODULUS)),
    st.integers(0, MODULUS - 1),
    st.sampled_from([0, 1, MODULUS - 1]),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(t=_NUMERATORS, x=_NUMERATORS, y=_NUMERATORS, n=st.one_of(st.integers(0, 3), st.integers(0, 10_000)))
def test_iterate_skew_is_the_masked_step_by_step_loop(t, x, y, n):
    theta, p = Angle(t), SkewPoint(Angle(x), Angle(y))
    assert acceptance._iterate_skew(theta, p, n) == _iterate_skew_masked(theta, p, n)


def test_e5_functional_equation_residual(gate):
    res = _check(gate("E5"))
    assert res.details["sweep"]["max_residual"] <= res.details["calibrated_max"] * (1 + 1e-12)
    assert res.details["sweep"]["decade_slope"] <= 0.05
    # the gate's sweep reproduces the committed calibration record exactly
    assert res.details["sweep"] == load_calibration()["fe_residual"]
    assert res.runtime_s < 300.0


def test_e6_growth_statistics(gate):
    res = _check(gate("E6"))
    assert res.details["strictly_decreasing"]
    assert res.details["a0_peak_at_1e4"] >= 0.5
    assert all(v == 1.0 for v in res.details["control_sup_linear"])
    calib = load_calibration()["growth_golden"]
    assert max(res.details["sup_ratio_sqrt"]) == calib["sup_sqrt_max"]
    assert res.details["a0_peak_at_1e4"] == calib["a0_peak_1e4"]
    assert res.runtime_s < 120.0


def test_e7_product_approximation(gate):
    res = _check(gate("E7"))
    assert res.details["sweep_within_slack"]
    assert all(c["ok"] for c in res.details["raw_checks"])
    assert res.details["sweep"] == load_calibration()["approx_ratio"]
    assert res.runtime_s < 120.0


def test_e8_essential_value_echo(gate):
    res = _check(gate("E8"))
    w = res.details["witness"]
    assert w["q"] == "83523"
    assert abs(w["product_value"] - 0.5) <= 0.05
    assert w["check_i"] and w["check_iii"]
    assert w["eps_n"] <= 0.1
    box = res.details["box"]
    assert box["symdiff_ratio"] <= 0.1
    assert box["modulus_fraction"] >= 0.9
    assert res.runtime_s < 600.0


def test_e9_density_echo(gate):
    res = _check(gate("E9"))
    assert res.details["covered_fraction"] >= 0.95
    assert res.details["control_covered_fraction"] < 0.2
    assert res.runtime_s < 120.0


def _first_pass(gate):
    return {cid: gate(cid).report_bytes for cid in acceptance.SEEDED}


@pytest.fixture(scope="session")
def verify_all(gate, tmp_path_factory):
    """`weyl-lab verify-all --out-dir` at SEED: (exit code, printed lines,
    report directory, the child).  The first pass reuses the session's
    gate results; E2, E4, E6 and the reruns come from the child, run in
    full."""
    out_dir = tmp_path_factory.mktemp("reports")
    children = []
    start = acceptance._start_reruns

    def start_and_keep(seed):
        children.append(start(seed))
        return children[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(acceptance, "_start_reruns", start_and_keep)
        for cid in acceptance.RUNNERS:
            if cid not in acceptance.CHILD_ONLY:
                patch.setitem(acceptance.RUNNERS, cid, lambda seed, cid=cid: gate(cid))
        code = cli.main(["verify-all", "--seed", str(SEED), "--out-dir", str(out_dir)])
    [child] = children
    return code, out.getvalue().splitlines(), out_dir, child


def test_e10_deterministic_reports(verify_all):
    code, lines, out_dir, child = verify_all
    report = json.loads((out_dir / "E10.json").read_bytes())
    assert report["passed"] and report["mismatches"] == [], report
    assert hashlib.sha256((out_dir / "E10.json").read_bytes()).hexdigest() == REPORT_SHA256["E10"]
    assert child.returncode == 0 and child.stdout.closed


def test_verify_all_writes_the_pinned_bytes_with_e4_from_the_child(gate, verify_all):
    code, lines, out_dir, child = verify_all
    assert code == 0
    cids = [f"E{i}" for i in range(1, 11)]
    assert [line.split()[1].rstrip(":") for line in lines] == cids
    assert all(line.startswith("[PASS]") for line in lines), lines
    for cid in cids:
        assert hashlib.sha256((out_dir / f"{cid}.json").read_bytes()).hexdigest() == REPORT_SHA256[cid], cid
    # E2, E4 and E6 ran in the child only, each report an in-process run's
    assert acceptance.CHILD_ONLY == ("E2", "E4", "E6")
    for cid in acceptance.CHILD_ONLY:
        in_process = gate(cid)
        assert (out_dir / f"{cid}.json").read_bytes() == in_process.report_bytes
        assert lines[int(cid[1:]) - 1].startswith(in_process.summary_line().rsplit("(", 1)[0])


# the child's own program, with E7's report altered by one trailing byte
_ALTER_E7 = """import dataclasses, sys
from weyl_lab import acceptance
run = acceptance.RUNNERS["E7"]
def altered(seed):
    res = run(seed)
    return dataclasses.replace(res, report_bytes=res.report_bytes + b" ")
acceptance.RUNNERS["E7"] = altered
acceptance._rerun_seeded(int(sys.argv[1]))
"""


def test_e10_names_the_one_rerun_that_differs(gate, monkeypatch):
    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", _ALTER_E7))
    results = acceptance._from_child(SEED, _first_pass(gate), acceptance._start_reruns(SEED))
    assert list(results) == [*acceptance.CHILD_ONLY, "E10"]
    res = results["E10"]
    assert not res.passed
    assert res.details["mismatches"] == ["E7"]
    assert "error" not in res.details
    for cid in acceptance.CHILD_ONLY:
        assert results[cid].passed and results[cid].report_bytes == gate(cid).report_bytes


# a child whose every entry matches its first pass, but E4's is one item short
_BAD_ENTRY = """import json
from weyl_lab import acceptance
entry = ["a gate", True, 0.0, {}, "{}\\n"]
print(json.dumps({**{cid: entry for cid in acceptance.IN_CHILD}, "E4": entry[:4]}))
"""


@pytest.mark.parametrize(
    "source, timeout_s, error",
    [
        ("import sys; sys.exit(3)", None, "rerun exited with code 3"),
        ("print('not json')", None, "rerun output unreadable"),
        ("print('{}')", None, "rerun output unreadable"),
        (_BAD_ENTRY, None, "rerun output unreadable"),
        ("import time; time.sleep(60)", 0.5, "no reports within 0.5 s"),
    ],
    ids=["exit-3", "not-json", "no-gates", "bad-entry", "timeout"],
)
def test_e10_fails_and_reaps_a_child_that_gives_no_reports(monkeypatch, source, timeout_s, error):
    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", source))
    if timeout_s is not None:
        monkeypatch.setattr(acceptance, "_RERUN_TIMEOUT_S", timeout_s)
    first_pass = {cid: b"{}\n" for cid in acceptance.SEEDED}
    t0 = time.perf_counter()
    child = acceptance._start_reruns(SEED)
    results = acceptance._from_child(SEED, first_pass, child)
    assert time.perf_counter() - t0 < 30.0
    res = results["E10"]
    assert not res.passed
    assert res.details["mismatches"] == list(acceptance.SEEDED)
    assert res.details["error"] == error
    # E2, E4 and E6 ran only in the child, so they fail too, saying why
    assert list(results) == ["E2", "E4", "E6", "E10"]
    for cid, description in [
        ("E2", "cocycle composition law"),
        ("E4", "skew-shift closed form"),
        ("E6", "growth statistics"),
    ]:
        failed = results[cid]
        assert not failed.passed
        assert failed.details == {"seed": SEED, "error": error}
        assert json.loads(failed.report_bytes) == {"criterion": cid, "passed": False, "seed": SEED, "error": error}
        assert failed.summary_line().startswith(f"[FAIL] {cid}: {description}")
    # reaped: the exit status is collected, and a hung child was killed
    assert child.returncode is not None and child.stdout.closed
    if timeout_s is not None:
        assert child.returncode == -signal.SIGKILL


def test_run_all_kills_and_reaps_the_child_when_a_gate_raises(monkeypatch):
    children = []
    start = acceptance._start_reruns

    def start_and_keep(seed):
        children.append(start(seed))
        return children[-1]

    def broken(seed):
        raise RuntimeError("gate body failed")

    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", "import time; time.sleep(60)"))
    monkeypatch.setattr(acceptance, "_start_reruns", start_and_keep)
    # E3 is a gate of the parent's own: its first pass runs there
    monkeypatch.setitem(acceptance.RUNNERS, "E1", lambda seed: None)
    monkeypatch.setitem(acceptance.RUNNERS, "E3", broken)
    with pytest.raises(RuntimeError, match="gate body failed"):
        acceptance.run_all(SEED)
    [child] = children
    assert child.returncode == -signal.SIGKILL and child.stdout.closed


@pytest.mark.parametrize("safe_path", [{}, {"PYTHONSAFEPATH": "1"}], ids=["cwd-on-path", "safe-path"])
def test_rerun_child_has_hash_seed_1_and_the_parents_sources(tmp_path, safe_path):
    """The parent finds weyl_lab through sys.path alone, in a working
    directory holding another weyl_lab; the child imports the parent's,
    also where (Python >= 3.11) PYTHONSAFEPATH keeps its working directory
    off sys.path."""
    src = str(Path(acceptance.__file__).resolve().parents[1])
    decoy = tmp_path / "weyl_lab"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("")
    probe = "import json, os, weyl_lab; print(json.dumps([os.environ['PYTHONHASHSEED'], hash('weyl-lab'), weyl_lab.__file__]))"
    parent = f"""import json, sys
sys.path.insert(0, {src!r})
import weyl_lab
from weyl_lab import acceptance
acceptance._RERUN_ARGS = ("-c", {probe!r})
out, _ = acceptance._start_reruns(7).communicate(timeout=60)
print(json.dumps([weyl_lab.__file__, json.loads(out)]))
"""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    env.update(safe_path)

    def run(code, **extra):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env={**env, **extra},
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    parent_file, (hash_seed, child_hash, child_file) = run(parent)
    assert parent_file.startswith(src)
    assert child_file == parent_file
    assert hash_seed == "1"
    assert child_hash == run("print(hash('weyl-lab'))", PYTHONHASHSEED="1")


@pytest.mark.parametrize("cid", [f"E{i}" for i in range(1, 10)])
def test_gate_report_bytes_pinned(gate, cid):
    assert hashlib.sha256(gate(cid).report_bytes).hexdigest() == REPORT_SHA256[cid]
