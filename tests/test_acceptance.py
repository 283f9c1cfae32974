"""Acceptance gates, one test per criterion.

Each test runs its gate at the stated tolerance and prints the one-line
verdict; run with -s (or look at captured output) for the summary lines.
Gate results are shared across the session.  One `verify-all` run, with
its gates reusing them, starts the second interpreter (hash seed 1) that
runs a share of E1 and reruns the seeded gates, as verify-all always
does: E10 compares the reruns against the first pass, and E1's report
from its two shares must equal an in-process run's.  The tests of the
child's failures replace its command (`acceptance._RERUN_ARGS`) with a
program that crashes, hangs, writes output of the wrong shape or alters
a report; each fails E10, and all but the altered report fail E1 too,
while the gates the parent runs alone keep their verdicts and bytes.
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


def _keep_children(patch):
    # the children run_all starts, kept for the test to look at
    children = []
    start = acceptance._start_reruns

    def start_and_keep(seed):
        children.append(start(seed))
        return children[-1]

    patch.setattr(acceptance, "_start_reruns", start_and_keep)
    return children


def _parents_gates_from_session(gate, patch):
    # the gates the parent runs (all but E1), from the session's results
    for cid in list(acceptance.RUNNERS)[1:]:
        patch.setitem(acceptance.RUNNERS, cid, lambda seed, cid=cid: gate(cid))


@pytest.fixture(scope="session")
def verify_all(gate, tmp_path_factory):
    """`weyl-lab verify-all --out-dir` at SEED: (exit code, printed lines,
    report directory, the child).  The parent's gates reuse the session's
    gate results; E1 runs in its two shares, and the reruns come from the
    child, run in full."""
    out_dir = tmp_path_factory.mktemp("reports")
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        children = _keep_children(patch)
        _parents_gates_from_session(gate, patch)
        code = cli.main(["verify-all", "--seed", str(SEED), "--out-dir", str(out_dir)])
    [child] = children
    return code, out.getvalue().splitlines(), out_dir, child


def test_e10_deterministic_reports(verify_all):
    code, lines, out_dir, child = verify_all
    report = json.loads((out_dir / "E10.json").read_bytes())
    assert report["passed"] and report["mismatches"] == [], report
    assert hashlib.sha256((out_dir / "E10.json").read_bytes()).hexdigest() == REPORT_SHA256["E10"]
    assert child.returncode == 0 and child.stdout.closed


def test_verify_all_writes_the_pinned_bytes_with_e1_from_two_shares(gate, verify_all):
    code, lines, out_dir, child = verify_all
    assert code == 0
    cids = [f"E{i}" for i in range(1, 11)]
    assert [line.split()[1].rstrip(":") for line in lines] == cids
    assert all(line.startswith("[PASS]") for line in lines), lines
    for cid in cids:
        assert hashlib.sha256((out_dir / f"{cid}.json").read_bytes()).hexdigest() == REPORT_SHA256[cid], cid
    # E1 ran in two shares, its report an in-process run's
    assert 0 < acceptance.E1_IN_CHILD < acceptance.E1_INSTANCES
    in_process = gate("E1")
    assert (out_dir / "E1.json").read_bytes() == in_process.report_bytes
    assert lines[0].startswith(in_process.summary_line().rsplit("(", 1)[0])


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
    results = acceptance._from_child(SEED, (0.0, 0.0), _first_pass(gate), acceptance._start_reruns(SEED))
    assert list(results) == ["E1", "E10"]
    assert results["E1"].passed
    res = results["E10"]
    assert not res.passed
    assert res.details["mismatches"] == ["E7"]
    assert "error" not in res.details


# a child with E1's share `e1` and a stand-in report text `e7` for E7 and
# "{}\n" for the other seeded gates, each matching its first pass
_STAND_INS = """import json, sys
from weyl_lab import acceptance
output = {{"E1": {e1}, **dict.fromkeys(acceptance.SEEDED, "{{}}\\n")}}
print(json.dumps({{**output, "E7": {e7}}}))
"""


@pytest.mark.parametrize(
    "source, timeout_s, error",
    [
        ("import sys; sys.exit(3)", None, "rerun exited with code 3"),
        ("print('not json')", None, "rerun output unreadable"),
        ("print('{}')", None, "rerun output unreadable"),
        (_STAND_INS.format(e1="0.0", e7="['{}\\n']"), None, "rerun output unreadable"),
        (_STAND_INS.format(e1="[]", e7="'{}\\n'"), None, "rerun output unreadable"),
        (_STAND_INS.format(e1="'1e-20'", e7="'{}\\n'"), None, "rerun output unreadable"),
        ("import time; time.sleep(60)", 0.5, "no reports within 0.5 s"),
    ],
    ids=["exit-3", "not-json", "no-gates", "bad-entry", "e1-not-a-number", "e1-a-string", "timeout"],
)
def test_e10_fails_and_reaps_a_child_that_gives_no_reports(gate, monkeypatch, source, timeout_s, error):
    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", source))
    if timeout_s is not None:
        monkeypatch.setattr(acceptance, "_RERUN_TIMEOUT_S", timeout_s)
    children = _keep_children(monkeypatch)
    _parents_gates_from_session(gate, monkeypatch)
    # the parent's share of E1 is a stand-in, as E1 fails without the child's
    monkeypatch.setattr(acceptance, "_e1_worst", lambda seed, lo, hi: 0.0)
    in_process = {cid: gate(cid) for cid in list(acceptance.RUNNERS)[1:]}
    t0 = time.perf_counter()
    results = {res.cid: res for res in acceptance.run_all(SEED)}
    assert time.perf_counter() - t0 < 30.0
    [child] = children
    res = results["E10"]
    assert not res.passed
    assert res.details["mismatches"] == list(acceptance.SEEDED)
    assert res.details["error"] == error
    # E1 ran in part in the child, so it fails too, saying why
    failed = results["E1"]
    assert not failed.passed
    assert failed.details == {"seed": SEED, "error": error}
    assert json.loads(failed.report_bytes) == {"criterion": "E1", "passed": False, "seed": SEED, "error": error}
    assert failed.summary_line().startswith("[FAIL] E1: closed form of b")
    # the gates the parent runs alone keep an in-process run's verdict and
    # bytes, E2, E4 and E6 among them
    assert list(results) == ["E1", *in_process, "E10"]
    for cid, own in in_process.items():
        assert results[cid].passed and results[cid].report_bytes == own.report_bytes
        assert "error" not in results[cid].details
    # reaped: the exit status is collected, and a hung child was killed
    assert child.returncode is not None and child.stdout.closed
    if timeout_s is not None:
        assert child.returncode == -signal.SIGKILL


def test_e1_keeps_a_nan_in_the_childs_share(monkeypatch):
    # a nan among all 10**4 instances is E1's largest error in one
    # interpreter, and no report renders it; so too from the child's share
    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", _STAND_INS.format(e1="float('nan')", e7="'{}\\n'")))
    first_pass = {cid: b"{}\n" for cid in acceptance.SEEDED}
    child = acceptance._start_reruns(SEED)
    with pytest.raises(ValueError, match="non-finite"):
        acceptance._from_child(SEED, (1e-12, 0.0), first_pass, child)
    assert child.returncode == 0


def test_run_all_kills_and_reaps_the_child_when_a_gate_raises(monkeypatch):
    def broken(seed):
        raise RuntimeError("gate body failed")

    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", "import time; time.sleep(60)"))
    children = _keep_children(monkeypatch)
    # E2 is the parent's first gate, after its share of E1
    monkeypatch.setattr(acceptance, "_e1_worst", lambda seed, lo, hi: 0.0)
    monkeypatch.setitem(acceptance.RUNNERS, "E2", broken)
    with pytest.raises(RuntimeError, match="gate body failed"):
        acceptance.run_all(SEED)
    [child] = children
    assert child.returncode == -signal.SIGKILL and child.stdout.closed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_e1_from_two_shares_is_one_interpreters_run(monkeypatch, seed):
    # the child's share in the second interpreter, the parent's here, and
    # E1's bytes those of one run over all 10**4 instances
    # a child that runs only its share of E1, beside stand-ins for its reruns
    share = "acceptance._e1_worst(int(sys.argv[1]), 0, acceptance.E1_IN_CHILD)"
    monkeypatch.setattr(acceptance, "_RERUN_ARGS", ("-c", _STAND_INS.format(e1=share, e7="'{}\\n'")))
    child = acceptance._start_reruns(seed)
    t0 = time.perf_counter()
    parents = (acceptance._e1_worst(seed, acceptance.E1_IN_CHILD, acceptance.E1_INSTANCES), time.perf_counter() - t0)
    first_pass = {cid: b"{}\n" for cid in acceptance.SEEDED}
    res = acceptance._from_child(seed, parents, first_pass, child)["E1"]
    assert res.report_bytes == acceptance.run_e1(seed).report_bytes
    assert res.passed and res.runtime_s == parents[1]


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
