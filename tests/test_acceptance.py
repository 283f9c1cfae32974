"""Acceptance gates, one test per criterion.

Each test runs its gate at the stated tolerance and prints the one-line
verdict; run with -s (or look at captured output) for the summary lines.
Gate results are shared across the session, so E10 compares one rerun of
each seeded gate against the bytes of the first run, as verify-all does.
"""

import hashlib

import pytest

from weyl_lab import acceptance

SEED = 7

# SHA-256 of each gate's report bytes at SEED: a change that moves any
# report byte, within a run or across versions, shows here
REPORT_SHA256 = {
    "E1": "0de071a82da17ad36856d680acf2e1dd23c5cc53d92305084bad51e6249fbba6",
    "E2": "9571bfa5043562fd9009427d4d110efe6dd6ca25cfc3778c81ae8798ce461013",
    "E3": "cf32a31a00a6cd237c54482c1bbfb95f617f40fbf278b7fcec570345305dbf8b",
    "E4": "8fc6e13318101549f31c1623b065056ccd1a370ae74a830e5431beb306f403e7",
    "E5": "d5b18428403a74b7930340be0f52248d5914b3768a7ff6dad2db69564950a7ff",
    "E6": "452e971eeb1d5e34e082c3885a906dfcc6c400bb9793d7d71efbdf14bf1157a7",
    "E7": "74773d5504ed36f7f4ba917d64f1274dbb02c95a332ac42ab9be57dfdfebcea0",
    "E8": "2098e413ff7ad597781530009c41d9c580bb504c786c8af7d463632bddf1167a",
    "E9": "fd21d2f9fb866d372dcc58d893a99d6a1c051e5382e9a53ad31c04341b523462",
    "E10": "db750007c2d2e179f90dc92c60de451eabcb3d8b04f3aee93a0604d70da1c276",
}


@pytest.fixture(scope="session")
def gate():
    results = {}

    def run(cid):
        if cid not in results:
            results[cid] = acceptance.RUNNERS[cid](SEED)
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


def test_e5_functional_equation_residual(gate):
    res = _check(gate("E5"))
    assert res.details["sweep"]["max_residual"] <= res.details["calibrated_max"] * (1 + 1e-12)
    assert res.details["sweep"]["decade_slope"] <= 0.05
    assert res.runtime_s < 300.0


def test_e6_growth_statistics(gate):
    res = _check(gate("E6"))
    assert res.details["strictly_decreasing"]
    assert res.details["a0_peak_at_1e4"] >= 0.5
    assert all(v == 1.0 for v in res.details["control_sup_linear"])
    assert res.runtime_s < 120.0


def test_e7_product_approximation(gate):
    res = _check(gate("E7"))
    assert res.details["sweep_within_slack"]
    assert all(c["ok"] for c in res.details["raw_checks"])
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


def test_e10_deterministic_reports(gate):
    first_pass = {cid: gate(cid).report_bytes for cid in acceptance.SEEDED}
    res = _check(acceptance.run_e10(SEED, first_pass))
    assert res.details["mismatches"] == []
    assert hashlib.sha256(res.report_bytes).hexdigest() == REPORT_SHA256["E10"]


@pytest.mark.parametrize("cid", [f"E{i}" for i in range(1, 10)])
def test_gate_report_bytes_pinned(gate, cid):
    assert hashlib.sha256(gate(cid).report_bytes).hexdigest() == REPORT_SHA256[cid]
