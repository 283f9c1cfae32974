import inspect
import json
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CLI_GOLDEN

import weyl_lab
from weyl_lab import _engine, _rng, acceptance, cli, weylsum
from weyl_lab.contfrac import ContinuedFraction, angle_from_cf
from weyl_lab.exactangle import GOLDEN, angle_from_rational
from weyl_lab.experiments import (
    box_experiment,
    density_probe,
    growth_report,
    resume_witness,
    select_qn,
)
from weyl_lab.reporting import Table, render_csv, render_json
from weyl_lab.weylsum import trajectory


def test_parse_theta_variants():
    theta, cf = cli.parse_theta("golden")
    assert theta == GOLDEN and cf is None
    theta, cf = cli.parse_theta("2,8,4913")
    assert cf.quotients == (2, 8, 4913)
    assert theta == angle_from_cf(ContinuedFraction((2, 8, 4913)))
    theta, _ = cli.parse_theta("1/3")
    assert theta == angle_from_rational(1, 3)
    theta, _ = cli.parse_theta("0.25")
    assert theta.to_float() == 0.25
    theta, cf = cli.parse_theta("construct:0.5,3")
    assert cf.quotients == (2, 8, 4913)


def test_render_json_canonical():
    payload = render_json({"b": 1.0, "a": [1, 2.5, "x"], "c": {"y": True, "x": None}})
    assert payload == '{"a":[1,2.5,"x"],"b":1,"c":{"x":null,"y":true}}\n'
    # bools beside the ints they equal, a tuple, empty containers, a numpy
    # float and a key that needs escaping
    payload = render_json({"t": [True, 1, False, 0], "u": (1, [[], {}]), "v": np.float64(0.1), 'k"\n\u00e9': None})
    assert payload == '{"k\\"\\n\\u00e9":null,"t":[true,1,false,0],"u":[1,[[],{}]],"v":0.10000000000000001}\n'
    for bad in (np.int64(3), {1, 2}):
        with pytest.raises(TypeError):
            render_json({"v": [bad]})


def test_render_json_float_17g():
    assert render_json({"v": 1 / 3}) == '{"v":0.33333333333333331}\n'
    values = [-0.0, 1e-05, 1e16, 1e17, 5e-324, 2**60, -(2**70)]
    assert render_json(values) == (
        "[0,1.0000000000000001e-05,10000000000000000,1e+17,4.9406564584124654e-324,"
        "1152921504606846976,-1180591620717411303424]\n"
    )
    # non-finite floats are refused in both formats
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            render_json({"v": [bad]})
        with pytest.raises(ValueError):
            render_csv(SimpleNamespace(csv_rows=lambda: [[1, bad]]))


# plain report data; -0.0 is written as 0, which json reads back as the
# int 0, whose text is 0 again (test_render_json_float_17g pins it)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(st.dictionaries(st.text(), _PLAIN))
def test_render_json_reads_back_as_its_value(value):
    text = render_json(value)
    assert json.loads(text) == json.loads(json.dumps(value))  # tuples as lists
    assert render_json(json.loads(text)) == text


_TABLE_INTS = st.integers() | st.sampled_from([0, 2**63, -(2**63), 2**70, -(2**70)])
_TABLE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-05, 1e16, 1e17, 1.7976931348623157e308]
)


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from([_TABLE_INTS, _TABLE_FLOATS]), min_size=1, max_size=4))
    rows = draw(st.integers(0, 50))
    return [draw(st.lists(kind, min_size=rows, max_size=rows)) for kind in kinds]


def _csv_of(rows):
    return render_csv(SimpleNamespace(csv_rows=lambda: [("a", "b"), *rows]))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(_tables())
def test_table_writes_its_rows_as_the_per_value_writer(columns):
    # one row format per table gives the text of the rows written as lists,
    # value by value, in both formats
    rows = [list(row) for row in zip(*columns)]
    assert render_json({"t": Table(*columns)}) == render_json({"t": rows})
    assert _csv_of([Table(*columns)]) == _csv_of(rows)


def test_table_refuses_non_finite_floats_and_other_kinds():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            render_json(Table([1, 2], [0.5, bad]))
        with pytest.raises(ValueError):
            _csv_of([Table([1, 2], [0.5, bad])])
    # never written as 1/0 or cut by %d
    for bad in ([True, False], [np.int64(1), np.int64(2)], [1, 2.5], [np.float64(0.5), 0.5]):
        with pytest.raises(TypeError):
            render_json(Table([1, 2], bad))
        with pytest.raises(TypeError):
            _csv_of([Table([1, 2], bad)])
    with pytest.raises(ValueError):
        render_json(Table([1, 2], [0.5]))  # columns of unequal length


def test_cli_out_file_equals_stdout(tmp_path, capsys):
    # --out writes exactly the bytes the same run prints, in both formats
    argv = ["traj", "--theta", "golden", "--x", "1/8", "--n", "50", "--stride", "5"]
    for fmt in ("json", "csv"):
        assert cli.main([*argv, "--format", fmt]) == 0
        printed = capsys.readouterr().out.encode()
        out = tmp_path / f"t.{fmt}"
        assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed
        assert printed.startswith(b"{" if fmt == "json" else b"n,re,im\n")


def test_trajectory_csv_header(tmp_path):
    tr = trajectory(GOLDEN, angle_from_rational(1, 8), angle_from_rational(0, 1), 20, 1)
    text = render_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "n,re,im"
    assert lines[1].startswith("0,0,0")
    assert len(lines) == 22  # header + z_0..z_20


def test_cert_json_roundtrip(capsys):
    rc = cli.main(["construct", "--eps", "0.5", "--levels", "3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["quotients"] == ["2", "8", "4913"]
    assert data["cert"]["depth"] == 3
    assert data["cert"]["min_witness"] == pytest.approx(0.2425, abs=5e-4)


def test_cli_sum_runs(capsys):
    rc = cli.main(["sum", "--theta", "golden", "--x", "0.0", "--n", "100"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 100
    assert data["modulus"] > 0


# the stderr summary each golden argv prints; "" where a subcommand has none
CLI_SUMMARY = {
    "cf": "",
    "construct": "",
    "sum": "a = 16.725924 + 21.128004i  |a| = 26.947153\n",
    "traj": "",
    "traj-row": "",
    "traj-past-row": "",
    "parseval": "mean |a|^2 = 16.9893 (q = 17, se = 0.1393)\n",
    "renorm": "",
    "schedule": "",
    "resume": "level 2: q = 17, m = 2, product = 0.4563, eps_n = 0.2880\n",
    "box": "symdiff = 0.1200, modulus fraction = 0.4180\n",
    "density": "covered fraction = 0.0769\n",
    "growth": "",
}


@pytest.mark.parametrize("name", list(CLI_GOLDEN))
def test_cli_golden_summary_line(capsys, name):
    argv, _ = CLI_GOLDEN[name]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == CLI_SUMMARY[name]


def test_cli_unknown_subcommand_exits_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["sum", "--bogus-flag", "1"]) == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(weyl_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "weyl_lab", *argv], env=env, capture_output=True, timeout=120
        )

    argv, digests = CLI_GOLDEN["cf"]
    proc = run(*argv)
    assert proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digests["json"]
    assert run("sum", "--bogus-flag", "1").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--seed", "3", "--levels", "2"],  # prefix of --seed-quotients
        ["parseval", "--theta", "golden", "--q", "13", "--sam", "30"],  # of --samples
    ],
    ids=["construct", "parseval"],
)
def test_cli_abbreviated_flag_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["parseval", "--theta", "golden", "--samples", "10", "--q"],
        ["density", "--theta", "golden", "--n"],
    ],
    ids=["parseval", "density"],
)
def test_cli_negative_sum_length_exits_2(capsys, argv):
    assert cli.main([*argv, "-4"]) == 2
    assert capsys.readouterr().out == ""
    # the empty sum is valid
    assert cli.main([*argv, "0"]) == 0


# a cf whose level q = 17 is the whole schedule, so resume and box stay cheap
_WITNESS = ["--theta", "2,8,200000", "--eps", "1", "--delta", "0.5", "--seed", "7"]


@pytest.mark.parametrize(
    "argv",
    [
        ["resume", *_WITNESS, "--candidates", "-5"],
        ["resume", *_WITNESS, "--candidates", "0"],
        ["box", *_WITNESS, "--candidates", "512", "--samples", "100", "--nu", "-1"],
    ],
    ids=["resume-negative", "resume-zero", "box-negative-nu"],
)
def test_cli_out_of_range_count_or_tolerance_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, key",
    [(["--nu", "-0.0"], "nu"), (["--j-lo", "-0.0", "--j-hi", "0.5"], "j_lo")],
    ids=["nu", "j-lo"],
)
def test_cli_box_writes_negative_zero_as_0(tmp_path, capsys, flags, key):
    out = tmp_path / "box.json"
    argv = ["box", *_WITNESS, "--candidates", "512", "--samples", "200", *flags, "--out", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert f'"{key}":0,' in text
    # json reads the report back as values that render to its own bytes
    assert render_json(json.loads(text)) == text


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--theta", "golden", "--eps", "-2"],
        ["schedule", *_WITNESS[:2], "--eps", "0"],
        ["schedule", *_WITNESS[:2], "--eps", "nan"],
        ["resume", "--theta", "construct:0.5,3", "--delta", "-1"],
        ["resume", *_WITNESS, "--delta", "0"],
        ["box", *_WITNESS, "--eps", "-1"],
        ["box", *_WITNESS, "--delta", "-0.5"],
    ],
    ids=[
        "schedule-negative-eps",
        "schedule-zero-eps",
        "schedule-nan-eps",
        "resume-negative-delta",
        "resume-zero-delta",
        "box-negative-eps",
        "box-negative-delta",
    ],
)
def test_cli_eps_or_delta_not_positive_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be positive" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", *_WITNESS[:2], "--threshold", "nan"],
        ["schedule", *_WITNESS[:2], "--threshold", "-1"],
        ["schedule", *_WITNESS[:2], "--eps", "inf"],
        ["resume", *_WITNESS, "--eps", "inf"],
        ["resume", *_WITNESS, "--delta", "inf"],
        # sums too long for memory, refused before the coefficient row
        ["parseval", "--theta", "golden", "--q", "1000000000000"],
        ["growth", "--theta", "golden", "--schedule", "100,1000000000000"],
        ["sum", "--theta", "golden", "--n", "100000000000000000000"],
        # tables and draw counts too large for memory, refused before they
        # are allocated
        ["density", "--theta", "golden", "--n", "10", "--radius", "1e300", "--cell", "1e-300"],
        ["density", "--theta", "golden", "--n", "10", "--radius", "100000", "--cell", "1"],
        ["growth", "--theta", "golden", "--schedule", "10", "--grid", "100000000"],
        ["traj", "--theta", "golden", "--n", "3000000000", "--stride", "1"],
        # blocks past any row, each one sum whose own row would not fit
        ["traj", "--theta", "golden", "--n", "100000000000000000000",
         "--stride", "10000000000000000000"],
        ["parseval", "--theta", "golden", "--q", "10", "--samples", "1000000000000"],
        ["resume", *_WITNESS, "--candidates", "1000000000000"],
        ["box", *_WITNESS, "--samples", "1000000000000"],
    ],
    ids=[
        "schedule-nan-threshold",
        "schedule-negative-threshold",
        "schedule-inf-eps",
        "resume-inf-eps",
        "resume-inf-delta",
        "parseval-huge-q",
        "growth-huge-n",
        "sum-huge-n",
        "density-inf-table",
        "density-huge-table",
        "growth-huge-grid",
        "traj-huge-n",
        "traj-huge-stride",
        "parseval-huge-samples",
        "resume-huge-candidates",
        "box-huge-samples",
    ],
)
def test_cli_non_finite_or_out_of_range_float_exits_2(capsys, argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        # refused before the table, grid, row or draws
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class _Walked(Exception):
    pass


def test_cli_density_of_1e12_terms_is_admitted_and_walks_by_chunks(monkeypatch):
    # admitted, and the first walked block comes after one chunk of block
    # starts, with nothing allocated per block of the 10**12 terms
    pruned = _engine.near_partials

    def first_run(*args):
        for item in pruned(*args):
            yield item
            raise _Walked

    monkeypatch.setattr(_engine, "near_partials", first_run)
    tracemalloc.start()
    try:
        with pytest.raises(_Walked):
            cli.main(["density", "--theta", "golden", "--n", "1000000000000"])
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "bad",
    [
        ["--nu", "-1"],
        ["--nu", "nan"],
        ["--nu", "inf"],
        ["--samples", "0"],
        ["--j-lo", "0.9", "--j-hi", "0.1"],
        ["--j-lo", "0", "--j-hi", "1e-80"],
        ["--samples", "1000000000000"],
    ],
    ids=[
        "negative-nu",
        "nan-nu",
        "inf-nu",
        "zero-samples",
        "empty-interval",
        "sub-grid-interval",
        "huge-samples",
    ],
)
def test_cli_box_checks_its_arguments_before_the_search(monkeypatch, capsys, bad):
    def search(*args, **kwargs):
        raise AssertionError("resume_witness ran before box checked its arguments")

    monkeypatch.setattr(cli, "resume_witness", search)
    assert cli.main(["box", "--theta", "construct:0.5,3", *bad]) == 2
    assert capsys.readouterr().out == ""


_PHYSICAL = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.parametrize(
    "argv, module, name",
    [
        # 72 bytes per sample: the word draws' own 32 fit, parseval's peak of
        # 64 + 16 per q does not
        (["parseval", "--theta", "golden", "--q", "10", "--samples", str(_PHYSICAL // 72)],
         weylsum, "counter_words"),
        # 70 bytes per term: within the row and grid, past the evaluator's peak
        (["growth", "--theta", "golden", "--schedule", f"100,{_PHYSICAL // 70}"],
         _engine, "phase_chunks"),
        # 64 bytes per candidate: a 256-bit int's own 60 fit, the 68 that
        # counter_numerators charges with the int's list slot do not
        (["resume", *_WITNESS, "--candidates", str(_PHYSICAL // 64)],
         _rng, "_digests"),
    ],
    ids=["parseval-samples", "growth-n", "resume-candidates"],
)
def test_cli_refuses_sizes_past_the_measured_peak(monkeypatch, capsys, argv, module, name):
    def allocate(*args, **kwargs):
        raise AssertionError(f"{name} ran before the size check")

    monkeypatch.setattr(module, name, allocate)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--theta", "golden", "--n", "10", "--cell", "10"],
        ["density", "--theta", "golden", "--n", "10", "--radius", "inf"],
        ["construct", "--eps", "inf"],
        ["sum", "--theta", "construct:inf,3", "--n", "10"],
        ["construct", "--eps", "1e10"],
        ["schedule", "--theta", "golden", "--eps", "80"],
        ["resume", "--theta", "golden", "--eps", "80"],
        ["box", "--theta", "golden", "--eps", "80"],
        ["construct", "--eps", "400", "--levels", "3", "--seed-quotients", "2,3,5"],
    ],
    ids=[
        "no-cell-in-disk",
        "inf-radius",
        "inf-eps",
        "inf-eps-theta",
        "huge-eps",
        "overflow-eps-schedule",
        "overflow-eps-resume",
        "overflow-eps-box",
        "overflow-eps-construct",
    ],
)
def test_cli_uncoverable_disk_or_unbuildable_eps_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag, form",
    [
        (["sum", "--theta", "construct:0.5", "--n", "5"], "--theta", "construct:eps,levels"),
        (["sum", "--theta", "1/2/3", "--n", "5"], "--theta", "p/q"),
        (["sum", "--theta", "2,x", "--n", "5"], "--theta", "a1,a2,..."),
        (["sum", "--theta", "golden", "--x", "0", "--n", "10"], "--x", "1/a"),
        (["traj", "--theta", "golden", "--y", "0.x", "--n", "10"], "--y", "hex"),
        (["construct", "--seed-quotients", "2,x"], "--seed-quotients", "a1,a2,..."),
        (["growth", "--theta", "golden", "--schedule", "10,x"], "--schedule", "n1,n2,..."),
    ],
    ids=["construct-form", "fraction-form", "cf-form", "x-zero", "y-decimal", "seed", "schedule"],
)
def test_cli_unreadable_flag_value_names_flag_and_forms(capsys, argv, flag, form):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and captured.err.count("\n") == 1
    assert f"{flag} takes" in captured.err and form in captured.err


def _param_default(fn, name):
    return inspect.signature(fn).parameters[name].default


@pytest.mark.parametrize(
    "argv, dest, fn, name",
    [
        (["resume", "--theta", "golden"], "candidates", resume_witness, "x_candidates"),
        (["resume", "--theta", "golden"], "seed", resume_witness, "seed"),
        (["box", "--theta", "golden"], "seed", box_experiment, "seed"),
        (["verify-all"], "seed", acceptance.run_all, "seed"),
        (["schedule", "--theta", "golden"], "eps", select_qn, "eps"),
        (["schedule", "--theta", "golden"], "threshold", select_qn, "threshold"),
        # parseval_estimate and construct_f_member take no default; their
        # flags default to the seed and eps the other subcommands use
        (["parseval", "--theta", "golden", "--q", "3"], "seed", resume_witness, "seed"),
        (["construct"], "eps", select_qn, "eps"),
        (["growth", "--theta", "golden"], "grid", growth_report, "x_grid_size"),
        (["density", "--theta", "golden", "--n", "1"], "radius", density_probe, "radius"),
        (["density", "--theta", "golden", "--n", "1"], "cell", density_probe, "cell"),
    ],
)
def test_cli_defaults_are_the_library_defaults(argv, dest, fn, name):
    assert getattr(cli.build_parser().parse_args(argv), dest) == _param_default(fn, name)


def test_cli_box_interval_and_depth_defaults_have_one_home():
    args = cli.build_parser().parse_args(["box", "--theta", "golden"])
    assert (args.j_lo, args.j_hi) == _param_default(box_experiment, "j_interval")
    assert cli.build_parser().parse_args(["cf", "--theta", "golden"]).depth == cli.DEFAULT_DEPTH
    assert f"default {cli.DEFAULT_DEPTH})" in cli.DEPTH_HELP


def test_cli_unwritable_path_exits_2(tmp_path):
    rc = cli.main(
        ["sum", "--theta", "golden", "--n", "10", "--out", str(tmp_path / "nodir" / "x.json")]
    )
    assert rc == 2


def test_cli_unusable_level_exits_3():
    # golden has an empty schedule, so resume reports exit code 3
    rc = cli.main(["resume", "--theta", "golden", "--depth", "30"])
    assert rc == 3


def test_cli_byte_reproducibility(tmp_path, capsys):
    args = ["parseval", "--theta", "golden", "--q", "13", "--samples", "2000", "--seed", "9"]
    rc = cli.main(args + ["--out", str(tmp_path / "r1.json")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "r2.json")])
    assert rc == 0 and rc2 == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_cli_renorm_chain(capsys):
    rc = cli.main(["renorm", "--theta", "golden", "--x", "0.42", "--k", "5000", "--depth", "3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["experiment"] == "renorm_chain"
    assert data["depth"] == 3
    assert len(data["residuals"]) == 4


def test_cli_traj_stride_past_the_row_runs_by_block_sums(monkeypatch, capsys):
    # two blocks of 5e8 terms, each summed by qsum_blocks, and no stream
    calls = []
    qsum_blocks = _engine.qsum_blocks

    def counted(a, b, c, n):
        calls.append(n)
        return qsum_blocks(a, b, c, n)

    def stream(*args):
        raise AssertionError("the trajectory ran the direct stream")

    monkeypatch.setattr(_engine, "qsum_blocks", counted)
    monkeypatch.setattr(_engine, "qsum_partials", stream)
    start = time.perf_counter()
    argv = ["traj", "--theta", "golden", "--n", "1000000000", "--stride", "500000000"]
    assert cli.main(argv) == 0
    # about 0.05 s; the 1e9-term stream would take tens of seconds
    assert time.perf_counter() - start < 10.0
    assert calls == [500_000_000, 500_000_000]
    points = json.loads(capsys.readouterr().out)["points"]
    assert [n for n, _, _ in points] == [0, 500_000_000, 1_000_000_000]


def test_cli_traj_csv_file(tmp_path):
    rc = cli.main(
        ["traj", "--theta", "golden", "--n", "30", "--stride", "3",
         "--format", "csv", "--out", str(tmp_path / "t.csv")]
    )
    assert rc == 0
    lines = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert lines[0] == "n,re,im"
    assert lines[1].split(",")[0] == "0"


def test_cli_config_merges_under_flags(tmp_path, capsys):
    # an @file holds one flag per line, read in place: flags after it win
    cfg = tmp_path / "flags"
    cfg.write_text("--q=13\n--samples=1500\n--seed=9\n")
    rc = cli.main(["parseval", f"@{cfg}", "--theta", "golden", "--q", "5"])
    assert rc == 0
    from_file = capsys.readouterr()
    data = json.loads(from_file.out)
    assert data["q"] == 5  # explicit flag wins
    assert data["samples"] == 1500  # the file fills the rest
    assert data["seed"] == 9
    argv = ["parseval", "--theta", "golden", "--q", "5", "--samples", "1500", "--seed", "9"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == from_file


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "--theta", "golden"],
        ["construct", "--levels", "3"],
        ["sum", "--theta", "golden", "--n", "10"],
    ],
    ids=["cf", "construct", "sum"],
)
def test_cli_no_csv_form_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} has no CSV form" in captured.err
    assert cli.main([*argv, "--format", "csv", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "--sampels=3",  # unknown flag
        "--sam=3",  # abbreviation of --samples
        "--samples=1000.5",  # --samples takes an int
        "--format=xml",  # outside --format's choices
        "--seed=",  # empty value
        "--config=other.json",  # no such option
        None,  # no such file
    ],
    ids=["unknown", "abbreviation", "non-int", "outside-choices", "empty-value", "config", "missing-file"],
)
def test_cli_config_rejects_bad_entries(tmp_path, capsys, line):
    cfg = tmp_path / "flags"
    if line is not None:
        cfg.write_text(line + "\n")
    argv = ["parseval", f"@{cfg}", "--theta", "golden", "--q", "5", "--samples", "20"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_cli_schedule_and_density(tmp_path, capsys):
    rc = cli.main(["schedule", "--theta", "construct:0.5,4"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert [lvl["q"] for lvl in data["levels"]] == ["17", "83523"]

    rc = cli.main(
        ["density", "--theta", "golden", "--x", "0.3", "--n", "5000", "--out", str(tmp_path / "d.json")]
    )
    assert rc == 0
    data = json.loads((tmp_path / "d.json").read_text())
    assert 0.0 < data["covered_fraction"] <= 1.0


@pytest.mark.parametrize("theta", ["2,8,200000,3,5", "construct:0.5,2", "7"])
@pytest.mark.parametrize("command", ["schedule", "resume", "box"])
def test_cli_depth_with_own_quotients_exits_2(tmp_path, capsys, command, theta):
    # such a theta is its own continued fraction, which --depth cannot change
    assert cli.main([command, "--theta", theta, "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--depth" in captured.err
    flags = tmp_path / "flags"
    flags.write_text("--depth=20\n")
    assert cli.main([command, f"@{flags}", "--theta", theta]) == 2


def test_cli_depth_sets_expansion_of_plain_theta(capsys):
    # the fraction of the cf 2,8,200000,3,5 carries no quotients: one is too
    # few for a schedule, two reach q = 17, and the default is 20
    argv = ["schedule", "--theta", "25600056/54400117"]
    assert cli.main([*argv, "--depth", "1"]) == 3
    capsys.readouterr()
    assert cli.main([*argv, "--depth", "2"]) == 0
    two = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert json.loads(two)["levels"] == json.loads(capsys.readouterr().out)["levels"]
