import json

import pytest

from weyl_lab import cli
from weyl_lab.contfrac import ContinuedFraction, angle_from_cf
from weyl_lab.exactangle import GOLDEN, angle_from_rational
from weyl_lab.reporting import emit_report, render_csv, render_json
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


def test_render_json_float_17g():
    assert render_json({"v": 1 / 3}) == '{"v":0.33333333333333331}\n'


def test_emit_report_stable_bytes(tmp_path):
    tr = trajectory(GOLDEN, angle_from_rational(1, 8), angle_from_rational(0, 1), 50, 5)
    p1 = emit_report(tr, str(tmp_path / "a.json"), "json")
    p2 = emit_report(tr, str(tmp_path / "b.json"), "json")
    assert p1 == p2
    assert (tmp_path / "a.json").read_bytes() == p1


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


def test_cli_unknown_subcommand_exits_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["sum", "--bogus-flag", "1"]) == 2


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": 13, "samples": 1500, "seed": 9}')
    rc = cli.main(["parseval", "--theta", "golden", "--q", "5", "--config", str(cfg)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q"] == 5  # explicit flag wins
    assert data["samples"] == 1500  # config fills the rest
    assert data["seed"] == 9


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
    "config",
    [
        '{"sampels": 3}',  # unknown key
        '{"sam": 3}',  # abbreviation of --samples
        '{"samples": 1000.5}',  # --samples takes an int
        '{"format": "xml"}',  # outside --format's choices
        '{"seed": null}',
        '[["samples", 1500]]',  # not an object
    ],
)
def test_cli_config_rejects_bad_entries(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = ["parseval", "--theta", "golden", "--q", "5", "--samples", "20", "--config", str(cfg)]
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
    config = tmp_path / "c.json"
    config.write_text('{"depth": 20}')
    assert cli.main([command, "--theta", theta, "--config", str(config)]) == 2


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
