"""Golden report bytes.

SHA-256 digests of the canonical output of every CLI subcommand at small
sizes (seed 7), and of the reports that no subcommand emits.  Any change
to a report's bytes, however small, shows up here; a refactor of the
serializers must leave every digest as it is.
"""

import hashlib

import pytest

from weyl_lab import cli
from weyl_lab.contfrac import angle_from_cf, construct_f_member
from weyl_lab.renorm import b_level_measure, u_measure_lower
from weyl_lab.reporting import render_json

# a cf whose level q = 17 is the whole schedule, so resume and box stay cheap
_WITNESS = ["--theta", "2,8,200000", "--eps", "1", "--delta", "0.5", "--candidates", "512", "--seed", "7"]

# case -> (argv, {format: sha256 of the output bytes})
CLI_GOLDEN = {
    "cf": (
        ["cf", "--theta", "golden", "--depth", "10"],
        {"json": "50105bef5177f1e1a087bc01b9763da15acc1fae4589c59cc636c1db6bbcac4b"},
    ),
    "construct": (
        ["construct", "--eps", "0.5", "--levels", "3"],
        {"json": "34a30ca3dcbf774ea317c931f131f6b6f348c48a4729cffe74ecf16491c5e557"},
    ),
    "sum": (
        ["sum", "--theta", "golden", "--x", "0.25", "--n", "1000"],
        {"json": "8a5b0b0d35c372b3bb86b9f26d70b7db22ce454fc9ec332192413f47cf7bd889"},
    ),
    "traj": (
        ["traj", "--theta", "golden", "--x", "0.25", "--n", "200", "--stride", "7"],
        {
            "json": "ebfb8991d5b34c03535ee4cab246879dcae6a45cab78b72ecbaa5934c9e201f0",
            "csv": "c8b47787b4d6dad1b4b00fd71aafae60ac5f075cf869298e70cf123656a4033c",
        },
    ),
    # the block routes, each with a tail: on one row of stride coefficients,
    # and past the row (strides over 2 floor(sqrt(n)), each block its own sum)
    "traj-row": (
        ["traj", "--theta", "construct:0.5,4", "--x", "0.3", "--n", "1000013", "--stride", "1000"],
        {
            "json": "ea6fb5cba55ce6457498d7adcecdbbc584b53b1dfc0a57d817a6b4bd0bff2495",
            "csv": "986bf7e674db36a52defbd53f79d9a7131cd715f322318915c98d3f5883d0298",
        },
    ),
    "traj-past-row": (
        ["traj", "--theta", "golden", "--x", "0.3", "--n", "300007", "--stride", "3000"],
        {
            "json": "3d83e6eee4d2e83c1af01aaee700da6061748ed3aa9cd1577527c84f789e5db6",
            "csv": "bce4d5c9a1056150379ea33d96d0dd5ca04d6d5f75d72f445e699bd2758abb4f",
        },
    ),
    "parseval": (
        ["parseval", "--theta", "construct:0.5,4", "--q", "17", "--samples", "2000", "--seed", "7"],
        {
            "json": "093364156f10057ff56d8c685046ed871114f003a0c70dc8faf830a65c8890d6",
            "csv": "2c2796be5c158fa958f918e353dfdbe63eed61e9cd08641248f5ea133b085d28",
        },
    ),
    "renorm": (
        ["renorm", "--theta", "0.3137", "--x", "0.42", "--k", "1000", "--depth", "3"],
        {
            "json": "0ca39a8adf10ffe798805241025bf9302ebec60c6de919b4547732c3984e671a",
            "csv": "4b8b022dd6880ddc19fbacc6fee43742077955d4a19d6a2b82bf9f9a465f341b",
        },
    ),
    "schedule": (
        ["schedule", "--theta", "construct:0.5,4"],
        {
            "json": "68f4365495aa919bad639ff8a956ff285c5dce317d7dd54e0eb02c24e0276717",
            "csv": "bfd11fa80c5af26e2abbef15b3a4f4c6e820c8eef4fc369522c1363479c930e4",
        },
    ),
    "resume": (
        ["resume", *_WITNESS],
        {
            "json": "d75540c661fac44d80f12f7c3194e291ba1023965d574393192c38630cfc16bd",
            "csv": "c96d9751bf38f424c3603f7891653e16608c86385489ce79bd415612f7bda4a2",
        },
    ),
    "box": (
        ["box", *_WITNESS, "--samples", "2000"],
        {
            "json": "35f8085b46aa0d0fc683c7cdf57c55a65db1d0ff84e2aaa1987de658297fffbc",
            "csv": "762be8be6c81c08a9baa01e85d6cf76beaf00250df9f570678467e927f5329f8",
        },
    ),
    "density": (
        ["density", "--theta", "golden", "--x", "0.3", "--n", "5000"],
        {
            "json": "717a3358ca3fb4cc54d812d13a4e1124a42b4388695bf41aceaeb842b7d19dd8",
            "csv": "dea96715caadda87cd39d529504648ad5fb8aedc747d45253d6438a8638f57d0",
        },
    ),
    "growth": (
        ["growth", "--theta", "golden", "--schedule", "10,100,1000", "--grid", "16"],
        {
            "json": "180d6988f9a101a2288ad40ff5c3e6a083f532232d01ac7da4aa1e196fa9ab30",
            "csv": "3fa2df4c9d1723aee80d449e4b78e35782f0105cfb572a482c10f3a847a618d8",
        },
    ),
}

CLI_CASES = [
    (name, fmt, argv, digest)
    for name, (argv, digests) in CLI_GOLDEN.items()
    for fmt, digest in digests.items()
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [(argv, fmt, digest) for _, fmt, argv, digest in CLI_CASES],
    ids=[f"{name}-{fmt}" for name, fmt, _, _ in CLI_CASES],
)
def test_cli_golden_bytes(tmp_path, argv, fmt, digest):
    out = tmp_path / f"report.{fmt}"
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == digest


def _library_reports():
    theta = angle_from_cf(construct_f_member(0.5, 4)[0])
    return {
        "u_measure_lower": u_measure_lower(theta, 2, 0.1, 500, 7),
        "b_level_measure": b_level_measure(theta, 2, 1.0, 500, 7),
    }


LIBRARY_GOLDEN = {
    "u_measure_lower": "f2492d3f03535148058720a8bfede1114073ba87a3eb5d0cde70c4a2bd68fafb",
    "b_level_measure": "bd080a6b14267c85e7b2e7351043a94e995dcf210582966d9b4889f045bf1130",
}


def test_library_report_golden_bytes():
    digests = {name: _sha(render_json(rep).encode()) for name, rep in _library_reports().items()}
    assert digests == LIBRARY_GOLDEN
