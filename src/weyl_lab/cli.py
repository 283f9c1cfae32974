"""Command-line front end.

Every run is a pure function of (argv, seed) and of any flag file that
argv names as @file (one flag per line, read by argparse in place):
reports are emitted with sorted keys and fixed 17-significant-digit float
formatting, so identical invocations produce identical bytes.

Exit codes: 0 success, 2 usage/precondition error, 3 experiment reported
an unusable level.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .contfrac import (
    ContinuedFraction,
    angle_from_cf,
    cf_expand,
    construct_f_member,
    convergents,
)
from .exactangle import GOLDEN, Angle, angle_from_decimal, angle_from_rational
from .experiments import (
    DEFAULT_CANDIDATES,
    DEFAULT_CELL,
    DEFAULT_DELTA,
    DEFAULT_EPS,
    DEFAULT_GRID,
    DEFAULT_J_INTERVAL,
    DEFAULT_NU,
    DEFAULT_RADIUS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_THRESHOLD,
    UnusableLevelError,
    box_experiment,
    check_box_args,
    density_probe,
    growth_report,
    resume_witness,
    select_qn,
)
from .renorm import renorm_chain
from .reporting import render_csv, render_json
from .weylsum import parseval_estimate, trajectory, weyl_sum


THETA_FORMS = (
    "golden, a fraction p/q, a decimal d.ddd, quotients a1,a2,..., "
    "construct:eps,levels, or an integer a >= 1 meaning 1/a"
)
ANGLE_FORMS = f"a 64-digit hex numerator, {THETA_FORMS}"


def parse_theta(text: str) -> tuple[Angle, ContinuedFraction | None]:
    """An angle in one of THETA_FORMS, with the continued fraction it
    carries (None for golden, p/q and decimals)."""
    if text == "golden":
        return GOLDEN, None
    if text.startswith("construct:"):
        eps_str, levels_str = text[len("construct:") :].split(",")
        cf, _ = construct_f_member(float(eps_str), int(levels_str))
        return angle_from_cf(cf), cf
    if "," in text:
        cf = ContinuedFraction.parse(text)
        return angle_from_cf(cf), cf
    if "/" in text:
        p_str, q_str = text.split("/")
        return angle_from_rational(int(p_str), int(q_str)), None
    if "." in text:
        return angle_from_decimal(text), None
    # a bare integer a is the one-quotient continued fraction of 1/a
    cf = ContinuedFraction((int(text),))
    return angle_from_cf(cf), cf


def parse_angle(text: str) -> Angle:
    """An angle in one of ANGLE_FORMS."""
    if len(text) == 64 and all(c in "0123456789abcdef" for c in text):
        return Angle.from_hex(text)
    ang, _ = parse_theta(text)
    return ang


DEFAULT_DEPTH = 20  # quotients of an expansion the user does not size
DEPTH_HELP = (
    f"quotients of theta's expansion (default {DEFAULT_DEPTH}); only for a theta "
    "given without its own continued fraction"
)


def _write_or_print(args, report) -> None:
    if args.format == "csv" and not hasattr(report, "csv_rows"):
        raise ValueError(f"{args.command} has no CSV form; use --format json")
    text = render_csv(report) if args.format == "csv" else render_json(report)
    if args.out:
        Path(args.out).write_bytes(text.encode())
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", default="json", choices=["json", "csv"])


def _add_witness(p: argparse.ArgumentParser) -> None:
    # the witness search that resume reports and box starts from
    p.add_argument("--theta", required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--depth", type=int, default=None, help=DEPTH_HELP)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag is an error, not that flag;
    # an @file argument is replaced in place by the file's lines, one flag
    # each, before any subparser runs, so flags written after it win
    ap = argparse.ArgumentParser(
        prog="weyl-lab",
        allow_abbrev=False,
        fromfile_prefix_chars="@",
        description="Quadratic Weyl sums, continued fractions, and skew-product experiments",
    )
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("cf", help="continued fraction expansion and convergents")
    p.add_argument("--theta", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    _add_common(p)

    p = sub.add_parser("construct", help="build a class-F member and certificate")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--seed-quotients", default="2")
    _add_common(p)

    p = sub.add_parser("sum", help="evaluate a(x, y, n)")
    p.add_argument("--theta", required=True)
    p.add_argument("--x", default="0.0")
    p.add_argument("--y", default="0.0")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("traj", help="partial-sum trajectory")
    p.add_argument("--theta", required=True)
    p.add_argument("--x", default="0.0")
    p.add_argument("--y", default="0.0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("parseval", help="Monte Carlo mean of |a(x,q)|^2")
    p.add_argument("--theta", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(p)

    p = sub.add_parser("renorm", help="renormalization chain with residuals")
    p.add_argument("--theta", required=True)
    p.add_argument("--x", default="0.0")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("schedule", help="retained denominator levels")
    p.add_argument("--theta", required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--depth", type=int, default=None, help=DEPTH_HELP)
    _add_common(p)

    p = sub.add_parser("resume", help="essential-value witness at one level")
    _add_witness(p)
    p.add_argument("--level", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("box", help="box experiment for a witness")
    _add_witness(p)
    p.add_argument("--nu", type=float, default=DEFAULT_NU)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--j-lo", type=float, default=DEFAULT_J_INTERVAL[0])
    p.add_argument("--j-hi", type=float, default=DEFAULT_J_INTERVAL[1])
    _add_common(p)

    p = sub.add_parser("density", help="disk coverage of partial sums")
    p.add_argument("--theta", required=True)
    p.add_argument("--x", default="0.0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    p.add_argument("--cell", type=float, default=DEFAULT_CELL)
    _add_common(p)

    p = sub.add_parser("growth", help="growth statistics over an n-schedule")
    p.add_argument("--theta", required=True)
    p.add_argument(
        "--schedule",
        default="100,1000,10000",
        help="comma-separated n; the sups over the x-grid hold about 115 bytes "
        "per term of the longest n at the peak (1.2 GB at n = 10^7)",
    )
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _add_common(p)

    p = sub.add_parser("verify-all", help="run the acceptance gates")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default=None)

    return ap


def _parsed(args, flag: str, parse, forms: str):
    """parse(the text of flag), with a text it cannot read reported
    against the flag and the forms the flag takes."""
    text = getattr(args, flag[2:].replace("-", "_"))
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}; {flag} takes {forms}") from None


def _report(args):
    """The report of one report subcommand and its stderr summary line
    (None for a subcommand that prints none)."""
    cmd = args.command
    if cmd == "construct":
        seed = _parsed(args, "--seed-quotients", ContinuedFraction.parse, "quotients a1,a2,...")
        cf, cert = construct_f_member(args.eps, args.levels, seed.quotients)
        quotients = [str(a) for a in cf.quotients]
        return {"quotients": quotients, "theta": angle_from_cf(cf), "cert": cert}, None
    theta, cf = _parsed(args, "--theta", parse_theta, THETA_FORMS)
    if cmd in ("sum", "traj", "renorm", "density"):
        x = _parsed(args, "--x", parse_angle, ANGLE_FORMS)
    if cmd in ("sum", "traj"):
        y = _parsed(args, "--y", parse_angle, ANGLE_FORMS)
    if cmd == "cf":
        cf = cf_expand(theta, args.depth)
        convs = [{"l": c.index, "p": str(c.p), "q": str(c.q)} for c in convergents(cf)]
        return {"theta": theta, "quotients": cf.quotients, "convergents": convs}, None
    if cmd == "sum":
        z = weyl_sum(theta, x, y, args.n)
        rep = {"re": z.real, "im": z.imag, "modulus": float(np.abs(z)), "n": args.n}
        return rep, f"a = {z.real:.6f} + {z.imag:.6f}i  |a| = {rep['modulus']:.6f}"
    if cmd == "traj":
        return trajectory(theta, x, y, args.n, args.stride), None
    if cmd == "parseval":
        est = parseval_estimate(theta, args.q, args.samples, args.seed)
        return est, f"mean |a|^2 = {est.mean:.4f} (q = {args.q}, se = {est.std_error:.4f})"
    if cmd == "renorm":
        return renorm_chain(theta, x, args.k, args.depth), None
    if cmd == "density":
        rep = density_probe(theta, x, args.n, args.radius, args.cell)
        return rep, f"covered fraction = {rep.covered_fraction:.4f}"
    if cmd == "growth":
        ns = _parsed(args, "--schedule", lambda t: [int(n) for n in t.split(",")], "n1,n2,...")
        return growth_report(theta, ns, args.grid), None
    # schedule, resume and box: theta's own quotients, or the expansion to
    # --depth (default DEFAULT_DEPTH) of a theta that carries none
    if cf is None:
        cf = cf_expand(theta, DEFAULT_DEPTH if args.depth is None else args.depth)
    elif args.depth is not None:
        raise ValueError(f"--depth does not apply: theta {args.theta!r} gives its own quotients")
    if cmd == "schedule":
        return select_qn(cf, theta, args.eps, args.threshold), None
    if cmd == "box":
        check_box_args((args.j_lo, args.j_hi), args.nu, args.samples)
    witness = resume_witness(
        theta, cf, eps=args.eps, delta=args.delta, x_candidates=args.candidates,
        seed=args.seed, level=vars(args).get("level"),
    )
    if cmd == "resume":
        return witness, (
            f"level {witness.level}: q = {witness.q}, m = {witness.m_n}, "
            f"product = {witness.product_value:.4f}, eps_n = {witness.eps_n:.4f}"
        )
    box = box_experiment(theta, witness, (args.j_lo, args.j_hi), args.nu, args.samples, args.seed)
    return box, f"symdiff = {box.symdiff_ratio:.4f}, modulus fraction = {box.modulus_fraction:.4f}"


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify-all":
            results = acceptance.run_all(seed=args.seed, out_dir=args.out_dir)
            for r in results:
                print(r.summary_line())
            return 0 if all(r.passed for r in results) else 1
        report, summary = _report(args)
        _write_or_print(args, report)
        if summary is not None:
            print(summary, file=sys.stderr)
        return 0
    except SystemExit as exc:  # argparse printed its help or a usage error
        return 2 if exc.code not in (0, None) else 0
    except UnusableLevelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
