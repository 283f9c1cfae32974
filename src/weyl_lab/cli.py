"""Command-line front end.

Every run is a pure function of (argv, seed): reports are emitted with
sorted keys and fixed 17-significant-digit float formatting, so identical
invocations produce identical bytes.

Exit codes: 0 success, 2 usage/precondition error, 3 experiment reported
an unusable level.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
    UnusableLevelError,
    box_experiment,
    density_probe,
    growth_report,
    resume_witness,
    select_qn,
)
from .renorm import renorm_chain
from .reporting import emit_report, render_json  # noqa: F401  (kept as weyl_lab.cli.render_json)
from .weylsum import parseval_estimate, trajectory, weyl_sum


def parse_theta(text: str) -> tuple[Angle, ContinuedFraction | None]:
    """Accept 'golden', 'construct:eps,levels', a cf string 'a1,a2,...',
    a fraction 'p/q', or a decimal string."""
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
    # a bare integer is a single partial quotient
    cf = ContinuedFraction((int(text),))
    return angle_from_cf(cf), cf


def parse_angle(text: str) -> Angle:
    if len(text) == 64 and all(c in "0123456789abcdef" for c in text):
        return Angle.from_hex(text)
    ang, _ = parse_theta(text)
    return ang


DEPTH_HELP = (
    "quotients of theta's expansion (default 20); only for a theta given "
    "without its own continued fraction"
)


def _write_or_print(args, report) -> None:
    if args.format == "csv" and not hasattr(report, "csv_rows"):
        raise ValueError(f"{args.command} has no CSV form; use --format json")
    payload = emit_report(report, args.out, args.format)
    if not args.out:
        sys.stdout.write(payload.decode())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument(
        "--config",
        default=None,
        help="JSON file of flag defaults; explicit flags win",
    )


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag is an error, not that flag
    ap = argparse.ArgumentParser(
        prog="weyl-lab",
        allow_abbrev=False,
        description="Quadratic Weyl sums, continued fractions, and skew-product experiments",
    )
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("cf", help="continued fraction expansion and convergents")
    p.add_argument("--theta", required=True)
    p.add_argument("--depth", type=int, default=20)
    _add_common(p)

    p = sub.add_parser("construct", help="build a class-F member and certificate")
    p.add_argument("--eps", type=float, default=0.5)
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
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=7)
    _add_common(p)

    p = sub.add_parser("renorm", help="renormalization chain with residuals")
    p.add_argument("--theta", required=True)
    p.add_argument("--x", default="0.0")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("schedule", help="retained denominator levels")
    p.add_argument("--theta", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=None, help=DEPTH_HELP)
    _add_common(p)

    p = sub.add_parser("resume", help="essential-value witness at one level")
    p.add_argument("--theta", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--candidates", type=int, default=256)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--depth", type=int, default=None, help=DEPTH_HELP)
    _add_common(p)

    p = sub.add_parser("box", help="box experiment for a witness")
    p.add_argument("--theta", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--candidates", type=int, default=256)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--j-lo", type=float, default=0.25)
    p.add_argument("--j-hi", type=float, default=0.75)
    p.add_argument("--depth", type=int, default=None, help=DEPTH_HELP)
    _add_common(p)

    p = sub.add_parser("density", help="disk coverage of partial sums")
    p.add_argument("--theta", required=True)
    p.add_argument("--x", default="0.0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--cell", type=float, default=0.25)
    _add_common(p)

    p = sub.add_parser("growth", help="growth statistics over an n-schedule")
    p.add_argument("--theta", required=True)
    p.add_argument("--schedule", default="100,1000,10000")
    p.add_argument("--grid", type=int, default=512)
    _add_common(p)

    p = sub.add_parser("verify-all", help="run the acceptance gates")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--config", default=None)

    return ap


def _theta_with_cf(args):
    """theta and its continued fraction: the one theta carries, or the
    expansion to --depth quotients (default 20) of one that carries none."""
    theta, cf = parse_theta(args.theta)
    if cf is None:
        return theta, cf_expand(theta, 20 if args.depth is None else args.depth)
    if args.depth is not None:
        raise ValueError(f"--depth does not apply: theta {args.theta!r} gives its own quotients")
    return theta, cf


def _config_tokens(args) -> list[str]:
    """The --config entries as '--key=value' flag tokens.

    Keys must name an option of the subcommand exactly; argparse then
    checks each value with that option's own type and choices.
    """
    with open(args.config, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError("--config must hold a JSON object of flag defaults")
    tokens = []
    for key, value in entries.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in vars(args):
            raise ValueError(f"{args.command} has no option {key!r} (from --config)")
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise ValueError(f"--config value for {key!r} must be a number or a string")
        tokens.append(f"--{dest.replace('_', '-')}={value}")
    return tokens


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = ap.parse_args(argv)
        if getattr(args, "config", None):
            # config entries go in right after the subcommand, so explicit
            # flags, which come later, win
            at = argv.index(args.command) + 1
            args = ap.parse_args([*argv[:at], *_config_tokens(args), *argv[at:]])
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "cf":
            theta, _ = parse_theta(args.theta)
            cf = cf_expand(theta, args.depth)
            report = {
                "theta": theta,
                "quotients": cf.quotients,
                "convergents": [
                    {"l": c.index, "p": str(c.p), "q": str(c.q)}
                    for c in convergents(cf)
                ],
            }
            _write_or_print(args, report)
        elif args.command == "construct":
            seed_quotients = tuple(int(t) for t in args.seed_quotients.split(","))
            cf, cert = construct_f_member(args.eps, args.levels, seed_quotients)
            report = {
                "quotients": [str(a) for a in cf.quotients],
                "theta": angle_from_cf(cf),
                "cert": cert,
            }
            _write_or_print(args, report)
        elif args.command == "sum":
            theta, _ = parse_theta(args.theta)
            z = weyl_sum(theta, parse_angle(args.x), parse_angle(args.y), args.n)
            report = {"re": z.real, "im": z.imag, "modulus": abs(z), "n": args.n}
            _write_or_print(args, report)
            print(f"a = {z.real:.6f} + {z.imag:.6f}i  |a| = {abs(z):.6f}", file=sys.stderr)
        elif args.command == "traj":
            theta, _ = parse_theta(args.theta)
            tr = trajectory(theta, parse_angle(args.x), parse_angle(args.y), args.n, args.stride)
            _write_or_print(args, tr)
        elif args.command == "parseval":
            theta, _ = parse_theta(args.theta)
            est = parseval_estimate(theta, args.q, args.samples, args.seed)
            _write_or_print(args, est)
            print(
                f"mean |a|^2 = {est.mean:.4f} (q = {args.q}, se = {est.std_error:.4f})",
                file=sys.stderr,
            )
        elif args.command == "renorm":
            theta, _ = parse_theta(args.theta)
            chain = renorm_chain(theta, parse_angle(args.x), args.k, args.depth)
            _write_or_print(args, chain)
        elif args.command == "schedule":
            theta, cf = _theta_with_cf(args)
            sched = select_qn(cf, theta, args.eps, args.threshold)
            _write_or_print(args, sched)
        elif args.command == "resume":
            theta, cf = _theta_with_cf(args)
            witness = resume_witness(
                theta,
                cf,
                eps=args.eps,
                delta=args.delta,
                x_candidates=args.candidates,
                seed=args.seed,
                level=args.level,
            )
            _write_or_print(args, witness)
            print(
                f"level {witness.level}: q = {witness.q}, m = {witness.m_n}, "
                f"product = {witness.product_value:.4f}, eps_n = {witness.eps_n:.4f}",
                file=sys.stderr,
            )
        elif args.command == "box":
            theta, cf = _theta_with_cf(args)
            witness = resume_witness(
                theta,
                cf,
                eps=args.eps,
                delta=args.delta,
                x_candidates=args.candidates,
                seed=args.seed,
            )
            report = box_experiment(
                theta,
                witness,
                j_interval=(args.j_lo, args.j_hi),
                nu=args.nu,
                samples=args.samples,
                seed=args.seed,
            )
            _write_or_print(args, report)
            print(
                f"symdiff = {report.symdiff_ratio:.4f}, "
                f"modulus fraction = {report.modulus_fraction:.4f}",
                file=sys.stderr,
            )
        elif args.command == "density":
            theta, _ = parse_theta(args.theta)
            rep = density_probe(theta, parse_angle(args.x), args.n, args.radius, args.cell)
            _write_or_print(args, rep)
            print(f"covered fraction = {rep.covered_fraction:.4f}", file=sys.stderr)
        elif args.command == "growth":
            theta, _ = parse_theta(args.theta)
            schedule = [int(t) for t in args.schedule.split(",")]
            rep = growth_report(theta, schedule, args.grid)
            _write_or_print(args, rep)
        elif args.command == "verify-all":
            results = acceptance.run_all(seed=args.seed, out_dir=args.out_dir)
            failed = [r for r in results if not r.passed]
            for r in results:
                print(r.summary_line())
            return 1 if failed else 0
        return 0
    except UnusableLevelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
