"""Command-line front end.

All angles cross this boundary in degrees and are converted to radians
immediately; tables and traces go to stdout unless --out names a file.
Exit codes: 0 on success, 1 on bad usage or unwritable output, 2 when an
iteration or integration fails to converge.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .asymptotics import (
    fit_tail_rate,
    integrate_continuum,
    saturation_analysis,
    verify_saturation,
)
from .formats import (
    continuum_csv,
    emit_afga_txt,
    err_trace_csv,
    schedule_csv,
    search_csv,
)
from .qubit_sim import run_afga_qubit, run_grover_qubit
from .schedule import AfgaParams, ConvergenceError, build_schedule, dbar_gamma
from .search_sim import run_afga_search

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["main", "UsageError"]


_NEVER_MOVES = (
    "the first step is below half an ulp of the start angle, so the start never moves"
)


class UsageError(Exception):
    """Bad command line or unwritable output; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else repr(float(x))


def _gamma(args: argparse.Namespace) -> float:
    if not 0.0 <= args.gamma_degs < 180.0:
        raise UsageError(
            f"--gamma-degs must lie in [0, 180) degrees, got {args.gamma_degs:g}; at 180 "
            "the start state is antipodal to the target, where no step moves it"
        )
    return math.radians(args.gamma_degs)


def _del_lam(args: argparse.Namespace) -> float:
    degs = args.del_lam_degs
    if not 0.0 <= degs <= 180.0:
        raise UsageError(f"--del-lam-degs must lie in [0, 180] degrees, got {degs:g}")
    return math.radians(degs)


def _params(args: argparse.Namespace) -> AfgaParams:
    p = AfgaParams(_gamma(args), _del_lam(args), args.num_steps)
    frozen = p.gamma - dbar_gamma(p.gamma, p.gamma, p.del_lam) == p.gamma
    if frozen and 0.0 < p.gamma and 0.0 < p.del_lam < math.pi:
        raise UsageError(f"--gamma-degs {args.gamma_degs!r}: {_NEVER_MOVES}")
    return p


def _cmd_schedule(args: argparse.Namespace) -> int:
    params = _params(args)
    rows = build_schedule(params)
    if args.format == "csv":
        _write(args.out, schedule_csv(rows))
    else:
        _write(args.out, emit_afga_txt(rows, params))
    return 0


def _cmd_qubit(args: argparse.Namespace) -> int:
    _write(args.out, err_trace_csv(run_afga_qubit(_params(args))))
    return 0


def _cmd_grover(args: argparse.Namespace) -> int:
    _write(args.out, err_trace_csv(run_grover_qubit(_gamma(args), args.num_steps)))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    trace = run_afga_search(
        args.nb,
        target_index=args.target_index,
        del_lam=_del_lam(args),
        max_steps=args.max_steps,
        tol=args.tol,
    )
    if args.out is not None:
        _write(args.out, search_csv(trace))
    print(f"steps = {trace.steps}")
    print(f"success = {trace.final_success!r}")
    if not trace.converged:
        print(
            f"error: success stayed below 1 - {args.tol:g} "
            f"through {trace.steps} steps",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_saturation(args: argparse.Namespace) -> int:
    report = saturation_analysis(args.gamma_degs)
    dev = verify_saturation(args.gamma_degs, args.n_tail) if args.check_tail else None
    print(f"j_sat = {report.j_sat}")
    print(f"del_gamma(degs) = {_fraction_str(report.del_gamma_degs)}")
    print(f"gamma_jsat(degs) = {_fraction_str(report.gamma_jsat_degs)}")
    print(f"big_gamma(degs) = {_fraction_str(report.big_gamma_degs)}")
    if dev is not None:
        print(f"tail_dev(rads) = {dev:.4e}")
    return 0


def _cmd_continuum(args: argparse.Namespace) -> int:
    gamma, del_lam = _gamma(args), _del_lam(args)
    if gamma == 0.0:  # the library refuses gamma = 0 in radians
        raise UsageError(f"--gamma-degs must lie in (0, 180) degrees, got {args.gamma_degs:g}; "
                         "at 0 the start is the target, with no flow to follow")
    trace = integrate_continuum(gamma, del_lam, args.t_max, step_size=args.step_size)
    # one sample is the fixed point only where the start slope -dbar_gamma is 0
    if len(trace.t) == 1 and dbar_gamma(gamma, gamma, del_lam) != 0.0:
        raise UsageError(f"--gamma-degs {args.gamma_degs!r}: {_NEVER_MOVES}")
    if args.out is not None:
        _write(args.out, continuum_csv(trace))
    if args.fit_rate:
        print(f"tail_rate = {fit_tail_rate(trace)!r}")
    elif args.out is None:
        _write(None, continuum_csv(trace))
    return 0


def _add_gamma(p: argparse.ArgumentParser, domain: str) -> None:
    p.add_argument(
        "--gamma-degs",
        type=float,
        required=True,
        help=f"start angle from the target axis, degrees in {domain}",
    )


def _add_del_lam(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument(
        "--del-lam-degs",
        type=float,
        required=required,
        default=None if required else 90.0,
        help="target phase per step, degrees in [0, 180]",
    )


def _add_out(p: argparse.ArgumentParser, default: str | None = "-") -> None:
    p.add_argument(
        "--out",
        default=default,
        help="output path, or - for stdout"
        + ("" if default == "-" else " (default: no file)"),
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="afga", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="emit the adaptive phase schedule table")
    _add_gamma(p, "[0, 180)")
    _add_del_lam(p)
    p.add_argument("--num-steps", type=int, default=20, help="rows beyond row 0")
    p.add_argument(
        "--format",
        choices=("afga-txt", "csv"),
        default="afga-txt",
        help="fixed 4-digit table or full-precision CSV",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("qubit", help="statevector run of the adaptive schedule")
    _add_gamma(p, "[0, 180)")
    _add_del_lam(p)
    p.add_argument("--num-steps", type=int, default=20)
    _add_out(p)
    p.set_defaults(func=_cmd_qubit)

    p = sub.add_parser("grover", help="statevector run of fixed-step amplification")
    _add_gamma(p, "(0, 180)")
    p.add_argument("--num-steps", type=int, default=20)
    _add_out(p)
    p.set_defaults(func=_cmd_grover)

    p = sub.add_parser("search", help="adaptive search over 2^nb basis states")
    p.add_argument("--nb", type=int, required=True, help="number of bits, 1..24")
    _add_del_lam(p, required=False)
    p.add_argument("--target-index", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6, help="stop at success >= 1 - tol")
    p.add_argument("--max-steps", type=int, default=None)
    _add_out(p, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "saturation", help="landing point of uniform stepping at del_lam = 180"
    )
    _add_gamma(p, "(90, 180)")
    p.add_argument(
        "--check-tail",
        action="store_true",
        help="also run the recursion and print the tail deviation",
    )
    p.add_argument("--n-tail", type=int, default=10, help="tail steps checked, >= 1")
    p.set_defaults(func=_cmd_saturation)

    p = sub.add_parser("continuum", help="integrate the continuum decay flow")
    _add_gamma(p, "(0, 180)")
    _add_del_lam(p)
    p.add_argument("--t-max", type=float, default=60.0, help="finite, > 0")
    p.add_argument("--step-size", type=float, default=0.01, help="finite, > 0")
    p.add_argument(
        "--fit-rate",
        action="store_true",
        help="print the fitted tail decay rate instead of the trace",
    )
    _add_out(p, default=None)
    p.set_defaults(func=_cmd_continuum)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
