"""Command line front end.

Subcommands:

* ``synth``       - build a sequence and emit its JSON description.
* ``verify``      - certify robustness orders by slope fits, plus the
  off-resonance residual for palindromic families; PASS/FAIL summary.
* ``grid``        - gate fidelity over an (epsilon, f) grid, CSV or JSON.
* ``timecompare`` - total operation time of each bi-robust family per angle.
* ``trajectory``  - Bloch-sphere path of a state under the erroneous sequence.

``pulsesmith --version`` prints the package version.

Outputs are deterministic: identical invocations produce identical bytes.
Non-finite angles, error values and grid bounds, malformed sequence files,
requests too large to allocate, and a ``verify`` of a sequence file whose
family has no ``sequences.FAMILY_SPECS`` entry exit with code 2 (``grid``
and ``trajectory`` take any family label).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import (
    AxisSpec,
    FidelityGrid,
    _is_palindromic,
    fidelity_grid,
    grid_to_csv,
    slope_report,
    symmetric_ore_residual,
    time_compare,
    time_compare_to_csv,
    time_compare_to_dict,
)
from .bloch import BlochVector, trajectory, trajectory_to_csv, trajectory_to_dict
from .sequences import (
    FAMILIES,
    FAMILY_SPECS,
    PulseSequence,
    compose_with_errors,
    family_spec,
    sequence_from_dict,
    sequence_to_dict,
    synthesize,
)
from .su2 import NO_ERROR, ErrorPair, _is_finite, matrix_to_dict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY_FAIL = 3
EXIT_IO = 4

SLOPE_TOLERANCE = 0.3
# views of sequences.FAMILY_SPECS under the names perfbench/workloads.py reads
SLOPE_EXPECTATIONS = {name: spec.slopes for name, spec in FAMILY_SPECS.items()}
RESIDUAL_LIMITS = {n: s.residual_limit for n, s in FAMILY_SPECS.items() if s.residual_limit is not None}
RAY_DIRECTIONS = {"eps": (1.0, 0.0), "f": (0.0, 1.0), "mixed": (1.0, 1.0)}
T_VALUES = tuple(float(t) for t in np.logspace(-3.0, -1.5, 13))

_PI_FORM = re.compile(
    r"^(?:(?P<a>\d+(?:\.\d*)?|\.\d+))?pi(?:/(?P<b>\d+(?:\.\d*)?|\.\d+))?$"
)


def parse_angle(text: str) -> float:
    """An angle in radians as typed on the command line.

    Grammar: a decimal literal, or "pi", "<a>pi", "pi/<b>", "<a>pi/<b>" with
    a, b positive decimals.
    """
    s = text.strip()
    m = _PI_FORM.match(s)
    if m:
        value = (float(m.group("a")) if m.group("a") else 1.0) * math.pi
        if m.group("b"):
            b = float(m.group("b"))
            if b == 0.0:
                raise ValueError(f"angle {text!r} divides by zero")
            value /= b
    else:
        try:
            value = float(s)
        except ValueError:
            raise ValueError(
                f"cannot parse angle {text!r}; use a decimal or pi, 2pi, pi/2, 3pi/4"
            ) from None
    if not _is_finite(value):
        raise ValueError(f"angle {text!r} must be finite")
    return value


def _angle_arg(text: str) -> float:
    # argparse prints the message of an ArgumentTypeError, but for a
    # ValueError only "invalid <function name> value"
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_axis_spec(text: str) -> AxisSpec:
    """Parse min:max:count with inclusive endpoints; min/max accept the
    parse_angle grammar."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec {text!r} must be min:max:count")
    start = parse_angle(parts[0])
    stop = parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"axis spec count {parts[2]!r} is not an integer") from None
    return AxisSpec(start, stop, count)


def parse_bloch_vector(text: str) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"initial state {text!r} must be x,y,z")
    return BlochVector(*map(float, parts))


def _emit(args: argparse.Namespace, value, to_csv=None, to_dict=None) -> None:
    """Write value to args.out, or stdout without one, as args.format: CSV by
    to_csv, or the indented JSON of to_dict(value), or of value without it."""
    if args.format == "csv":
        text = to_csv(value)
    else:
        text = json.dumps(value if to_dict is None else to_dict(value), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_sequence(args: argparse.Namespace) -> PulseSequence:
    """Build from --family/--theta/--phi or load --sequence-file, rejecting
    invalid combinations with one aggregated message."""
    problems = []
    if args.sequence_file:
        if args.family or args.theta is not None:
            problems.append("--sequence-file excludes --family and --theta")
        if args.phi is not None:
            problems.append("--sequence-file excludes --phi")
        if problems:
            raise ValueError("; ".join(problems))
        with open(args.sequence_file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.sequence_file}: not valid JSON ({exc})") from None
            except RecursionError:
                raise ValueError(f"{args.sequence_file}: JSON nested too deeply") from None
        return sequence_from_dict(data)
    if not args.family:
        problems.append("--family is required unless --sequence-file is given")
    if args.theta is None:
        problems.append("--theta is required unless --sequence-file is given")
    if problems:
        raise ValueError("; ".join(problems))
    return synthesize(args.family, args.theta, 0.0 if args.phi is None else args.phi)


def cmd_synth(args: argparse.Namespace) -> int:
    seq = synthesize(args.family, args.theta, args.phi)
    payload = sequence_to_dict(seq)
    if args.dump_matrix:
        payload["matrix"] = matrix_to_dict(compose_with_errors(seq, NO_ERROR))
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    seq = _resolve_sequence(args)
    spec = family_spec(seq.family)
    ray_names = [args.ray] if args.ray else list(RAY_DIRECTIONS)
    reports = {name: slope_report(seq, RAY_DIRECTIONS[name], T_VALUES) for name in ray_names}

    residual_report = symmetric_ore_residual(seq) if _is_palindromic(seq) else None

    ok = True
    lines = []
    for name in ray_names:
        report = reports[name]
        want = spec.slopes[name]
        ray_ok = abs(report.fitted_slope - want) <= SLOPE_TOLERANCE
        ok = ok and ray_ok
        lines.append(
            f"ray {name}: slope={report.fitted_slope:.3f}"
            f" expected={want:.1f}+-{SLOPE_TOLERANCE} [{'ok' if ray_ok else 'BAD'}]"
        )
    if residual_report is not None:
        line = f"ore residual: {residual_report.residual!r}"
        limit = spec.residual_limit
        if limit is not None:
            res_ok = abs(residual_report.residual) <= limit
            ok = ok and res_ok
            line += f" limit={limit:g} [{'ok' if res_ok else 'BAD'}]"
        lines.append(line)

    verdict = "PASS" if ok else "FAIL"
    lines.append(
        f"{verdict} family={seq.family} theta={seq.target.theta!r} phi={seq.target.phi!r}"
    )
    report_text = "\n".join(lines) + "\n"
    sys.stdout.write(report_text)

    if args.out:
        payload = {
            "family": seq.family,
            "target": {"theta": seq.target.theta, "phi": seq.target.phi},
            "rays": {name: reports[name].to_dict() for name in ray_names},
            "ore_residual": asdict(residual_report) if residual_report else None,
            "pass": ok,
        }
        _emit(args, payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_grid(args: argparse.Namespace) -> int:
    seq = _resolve_sequence(args)
    grid = fidelity_grid(seq, parse_axis_spec(args.eps), parse_axis_spec(args.f))
    _emit(args, grid, grid_to_csv, FidelityGrid.to_dict)
    return EXIT_OK


def cmd_timecompare(args: argparse.Namespace) -> int:
    if args.thetas:
        thetas = parse_axis_spec(args.thetas).points()
    else:
        # 256 points over (0, pi]
        thetas = AxisSpec(0.0, math.pi, 257).points()[1:]
    rows = time_compare(thetas)
    _emit(args, rows, time_compare_to_csv, time_compare_to_dict)
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace) -> int:
    seq = _resolve_sequence(args)
    traj = trajectory(
        seq,
        ErrorPair(args.eps, args.f),
        initial=parse_bloch_vector(args.initial),
        samples_per_pulse=args.samples,
    )
    _emit(args, traj, trajectory_to_csv, trajectory_to_dict)
    return EXIT_OK


def _add_target_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        choices=FAMILIES,
        default=None,
        help="sequence family to synthesize",
    )
    sub.add_argument("--theta", type=_angle_arg, default=None, help="target angle")
    sub.add_argument("--phi", type=_angle_arg, default=None, help="target phase")
    sub.add_argument(
        "--sequence-file",
        default=None,
        help="load the sequence from a synth JSON file instead",
    )


# lets values like "-0.25:0.25:101" follow a flag without being mistaken
# for an option; none of our option names start with a digit or dot
_VALUE_MATCHER = re.compile(r"^-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsesmith",
        description="Synthesize and verify error-compensating composite pulse sequences.",
    )
    parser._negative_number_matcher = _VALUE_MATCHER
    parser.add_argument("--version", action="version", version=f"pulsesmith {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a sequence and print its JSON")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--theta", type=_angle_arg, required=True)
    p.add_argument("--phi", type=_angle_arg, default=0.0)
    p.add_argument("--dump-matrix", action="store_true", help="include the zero-error matrix")
    p.add_argument("--out", default=None, help="write the output to this file instead of stdout")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="certify robustness orders")
    _add_target_options(p)
    p.add_argument("--ray", choices=list(RAY_DIRECTIONS), default=None, help="restrict to one ray")
    p.add_argument("--out", default=None, help="also write a JSON report")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="fidelity over an error grid")
    _add_target_options(p)
    p.add_argument("--eps", default="-0.25:0.25:101", help="epsilon axis min:max:count")
    p.add_argument("--f", default="-0.25:0.25:101", help="f axis min:max:count")
    p.add_argument("--out", default=None, help="write the output to this file instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("timecompare", help="total operation time of each bi-robust family per angle")
    p.add_argument("--thetas", default=None, help="target angles min:max:count; default 256 points over (0, pi]")
    p.add_argument("--out", default=None, help="write the output to this file instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_timecompare)

    p = sub.add_parser("trajectory", help="Bloch-sphere path under errors")
    _add_target_options(p)
    p.add_argument("--eps", type=float, default=0.0, help="pulse length error")
    p.add_argument("--f", type=float, default=0.0, help="off-resonance error")
    p.add_argument("--samples", type=int, default=64, help="samples per pulse")
    p.add_argument("--initial", default="0,0,1", help="initial Bloch vector x,y,z")
    p.add_argument("--out", default=None, help="write the output to this file instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_trajectory)

    for action in sub.choices.values():
        action._negative_number_matcher = _VALUE_MATCHER
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
