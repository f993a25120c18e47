"""Command-line front end.

Builds a curve (builtin or CSV), runs one operator with its verification
checks, and writes CSV / SVG / JSON-report outputs.  Exit status is 0 only
when every check passes.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import io as fio
from .curves import BUILTINS, GridError, build_builtin, build_sampled, builtin_spec
from .legendre import (
    CROSS_TOL,
    STRAIGHT_TOL,
    builtin_frontal,
    check_ell_kappa_relation,
    classify_singularities,
    from_regular,
    frontal_from_samples,
    inflection_points,
    legendre_curvature,
    tangency_residual,
)
from .mates import (
    ODE_TOL_SCALE,
    SPECIAL_OPERATORS,
    DenominatorError,
    MateConfig,
    ResidualError,
    build_mate,
    check_regular_bertrand,
    compose_mates,
    inverse_mate,
    operator_config,
    solve_lambda,
    verify_mate_curvature,
)
from .planar import constant_fn, linear_fn, rotate_j, row_norm, scale_rows
from .svgplot import render_svg

OPERATORS = (
    "curvature",
    "mate",
    *SPECIAL_OPERATORS,
    "cusps",
    "roundtrip",
    "check-regular",
    "plot",
)
# The inverse of a roundtrip job must restore the source normal this closely.
ROUNDTRIP_NORMAL_TOL = 1e-8

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?$")


class AngleError(ValueError, argparse.ArgumentTypeError):
    """A malformed angle literal; argparse prints it after the flag's name."""


def parse_angle(text: str) -> float:
    """Angle literal: decimal radians or pi expressions like pi/2, -pi, 2pi."""
    s = text.strip().lower()
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        value = sign * coeff * math.pi / div if div else math.inf
    else:
        try:
            value = float(s)
        except ValueError:
            raise AngleError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise AngleError(f"angle {text!r} is not finite")
    return value


# Job-file key -> (flag, argparse options).  A job file's fields are parsed as
# `--flag=value` arguments ahead of the command line, so explicit flags win.
_FIELDS = {
    "curve": ("--curve", {"help": "builtin spec (circle:r=1, astroid, ellipse:a=2,b=1, line:dx=1) or csv:path"}),
    "theta": ("--theta", {"type": parse_angle, "help": "angle of the translation direction (pi literals ok)"}),
    "tau": ("--tau", {"type": parse_angle, "help": "angle of the coincident field seen from the mate"}),
    "lambda0": ("--lambda0", {"type": float, "help": "initial / constant value of the scale function"}),
    "lambda_slope": ("--lambda-slope", {"type": float, "help": "slope for a linear scale function (check-regular)"}),
    "samples": ("--samples", {"type": int, "dest": "n_samples"}),
    "periodic": ("--periodic", {"choices": ["auto", "yes", "no"], "help": "csv ingestion periodicity"}),
}
# Output kind (a key of a job file's `outputs`) -> (flag, help).
_OUTPUTS = {
    "csv": ("--out", "output CSV path"),
    "svg": ("--svg", "output SVG path"),
    "json_report": ("--json-report", "output JSON report path"),
}


def _job_arguments(path) -> list[str]:
    """A job file's fields as `--flag=value` arguments, once the file's own form is checked."""
    try:
        job = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})") from None
    if not isinstance(job, dict):
        raise ValueError(f"job file must hold a JSON object, got {type(job).__name__}")
    accepted = [*_FIELDS, "outputs"]
    unknown = [key for key in job if key not in accepted]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}; a job file accepts {', '.join(accepted)}")
    outputs = job.get("outputs", {})
    if not isinstance(outputs, dict) or not all(isinstance(v, str) for v in outputs.values()):
        raise ValueError("field 'outputs' must be an object of path strings")
    unknown = [key for key in outputs if key not in _OUTPUTS]
    if unknown:
        raise ValueError(f"unknown output {unknown[0]!r}; outputs accepts {', '.join(_OUTPUTS)}")
    # A value's text fails its flag's conversion where its JSON kind is wrong (True, 64.0, [1]),
    # and a float's text is its shortest repr, which reads back as the same float.
    argv = [f"{flag}={job[key]}" for key, (flag, _) in _FIELDS.items() if job.get(key) is not None]
    return argv + [f"{_OUTPUTS[kind][0]}={target}" for kind, target in outputs.items()]


class JobSpec(NamedTuple):
    """One validated CLI job."""

    curve: str
    operator: str
    theta: float | None = None
    tau: float | None = None
    lambda0: float = 0.0
    lambda_slope: float = 0.0
    n_samples: int = 1024
    periodic: str = "auto"  # csv ingestion: auto | yes | no
    outputs: Mapping[str, str] = MappingProxyType({})  # csv | svg | json_report -> path; no outputs by default


class RunReport(NamedTuple):
    checks: dict
    cusps: list
    inflections: list
    wall_time: float
    degenerate: str = ""  # names the scanned curve when its beta vanishes on the whole grid
    straight: str = ""  # names the scanned curve when its normal does not turn (CurvaturePair.straight)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())


def _parse_params(text: str) -> dict:
    """key=value parameters of a builtin curve spec, as numbers."""
    params = {}
    for item in text.split(",") if text else []:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or not key:
            raise ValueError(f"bad curve parameter {item!r}; expected key=value")
        if key in params:
            raise ValueError(f"curve parameter {key!r} is given twice")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"curve parameter {key}={value!r} is not a number") from None
        if not math.isfinite(params[key]):
            raise ValueError(f"curve parameter {key}={value} is not finite")
    return params


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValueError, like any other rejected
    input, and reads -1e-05 as a negative number, not as an option."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse's own pattern has no exponent form, so it takes -1e-05 for an option.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


def parse_job(argv) -> JobSpec:
    parser = _Parser(
        prog="frontals",
        description="Curvature pairs, cusp scans, and mate constructions for plane curves.",
        argument_default=argparse.SUPPRESS,  # JobSpec holds the defaults
    )
    parser.add_argument("operator", choices=OPERATORS)
    for flag, opts in _FIELDS.values():
        parser.add_argument(flag, **opts)
    for kind, (flag, text) in _OUTPUTS.items():
        parser.add_argument(flag, dest=kind, metavar="PATH", help=text)
    parser.add_argument("--job", help="JSON job file, read as --flag=value arguments ahead of the flags given")
    args = vars(parser.parse_args(argv))
    job = args.pop("job", None)
    if job:
        try:  # the command line alone parsed: the job file is at fault, json.loads' digit limit too
            args = vars(parser.parse_args([*_job_arguments(job), *argv]))
        except ValueError as exc:
            raise ValueError(f"{job}: {exc}") from None
        del args["job"]
    outputs = {kind: path for kind in _OUTPUTS if (path := args.pop(kind, None))}
    if not args.get("curve"):
        parser.error("a curve is required (--curve or job file)")
    spec = JobSpec(outputs=outputs, **args)
    _validate_job(spec)
    return spec


def _validate_job(spec: JobSpec) -> None:
    if spec.operator in ("mate", "roundtrip") and (spec.theta is None or spec.tau is None):
        raise ValueError(f"{spec.operator} requires --theta and --tau")
    for name in ("lambda0", "lambda_slope"):
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(spec, name)}")
    if spec.operator in SPECIAL_OPERATORS:
        operator_config(spec.operator, spec.theta, spec.tau)  # checks its angles before any curve is built


def _build_curve(spec: JobSpec, framed: bool = True):
    """(curve, curve_label) from the job's curve field: a LegendreCurve, or
    with framed=False its CurveModel alone, whose normal field is neither
    built nor checked.  A circle's label names its radius."""
    kind, _, rest = spec.curve.partition(":")
    if kind == "csv":
        ts, points, normals = fio.read_curve_csv(rest)
        periodic = False
        if spec.periodic != "no":
            gap = np.linalg.norm(points[-1] - points[0])
            periodic = bool(gap <= 3.0 * np.median(row_norm(np.diff(points, axis=0))))
            if spec.periodic == "yes" and not periodic:
                raise ValueError(f"periodic interval but curve does not close (gap {gap:g})")
        try:
            gamma = build_sampled(ts, points, periodic=periodic)
        except GridError as exc:
            raise ValueError(f"{rest}: data row {exc.sample + 1}: {exc.reason}") from None
        if not framed:
            return gamma, rest
        if normals is not None:
            return frontal_from_samples(gamma, normals), rest
        return from_regular(gamma), rest

    if kind not in BUILTINS:
        raise ValueError(f"unknown curve spec {spec.curve!r}")
    curve = builtin_spec(kind, _parse_params(rest), spec.n_samples)
    label = f"circle r={curve.params['r']}" if kind == "circle" else kind
    return (builtin_frontal if framed else build_builtin)(curve), label


def _check(checks: dict, name: str, residual, tolerance) -> None:
    """Record one named check; accepts a scalar residual or a residual
    array.  A tolerance array holds one tolerance per residual; the check
    then reports the residual and the tolerance where the residual comes
    nearest its tolerance."""
    arr = np.atleast_1d(np.asarray(residual, dtype=float))
    tol = np.broadcast_to(np.asarray(tolerance, dtype=float), arr.shape)
    k = int(np.argmax(arr / tol)) if np.ndim(tolerance) else int(np.argmax(arr))
    checks[name] = {
        "max_residual": float(arr[k]),
        "tolerance": float(tol[k]),
        "pass": bool(np.all(arr <= tol)),
    }


def _curvature_checks(lc, pair) -> dict:
    checks = {}
    _check(checks, "tangency", tangency_residual(lc), lc.leg_tol)
    mu = rotate_j(lc.on_grid("nu"))
    frenet_nu = np.max(row_norm(scale_rows(mu, pair.ell, base=lc.on_grid("nu_d1"), combine=np.subtract)))
    _check(checks, "frenet_closure", frenet_nu, CROSS_TOL * max(1.0, float(np.max(np.abs(pair.ell)))))
    if np.any(np.abs(pair.beta) > pair.sing_tol):
        rep = check_ell_kappa_relation(lc, pair)
        _check(checks, rep.name, rep.max_residual, rep.tolerance)
    return checks


def _mate_config(spec: JobSpec) -> MateConfig:
    if spec.operator in SPECIAL_OPERATORS:
        return operator_config(spec.operator, spec.theta, spec.tau, spec.lambda0)
    return MateConfig(constant_fn(spec.theta), constant_fn(spec.tau), spec.lambda0)


def _mate_checks(mp) -> dict:
    checks = {}
    _check(checks, "lambda_residual", mp.lam.residual, mp.lam.tolerance)
    _check(checks, "direction_coincidence", mp.direction_residual, mp.direction_tolerance)
    _check(checks, "mate_tangency", mp.mate_tangency_residual, mp.mate.leg_tol)
    cross = verify_mate_curvature(mp)
    _check(
        checks,
        "curvature_cross_check",
        max(cross.max_ell_discrepancy, cross.max_beta_discrepancy),
        cross.tolerance,
    )
    return checks


def run_job(spec: JobSpec) -> RunReport:
    """Execute the pipeline and write requested outputs."""
    start = time.perf_counter()
    checks: dict = {}
    cusps: list = []
    inflections: list = []
    svg_curves = []
    svg_markers = None
    degenerate = straight = ""

    if spec.operator == "check-regular":
        gamma, label = _build_curve(spec, framed=False)
        lam = linear_fn(spec.lambda0, spec.lambda_slope)
        report = check_regular_bertrand(
            gamma, constant_fn(spec.theta or 0.0), constant_fn(spec.tau or 0.0), lam
        )
        _check(checks, "mate_condition", report.cond1_residual, ODE_TOL_SCALE)
        _check(checks, "mate_regularity", report.regularity_shortfall, 0.0)
        svg_curves.append((label, gamma.on_grid("position")))
    else:
        lc, label = _build_curve(spec)
        pair = legendre_curvature(lc)
        svg_curves.append((label, lc.gamma.on_grid("position")))
        scanned, scanned_pair = lc, pair  # the curve whose cusps and inflections are reported

        if spec.operator in ("curvature", "cusps", "plot"):
            checks.update(_curvature_checks(lc, pair))
            if "csv" in spec.outputs and spec.operator != "plot":
                fio.write_pair_csv(spec.outputs["csv"], pair)
        else:
            cfg = _mate_config(spec)
            mp = build_mate(lc, cfg, solve_lambda(pair, cfg, extent=lc.gamma.extent), pair)
            checks.update(_mate_checks(mp))
            if spec.operator == "roundtrip":
                # The mate composed with its inverse is the identity: lambda - lambda = 0.
                ident = compose_mates(mp, inverse_mate(mp))
                _check(checks, "roundtrip_position", ident.position_gap, ident.tolerance)
                _check(checks, "roundtrip_normal", ident.normal_gap, ROUNDTRIP_NORMAL_TOL)
            svg_curves.append((spec.operator, mp.mate.gamma.on_grid("position")))
            label, scanned, scanned_pair = spec.operator, mp.mate, mp.mate_curvature
            if "csv" in spec.outputs:
                fio.write_mate_csv(spec.outputs["csv"], mp)
        cusps = classify_singularities(scanned_pair)
        inflections = list(inflection_points(scanned_pair))
        if cusps:
            svg_markers = scanned.gamma.position(np.array([c.t0 for c in cusps]))
        degenerate = label if scanned_pair.degenerate else ""
        straight = label if scanned_pair.straight else ""

    report = RunReport(
        checks=checks,
        cusps=cusps,
        inflections=inflections,
        wall_time=time.perf_counter() - start,
        degenerate=degenerate,
        straight=straight,
    )
    if "svg" in spec.outputs:
        fio.write_text(spec.outputs["svg"], render_svg(svg_curves, svg_markers))
    if "json_report" in spec.outputs:
        fio.write_text(spec.outputs["json_report"], fio.report_to_json(report))
    return report


@functools.cache
def _freeze_at_exit() -> None:
    """Once per process: at exit, freeze the objects left alive, so the
    collector does not sweep what dies with the process anyway."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    try:
        spec = parse_job(argv if argv is not None else sys.argv[1:])
        report = run_job(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A solve that fails its own check is a failed check, not rejected input.
        return 1 if isinstance(exc, (ResidualError, DenominatorError)) else 2
    try:
        for name, c in report.checks.items():
            status = "PASS" if c["pass"] else "FAIL"
            print(f"{status} {name}: max residual {c['max_residual']:.3g} (tol {c['tolerance']:.3g})")
        for c in report.cusps:
            print(f"cusp {c.kind} at t0 = {c.t0:.9g}")
        if report.inflections:
            print("inflections at " + ", ".join(f"{t:.9g}" for t in report.inflections))
        if report.degenerate:
            print(f"degenerate {report.degenerate}: beta vanishes on every grid sample, so no cusp is reported")
        if report.straight:
            print(f"straight {report.straight}: the normal turns by at most {STRAIGHT_TOL:g} rad, "
                  "so no inflection is reported")
        print(f"done in {report.wall_time:.3f}s")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; the output files are already written.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
