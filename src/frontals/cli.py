"""Command-line front end.

Builds a curve (builtin or CSV), runs one operator with its verification
checks, and writes CSV / SVG / JSON-report outputs.  Exit status is 0 only
when every check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as fio
from .curves import BuiltinSpec, ParamInterval, build_builtin, build_sampled
from .legendre import (
    CROSS_TOL,
    STRAIGHT_TOL,
    astroid_frontal,
    check_ell_kappa_relation,
    circle_frontal,
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
    check_regular_bertrand,
    inverse_mate,
    lambda_tol,
    mate_tol,
    operator_config,
    resolve_mode,
    solve_mate,
    verify_mate_curvature,
)
from .planar import constant_fn, linear_fn, rotate_j, row_norm
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
# Subcommands that solve for a mate.
MATE_OPERATORS = ("mate", "roundtrip", *SPECIAL_OPERATORS)
# The inverse of a roundtrip job must restore the source normal this closely.
ROUNDTRIP_NORMAL_TOL = 1e-8

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(text) -> float:
    """Angle literal: decimal radians or pi expressions like pi/2, -pi, 2pi."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
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
                raise ValueError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


# Job-file key -> (flag, JSON kinds a job file may give, argparse options).
# A job file's value is converted and checked as its flag would be.
_FIELDS = {
    "curve": ("--curve", ("string",),
              {"help": "builtin spec (circle:r=1, astroid, ellipse:a=2,b=1, line:dx=1) or csv:path"}),
    "theta": ("--theta", ("string", "number"), {"help": "angle of the translation direction (pi literals ok)"}),
    "tau": ("--tau", ("string", "number"), {"help": "angle of the coincident field seen from the mate"}),
    "lambda0": ("--lambda0", ("string", "number"),
                {"type": float, "help": "initial / constant value of the scale function"}),
    "lambda_slope": ("--lambda-slope", ("string", "number"),
                     {"type": float, "help": "slope for a linear scale function (check-regular)"}),
    "mode": ("--mode", ("string",), {"choices": ["ode", "algebraic", "auto"]}),
    "samples": ("--samples", ("string", "integer"), {"type": int, "dest": "n_samples"}),
    "periodic": ("--periodic", ("string",), {"choices": ["auto", "yes", "no"], "help": "csv ingestion periodicity"}),
}
_JSON_KINDS = {"string": str, "integer": int, "number": (int, float)}
# The output kinds a job writes, in the order of their flags --out, --svg and --json-report.
_OUTPUTS = ("csv", "svg", "json_report")


def _job_value(path, key: str, value):
    """A job-file value, converted and checked against its flag's choices."""
    _, kinds, opts = _FIELDS[key]
    where = f"{path}: field {key!r}"
    if isinstance(value, bool) or not isinstance(value, tuple(_JSON_KINDS[k] for k in kinds)):
        raise ValueError(f"{where} must be a {' or '.join(kinds)}, got {type(value).__name__}")
    try:
        value = (parse_angle if key in ("theta", "tau") else opts.get("type", str))(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if value not in opts.get("choices", [value]):
        raise ValueError(f"{where} must be one of {', '.join(opts['choices'])}, got {value!r}")
    return value


@dataclass
class JobSpec:
    """One validated CLI job."""

    curve: str
    operator: str
    theta: float | None = None
    tau: float | None = None
    lambda0: float = 0.0
    lambda_slope: float = 0.0
    mode: str = "auto"
    n_samples: int = 1024
    periodic: str = "auto"  # csv ingestion: auto | yes | no
    outputs: dict = field(default_factory=dict)  # csv | svg | json_report -> path


@dataclass
class RunReport:
    checks: dict
    cusps: list
    inflections: list
    wall_time: float
    degenerate: str = ""  # names the scanned curve when its beta vanishes on the whole grid
    straight: str = ""  # names the scanned curve when its normal does not turn (CurvaturePair.straight)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())


# The keys each builtin curve spec accepts: its shape parameters and, for
# line and ellipse, the interval ends t0 and t1 (circle and astroid always
# span one period).
CURVE_PARAMS = {
    "line": ("x0", "y0", "dx", "dy", "t0", "t1"),
    "circle": ("r", "cx", "cy"),
    "ellipse": ("a", "b", "cx", "cy", "t0", "t1"),
    "astroid": ("a",),
}


def _parse_params(kind: str, text: str) -> dict:
    """key=value parameters of a builtin curve spec (see CURVE_PARAMS)."""
    params = {}
    for item in text.split(",") if text else []:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or not key:
            raise ValueError(f"bad curve parameter {item!r}; expected key=value")
        if key not in CURVE_PARAMS[kind]:
            raise ValueError(f"{kind} takes no parameter {key!r}; it accepts {', '.join(CURVE_PARAMS[kind])}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"curve parameter {key}={value!r} is not a number") from None
        if not math.isfinite(params[key]):
            raise ValueError(f"curve parameter {key}={value} is not finite")
    return params


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValueError, like any other rejected input."""

    def error(self, message):
        raise ValueError(message)


def parse_job(argv) -> JobSpec:
    parser = _Parser(
        prog="frontals",
        description="Curvature pairs, cusp scans, and mate constructions for plane curves.",
    )
    parser.add_argument("operator", choices=OPERATORS)
    for flag, _, opts in _FIELDS.values():
        parser.add_argument(flag, **opts)
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--svg", help="output SVG path")
    parser.add_argument("--json-report", dest="json_report", help="output JSON report path")
    parser.add_argument("--job", help="JSON job file; explicit flags override it")
    ns = parser.parse_args(argv)

    job_file = {}
    if ns.job:
        try:
            job_file = json.loads(Path(ns.job).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{ns.job}: not valid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})") from None
        if not isinstance(job_file, dict):
            raise ValueError(f"{ns.job}: job file must hold a JSON object, got {type(job_file).__name__}")
        accepted = [*_FIELDS, "outputs"]
        unknown = [key for key in job_file if key not in accepted]
        if unknown:
            raise ValueError(f"{ns.job}: unknown field {unknown[0]!r}; a job file accepts {', '.join(accepted)}")

    def pick(key, default):
        flag = getattr(ns, _FIELDS[key][2].get("dest", key))
        if flag is not None:
            return flag
        if job_file.get(key) is not None:
            return _job_value(ns.job, key, job_file[key])
        return default

    outputs = job_file.get("outputs", {})
    if not isinstance(outputs, dict) or not all(isinstance(v, str) for v in outputs.values()):
        raise ValueError(f"{ns.job}: field 'outputs' must be an object of path strings")
    unknown = [key for key in outputs if key not in _OUTPUTS]
    if unknown:
        raise ValueError(f"{ns.job}: unknown output {unknown[0]!r}; outputs accepts {', '.join(_OUTPUTS)}")
    outputs = dict(outputs)
    for key, path in zip(_OUTPUTS, (ns.out, ns.svg, ns.json_report)):
        if path:
            outputs[key] = path

    curve = pick("curve", None)
    if not curve:
        parser.error("a curve is required (--curve or job file)")
    theta = pick("theta", None)
    tau = pick("tau", None)
    spec = JobSpec(
        curve=curve,
        operator=ns.operator,
        theta=None if theta is None else parse_angle(theta),
        tau=None if tau is None else parse_angle(tau),
        lambda0=pick("lambda0", 0.0),
        lambda_slope=pick("lambda_slope", 0.0),
        mode=pick("mode", "auto"),
        n_samples=pick("samples", 1024),
        periodic=pick("periodic", "auto"),
        outputs=outputs,
    )
    _validate_job(spec)
    return spec


def _validate_job(spec: JobSpec) -> None:
    if spec.operator not in OPERATORS:
        raise ValueError(f"unknown operator {spec.operator!r}")
    if spec.operator in ("mate", "roundtrip") and (spec.theta is None or spec.tau is None):
        raise ValueError(f"{spec.operator} requires --theta and --tau")
    for name in ("lambda0", "lambda_slope"):
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(spec, name)}")
    if spec.operator in MATE_OPERATORS:
        cfg = _mate_config(spec)  # a named operator checks its angles here
        resolve_mode(cfg.mode, cfg.tau.eval(0.0))  # before any curve is built


def _build_frontal(spec: JobSpec):
    """(LegendreCurve, curve_label) from the job's curve field."""
    kind, _, rest = spec.curve.partition(":")
    if kind == "csv":
        ts, points, normals = fio.read_curve_csv(rest)
        periodic = False
        if spec.periodic != "no":
            gap = np.linalg.norm(points[-1] - points[0])
            periodic = bool(gap <= 3.0 * np.median(row_norm(np.diff(points, axis=0))))
            if spec.periodic == "yes" and not periodic:
                raise ValueError(f"periodic interval but curve does not close (gap {gap:g})")
        gamma = build_sampled(ts, points, periodic=periodic)
        if normals is not None:
            return frontal_from_samples(gamma, normals), rest
        return from_regular(gamma), rest

    if kind not in CURVE_PARAMS:
        raise ValueError(f"unknown curve spec {spec.curve!r}")
    params = _parse_params(kind, rest)
    t0 = params.pop("t0", 0.0)
    default_t1 = 1.0 if kind == "line" else 2.0 * math.pi
    t1 = params.pop("t1", default_t1)
    if kind == "circle":
        r = params.get("r", 1.0)
        lc = circle_frontal(r, spec.n_samples, center=(params.get("cx", 0.0), params.get("cy", 0.0)))
        return lc, f"circle r={r}"
    if kind == "astroid":
        return astroid_frontal(spec.n_samples, scale=params.get("a", 1.0)), "astroid"
    periodic = kind == "ellipse" and math.isclose(t1 - t0, 2.0 * math.pi)
    interval = ParamInterval(t0, t1, spec.n_samples, periodic=periodic)
    return from_regular(build_builtin(BuiltinSpec(kind, params, interval))), kind


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
    frenet_nu = np.max(row_norm(lc.on_grid("nu_d1") - pair.ell[:, None] * mu))
    _check(checks, "frenet_closure", frenet_nu, CROSS_TOL * max(1.0, float(np.max(np.abs(pair.ell)))))
    if np.any(np.abs(pair.beta) > pair.sing_tol):
        rep = check_ell_kappa_relation(lc, pair)
        _check(checks, rep.name, rep.max_residual, rep.tolerance)
    return checks


def _mate_config(spec: JobSpec) -> MateConfig:
    if spec.operator in SPECIAL_OPERATORS:
        return operator_config(spec.operator, spec.theta, spec.tau, spec.lambda0, spec.mode)
    return MateConfig(constant_fn(spec.theta), constant_fn(spec.tau), spec.lambda0, spec.mode)


def _mate_checks(mp, extent: float, kind: str) -> dict:
    checks = {}
    _check(checks, "lambda_residual", mp.lam.residual, lambda_tol(mp.source_curvature, mp.config, mp.lam.lam))
    _check(checks, "direction_coincidence", mp.direction_residual, mate_tol(extent, kind))
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
        lc, label = _build_frontal(spec)
        lam = linear_fn(spec.lambda0, spec.lambda_slope)
        report = check_regular_bertrand(
            lc.gamma, constant_fn(spec.theta or 0.0), constant_fn(spec.tau or 0.0), lam
        )
        _check(checks, "mate_condition", report.cond1_residual, ODE_TOL_SCALE)
        # hinge residual: zero when the second condition stays above the report's threshold
        shortfall = max(0.0, report.reg_tol - float(np.min(np.abs(report.cond2_value))))
        _check(checks, "mate_regularity", shortfall, 0.0)
        svg_curves.append((label, lc.gamma.on_grid("position")))
    else:
        lc, label = _build_frontal(spec)
        pair = legendre_curvature(lc)
        svg_curves.append((label, lc.gamma.on_grid("position")))
        scanned, scanned_pair = lc, pair  # the curve whose cusps and inflections are reported

        if spec.operator in ("curvature", "cusps", "plot"):
            checks.update(_curvature_checks(lc, pair))
            if "csv" in spec.outputs and spec.operator != "plot":
                fio.write_pair_csv(spec.outputs["csv"], pair)
        else:
            mp = solve_mate(lc, _mate_config(spec), pair, spec.operator)
            checks.update(_mate_checks(mp, lc.gamma.extent, lc.gamma.kind))
            if spec.operator == "roundtrip":
                back = inverse_mate(mp)
                pos_err = float(np.max(row_norm(back.mate.gamma.on_grid("position") - lc.gamma.on_grid("position"))))
                nrm_err = float(np.max(row_norm(back.mate.on_grid("nu") - lc.on_grid("nu"))))
                _check(checks, "roundtrip_position", pos_err, mate_tol(lc.gamma.extent, lc.gamma.kind))
                _check(checks, "roundtrip_normal", nrm_err, ROUNDTRIP_NORMAL_TOL)
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


def main(argv=None) -> int:
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
