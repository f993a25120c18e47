"""Benchmark for frontals: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cusp_scan --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ./src, metric
names and units come from ./BENCHMARK.json, and scratch files go to
./.perfbench/.  Each workload is a closed loop with one caller; jobs run
back to back until --seconds have passed.  The last stdout line is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# One BLAS thread: every workload runs as one process with no extra threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Interpreter starts per run for setup_s, spread evenly over the run so that
# the machine's drift within a run shows in their median, not in one burst.
SETUP_REPEATS = 9
# Acceptance tolerance of cusp and inflection locations (criterion 8).
LOCATION_TOL = 1e-6
# Acceptance tolerance of the inverse round trip's normal (the CLI's
# roundtrip_normal check).
NORMAL_TOL = 1e-8
# Relative errors below this are rounding: a job's error ratio counts them
# as this floor, so the metric does not follow rounding noise between inputs.
ROUNDING_FLOOR = 1e-12
# Inputs on which lambda grows by e^KNOWN_GROWTH or more lie in the regime of
# the listed solve_lambda defect (see NOTES.md, "Known defects").  The timed
# loop leaves them out, so that no timed job fails; the defect probe runs a
# fixed set of them in every mate_roundtrip run instead.
KNOWN_GROWTH = 9.0
# The defect probe: the first PROBE_SIZE ODE inputs of seed PROBE_SEED whose
# growth is at least KNOWN_GROWTH.
PROBE_SEED = 1
PROBE_SIZE = 8


def lambda_error_ratio(lam, lam_ref, extent, scale) -> float:
    """Worst error of lambda against its closed form, relative to the larger
    of |lambda| and the source's extent, over the mate tolerance's scale.
    Relative, so it does not spread with the e^A growth of lambda."""
    import numpy as np

    size = max(float(np.max(np.abs(lam_ref))), extent)
    return max(float(np.max(np.abs(lam - lam_ref))) / size, ROUNDING_FLOOR) / scale


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's reference."""


@dataclass
class JobResult:
    index: int
    label: str
    wall: float
    error: str | None = None  # why the job failed, None when it passed
    known: bool = False  # failure is a listed known defect
    err_ratio: float = 0.0  # worst error against a reference / its tolerance
    trace: dict = field(default_factory=dict)  # per-layer values of a traced job


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports frontals."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import frontals"], env=child_env(), check=True)
    return time.perf_counter() - start


# ---------------------------------------------------------------- workloads


class Workload:
    """make(i) gives job i's label and input, run(job, traced) runs it, and
    check(job, output) raises CheckFailed or returns its error ratio."""

    in_process = True  # False: each job is a child process that traces itself

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def known_failure(self, job, exc) -> bool:
        """Whether a raised exception is a listed known defect."""
        return False

    def defect_probe(self) -> list:
        """JobResults of the fixed inputs that exercise a known defect."""
        return []


class CuspScan(Workload):
    """Closed-form frontals at n = 16384; one job is the curvature pair,
    the cusp classification and the inflection scan.  Every eighth input is
    an astroid (4 cusps of kind 3/2), the rest random cusped frontals."""

    n = 16384
    window = 24

    def make(self, i):
        import numpy as np
        import gen
        from frontals import legendre

        rng = np.random.default_rng([self.seed, i])
        if i % 8 == 7:
            a = float(rng.uniform(0.5, 2.0))
            return f"astroid a={a:.4f}", (legendre.astroid_frontal(self.n, scale=a), gen.astroid_reference())
        spec = gen.draw_frontal(rng)
        ref = gen.frontal_reference(spec, self.n)
        if i < 8:
            self_check(gen.self_check_reference(spec, ref, self.n))
        return "random frontal", (gen.build_frontal(spec, self.n), ref)

    def run(self, job, traced):
        from frontals import legendre

        lc, _ = job
        pair = legendre.legendre_curvature(lc)
        return legendre.classify_singularities(pair), legendre.inflection_points(pair)

    def check(self, job, out) -> float:
        import numpy as np

        _, ref = job
        reports, inflections = out
        found = np.array([r.t0 for r in reports])
        if len(found) != len(ref.cusps):
            raise CheckFailed(f"{len(found)} cusps, reference has {len(ref.cusps)}")
        for r, kind in zip(reports, ref.kinds):
            if kind is not None and r.kind != kind:
                raise CheckFailed(f"cusp at {r.t0:.9g} classified {r.kind}, reference {kind}")
        if len(inflections) != len(ref.inflections):
            raise CheckFailed(f"{len(inflections)} inflections, reference has {len(ref.inflections)}")
        errs, rel_errs = [0.0], [0.0]
        for got, want in ((found, ref.cusps), (np.asarray(inflections), ref.inflections)):
            if len(want):
                d = got - want
                if ref.periodic:
                    d = (d + math.pi) % (2.0 * math.pi) - math.pi
                errs.append(float(np.max(np.abs(d))))
                rel_errs.append(float(np.max(np.abs(d) / np.maximum(np.abs(want), 1.0))))
        if max(errs) > LOCATION_TOL:
            raise CheckFailed(f"event location error {max(errs):.3g} exceeds {LOCATION_TOL:g}")
        # The root solvers stop at a tolerance proportional to max(|t|, 1), so
        # that is the error's natural scale: measured that way it does not
        # depend on where the zeros happen to lie.
        return max(max(rel_errs), ROUNDING_FLOOR) / LOCATION_TOL


class MateRoundtrip(Workload):
    """In-process mates at n = 8192.  Even jobs are general ODE mates on
    random cusped frontals; odd jobs cycle the seven named operators over
    astroids, then ellipses.  Each job solves, builds the mate, cross-checks
    its curvature, inverts it and composes the pair to the identity."""

    n = 8192
    window = 28
    operators = ("parallel", "evolute", "involute", "evolutoid", "involutoid", "nvolute", "tvolute")

    def make(self, i):
        """Job i, or None when its input lies in the known-defect regime."""
        label, job = self._draw(self.seed, i)
        return None if job["growth"] >= KNOWN_GROWTH else (label, self._build(job, i))

    def defect_probe(self) -> list:
        results, i = [], 0
        while len(results) < PROBE_SIZE:
            label, job = self._draw(PROBE_SEED, i)
            if job["growth"] >= KNOWN_GROWTH:
                results.append(run_job(self, None, i, label, self._build(job, i)))
            i += 2  # even jobs are the ODE mates
        return results

    def _draw(self, seed, i):
        """Job i's parameters and its growth, before anything costly is built."""
        import numpy as np
        import gen

        rng = np.random.default_rng([seed, i])
        if i % 2 == 0:
            spec = gen.draw_frontal(rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            tau = float(rng.uniform(-1.2, 1.2))
            lambda0 = float(rng.uniform(-1.0, 1.0))
            label = f"ode theta={theta:.4f} tau={tau:.4f} lambda0={lambda0:.4f}"
            job = {"kind": "ode", "spec": spec, "theta": theta, "tau": tau, "lambda0": lambda0,
                   "closed_form": (spec.phi, spec.ell, spec.beta)}
        else:
            k = (i // 2) % (2 * len(self.operators))
            op = self.operators[k % len(self.operators)]
            curve = ("astroid", float(rng.uniform(0.5, 2.0))) if k < len(self.operators) else (
                "ellipse", float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            # Angles as in the acceptance criteria, between pi/6 and pi/3.
            angle = float(rng.choice([-1.0, 1.0]) * rng.uniform(math.pi / 6.0, math.pi / 3.0))
            lambda0 = float(rng.uniform(-1.0, 1.0))
            kw = {"lambda0": lambda0}
            if op in ("evolutoid", "nvolute"):
                kw["theta"] = angle
            if op in ("involutoid", "tvolute"):
                kw["tau"] = angle
            theta, tau = self._angles(op, angle)
            label = f"{op} on {curve[0]} " + " ".join(f"{k}={v:.4f}" for k, v in kw.items())
            job = {"kind": "named", "curve": curve, "op": op, "kw": kw, "theta": theta, "tau": tau,
                   "lambda0": lambda0,
                   "closed_form": gen.astroid_closed_form(curve[1]) if curve[0] == "astroid"
                   else gen.ellipse_closed_form(curve[1], curve[2])}
        job["ts"] = np.linspace(0.0, 2.0 * math.pi, self.n, endpoint=job["kind"] == "ode")
        job["growth"] = gen.lambda_growth(job["closed_form"][0], tau, job["ts"]) if abs(math.cos(tau)) > 1e-12 else 0.0
        return f"{label} growth={job['growth']:.2f}", job

    def _build(self, job, i):
        """Add the source frontal and the closed-form lambda to a drawn job."""
        import gen

        if job["kind"] == "ode":
            spec = job["spec"]
            if i < 8:
                self_check(gen.self_check_reference(spec, gen.frontal_reference(spec, self.n), self.n))
            job["lc"] = gen.build_frontal(spec, self.n)
        job["lam_ref"] = gen.mate_lambda_reference(job["closed_form"], job["theta"], job["tau"], job["lambda0"],
                                                   job["ts"])
        return job

    @staticmethod
    def _angles(op, angle):
        """(theta, tau) of a named operator, as its definition in the paper."""
        half_pi = math.pi / 2.0
        return {
            "parallel": (0.0, 0.0),
            "evolute": (0.0, half_pi),
            "involute": (half_pi, 0.0),
            "evolutoid": (angle, half_pi),
            "involutoid": (half_pi, angle),
            "nvolute": (angle, angle + half_pi),
            "tvolute": (angle + half_pi, angle),
        }[op]

    def _named_curve(self, curve):
        from frontals import curves, legendre

        if curve[0] == "astroid":
            return legendre.astroid_frontal(self.n, scale=curve[1])
        interval = curves.ParamInterval(0.0, 2.0 * math.pi, self.n, periodic=True)
        spec = curves.BuiltinSpec("ellipse", {"a": curve[1], "b": curve[2]}, interval)
        return legendre.from_regular(curves.build_builtin(spec))

    def run(self, job, traced):
        from frontals import legendre, mates
        from frontals.planar import constant_fn

        if job["kind"] == "ode":
            lc = job["lc"]
            pair = legendre.legendre_curvature(lc)
            cfg = mates.MateConfig(constant_fn(job["theta"]), constant_fn(job["tau"]), job["lambda0"])
            lam = mates.solve_lambda(pair, cfg, extent=lc.gamma.extent)
            mp = mates.build_mate(lc, cfg, lam, pair=pair)
        else:
            lc = self._named_curve(job["curve"])
            mp = mates.special_operator(lc, job["op"], **job["kw"])
        cross = mates.verify_mate_curvature(mp)
        inverse = mates.inverse_mate(mp)
        return lc, mp, cross, inverse, mates.compose_mates(mp, inverse)

    def check(self, job, out) -> float:
        import numpy as np
        from frontals import mates

        lc, mp, cross, inverse, ident = out
        if not cross.passed:
            raise CheckFailed(
                f"curvature cross-check failed: {max(cross.max_ell_discrepancy, cross.max_beta_discrepancy):.3g}"
            )
        ts = mp.lam.grid
        tol = mates.mate_tol(lc.gamma.extent, lc.gamma.kind)
        back = float(np.max(np.linalg.norm(inverse.mate.gamma.position(ts) - lc.gamma.position(ts), axis=-1)))
        if back > tol:
            raise CheckFailed(f"inverse round trip misses the source by {back:.3g} > {tol:.3g}")
        if not isinstance(ident, mates.IdentityReport) or not ident.passed:
            raise CheckFailed(f"compose_mates(mp, inverse) is not a passing identity: {ident!r:.200}")
        normal_err = float(np.max(np.linalg.norm(inverse.mate.nu(ts) - lc.nu(ts), axis=-1)))
        if normal_err > NORMAL_TOL:
            raise CheckFailed(f"inverse round trip turns the normal by {normal_err:.3g} > {NORMAL_TOL:g}")
        scale = mates.MATE_TOL_ANALYTIC if lc.gamma.kind == "analytic" else mates.MATE_TOL_SAMPLED
        ratio = lambda_error_ratio(mp.lam.lam, job["lam_ref"], lc.gamma.extent, scale)
        if ratio > 1.0:
            raise CheckFailed(f"lambda misses the closed form by {ratio:.3g} x its tolerance")
        return ratio

    def known_failure(self, job, exc) -> bool:
        """The listed defect: solve_lambda's absolute residual tolerance does
        not scale with |lambda|, so it fails once lambda grows by about e^14."""
        from frontals import mates

        frames = traceback.extract_tb(exc.__traceback__)
        return (isinstance(exc, mates.ResidualError) and any(f.name == "solve_lambda" for f in frames)
                and job["growth"] >= KNOWN_GROWTH)


class CliCsv(Workload):
    """One fresh `frontals roundtrip` process per job on a seeded CSV at
    n = 16384: even inputs are t,x,y,nx,ny cusped frontals, odd inputs t,x,y
    ellipses.  Every fourth job repeats the first input of its block, and
    its CSV, SVG and JSON (without wall_time) must match byte for byte."""

    n = 16384
    window = 4
    in_process = False
    mate_tol_scale = 1e-3  # frontals.mates.MATE_TOL_SAMPLED, CSV input is sampled

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = {}
        self.first_outputs = {}
        self.runs = 0

    def _input(self, k):
        if k in self.inputs:
            return self.inputs[k]
        import numpy as np
        import gen

        rng = np.random.default_rng([self.seed, k])
        path = self.workdir / f"input{k}.csv"
        if k % 2 == 0:
            spec = gen.draw_frontal(rng)
            ts, pts, nus, _ = gen.frontal_grid_samples(spec, self.n)
            gen.write_csv(path, ["t", "x", "y", "nx", "ny"], [ts, pts[:, 0], pts[:, 1], nus[:, 0], nus[:, 1]])
            closed_form, periodic = (spec.phi, spec.ell, spec.beta), "no"
            if k < 8:
                self_check(gen.self_check_reference(spec, gen.frontal_reference(spec, self.n), self.n))
        else:
            a, b = (float(v) for v in rng.uniform(0.5, 2.0, 2))
            ts, pts = gen.ellipse_samples(a, b, self.n)
            gen.write_csv(path, ["t", "x", "y"], [ts, pts[:, 0], pts[:, 1]])
            closed_form, periodic = gen.ellipse_closed_form(a, b), "yes"
        theta = float(rng.uniform(-math.pi, math.pi))
        tau = float(rng.uniform(-0.5, 0.5))
        lambda0 = float(rng.uniform(-1.0, 1.0))
        spans = pts.max(axis=0) - pts.min(axis=0)
        self.inputs[k] = {
            "args": ["roundtrip", "--curve", f"csv:{path}", "--theta", repr(theta), "--tau", repr(tau),
                     "--lambda0", repr(lambda0), "--periodic", periodic],
            "phi": closed_form[0],
            "lam_ref": gen.mate_lambda_reference(closed_form, theta, tau, lambda0, ts),
            "points": pts,
            "theta": theta,
            "extent": float(math.hypot(*spans)),
            "tol": self.mate_tol_scale * float(math.hypot(*spans)) + 1e-12,
        }
        return self.inputs[k]

    def make(self, i):
        block, r = divmod(i, 4)
        k = 3 * block + (r if r < 3 else 0)
        kind = "frontal" if k % 2 == 0 else "ellipse"
        return f"input {k} ({kind})", (k, self._input(k))

    def run(self, job, traced):
        """Run one CLI process; its wall time includes interpreter start."""
        k, inp = job
        self.runs += 1
        out = self.workdir / f"job{self.runs}"
        out.mkdir()
        outputs = ["--out", str(out / "mate.csv"), "--svg", str(out / "plot.svg"),
                   "--json-report", str(out / "report.json")]
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(out / "spans.json"), out.name, "--"]
        else:
            cmd = [sys.executable, "-m", "frontals.cli"]
        start = time.perf_counter()
        with subprocess.Popen(cmd + inp["args"] + outputs, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
            try:
                # Bounded so a hung child fails its job within the run's budget.
                _, stderr = proc.communicate(timeout=100)
            except BaseException:
                proc.kill()
                raise
        wall = time.perf_counter() - start
        spans = json.loads((out / "spans.json").read_text()) if traced and (out / "spans.json").exists() else None
        return {"dir": out, "code": proc.returncode, "stderr": stderr.decode(errors="replace"),
                "wall": wall, "spans": spans}

    def check(self, job, out) -> float:
        import numpy as np

        k, inp = job
        try:
            if out["code"] != 0:
                raise CheckFailed(f"exit code {out['code']}: {out['stderr'].strip()[-300:]}")
            report = json.loads((out["dir"] / "report.json").read_text())
            report.pop("wall_time")
            digest = {
                "csv": hashlib.sha256((out["dir"] / "mate.csv").read_bytes()).hexdigest(),
                "svg": hashlib.sha256((out["dir"] / "plot.svg").read_bytes()).hexdigest(),
                "json": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
            }
            first = self.first_outputs.setdefault(k, digest)
            for name in digest:
                if digest[name] != first[name]:
                    raise CheckFailed(f"{name} output differs from an earlier run of the same job")
            data = np.loadtxt(out["dir"] / "mate.csv", delimiter=",", skiprows=1)
        finally:
            shutil.rmtree(out["dir"])
        lam = data[:, 5]
        lam_ratio = lambda_error_ratio(lam, inp["lam_ref"], inp["extent"], self.mate_tol_scale)
        lam_err = float(np.max(np.abs(lam - inp["lam_ref"])))
        # The mate is gamma + lambda v, v at angle theta from nu = (cos phi, sin phi).
        angle = inp["phi"](data[:, 0]) + inp["theta"]
        v = np.stack((np.cos(angle), np.sin(angle)), axis=-1)
        pos_err = float(np.max(np.linalg.norm(data[:, 1:3] - (inp["points"] + lam[:, None] * v), axis=-1)))
        worst = max(lam_err, pos_err)
        if worst > inp["tol"]:
            raise CheckFailed(f"mate misses the closed form by {worst:.3g} > {inp['tol']:.3g}")
        return lam_ratio


WORKLOADS = {"cusp_scan": CuspScan, "mate_roundtrip": MateRoundtrip, "cli_csv": CliCsv}


def self_check(problems) -> None:
    if problems:
        raise SystemExit("harness self-check failed: " + "; ".join(problems))


# ------------------------------------------------------------------ tracing


def job_layers(spans, counts, wall) -> dict:
    """Per-layer values of one traced job from its spans and counts."""
    import tracing

    selfs = tracing.self_times(spans)
    total_self = sum(selfs.values())
    if total_self > wall + 1e-9:
        raise SystemExit(f"harness self-check failed: self times sum to {total_self:.6f} s > job wall {wall:.6f} s")
    out = dict(counts)
    for sid, _, _, name, start, end in spans:
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[sid]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if name == "cli.main":
            out["cli.startup_s"] = wall - (end - start)
    return out


def layer_metrics(window, overhead, known_defects) -> dict:
    """Per-layer metrics: per-job means over the traced window, ratios of
    window totals, and the defect probe's count of known failures."""
    def total(key):
        return sum(job.get(key, 0) for job in window)

    def mean(key):
        return total(key) / len(window)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    return {
        "cli.startup_s": mean("cli.startup_s"),
        "cli.main.self_s": mean("cli.main.self_s"),
        "curves.build_sampled.calls": mean("curves.build_sampled.calls"),
        "curves.build_sampled.self_s": mean("curves.build_sampled.self_s"),
        "curves.build_builtin.self_s": mean("curves.build_builtin.self_s"),
        "curves.spline_builds": mean("curves.spline_build.calls"),
        "curves.spline_build_s": mean("curves.spline_build.self_s"),
        "legendre.legendre_curvature.calls": mean("legendre.legendre_curvature.calls"),
        "legendre.legendre_curvature.self_s": mean("legendre.legendre_curvature.self_s"),
        "legendre.frontal_from_samples.self_s": mean("legendre.frontal_from_samples.self_s"),
        "legendre.frontal_from_normal.self_s": mean("legendre.frontal_from_normal.self_s"),
        "legendre.classify_singularities.self_s": mean("legendre.classify_singularities.self_s"),
        "legendre.inflection_points.self_s": mean("legendre.inflection_points.self_s"),
        "legendre.root_solves": mean("legendre.root_solves"),
        "legendre.events_per_root_solve": ratio("legendre.events", "legendre.root_solves"),
        "legendre.inconclusive_ratio": ratio("legendre.inconclusive", "legendre.cusp_reports"),
        "mates.solve_lambda.self_s": mean("mates.solve_lambda.self_s"),
        "mates.ode_attempts_per_solve": ratio("mates.solve_attempts", "mates.solve_lambda.calls"),
        "mates.rk4_steps": mean("mates.rk4_steps"),
        "mates.build_mate.self_s": mean("mates.build_mate.self_s"),
        "mates.verify_mate_curvature.self_s": mean("mates.verify_mate_curvature.self_s"),
        "mates.inverse_mate.self_s": mean("mates.inverse_mate.self_s"),
        "mates.compose_mates.self_s": mean("mates.compose_mates.self_s"),
        "mates.special_operator.self_s": mean("mates.special_operator.self_s"),
        "mates.known_defect_failures": known_defects,
        "io.read_curve_csv.self_s": mean("io.read_curve_csv.self_s"),
        "io.write_mate_csv.self_s": mean("io.write_mate_csv.self_s"),
        "io.report_to_json.self_s": mean("io.report_to_json.self_s"),
        "io.bytes_read": mean("io.bytes_read"),
        "io.bytes_written": mean("io.bytes_written"),
        "svgplot.render_svg.self_s": mean("svgplot.render_svg.self_s"),
        "trace.overhead_ratio": overhead,
    }


# --------------------------------------------------------------------- loop


def run_job(wl, tracer, i, label, job) -> JobResult:
    """Run and check one job, traced when `tracer` is set.  In-process jobs
    are traced here; a CLI job traces itself and returns its spans."""
    traced = tracer is not None
    patch = traced and wl.in_process
    first_span = len(tracer.spans) if traced else 0
    if patch:
        tracer.install()
        tracer.begin_job(i)
    # Collect earlier jobs' cyclic garbage before the timer starts, so neither
    # the job's time nor the peak RSS depends on when the collector last ran.
    gc.collect()
    start = time.perf_counter()
    out = None
    try:
        out = wl.run(job, traced)
    except Exception as exc:  # a failing job is a result, not a harness error
        result = JobResult(i, label, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}",
                           known=wl.known_failure(job, exc))
    else:
        result = JobResult(i, label, time.perf_counter() - start if wl.in_process else out["wall"])
    finally:
        if patch:
            tracer.end_job()
            tracer.uninstall()
    if traced:
        if patch:
            spans, counts = tracer.spans[first_span:], tracer.counts.get(i, {})
        else:
            child = (out or {}).get("spans") or {"spans": [], "counts": {}}
            spans, counts = child["spans"], child["counts"].get(out["dir"].name, {}) if out else {}
            tracer.spans.extend(spans)
        result.trace = job_layers(spans, counts, result.wall)
    if out is not None:
        try:
            result.err_ratio = wl.check(job, out)
        except CheckFailed as exc:
            result.error = f"check: {exc}"
    return result


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "not_controlled": "CPU frequency scaling and CPU pinning",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frontals" / "__init__.py").is_file():
        print(f"error: no frontals package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path[:0] = [str(HERE), str(SRC)]

    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = [measure_setup()]
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    # Import what the jobs use, then freeze the collector's view of it, so the
    # collection before each job visits only objects made since.
    import gen  # noqa: F401

    if wl.in_process:
        import frontals.cli  # noqa: F401
    gc.collect()
    gc.freeze()

    probe = wl.defect_probe()
    results, untraced = [], []
    skipped = 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or (tracer is not None and i < wl.window):
        if len(setups) < SETUP_REPEATS * (time.perf_counter() - start) / args.seconds:
            setups.append(measure_setup())
        made = wl.make(i)
        if made is None:
            skipped += 1
            i += 1
            continue
        label, job = made
        if tracer is None:
            results.append(run_job(wl, None, i, label, job))
        else:
            # Each input runs traced and untraced, alternating which goes first.
            pair = [(tracer, results), (None, untraced)]
            for tr, sink in pair if i % 2 == 0 else pair[::-1]:
                sink.append(run_job(wl, tr, i, label, job))
        i += 1

    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup())
    for leftover in workdir.glob("input*.csv"):
        leftover.unlink()
    everything = results + untraced
    failures = [r for r in everything if r.error]
    passed = [r for r in results if not r.error]
    known_defects = sum(r.known for r in probe)
    correct = not failures and all(r.known or not r.error for r in probe)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    print("env " + json.dumps(environment(), sort_keys=True))
    for r in failures:
        print(f"failed (UNEXPECTED): seed {args.seed} job {r.index} [{r.label}]: {r.error[:300]}")
    print(f"jobs: {len(everything)} attempted, {len(failures)} failed, "
          f"fail_ratio {len(failures) / max(len(everything), 1):.4f} (ratio)")
    if probe or skipped:
        print(f"known-defect regime (growth >= {KNOWN_GROWTH:g}): {skipped} inputs of this seed left out of "
              f"the timed loop; the probe's {len(probe)} fixed inputs (seed {PROBE_SEED}) follow")
    for r in probe:
        kind = "passed" if not r.error else "known defect" if r.known else "UNEXPECTED"
        print(f"probe ({kind}): seed {PROBE_SEED} job {r.index} [{r.label}]" + (f": {r.error[:300]}" if r.error else ""))

    if tracer is None:
        import numpy as np

        walls = [r.wall for r in passed]
        errs = [r.err_ratio for r in passed]
        if not walls:
            print("error: no job completed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(setups),
            "job_p50_s": float(np.percentile(walls, 50)),
            "job_p90_s": float(np.percentile(walls, 90)),
            "jobs_per_s": len(walls) / sum(walls),
            "pass_ratio": len(passed) / len(results),
            "peak_rss_mb": peak_rss_mb,
            "err_ratio_p90": float(np.percentile(errs, 90)),
        }
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        print(f"samples: {len(walls)} completed jobs (job_p50_s, job_p90_s, err_ratio_p90); "
              f"{SETUP_REPEATS} interpreter starts (setup_s)")
        print(f"max_err_ratio = {max(errs)!r} ratio (worst job; not declared, see NOTES.md)")
    else:
        tracer.dump(workdir / "spans.json")
        window = [r.trace for r in results if r.index < wl.window]
        med_traced = statistics.median(r.wall for r in results)
        med_untraced = statistics.median(r.wall for r in untraced)
        metrics = layer_metrics(window, med_traced / med_untraced - 1.0, known_defects)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        print(f"samples: {len(window)} traced jobs in the count window, "
              f"{len(results)} traced / {len(untraced)} untraced jobs for trace.overhead_ratio")

    if set(metrics) != set(units):
        raise SystemExit(f"harness self-check failed: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
