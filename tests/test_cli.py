import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from frontals import cli, curves, legendre, mates, svgplot
from frontals import io as fio
from frontals.cli import JobSpec, main, parse_angle, parse_job, run_job
from frontals.curves import MAX_SAMPLES, build_sampled
from frontals.legendre import astroid_frontal, circle_frontal
from frontals.svgplot import render_svg


class TestParsing:
    def test_parse_angle_literals(self):
        assert parse_angle("pi") == math.pi
        assert parse_angle("pi/2") == math.pi / 2
        assert parse_angle("pi/3") == math.pi / 3
        assert parse_angle("pi/4") == math.pi / 4
        assert parse_angle("-pi/4") == -math.pi / 4
        assert parse_angle("2pi") == 2 * math.pi
        assert parse_angle("0.75") == 0.75
        with pytest.raises(ValueError):
            parse_angle("two pi")

    def test_parse_curvature_job(self):
        spec = parse_job(["curvature", "--curve", "circle:r=1"])
        assert spec.operator == "curvature"
        assert spec.curve == "circle:r=1"
        assert spec.n_samples == 1024 and spec.lambda0 == 0.0 and spec.mode == "auto"

    def test_parse_involute_style_mate_job(self):
        spec = parse_job(
            ["mate", "--curve", "astroid", "--theta", "pi/2", "--tau", "0", "--lambda0", "0.75"]
        )
        assert spec.theta == math.pi / 2 and spec.tau == 0.0 and spec.lambda0 == 0.75

    def test_algebraic_mode_requires_perpendicular_tau(self):
        with pytest.raises(ValueError, match="algebraic"):
            parse_job(
                ["mate", "--curve", "circle:r=1", "--tau", "pi/3", "--theta", "pi/2",
                 "--mode", "algebraic"]
            )

    def test_ode_mode_rejected_at_parse_time(self):
        # cos(tau) = 0 for the evolute: the job fails before any curve is built
        with pytest.raises(ValueError, match="ode mode requires"):
            parse_job(["evolute", "--curve", "circle:r=1", "--mode", "ode"])

    @pytest.mark.parametrize("argv,code,message", [
        (["evolute", "--mode", "ode"], 2, "ode mode requires"),
        (["evolute", "--mode", "algebraic"], 0, None),
        (["involute", "--mode", "algebraic"], 2, "algebraic mode requires"),
    ])
    def test_named_operators_honour_mode(self, argv, code, message, capsys):
        assert main([*argv, "--curve", "circle:r=1", "--samples", "256"]) == code
        if message is not None:
            assert message in capsys.readouterr().err

    def test_missing_operator_parameter(self):
        with pytest.raises(ValueError, match="requires"):
            parse_job(["evolutoid", "--curve", "circle:r=1"])

    def test_unknown_operator_is_an_invalid_choice(self, capsys):
        assert main(["nosuchop", "--curve", "astroid"]) == 2
        assert "argument operator: invalid choice: 'nosuchop'" in capsys.readouterr().err

    def test_missing_operator(self, capsys):
        assert main(["--curve", "astroid"]) == 2
        assert capsys.readouterr().err == "error: the following arguments are required: operator\n"

    def test_operator_help_exits_0(self):
        out = subprocess.run([sys.executable, "-m", "frontals.cli", "roundtrip", "--help"], env=_source_env(),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: frontals")

    def test_every_named_operator_is_a_subcommand(self):
        for name, (_, required) in mates.OPERATOR_TABLE.items():
            angles = [] if required is None else [f"--{required}", "pi/4"]
            assert parse_job([name, "--curve", "circle:r=1", *angles]).operator == name

    @pytest.mark.parametrize("name", ["evolutoid", "involutoid", "nvolute", "tvolute"])
    def test_missing_angle_message_is_shared(self, name, capsys):
        with pytest.raises(ValueError, match="requires") as exc:
            mates.special_operator(circle_frontal(1.0), name)
        assert main([name, "--curve", "circle:r=1"]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_job_file_with_flag_override(self, tmp_path):
        job = {"curve": "circle:r=2", "theta": "pi/2", "tau": 0, "lambda0": 0.1, "samples": 256}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        spec = parse_job(["mate", "--job", str(path), "--lambda0", "0.9"])
        assert spec.curve == "circle:r=2"
        assert spec.n_samples == 256
        assert spec.lambda0 == 0.9  # flag wins over job file
        assert spec.theta == math.pi / 2


class TestRunJob:
    def test_circle_evolute_collapses_in_csv(self, tmp_path):
        out = tmp_path / "ev.csv"
        spec = JobSpec(curve="circle:r=1", operator="evolute", outputs={"csv": str(out)})
        report = run_job(spec)
        assert report.passed
        _, cols = fio.read_csv_columns(out)
        assert np.max(np.abs(cols["x"])) <= 1e-8
        assert np.max(np.abs(cols["y"])) <= 1e-8

    def test_degenerate_mate_is_named_not_a_cusp(self, capsys):
        # the circle's evolute collapses to its centre: beta_bar is 0 on every sample
        assert main(["evolute", "--curve", "circle:r=1", "--samples", "256"]) == 0
        out = capsys.readouterr().out
        assert "degenerate evolute: beta vanishes on every grid sample" in out
        assert not [line for line in out.splitlines() if line.startswith("cusp ")]

    def test_straight_line_reports_no_inflection(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 200)
        fio.write_curve_csv(tmp_path / "line.csv", t, np.stack((0.3 + 1.7 * t, -0.2 + 0.9 * t), axis=-1))
        for curve, label in (("line:dx=1", "line"), (f"csv:{tmp_path / 'line.csv'}", str(tmp_path / "line.csv"))):
            assert main(["cusps", "--curve", curve, "--samples", "32"]) == 0
            out = capsys.readouterr().out
            assert f"straight {label}: the normal turns by at most 1e-09 rad, so no inflection is reported" in out
            assert "inflections at" not in out

    def test_json_report_matches_stdout(self, tmp_path, capsys):
        # y = sin x on [0, 2 pi] inflects at 0, pi and 2 pi
        t = np.linspace(0.0, 2.0 * math.pi, 512)
        fio.write_curve_csv(tmp_path / "sine.csv", t, np.stack((t, np.sin(t)), axis=-1))
        report = tmp_path / "report.json"
        assert main(["cusps", "--curve", f"csv:{tmp_path / 'sine.csv'}", "--json-report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert sorted(payload) == ["checks", "cusps", "inflections", "wall_time"]
        [line] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("inflections at ")]
        assert line == "inflections at " + ", ".join(f"{z:.9g}" for z in payload["inflections"])
        assert min(abs(z - math.pi) for z in payload["inflections"]) <= 1e-8

    @pytest.mark.parametrize("curve", ["circle:r=3", "csv"])
    def test_inexact_circle_evolute_reports_no_cusp(self, curve, tmp_path, capsys):
        # Unlike r=1, these evolutes carry rounding noise, so beta_bar is not
        # exactly 0 and `degenerate` would not fire.  Today the mate tangency
        # gate refuses them first: its floor is tied to the vanishing mate
        # speed (ROADMAP item 4).  A fix of that floor changes the exit status
        # here, but must still report no cusp of the collapsed curve.
        if curve == "csv":
            t = np.arange(256) * (2.0 * math.pi / 256)
            rows = "".join(f"{float(a)!r},{3.0 * math.cos(a)!r},{3.0 * math.sin(a)!r}\n" for a in t)
            (tmp_path / "circle.csv").write_text("t,x,y\n" + rows)
            curve = f"csv:{tmp_path / 'circle.csv'}"
        assert main(["evolute", "--curve", curve, "--samples", "256"]) == 2
        captured = capsys.readouterr()
        assert "mate violates tangency" in captured.err
        assert not [line for line in captured.out.splitlines() if line.startswith("cusp ")]

    def test_astroid_cusp_scan(self):
        report = run_job(JobSpec(curve="astroid", operator="cusps"))
        assert report.passed
        assert len(report.cusps) == 4
        assert all(c.kind == "cusp_3_2" for c in report.cusps)

    def test_roundtrip_job(self):
        spec = JobSpec(curve="astroid", operator="roundtrip", theta=math.pi / 2, tau=0.0, lambda0=0.75)
        report = run_job(spec)
        assert report.passed
        assert report.checks["roundtrip_position"]["max_residual"] <= 1e-6
        assert report.checks["roundtrip_normal"]["max_residual"] <= 1e-8

    def test_growing_lambda_passes_the_scaled_residual_gate(self, capsys):
        # lambda grows by about e^(2 pi) here; an absolute tolerance of
        # ODE_TOL_SCALE * max(max|beta|, 1) refused it (residual 7.45e-07 > 2e-07)
        argv = ["involutoid", "--curve", "ellipse:a=2,b=1", "--tau", "pi/4", "--lambda0", "0.4"]
        assert main(argv) == 0
        assert "PASS lambda_residual" in capsys.readouterr().out

    def test_check_regular_job(self):
        spec = JobSpec(
            curve="circle:r=1", operator="check-regular",
            theta=math.pi / 2, tau=math.pi / 2, lambda0=0.5,
        )
        report = run_job(spec)
        assert report.passed

    def test_check_regular_hinge_uses_the_report_threshold(self, capsys):
        # condition 2 is 1 + lambda' = 1.5e-7: above REG_TOL_SCALE * extent / arc
        # length = 1e-7, the threshold of is_mate, and below the 2e-7 that the
        # line's parameter length (half its arc length) would give
        argv = ["check-regular", "--curve", "line:dx=2", "--lambda-slope", "-0.99999985"]
        assert main(argv) == 0
        assert "PASS mate_regularity" in capsys.readouterr().out

    def test_csv_reingestion_matches_builtin(self, tmp_path):
        lc = astroid_frontal(512)
        ts = lc.interval.grid
        path = tmp_path / "ast.csv"
        fio.write_frontal_csv(path, ts, lc.gamma.position(ts), lc.nu(ts))
        report = run_job(JobSpec(curve=f"csv:{path}", operator="cusps", n_samples=512))
        assert report.passed
        assert len(report.cusps) == 4

    def test_open_mate_csv_passes_the_ell_kappa_relation(self, tmp_path):
        # lambda grows over the period, so the astroid's mate does not close.
        # Read back as an open curve, its end samples failed the relation
        # (residual 3.27e-4 > 1e-4) while d2 there differenced d1 twice.
        out = tmp_path / "rt.csv"
        assert main(["roundtrip", "--curve", "astroid", "--samples", "512", "--theta", "0.3", "--tau", "0.2",
                     "--lambda0", "0.5", "--out", str(out)]) == 0
        report = run_job(JobSpec(curve=f"csv:{out}", operator="cusps", periodic="no"))
        assert report.checks["ell_kappa_relation"]["pass"] and report.passed

    def test_curvature_pair_csv_export(self, tmp_path):
        out = tmp_path / "pair.csv"
        report = run_job(JobSpec(curve="circle:r=2", operator="curvature", outputs={"csv": str(out)}))
        assert report.passed
        header, cols = fio.read_csv_columns(out)
        assert header == ["t", "ell", "beta"]
        assert np.max(np.abs(cols["ell"] - 1.0)) <= 1e-12
        assert np.max(np.abs(cols["beta"] - 2.0)) <= 1e-12

    def test_plot_job_writes_svg_with_markers(self, tmp_path):
        svg = tmp_path / "ast.svg"
        report = run_job(JobSpec(curve="astroid", operator="plot", outputs={"svg": str(svg)}))
        assert report.passed
        doc = svg.read_text()
        assert doc.count("<path") == 1
        assert doc.count("<circle") == 4  # one marker per cusp

    @pytest.mark.parametrize("operator,extra", [
        ("mate", {"theta": math.pi / 2, "tau": 0.0, "lambda0": 0.2}),
        ("evolute", {}),
        ("involute", {"lambda0": 0.2}),
        ("parallel", {"lambda0": 0.3}),
        ("evolutoid", {"theta": math.pi / 4}),
        ("involutoid", {"tau": math.pi / 4, "lambda0": 1.1}),
        ("nvolute", {"theta": math.pi / 3, "lambda0": -1.9}),
        ("tvolute", {"tau": math.pi / 3, "lambda0": 2.0 / math.sqrt(3.0)}),
    ])
    def test_every_mate_subcommand_runs_clean(self, operator, extra):
        report = run_job(JobSpec(curve="circle:r=1", operator=operator, n_samples=512, **extra))
        assert report.passed, report.checks

    @pytest.mark.parametrize("argv", [
        ["roundtrip", "--curve", "astroid", "--theta", "pi/2", "--tau", "0", "--lambda0", "0.75"],
        ["evolute", "--curve", "ellipse:a=2,b=1"],
    ])
    def test_one_source_pair_per_job(self, monkeypatch, argv):
        """The source pair is computed once; the second call is the direct
        measurement on the mate that the curvature cross-check compares."""
        calls = []
        counted = lambda lc, _f=legendre.legendre_curvature: calls.append(lc) or _f(lc)
        for module in (cli, legendre, mates):
            monkeypatch.setattr(module, "legendre_curvature", counted)
        assert main(argv) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("normals", [False, True])
    def test_roundtrip_interpolates_only_off_grid_values(self, tmp_path, monkeypatch, normals):
        """Grid values are read from the samples a model holds: every read of
        values (not derivatives) through the local quintic kernel includes a
        time between the grid nodes."""
        if normals:
            lc = astroid_frontal(1024)
            ts = lc.interval.grid
            fio.write_frontal_csv(tmp_path / "in.csv", ts, lc.gamma.position(ts), lc.nu(ts))
            angles = ["--theta", "pi/2", "--tau", "0", "--lambda0", "0.75"]
        else:
            ts = np.arange(1024) * (2.0 * math.pi / 1024)
            fio.write_curve_csv(tmp_path / "in.csv", ts, np.stack((2.0 * np.cos(ts), np.sin(ts)), axis=-1))
            angles = ["--theta", "0.4", "--tau", "0.3", "--lambda0", "0.2"]
        value_reads = []

        def tracked(values, cells, x, periodic, nu=0, h=1.0, _kernel=curves.local_quintic):
            if not isinstance(nu, tuple) and nu == 0:
                value_reads.append(np.asarray(x))
            return _kernel(values, cells, x, periodic, nu, h)

        for module in (curves, legendre, mates):
            monkeypatch.setattr(module, "local_quintic", tracked)
        argv = ["roundtrip", "--curve", f"csv:{tmp_path / 'in.csv'}", *angles,
                "--out", str(tmp_path / "out.csv"), "--svg", str(tmp_path / "out.svg")]
        assert main(argv) == 0
        assert value_reads and all(np.any(x % 1.0 != 0.0) for x in value_reads)

    def test_outputs_are_deterministic(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            csv_p = tmp_path / f"{tag}.csv"
            svg_p = tmp_path / f"{tag}.svg"
            spec = JobSpec(
                curve="astroid", operator="involute", lambda0=0.75,
                outputs={"csv": str(csv_p), "svg": str(svg_p)},
            )
            run_job(spec)
            blobs.append((csv_p.read_bytes(), svg_p.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_exit_codes(self, tmp_path, monkeypatch, capsys):
        assert main(["curvature", "--curve", "circle:r=1"]) == 0
        assert main(["curvature", "--curve", "nonsense:q=1"]) == 2
        # a report with a failing check exits 1
        from frontals.cli import RunReport
        import frontals.cli as cli

        monkeypatch.setattr(
            cli, "run_job",
            lambda spec: RunReport(
                checks={"bad": {"max_residual": 1.0, "tolerance": 0.1, "pass": False}},
                cusps=[], inflections=[], wall_time=0.0,
            ),
        )
        assert cli.main(["curvature", "--curve", "circle:r=1"]) == 1

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # The reader goes away before the summary is printed: no traceback.
        proc = subprocess.Popen([sys.executable, "-m", "frontals.cli", "cusps", "--curve", "astroid"], cwd=tmp_path,
                                env=_source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""


def _source_env() -> dict:
    """The environment with this checkout's frontals first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(code: str, cwd=None) -> subprocess.CompletedProcess:
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_source_env(), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    return out


def test_import_leaves_scipy_integrate_out():
    # No scipy module at all, scipy.integrate among them.
    out = _python("import sys, frontals, frontals.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.stdout.strip() == "[]"


def test_import_leaves_xml_and_network_modules_out():
    # xml.sax.saxutils alone pulls in urllib.request, http.client and email.
    # numpy's own import may load urllib.parse (through pathlib): count only
    # what frontals.cli adds on top of numpy.
    out = _python("import sys, numpy\nbefore = set(sys.modules)\nimport frontals.cli\n"
                  "print(sorted(m for m in set(sys.modules) - before "
                  "if m.split('.')[0] in ('xml', 'urllib', 'http', 'email')))")
    assert out.stdout.strip() == "[]"


def test_cli_runs_without_scipy(tmp_path):
    lc = astroid_frontal(512)
    fio.write_frontal_csv(tmp_path / "astroid.csv", lc.interval.grid, lc.gamma.on_grid("position"), lc.on_grid("nu"))
    jobs = [
        ["cusps", "--curve", "astroid"],
        ["roundtrip", "--curve", "ellipse:a=2,b=1", "--theta", "0", "--tau", "0", "--lambda0", "0.1"],
        ["involute", "--curve", "csv:astroid.csv", "--periodic", "yes", "--lambda0", "0.75"],
        ["check-regular", "--curve", "ellipse:a=2,b=1", "--theta", "pi/2", "--tau", "pi/2", "--lambda0", "0.1"],
    ]
    code = f"import sys; sys.modules['scipy'] = None\nfrom frontals import cli\nprint([cli.main(a) for a in {jobs!r}])"
    out = _python(code, cwd=tmp_path)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0]", out.stdout + out.stderr


class TestSolverFailure:
    """A valid job whose solve fails its own check exits 1, not 2."""

    def test_pointwise_solve_without_curvature(self, capsys):
        assert main(["evolute", "--curve", "line:dx=1", "--samples", "64"]) == 1
        assert capsys.readouterr().err.startswith("error: evolute needs ell != 0")

    def test_residual_error(self, monkeypatch, capsys):
        def failing(pair, config, extent=1.0):
            raise mates.ResidualError("condition residual 1 exceeds 1e-07 at t = 0")

        monkeypatch.setattr(mates, "solve_lambda", failing)
        assert main(["involute", "--curve", "astroid", "--lambda0", "0.75", "--samples", "64"]) == 1
        assert capsys.readouterr().err == "error: condition residual 1 exceeds 1e-07 at t = 0\n"


class TestMalformedInput:
    """Malformed input exits 2 with a frontals message, never a traceback."""

    @staticmethod
    def assert_rejected(argv, capsys, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_job_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(["circle:r=1"]))
        self.assert_rejected(["curvature", "--job", str(path)], capsys, f"{path}: job file must hold a JSON object")

    def test_job_file_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        self.assert_rejected(["mate", "--job", str(path)], capsys, f"{path}: not valid JSON (line 1, column 2")

    def test_job_file_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"curve": "astroid", "thetta": 1, "lamda0": 3}))
        self.assert_rejected(["cusps", "--job", str(path)], capsys,
                             f"{path}: unknown field 'thetta'; a job file accepts curve, theta, tau, lambda0, "
                             "lambda_slope, mode, samples, periodic, outputs")

    def test_job_file_unknown_output(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"curve": "astroid", "outputs": {"cvs": "typo.csv", "json": "r.json"}}))
        self.assert_rejected(["cusps", "--job", str(path)], capsys,
                             f"{path}: unknown output 'cvs'; outputs accepts csv, svg, json_report")

    @pytest.mark.parametrize("curve, message", [
        ("circle:r=1e200", "circle parameter r=1e+200"),
        ("circle:r=1,cx=-1e200", "circle parameter cx=-1e+200"),
        ("ellipse:a=1e200,b=1", "ellipse parameter a=1e+200"),
        ("astroid:a=1e200", "astroid parameter a=1e+200"),
        ("line:dx=1e90,t1=1e90", "line parameter dx=1e+90"),
    ])
    def test_huge_curve_parameter(self, capsys, curve, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            self.assert_rejected(["cusps", "--curve", curve, "--samples", "64"], capsys,
                                 f"{message} makes the curve samples overflow")

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_angle_flag(self, theta, capsys):
        argv = ["mate", "--curve", "circle:r=1", f"--theta={theta}", "--tau", "0"]
        self.assert_rejected(argv, capsys, "is not finite")

    def test_non_finite_angle_in_job_file(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"curve": "circle:r=1", "theta": float("nan"), "tau": 0}))
        self.assert_rejected(["mate", "--job", str(path)], capsys, "angle nan is not finite")

    @pytest.mark.parametrize("row, message", [
        ("0.5,nan,0", "data row 2 holds a non-finite value"),
        ("0.5,1,-inf", "data row 2 holds a non-finite value"),
        ("0.5,1", "data row 2 has 2 fields, the header has 3"),
        ("0.5,1,0,7", "data row 2 has 4 fields, the header has 3"),
        ("0.5,one,0", "data row 2 holds a non-numeric value"),
        pytest.param("a" * 140000 + ",1,0", "data row 2 is unreadable: field larger than field limit",
                     id="oversized-field"),
    ])
    def test_malformed_csv_row(self, tmp_path, capsys, row, message):
        path = tmp_path / "curve.csv"
        path.write_text(f"t,x,y\n0,1,0\n{row}\n1,0,1\n")
        self.assert_rejected(["curvature", "--curve", f"csv:{path}"], capsys, f"{path}: {message}")

    def test_oversized_csv_header(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_text("t" * 140000 + ",x,y\n0,1,0\n")
        self.assert_rejected(["curvature", "--curve", f"csv:{path}"], capsys,
                             f"{path}: the header is unreadable: field larger than field limit")

    def test_periodic_csv_must_close(self, tmp_path, capsys):
        # a half circle: the ends lie 2 apart, far beyond 3 grid steps
        path = tmp_path / "arc.csv"
        ts = np.linspace(0.0, math.pi, 64)
        fio.write_curve_csv(path, ts, np.stack((np.cos(ts), np.sin(ts)), axis=-1))
        self.assert_rejected(["cusps", "--curve", f"csv:{path}", "--periodic", "yes"], capsys,
                             "periodic interval but curve does not close (gap 2)")

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_text("")
        self.assert_rejected(["curvature", "--curve", f"csv:{path}"], capsys, f"{path}: no data rows")

    @pytest.mark.parametrize("text", ["", "t,x,y\n"])
    def test_empty_csv_shows_no_numpy_warning(self, tmp_path, text):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        out = subprocess.run([sys.executable, "-W", "error", "-m", "frontals.cli", "curvature", "--curve",
                              f"csv:{path}"], env=_source_env(), capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert out.stderr == f"error: {path}: no data rows\n"

    @pytest.mark.parametrize("field, value, message", [
        ("curve", 5, "field 'curve' must be a string, got int"),
        ("theta", [1], "field 'theta' must be a string or number, got list"),
        ("lambda0", [1], "field 'lambda0' must be a string or number, got list"),
        ("outputs", 3, "field 'outputs' must be an object of path strings"),
        ("periodic", "maybe", "field 'periodic' must be one of auto, yes, no, got 'maybe'"),
        ("samples", True, "field 'samples' must be a string or integer, got bool"),
        ("samples", "abc", "field 'samples': invalid literal for int()"),
    ])
    def test_job_file_field_type(self, tmp_path, capsys, field, value, message):
        job = {"curve": "circle:r=1", "theta": "pi/2", "tau": 0, field: value}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        self.assert_rejected(["mate", "--job", str(path)], capsys, f"{path}: {message}")

    @pytest.mark.parametrize("curve, message", [
        ("ellipse:a=abc", "curve parameter a='abc' is not a number"),
        ("line:dx=inf", "curve parameter dx=inf is not finite"),
        ("ellipse:a=2,b=nan", "curve parameter b=nan is not finite"),
        ("circle:r=1,foo=3", "circle takes no parameter 'foo'; it accepts r, cx, cy"),
        ("astroid:t1=3", "astroid takes no parameter 't1'; it accepts a"),
        ("line:dx", "bad curve parameter 'dx'; expected key=value"),
    ])
    def test_malformed_curve_parameter(self, capsys, curve, message):
        self.assert_rejected(["cusps", "--curve", curve, "--samples", "64"], capsys, message)

    @pytest.mark.parametrize("argv, message", [
        (["involute", "--curve", "astroid", "--lambda0", "nan"], "lambda0 must be finite, got nan"),
        (["involute", "--curve", "astroid", "--lambda0", "1e400"], "lambda0 must be finite, got inf"),
        (["check-regular", "--curve", "circle:r=1", "--lambda-slope", "nan"], "lambda_slope must be finite, got nan"),
        (["mate", "--curve", "circle:r=1", "--theta", "pi/0", "--tau", "0"], "angle 'pi/0' is not finite"),
        (["cusps", "--curve", "circle:r=1", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
    ])
    def test_malformed_number_flag(self, capsys, argv, message):
        self.assert_rejected(argv, capsys, message)

    @pytest.mark.parametrize("field, value, message", [
        ("lambda0", float("nan"), "lambda0 must be finite, got nan"),
        ("lambda_slope", "-inf", "lambda_slope must be finite, got -inf"),
    ])
    def test_non_finite_scale_in_job_file(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"curve": "circle:r=1", "theta": 0, "tau": 0, field: value}))
        self.assert_rejected(["check-regular", "--job", str(path)], capsys, message)

    def test_sample_count_above_bound(self, capsys):
        tracemalloc.start()
        try:
            self.assert_rejected(["cusps", "--curve", "circle:r=1", "--samples", "2000000000"], capsys,
                                 f"at most {MAX_SAMPLES} samples are supported, got 2000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # rejected before any grid is allocated


class TestCsvRoundTrip:
    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 64)
        pts = rng.normal(size=(64, 2))
        path = tmp_path / "curve.csv"
        fio.write_curve_csv(path, ts, pts)
        ts2, pts2, normals = fio.read_curve_csv(path)
        assert normals is None
        assert np.array_equal(ts, ts2)
        assert np.array_equal(pts, pts2)

    def test_sampled_model_round_trip(self, tmp_path):
        ts = np.linspace(0.0, 1.0, 64)
        pts = np.stack((np.cos(ts), np.sin(2 * ts)), axis=-1)
        c = build_sampled(ts, pts)
        path = tmp_path / "c.csv"
        fio.write_curve_csv(path, ts, c.position(ts))
        _, pts2, _ = fio.read_curve_csv(path)
        c2 = build_sampled(ts, pts2)
        rel = np.max(np.linalg.norm(c2.position(ts) - c.position(ts), axis=-1))
        assert rel <= 1e-12

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            fio.read_curve_csv(path)


class TestSvg:
    def test_curves_and_markers(self):
        t = np.linspace(0, 2 * math.pi, 128)
        ast = np.stack((np.cos(t) ** 3, np.sin(t) ** 3), axis=-1)
        ev = 3.0 * np.stack((np.cos(t), np.sin(t)), axis=-1)
        markers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        doc = render_svg([("astroid", ast), ("evolute", ev)], markers)
        assert doc.count("<path") == 2
        assert doc.count("<circle") == 4
        assert "viewBox=" in doc

    def test_degenerate_point_renders_as_marker(self):
        pts = np.zeros((16, 2))
        doc = render_svg([("point", pts)])
        assert "<path" not in doc
        assert doc.count("<circle") == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_svg([])

    def test_labels_are_escaped(self):
        # a CSV curve is labelled by its path, which may hold XML metacharacters
        t = np.linspace(0, 1, 32)
        labels = ["a&b<1>.csv", "p<&>"]
        doc = render_svg([(labels[0], np.stack((t, t**2), axis=-1)), (labels[1], np.zeros((4, 2)))])
        titles = ElementTree.fromstring(doc.encode()).iter("{http://www.w3.org/2000/svg}title")
        assert [el.text for el in titles] == labels

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 3e4])
    def test_coordinates_within_half_a_written_decimal(self, scale):
        t = np.linspace(0, 2 * math.pi, 200)
        ast = scale * np.stack((np.cos(t) ** 3 + 0.3, np.sin(t) ** 3), axis=-1)
        ev = scale * np.stack((2.0 * np.cos(t), np.sin(t) - 0.7), axis=-1)
        point = np.full((5, 2), scale * 0.25)
        markers = scale * np.array([[1.3, 0.0], [0.3, 1.0 / 3.0]])
        root = ElementTree.fromstring(render_svg([("a", ast), ("e", ev), ("p", point)], markers).encode())
        ns = "{http://www.w3.org/2000/svg}"
        side = max(float(v) for v in root.get("viewBox").split()[2:])
        written, true = [], []
        for path, pts in zip(root.iter(f"{ns}path"), (ast, ev)):
            pairs = path.get("d")[len("M "):].split(" L ")
            assert len(pairs) == len(pts)
            written += [tuple(pair.split(",")) for pair in pairs]
            true += pts.tolist()
        circles = list(root.iter(f"{ns}circle"))
        assert len(circles) == 1 + len(markers)
        written += [(c.get("cx"), c.get("cy")) for c in circles]
        true += [point[0].tolist(), *markers.tolist()]
        decimals = {len(v.partition(".")[2]) for pair in written for v in pair}
        assert len(decimals) == 1
        step = 10.0 ** -decimals.pop()
        assert step <= side / 64000 < 10 * step or step == 1.0  # 1/100 px of the 640-px picture
        got = np.array(written, dtype=float) * (1.0, -1.0)  # y is written flipped
        assert np.all(np.abs(got - np.array(true)) <= 0.5 * step + 4 * np.finfo(float).eps * np.abs(got))

    def test_escape_matches_saxutils(self):
        from xml.sax.saxutils import escape

        corpus = ["", "plain.csv", "a&b<1>.csv", "&amp;", "<<>>&&", "x>y", "quote\"'", "tab\tnew\nline", "é&ü"]
        assert [svgplot._escape(label) for label in corpus] == [escape(label) for label in corpus]

    def test_byte_identical_for_identical_input(self):
        t = np.linspace(0, 1, 32)
        pts = np.stack((t, t**2), axis=-1)
        assert render_svg([("p", pts)]) == render_svg([("p", pts)])
