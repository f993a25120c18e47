"""Bounded, derandomized fuzz of the CLI's input checks.

Every generated job is malformed in one place: a curve spec, a numeric flag,
an angle literal, a CSV row or a job-file field.  Each must be rejected with
exit status 2 and a one-line frontals message, never a traceback or an
exception escaping `main`.  A well-formed job file must parse to the same
job as the equivalent flags.  The CSV reader's loadtxt path must agree with
the row-by-row reader on every fuzzed file, accepted or rejected.
"""

import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals import io as fio
from frontals.cli import _FIELDS, main, parse_job
from frontals.curves import BUILTINS, MAX_SAMPLES

NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e999", "NaN", "Infinity"])
# Never a number: the trailing letter breaks both float() and the angle syntax.
NOT_A_NUMBER = st.text(alphabet="0123456789.eE+-pi/ ", max_size=6).map(lambda s: s + "q")
MALFORMED_NUMBER = st.one_of(NON_FINITE, NOT_A_NUMBER)
# A JSON integer of 310 to 400 digits: beyond the float range, within int()'s digit limit.
HUGE_INTEGER = st.builds(lambda sign, lead, e: sign * lead * 10**e, st.sampled_from([1, -1]), st.integers(1, 9),
                         st.integers(309, 399))
SAMPLES = ["--samples", "64"]


@st.composite
def curve_spec_cases(draw):
    kind = draw(st.sampled_from(sorted(BUILTINS)))
    accepted = list(BUILTINS[kind].defaults)
    key = draw(st.sampled_from(accepted))
    item = draw(st.one_of(
        MALFORMED_NUMBER.map(lambda v: f"{key}={v}"),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
        .filter(lambda k: k not in accepted).map(lambda k: f"{k}=1"),
        st.just(key),
    ))
    spec = draw(st.one_of(
        st.just(f"{kind}:{item}"),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
        .filter(lambda k: k not in BUILTINS and k != "csv").map(lambda k: f"{k}:a=1"),
    ))
    return ["cusps", f"--curve={spec}", *SAMPLES], {}


@st.composite
def numeric_flag_cases(draw):
    flag, argv = draw(st.sampled_from([
        ("--lambda0", ["involute", "--curve", "circle:r=1", *SAMPLES]),
        ("--lambda-slope", ["check-regular", "--curve", "circle:r=1", *SAMPLES]),
        ("--samples", ["cusps", "--curve", "circle:r=1"]),
    ]))
    if flag == "--samples":
        bad = st.one_of(NOT_A_NUMBER, st.integers(-10, 15).map(str),
                        st.integers(MAX_SAMPLES + 1, 10**12).map(str), st.just("64.5"))
    else:
        bad = MALFORMED_NUMBER
    return [*argv, f"{flag}={draw(bad)}"], {}


@st.composite
def angle_cases(draw):
    angle = draw(st.one_of(MALFORMED_NUMBER, st.sampled_from(["pi/0", "-2pi/0.0", "pi pi", "pi/"])))
    which = draw(st.sampled_from(["theta", "tau"]))
    other = "tau" if which == "theta" else "theta"
    return ["mate", "--curve", "circle:r=1", f"--{which}={angle}", f"--{other}=0", *SAMPLES], {}


@st.composite
def csv_row_cases(draw):
    ts = np.arange(64) * (2.0 * math.pi / 64)
    rows = [[repr(float(t)), repr(float(np.cos(t))), repr(float(np.sin(t)))] for t in ts]
    k = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["count", "token", "non-finite"]))
    if how == "count":
        size = draw(st.sampled_from([1, 2, 4, 5]))
        rows[k] = (rows[k] * 2)[:size]
    else:
        rows[k][draw(st.integers(0, 2))] = draw(NOT_A_NUMBER if how == "token" else NON_FINITE)
    text = "t,x,y\n" + "".join(",".join(row) + "\n" for row in rows)
    return ["curvature", "--curve=csv:{dir}/curve.csv"], {"curve.csv": text}


@st.composite
def job_file_cases(draw):
    field = draw(st.sampled_from(sorted([*_FIELDS, "outputs"])))
    wrong_kind = st.one_of(st.lists(st.integers(), max_size=2), st.booleans(),
                           st.dictionaries(st.just("k"), st.integers(), min_size=1))
    if field in ("theta", "tau", "lambda0", "lambda_slope", "samples") and draw(st.booleans()):
        value = draw(HUGE_INTEGER)
    elif field == "outputs":
        value = draw(st.one_of(st.lists(st.text(), max_size=2), st.booleans(), st.integers(),
                               st.dictionaries(st.just("csv"), st.integers(), min_size=1)))
    elif field in ("theta", "tau", "lambda0", "lambda_slope"):
        value = draw(st.one_of(wrong_kind, MALFORMED_NUMBER, st.sampled_from([math.nan, math.inf])))
    elif field == "periodic":
        value = draw(st.one_of(wrong_kind, st.sampled_from(["odee", "maybe", ""])))
    else:
        value = draw(wrong_kind)
    job = {"curve": "circle:r=1", "theta": "pi/2", "tau": 0, "samples": 64, field: value}
    return ["mate", "--job={dir}/job.json"], {"job.json": json.dumps(job)}


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.one_of(curve_spec_cases(), numeric_flag_cases(), angle_cases(), csv_row_cases(), job_file_cases()))
def test_malformed_input_exits_2_with_a_message(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [arg.format(dir=tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2, (argv, files, out.getvalue())
    assert err.getvalue().startswith("error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


FLOAT = st.floats(allow_nan=False, allow_infinity=False)
# Valid values of each job-file field, as JSON gives them.
VALID_FIELDS = {
    "curve": st.sampled_from(["circle:r=1", "astroid", "ellipse:a=2,b=1", "line:dx=-1e-05"]),
    "theta": st.one_of(st.sampled_from(["pi", "pi/2", "-pi/4", "2pi", " -3pi / 2 ", "-1e-05"]), FLOAT,
                       st.integers(-10**6, 10**6)),
    "lambda0": st.one_of(FLOAT, st.integers(-10**6, 10**6), FLOAT.map(repr)),
    "samples": st.one_of(st.integers(16, 4096), st.integers(16, 4096).map(lambda n: f" {n}")),
    "periodic": st.sampled_from(["auto", "yes", "no"]),
}
VALID_FIELDS.update(tau=VALID_FIELDS["theta"], lambda_slope=VALID_FIELDS["lambda0"])


def _flag_argv(key, value):
    """The flag that carries a job-file value: a number as its own token, as a
    script would pass it, and text after `=`, since a pi literal may start with -."""
    flag = _FIELDS[key][0]
    return [f"{flag}={value}"] if isinstance(value, str) else [flag, repr(value)]


@st.composite
def equivalent_jobs(draw):
    job = {key: draw(values) for key, values in VALID_FIELDS.items() if key == "curve" or draw(st.booleans())}
    if draw(st.booleans()):
        job["outputs"] = {"svg": "plot.svg"}
    flags = [arg for key, value in job.items() if key != "outputs" for arg in _flag_argv(key, value)]
    flags += ["--svg", "plot.svg"] if "outputs" in job else []
    key = draw(st.sampled_from(sorted(VALID_FIELDS)))
    return job, flags, key, _flag_argv(key, draw(VALID_FIELDS[key]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(equivalent_jobs())
def test_job_file_parses_as_its_flags(case):
    job, flags, key, override = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job))
        assert parse_job(["curvature", "--job", str(path)]) == parse_job(["curvature", *flags])
        overridden = parse_job(["curvature", "--job", str(path), *override])
    assert overridden == parse_job(["curvature", *flags, *override])
    dest = _FIELDS[key][1].get("dest", key)  # the flag wins over the job file
    assert getattr(overridden, dest) == getattr(parse_job(["curvature", "--curve=astroid", *override]), dest)


# CSV body fields: numbers that must keep every bit (-0.0, the smallest
# subnormal, a huge value), numbers only one reader takes (1_0, a quoted
# value), and fields both must refuse.
CSV_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e300", "inf", "-inf", "nan", "1e400", "1_0", '"1"', " 2 ",
                     "+.5", "1.", "", "one", "0x10", "1d5"]),
)
# Whole lines besides data rows.
CSV_ODD_LINES = st.sampled_from(["", "   ", "\t", "#comment", "# 1,2"])


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 4))
    header = ",".join(draw(st.sampled_from(["t", "x", "y", "nx"])) for _ in range(width))
    lines = [header]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(CSV_ODD_LINES))
            continue
        size = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        row = ",".join(draw(CSV_FIELDS) for _ in range(size))
        lines.append(row + ("," if draw(st.integers(0, 7)) == 0 else ""))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _read(reader, path):
    try:
        header, cols = reader(path)
    except ValueError as exc:
        return str(exc)
    return header, {name: (col.shape, col.tobytes()) for name, col in cols.items()}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(csv_files())
def test_csv_reader_matches_the_row_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        path.write_text(text, newline="")
        assert _read(fio.read_csv_columns, path) == _read(fio._read_rows, path), repr(text)


def test_clean_csv_skips_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "curve.csv"
    path.write_text("t,x,y\r\n0.0,-0.0,5e-324\r\n1.0,1e300,2.5\r\n")
    expected = _read(fio._read_rows, path)
    monkeypatch.setattr(fio, "_read_rows", lambda path: pytest.fail("the row reader ran on a clean file"))
    assert _read(fio.read_csv_columns, path) == expected
