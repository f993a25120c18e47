"""Bounded, derandomized fuzz of the CLI's input checks.

Every generated job is malformed in one place: a curve spec, a numeric flag,
an angle literal, a CSV row or a job-file field.  Each must be rejected with
exit status 2 and a one-line frontals message, never a traceback or an
exception escaping `main`.
"""

import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals.cli import _FIELDS, CURVE_PARAMS, main
from frontals.curves import MAX_SAMPLES

NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e999", "NaN", "Infinity"])
# Never a number: the trailing letter breaks both float() and the angle syntax.
NOT_A_NUMBER = st.text(alphabet="0123456789.eE+-pi/ ", max_size=6).map(lambda s: s + "q")
MALFORMED_NUMBER = st.one_of(NON_FINITE, NOT_A_NUMBER)
SAMPLES = ["--samples", "64"]


@st.composite
def curve_spec_cases(draw):
    kind = draw(st.sampled_from(sorted(CURVE_PARAMS)))
    accepted = CURVE_PARAMS[kind]
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
        .filter(lambda k: k not in CURVE_PARAMS and k != "csv").map(lambda k: f"{k}:a=1"),
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
    if field == "outputs":
        value = draw(st.one_of(st.lists(st.text(), max_size=2), st.booleans(), st.integers(),
                               st.dictionaries(st.just("csv"), st.integers(), min_size=1)))
    elif field in ("theta", "tau", "lambda0", "lambda_slope"):
        value = draw(st.one_of(wrong_kind, MALFORMED_NUMBER, st.sampled_from([math.nan, math.inf])))
    elif field in ("mode", "periodic"):
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
