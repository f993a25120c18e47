"""Layer tracing for the frontals benchmark, applied from outside the program.

`Tracer.install()` replaces the public functions listed in BOUNDARIES with
wrappers at every binding the program's modules hold (the defining module's
attribute and each `from .x import f` name elsewhere), so calls between
modules and calls from the benchmark both produce spans.  Untraced runs never
call `install()`, so they run the unmodified program.

Spans are kept in memory as (id, parent, job, name, start, end) and written
when the run ends; counts are taken at the same boundaries, and at the
functions in COUNTED, which get no span.  Run as a script,
this module traces one CLI process and writes its spans to a JSON file:

    python3 perfbench/tracing.py SPANS.json JOB_ID -- roundtrip --curve csv:...
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# Functions wrapped with a span, per layer: those behind a declared metric.
# Every other function's time, planar's helpers included, falls into the
# self time of its caller.  cli is entered only through main.
BOUNDARIES = {
    "curves": ("build_builtin", "build_sampled"),
    "legendre": (
        "legendre_curvature", "frontal_from_normal", "frontal_from_samples",
        "classify_singularities", "inflection_points",
    ),
    "mates": (
        "solve_lambda", "build_mate", "verify_mate_curvature", "special_operator",
        "inverse_mate", "compose_mates",
    ),
    "io": ("read_curve_csv", "write_mate_csv", "report_to_json"),
    "svgplot": ("render_svg",),
    "cli": ("main",),
}
# Functions only counted, without a span, so their time stays in their
# callers' self time.
COUNTED = {"mates": ("condition_residual",), "io": ("write_text",)}


class Tracer:
    """In-memory spans and per-job counts for one benchmark run."""

    def __init__(self):
        self.spans = []  # [id, parent, job, name, start, end]
        self.counts = defaultdict(Counter)  # job -> counter name -> value
        self._stack = []
        self._job = None
        self._patched = []  # (module, attribute, original)

    # -- spans -------------------------------------------------------------
    def begin_job(self, job_id) -> None:
        self._job = job_id
        self._stack.clear()

    def end_job(self) -> None:
        self._job = None

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self._job, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    def count(self, name, k=1) -> None:
        if self._job is not None:
            self.counts[self._job][name] += k

    def wrap(self, name, fn, after=None):
        """fn with a span around every call made during a job; `after`
        sees (args, result) to take counts at the same boundary."""
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        import frontals
        from frontals import cli, curves, io, legendre, mates, planar, svgplot

        modules = {"curves": curves, "legendre": legendre, "mates": mates, "io": io,
                   "svgplot": svgplot, "cli": cli}
        holders = [frontals, planar, *modules.values()]
        afters = self._afters()
        for table, spans in ((BOUNDARIES, True), (COUNTED, False)):
            for layer, names in table.items():
                for fname in names:
                    original = getattr(modules[layer], fname)
                    if spans:
                        wrapper = self.wrap(f"{layer}.{fname}", original, afters.get(fname))
                    else:
                        wrapper = self._before(original, afters[fname])
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, attr, wrapper)
        # Spline builds at the names curves, legendre and mates bind.
        for mod in (curves, legendre, mates):
            self._patch(mod, "CubicSpline", self.wrap("curves.spline_build", mod.CubicSpline))
        for fname in ("brentq", "minimize_scalar"):
            self._patch(legendre, fname, self._before(getattr(legendre, fname),
                                                      lambda args: self.count("legendre.root_solves")))
        rk4 = mates._rk4_linear

        def rk4_counted(a_fine, *rest):
            self.count("mates.rk4_steps", (len(a_fine) + 1) // 2 - 1)
            return rk4(a_fine, *rest)

        self._patch(mates, "_rk4_linear", rk4_counted)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, holder, attr, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    @staticmethod
    def _before(fn, hook):
        """fn that first passes its arguments to `hook`; no span."""
        def counted(*args, **kwargs):
            hook(args)
            return fn(*args, **kwargs)

        return counted

    def _afters(self) -> dict:
        def scan(args, reports):
            self.count("legendre.events", len(reports))
            self.count("legendre.cusp_reports", len(reports))
            self.count("legendre.inconclusive", sum(r.kind == "inconclusive" for r in reports))

        def inflections(args, zeros):
            self.count("legendre.events", len(zeros))

        def read(args, result):
            self.count("io.bytes_read", os.path.getsize(args[0]))

        def written(args, result):
            self.count("io.bytes_written", os.path.getsize(args[0]))

        def text(args):
            self.count("io.bytes_written", len(args[1].encode()))

        def attempt(args):
            # An ODE attempt is a residual evaluated directly by solve_lambda.
            if self._stack and self.spans[self._stack[-1]][3] == "mates.solve_lambda":
                self.count("mates.solve_attempts")

        return {"classify_singularities": scan, "inflection_points": inflections, "read_curve_csv": read,
                "write_mate_csv": written, "write_text": text, "condition_residual": attempt}

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": {str(k): v for k, v in self.counts.items()}}, f)


def self_times(spans) -> dict:
    """span id -> duration minus the part its direct children cover.

    Children run inside their parent on one thread, so they never overlap
    and their durations can simply be summed."""
    child_time = Counter()
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, _, _, start, end in spans}


def _trace_cli(argv) -> int:
    """Child-process entry: trace one `frontals` CLI call, dump spans."""
    spans_path, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json JOB_ID -- CLI_ARGS...")
    from frontals import cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_job(job_id)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end_job()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1:]))
