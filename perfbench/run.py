"""gaplab benchmark: drives the public CLI in-process and checks every answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One closed-loop client in one process, no threads: each query is
``gaplab.cli.main(argv)`` with stdout captured (or, for the transform
pipeline, a library call), and the next query starts when the previous one
returns.  Each workload runs in a fresh process, so ``peak_rss_mb`` belongs
to it alone.  A run first makes one checking pass, in which every answer is
checked outside the timed region; later passes must repeat that output
exactly.  With ``--trace 0`` the timed passes run untraced and give the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate:
the traced ones give the per-layer metrics, both give the tracing overhead.

Times are normalised by a reference loop (see ``clock.py``).  A query's time
is the median over the passes; ``wall_s`` sums them and the percentiles are
taken over the workload's queries.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (queries in the workload), ``failed`` (queries that raised,
exited non-zero when success was expected, exhausted the search budget or
answered wrongly) and ``metrics``.  Lines before it report every metric with
its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("decide-corpus", "decide-structured", "strength-verify")
BUDGET_VAR = "GAPLAB_SEARCH_BUDGET"
MIN_PASSES = 3
SETUP_RUNS = 9
# Import and parser construction in a fresh interpreter.  The first child
# writes the bytecode cache and is not counted.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import gaplab\n"
    "from gaplab.cli import build_parser\n"
    "build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup() -> list[float]:
    samples, refs = [], [clock.timed_reference()]
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
        refs.append(clock.timed_reference())
    return clock.normalise(samples, refs)[1:]


class Runner:
    """Runs a workload's query list pass by pass and judges the answers."""

    def __init__(self, queries, cli, check, outcome):
        self.queries = queries
        self.cli = cli
        self.check = check
        self.outcome = outcome
        self.status: dict[str, str] = {}  # query name -> status
        self.prints: dict[str, tuple] = {}  # query name -> output of the checking pass
        self.nodes = 0  # search nodes that decide printed in one pass

    def _run(self, q, tracer):
        if q.budget is None:
            os.environ.pop(BUDGET_VAR, None)
        else:
            os.environ[BUDGET_VAR] = str(q.budget)
        out, err = io.StringIO(), io.StringIO()
        code, error, result = None, None, None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if q.argv is None:
                    result, code = q.call(), 0
                elif tracer is None:
                    code = self.cli.main(q.argv)
                else:
                    code = tracer.call("cli.main", self.cli.main, q.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed query; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        return self.outcome(perf_counter() - start, code, error, out.getvalue(), result)

    def _judge(self, q, out) -> str:
        if out.error is not None:
            return "failed: " + out.error
        if out.code != q.expect_code:
            return f"failed: exit {out.code}" + (" (search budget exhausted)" if out.code == 3 else "")
        try:
            return q.check(out)
        except Exception as exc:
            return self.check.wrong(f"check raised {type(exc).__name__}: {exc}")

    @staticmethod
    def _print(q, out) -> tuple:
        """What a pass must repeat: exit code, exception type (its message
        may name the frame where the recursion limit hit), stdout, written
        files and the library result."""
        digests = []
        for path in q.outputs:
            with open(path, "rb") as fh:
                digests.append(hashlib.sha1(fh.read()).hexdigest())
        error = out.error and out.error.split(":", 1)[0]
        return out.code, error, out.stdout, tuple(digests), out.result

    def run_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """One pass over the queries: (normalised, raw) seconds per query."""
        gc.collect()
        raw, refs = [], [clock.timed_reference()]
        for q in self.queries:
            out = self._run(q, tracer)
            raw.append(out.seconds)
            refs.append(clock.timed_reference())
            printed = self._print(q, out)
            if q.name not in self.status:
                self.status[q.name] = self._judge(q, out)
                self.prints[q.name] = printed
                self.nodes += self.check.search_nodes(out.stdout)
            elif printed != self.prints[q.name]:
                self.status[q.name] = self.check.wrong("output changed between passes")
        return clock.normalise(raw, refs), raw

    def failures(self) -> dict[str, str]:
        return {n: s for n, s in self.status.items() if s.startswith(("failed", "wrong"))}

    def correct(self) -> bool:
        return not any(s.startswith("wrong") for s in self.status.values())


def query_times(passes: list[list[float]]) -> list[float]:
    """Each query's median time over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(runner: Runner, seconds: float, tracer):
    """Timed passes for about ``seconds``, alternating untraced and traced
    ones when a tracer is given.  Returns the untraced and the traced
    passes as (normalised, raw) pairs, and the span index range of each
    traced pass."""
    plain, traced, ranges = [], [], []
    need = MIN_PASSES if tracer is None else 2
    start = perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            ranges.append((lo, len(tracer.spans)))
        else:
            plain.append(runner.run_pass())
        done = len(plain) + len(traced)
        enough = min(len(plain), len(traced) if tracer else need) >= need
        if enough and (perf_counter() - start) * (done + 1) / done > seconds:
            return plain, traced, ranges


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import check
    import spans
    import workloads
    from gaplab import cli

    setup = [] if args.trace else measure_setup()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        queries = workloads.WORKLOADS[args.workload](str(work), args.seed)
        runner = Runner(queries, cli, check, workloads.Outcome)
        # The benchmark's own inputs and expected answers stay alive for the
        # whole run; keep the collector from walking them during queries.
        gc.collect()
        gc.freeze()
        runner.run_pass()  # the checking pass, not timed
        plain, traced, ranges = measure(runner, args.seconds, tracer)
    finally:
        os.environ.pop(BUDGET_VAR, None)
        shutil.rmtree(work, ignore_errors=True)

    failures = runner.failures()
    times = query_times([norm for norm, _ in plain])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {len(queries)} queries, "
          f"{len(plain)} untraced and {len(traced)} traced timed passes")
    for name, status in sorted(failures.items()):
        print(f"  failed query  {name}: {status}")
    each = f"{len(queries)} queries, each the median of {len(plain)} passes"
    if tracer is None:
        rows = [  # (name, value, unit, samples)
            ("wall_s", sum(times), "s", each),
            ("query_p50_ms", 1e3 * statistics.median(times), "ms", each),
            ("query_p90_ms", 1e3 * percentile(times, 90), "ms", each),
            ("answered_share", 1 - len(failures) / len(queries), "ratio", f"{len(queries)} queries"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 process"),
            ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        ]
        info = [
            ("search_nodes", runner.nodes, "count", "exact, per pass"),
            ("fail_share", len(failures) / len(queries), "ratio", f"{len(queries)} queries"),
            ("raw_wall_s", sum(query_times([raw for _, raw in plain])), "s", each + ", not normalised"),
        ]
    else:
        layers = spans.layer_metrics(tracer, ranges, [norm for norm, _ in traced], [raw for _, raw in traced])
        layers["decide.no_uncertified"] = sum(1 for s in runner.status.values() if s == check.UNCERTIFIED)
        layers["trace.overhead_share"] = sum(query_times([norm for norm, _ in traced])) / sum(times) - 1
        units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
        rows = [(name, layers[name], units[name], f"median of {len(traced)} traced passes")
                for name, *_ in spans.LAYER_METRICS]
        info = []
        (WORK / f"{args.workload}.spans.json").write_text(json.dumps(tracer.spans))
    for name, value, unit, samples in rows + info:
        print(f"  {name:30s} {value:>16.6g} {unit:6s} ({samples})")
    print(json.dumps({
        "correct": runner.correct(),
        "attempted": len(queries),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import spans

    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            code = max(code, subprocess.run(argv, timeout=600).returncode)
    print("\nper-layer metric -> end-to-end metric it should move, on workload")
    for name, _, _, moves, on in spans.LAYER_METRICS:
        print(f"  {name:30s} -> {moves}  on {on}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaplab" / "__init__.py").is_file():
        print(f"error: no gaplab sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
