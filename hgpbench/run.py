"""hgpforge benchmark: checked CLI verdicts, timed end to end and per layer.

    python3 hgpbench/run.py --workload {cnz,nogo,codes,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Each workload runs in its own process as a single-client closed loop: one
operation is one in-process `hgpforge.cli.main(argv)` call, and the next
starts when it returns (no threads, no pool).  The loop runs whole passes
over the workload's ladder, in a seeded order, until `--seconds` is about
used up.  Every op's exit code and stdout envelope are checked against an
oracle the benchmark computes itself (see workloads.py); a failed check or
an exception counts in fail_ratio and the loop goes on.

--trace 0 reports the end-to-end metrics; times are given at a reference
machine speed (see PROBE_REF_S) and, in the result file and the summary
lines, as plain wall clock too.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics (tracer.py) plus the
traced/untraced time ratio.  `--workload all` runs the three workloads one
after another, each in a child process.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full result, with
run metadata and every op's time, goes to .hgpbench/results/.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".hgpbench")

SETUP_ROUNDS = 5  # setup_s is the median of this many complete set-ups
MIN_OPS = 110  # so that at least 10 timed ops lie beyond op_s.p90

# The host alternates between a fast and a slow state (about 1.7x) every
# few seconds, which moves every op alike; a 30 s run catches a varying
# share of slow time.  Each timed interval is therefore reported at a
# reference speed: its wall time times PROBE_REF_S over the mean time of a
# fixed calibration probe run just before, every IN_OP_PROBE_S during, and
# just after it.
PROBE_REF_S = 1.0e-3  # about the probe's time on the reference machine
IN_OP_PROBE_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("fail_ratio", "1"),
    ("peak_rss_mb", "MB"),
)
# fail_ratio is 0 on a correct program, so it is reported as "failed" /
# "attempted" in the result line rather than as a bounded metric.
BOUNDED = tuple(name for name, _ in END_TO_END if name != "fail_ratio")


def probe() -> float:
    """Wall time of a fixed allocation-heavy pure-Python task (dict and
    tuple churn), which slows down under host contention as hgpforge's ops
    do; plain integer arithmetic slows down less and would under-correct.

    The garbage collector is off while it runs: inside a memory-heavy op
    its allocations would otherwise set off collections over the op's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(3000):
            key = (i, i >> 1, i >> 2)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Record:
    """One op: its label, wall time, mean adjacent probe time, problem."""

    __slots__ = ("label", "seconds", "probe_s", "problem", "traced")

    def __init__(self, label, seconds, probe_s, problem, traced):
        self.label, self.seconds, self.probe_s = label, seconds, probe_s
        self.problem, self.traced = problem, traced

    @property
    def ref_seconds(self):
        return self.seconds * PROBE_REF_S / self.probe_s


def import_program():
    """Import hgpforge from this checkout's src/, afresh."""
    if not os.path.isfile(os.path.join(SRC, "hgpforge", "cli.py")):
        raise SystemExit(f"hgpbench: no hgpforge sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "hgpforge" or m.startswith("hgpforge.")]:
        del sys.modules[name]
    from hgpforge import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hgpbench: imported hgpforge from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, seed, workdir, rungs, tracer=None):
    """Import the program, generate inputs and build bundles; returns
    (cli module, ops).  With a tracer, it is installed before generation."""
    cli = import_program()
    if tracer is not None:
        tracer.install()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return cli, workloads.make_ops(workload, seed, workdir, rungs)


def run_op(cli, op, before, tracer=None):
    """One timed CLI call: (seconds, mean probe time, last probe time,
    problem or None).

    Probes bracket the call, and a SIGALRM timer runs one every
    IN_OP_PROBE_S during a long call, so the probe mean follows the host's
    state through it.  The time spent in those probes is taken off the
    call's time, and off the self time of the traced call it interrupted.
    """
    samples, spent = [before], [0.0]

    def on_alarm(signum, frame):
        t0 = time.perf_counter()
        samples.append(probe())
        dt = time.perf_counter() - t0
        spent[0] += dt
        if tracer is not None:
            tracer.exclude(dt)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    out, err = io.StringIO(), io.StringIO()
    rc = problem = None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, IN_OP_PROBE_S, IN_OP_PROBE_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # any failure of the op is counted, not fatal
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - spent[0]
        signal.signal(signal.SIGALRM, previous)
    if problem is None:
        try:
            problem = op.check(rc, out.getvalue())
        except Exception as exc:  # a malformed envelope is a failed op
            problem = f"{type(exc).__name__}: {exc}"
    after = probe()
    samples.append(after)
    return seconds, statistics.fmean(samples), after, problem


def run_pass(cli, ops, order_rng, records, tracer=None):
    """All ops once, in a seeded order.  Garbage collection runs between
    ops, outside the timed calls."""
    order = list(range(len(ops)))
    order_rng.shuffle(order)
    before = probe()
    for i in order:
        if tracer is not None:
            tracer.op = len(records)
        gc.collect()
        seconds, probe_s, before, problem = run_op(cli, ops[i], before, tracer)
        records.append(Record(ops[i].label, seconds, probe_s, problem, tracer is not None))


def run_workload(workload, seed, seconds, trace, rungs=None):
    """Set up and run one workload; returns the full result dict.

    Untraced: set up SETUP_ROUNDS times (setup_s is their median), then
    run passes.  Traced: set up once under a set-up tracer, run a warm-up
    pass, then alternate an untraced and a traced pass, so the overhead
    ratio compares the same ops run the same number of times.
    """
    workdir = os.path.join(OUT, "work", f"{workload}-{seed}-{os.getpid()}")
    order_rng = random.Random(f"hgpbench:order:{workload}:{seed}")
    records: list[Record] = []
    setup_rounds: list[Record] = []
    setup_tracer = loop_tracer = None
    try:
        if trace:
            setup_tracer, loop_tracer = tracing.Tracer(), tracing.Tracer()
            cli, ops = set_up(workload, seed, workdir, rungs, setup_tracer)
            setup_tracer.uninstall()
        else:
            # The first round counts from process start (interpreter and
            # benchmark imports included) and has a probe after it only.
            start, before = PROCESS_START, None
            for _ in range(SETUP_ROUNDS):
                cli, ops = set_up(workload, seed, workdir, rungs)
                end = time.perf_counter()
                after = probe()
                probe_s = after if before is None else (before + after) / 2
                setup_rounds.append(Record("setup", end - start, probe_s, None, False))
                gc.collect()
                before = probe()
                start = time.perf_counter()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            if trace:
                # An unrecorded warm-up pass: the first pass after set-up
                # also pays for growing the heap (up to 12% on the largest
                # cnz ops), which would bias the traced/untraced ratio.
                run_pass(cli, ops, order_rng, [])
            loop_start = time.perf_counter()
            passes = 0
            while True:
                run_pass(cli, ops, order_rng, records)
                if trace:
                    loop_tracer.install()
                    try:
                        run_pass(cli, ops, order_rng, records, loop_tracer)
                    finally:
                        loop_tracer.uninstall()
                passes += 1
                elapsed = time.perf_counter() - loop_start
                if elapsed + elapsed / passes / 2 >= seconds and len(records) >= MIN_OPS:
                    break
        finally:
            os.chdir(cwd)
    finally:
        for t in (setup_tracer, loop_tracer):
            if t is not None:
                t.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in records if not r.traced]
    failures = [{"op": i, "label": r.label, "problem": r.problem}
                for i, r in enumerate(records) if r.problem is not None]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds_requested": seconds,
        "passes": passes,
        "ops_per_pass": workloads.rung_counts(ops),
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:50],
        "metadata": metadata(),
        "probe_ref_s": PROBE_REF_S,
        "setup_rounds": [{"s": r.seconds, "probe_s": r.probe_s} for r in setup_rounds],
        "ops": [{"label": r.label, "s": r.seconds, "probe_s": r.probe_s,
                 "traced": r.traced, "ok": r.problem is None} for r in records],
    }
    if trace:
        traced_s = sum(r.ref_seconds for r in records if r.traced)
        overhead = traced_s / sum(r.ref_seconds for r in untraced)
        metrics = tracing.per_layer_metrics(setup_tracer, loop_tracer, passes, overhead)
        coverage = coverage_problems(workload, metrics) if rungs is None else []
        result.update(
            metrics=metrics,
            coverage_problems=coverage,
            self_s_share=self_time_shares(metrics),
            correct=not failures and not coverage,
            tracers=(setup_tracer, loop_tracer),
        )
    else:
        fail_ratio = len(failures) / len(records)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(
            metrics=end_to_end(setup_rounds, untraced, fail_ratio, rss_mb, lambda r: r.ref_seconds),
            wall_metrics=end_to_end(setup_rounds, untraced, fail_ratio, rss_mb, lambda r: r.seconds),
            correct=not failures,
        )
    return result


def end_to_end(setup_rounds, records, fail_ratio, rss_mb, seconds_of):
    times = [seconds_of(r) for r in records]
    values = {
        "setup_s": statistics.median(seconds_of(r) for r in setup_rounds),
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[8],
        "fail_ratio": fail_ratio,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def coverage_problems(workload, metrics):
    problems = [f"{fn} recorded no call"
                for fn in workloads.EXERCISES[workload] + workloads.SETUP_EXERCISES
                if metrics[f"{fn}.calls"]["value"] == 0]
    if workload == "codes":
        problems += [f"{name} = {m['value']} on codes" for name, m in metrics.items()
                     if name.startswith("diagonal.") and name.endswith(".calls") and m["value"]]
    return problems


def self_time_shares(metrics):
    self_s = {name[: -len(".self_s")]: m["value"] for name, m in metrics.items()
              if name.endswith(".self_s")}
    total = sum(self_s.values()) or 1.0
    return dict(sorted(((fn, s / total) for fn, s in self_s.items()), key=lambda kv: -kv[1]))


def metadata():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program's source files, which names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hgpforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def report(result, out=None, results_dir=os.path.join(OUT, "results")):
    """Write the full result file; print summary lines, then the one-line
    JSON result."""
    out = out or sys.stdout
    w, seed, trace = result["workload"], result["seed"], result["trace"]
    name = f"{w}-s{seed}-t{trace}"
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.json")
    tracers = result.pop("tracers", None)
    if tracers is not None:
        spans_path = os.path.join(results_dir, f"{name}.spans.json")
        tracing.write_spans(spans_path, *tracers)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
    print(f"hgpbench {w} seed={seed} trace={trace}: {result['attempted']} ops in "
          f"{result['passes']} passes, {result['failed']} failed "
          f"(full result: {os.path.relpath(path, ROOT)})", file=out)
    metrics = result["metrics"]
    if trace:
        print(f"  tracing overhead (traced/untraced time): "
              f"{metrics['trace.overhead_ratio']['value']:.3f}", file=out)
        for fn, share in list(result["self_s_share"].items())[:6]:
            print(f"  self_s share {fn:40s} {share:6.1%}", file=out)
        for problem in result["coverage_problems"]:
            print(f"  coverage: {problem}", file=out)
    else:
        wall = result["wall_metrics"]
        for key, unit in END_TO_END:
            line = f"  {key:12s} {metrics[key]['value']:.6g} {unit}"
            if wall[key] != metrics[key]:
                line += f"  (wall clock {wall[key]['value']:.6g} {unit})"
            print(line, file=out)
    for failure in result["failures"][:5]:
        print(f"  failed op {failure['op']} {failure['label']}: {failure['problem']}", file=out)
    if trace:
        line_metrics = metrics
    else:
        line_metrics = {k: metrics[k] for k in BOUNDED}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": line_metrics,
    }), file=out)


def run_all(args):
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"hgpbench {w}: exit {proc.returncode}")
            combined["correct"] = False
            continue
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
