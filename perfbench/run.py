"""Run srv6bench workloads and print their metrics.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 40 --trace 0

Without --workload, every workload runs in turn, each in its own process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones. With --trace 1 they are the per-layer ones: rounds then
alternate between traced and untraced, and trace.overhead_pct compares
the two. Problems found by the checks go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM = ("catalog", "packet", "ratemath", "simulator", "finder", "orchestrator", "cli")
# Set-up is repeated this many times and its median reported. The
# repeats come after the ops and after peak RSS is read, so the copies
# they load weigh on neither.
SETUPS = 21
# Everything loaded so far belongs to the interpreter or the benchmark;
# what the program loads on top is dropped before each repeated set-up.
_PRELOADED = frozenset(sys.modules)


def load_program():
    """Import srv6bench and PyYAML afresh, with every module they pull in."""
    for name in [n for n in sys.modules if n not in _PRELOADED]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    P = types.SimpleNamespace(yaml=importlib.import_module("yaml"))
    for name in PROGRAM:
        setattr(P, name, importlib.import_module(f"srv6bench.{name}"))
    return P


@contextlib.contextmanager
def scratch_dir(prefix):
    """A temporary directory under perfbench/.work, removed afterwards."""
    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=work_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            work_root.rmdir()


def median(values):
    """The median, or 0 for a run whose checks left nothing to measure."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value): the highest percentile, up to p99, that has at
    least 10 samples beyond it; the median under 40 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0
    pct = 50.0 if n < 40 else min(99.0, 100.0 * (1.0 - 10.0 / n))
    return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def set_up(args, workdir, clock):
    """(calibrated seconds, program, workload): import the program and
    build the inputs."""
    scale = clock.scale()
    started = time.perf_counter()
    P = load_program()
    workload = workloads.WORKLOADS[args.workload](P, args.seed, ROOT, workdir)
    return (time.perf_counter() - started) * scale, P, workload


def end_to_end(tally, setup_s, peak_rss_mb, notes):
    metrics = {"setup_s": (median(setup_s), "s")}
    op_tail_pct, op_tail = tail(tally.op_s)
    notes.append(f"op_s.tail is p{op_tail_pct:.1f} of {len(tally.op_s)} ops")
    metrics["op_s.p50"] = (median(tally.op_s), "s")
    metrics["op_s.tail"] = (op_tail, "s")
    metrics["trials_per_s"] = (spans.ratio(tally.trials, sum(tally.op_s)), "1/s")
    metrics["testbed_s_per_pdr"] = (spans.ratio(tally.testbed_s, tally.searches), "testbed-s")
    for name in ("window_rel_pct", "oracle_err_pct"):
        values = getattr(tally, name)
        pct, value = tail(values)
        notes.append(f"{name}.tail is p{pct:.1f} of {len(values)} unflagged intervals")
        metrics[f"{name}.p50"] = (median(values), "%")
        metrics[f"{name}.tail"] = (value, "%")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def per_layer(tracer, tally, workload):
    t = tracer
    searches = t.calls["finder.search"]
    trials = t.calls[spans.TRIAL]
    metrics = {}
    for fn in ("encode", "decode", "apply_behavior", "satisfies"):
        metrics[f"packet.{fn}.us"] = (t.mean_us(f"packet.{fn}"), "us")
        metrics[f"packet.{fn}.per_trial"] = (t.per_trial(f"packet.{fn}"), "calls/trial")
    metrics["packet.build_test_packet.us"] = (t.mean_us("packet.build_test_packet"), "us")
    metrics["packet.build_test_packet.calls"] = (
        spans.ratio(t.calls["packet.build_test_packet"], len(tally.traced_op_s)), "calls/op")
    metrics["simulator.run_trial.us"] = (t.mean_us("simulator.run_trial"), "us")
    metrics["simulator.run_trial.self_us"] = (t.self_us("simulator.run_trial"), "us")
    metrics["simulator.driver_init.us"] = (t.mean_us("simulator.driver_init"), "us")
    metrics["simulator.trials_per_driver"] = (
        spans.ratio(trials, t.calls["simulator.driver_init"]), "trials/driver")
    metrics["finder.search.us"] = (t.mean_us("finder.search"), "us")
    metrics["finder.search.self_us"] = (t.self_us("finder.search"), "us")
    metrics["finder.evaluate_point.us"] = (t.mean_us("finder.evaluate_point"), "us")
    points = t.calls["finder.evaluate_point"]
    metrics["finder.points_per_search"] = (spans.ratio(points, searches), "points/search")
    metrics["finder.trials_per_search"] = (spans.ratio(trials, searches), "trials/search")
    metrics["finder.repeats_per_search"] = (spans.ratio(trials - points, searches), "trials/search")
    metrics["finder.batch_retries"] = (
        spans.ratio(t.batch_retries(workload.repetitions), searches), "retries/search")
    metrics["orchestrator.parse.us"] = (t.mean_us("orchestrator.parse"), "us")
    metrics["orchestrator.resolve.us"] = (t.mean_us("orchestrator.resolve"), "us")
    metrics["orchestrator.run_campaign.self_ms"] = (
        t.self_us("orchestrator.run_campaign") / 1e3, "ms")
    metrics["orchestrator.commands_per_campaign"] = (
        spans.ratio(t.calls["orchestrator.command"], t.calls["orchestrator.run_campaign"]),
        "cmds/campaign")
    metrics["cli.main.self_ms"] = (t.self_us("cli.main") / 1e3, "ms")
    metrics["cli.output_bytes"] = (
        statistics.fmean(tally.output_bytes) if tally.output_bytes else 0.0, "bytes/run")
    metrics["trace.overhead_pct"] = (
        (spans.ratio(median(tally.traced_op_s), median(tally.op_s)) - 1.0) * 100.0, "%")
    return metrics


def measure(args, workdir):
    clock = reference.Clock()
    first_setup_s, P, workload = set_up(args, workdir, clock)
    loaded = Path(P.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"perfbench: srv6bench loaded from {loaded}, not from {SRC}")

    tally = workloads.Tally()
    workload.check_inputs(tally)
    workload.start()
    tracer = spans.Tracer(P) if args.trace else None
    deadline = time.perf_counter() + args.seconds
    r = 0
    # a traced run needs an untraced and a traced round to compare
    min_rounds = 2 if tracer else 1
    try:
        # whole rounds only, so every run attempts the same mix of ops
        while r < min_rounds or time.perf_counter() < deadline:
            traced = tracer is not None and r % 2 == 1
            times = tally.traced_op_s if traced else tally.op_s
            if traced:
                tracer.install()
            try:
                for run_op, check_op in workload.round(r):
                    tally.attempted += 1
                    scale = clock.scale()
                    started = time.perf_counter()
                    try:
                        result = run_op()
                    except Exception as exc:  # a search that raised is a failed op
                        times.append((time.perf_counter() - started) * scale)
                        tally.failed += 1
                        print(f"perfbench: op failed: {exc!r}", file=sys.stderr)
                        continue
                    elapsed = time.perf_counter() - started
                    times.append(elapsed * scale)
                    if not traced:
                        tally.wall_op_s.append(elapsed)
                    try:
                        if check_op(result, tally):
                            tally.failed += 1
                    except Exception as exc:  # output the checks cannot read
                        tally.problem(f"checking an op raised {exc!r}")
            finally:
                if traced:
                    tracer.uninstall()
            r += 1
    finally:
        workload.stop()

    notes = [f"{args.workload} seed {args.seed}: {r} rounds, "
             f"{tally.attempted} ops attempted, {tally.failed} failed",
             f"op wall time p50 {median(tally.wall_op_s):.6g} s; the reference "
             f"kernel took {median(clock.kernel_s) / reference.NOMINAL_S:.3f} "
             f"times its nominal {reference.NOMINAL_S} s"]
    if args.trace:
        return tally, per_layer(tracer, tally, workload), notes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = [first_setup_s]
    for _ in range(SETUPS - 1):
        gc.collect()
        setup_s.append(set_up(args, workdir, clock)[0])
    return tally, end_to_end(tally, setup_s, peak_rss_mb, notes), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="default: every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "srv6bench" / "__init__.py").is_file():
        print(f"perfbench: no srv6bench source under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return max(
            subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for name in workloads.WORKLOADS
        )

    with scratch_dir(f"{args.workload}-") as workdir:
        tally, metrics, notes = measure(args, workdir)

    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
