"""Show that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py

Each case runs a workload's ops once as they are and once with a fault
planted between the program and its checks. The checks must pass the
first and fail the second:

- a driver that scales rx_packets by 0.9, handed to run_campaign through
  driver_factory (catalog_noisy) and to the finders (oracle_suite);
- a quickstart trace whose repetitions sum is one off the trials counted
  at the driver boundary.

Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run
import workloads


class ScaledDriver:
    """Delivers only a share of what the wrapped driver received."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor

    def run_trial(self, rate_pps, duration_s):
        sample = self.inner.run_trial(rate_pps, duration_s)
        return replace(sample, rx_packets=int(sample.rx_packets * self.factor))


def _round_problems(workload) -> list[str]:
    tally = workloads.Tally()
    for run_op, check_op in workload.round(0):
        check_op(run_op(), tally)
    return tally.problems


def _scaled_driver_cases(P, workdir):
    for name in ("catalog_noisy", "oracle_suite"):
        workload = workloads.WORKLOADS[name](P, 1, run.ROOT, workdir)
        clean = _round_problems(workload)
        workload.driver_wrapper = lambda driver: ScaledDriver(driver, 0.9)
        scaled = _round_problems(workload)
        yield f"{name}: rx scaled by 0.9", clean, scaled


def _trace_sum_case(P, workdir):
    workload = workloads.Quickstart(P, 1, run.ROOT, workdir)
    workload.start()
    try:
        code, _ = workload.run_op()
    finally:
        workload.stop()
    outputs = workloads.read_outputs(workload.out)
    clean = workloads.Tally()
    workload.check_outputs(outputs, workload.counts, clean)
    if code != 0:
        clean.problem(f"srv6bench run exited {code}")
    outputs["traces"]["trace_End.json"][0][0]["repetitions"] += 1
    broken = workloads.Tally()
    workload.check_outputs(outputs, workload.counts, broken)
    broken.problems = [p for p in broken.problems if "repetitions sum" in p]
    return "quickstart: trace repetitions one off", clean.problems, broken.problems


def main() -> int:
    P = run.load_program()
    ok = True
    with run.scratch_dir("selftest-") as workdir:
        cases = list(_scaled_driver_cases(P, workdir)) + [_trace_sum_case(P, workdir)]
    for label, clean, faulty in cases:
        good = not clean and bool(faulty)
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {label}: "
              f"{len(clean)} problems as is, {len(faulty)} with the fault")
        for problem in (clean or faulty)[:3]:
            print(f"       {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
