"""The three workloads: inputs built from the seed, one op each, and the
checks that hold every op's outputs against the benchmark's own oracle.

Each workload is a closed loop with one caller: the next op starts only
when the previous one has returned. No packet crosses a link. Every trial
is simulated, and its duration is what a lab would pay in testbed-seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from functools import partial

import oracle

SID_PLAN = ("fc00:0:0:1::1", "fc00:0:0:2::1")
BIT_RATE = 10e9
LOSS_THRESHOLD = 0.005
SEARCH = {
    "min_percent": 1.0,
    "max_percent": 100.0,
    "accuracy_percent": 1.0,
    "loss_threshold": LOSS_THRESHOLD,
    "trial_duration_s": 10.0,
}
POLICY = {
    "near_band": 0.0025,
    "repetitions": 5,
    "max_rx_cv_percent": 1.0,
    "retry_cap": 3,
}
LINE_RATE_LIMITED = "line-rate-limited"
BELOW_SEARCH_FLOOR = "below-search-floor"
# float slack for comparisons of rates the program and the oracle compute
# along different paths
REL = 1e-9


class Tally:
    """What a run accumulates over its ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # calibrated op times (perfbench/reference.py); wall times apart
        self.op_s: list[float] = []
        self.traced_op_s: list[float] = []
        self.wall_op_s: list[float] = []
        self.trials = 0
        self.testbed_s = 0.0
        self.searches = 0
        self.window_rel_pct: list[float] = []
        self.oracle_err_pct: list[float] = []
        self.output_bytes: list[int] = []
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def interval(self, low: float, high: float, truth: float) -> None:
        """Record the accuracy of one unflagged reported interval."""
        mid = (low + high) / 2.0
        self.window_rel_pct.append((high - low) / mid * 100.0)
        self.oracle_err_pct.append(abs(mid - truth) / truth * 100.0)


class CountingDriver:
    """TrafficDriver wrapper: counts trials and testbed-seconds at the
    boundary every search goes through."""

    def __init__(self, inner):
        self.inner = inner
        self.trials = 0
        self.testbed_s = 0.0

    def run_trial(self, rate_pps, duration_s):
        sample = self.inner.run_trial(rate_pps, duration_s)
        self.trials += 1
        self.testbed_s += duration_s
        return sample


def check_rates(tally, label, frame, lpr, behavior, inner_size):
    want = oracle.frame_size(behavior, inner_size)
    if frame != want:
        tally.problem(f"{label}: frame size {frame} B, expected {want} B")
    want_lpr = oracle.line_packet_rate(BIT_RATE, want)
    if abs(lpr - want_lpr) > REL * want_lpr:
        tally.problem(f"{label}: LPR {lpr} pps, expected {want_lpr} pps")


def check_interval(tally, label, low, high, curve, x, duration_s, eps):
    """The interval must contain the closed-form PDR of curve = (capacity,
    l0, exponent). Trials count whole packets, so a bound whose delivery
    ratio lies within one packet of the pass mark may sit on either side of
    the oracle; the miss is then a few pps out of millions."""
    truth = oracle.pdr(*curve, x)
    pass_mark = 1.0 - x
    low_ok = low <= truth or (
        oracle.delivery(*curve, low) >= pass_mark - 1.0 / (low * duration_s))
    high_ok = truth <= high or (
        oracle.delivery(*curve, high) <= pass_mark + 1.0 / (high * duration_s))
    if not (low_ok and high_ok):
        tally.problem(f"{label}: [{low:.0f}, {high:.0f}] misses the oracle {truth:.0f}")
    if high - low > eps * (1 + REL):
        tally.problem(f"{label}: window {high - low:.0f} pps wider than {eps:.0f}")


def check_templates(P, items, tally):
    """Frame sizes and codec round trips of test and forwarded packets.

    items: (behavior name, inner size, test template).
    """
    configs = P.orchestrator.default_behavior_configs()
    for name, inner_size, template in items:
        bid = P.catalog.BehaviorId.parse(name)
        forwarded, _ = P.packet.apply_behavior(bid, template, configs.get(bid))
        for role, packet, want in (
            ("test", template, oracle.frame_size(name, inner_size)),
            ("forwarded", forwarded, oracle.forwarded_frame_size(name, inner_size)),
        ):
            label = f"{name}@{inner_size}B {role} packet"
            wire = P.packet.encode(packet)
            if packet.frame_size != want or len(wire) != want:
                tally.problem(
                    f"{label}: {packet.frame_size} B ({len(wire)} B encoded), "
                    f"expected {want} B"
                )
            if P.packet.decode(wire) != packet:
                tally.problem(f"{label}: decode(encode(t)) != t")


def _yaml_map(values: dict) -> str:
    return "{" + ", ".join(f"{k}: {v!r}" for k, v in values.items()) + "}"


class Workload:
    name = ""
    # TrialPolicy.repetitions, to count batch retries in the traced run
    repetitions = POLICY["repetitions"]

    def check_inputs(self, tally: Tally) -> None:
        for message in oracle.check_reference_figures():
            tally.problem(message)

    def start(self) -> None:
        """Called once before the first op."""

    def stop(self) -> None:
        """Called once after the last op."""


class Quickstart(Workload):
    """`srv6bench run` through cli.main on the shipped sim configs."""

    name = "quickstart"

    def __init__(self, P, seed, root, workdir):
        self.P = P
        self.experiment = root / "configs" / "experiment.sim.yaml"
        self.testbed = root / "configs" / "testbed.sim.yaml"
        exp = P.yaml.safe_load(self.experiment.read_text(encoding="utf-8"))
        tb = P.yaml.safe_load(self.testbed.read_text(encoding="utf-8"))
        self.behaviors = list(exp["behaviors"])
        self.runs = exp.get("runs", 10)
        self.repetitions = exp.get("policy", {}).get("repetitions", 5)
        self.inner_size = exp.get("packet", {}).get("inner_size", 64)
        search = exp.get("search", {})
        self.x = search.get("loss_threshold", LOSS_THRESHOLD)
        self.duration_s = search.get("trial_duration_s", SEARCH["trial_duration_s"])
        accuracy = search.get("accuracy_percent", 1.0)
        model = tb["model"]
        if "capacity_pps" in model:
            caps = dict(model["capacity_pps"])
        else:
            caps = {b: v * 1e3 for b, v in model["capacity_kpps"].items()}
        l0 = model.get("loss_at_capacity", 0.01)
        p = model.get("curve_exponent", 4.0)
        if model.get("noise_sigma", 0.0) or tb["link"].get("bit_rate_bps", BIT_RATE) != BIT_RATE:
            raise ValueError("quickstart expects a noiseless 10 Gb/s sim testbed")
        self.curves = {b: (caps[b], l0, p) for b in self.behaviors}
        self.eps = {
            b: oracle.line_packet_rate(BIT_RATE, oracle.frame_size(b, self.inner_size))
            * accuracy / 100.0
            for b in self.behaviors
        }
        self.out = workdir / "quickstart"
        self.argv = [
            "run", "--experiment", str(self.experiment),
            "--testbed", str(self.testbed), "--out", str(self.out),
        ]
        # behavior -> [trials, testbed-seconds], counted at SimDriver.run_trial
        self.counts: dict[str, list] = {}

    def check_inputs(self, tally):
        super().check_inputs(tally)
        P = self.P
        testbed = P.orchestrator.parse_testbed_config(self.testbed.read_text(encoding="utf-8"))
        items = [
            (b, self.inner_size,
             P.orchestrator.resolve(P.catalog.BehaviorId.parse(b), testbed)[0])
            for b in self.behaviors
        ]
        check_templates(P, items, tally)

    def start(self):
        # cli builds its own drivers, so trials are counted on the class
        cls = self.P.simulator.SimDriver
        original = cls.run_trial
        counts = self.counts

        def counted(driver, rate_pps, duration_s):
            count = counts.setdefault(driver.behavior.value, [0, 0.0])
            count[0] += 1
            count[1] += duration_s
            return original(driver, rate_pps, duration_s)

        self._restore = (cls, original)
        cls.run_trial = counted

    def stop(self):
        cls, original = self._restore
        cls.run_trial = original

    def round(self, r):
        return [(self.run_op, self.check_op)]

    def run_op(self):
        self.counts.clear()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = self.P.cli.main(self.argv)
        return code, printed.getvalue()

    def check_op(self, result, tally) -> bool:
        """Check one run's outputs; True when the op failed."""
        code, printed = result
        if code != 0:
            return True
        outputs = read_outputs(self.out)
        if any(row["error"] for row in outputs["campaign"]["behaviors"]):
            return True
        self.check_outputs(outputs, self.counts, tally)
        tally.output_bytes.append(outputs["bytes"] + len(printed.encode()))
        return False

    def check_outputs(self, outputs, counts, tally):
        rows = outputs["campaign"]["behaviors"]
        if [row["behavior"] for row in rows] != self.behaviors:
            tally.problem("campaign.json: behaviors differ from the experiment")
        if [row["behavior"] for row in outputs["summary"]] != self.behaviors:
            tally.problem("campaign.csv: not one row per behavior")
        trace_entries = 0
        for row in rows:
            b = row["behavior"]
            label = f"quickstart {b}"
            check_rates(tally, label, row["frame_size"], row["line_packet_rate_pps"],
                        b, self.inner_size)
            low, high = row["pdr_low_pps"], row["pdr_high_pps"]
            check_interval(tally, label, low, high, self.curves[b], self.x,
                           self.duration_s, self.eps[b])
            if row["flags"]:
                tally.problem(f"{label}: unexpected flags {row['flags']}")
            if row["stats"]["cv_percent"] != 0:
                tally.problem(f"{label}: cv_percent {row['stats']['cv_percent']} on a noiseless model")
            runs = outputs["traces"].get("trace_" + b.replace(".", "_") + ".json")
            if runs is None or len(runs) != self.runs:
                tally.problem(f"{label}: trace file missing or not {self.runs} runs")
                continue
            reps = sum(entry["repetitions"] for run in runs for entry in run)
            trials, testbed_s = counts.get(b, (0, 0.0))
            if reps != trials:
                tally.problem(f"{label}: trace repetitions sum to {reps}, the driver ran {trials} trials")
            trace_entries += sum(len(run) for run in runs)
            tally.trials += reps
            tally.testbed_s += testbed_s
            tally.searches += len(runs)
            if not row["flags"]:
                tally.interval(low, high, oracle.pdr(*self.curves[b], self.x))
        if len(outputs["plot"]) != trace_entries:
            tally.problem(
                f"plot_data.csv: {len(outputs['plot'])} rows for {trace_entries} trace entries"
            )


def read_outputs(out_dir) -> dict:
    files = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}

    def rows(name):
        return list(csv.DictReader(io.StringIO(files[name].decode("utf-8"))))

    return {
        "campaign": json.loads(files["campaign.json"]),
        "summary": rows("campaign.csv"),
        "plot": rows("plot_data.csv"),
        "traces": {
            name: json.loads(data) for name, data in files.items()
            if name.startswith("trace_")
        },
        "bytes": sum(len(data) for data in files.values()),
    }


class CatalogNoisy(Workload):
    """One run_campaign over every measured behavior at one inner size,
    from generated YAML, against a noisy sim model."""

    name = "catalog_noisy"
    # smallest, middle and near-MTU inner sizes; the endpoint test packet
    # at 1400 B is a 1480 B IP packet
    SIZES = (64, 700, 1400)
    RUNS = 10
    # The shipped testbed's knee. Flatter curves turn this noise into rate
    # errors of tens of percent and push whole searches to the floor.
    L0, EXPONENT = 0.01, 4.0
    # Small enough that the 6-sigma allowance stays under the loss
    # threshold; otherwise the pass mark plus the allowance reaches 1 and
    # the check on the high bound could never fail.
    NOISE_SIGMA = 0.0005
    # A bound this far past the threshold is misjudged only when one
    # trial's noise exceeds 6 sigma, p ~ 2e-9.
    ALLOWANCE = 6 * NOISE_SIGMA
    # each PDR is drawn log-uniformly between these shares of the LPR, the
    # low end taken at the smallest size and the high end at the largest,
    # so every search starts and ends clear of the window edges. Each op
    # draws afresh, stratified with one behavior per stratum, so every op
    # spans the whole range and the accuracy figures do not swing with the
    # seed.
    PDR_LOW, PDR_HIGH = 0.03, 0.90

    def __init__(self, P, seed, root, workdir):
        self.P = P
        self.seed = seed
        self.driver_wrapper = lambda driver: driver
        self.experiments = {size: self._experiment_yaml(size) for size in self.SIZES}
        self._first = self._testbed(0, self.SIZES[0])

    def _experiment_yaml(self, inner_size):
        return (
            f"behaviors: [{', '.join(oracle.BEHAVIORS)}]\n"
            "experiment_type: pdr\n"
            "algorithm: binary\n"
            f"runs: {self.RUNS}\n"
            f"packet: {{inner_size: {inner_size}}}\n"
            f"search: {_yaml_map(SEARCH)}\n"
            f"policy: {_yaml_map(POLICY)}\n"
        )

    def _testbed(self, r, size):
        """YAML text of the testbed for round r at one inner size, and the
        model it describes."""
        rng = random.Random(f"{self.name}:{self.seed}:{r}:{size}")
        l0, p = self.L0, self.EXPONENT
        caps = {}
        strata = rng.sample(range(len(oracle.BEHAVIORS)), len(oracle.BEHAVIORS))
        for b, stratum in zip(oracle.BEHAVIORS, strata):
            lprs = [
                oracle.line_packet_rate(BIT_RATE, oracle.frame_size(b, size))
                for size in self.SIZES
            ]
            low, high = self.PDR_LOW * max(lprs), self.PDR_HIGH * min(lprs)
            share = (stratum + rng.random()) / len(strata)
            target = low * (high / low) ** share
            caps[b] = round(oracle.capacity_for_pdr(target, l0, p, LOSS_THRESHOLD), 3)
        text = (
            "forwarder: sim\n"
            f"link: {{bit_rate_bps: {int(BIT_RATE)}}}\n"
            "model:\n"
            "  capacity_pps:\n"
            + "".join(f"    {b}: {c!r}\n" for b, c in caps.items())
            + f"  loss_at_capacity: {l0!r}\n"
            f"  curve_exponent: {p!r}\n"
            f"  noise_sigma: {self.NOISE_SIGMA!r}\n"
            f"  seed: {rng.randrange(2**31)}\n"
        )
        return text, (caps, l0, p)

    def check_inputs(self, tally):
        super().check_inputs(tally)
        P = self.P
        testbed = P.orchestrator.parse_testbed_config(self._first[0])
        items = []
        for size in self.SIZES:
            overrides = P.orchestrator.PacketOverrides(inner_size=size)
            for b in oracle.BEHAVIORS:
                bid = P.catalog.BehaviorId.parse(b)
                items.append((b, size, P.orchestrator.resolve(bid, testbed, overrides)[0]))
        check_templates(P, items, tally)

    def round(self, r):
        ops = []
        for size in self.SIZES:
            first = r == 0 and size == self.SIZES[0]
            text, truth = self._first if first else self._testbed(r, size)
            ops.append((partial(self.run_op, size, text), partial(self.check_op, size, truth)))
        return ops

    def run_op(self, size, testbed_text):
        P = self.P
        experiment = P.orchestrator.parse_experiment_config(self.experiments[size])
        testbed = P.orchestrator.parse_testbed_config(testbed_text)
        drivers = {}

        def driver_factory(behavior, template, testbed):
            mc = testbed.model
            model = P.simulator.ForwarderModel(
                capacity_pps=dict(mc.capacity_pps),
                loss_at_capacity=mc.loss_at_capacity,
                curve_exponent=mc.curve_exponent,
                noise_sigma=mc.noise_sigma,
                seed=mc.seed,
                behavior_config=P.orchestrator.default_behavior_configs(),
            )
            sim = P.simulator.SimDriver(model, behavior, template)
            driver = drivers[behavior.value] = CountingDriver(self.driver_wrapper(sim))
            return driver

        result = P.orchestrator.run_campaign(experiment, testbed, driver_factory=driver_factory)
        return result, drivers

    def check_op(self, size, truth, result, tally) -> bool:
        campaign, drivers = result
        if any(e.error is not None for e in campaign.entries):
            return True
        caps, l0, p = truth
        pass_mark = 1.0 - LOSS_THRESHOLD
        if [e.behavior.value for e in campaign.entries] != list(oracle.BEHAVIORS):
            tally.problem(f"catalog_noisy@{size}B: behaviors differ from the experiment")
        for e in campaign.entries:
            b = e.behavior.value
            label = f"catalog_noisy {b}@{size}B"
            check_rates(tally, label, e.frame_size, e.line_packet_rate_pps, b, size)
            if e.flags:
                tally.problem(f"{label}: unexpected flags {e.flags}")
            low, high = e.interval.low_pps, e.interval.high_pps
            if oracle.delivery(caps[b], l0, p, low) < pass_mark - self.ALLOWANCE:
                tally.problem(f"{label}: low bound {low:.0f} pps fails by the oracle")
            if oracle.delivery(caps[b], l0, p, high) > pass_mark + self.ALLOWANCE:
                tally.problem(f"{label}: high bound {high:.0f} pps passes by the oracle")
            if high - low > e.line_packet_rate_pps / 100.0 * (1 + REL):
                tally.problem(f"{label}: window wider than 1% of LPR")
            driver = drivers.get(b)
            reps = sum(t.repetitions for trace in e.traces for t in trace.entries)
            if driver is None or reps != driver.trials:
                tally.problem(f"{label}: trace repetitions sum to {reps}, not the driver's trials")
                continue
            tally.trials += reps
            tally.testbed_s += driver.testbed_s
            tally.searches += len(e.traces)
            if not e.flags:
                tally.interval(low, high, oracle.pdr(caps[b], l0, p, LOSS_THRESHOLD))
        return False


class OracleSuite(Workload):
    """find_pdr and find_pdr_legacy on fresh drivers over a seeded grid of
    noiseless End models, checked against the closed-form PDR."""

    name = "oracle_suite"
    INNER_SIZE = 64
    L0 = (0.0, 0.002, 0.01, 0.05)
    EXPONENTS = (1.0, 2.0, 4.0)
    # capacities per (l0, exponent) cell, one in each of 9 strata of
    # 5-95 % of LPR
    PER_CELL = 9
    ABOVE_LPR = 4  # capacities at 105-150 % of LPR, for line-rate-limited
    ALGORITHMS = ("find_pdr", "find_pdr_legacy")

    def __init__(self, P, seed, root, workdir):
        self.P = P
        self.seed = seed
        self.driver_wrapper = lambda driver: driver
        self.behavior = P.catalog.BehaviorId.END
        self.template = P.packet.build_test_packet(
            P.catalog.traffic_requirement(self.behavior),
            [P.packet.Sid.from_str(s) for s in SID_PLAN],
        )
        self.lpr = oracle.line_packet_rate(BIT_RATE, oracle.frame_size("End", self.INNER_SIZE))
        self.floor = self.lpr * SEARCH["min_percent"] / 100.0
        self.eps = self.lpr * SEARCH["accuracy_percent"] / 100.0
        self.cfg = P.finder.SearchConfig(**SEARCH)
        self.policy = P.finder.TrialPolicy(**POLICY)
        self._first = self._models(0)

    def _models(self, r):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        grid = [
            ((0.05 + 0.9 * (k + rng.random()) / self.PER_CELL) * self.lpr, l0, p)
            for l0 in self.L0 for p in self.EXPONENTS for k in range(self.PER_CELL)
        ]
        grid += [
            (rng.uniform(1.05, 1.5) * self.lpr, rng.choice(self.L0), rng.choice(self.EXPONENTS))
            for _ in range(self.ABOVE_LPR)
        ]
        return [
            (
                self.P.simulator.ForwarderModel(
                    {self.behavior: c}, loss_at_capacity=l0, curve_exponent=p
                ),
                (c, l0, p),
            )
            for c, l0, p in grid
        ]

    def check_inputs(self, tally):
        super().check_inputs(tally)
        check_templates(self.P, [("End", self.INNER_SIZE, self.template)], tally)

    def round(self, r):
        models = self._first if r == 0 else self._models(r)
        return [
            (partial(self.run_op, model, algorithm), partial(self.check_op, algorithm, curve))
            for model, curve in models
            for algorithm in self.ALGORITHMS
        ]

    def run_op(self, model, algorithm):
        P = self.P
        driver = CountingDriver(
            self.driver_wrapper(P.simulator.SimDriver(model, self.behavior, self.template))
        )
        return getattr(P.finder, algorithm)(driver, self.lpr, self.cfg, self.policy), driver

    def check_op(self, algorithm, curve, result, tally) -> bool:
        found, driver = result
        truth = oracle.pdr(*curve, LOSS_THRESHOLD)
        label = f"oracle_suite {algorithm} (oracle {truth:.0f} pps)"
        reps = sum(e.repetitions for e in found.trace.entries)
        if reps != driver.trials:
            tally.problem(f"{label}: trace repetitions sum to {reps}, the driver ran {driver.trials}")
        flags = set(found.flags)
        if flags - {LINE_RATE_LIMITED, BELOW_SEARCH_FLOOR}:
            tally.problem(f"{label}: unknown flags {sorted(flags)}")
        # A binary search whose every probe failed stops one window above
        # the floor, so the flag is right for an oracle below floor + eps.
        if BELOW_SEARCH_FLOOR in flags and not truth < self.floor + self.eps:
            tally.problem(f"{label}: {BELOW_SEARCH_FLOOR} above the search floor")
        if LINE_RATE_LIMITED in flags and not truth >= self.lpr - self.eps:
            tally.problem(f"{label}: {LINE_RATE_LIMITED} more than a window under LPR")
        if not flags:
            low, high = found.interval.low_pps, found.interval.high_pps
            check_interval(tally, label, low, high, curve, LOSS_THRESHOLD,
                           SEARCH["trial_duration_s"], self.eps)
            tally.interval(low, high, truth)
        tally.trials += driver.trials
        tally.testbed_s += driver.testbed_s
        tally.searches += 1
        return False


WORKLOADS = {w.name: w for w in (Quickstart, CatalogNoisy, OracleSuite)}
