import copy
import dataclasses
import itertools
import json
import math
import typing

import pytest
import yaml
from hypothesis import given, strategies as st

from srv6bench.catalog import BehaviorId
from srv6bench.cli import EXIT_PARTIAL, _write_outputs, main
from srv6bench.errors import ConfigError, Srv6BenchError
from srv6bench.finder import SearchConfig, TrialPolicy, find_pdr
from srv6bench.orchestrator import (
    ADDRESS_PLAN,
    ExperimentConfig,
    RecordingExecutor,
    TestbedConfig as BenchTestbedConfig,
    _RECIPES,
    _load_yaml,
    _make_driver,
    default_behavior_configs,
    packet_for,
    parse_experiment_config,
    parse_testbed_config,
    recipe_for,
    render_campaign,
    resolve,
    run_campaign,
)
from srv6bench.packet import BehaviorConfig, Sid, apply_behavior
from srv6bench.ratemath import LinkSpec, TrialSample
from srv6bench.simulator import ForwarderModel, SimDriver
from conftest import SHIPPED

SIM_TESTBED_YAML = """
forwarder: sim
link:
  bit_rate_bps: 10000000000
model:
  capacity_pps:
    End: 900000
    End.DT6: 960000
"""

EXPERIMENT_YAML = """
behaviors: [End, End.DT6]
runs: 3
"""


def sim_testbed(capacities=None):
    caps = capacities or {BehaviorId.END: 900e3, BehaviorId.END_DT6: 960e3}
    return BenchTestbedConfig(
        forwarder_kind="sim",
        link=LinkSpec(line_bit_rate_bps=10e9),
        model=ForwarderModel(capacity_pps=caps),
    )



@pytest.mark.parametrize(
    "text",
    [
        pytest.param((SHIPPED / "experiment.sim.yaml").read_text(), id="experiment.sim"),
        pytest.param((SHIPPED / "testbed.sim.yaml").read_text(), id="testbed.sim"),
        pytest.param("link: {bit_rate_bps: 10e9}\n", id="10e9"),
        pytest.param("noise_sigma: .nan\nseed: .inf\n", id="nan-inf"),
        pytest.param("flag: true\nother: no\nnone: ~\n", id="bool-null"),
        pytest.param("model: {capacity_pps: {End: 900000, End.T: 1.5e6}, seed: 0x1f}\n", id="flow-map"),
        # a key may override one merged in by <<
        pytest.param("base: &b {runs: 3}\nexp: {<<: *b, runs: 1}\n", id="merge-override"),
        pytest.param("behaviors: [End, 'End.DT6', \"H.Encaps\"]\nruns: 1_0\n", id="flow-list"),
    ],
)
def test_load_yaml_returns_what_safe_load_returns(text):
    # repr: NaN is not equal to itself, and 1 must not load as 1.0
    assert repr(_load_yaml(text, "experiment")) == repr(yaml.safe_load(text))


@pytest.mark.parametrize(
    "text",
    [
        "behaviors: [End\n", "a: b: c\n", "a: \x00\n", "a: *nope\n", "a: \ud800\n",
        # a key written twice in one mapping, which safe_load would let the last one win
        "runs: 3\nruns: 1\n", "m: {End: 900, End: 5}\n", "a: 1\n0x1: 2\n1: 3\n",
    ],
)
def test_load_yaml_rejects_invalid_yaml(text):
    with pytest.raises(ConfigError, match="^experiment: invalid YAML: "):
        _load_yaml(text, "experiment")


class TestExperimentParsing:
    def test_quickstart_document(self):
        cfg = parse_experiment_config(EXPERIMENT_YAML)
        assert cfg.behaviors == (BehaviorId.END, BehaviorId.END_DT6)
        assert cfg.runs == 3
        assert cfg.algorithm == "binary"
        assert cfg.search.loss_threshold == 0.005

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: [End]\nextra: 1\n")

    def test_unknown_behavior(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: [End.Nope]\n")

    def test_duplicate_behavior(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: [End, End]\n")

    def test_empty_behavior_list(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: []\n")

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: [End]\nalgorithm: ternary\n")

    def test_ndr_zeroes_the_loss_threshold(self):
        for search in ("", "search: {loss_threshold: 0}\n"):
            cfg = parse_experiment_config("behaviors: [End]\nexperiment_type: ndr\n" + search)
            assert cfg.search.loss_threshold == 0.0

    def test_bad_search_value(self):
        with pytest.raises(ConfigError):
            parse_experiment_config(
                "behaviors: [End]\nsearch: {accuracy_percent: -1}\n"
            )

    def test_unknown_search_key(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: [End]\nsearch: {fudge: 2}\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("behaviors: [End\n")

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("- just\n- a list\n")

    def test_missing_behaviors_is_named(self):
        with pytest.raises(ConfigError, match=r"^experiment\.behaviors: required$"):
            parse_experiment_config("runs: 3\n")

    def test_legacy_takes_an_accuracy_as_wide_as_the_window(self):
        # the legacy finder probes the floor and its doublings before bisecting
        text = "behaviors: [End]\nsearch: {accuracy_percent: 99}\n"
        with pytest.raises(ConfigError, match="accuracy_percent"):
            parse_experiment_config(text)
        cfg = parse_experiment_config(text + "algorithm: legacy\n")
        assert cfg.search.accuracy_percent == 99

    def test_ints_stay_ints(self):
        # the simulator's noise draw hashes repr(trial_duration_s)
        cfg = parse_experiment_config(
            "behaviors: [End]\nsearch: {trial_duration_s: 10}\n"
        )
        assert repr(cfg.search.trial_duration_s) == "10"

    def test_packet_overrides(self):
        cfg = parse_experiment_config(
            "behaviors: [End]\npacket: {inner_size: 128}\n"
        )
        assert cfg.packet.inner_size == 128


class TestTestbedParsing:
    def test_sim_document(self):
        tb = parse_testbed_config(SIM_TESTBED_YAML)
        assert tb.forwarder_kind == "sim"
        # capacities are read in pps, as written
        assert tb.model.capacity_pps == {BehaviorId.END: 900e3, BehaviorId.END_DT6: 960e3}

    def test_pps_map_taken_verbatim(self):
        tb = parse_testbed_config(
            "forwarder: sim\nmodel:\n  capacity_pps:\n    End: 1234\n"
        )
        assert tb.model.capacity_pps[BehaviorId.END] == 1234.0

    def test_numbers_written_as_strings(self):
        # YAML loads 10e9 as a string, and a quoted capacity is one too
        tb = parse_testbed_config(
            'forwarder: sim\nlink: {bit_rate_bps: 10e9}\n'
            'model: {capacity_pps: {End: "900000"}}\n'
        )
        assert tb.link.line_bit_rate_bps == 10e9
        assert tb.model.capacity_pps[BehaviorId.END] == 900e3

    def test_sim_requires_model(self):
        with pytest.raises(ConfigError):
            parse_testbed_config("forwarder: sim\n")

    @pytest.mark.parametrize(
        "document, key",
        [
            ("forwarder: sim\nmodel: {capacity_pps: {End: 1}}\nconnection: {bogus: 1, port: x}\n",
             "connection"),
            ("forwarder: linux\nmodel: {capacity_pps: {End: 5}, bogus_key: 1}\n", "model"),
            ("forwarder: vpp\nmodel: {capacity_pps: {End: 5}, bogus_key: 1}\n", "model"),
        ],
        ids=["sim-connection", "linux-model", "vpp-model"],
    )
    def test_a_section_the_forwarder_does_not_read_is_rejected(self, document, key):
        with pytest.raises(ConfigError, match=rf"^testbed: unknown key\(s\) \['{key}'\]$"):
            parse_testbed_config(document)

    def test_unknown_forwarder(self):
        with pytest.raises(ConfigError):
            parse_testbed_config("forwarder: openflow\n")

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError):
            parse_testbed_config(
                "forwarder: sim\nmodel: {capacity_pps: {End: 1}, warp: 9}\n"
            )

    def test_unknown_capacity_behavior(self):
        with pytest.raises(ConfigError):
            parse_testbed_config(
                "forwarder: sim\nmodel: {capacity_pps: {Endd: 1}}\n"
            )


# Documents whose known keys take arbitrary YAML scalars: each one parses,
# with every number of its field's declared type and finite, or raises
# ConfigError; no other exception escapes.
YAML_SCALARS = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(["10e9", "900", "nan", "-inf", "1e400", "0x10", ""]),
    st.none(),
    st.lists(st.integers(), max_size=2),
)

DOCUMENTS = [
    (
        parse_experiment_config,
        {"behaviors": ["End"]},
        [("experiment_type",), ("algorithm",), ("runs",), ("behaviors",),
         ("packet", "inner_size")]
        + [("search", f.name) for f in dataclasses.fields(SearchConfig)]
        + [("policy", f.name) for f in dataclasses.fields(TrialPolicy)],
    ),
    (
        parse_testbed_config,
        {"forwarder": "sim", "model": {"capacity_pps": {"End": 900000}}},
        [("link", "bit_rate_bps"), ("model", "capacity_pps", "End"),
         ("model", "loss_at_capacity"), ("model", "curve_exponent"),
         ("model", "noise_sigma"), ("model", "seed")],
    ),
    (
        parse_testbed_config,
        {"forwarder": "linux"},
        [("link", "bit_rate_bps")],
    ),
]


def numbers_of(config):
    """(declared type, value) of every numeric field, nested ones too."""
    kinds = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        kind, value = kinds[f.name], getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from numbers_of(value)
        elif f.name == "capacity_pps":
            yield from ((float, c) for c in value.values())
        elif kind in (int, float, typing.Optional[int]):
            yield kind, value


@pytest.mark.parametrize("parse, base, paths", DOCUMENTS, ids=["experiment", "sim", "linux"])
@given(data=st.data())
def test_any_scalar_yields_a_config_or_a_config_error(parse, base, paths, data):
    doc = copy.deepcopy(base)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, unique=True)):
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = data.draw(YAML_SCALARS)
    try:
        config = parse(yaml.safe_dump(doc))
    except ConfigError:
        return
    for kind, value in numbers_of(config):
        if kind is float:
            assert type(value) in (int, float) and math.isfinite(value)
        else:
            assert type(value) is int or (value is None and kind != int)


# Any YAML shape, at every known key or as the whole document: nested
# lists and maps whose keys need not be strings.
YAML_KEYS = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none(), st.floats())
YAML_SHAPES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(YAML_KEYS, inner, max_size=3)
    ),
    max_leaves=10,
)


@pytest.mark.parametrize("parse, base, paths", DOCUMENTS, ids=["experiment", "sim", "linux"])
@given(data=st.data())
def test_any_shape_yields_a_config_or_a_config_error(parse, base, paths, data):
    if data.draw(st.booleans()):
        doc = data.draw(YAML_SHAPES)
    else:
        doc = copy.deepcopy(base)
        known = {path[:n] for path in paths for n in range(1, len(path) + 1)}
        known |= {(key,) for key in base}
        for path in data.draw(st.lists(st.sampled_from(sorted(known)), min_size=1, unique=True)):
            node = doc
            for key in path[:-1]:
                if not isinstance(node.get(key), dict):
                    node[key] = {}
                node = node[key]
            node[path[-1]] = data.draw(YAML_SHAPES)
    try:
        parse(yaml.safe_dump(doc, sort_keys=False))
    except ConfigError:
        pass


class TestRecipes:
    def test_end_linux_installs_exactly_two_routes(self):
        steps = [setup for setup, _ in recipe_for(BehaviorId.END, "linux")]
        assert len(steps) == 2
        assert all(s.startswith("ip -6 route add") for s in steps)
        assert "seg6local action End " in steps[0]
        assert ADDRESS_PLAN["sid1"] in steps[0]

    def test_linux_teardown_mirrors_setup_reversed(self):
        # each step's undo deletes the route the step adds
        for setup, undo in recipe_for(BehaviorId.END, "linux"):
            assert undo.replace("del", "add") == setup

    def test_end_dt4_not_available_on_linux(self):
        message = r"^End.DT4 is not supported by the linux forwarder \(catalog: linux_supported=False\)$"
        with pytest.raises(Srv6BenchError, match=message):
            recipe_for(BehaviorId.END_DT4, "linux")

    def test_end_dt4_available_on_vpp(self):
        recipe = recipe_for(BehaviorId.END_DT4, "vpp")
        assert any("end.dt4" in setup for setup, _ in recipe)

    def test_vpp_recipes_render_the_address_plan(self):
        recipe = recipe_for(BehaviorId.END, "vpp")
        assert ADDRESS_PLAN["sid1"] in recipe[0][0]
        assert "{" not in "".join(command for pair in recipe for command in pair)

    def test_sim_recipe_is_a_single_marker(self):
        recipe = recipe_for(BehaviorId.END, "sim")
        assert recipe == (("sim set-behavior End", "sim clear-behavior End"),)

    def test_unmeasured_behavior_has_no_recipe(self):
        with pytest.raises(Srv6BenchError, match="^End.AD is not measurable: no semantics/recipe$"):
            recipe_for(BehaviorId.END_AD, "vpp")

    def test_unknown_forwarder_kind(self):
        with pytest.raises(ConfigError):
            recipe_for(BehaviorId.END, "p4")

    def test_every_measured_behavior_resolves_on_vpp_and_sim(self):
        from srv6bench.catalog import catalog

        for spec in catalog():
            if not spec.measured:
                continue
            assert recipe_for(spec.id, "vpp")
            assert recipe_for(spec.id, "sim")
            if spec.linux_supported:
                assert recipe_for(spec.id, "linux")

    @pytest.mark.parametrize("kind", ["linux", "vpp"])
    def test_a_recipe_exists_exactly_where_the_catalog_supports_it(self, kind):
        from srv6bench.catalog import catalog

        for spec in catalog():
            if spec.measured:
                assert (spec.id in _RECIPES[kind]) == getattr(spec, f"{kind}_supported"), spec.id


class TestResolve:
    def test_end_frame(self):
        template, recipe = resolve(BehaviorId.END, sim_testbed())
        assert template.frame_size == 158
        assert [setup for setup, _ in recipe] == ["sim set-behavior End"]

    def test_headend_frame(self):
        tb = sim_testbed({BehaviorId.H_ENCAPS: 1e6})
        template, _ = resolve(BehaviorId.H_ENCAPS, tb)
        assert template.frame_size == 78

    def test_packet_override_changes_frame(self):
        from srv6bench.orchestrator import PacketOverrides

        template, _ = resolve(
            BehaviorId.END, sim_testbed(), PacketOverrides(inner_size=128)
        )
        assert template.frame_size == 158 + 64


def test_default_behavior_configs_cover_all_measured():
    # Only headend policies carry a SID list, and every measured behavior
    # forwards to its address plan entry.
    from srv6bench.catalog import Category, catalog

    configs = default_behavior_configs()
    sid1, sid2 = (Sid.from_str(ADDRESS_PLAN[k]) for k in ("sid1", "sid2"))
    assert configs[BehaviorId.H_INSERT] == BehaviorConfig(segments=(sid1, sid2))
    for bid in (BehaviorId.H_ENCAPS, BehaviorId.H_ENCAPS_L2):
        assert configs[bid] == BehaviorConfig(segments=(sid1,))
    plan_entry = {"End.T": "table", "End.DT4": "table", "End.DT6": "table", "End.X": "nexthop6",
                  "End.DX2": "iface_out", "End.DX4": "iface_out", "End.DX6": "iface_out"}
    for spec in catalog():
        if spec.measured:
            assert (spec.id in configs) == (spec.category is Category.HEADEND)
            _, action = apply_behavior(spec.id, packet_for(spec.id), configs.get(spec.id))
            key = plan_entry.get(spec.id.value)
            assert action.target == (ADDRESS_PLAN[key] if key else "main")


class TestCampaign:
    def test_ordering_and_teardown(self):
        experiment = parse_experiment_config(EXPERIMENT_YAML)
        executor = RecordingExecutor()
        result = run_campaign(experiment, sim_testbed(), executor=executor)
        assert not result.partial
        assert executor.commands == [
            "sim set-behavior End",
            "sim clear-behavior End",
            "sim set-behavior End.DT6",
            "sim clear-behavior End.DT6",
        ]
        assert [e.behavior for e in result.entries] == [
            BehaviorId.END,
            BehaviorId.END_DT6,
        ]
        for e in result.entries:
            assert e.error is None
            assert e.stats.n == 3
            assert e.interval.width_pps <= e.line_packet_rate_pps / 100.0
            assert len(e.traces) == 3

    def test_results_track_distinct_frame_sizes(self):
        experiment = parse_experiment_config(EXPERIMENT_YAML)
        result = run_campaign(experiment, sim_testbed())
        by_behavior = {e.behavior: e for e in result.entries}
        assert by_behavior[BehaviorId.END].frame_size == 158
        assert by_behavior[BehaviorId.END_DT6].frame_size == 158

    def test_failed_behavior_does_not_stop_the_campaign(self):
        experiment = ExperimentConfig(
            behaviors=(BehaviorId.END_AD, BehaviorId.END), runs=2
        )
        result = run_campaign(experiment, sim_testbed())
        assert result.partial
        assert result.entries[0].error is not None
        assert result.entries[1].error is None

    def test_setup_failure_is_reported(self):
        class FailingExecutor:
            def execute(self, command):
                return 1, "nope"

        experiment = ExperimentConfig(behaviors=(BehaviorId.END,), runs=1)
        result = run_campaign(
            experiment, sim_testbed(), executor=FailingExecutor()
        )
        assert result.partial
        assert "configuration step failed" in result.entries[0].error

    def test_partial_setup_undoes_only_the_issued_steps(self):
        class FailSecondStep(RecordingExecutor):
            def execute(self, command):
                super().execute(command)
                return (1, "busy") if len(self.commands) == 2 else (0, "")

        linux = BenchTestbedConfig(
            forwarder_kind="linux",
            link=LinkSpec(line_bit_rate_bps=10e9),
        )
        recipe = recipe_for(BehaviorId.END, "linux")
        executor = FailSecondStep()

        def sim_factory(behavior, template, testbed):
            return SimDriver(ForwarderModel({behavior: 900e3}), behavior, template)

        result = run_campaign(
            ExperimentConfig(behaviors=(BehaviorId.END,), runs=1),
            linux,
            executor=executor,
            driver_factory=sim_factory,
        )
        (first, first_undo), (second, _) = recipe
        assert executor.commands == [first, second, first_undo]
        assert first_undo == first.replace(" add ", " del ")
        assert "configuration step failed" in result.entries[0].error

    def test_full_setup_is_undone_last_step_first(self):
        linux = BenchTestbedConfig(
            forwarder_kind="linux",
            link=LinkSpec(line_bit_rate_bps=10e9),
        )
        executor = RecordingExecutor()

        def sim_factory(behavior, template, testbed):
            return SimDriver(ForwarderModel({behavior: 900e3}), behavior, template)

        result = run_campaign(
            ExperimentConfig(behaviors=(BehaviorId.END,), runs=1),
            linux,
            executor=executor,
            driver_factory=sim_factory,
        )
        (first, first_undo), (second, second_undo) = recipe_for(BehaviorId.END, "linux")
        assert result.entries[0].error is None
        assert executor.commands == [first, second, second_undo, first_undo]

    def test_teardown_failure_is_recorded(self):
        class FailTeardown(RecordingExecutor):
            def execute(self, command):
                super().execute(command)
                return (1, "gone") if "clear-behavior" in command else (0, "")

        experiment = ExperimentConfig(behaviors=(BehaviorId.END,), runs=1)
        result = run_campaign(experiment, sim_testbed(), executor=FailTeardown())
        assert result.partial
        assert "teardown step failed (1): sim clear-behavior End: gone" in result.entries[0].error

    def test_teardown_runs_even_when_the_search_dies(self):
        experiment = ExperimentConfig(behaviors=(BehaviorId.END,), runs=1)

        def dead_factory(behavior, template, testbed):
            class DeadDriver:
                def run_trial(self, rate_pps, duration_s):
                    raise Srv6BenchError("gone")

            return DeadDriver()

        executor = RecordingExecutor()
        result = run_campaign(
            experiment, sim_testbed(), executor=executor, driver_factory=dead_factory
        )
        assert result.partial
        assert result.entries[0].error.startswith("search aborted at ")
        assert result.entries[0].error.endswith(" pps: gone")
        assert executor.commands[-1] == "sim clear-behavior End"

    @pytest.mark.parametrize(
        "runs, failure",
        [
            pytest.param(1, "link down", id="1"),
            pytest.param(3, "link down", id="3"),
            pytest.param(1, "unstable", id="unstable-1"),
            pytest.param(3, "unstable", id="unstable-3"),
            pytest.param(1, "first trial", id="first-trial-1"),
            pytest.param(3, "first trial", id="first-trial-3"),
        ],
    )
    def test_aborted_search_keeps_its_partial_trace(self, runs, failure, tmp_path):
        experiment = ExperimentConfig(behaviors=(BehaviorId.PLAIN_IPV6,), runs=runs)
        testbed = sim_testbed({BehaviorId.PLAIN_IPV6: 1221e3})
        clean = run_campaign(experiment, testbed).entries[0].traces
        per_search = sum(e.repetitions for e in clean[0].entries)
        last_search = (runs - 1) * per_search
        swing = itertools.cycle([0.995, 0.7])
        failed = []

        def fail(n, rate_pps, duration_s):
            # "link down" fails the 3rd trial of the last search and "first
            # trial" the campaign's first. "unstable" swings rx by 30 % from
            # the last search's first full-duration trial on, so that
            # near-band batch exhausts retry_cap.
            full = duration_s == experiment.search.trial_duration_s
            if failure == "unstable" and n >= last_search and full:
                failed.append(n)
                tx = round(rate_pps * duration_s)
                return TrialSample(tx, round(tx * next(swing)), duration_s)
            if n == {"link down": last_search + 2, "first trial": 0}.get(failure):
                failed.append(n)
                raise Srv6BenchError("link down")
            return None

        result, rates = _campaign_failing_at(experiment, testbed, fail)
        (entry,) = result.entries
        failed_at = failed[0]
        rate = f"{rates[failed_at]:.0f}"
        cause = "link down"
        if failure == "unstable":
            policy = experiment.policy
            cause = (
                f"rx rate CV stayed above {policy.max_rx_cv_percent}% "
                f"after {policy.retry_cap} batches"
            )
        assert entry.error == f"search aborted at {rate} pps: {cause}"
        _assert_kept_runs(entry, clean, per_search, rates, failed_at)

        _write_outputs(result, tmp_path)
        trace_file = tmp_path / "trace_PlainIPv6.json"
        if entry.traces:
            assert json.loads(trace_file.read_text()) == [t.records() for t in entry.traces]
        else:
            assert not trace_file.exists()
        rows = (tmp_path / "plot_data.csv").read_text().splitlines()[1:]
        assert len(rows) == sum(len(t.entries) for t in entry.traces)

    def test_missing_capacity_is_a_per_behavior_error(self):
        experiment = ExperimentConfig(behaviors=(BehaviorId.END_T,), runs=1)
        result = run_campaign(experiment, sim_testbed())
        assert result.partial
        assert "End.T" in result.entries[0].error

    def test_missing_capacity_fails_before_any_setup_command(self):
        experiment = ExperimentConfig(behaviors=(BehaviorId.END_T, BehaviorId.END), runs=1)
        executor = RecordingExecutor()
        result = run_campaign(experiment, sim_testbed(), executor=executor)
        assert result.partial
        missing, end = result.entries
        assert "no capacity configured for End.T" in missing.error
        assert end.error is None and end.interval is not None
        assert not any("End.T" in command for command in executor.commands)
        assert executor.commands == ["sim set-behavior End", "sim clear-behavior End"]

    def test_a_template_for_another_behavior_fails_before_any_setup_command(self):
        experiment = ExperimentConfig(behaviors=(BehaviorId.END,), runs=1)
        testbed = sim_testbed()
        executor = RecordingExecutor()
        dt6_template = resolve(BehaviorId.END_DT6, testbed)[0]

        def factory(behavior, template, testbed):
            return SimDriver(testbed.model, behavior, dt6_template)

        result = run_campaign(experiment, testbed, executor=executor, driver_factory=factory)
        (entry,) = result.entries
        assert entry.error == "template does not satisfy the End traffic requirement"
        assert entry.traces == ()
        assert executor.commands == []


def _campaign_failing_at(experiment, testbed, fail, executor=None):
    """Run the campaign with every trial passed first to fail(n, rate_pps,
    duration_s), n counting the campaign's trials from 0. fail may raise,
    return the TrialSample to use or return None to run the real trial.
    Returns the result and every rate probed."""
    rates = []

    class Failing:
        def __init__(self, inner):
            self.inner = inner

        def run_trial(self, rate_pps, duration_s):
            rates.append(rate_pps)
            sample = fail(len(rates) - 1, rate_pps, duration_s)
            return sample if sample is not None else self.inner.run_trial(rate_pps, duration_s)

    def factory(behavior, template, testbed):
        return Failing(_make_driver(behavior, template, testbed))

    result = run_campaign(experiment, testbed, executor=executor, driver_factory=factory)
    return result, rates


def _assert_kept_runs(entry, clean, per_search, rates, failed_at):
    """The entry keeps the finished runs in order, then the rates the
    aborted run decided, if it decided any."""
    done = failed_at // per_search
    decided = list(dict.fromkeys(rates[done * per_search : failed_at]))
    assert entry.traces[:done] == clean[:done]
    partial = [[e.tx_rate_pps for e in t.entries] for t in entry.traces[done:]]
    assert partial == ([decided] if decided else [])


@given(runs=st.integers(min_value=1, max_value=3), data=st.data())
def test_a_failing_trial_aborts_its_search_and_keeps_its_runs(runs, data):
    """Wherever a trial raises, run_campaign records one error, tears the
    behavior down last and keeps the finished runs, then the partial one
    if it probed a rate."""
    experiment = ExperimentConfig(behaviors=(BehaviorId.END,), runs=runs)
    (search,) = run_campaign(dataclasses.replace(experiment, runs=1), sim_testbed()).entries[0].traces
    per_search = sum(e.repetitions for e in search.entries)
    fail_at = data.draw(st.integers(min_value=0, max_value=runs * per_search - 1))

    def fail(n, rate_pps, duration_s):
        if n == fail_at:
            raise Srv6BenchError("link down")

    executor = RecordingExecutor()
    result, rates = _campaign_failing_at(experiment, sim_testbed(), fail, executor)
    (entry,) = result.entries
    assert entry.error == f"search aborted at {rates[fail_at]:.0f} pps: link down"
    assert executor.commands[-1] == "sim clear-behavior End"
    _assert_kept_runs(entry, (search,) * runs, per_search, rates, fail_at)


# A stored campaign with one End row, and any JSON shape in its place or at
# any key report reads.
STORED_CAMPAIGN = {
    "forwarder": "sim",
    "behaviors": [
        {
            "behavior": "End",
            "pdr_low_pps": 706129.8076923077,
            "pdr_high_pps": 759250.5151098901,
            "flags": ["below-search-floor"],
            "stats": {"cv_percent": 0.5, "ci95_percent": 0.4},
            "error": None,
        }
    ],
}
CAMPAIGN_PATHS = [
    ("forwarder",),
    ("behaviors",),
    ("behaviors", 0),
    *(("behaviors", 0, key) for key in STORED_CAMPAIGN["behaviors"][0]),
    ("behaviors", 0, "stats", "cv_percent"),
    ("behaviors", 0, "stats", "ci95_percent"),
]
JSON_SHAPES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=10,
)


@pytest.mark.parametrize("fmt", ["table", "csv"])
@given(data=st.data())
def test_any_stored_campaign_renders_or_is_a_config_error(fmt, data):
    assert render_campaign(STORED_CAMPAIGN, fmt)
    if data.draw(st.booleans()):
        doc = data.draw(JSON_SHAPES)
    else:
        doc = copy.deepcopy(STORED_CAMPAIGN)
        *path, key = data.draw(st.sampled_from(CAMPAIGN_PATHS))
        node = doc
        for step in path:
            node = node[step]
        if data.draw(st.booleans()):
            node[key] = data.draw(JSON_SHAPES)
        else:
            del node[key]
    try:
        text = render_campaign(doc, fmt)
    except ConfigError as exc:
        assert str(exc).startswith("campaign: malformed document: ")
        return
    assert isinstance(text, str)


class TestCampaignSerialization:
    def result(self):
        experiment = parse_experiment_config(EXPERIMENT_YAML)
        return run_campaign(experiment, sim_testbed())

    def test_json_round_trip(self):
        # the document holds every reported figure, survives JSON and
        # renders the same once stored
        result = self.result()
        doc = result.to_json_dict()
        assert doc["ci95_model"] == "student-t"
        assert doc["forwarder"] == result.forwarder_kind
        assert len(doc["behaviors"]) == len(result.entries) == 2
        for row, e in zip(doc["behaviors"], result.entries):
            assert row["behavior"] == e.behavior.value
            assert (row["pdr_low_pps"], row["pdr_high_pps"]) == (e.interval.low_pps, e.interval.high_pps)
            assert row["flags"] == list(e.flags)
            assert row["stats"] == {
                "mean_pps": e.stats.mean,
                "cv_percent": e.stats.cv_percent,
                "ci95_percent": e.stats.ci95_percent,
                "n": e.stats.n,
            }
        back = json.loads(json.dumps(doc))
        assert back == doc
        for fmt in ("csv", "table"):
            assert render_campaign(back, fmt) == render_campaign(doc, fmt)

    def test_csv_shape(self):
        text = render_campaign(self.result().to_json_dict(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == (
            "behavior,forwarder,pdr_low_pps,pdr_high_pps,"
            "midpoint_kpps,cv_percent,ci95_percent,flags"
        )
        assert len(lines) == 3
        assert lines[1].startswith("End,sim,")


@pytest.mark.parametrize("kind", ["linux", "vpp"])
def test_remote_campaign_fails_every_behavior_before_any_command(kind, tmp_path):
    # no traffic generator drives a remote forwarder in this build: every
    # behavior fails before its first setup step, so the SUT gets nothing
    testbed_yaml = f"forwarder: {kind}\nlink: {{bit_rate_bps: 10e9}}\n"
    experiment = ExperimentConfig(behaviors=(BehaviorId.END, BehaviorId.PLAIN_IPV6), runs=1)
    executor = RecordingExecutor()
    result = run_campaign(experiment, parse_testbed_config(testbed_yaml), executor=executor)
    missing = (
        f"no traffic generator for the {kind} forwarder: "
        "the TRex driver is not available in this build"
    )
    assert [e.error for e in result.entries] == [missing, missing]
    assert executor.commands == []

    exp, tb = tmp_path / "e.yaml", tmp_path / "t.yaml"
    exp.write_text("behaviors: [End, PlainIPv6]\nruns: 1\n")
    tb.write_text(testbed_yaml)
    argv = ["run", "--experiment", str(exp), "--testbed", str(tb), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PARTIAL
