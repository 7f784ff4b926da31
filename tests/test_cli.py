import hashlib
import json
import re

import pytest
import yaml

from srv6bench import cli
from srv6bench.catalog import BehaviorId, catalog
from srv6bench.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from srv6bench.orchestrator import (
    RecordingExecutor,
    parse_experiment_config,
    parse_testbed_config,
    resolve,
    run_campaign,
)
from srv6bench.packet import hexdump
from conftest import SHIPPED

EXPERIMENT = """
behaviors: [End, H.Encaps]
runs: 2
"""

TESTBED = """
forwarder: sim
model:
  capacity_pps:
    End: 900000
    H.Encaps: 978000
"""


@pytest.fixture
def configs(tmp_path):
    exp = tmp_path / "experiment.yaml"
    tb = tmp_path / "testbed.yaml"
    exp.write_text(EXPERIMENT)
    tb.write_text(TESTBED)
    return exp, tb


def campaign_doc(**second):
    """A well-formed two-behavior campaign.json, with keys of the second
    behavior's row replaced by second."""
    rows = [
        {
            "behavior": behavior,
            "frame_size": 158,
            "line_packet_rate_pps": 6868131.868131869,
            "pdr_low_pps": low,
            "pdr_high_pps": high,
            "flags": [],
            "stats": {"mean_pps": (low + high) / 2, "cv_percent": 0.0, "ci95_percent": 0.0, "n": 10},
            "error": None,
        }
        for behavior, low, high in [
            ("End", 706129.8076923077, 759250.5151098901),
            ("End.DT6", 759250.5151098901, 812371.2225274725),
        ]
    ]
    rows[1].update(second)
    doc = {"version": "0.1.0", "forwarder": "sim", "started_at": "", "finished_at": ""}
    return json.dumps(dict(doc, ci95_model="student-t", behaviors=rows))


def run_cmd(exp, tb, out):
    return main(
        ["run", "--experiment", str(exp), "--testbed", str(tb), "--out", str(out)]
    )


class TestRun:
    def test_full_campaign(self, configs, tmp_path, capsys):
        exp, tb = configs
        out = tmp_path / "out"
        assert run_cmd(exp, tb, out) == EXIT_OK
        assert (out / "campaign.json").exists()
        assert (out / "campaign.csv").exists()
        assert (out / "plot_data.csv").exists()
        assert (out / "trace_End.json").exists()
        assert (out / "trace_H_Encaps.json").exists()
        text = capsys.readouterr().out
        assert "End: PDR midpoint" in text

    def test_campaign_json_content(self, configs, tmp_path):
        exp, tb = configs
        out = tmp_path / "out"
        run_cmd(exp, tb, out)
        doc = json.loads((out / "campaign.json").read_text())
        assert doc["forwarder"] == "sim"
        assert len(doc["behaviors"]) == 2
        assert doc["behaviors"][0]["error"] is None
        assert doc["behaviors"][0]["stats"]["n"] == 2

    def test_plot_data_has_trace_rows(self, configs, tmp_path):
        exp, tb = configs
        out = tmp_path / "out"
        run_cmd(exp, tb, out)
        lines = (out / "plot_data.csv").read_text().strip().splitlines()
        assert lines[0] == "behavior,run,tx_rate_pps,delivery_ratio,throughput_pps"
        assert len(lines) > 10

    def test_missing_file_is_config_error(self, tmp_path):
        rc = run_cmd(tmp_path / "nope.yaml", tmp_path / "nada.yaml", tmp_path / "o")
        assert rc == EXIT_CONFIG

    def test_invalid_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("behaviors: []\n")
        tb = tmp_path / "tb.yaml"
        tb.write_text(TESTBED)
        assert run_cmd(bad, tb, tmp_path / "o") == EXIT_CONFIG

    def test_partial_campaign(self, tmp_path, capsys):
        # End.AD is in the catalog but not measurable: its entry errors
        # while the End one completes
        exp = tmp_path / "e.yaml"
        exp.write_text("behaviors: [End.AD, End]\nruns: 1\n")
        tb = tmp_path / "t.yaml"
        tb.write_text(TESTBED)
        assert run_cmd(exp, tb, tmp_path / "o") == EXIT_PARTIAL
        # report shows the error in the table, and in the CSV's flags column
        campaign = str(tmp_path / "o" / "campaign.json")
        capsys.readouterr()
        assert main(["report", "--campaign", campaign]) == EXIT_OK
        error = "End.AD is not measurable: no semantics/recipe"
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"End.AD: ERROR: {error}"
        assert lines[1].startswith("End: [")
        assert main(["report", "--campaign", campaign, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == f"End.AD,sim,,,,,,{error}"

    def test_frame_below_ethernet_minimum_is_a_per_behavior_error(self, tmp_path):
        # a 40 B inner IPv4 packet makes a 54 B plain frame, too small for
        # Ethernet; End's encapsulated frame is large enough
        exp = tmp_path / "e.yaml"
        exp.write_text("behaviors: [End, PlainIPv4]\nruns: 1\npacket: {inner_size: 40}\n")
        tb = tmp_path / "t.yaml"
        tb.write_text(TESTBED + "    PlainIPv4: 1000000\n")
        out = tmp_path / "o"
        assert run_cmd(exp, tb, out) == EXIT_PARTIAL
        end, plain = json.loads((out / "campaign.json").read_text())["behaviors"]
        assert end["error"] is None and end["pdr_low_pps"] is not None
        assert plain["frame_size"] == 54
        assert "below Ethernet minimum" in plain["error"]
        assert plain["pdr_low_pps"] is None
        assert (out / "trace_End.json").exists()

    def test_oversized_packet_is_a_per_behavior_error(self, tmp_path, capsys):
        # a 100000 B inner packet overflows the 16-bit IPv6 payload length;
        # the codec says so before any setup step
        experiment = "behaviors: [End, PlainIPv6]\nruns: 1\npacket: {inner_size: 100000}\n"
        testbed = TESTBED + "    PlainIPv6: 1221000\n"
        exp = tmp_path / "e.yaml"
        exp.write_text(experiment)
        tb = tmp_path / "t.yaml"
        tb.write_text(testbed)
        out = tmp_path / "o"
        assert run_cmd(exp, tb, out) == EXIT_PARTIAL
        behaviors = json.loads((out / "campaign.json").read_text())["behaviors"]
        assert [b["behavior"] for b in behaviors] == ["End", "PlainIPv6"]
        for b in behaviors:
            assert b["error"] == "IPv6 payload length 99960 exceeds 65535"
            assert b["pdr_low_pps"] is None
        assert capsys.readouterr().err == ""

        executor = RecordingExecutor()
        run_campaign(
            parse_experiment_config(experiment), parse_testbed_config(testbed), executor=executor
        )
        assert executor.commands == []

    @pytest.mark.parametrize(
        "patch, reason",
        [
            (
                "nonconforming_end",
                "IPv6Header next header 59 is followed by SegmentRoutingHeader: "
                "decode would read a payload or nothing",
            ),
            ("misnested_end", "payload must be the innermost layer"),
        ],
        ids=["nonconforming_end", "misnested_end"],
    )
    def test_non_conforming_behavior_is_an_error_not_a_pdr(self, patch, reason, tmp_path, capsys, request):
        # End must report an error while the other behaviors' results do
        # not change, also when encode refuses its forwarded packet
        def rows(out):
            return json.loads((out / "campaign.json").read_text())["behaviors"]

        args = SHIPPED / "experiment.sim.yaml", SHIPPED / "testbed.sim.yaml"
        assert run_cmd(*args, tmp_path / "good") == EXIT_OK
        request.getfixturevalue(patch)
        capsys.readouterr()
        assert run_cmd(*args, tmp_path / "bad") == EXIT_PARTIAL
        assert "End: ERROR: search aborted at " in capsys.readouterr().out
        good, bad = rows(tmp_path / "good"), rows(tmp_path / "bad")
        assert [r["behavior"] for r in bad] == ["PlainIPv6", "End", "End.DT6", "H.Encaps"]
        end = bad[1]
        # the error keeps encode's reason for refusing the forwarded packet
        assert end["error"].endswith(f": End does not conform: {reason}")
        assert end["pdr_low_pps"] is None and end["pdr_high_pps"] is None
        assert end["stats"] is None
        # End failed on its first trial: it probed no rate, so it has no trace
        assert not (tmp_path / "bad" / "trace_End.json").exists()
        assert [r for r in bad if r is not end] == [r for r in good if r["behavior"] != "End"]

    def test_an_oversize_forward_keeps_encode_reason(self, tmp_path):
        # the test packet fits the 16-bit IPv6 payload length; with the
        # SRH H.Insert adds, the forwarded packet does not
        exp = tmp_path / "e.yaml"
        exp.write_text("behaviors: [H.Insert]\nruns: 1\npacket: {inner_size: 65560}\n")
        tb = tmp_path / "t.yaml"
        tb.write_text(TESTBED + "    H.Insert: 1000000\n")
        out = tmp_path / "o"
        assert run_cmd(exp, tb, out) == EXIT_PARTIAL
        (row,) = json.loads((out / "campaign.json").read_text())["behaviors"]
        assert row["error"].startswith("search aborted at ")
        assert row["error"].endswith(
            " pps: H.Insert does not conform: IPv6 payload length 65576 exceeds 65535"
        )

    def test_ndr_campaign_says_ndr(self, tmp_path, capsys):
        experiment = (SHIPPED / "experiment.sim.yaml").read_text()
        assert "experiment_type: pdr\n" in experiment
        exp = tmp_path / "e.yaml"
        assert "  loss_threshold: 0.005\n" in experiment
        # NDR takes no loss threshold
        experiment = experiment.replace("  loss_threshold: 0.005\n", "")
        exp.write_text(experiment.replace("experiment_type: pdr\n", "experiment_type: ndr\n"))
        assert run_cmd(exp, SHIPPED / "testbed.sim.yaml", tmp_path / "o") == EXIT_OK
        text = capsys.readouterr().out
        assert text.count(": NDR midpoint ") == 4
        assert "PDR" not in text

    def test_out_naming_a_file_exits_2_before_the_campaign(self, configs, tmp_path, capsys):
        exp, tb = configs
        out = tmp_path / "taken"
        out.write_text("keep")
        assert run_cmd(exp, tb, out) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write outputs:")
        assert "PDR midpoint" not in captured.out
        assert out.read_text() == "keep"

    def test_rerun_leaves_only_its_own_campaigns_files(self, configs, tmp_path):
        exp, tb = configs
        out = tmp_path / "out"
        assert run_cmd(exp, tb, out) == EXIT_OK
        assert (out / "trace_H_Encaps.json").exists()
        exp.write_text("behaviors: [End]\nruns: 2\n")
        assert run_cmd(exp, tb, out) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "campaign.csv", "campaign.json", "plot_data.csv", "trace_End.json",
        ]
        # what a re-run writes is what a run into a new directory writes
        assert run_cmd(exp, tb, tmp_path / "fresh") == EXIT_OK
        for name in ("campaign.csv", "plot_data.csv", "trace_End.json"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_rerun_keeps_files_run_does_not_write(self, configs, tmp_path):
        exp, tb = configs
        out = tmp_path / "out"
        assert run_cmd(exp, tb, out) == EXIT_OK
        (out / "notes.txt").write_text("lab notes")
        (out / "trace_End.json.bak").write_text("a copy")
        assert run_cmd(exp, tb, out) == EXIT_OK
        assert (out / "notes.txt").read_text() == "lab notes"
        assert (out / "trace_End.json.bak").read_text() == "a copy"

    def test_stopped_rerun_keeps_the_previous_campaign(self, configs, tmp_path, monkeypatch):
        exp, tb = configs
        out = tmp_path / "out"
        assert run_cmd(exp, tb, out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_campaign", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cmd(exp, tb, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unwritable_output_exits_2_before_the_campaign(
        self, configs, tmp_path, capsys, monkeypatch
    ):
        def no_campaign(*args, **kwargs):
            raise AssertionError("run_campaign called")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        exp, tb = configs
        out = tmp_path / "out"
        (out / "campaign.json").mkdir(parents=True)
        assert run_cmd(exp, tb, out) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write outputs:")
        assert captured.out == ""
        assert (out / "campaign.json").is_dir()

    def test_output_unwritable_after_the_campaign_exits_2(
        self, configs, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"

        def then_block_plot_data(*args, **kwargs):
            result = run_campaign(*args, **kwargs)
            (out / "plot_data.csv").mkdir()
            return result

        monkeypatch.setattr(cli, "run_campaign", then_block_plot_data)
        assert run_cmd(*configs, out) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write outputs:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "experiment, testbed, where",
        [
            pytest.param(
                "packet: {inner_size: big}\n", TESTBED, "experiment.packet.inner_size",
                id="inner_size-str",
            ),
            pytest.param(
                "packet: {inner_size: 64.5}\n", TESTBED, "experiment.packet.inner_size",
                id="inner_size-float",
            ),
            pytest.param(
                "packet: {inner_size: true}\n", TESTBED, "experiment.packet.inner_size",
                id="inner_size-bool",
            ),
            pytest.param(
                "packet: {inner_size: 0}\n", TESTBED, "experiment.packet.inner_size",
                id="inner_size-zero",
            ),
            pytest.param("runs: true\n", TESTBED, "experiment.runs", id="runs-bool"),
            pytest.param(
                "", TESTBED.replace("End: 900000", "End: abc"), "testbed.model.capacity_pps.End",
                id="capacity-str",
            ),
            pytest.param(
                "", TESTBED.replace("End: 900000", "End: -900000"), "testbed.model",
                id="capacity-negative",
            ),
            pytest.param(
                "", TESTBED + "  loss_at_capacity: 1.5\n", "testbed.model",
                id="loss_at_capacity-above-1",
            ),
            pytest.param(
                "", TESTBED.replace("End: 900000", "End: .nan"), "testbed.model",
                id="capacity-nan",
            ),
            pytest.param(
                "", TESTBED + "  curve_exponent: .nan\n", "testbed.model",
                id="curve_exponent-nan",
            ),
            pytest.param(
                "", TESTBED + "  noise_sigma: .inf\n", "testbed.model",
                id="noise_sigma-inf",
            ),
            pytest.param(
                "search: {accuracy_percent: .inf}\n", TESTBED,
                "experiment.search.accuracy_percent", id="accuracy_percent-inf",
            ),
            pytest.param(
                "search: {accuracy_percent: .nan}\n", TESTBED,
                "experiment.search.accuracy_percent", id="accuracy_percent-nan",
            ),
            pytest.param(
                "search: {trial_duration_s: .inf}\n", TESTBED,
                "experiment.search.trial_duration_s", id="trial_duration_s-inf",
            ),
            pytest.param(
                "search: {trial_duration_s: .nan}\n", TESTBED,
                "experiment.search.trial_duration_s", id="trial_duration_s-nan",
            ),
            pytest.param(
                "", TESTBED + "link: {bit_rate_bps: .inf}\n", "testbed.link.bit_rate_bps",
                id="bit_rate_bps-inf",
            ),
            pytest.param(
                "", TESTBED + "link: {bit_rate_bps: .nan}\n", "testbed.link.bit_rate_bps",
                id="bit_rate_bps-nan",
            ),
            pytest.param(
                "policy: {max_rx_cv_percent: .nan}\n", TESTBED,
                "experiment.policy.max_rx_cv_percent", id="max_rx_cv_percent-nan",
            ),
            pytest.param(
                "search: {trial_duration_s: true}\n", TESTBED,
                "experiment.search.trial_duration_s", id="trial_duration_s-bool",
            ),
            pytest.param(
                "policy: {repetitions: 2.5}\n", TESTBED, "experiment.policy.repetitions",
                id="repetitions-float",
            ),
            pytest.param(
                "policy: {retry_cap: true}\n", TESTBED, "experiment.policy.retry_cap",
                id="retry_cap-bool",
            ),
            pytest.param(
                "", TESTBED + "  seed: 1.7\n", "testbed.model.seed", id="seed-float",
            ),
            pytest.param(
                "", TESTBED.replace("End: 900000", "End: true"), "testbed.model.capacity_pps.End",
                id="capacity-bool",
            ),
            pytest.param(
                "", TESTBED + "connection: {bogus: 1, port: x}\n",
                "testbed: unknown key(s) ['connection']", id="sim-connection",
            ),
            pytest.param(
                "", TESTBED.replace("capacity_pps", "capacity_kpps"),
                "testbed.model: unknown key(s) ['capacity_kpps']", id="capacity_kpps-removed",
            ),
            pytest.param(
                # ForwarderModel's own rule, reported at its key
                "", "forwarder: sim\nmodel: {capacity_pps: {}}\n",
                "testbed.model.capacity_pps must name at least one behavior", id="capacity-empty",
            ),
            pytest.param(
                "runs: 3\nruns: 1\n", TESTBED,
                "experiment: invalid YAML: duplicate key 'runs'", id="runs-twice",
            ),
            pytest.param(
                "", TESTBED + "    End: 5000\n",
                "testbed: invalid YAML: duplicate key 'End'", id="capacity-twice",
            ),
            pytest.param(
                "search: {accuracy_percent: 99}\n", TESTBED,
                "experiment.search.accuracy_percent", id="accuracy_percent-wider-than-window",
            ),
            pytest.param(
                "experiment_type: ndr\nsearch: {loss_threshold: 0.01}\n", TESTBED,
                "experiment.search.loss_threshold: must be 0 or absent for experiment_type ndr",
                id="ndr-loss_threshold",
            ),
            pytest.param(
                "packet: {inner_kind: ipv4}\n", TESTBED,
                "experiment.packet: unknown key(s) ['inner_kind']", id="inner_kind-removed",
            ),
        ],
    )
    def test_invalid_value_exits_2_and_writes_nothing(
        self, experiment, testbed, where, tmp_path, capsys
    ):
        exp = tmp_path / "e.yaml"
        exp.write_text("behaviors: [End]\n" + experiment)
        tb = tmp_path / "t.yaml"
        tb.write_text(testbed)
        out = tmp_path / "o"
        assert run_cmd(exp, tb, out) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["experiment", "testbed"])
    def test_non_utf8_config_exits_2_and_writes_nothing(self, bad, configs, tmp_path, capsys):
        files = dict(zip(("experiment", "testbed"), configs))
        files[bad].write_bytes(files[bad].read_bytes() + b"# caf\xe9\n")
        out = tmp_path / "o"
        assert run_cmd(files["experiment"], files["testbed"], out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read configuration: 'utf-8' codec can't decode")
        assert not out.exists()


def run_shipped(noise_sigma, tmp_path):
    """Run the shipped sim configs at noise_sigma; returns the output directory."""
    testbed = (SHIPPED / "testbed.sim.yaml").read_text()
    assert "noise_sigma: 0.0\n" in testbed
    tb = tmp_path / "testbed.yaml"
    tb.write_text(testbed.replace("noise_sigma: 0.0\n", f"noise_sigma: {noise_sigma}\n"))
    out = tmp_path / "out"
    assert run_cmd(SHIPPED / "experiment.sim.yaml", tb, out) == EXIT_OK
    return out


# sha256 of each output of `srv6bench run` on the shipped sim configs, with
# campaign.json's started_at and finished_at blanked; recorded on CPython 3.11.
# The noisy digests follow the per-driver noise generator's draw order.
# Re-recorded when a screen came to decide near-band rates too:
# - every trace file changed, because traces are written one run per line
#   (with the C JSON encoder) and record the near-band rates a screen alone
#   decided;
# - the noiseless plot data changed with the DR of those rates;
# - every noisy output changed, because the searches take fewer noise draws
#   (until a confirmation overturns a screen; then a search measures its
#   later near-band rates at full duration).
# The noiseless campaign.csv and campaign.json did not change.
# Re-recorded when CI95 took the Student-t factor t_95(n - 1): both
# campaign.json files changed in "ci95_model", and the noisy campaign.json
# and campaign.csv in every ci95_percent (x 2.2622 / 1.96 at 10 runs).
# Re-recorded when two full-duration trials came to decide a near-band rate
# (3 DRs -> 2): every noiseless trace file changed in the
# repetitions and testbed_s of its near-band rates, and every noisy output
# but two trace files changed, because the searches take fewer noise draws.
# The noiseless campaign.csv, campaign.json and plot_data.csv did not change.
# Re-recorded when a search came to pool the DR spread of its near-band
# batches: every noiseless trace file changed, because a run's second
# confirmed bound is now its screen and 1 full-duration trial (2 trials,
# 11 testbed-s, where it was 3 and 21), and every noisy output changed,
# because the searches take fewer noise draws. The noiseless campaign.csv,
# campaign.json and plot_data.csv did not change.
PINNED_OUTPUTS = {
    "noiseless": {
        "campaign.csv": "8d2318011194ebcc6180387e283a64a8327b5b7e19ded198997d6833eff38fd3",
        "campaign.json": "5788b866100a2d47daab352a60206c65bd1967498441fece99e283926361113b",
        "plot_data.csv": "3de43cd009041070fb435f59fea170a8897608f92303b363bcf90dee9d83a2ed",
        "trace_End.json": "8f7ec2f771ad79960e0ffbeb1ebe5d4fd7df862027c1954becc29f32440296c0",
        "trace_End_DT6.json": "e650514a20f5a4adca7892bdfc933ca4e82ec6fdb79e768df8912ac9ae0a5c4d",
        "trace_H_Encaps.json": "eaf69371c739656fef5f279458f585cbf31472528c92a3921bc2bfc5b315c9b3",
        "trace_PlainIPv6.json": "0b9b5b1d77cc4a4bd5fa100d66e0d7003de1037c68c1f31b82f4974a13450b75",
    },
    "noisy": {
        "campaign.csv": "8f4236e6f1212028477387027cbb8413f62dbaf5c26d7876acaf1e9bd709ccaf",
        "campaign.json": "ca32b8c4c93b93bd43f24ba150c6ac4c7532f12bdc6958b6ac0b1ff3dd02e189",
        "plot_data.csv": "62b22c77d3f37733b36afb0ee1ddd70d380456d4ee72112b603ffcefbea6439a",
        "trace_End.json": "9fd7f54d6a94352d58f3b217150919c80e0d336f1fd51382a0a3d0e3dcbc4aa5",
        "trace_End_DT6.json": "eba34d86c03c50d71fb0bae7c75adcf149c9e0ab3ca4efaa91945d649b61f08a",
        "trace_H_Encaps.json": "ace1e3b98a2d9e4b738b97723dde8d728b7ebc91ae8d6fd9d2d1e380cf12eb0c",
        "trace_PlainIPv6.json": "98282cb08e339b833164c042d24a7879c94ced40791bf3d2787bdead082c42fd",
    },
}


def digests(out):
    """sha256 of each file in out, campaign.json's timestamps blanked."""
    found = {}
    for path in out.iterdir():
        data = path.read_bytes()
        if path.name == "campaign.json":
            data = re.sub(rb'"(started_at|finished_at)": "[^"]*"', rb'"\1": ""', data)
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


@pytest.mark.parametrize(
    "noise_sigma, pinned", [("0.0", "noiseless"), ("0.002", "noisy")], ids=["noiseless", "noisy"]
)
def test_shipped_sim_campaign_outputs_are_pinned(noise_sigma, pinned, tmp_path, capsys):
    out = run_shipped(noise_sigma, tmp_path)
    assert digests(out) == PINNED_OUTPUTS[pinned]
    # in every run, the highest passed and the lowest failed rate, the
    # bounds the run reports, each had a full-duration trial
    full_s = yaml.safe_load((SHIPPED / "experiment.sim.yaml").read_text())["search"][
        "trial_duration_s"
    ]
    for path in out.glob("trace_*.json"):
        for run in json.loads(path.read_text()):
            passed = [e for e in run if e["decision"] == "raise-low"]
            failed = [e for e in run if e["decision"] == "lower-high"]
            low = max(passed, key=lambda e: e["tx_rate_pps"])
            high = min(failed, key=lambda e: e["tx_rate_pps"])
            assert low["testbed_s"] >= full_s and high["testbed_s"] >= full_s
    if pinned == "noisy":
        assert "CV 0.000%" not in capsys.readouterr().out


def test_main_serves_calls_after_a_rejected_command_line(tmp_path):
    # one parser serves every call in the process
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert digests(run_shipped("0.0", first)) == PINNED_OUTPUTS["noiseless"]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", "e.yaml", "--testbed", "t.yaml"])
    assert exc.value.code == 2
    assert digests(run_shipped("0.0", second)) == PINNED_OUTPUTS["noiseless"]


def test_run_prints_the_mean_its_cv_and_ci95_describe(tmp_path, capsys):
    capsys.readouterr()
    out = run_shipped("0.002", tmp_path)
    text = capsys.readouterr().out
    assert text.count(" kpps, mean of 10 runs (CV ") == 4
    printed = dict(re.findall(r"^(\S+): PDR midpoint ([0-9.]+) kpps", text, re.M))
    rows = {r["behavior"]: r for r in json.loads((out / "campaign.json").read_text())["behaviors"]}
    assert printed.keys() == rows.keys()
    for behavior, row in rows.items():
        assert float(printed[behavior]) == pytest.approx(row["stats"]["mean_pps"] / 1e3, abs=0.1)
    # the last run's interval, which campaign.json still reports, is another figure
    dt6 = rows["End.DT6"]
    last_midpoint = (dt6["pdr_low_pps"] + dt6["pdr_high_pps"]) / 2e3
    assert abs(float(printed["End.DT6"]) - last_midpoint) > 1


@pytest.mark.parametrize("noise_sigma", ["0.0", "0.002"], ids=["noiseless", "noisy"])
def test_report_csv_is_the_written_campaign_csv(noise_sigma, tmp_path, capsysbinary):
    out = run_shipped(noise_sigma, tmp_path)
    capsysbinary.readouterr()
    assert main(["report", "--campaign", str(out / "campaign.json"), "--format", "csv"]) == EXIT_OK
    assert capsysbinary.readouterr().out == (out / "campaign.csv").read_bytes()


class TestOtherCommands:
    def test_behaviors_table(self, capsys):
        assert main(["behaviors"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "End.DT6" in text
        assert "Behavior" in text

    def test_behaviors_json(self, capsys):
        assert main(["behaviors", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 34

    def test_lpr(self, capsys):
        assert main(["lpr", "--ip-packet-size", "64"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "12255 kpps" in text

    @pytest.mark.parametrize("bit_rate", ["0", "-1", "nan", "inf"])
    def test_lpr_bad_bit_rate_exits_2(self, bit_rate, capsys):
        assert main(["lpr", "--bit-rate", bit_rate, "--ip-packet-size", "64"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --bit-rate:")
        assert captured.out == ""

    def test_packet_hexdump(self, capsys):
        assert main(["packet", "--behavior", "End"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "158-byte frame" in text
        assert "0000  " in text

    @pytest.mark.parametrize(
        "behavior", [s.id.value for s in catalog() if s.measured]
    )
    def test_packet_is_the_campaign_packet(self, behavior, capsys):
        testbed = parse_testbed_config(TESTBED)
        template, _ = resolve(BehaviorId.parse(behavior), testbed)
        assert main(["packet", "--behavior", behavior]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:] == hexdump(template).splitlines()

    def test_packet_unknown_behavior(self, capsys):
        assert main(["packet", "--behavior", "End.Nope"]) == EXIT_CONFIG

    def test_report_round_trip(self, configs, tmp_path, capsys):
        exp, tb = configs
        out = tmp_path / "out"
        run_cmd(exp, tb, out)
        capsys.readouterr()
        rc = main(["report", "--campaign", str(out / "campaign.json")])
        assert rc == EXIT_OK
        rows = json.loads((out / "campaign.json").read_text())["behaviors"]
        assert capsys.readouterr().out.splitlines() == [
            f"{r['behavior']}: [{r['pdr_low_pps']:.0f}, {r['pdr_high_pps']:.0f}] pps" for r in rows
        ]
        assert [r["behavior"] for r in rows] == ["End", "H.Encaps"]
        rc = main(
            ["report", "--campaign", str(out / "campaign.json"), "--format", "csv"]
        )
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert text.splitlines()[0] == (
            "behavior,forwarder,pdr_low_pps,pdr_high_pps,"
            "midpoint_kpps,cv_percent,ci95_percent,flags"
        )
        assert text == (out / "campaign.csv").read_bytes().decode()

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", "--campaign", str(tmp_path / "x.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: cannot read campaign file: [Errno 2]")

    def test_report_non_utf8_campaign(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_bytes(b'{"forwarder": "caf\xe9"}')
        assert main(["report", "--campaign", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read campaign file: 'utf-8' codec can't decode")

    @pytest.mark.parametrize(
        "doc",
        [
            '{"behaviors": [{"behavior": "End"}]}',
            "[]",
            campaign_doc(pdr_low_pps="1", pdr_high_pps="2"),
            campaign_doc(stats={"mean_pps": 785810.5, "cv_percent": "0.5", "ci95_percent": 0.3, "n": 10}),
            campaign_doc(flags="ab"),
            campaign_doc(pdr_low_pps=812371.0, pdr_high_pps=759250.5),
            campaign_doc(behavior="End.Nope"),
        ],
        ids=[
            "missing-keys", "list", "bounds-str", "stat-str", "flags-str",
            "bounds-out-of-order", "unknown-behavior",
        ],
    )
    def test_report_malformed_campaign(self, doc, tmp_path, capsys):
        # the first row is well formed: report prints nothing unless the
        # whole document renders
        path = tmp_path / "campaign.json"
        path.write_text(campaign_doc())
        assert main(["report", "--campaign", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("End: [706130, 759251] pps\n")
        path.write_text(doc)
        for fmt in ("table", "csv"):
            assert main(["report", "--campaign", str(path), "--format", fmt]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: campaign: malformed document")
            assert "Traceback" not in captured.err
