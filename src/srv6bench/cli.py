"""Command-line frontend.

Exit codes: 0 full success, 2 configuration error, 3 partial campaign
(some behaviors errored, others completed). Every subcommand is a thin
adapter over the library API.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import BehaviorId, catalog, spec_as_dict
from .errors import ConfigError, Srv6BenchError
from .orchestrator import (
    CampaignResult,
    packet_for,
    parse_experiment_config,
    parse_testbed_config,
    render_campaign,
    run_campaign,
)
from .packet import ETHERNET_LEN, hexdump
from .ratemath import LinkSpec, line_packet_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


def _cmd_lpr(args) -> int:
    try:
        link = LinkSpec(line_bit_rate_bps=args.bit_rate)
    except ValueError as exc:
        raise ConfigError(f"--bit-rate: {exc}") from None
    frame = args.ip_packet_size + ETHERNET_LEN
    pps = line_packet_rate(link, frame)
    print(f"frame size: {frame} B (IP {args.ip_packet_size} B + {ETHERNET_LEN} B Ethernet)")
    print(f"line packet rate: {pps:.2f} pps ({pps / 1e3:.0f} kpps)")
    return EXIT_OK


def _cmd_behaviors(args) -> int:
    specs = catalog()
    if args.format == "json":
        print(json.dumps([spec_as_dict(s) for s in specs], indent=2))
        return EXIT_OK
    header = f"{'Behavior':<20} {'Category':<18} {'Linux':<6} {'VPP':<5} {'Measured':<9}"
    print(header)
    print("-" * len(header))
    for s in specs:
        print(
            f"{s.id.value:<20} {s.category.value:<18} "
            f"{'yes' if s.linux_supported else 'no':<6} "
            f"{'yes' if s.vpp_supported else 'no':<5} "
            f"{'yes' if s.measured else 'no':<9}"
        )
    return EXIT_OK


def _cmd_packet(args) -> int:
    behavior = BehaviorId.parse(args.behavior)
    template = packet_for(behavior)
    print(f"# {behavior.value}: {template.frame_size}-byte frame")
    print(hexdump(template))
    return EXIT_OK


def _trace_name(behavior: BehaviorId) -> str:
    return f"trace_{behavior.value.replace('.', '_')}.json"


# every file `run` writes; nothing else in --out is touched
_OUTPUT_NAMES = frozenset(
    ("campaign.json", "campaign.csv", "plot_data.csv", *map(_trace_name, BehaviorId))
)


def _check_outputs(out_dir: Path) -> None:
    """Refuse out_dir before a campaign if a name `run` writes is taken by
    something other than a regular file, which it could not replace."""
    for name in sorted(_OUTPUT_NAMES.intersection(os.listdir(out_dir))):
        if not (out_dir / name).is_file():
            raise ConfigError(f"cannot write outputs: {out_dir / name} is not a regular file")


def _clear_outputs(out_dir: Path) -> None:
    """Remove an earlier campaign's outputs from out_dir once the new
    campaign has finished, so a stopped run leaves the earlier files alone.
    No stale file survives a re-run, and every output is written as a new
    file, which is cheaper than truncating and rewriting one in place."""
    for name in _OUTPUT_NAMES.intersection(os.listdir(out_dir)):
        os.unlink(out_dir / name)


def _write_outputs(result: CampaignResult, out_dir: Path) -> None:
    doc = result.to_json_dict()
    (out_dir / "campaign.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    (out_dir / "campaign.csv").write_text(render_campaign(doc, "csv"), encoding="utf-8")

    plot_lines = ["behavior,run,tx_rate_pps,delivery_ratio,throughput_pps"]
    for entry in result.entries:
        for run_idx, trace in enumerate(entry.traces):
            for t in trace.entries:
                plot_lines.append(
                    f"{entry.behavior.value},{run_idx},{t.tx_rate_pps:.2f},"
                    f"{t.delivery_ratio:.6f},{t.tx_rate_pps * t.delivery_ratio:.2f}"
                )
        if entry.traces:
            # one run per line: without indent json.dumps uses the C encoder
            runs = ",\n".join(json.dumps(t.records()) for t in entry.traces)
            (out_dir / _trace_name(entry.behavior)).write_text(
                "[\n" + runs + "\n]\n", encoding="utf-8"
            )
    (out_dir / "plot_data.csv").write_text("\n".join(plot_lines) + "\n", encoding="utf-8")


def _cmd_run(args) -> int:
    try:
        experiment_text = Path(args.experiment).read_text(encoding="utf-8")
        testbed_text = Path(args.testbed).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from None
    experiment = parse_experiment_config(experiment_text, args.experiment)
    testbed = parse_testbed_config(testbed_text, args.testbed)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _check_outputs(out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs: {exc}") from None
    result = run_campaign(experiment, testbed)
    try:
        _clear_outputs(out_dir)
        _write_outputs(result, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs: {exc}") from None
    rate_name = experiment.experiment_type.upper()
    for entry in result.entries:
        if entry.error:
            print(f"{entry.behavior.value}: ERROR: {entry.error}")
        else:
            stats = entry.stats
            flags = f" [{', '.join(entry.flags)}]" if entry.flags else ""
            print(
                f"{entry.behavior.value}: {rate_name} midpoint {stats.mean / 1e3:.1f} kpps, "
                f"mean of {stats.n} runs (CV {stats.cv_percent:.3f}%, CI95 {stats.ci95_percent:.3f}%)"
                f"{flags}"
            )
    print(f"outputs written to {args.out}")
    return EXIT_PARTIAL if result.partial else EXIT_OK


def _cmd_report(args) -> int:
    try:
        doc = json.loads(Path(args.campaign).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        where = "" if isinstance(exc, OSError) else f' in "{args.campaign}"'  # OSError names it
        raise ConfigError(f"cannot read campaign file: {exc}{where}") from None
    print(render_campaign(doc, args.format), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srv6bench",
        description="SRv6 dataplane benchmarking: PDR campaigns, catalog "
        "inspection, line-rate math and packet fixtures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmarking campaign")
    p_run.add_argument("--experiment", required=True, help="experiment YAML file")
    p_run.add_argument("--testbed", required=True, help="testbed YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_beh = sub.add_parser("behaviors", help="dump the behavior catalog")
    p_beh.add_argument("--format", choices=("table", "json"), default="table")
    p_beh.set_defaults(func=_cmd_behaviors)

    p_lpr = sub.add_parser("lpr", help="compute the line packet rate")
    p_lpr.add_argument("--bit-rate", type=float, default=10e9, help="line bit rate in bps")
    p_lpr.add_argument("--ip-packet-size", type=int, required=True, help="IP packet size in bytes")
    p_lpr.set_defaults(func=_cmd_lpr)

    p_pkt = sub.add_parser("packet", help="hex-dump a behavior's test packet")
    p_pkt.add_argument("--behavior", required=True)
    p_pkt.set_defaults(func=_cmd_packet)

    p_rep = sub.add_parser("report", help="re-render a stored campaign.json")
    p_rep.add_argument("--campaign", required=True, help="campaign.json path")
    p_rep.add_argument("--format", choices=("table", "csv"), default="table")
    p_rep.set_defaults(func=_cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Srv6BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
