"""Campaign automation: configuration parsing, behavior-to-recipe
resolution, driver/executor wiring and result assembly.

Two YAML documents drive a campaign. The experiment file selects the
behaviors, the search algorithm and its parameters; the testbed file
describes the forwarder: a simulated model, or a Linux/VPP forwarder
configured through the executor a campaign is given. Forwarder
configuration commands live in recipe templates as data, rendered against
the fixed address plan of `packet`.
"""

from __future__ import annotations

import datetime
import functools
import io
import csv as csv_mod
from collections import abc
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import (
    Any, Mapping, Optional, Protocol, Sequence, Union, get_args, get_origin, get_type_hints,
)

import yaml

from . import __version__
from .catalog import BehaviorId, lookup, traffic_requirement
from .errors import ConfigError, ExperimentAbortedError, Srv6BenchError
from .finder import (
    FinderResult,
    FinderTrace,
    RateInterval,
    SearchConfig,
    TrialPolicy,
    find_pdr,
    find_pdr_legacy,
    validate_pdr,
)
from .packet import (  # default_behavior_configs is not used here: it is re-exported
    ADDRESS_PLAN, SID_PLAN, PacketTemplate, build_test_packet, default_behavior_configs,
)
from .ratemath import LinkSpec, SummaryStats, line_packet_rate
from .simulator import ForwarderModel, SimDriver


def _ip(command: str) -> tuple[str, str]:
    """(setup, undo) pair of an `ip` command template with a {verb} slot."""
    command = f"ip {command}"
    return command.replace("{verb}", "add"), command.replace("{verb}", "del")


def _seg6local(action: str) -> tuple[str, str]:
    """(setup, undo) pair of a Linux seg6local route for sid1."""
    return _ip(f"-6 route {{verb}} {{sid1}}/128 encap seg6local action {action} dev {{iface_in}}")


def _localsid(behavior: str) -> tuple[str, str]:
    """(setup, undo) pair of a VPP local SID at sid1."""
    return f"sr localsid address {{sid1}} behavior {behavior}", "sr localsid del address {sid1}"


def _policy(segments: str) -> tuple[str, str]:
    """(setup, undo) pair of a VPP SR policy with binding SID sid1."""
    return f"sr policy add bsid {{sid1}} {segments}", "sr policy del bsid {sid1}"


def _steer(traffic: str) -> tuple[str, str]:
    """(setup, undo) pair of VPP steering into the sid1 policy."""
    return f"sr steer {traffic} via bsid {{sid1}}", f"sr steer del {traffic} via bsid {{sid1}}"


_B = BehaviorId

# behavior -> (setup, undo) command-template pairs in setup order. Linux
# endpoint recipes have two routes: the SID route and the plain route used
# after the behavior has run.
_LINUX_RECIPES = {
    _B.END: (
        _seg6local("End"),
        _ip("-6 route {verb} {sid2}/128 via {nexthop6} dev {iface_out}"),
    ),
    _B.END_T: (
        _seg6local("End.T table {table}"),
        _ip("-6 route {verb} {sid2}/128 table {table} via {nexthop6} dev {iface_out}"),
    ),
    _B.END_X: (_seg6local("End.X nh6 {nexthop6}"),),
    _B.END_DT6: (
        _seg6local("End.DT6 table {table}"),
        _ip("-6 route {verb} {inner_prefix6} table {table} via {nexthop6} dev {iface_out}"),
    ),
    _B.END_DX6: (_seg6local("End.DX6 nh6 {nexthop6}"),),
    _B.END_DX4: (_seg6local("End.DX4 nh4 {nexthop4}"),),
    _B.END_DX2: (_seg6local("End.DX2 oif {iface_out}"),),
    _B.H_INSERT: (
        _ip("-6 route {verb} {inner_prefix6} encap seg6 mode inline segs {sid1},{sid2} dev {iface_out}"),
    ),
    _B.H_ENCAPS: (
        _ip("-6 route {verb} {inner_prefix6} encap seg6 mode encap segs {sid1} dev {iface_out}"),
    ),
    _B.H_ENCAPS_L2: (
        _ip("-6 route {verb} {sid1}/128 encap seg6 mode l2encap segs {sid1} dev {iface_out}"),
    ),
    _B.PLAIN_IPV6: (_ip("-6 route {verb} {inner_prefix6} via {nexthop6} dev {iface_out}"),),
    _B.PLAIN_IPV4: (_ip("route {verb} {inner_prefix4} via {nexthop4} dev {iface_out}"),),
}

_VPP_RECIPES = {
    _B.END: (
        _localsid("end"),
        _ip("route {verb} {sid2}/128 via {nexthop6} {iface_out}"),
    ),
    _B.END_T: (
        _localsid("end.t {table}"),
        _ip("route {verb} {sid2}/128 table {table} via {nexthop6} {iface_out}"),
    ),
    _B.END_X: (_localsid("end.x {iface_out} {nexthop6}"),),
    _B.END_DT6: (
        _localsid("end.dt6 {table}"),
        _ip("route {verb} {inner_prefix6} table {table} via {nexthop6} {iface_out}"),
    ),
    _B.END_DT4: (
        _localsid("end.dt4 {table}"),
        _ip("route {verb} {inner_prefix4} table {table} via {nexthop4} {iface_out}"),
    ),
    _B.END_DX6: (_localsid("end.dx6 {iface_out} {nexthop6}"),),
    _B.END_DX4: (_localsid("end.dx4 {iface_out} {nexthop4}"),),
    _B.END_DX2: (_localsid("end.dx2 {iface_out}"),),
    _B.H_INSERT: (_policy("next {sid1} next {sid2} insert"), _steer("l3 {inner_prefix6}")),
    _B.H_ENCAPS: (_policy("next {sid1} encap"), _steer("l3 {inner_prefix6}")),
    _B.H_ENCAPS_L2: (_policy("next {sid1} encap"), _steer("l2 {iface_in}")),
    _B.PLAIN_IPV6: (_ip("route {verb} {inner_prefix6} via {nexthop6} {iface_out}"),),
    _B.PLAIN_IPV4: (_ip("route {verb} {inner_prefix4} via {nexthop4} {iface_out}"),),
}

_RECIPES = {"linux": _LINUX_RECIPES, "vpp": _VPP_RECIPES}

FORWARDER_KINDS = ("linux", "vpp", "sim")


def recipe_for(behavior: BehaviorId, forwarder_kind: str) -> tuple[tuple[str, str], ...]:
    """A behavior's rendered (setup, undo) command pairs, in setup order."""
    spec = lookup(behavior)
    if not spec.measured:
        raise Srv6BenchError(
            f"{spec.id} is not measurable: no semantics/recipe"
        )
    if forwarder_kind == "sim":
        name = spec.id.value
        pairs = ((f"sim set-behavior {name}", f"sim clear-behavior {name}"),)
    elif forwarder_kind in _RECIPES:
        if not getattr(spec, f"{forwarder_kind}_supported"):
            raise Srv6BenchError(
                f"{spec.id} is not supported by the {forwarder_kind} forwarder "
                f"(catalog: {forwarder_kind}_supported=False)"
            )
        pairs = _RECIPES[forwarder_kind][spec.id]
    else:
        raise ConfigError(f"unknown forwarder kind: {forwarder_kind!r}")
    return tuple((setup.format(**ADDRESS_PLAN), undo.format(**ADDRESS_PLAN)) for setup, undo in pairs)


# ---------------------------------------------------------------------------
# configuration files


@dataclass(frozen=True)
class PacketOverrides:
    """The experiment's changes to each behavior's test packet."""

    inner_size: Optional[int] = None

    def __post_init__(self):
        if self.inner_size is not None and self.inner_size < 1:
            raise ValueError("inner_size must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment file: what to measure, and how."""

    behaviors: tuple[BehaviorId, ...]
    experiment_type: str = "pdr"  # pdr | ndr
    algorithm: str = "binary"  # binary | legacy
    runs: int = 10
    packet: PacketOverrides = PacketOverrides()
    search: SearchConfig = SearchConfig()
    policy: TrialPolicy = TrialPolicy()

    def __post_init__(self):
        if not self.behaviors:
            raise ValueError("behaviors must be a non-empty list")
        if len(set(self.behaviors)) < len(self.behaviors):
            raise ValueError("behaviors must not list a behavior twice")
        if self.experiment_type not in ("pdr", "ndr"):
            raise ValueError("experiment_type must be 'pdr' or 'ndr'")
        if self.algorithm not in ("binary", "legacy"):
            raise ValueError("algorithm must be 'binary' or 'legacy'")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        # binary search of a window no wider than the accuracy runs no trial
        window = self.search.max_percent - self.search.min_percent
        if self.algorithm == "binary" and not self.search.accuracy_percent < window:
            raise ValueError("search.accuracy_percent must be below max_percent - min_percent")


@dataclass(frozen=True)
class TestbedConfig:
    """A parsed testbed file: the forwarder and the link to it."""

    forwarder_kind: str
    link: LinkSpec
    model: Optional[ForwarderModel] = None


def _require_mapping(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return doc


def _reject_unknown(doc: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown, key=str)}")


# libyaml's scanner and parser under PyYAML's safe constructor and resolver: the values
# of yaml.safe_load, parsed in C where PyYAML was built with libyaml, except that a key
# written twice in one mapping is refused (a key may still override one `<<` merged in)
class _SafeLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    def construct_mapping(self, node, deep=False):
        own = node.value if isinstance(node, yaml.MappingNode) else []  # before super() merges
        own = [k for k, _ in own if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        keys = [self.construct_object(k) for k in own]  # built, and found hashable, by super()
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", own[i].start_mark
                )
        return mapping


def _load_yaml(text: str, where: str) -> dict:
    try:
        doc = yaml.load(text, Loader=_SafeLoader)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml reads UTF-8: no lone surrogate
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
    if doc is None:
        raise ConfigError(f"{where}: empty document")
    return _require_mapping(doc, where)


_EXPECTED = {int: "an integer", float: "a number", str: "a string", tuple: "a list"}


def _read(value: Any, kind: Any, where: str) -> Any:
    """`value` checked against the declared type `kind`.

    Nothing is coerced: a bool is never a number and an int stays an int.
    The one conversion is float() of a string in a float field, because
    YAML loads a number such as 10e9 as a string.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X], the only union a field declares
        return None if value is None else _read(value, args[0], where)
    if origin is tuple:  # tuple[X, ...]
        if isinstance(value, list):
            return tuple(_read(item, args[0], where) for item in value)
    elif origin is abc.Mapping:
        items = _require_mapping(value, where).items()
        return {_read(k, args[0], where): _read(v, args[1], f"{where}.{k}") for k, v in items}
    elif is_dataclass(kind):
        return _build(kind, value, where)
    elif issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise ConfigError(f"{where}: {value!r} is not one of {choices}") from None
    elif kind is float:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                number = float(value)
            except (ValueError, OverflowError):  # OverflowError: an int past float range
                pass
            else:
                return number if isinstance(value, str) else value
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[origin or kind]}, got {value!r}")


# a class's field types never change (callers only read the dict), and
# evaluating its string annotations costs more than parsing the YAML
_field_types = functools.cache(get_type_hints)


def _build(cls, doc: Any, where: str, **given):
    """The dataclass `cls` from the mapping `doc`, whose keys are the fields
    of `cls` not in `given`. Each value is read against its field's type."""
    kinds = _field_types(cls)
    _reject_unknown(_require_mapping(doc, where), [k for k in kinds if k not in given], where)
    for f in fields(cls):
        if f.default is f.default_factory is MISSING and f.name not in {**doc, **given}:
            raise ConfigError(f"{where}.{f.name}: required")
    values = {key: _read(value, kinds[key], f"{where}.{key}") for key, value in doc.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        # a range check names its field (or field.subfield) first: report it at that key
        first_word = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{where}{'.' if first_word.split('.')[0] in kinds else ': '}{exc}") from exc


def parse_experiment_config(text: str) -> ExperimentConfig:
    doc = _load_yaml(text, "experiment")
    experiment = _build(ExperimentConfig, doc, "experiment")
    if experiment.experiment_type == "ndr":
        # NDR is the zero-loss-threshold special case
        if experiment.search.loss_threshold and "loss_threshold" in doc.get("search", {}):
            where = "experiment.search.loss_threshold"
            raise ConfigError(f"{where}: must be 0 or absent for experiment_type ndr")
        search = replace(experiment.search, loss_threshold=0.0)
        experiment = replace(experiment, search=search)
    return experiment


def parse_testbed_config(text: str) -> TestbedConfig:
    doc = _load_yaml(text, "testbed")
    kind = doc.get("forwarder")
    if kind not in FORWARDER_KINDS:
        raise ConfigError(
            f"testbed.forwarder: must be one of {', '.join(FORWARDER_KINDS)}"
        )
    # a remote forwarder is reached through the executor a campaign is given
    sections = ["forwarder", "link", "model"] if kind == "sim" else ["forwarder", "link"]
    _reject_unknown(doc, sections, "testbed")
    link_doc = _require_mapping(doc.get("link", {}), "testbed.link")
    _reject_unknown(link_doc, ["bit_rate_bps"], "testbed.link")
    bit_rate = _read(link_doc.get("bit_rate_bps", 10e9), float, "testbed.link.bit_rate_bps")
    try:
        link = LinkSpec(line_bit_rate_bps=bit_rate)
    except ValueError as exc:
        raise ConfigError(f"testbed.link.bit_rate_bps: {exc}") from exc

    if kind != "sim":
        return TestbedConfig(forwarder_kind=kind, link=link)

    if doc.get("model") is None:
        raise ConfigError("testbed.model: required for the sim forwarder")
    # behavior_config is not read from the file: every behavior runs on the address plan
    model = _build(ForwarderModel, doc["model"], "testbed.model", behavior_config={})
    return TestbedConfig(forwarder_kind=kind, link=link, model=model)


# ---------------------------------------------------------------------------
# executors


class CommandExecutor(Protocol):
    """Execute one configuration command, return (exit status, output)."""

    def execute(self, command: str) -> tuple[int, str]: ...


class RecordingExecutor:
    """Accepts every command and records it; the default executor and the
    verification hook for ordering tests."""

    def __init__(self):
        self.commands: list[str] = []

    def execute(self, command: str) -> tuple[int, str]:
        self.commands.append(command)
        return 0, ""


# ---------------------------------------------------------------------------
# campaign


@dataclass(frozen=True)
class BehaviorResult:
    """One behavior's campaign outcome: its interval, stats and traces, or its error."""

    behavior: BehaviorId
    frame_size: Optional[int] = None
    line_packet_rate_pps: Optional[float] = None
    interval: Optional[RateInterval] = None
    flags: tuple[str, ...] = ()
    stats: Optional[SummaryStats] = None
    traces: tuple[FinderTrace, ...] = ()
    error: Optional[str] = None


@dataclass
class CampaignResult:
    """Every behavior's result of one campaign, in the experiment's order."""

    forwarder_kind: str
    entries: list[BehaviorResult]
    version: str = __version__
    started_at: str = ""
    finished_at: str = ""

    @property
    def partial(self) -> bool:
        return any(e.error is not None for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "forwarder": self.forwarder_kind,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            # CI95 half-widths use the Student-t factor t_95(n - 1)
            "ci95_model": "student-t",
            "behaviors": [
                {
                    "behavior": e.behavior.value,
                    "frame_size": e.frame_size,
                    "line_packet_rate_pps": e.line_packet_rate_pps,
                    "pdr_low_pps": e.interval.low_pps if e.interval else None,
                    "pdr_high_pps": e.interval.high_pps if e.interval else None,
                    "flags": list(e.flags),
                    "stats": (
                        {
                            "mean_pps": e.stats.mean,
                            "cv_percent": e.stats.cv_percent,
                            "ci95_percent": e.stats.ci95_percent,
                            "n": e.stats.n,
                        }
                        if e.stats
                        else None
                    ),
                    "error": e.error,
                }
                for e in self.entries
            ],
        }


def _number(value, key: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} is not a number: {value!r}")
    return value


def _render_row(row, forwarder) -> tuple[list, Optional[str]]:
    """One behavior's campaign.csv cells and its report line (None when
    the row has neither an error nor an interval)."""
    behavior = BehaviorId.parse(row["behavior"]).value
    low, high = row["pdr_low_pps"], row["pdr_high_pps"]
    interval = None
    if low is not None or high is not None:
        interval = RateInterval(_number(low, "pdr_low_pps"), _number(high, "pdr_high_pps"))
    stats, dispersion = row["stats"], ["", ""]
    if stats is not None:
        dispersion = [f"{_number(stats[k], k):.4f}" for k in ("cv_percent", "ci95_percent")]
    flags, error = row["flags"], row["error"]
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise ValueError(f"flags is not a list of strings: {flags!r}")
    cells = [
        behavior,
        forwarder,
        f"{interval.low_pps:.2f}" if interval else "",
        f"{interval.high_pps:.2f}" if interval else "",
        f"{interval.midpoint_pps / 1e3:.2f}" if interval else "",
        *dispersion,
        ";".join(flags) if flags else (error or ""),
    ]
    line = None
    if error:
        line = f"{behavior}: ERROR: {error}"
    elif interval:
        line = f"{behavior}: [{interval.low_pps:.0f}, {interval.high_pps:.0f}] pps" + (
            f" [{', '.join(flags)}]" if flags else ""
        )
    return cells, line


def render_campaign(doc, fmt: str) -> str:
    """Render a campaign.json document as campaign.csv ("csv") or as the
    report table ("table"), one line per behavior with an error or an
    interval.

    The document is the only stored form of a campaign: `run` writes
    campaign.csv through this, and `report` re-renders a stored file.
    Either format needs every key either one shows, well typed; a
    document without them is a ConfigError, raised before any text is
    returned.
    """
    try:
        forwarder = doc["forwarder"]
        rows = [_render_row(row, forwarder) for row in doc["behaviors"]]
    except KeyError as exc:
        raise ConfigError(f"campaign: malformed document: missing key {exc}") from None
    except (TypeError, ValueError, Srv6BenchError) as exc:
        raise ConfigError(f"campaign: malformed document: {exc}") from None
    if fmt == "table":
        return "".join(f"{line}\n" for _, line in rows if line)
    buf = io.StringIO()
    writer = csv_mod.writer(buf)
    writer.writerow(
        ["behavior", "forwarder", "pdr_low_pps", "pdr_high_pps",
         "midpoint_kpps", "cv_percent", "ci95_percent", "flags"]
    )
    writer.writerows(cells for cells, _ in rows)
    return buf.getvalue()


def packet_for(
    behavior: BehaviorId, packet: Optional[PacketOverrides] = None
) -> PacketTemplate:
    """Build a behavior's test packet on the address plan's SID list."""
    req = traffic_requirement(behavior)
    if packet and packet.inner_size is not None:
        req = replace(req, inner_packet_size=packet.inner_size)
    return build_test_packet(req, SID_PLAN)


def resolve(
    behavior: BehaviorId,
    testbed: TestbedConfig,
    packet: Optional[PacketOverrides] = None,
) -> tuple[PacketTemplate, tuple[tuple[str, str], ...]]:
    """Map a behavior to its test packet and configuration recipe."""
    recipe = recipe_for(behavior, testbed.forwarder_kind)
    return packet_for(behavior, packet), recipe


def _make_driver(behavior, template, testbed: TestbedConfig):
    if testbed.forwarder_kind != "sim":
        # no driver for a remote traffic generator: fail before any setup
        raise Srv6BenchError(
            f"no traffic generator for the {testbed.forwarder_kind} forwarder: "
            f"the TRex driver is not available in this build"
        )
    return SimDriver(testbed.model, behavior, template)


def run_campaign(
    experiment: ExperimentConfig,
    testbed: TestbedConfig,
    executor: Optional[CommandExecutor] = None,
    driver_factory=None,
) -> CampaignResult:
    """Run every requested behavior sequentially against one testbed.

    Per-behavior failures are recorded and the campaign continues. The
    driver is built before the first setup step; SimDriver checks the
    test packet then, and a driver_factory driver must do the same.
    Every setup step that succeeded is always undone by its paired
    command, last one first; a failed undo joins that behavior's error.
    executor and driver_factory are injection points for tests (a
    recording mock, a scripted driver).
    """
    executor = executor or RecordingExecutor()
    driver_factory = driver_factory or _make_driver
    algorithm = find_pdr if experiment.algorithm == "binary" else find_pdr_legacy

    result = CampaignResult(
        forwarder_kind=testbed.forwarder_kind,
        entries=[],
        started_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    for behavior in experiment.behaviors:
        frame_size = lpr = None
        undos = []
        measured = {}
        errors = []
        try:
            template, recipe = resolve(behavior, testbed, experiment.packet)
            frame_size = template.frame_size
            lpr = line_packet_rate(testbed.link, frame_size)
            driver = driver_factory(behavior, template, testbed)
            for step, undo in recipe:
                status, output = executor.execute(step)
                if status != 0:
                    raise Srv6BenchError(
                        f"configuration step failed ({status}): {step}: {output}"
                    )
                undos.append(undo)
            validation = validate_pdr(
                driver,
                lpr,
                experiment.search,
                experiment.policy,
                runs=experiment.runs,
                algorithm=algorithm,
            )
            last = validation.results[-1]
            measured = dict(
                interval=last.interval,
                flags=last.flags,
                stats=validation.stats,
                traces=tuple(r.trace for r in validation.results),
            )
        except ExperimentAbortedError as exc:
            errors.append(str(exc))
            # the finished runs, then the rates the aborted one probed
            measured = dict(traces=tuple(t for t in exc.traces if t.entries))
        except Srv6BenchError as exc:
            errors.append(str(exc))
        finally:
            for step in reversed(undos):
                status, output = executor.execute(step)
                if status != 0:
                    errors.append(f"teardown step failed ({status}): {step}: {output}")
        result.entries.append(
            BehaviorResult(
                behavior=behavior,
                frame_size=frame_size,
                line_packet_rate_pps=lpr,
                error="; ".join(errors) or None,
                **measured,
            )
        )
    result.finished_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return result
