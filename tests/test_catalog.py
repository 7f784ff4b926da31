import json

import pytest

from srv6bench.catalog import (
    BehaviorId,
    Category,
    InnerKind,
    catalog,
    lookup,
    spec_as_dict,
    traffic_requirement,
)
from srv6bench.errors import Srv6BenchError


def test_registry_size_and_uniqueness():
    specs = catalog()
    assert len(specs) == 34
    assert len({s.id for s in specs}) == 34


def test_every_behavior_id_has_an_entry():
    for bid in BehaviorId:
        assert lookup(bid).id is bid


def test_measured_set():
    measured = {s.id for s in catalog() if s.measured}
    assert measured == {
        BehaviorId.H_INSERT,
        BehaviorId.H_ENCAPS,
        BehaviorId.H_ENCAPS_L2,
        BehaviorId.END,
        BehaviorId.END_T,
        BehaviorId.END_X,
        BehaviorId.END_DT4,
        BehaviorId.END_DT6,
        BehaviorId.END_DX2,
        BehaviorId.END_DX4,
        BehaviorId.END_DX6,
        BehaviorId.PLAIN_IPV4,
        BehaviorId.PLAIN_IPV6,
    }


def test_measured_entries_are_fully_specified():
    # measured is derived from the traffic requirement, never stored apart
    for s in catalog():
        assert s.measured == (s.traffic is not None)
        if s.measured:
            assert traffic_requirement(s.id) is s.traffic
        else:
            message = rf"^{s.id} has no traffic specification \(not measurable\)$"
            with pytest.raises(Srv6BenchError, match=message):
                traffic_requirement(s.id)


def test_end_dt4_support_flags():
    # End.DT4 lives in VPP but not the mainline Linux kernel
    s = lookup(BehaviorId.END_DT4)
    assert not s.linux_supported
    assert s.vpp_supported
    assert s.measured


def test_parse_round_trips_display_names():
    for s in catalog():
        assert BehaviorId.parse(s.id.value) is s.id


def test_parse_rejects_unknown():
    with pytest.raises(Srv6BenchError, match="^unknown behavior: 'End.Bogus'$"):
        BehaviorId.parse("End.Bogus")


def test_lookup_rejects_unknown():
    with pytest.raises(Srv6BenchError, match="^unknown behavior: 'not-a-behavior'$"):
        lookup("not-a-behavior")


def test_no_decap_endpoints_keep_active_sid_off_the_end():
    for bid in (BehaviorId.END, BehaviorId.END_T, BehaviorId.END_X):
        req = traffic_requirement(bid)
        assert req.needs_srv6_encap
        assert req.active_sid_must_not_be_last
        assert req.min_sids >= 2


def test_decap_endpoints_sit_at_the_last_segment():
    for bid in (
        BehaviorId.END_DT4,
        BehaviorId.END_DT6,
        BehaviorId.END_DX2,
        BehaviorId.END_DX4,
        BehaviorId.END_DX6,
    ):
        req = traffic_requirement(bid)
        assert req.needs_srv6_encap
        assert not req.active_sid_must_not_be_last


def test_inner_kinds_match_behavior_family():
    assert traffic_requirement(BehaviorId.END_DT4).inner_kind is InnerKind.IPV4
    assert traffic_requirement(BehaviorId.END_DX2).inner_kind is InnerKind.ETHERNET
    assert traffic_requirement(BehaviorId.H_ENCAPS_L2).inner_kind is InnerKind.ETHERNET
    assert traffic_requirement(BehaviorId.PLAIN_IPV4).inner_kind is InnerKind.IPV4


def test_headend_traffic_is_unencapsulated():
    for bid in (BehaviorId.H_INSERT, BehaviorId.H_ENCAPS, BehaviorId.H_ENCAPS_L2):
        assert not traffic_requirement(bid).needs_srv6_encap


def test_unmeasured_behavior_has_no_traffic_spec():
    message = r"^End.AD has no traffic specification \(not measurable\)$"
    with pytest.raises(Srv6BenchError, match=message):
        traffic_requirement(BehaviorId.END_AD)


def test_categories_cover_the_registry():
    by_cat = {c: 0 for c in Category}
    for s in catalog():
        by_cat[s.category] += 1
    assert by_cat[Category.PLAIN_IP] == 2
    assert by_cat[Category.HEADEND] == 6
    assert all(n > 0 for n in by_cat.values())


def test_spec_as_dict_is_json_friendly():
    for s in catalog():
        doc = spec_as_dict(s)
        text = json.dumps(doc)
        assert s.id.value in text
