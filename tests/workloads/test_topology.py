"""Tests for the synthetic IXP generator: determinism, heavy tail,
category mix, and controller loading."""

import pytest

from repro.workloads.routing import PrefixPool, synthesize_as_path
from repro.workloads.topology import (
    CATEGORY_FRACTIONS,
    MULTI_PORT_FRACTION,
    generate_ixp,
)


class TestPrefixPool:
    def test_distinct_prefixes(self):
        pool = PrefixPool(seed=1)
        taken = pool.take(5_000)
        assert len(set(taken)) == 5_000

    def test_non_overlapping(self):
        taken = PrefixPool(seed=2).take(2_000)
        by_16 = {}
        for prefix in taken:
            key = prefix.network_int >> 16
            by_16.setdefault(key, []).append(prefix)
        for prefixes in by_16.values():
            for i, left in enumerate(prefixes):
                for right in prefixes[i + 1:]:
                    assert not left.overlaps(right)

    def test_requested_lengths_only(self):
        taken = PrefixPool(lengths=(24,), seed=0).take(100)
        assert all(prefix.length == 24 for prefix in taken)

    def test_avoids_reserved_space(self):
        taken = PrefixPool(seed=0).take(10_000)
        for prefix in taken:
            first_octet = prefix.network_int >> 24
            assert first_octet not in (10, 172, 192)

    def test_rejects_silly_lengths(self):
        with pytest.raises(ValueError):
            PrefixPool(lengths=(4,))

    def test_deterministic(self):
        assert PrefixPool(seed=7).take(100) == PrefixPool(seed=7).take(100)


class TestSynthesizeAsPath:
    def test_starts_and_ends_correctly(self):
        import random
        path = synthesize_as_path(1234, 65001, random.Random(0))
        assert path.neighbour_asn == 65001
        assert path.origin_asn == 1234

    def test_min_length_respected(self):
        import random
        path = synthesize_as_path(1234, 65001, random.Random(0), min_length=4)
        assert path.length >= 4

    def test_same_origin_as_first_hop(self):
        import random
        path = synthesize_as_path(65001, 65001, random.Random(0))
        assert path.origin_asn == 65001


class TestGenerateIxp:
    def test_deterministic(self):
        first = generate_ixp(50, 1_000, seed=3)
        second = generate_ixp(50, 1_000, seed=3)
        assert first.announcements == second.announcements

    def test_all_prefixes_allocated(self):
        ixp = generate_ixp(50, 1_000, seed=0)
        assert len(ixp.all_prefixes()) == 1_000
        total_owned = sum(len(spec.prefixes) for spec in ixp.participants)
        assert total_owned == 1_000

    def test_heavy_tailed_ownership(self):
        """Top ~1% of ASes should own a large share of the table."""
        ixp = generate_ixp(200, 10_000, seed=0)
        sizes = sorted((len(s.prefixes) for s in ixp.participants), reverse=True)
        top_two = sum(sizes[:2])
        assert top_two > 0.35 * 10_000

    def test_paper_calibration_at_amsix_scale(self):
        """Section 6.1's AMS-IX numbers: ~1% of ASes announce more than
        50% of prefixes, and 90% of ASes combined announce little."""
        ixp = generate_ixp(600, 20_000, seed=3)
        sizes = sorted((len(s.prefixes) for s in ixp.participants), reverse=True)
        top_one_percent = sum(sizes[:6])
        assert top_one_percent > 0.45 * 20_000
        bottom_ninety = sum(sizes[60:])
        assert bottom_ninety < 0.15 * 20_000

    def test_category_mix_roughly_matches(self):
        ixp = generate_ixp(400, 2_000, seed=1)
        counts = {"eyeball": 0, "transit": 0, "content": 0}
        for spec in ixp.participants:
            counts[spec.category] += 1
        for category, fraction in CATEGORY_FRACTIONS.items():
            assert abs(counts[category] / 400 - fraction) < 0.08

    def test_multi_port_fraction(self):
        ixp = generate_ixp(400, 2_000, seed=1)
        multi = sum(1 for spec in ixp.participants if spec.ports == 2)
        assert abs(multi / 400 - MULTI_PORT_FRACTION) < 0.06

    def test_transit_cover_routes_create_multihoming(self):
        ixp = generate_ixp(100, 2_000, seed=0, transit_cover_fraction=0.5)
        announcers = {}
        for name, prefix, _path in ixp.announcements:
            announcers.setdefault(prefix, set()).add(name)
        multihomed = sum(1 for names in announcers.values() if len(names) > 1)
        assert multihomed > 0.2 * 2_000

    def test_zero_cover_fraction(self):
        ixp = generate_ixp(20, 200, seed=0, transit_cover_fraction=0.0)
        assert len(ixp.announcements) == 200

    def test_rejects_tiny_ixp(self):
        with pytest.raises(ValueError):
            generate_ixp(1, 100)

    def test_helpers(self):
        ixp = generate_ixp(20, 200, seed=0)
        spec = ixp.participants[0]
        assert ixp.by_name(spec.name) is spec
        with pytest.raises(KeyError):
            ixp.by_name("nope")
        top = ixp.top_by_prefixes(3)
        assert len(top) == 3
        assert len(top[0].prefixes) >= len(top[2].prefixes)

    def test_build_controller_loads_routes(self):
        ixp = generate_ixp(20, 200, seed=0)
        controller = ixp.build_controller()
        assert len(controller.route_server.all_prefixes()) == 200
        result = controller.start()
        assert result.flow_rule_count > 0
