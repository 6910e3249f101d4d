"""Tests for the traffic-matrix generator and its locality statistics."""

from repro.workloads.topology import generate_ixp
from repro.workloads.traffic import (
    generate_traffic_matrix,
    locality_stats,
)


def make_matrix(flows=400, participants=80, prefixes=1_000, seed=0):
    ixp = generate_ixp(participants, prefixes, seed=seed)
    return ixp, generate_traffic_matrix(ixp, flows=flows, seed=seed + 1)


class TestGenerateTrafficMatrix:
    def test_deterministic(self):
        _, first = make_matrix()
        _, second = make_matrix()
        assert first == second

    def test_flow_count(self):
        _, demands = make_matrix(flows=300)
        assert len(demands) == 300

    def test_no_self_flows(self):
        _, demands = make_matrix()
        assert all(d.source != d.destination for d in demands)

    def test_destinations_own_their_prefixes(self):
        ixp, demands = make_matrix()
        for demand in demands:
            spec = ixp.by_name(demand.destination)
            assert demand.dst_prefix in spec.prefixes
            assert demand.dst_prefix.contains_address(demand.packet["dstip"])

    def test_rates_positive_and_heavy_tailed(self):
        _, demands = make_matrix()
        rates = sorted((d.rate_mbps for d in demands), reverse=True)
        assert all(rate > 0 for rate in rates)
        # The top decile carries a large share (Pareto tail).
        top = sum(rates[:len(rates) // 10])
        assert top > 0.3 * sum(rates)

    def test_paper_pair_concentration(self):
        """Ager et al. via the paper: ~95% of traffic between ~5% of the
        participants — our matrix must be similarly concentrated."""
        _, demands = make_matrix(flows=600, participants=120)
        stats = locality_stats(demands)
        assert stats.pair_fraction_for_95_percent < 0.5
        # Traffic touches far fewer heavy pairs than total pairs exist.
        possible_pairs = stats.participants * (stats.participants - 1)
        assert stats.pairs_for_95_percent < 0.1 * possible_pairs


class TestLocalityStats:
    def test_empty_matrix(self):
        stats = locality_stats([])
        assert stats.pairs == 0
        assert stats.pair_fraction_for_95_percent == 0.0

    def test_single_pair(self):
        _, demands = make_matrix(flows=5, participants=10, prefixes=50)
        stats = locality_stats(demands)
        assert stats.pairs_for_95_percent >= 1
        assert stats.total_mbps > 0


class TestMatrixThroughDataplane:
    def test_flows_deliver_at_destination(self):
        ixp, demands = make_matrix(flows=60, participants=30, prefixes=200)
        controller = ixp.build_controller(with_dataplane=True)
        controller.start()
        delivered = 0
        for demand in demands[:40]:
            egress = controller.egress_of(demand.source, demand.packet)
            if egress is None:
                continue
            delivered += 1
            # Default forwarding delivers to some announcer of the prefix.
            announcers = {
                name for name, prefix, _path in ixp.announcements
                if prefix == demand.dst_prefix
            }
            assert egress in announcers
        assert delivered >= 35  # nearly everything has a route
