"""Micro-benchmarks for the hot primitives under everything else.

These are regression tripwires rather than paper results: longest-prefix
match, policy compilation, indexed sequential composition, and per-packet
flow-table processing dominate the macro numbers (Figures 8-10), so their
costs are tracked individually with full pytest-benchmark statistics.
"""

import random

from repro.bgp.rib import PrefixTrie
from repro.net.packet import Packet
from repro.policy.policies import fwd, match
from repro.workloads.routing import PrefixPool

from repro.core.composition import sequential_compose_indexed, stack_fallback
from repro.dataplane.flowtable import FlowTable


def test_lpm_lookup(benchmark):
    """Longest-prefix match over a 50k-entry table."""
    trie = PrefixTrie()
    prefixes = PrefixPool(seed=1).take(50_000)
    for index, prefix in enumerate(prefixes):
        trie.insert(prefix, index)
    rng = random.Random(2)
    addresses = [prefix.first_address + 1
                 for prefix in rng.sample(prefixes, 512)]

    def lookup_many():
        for address in addresses:
            trie.longest_match(address)

    benchmark(lookup_many)


def test_policy_compilation(benchmark):
    """Compiling a 16-clause application-specific peering policy."""
    policy = None
    for port in range(8000, 8016):
        clause = match(dstport=port) >> fwd(port % 7 + 1)
        policy = clause if policy is None else policy + clause

    benchmark(policy.compile)


def test_indexed_sequential_composition(benchmark):
    """Composing a 200-rule stage-1 with a 40-pipeline stage-2."""
    stage1 = stack_fallback([
        (match(port=p % 20 + 1, dstport=8000 + p) >> fwd(10_000 + p % 40)).compile()
        for p in range(200)
    ])
    stage2 = stack_fallback([
        (match(port=10_000 + v) >> fwd(v % 20 + 1)).compile()
        for v in range(40)
    ])

    benchmark(sequential_compose_indexed, stage1, stage2)


def test_flow_table_processing(benchmark):
    """Per-packet processing through a 500-rule flow table."""
    table = FlowTable()
    for index in range(500):
        table.install_classifier(
            (match(port=index % 20 + 1, dstport=8000 + index)
             >> fwd(index % 20 + 1)).compile(),
            base_priority=index * 4)
    packets = [
        Packet(port=index % 20 + 1, dstport=8000 + (index * 7) % 500,
               srcip="10.0.0.1", protocol=6)
        for index in range(64)
    ]

    def process_many():
        for packet in packets:
            table.process(packet)

    benchmark(process_many)
