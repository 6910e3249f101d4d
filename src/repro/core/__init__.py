"""The SDX controller — the paper's primary contribution.

The pipeline (Figure 3) turns per-participant Pyretic-style policies plus
live BGP state into one flow table for the IXP switch:

1. isolate — restrict each policy to the owner's virtual switch
   (Section 4.1, transformation 1): :func:`repro.core.defaults.ingress_guard`
   on every outbound clause and per-ingress default, the virtual-port
   guard of ``SdxCompiler._inbound_pairs`` on every inbound clause;
2. join — a forward applies only to traffic its next hop announced and
   exported (transformation 2): ``SdxCompiler._eligibility`` picks the
   eligible tags, ``SdxCompiler._outbound_part`` matches them on
   ``SdxCompiler.tag_field`` — one
   :func:`repro.policy.predicates.match_any` per clause, or each clause
   filter's matches intersected with each tag;
3. default — forwarding along the best BGP route via virtual-MAC tags
   (transformation 3, Section 4.2):
   :func:`repro.core.defaults.build_default_forwarding`;
4. compose — all participants into one policy with the Section 4.3
   optimisations (transformation 4):
   :func:`repro.core.composition.sequential_compose_indexed`, block by
   block;

each written once and run both by a full compilation over every prefix
group and by the fast path over one fresh singleton group
(:meth:`repro.core.compiler.SdxCompiler.compile_prefix`); supported by
:mod:`repro.core.fec` (prefix grouping / minimum disjoint subsets),
:mod:`repro.core.vnh` (virtual next-hop and VMAC allocation),
:mod:`repro.core.incremental` (the two-stage update path), and
:mod:`repro.core.controller` (the top-level :class:`SdxController`).
"""

from repro.core.participant import Participant
from repro.core.vswitch import VirtualTopology
from repro.core.fec import PrefixGroup, compute_prefix_groups
from repro.core.vnh import VnhAllocator
from repro.core.compiler import CompilationResult, SdxCompiler
from repro.core.controller import SdxController

__all__ = [
    "CompilationResult",
    "Participant",
    "PrefixGroup",
    "SdxCompiler",
    "SdxController",
    "VirtualTopology",
    "VnhAllocator",
    "compute_prefix_groups",
]
