"""Inbound traffic engineering (Section 2, second application).

BGP gives an AS almost no control over how traffic *enters* its network;
at an SDX the AS simply writes inbound policies on its own virtual
switch. The helper splits the source-address space across the AS's
physical ports.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.sdxpolicy import ParticipantHandle
from repro.exceptions import PolicyError
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import Policy, fwd, match


def split_inbound_by_source(handle: ParticipantHandle,
                            assignment: Optional[Mapping[str, int]] = None
                            ) -> List[Policy]:
    """Split inbound traffic across the participant's ports by source.

    ``assignment`` maps source prefixes (text) to the participant's port
    *indices*. The default reproduces the paper's example: the low half
    of the address space on port 0, the high half on port 1::

        split_inbound_by_source(b)                       # paper's B1/B2
        split_inbound_by_source(b, {"96.0.0.0/4": 1})    # custom carve-out

    Returns the installed policies for later removal.
    """
    participant = handle.participant
    if participant.is_remote:
        raise PolicyError(
            f"remote participant {handle.name!r} has no ports to engineer")
    if assignment is None:
        if len(participant.switch_ports) < 2:
            raise PolicyError(
                f"the default half-split needs two ports; {handle.name!r} "
                f"has {len(participant.switch_ports)}")
        assignment = {"0.0.0.0/1": 0, "128.0.0.0/1": 1}
    installed: List[Policy] = []
    for prefix_text, port_index in assignment.items():
        prefix = IPv4Prefix(prefix_text)
        policy = match(srcip=prefix) >> fwd(handle.port(port_index))
        handle.add_inbound(policy)
        installed.append(policy)
    return installed
