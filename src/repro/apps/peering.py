"""Application-specific peering (Section 2, first application).

"Two neighboring ASes exchange traffic only for certain applications."
The helper installs one outbound clause per application class and returns
the installed policies so the arrangement can be torn down when the
peering agreement ends.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.sdxpolicy import ParticipantHandle
from repro.exceptions import PolicyError
from repro.policy.policies import Policy, fwd, match

#: Port numbers for common application classes.
APPLICATION_PORTS: Dict[str, Sequence[int]] = {
    "web": (80, 443),
    "video": (1935, 8080),
    "dns": (53,),
    "mail": (25, 587, 993),
}


def application_specific_peering(handle: ParticipantHandle,
                                 peer: str,
                                 applications: Iterable[str] = ("web",),
                                 extra_ports: Iterable[int] = ()) -> List[Policy]:
    """Peer with ``peer`` only for the named application classes.

    Returns the installed policies (one per destination port), which the
    caller can later pass to ``handle.remove_outbound`` to dissolve the
    arrangement.
    """
    ports: List[int] = list(extra_ports)
    for application in applications:
        try:
            ports.extend(APPLICATION_PORTS[application])
        except KeyError:
            raise PolicyError(
                f"unknown application class {application!r}; known: "
                f"{sorted(APPLICATION_PORTS)}") from None
    if not ports:
        raise PolicyError("application-specific peering needs at least one port")
    installed: List[Policy] = []
    for port in dict.fromkeys(ports):
        policy = match(dstport=port) >> fwd(peer)
        handle.add_outbound(policy)
        installed.append(policy)
    return installed
