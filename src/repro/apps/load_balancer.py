"""Wide-area server load balancing (Section 2, third application).

A content provider originates one anycast address at the SDX and
rewrites request destinations to backend replicas "in the middle of the
network", replacing DNS-based selection and its cache-staleness problems.
The balancer keeps per-client-prefix assignments, so updates preserve
connection affinity for unchanged clients (the property the paper cites
from Wang et al.).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.sdxpolicy import ParticipantHandle
from repro.exceptions import PolicyError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.policy.policies import Policy, fwd, match, modify


class WideAreaLoadBalancer:
    """An anycast load balancer operated by a (usually remote) participant.

    ``service`` is the advertised anycast address, ``via`` the physically
    present participant that carries traffic toward the backends, and
    ``default_backend`` where unmatched clients land.
    """

    def __init__(self, handle: ParticipantHandle, *,
                 service: IPv4Address, anycast_prefix: IPv4Prefix,
                 via: str, default_backend: IPv4Address):
        if not anycast_prefix.contains_address(service):
            raise PolicyError(
                f"service address {service} outside anycast prefix "
                f"{anycast_prefix}")
        self.handle = handle
        self.service = service
        self.anycast_prefix = anycast_prefix
        self.via = via
        self.default_backend = default_backend
        self._assignments: Dict[IPv4Prefix, IPv4Address] = {}
        self._installed: List[Policy] = []
        self._announced = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Install the initial policy set and announce the anycast prefix."""
        self._reinstall()
        self.handle.announce(self.anycast_prefix)
        self._announced = True

    def stop(self) -> None:
        """Withdraw the anycast prefix and remove every policy."""
        if self._announced:
            self.handle.withdraw(self.anycast_prefix)
            self._announced = False
        for policy in self._installed:
            self.handle.remove_inbound(policy)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Balancing control
    # ------------------------------------------------------------------

    def assign(self, client_prefix: IPv4Prefix, backend: IPv4Address) -> None:
        """Pin ``client_prefix`` to ``backend`` and rebalance.

        Existing assignments for other client prefixes are untouched —
        their connections keep hitting the same replica (affinity).
        """
        self._assignments[client_prefix] = backend
        if self._announced or self._installed:
            self._reinstall()

    def unassign(self, client_prefix: IPv4Prefix) -> None:
        """Return ``client_prefix`` to the default backend."""
        self._assignments.pop(client_prefix, None)
        if self._announced or self._installed:
            self._reinstall()

    def assignments(self) -> Mapping[IPv4Prefix, IPv4Address]:
        """A copy of the current per-client-prefix backend map."""
        return dict(self._assignments)

    def _reinstall(self) -> None:
        for policy in self._installed:
            self.handle.remove_inbound(policy)
        self._installed.clear()
        service_match = match(dstip=self.service)
        # Specific client prefixes first (longest prefix first so nested
        # client blocks behave like routing would), then the default.
        ordered = sorted(self._assignments.items(),
                         key=lambda item: -item[0].length)
        for client_prefix, backend in ordered:
            policy = ((service_match & match(srcip=client_prefix))
                      >> modify(dstip=backend) >> fwd(self.via))
            self.handle.add_inbound(policy)
            self._installed.append(policy)
        default = (service_match >> modify(dstip=self.default_backend)
                   >> fwd(self.via))
        self.handle.add_inbound(default)
        self._installed.append(default)
