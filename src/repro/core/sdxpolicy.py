"""The participant-facing SDX policy API.

A :class:`ParticipantHandle` is what an AS operator programs against:
install/remove inbound and outbound policies, inspect the BGP routes the
route server selected (``handle.rib``), group prefixes by AS-path regular
expressions, and originate/withdraw prefixes at the SDX.

Origination is gated by an RPKI-like :class:`OwnershipRegistry` —
Section 3.2: "the SDX would verify that AS D indeed owns the IP prefix".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.bgp.asn import AsPath
from repro.bgp.rib import PrefixTrie, RibView
from repro.exceptions import OwnershipError
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import Policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import SdxController
    from repro.core.participant import Participant


class OwnershipRegistry:
    """Which participant may originate which address space.

    Owning a prefix implies owning all of its subnets, mirroring how RPKI
    ROAs authorise up to a max length (we treat max length as /32 for
    simplicity).
    """

    def __init__(self) -> None:
        self._owners: PrefixTrie[str] = PrefixTrie()

    def register(self, prefix: IPv4Prefix, owner: str) -> None:
        """Record that ``owner`` holds ``prefix``."""
        existing = self._owners.exact(prefix)
        if existing is not None and existing != owner:
            raise OwnershipError(
                f"prefix {prefix} already registered to {existing!r}")
        self._owners.insert(prefix, owner)

    def owner_of(self, prefix: IPv4Prefix) -> Optional[str]:
        """The holder of the smallest registered prefix covering ``prefix``."""
        covering = self._owners.covering(prefix)
        return covering[0][1] if covering else None

    def entries(self) -> Tuple[Tuple[IPv4Prefix, str], ...]:
        """Every (prefix, owner) registration, sorted by prefix."""
        return tuple(sorted(self._owners.items()))

    def verify(self, participant: str, prefix: IPv4Prefix) -> None:
        """Raise :class:`OwnershipError` unless ``participant`` may
        originate ``prefix``."""
        owner = self.owner_of(prefix)
        if owner is None:
            raise OwnershipError(
                f"prefix {prefix} is not registered to any participant")
        if owner != participant:
            raise OwnershipError(
                f"participant {participant!r} cannot originate {prefix} "
                f"owned by {owner!r}")


class ParticipantHandle:
    """The programming interface one participant holds."""

    def __init__(self, participant: "Participant", controller: "SdxController"):
        self._participant = participant
        self._controller = controller

    @property
    def name(self) -> str:
        """The participant's name."""
        return self._participant.name

    @property
    def asn(self) -> int:
        """The participant's AS number."""
        return self._participant.asn

    @property
    def participant(self) -> "Participant":
        """The underlying participant record."""
        return self._participant

    def port(self, index: int = 0) -> int:
        """The switch-port number of physical interface ``index``."""
        return self._participant.port(index)

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------

    def _check_targets(self, policy: Policy) -> None:
        """Reject forwards to participants the exchange does not know."""
        from repro.exceptions import PolicyError

        known = set(self._controller.topology.names())
        unknown = sorted(policy.symbolic_ports() - known)
        if unknown:
            raise PolicyError(
                f"policy of {self.name!r} forwards to unknown "
                f"participant(s) {unknown}; known: {sorted(known)}")

    def edit(self, change: Callable[["Participant"], object],
             gate: Optional[object] = None) -> None:
        """Run ``change(participant)`` — any number of policy additions and
        removals — as one change transaction: admitted by the controller's
        policy gate (or that of ``gate``, its federation), compiled and
        swapped in or, if any of it fails, undone whole
        (:meth:`SdxController._transaction`). Every policy edit enters here."""
        participant = self._participant
        self._controller._transaction(
            "controller.recompile", lambda: change(participant),
            (participant,), gate or self._controller)

    def add_outbound(self, policy: Policy, gate=None) -> None:
        """Install an outbound policy and trigger recompilation."""
        self._check_targets(policy)
        self.edit(lambda participant: participant.add_outbound(policy), gate)

    def add_inbound(self, policy: Policy, gate=None) -> None:
        """Install an inbound policy and trigger recompilation."""
        self._check_targets(policy)
        self.edit(lambda participant: participant.add_inbound(policy), gate)

    def remove_outbound(self, policy: Policy) -> None:
        """Remove an outbound policy and trigger recompilation."""
        self.edit(lambda participant: participant.remove_outbound(policy))

    def remove_inbound(self, policy: Policy) -> None:
        """Remove an inbound policy and trigger recompilation."""
        self.edit(lambda participant: participant.remove_inbound(policy))

    def clear_policies(self) -> None:
        """Remove every policy of this participant."""
        self.edit(lambda participant: participant.clear_policies())

    # ------------------------------------------------------------------
    # BGP interaction
    # ------------------------------------------------------------------

    @property
    def rib(self) -> RibView:
        """The participant's current Loc-RIB view at the route server."""
        return self._controller.route_server.view_for(self.name)

    def filter_rib(self, attribute: str, pattern: str) -> Tuple[IPv4Prefix, ...]:
        """Prefixes whose selected route matches a regex on an attribute.

        The paper's ``RIB.filter('as_path', '.*43515$')`` idiom.
        """
        return self.rib.filter(attribute, pattern)

    def announce(self, prefix: IPv4Prefix,
                 as_path: Optional[AsPath] = None) -> None:
        """Originate ``prefix`` at the SDX (ownership-checked).

        This is the remote-participant primitive behind wide-area load
        balancing: ``announce(74.125.1.0/24)`` pulls anycast traffic into
        the SDX where the participant's inbound policies take over.
        """
        self._controller.originate(self.name, prefix, as_path)

    def withdraw(self, prefix: IPv4Prefix) -> None:
        """Withdraw a previously originated prefix."""
        self._controller.withdraw_origination(self.name, prefix)

    def __repr__(self) -> str:
        return f"ParticipantHandle({self.name!r})"
