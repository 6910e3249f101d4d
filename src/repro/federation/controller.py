"""The federation coordinator: one SdxController per exchange, one surface.

:class:`FederatedController` owns a :class:`~repro.core.controller.\
SdxController` per exchange and funnels every configuration change —
participant registration, route announcements, policy installs — through
one API, so a single ``statics_mode`` gate can reason about the *whole*
federation (including the cross-exchange SDX008/SDX009 checks) before
any exchange compiles the change into its fabric.

A policy install is the member exchange's own change transaction, admitted
by the federated gate in place of the member's: a single exchange cannot
see an inter-exchange loop, and :func:`repro.federation.checks.\
analyze_federation` includes the full single-exchange check battery per
member. A refused install is undone like any other failed change.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.bgp.messages import Update
from repro.core.controller import SdxController
from repro.core.sdxpolicy import ParticipantHandle
from repro.exceptions import ParticipantError
from repro.federation.dataplane import FederatedDataPlane, FederatedOutcome
from repro.federation.topology import (
    ExchangePresence,
    FederatedParticipantSpec,
    FederationTopology,
)
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.packet import Packet
from repro.policy.policies import Policy
from repro.statics import diagnostics


class FederatedController:
    """Several SDX instances behind a single policy-change/settle surface."""

    def __init__(self, *, statics_mode: str = "off", telemetry=None,
                 with_dataplane: bool = True, **controller_kwargs) -> None:
        self.statics_mode = diagnostics.gate_mode(statics_mode)
        self.telemetry = telemetry
        self.with_dataplane = with_dataplane
        self.topology = FederationTopology()
        self.started = False
        self.last_statics_report = None
        self._controllers: Dict[str, SdxController] = {}
        self._controller_kwargs = dict(controller_kwargs)
        self._dataplane: Optional[FederatedDataPlane] = None

    # ------------------------------------------------------------------
    # Exchanges and participants
    # ------------------------------------------------------------------

    def add_exchange(self, name: str, **overrides) -> SdxController:
        """Register exchange ``name`` and build its member controller.

        Keyword overrides pass through to that exchange's
        :class:`~repro.core.controller.SdxController`.
        """
        self.topology.add_exchange(name)
        kwargs = dict(self._controller_kwargs)
        kwargs.update(overrides)
        kwargs.setdefault("with_dataplane", self.with_dataplane)
        kwargs.setdefault("telemetry", self.telemetry)
        controller = SdxController(**kwargs)
        self._controllers[name] = controller
        return controller

    def exchange(self, name: str) -> SdxController:
        """The member controller of exchange ``name``."""
        try:
            return self._controllers[name]
        except KeyError:
            raise ParticipantError(f"unknown exchange {name!r}") from None

    def exchanges(self) -> Tuple[str, ...]:
        """Member exchange names, in registration order."""
        return self.topology.exchanges()

    def add_participant(self, name: str, asn: int, *,
                        exchanges: Optional[Sequence[str]] = None,
                        ports: int = 1,
                        ports_by_exchange: Optional[Dict[str, int]] = None
                        ) -> FederatedParticipantSpec:
        """Register a participant at one or more exchanges.

        ``exchanges`` defaults to every registered exchange; the listed
        order is the participant's re-entry preference order.
        ``ports_by_exchange`` overrides the uniform ``ports`` count per
        exchange.
        """
        attended = tuple(exchanges) if exchanges is not None else self.exchanges()
        if not attended:
            raise ParticipantError(
                f"participant {name!r} must attend at least one exchange")
        overrides = ports_by_exchange or {}
        presence = tuple(
            ExchangePresence(exchange, overrides.get(exchange, ports))
            for exchange in attended)
        spec = FederatedParticipantSpec(name=name, asn=asn, presence=presence)
        self.topology.add_participant(spec)
        for entry in spec.presence:
            self.exchange(entry.exchange).add_participant(
                name, asn, ports=entry.ports)
        return spec

    def handle(self, exchange: str, name: str) -> ParticipantHandle:
        """The per-exchange programming handle of one participant."""
        return self.exchange(exchange).participant(name)

    def presence(self, name: str) -> Tuple[str, ...]:
        """The exchanges ``name`` attends, in preference order."""
        return self.topology.presence(name)

    def shared_participants(self) -> Tuple[str, ...]:
        """Participants present at more than one exchange."""
        return self.topology.shared_participants()

    # ------------------------------------------------------------------
    # Prefix origins
    # ------------------------------------------------------------------

    def register_origin(self, prefix: IPv4Prefix, participant: str) -> None:
        """Record which participant's network owns ``prefix``."""
        self.topology.register_origin(prefix, participant)

    def origin_of(self, address: IPv4Address) -> Optional[str]:
        """The origin participant of ``address``, if registered."""
        return self.topology.origin_of(address)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def announce_route(self, exchange: str, name: str, prefix: IPv4Prefix,
                       as_path, *, med: int = 0, local_pref: int = 100,
                       communities: Tuple = ()) -> None:
        """Announce ``prefix`` from ``name`` at one exchange."""
        self.exchange(exchange).announce_route(
            name, prefix, as_path, med=med, local_pref=local_pref,
            communities=communities)

    def withdraw_route(self, exchange: str, name: str,
                       prefix: IPv4Prefix) -> None:
        """Withdraw ``prefix`` from ``name`` at one exchange."""
        self.exchange(exchange).withdraw_route(name, prefix)

    def submit_update(self, exchange: str, update: Update) -> None:
        """Feed one raw BGP update into one exchange's route server."""
        self.exchange(exchange).submit_update(update)

    # ------------------------------------------------------------------
    # Policies (the single change surface)
    # ------------------------------------------------------------------

    def add_outbound(self, exchange: str, name: str, policy: Policy) -> None:
        """Install an outbound policy at one exchange, gated federation-wide:
        a refused change never reaches any fabric."""
        self.handle(exchange, name).add_outbound(policy, gate=self)

    def add_inbound(self, exchange: str, name: str, policy: Policy) -> None:
        """Install an inbound policy at one exchange, gated federation-wide."""
        self.handle(exchange, name).add_inbound(policy, gate=self)

    # ------------------------------------------------------------------
    # Statics gating
    # ------------------------------------------------------------------

    #: The federation analysis (per-exchange + SDX008/SDX009): the member's
    #: method, whose ``analyze_controller`` answers for either controller.
    lint_policies = SdxController.lint_policies

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> Dict[str, object]:
        """Gate, then compile and start every member exchange.

        Returns the per-exchange
        :class:`~repro.core.compile_pipeline.CompilationResult` map.
        """
        diagnostics.admit(self)
        results = {
            name: self._controllers[name].start()
            for name in self.exchanges()
        }
        self.started = True
        return results

    def settle(self) -> None:
        """Run background recompilation on every member exchange."""
        for name in self.exchanges():
            self._controllers[name].run_background_recompilation()

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    @property
    def dataplane(self) -> FederatedDataPlane:
        """The lazily-built cross-fabric driver for this federation."""
        if self._dataplane is None:
            self._dataplane = FederatedDataPlane(self)
        return self._dataplane

    def forward(self, exchange: str, sender: str,
                packet: Packet) -> FederatedOutcome:
        """Walk a packet across the federation through the real fabrics."""
        return self.dataplane.forward(exchange, sender, packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A status snapshot across all member exchanges."""
        per_exchange = {
            name: self._controllers[name].summary()
            for name in self.exchanges()
        }
        totals: Dict[str, int] = {}
        for snapshot in per_exchange.values():
            for key, value in snapshot.items():
                totals[key] = totals.get(key, 0) + int(value)
        return {
            "exchanges": len(self._controllers),
            "shared_participants": len(self.shared_participants()),
            "transit_links": len(self.topology.transit_links()),
            "origins": len(self.topology.origins()),
            "totals": totals,
            "per_exchange": per_exchange,
        }

    def __repr__(self) -> str:
        state = "started" if self.started else "configured"
        names = ", ".join(self.exchanges())
        return (f"FederatedController([{names}], {state}, "
                f"{len(self.topology.names())} participants)")
