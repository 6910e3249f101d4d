"""JSON configuration for whole federations.

Extends the single-exchange config schema of :mod:`repro.config` with an
``exchanges`` list, multi-exchange participant presence, prefix origins,
and per-exchange route/policy entries::

    {
      "version": 1,
      "exchanges": ["IXP-A", "IXP-B"],
      "participants": [
        {"name": "AS1", "asn": 65001, "exchanges": ["IXP-A", "IXP-B"]},
        {"name": "AS2", "asn": 65002, "exchanges": ["IXP-A"], "ports": 2}
      ],
      "origins": [{"prefix": "10.0.0.0/24", "owner": "AS2"}],
      "routes": [
        {"exchange": "IXP-A", "sender": "AS2",
         "prefix": "10.0.0.0/24", "as_path": [65002]}
      ],
      "policies": [
        {"exchange": "IXP-A", "participant": "AS1", "direction": "out",
         "clause": {"match": {...}, "fwd": "AS2"}}
      ]
    }

Policy clauses reuse the clause encoding of :mod:`repro.config`
verbatim, so single-exchange configs lift into a federation by tagging
each route and policy with its exchange. ``repro lint-policies``
(:func:`repro.statics.analyzer.lint_config`) accepts either shape and
dispatches on the ``exchanges`` key.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Mapping, Union

from repro.bgp.asn import AsPath
from repro.config import CONFIG_VERSION, ConfigError, clause_to_json, install_policy
from repro.net.addresses import IPv4Prefix


def federation_from_config(document: Mapping[str, Any],
                           **federation_kwargs: Any):
    """Build (but do not start) a federation from a config document.

    Raises :class:`~repro.config.ConfigError` on version or shape
    problems; policy installation errors propagate as the usual
    :class:`~repro.exceptions.PolicyError` /
    :class:`~repro.exceptions.StaticPolicyError` (depending on the
    federation's ``statics_mode``).
    """
    from repro.federation.controller import FederatedController

    version = document.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r} "
                          f"(expected {CONFIG_VERSION})")
    exchanges = list(document.get("exchanges", ()))
    if not exchanges:
        raise ConfigError("federated config needs a non-empty 'exchanges' list")
    federation = FederatedController(**federation_kwargs)
    for name in exchanges:
        federation.add_exchange(str(name))
    for spec in document.get("participants", ()):
        attended = spec.get("exchanges")
        federation.add_participant(
            spec["name"], spec["asn"],
            exchanges=[str(name) for name in attended] if attended else None,
            ports=spec.get("ports", 1),
            ports_by_exchange=spec.get("ports_by_exchange"))
    for entry in document.get("origins", ()):
        federation.register_origin(
            IPv4Prefix(entry["prefix"]), entry["owner"])
    for route in document.get("routes", ()):
        federation.announce_route(
            route["exchange"], route["sender"], IPv4Prefix(route["prefix"]),
            AsPath(route["as_path"]),
            med=route.get("med", 0),
            local_pref=route.get("local_pref", 100),
            communities=tuple(tuple(community)
                              for community in route.get("communities", ())))
    for item in document.get("policies", ()):
        install_policy(federation.handle(item["exchange"], item["participant"]),
                       item, gate=federation)
    return federation


def export_federation_config(federation) -> Dict[str, Any]:
    """Snapshot a federation's configuration as a JSON-safe dict.

    The inverse of :func:`federation_from_config` over everything the
    federated surface installs (compiler-derived state is recomputed on
    load, exactly as in the single-exchange exporter).
    """
    topology = federation.topology
    participants = []
    for name in topology.names():
        spec = topology.participant(name)
        entry: Dict[str, Any] = {
            "name": spec.name,
            "asn": spec.asn,
            "exchanges": list(spec.exchanges()),
        }
        ports = {presence.exchange: presence.ports for presence in spec.presence}
        if len(set(ports.values())) == 1:
            only = next(iter(ports.values()))
            if only != 1:
                entry["ports"] = only
        else:
            entry["ports_by_exchange"] = ports
        participants.append(entry)
    origins = [
        {"prefix": str(prefix), "owner": owner}
        for prefix, owner in topology.origins()
    ]
    routes = []
    policies = []
    for exchange in federation.exchanges():
        controller = federation.exchange(exchange)
        for name in topology.names():
            if exchange not in topology.presence(name):
                continue
            for entry in controller.route_server.routes_from(name):
                attributes = entry.attributes
                route: Dict[str, Any] = {
                    "exchange": exchange,
                    "sender": name,
                    "prefix": str(entry.prefix),
                    "as_path": list(attributes.as_path.asns),
                }
                if attributes.med:
                    route["med"] = attributes.med
                if attributes.local_pref != 100:
                    route["local_pref"] = attributes.local_pref
                if attributes.communities:
                    route["communities"] = sorted(
                        list(community)
                        for community in attributes.communities)
                routes.append(route)
            participant = controller.topology.participant(name)
            for direction, clauses in (
                    ("out", participant.outbound_clauses()
                     if not participant.is_remote else ()),
                    ("in", participant.inbound_clauses())):
                for clause in clauses:
                    policies.append({
                        "exchange": exchange,
                        "participant": name,
                        "direction": direction,
                        "clause": clause_to_json(clause)})
    return {
        "version": CONFIG_VERSION,
        "exchanges": list(federation.exchanges()),
        "participants": participants,
        "origins": origins,
        "routes": routes,
        "policies": policies,
    }


def save_federation_config(federation,
                           path: Union[str, pathlib.Path]) -> None:
    """Write a federation's configuration to a JSON file."""
    pathlib.Path(path).write_text(
        json.dumps(export_federation_config(federation),
                   indent=2, sort_keys=True) + "\n")


def load_federation_config(path: Union[str, pathlib.Path],
                           **federation_kwargs: Any):
    """Rebuild a federation from a JSON file."""
    document = json.loads(pathlib.Path(path).read_text())
    return federation_from_config(document, **federation_kwargs)


def is_federated_config(document: Mapping[str, Any]) -> bool:
    """True when a config document describes a federation."""
    return "exchanges" in document


__all__ = [
    "export_federation_config",
    "federation_from_config",
    "is_federated_config",
    "load_federation_config",
    "save_federation_config",
]
