"""JSON configuration: save and restore a whole exchange.

An operator adopting the SDX wants the exchange — participants, routes,
ownership registrations, export policies, and installed policies — as a
reviewable config file rather than a Python script. This module provides
a faithful round trip:

* :func:`export_config` / :func:`save_config` — snapshot a controller;
* :func:`controller_from_config` / :func:`load_config` — rebuild one.

Policies serialise in clause form with a structured predicate encoding
covering the full predicate algebra (conjunction, disjunction, negation,
prefix sets, value sets), so everything installable through the public
API survives the round trip. BGP-derived state that the controller
recomputes (FECs, VNHs, flow rules) is deliberately *not* serialised.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Mapping, Union

from repro.bgp.asn import AsPath
from repro.core.clauses import Clause
from repro.core.controller import SdxController
from repro.exceptions import PolicyError, ReproError
from repro.net.addresses import IPv4Prefix
from repro.net.packet import IP_FIELDS
from repro.policy.policies import (
    Conjunction,
    Disjunction,
    Drop,
    Forward,
    Identity,
    Match,
    Modify,
    Negation,
    Policy,
    Predicate,
    Sequential,
    drop,
    identity,
)
from repro.policy.predicates import MatchAny

#: Current config schema version.
CONFIG_VERSION = 1


class ConfigError(ReproError):
    """A configuration document is malformed or unsupported."""


# ----------------------------------------------------------------------
# Predicate encoding
# ----------------------------------------------------------------------

def predicate_to_json(predicate: Predicate) -> Dict[str, Any]:
    """A JSON-safe structured encoding of a predicate tree."""
    from repro.core.dynamic import RibPrefixSet

    if isinstance(predicate, RibPrefixSet):
        return {"kind": "rib_match", "field": predicate.field,
                "attribute": predicate.attribute,
                "pattern": predicate.pattern}
    if isinstance(predicate, Identity):
        return {"kind": "true"}
    if isinstance(predicate, Drop):
        return {"kind": "false"}
    if isinstance(predicate, Match):
        return {"kind": "match",
                "fields": {field: str(value)
                           for field, value in predicate.space.items_sorted()}}
    if isinstance(predicate, MatchAny):
        texts = [str(value) for value in predicate.values]
        if predicate.field in IP_FIELDS:
            return {"kind": "any_prefix", "field": predicate.field,
                    "prefixes": texts}
        return {"kind": "any_value", "field": predicate.field,
                "values": texts}
    if isinstance(predicate, Conjunction):
        return {"kind": "and",
                "parts": [predicate_to_json(part) for part in predicate.parts]}
    if isinstance(predicate, Disjunction):
        return {"kind": "or",
                "parts": [predicate_to_json(part) for part in predicate.parts]}
    if isinstance(predicate, Negation):
        return {"kind": "not", "part": predicate_to_json(predicate.inner)}
    raise ConfigError(f"cannot serialise predicate {predicate!r}")


def _parse_value(field: str, text: str) -> Any:
    if field in IP_FIELDS:
        return IPv4Prefix(text) if "/" in text else text
    try:
        return int(text)
    except ValueError:
        return text  # MAC addresses and dotted quads coerce downstream


def predicate_from_json(document: Dict[str, Any]) -> Predicate:
    """Rebuild a predicate from :func:`predicate_to_json` output."""
    kind = document.get("kind")
    if kind == "true":
        return identity
    if kind == "false":
        return drop
    if kind == "match":
        fields = {field: _parse_value(field, text)
                  for field, text in document["fields"].items()}
        from repro.policy.policies import match
        return match(**fields)
    if kind in ("any_prefix", "any_value"):
        field = document["field"]
        if (field in IP_FIELDS) != (kind == "any_prefix"):
            raise PolicyError(f"{kind} cannot match field {field!r}: "
                              "any_prefix takes an IP field, any_value "
                              "any other")
        if kind == "any_prefix":
            return MatchAny(field, [IPv4Prefix(text)
                                    for text in document["prefixes"]])
        return MatchAny(field, [_parse_value(field, text)
                                for text in document["values"]])
    if kind == "and":
        return Conjunction(tuple(
            predicate_from_json(part) for part in document["parts"]))
    if kind == "or":
        return Disjunction(tuple(
            predicate_from_json(part) for part in document["parts"]))
    if kind == "not":
        return Negation(predicate_from_json(document["part"]))
    if kind == "rib_match":
        from repro.core.dynamic import RibPrefixSet
        return RibPrefixSet(document["field"], document["attribute"],
                            document["pattern"])
    raise ConfigError(f"unknown predicate kind {kind!r}")


# ----------------------------------------------------------------------
# Policy (clause) encoding
# ----------------------------------------------------------------------

def clause_to_json(clause: Clause) -> Dict[str, Any]:
    """One clause as a JSON-safe dict."""
    document: Dict[str, Any] = {
        "match": predicate_to_json(clause.predicate)}
    if clause.modifications:
        document["modify"] = {
            field: str(value) for field, value in clause.modifications}
    if clause.drops:
        document["drop"] = True
    elif clause.target is not None:
        document["fwd"] = clause.target
    return document


def clause_to_policy(document: Dict[str, Any]) -> Policy:
    """Rebuild an installable policy from one clause document."""
    parts: List[Policy] = [predicate_from_json(document["match"])]
    modifications = document.get("modify", {})
    if modifications:
        parts.append(Modify(**{
            field: _parse_value(field, text)
            for field, text in modifications.items()}))
    if document.get("drop"):
        parts.append(drop)
    elif "fwd" in document:
        parts.append(Forward(document["fwd"]))
    return Sequential(tuple(parts))


def install_policy(participant: Any, item: Mapping[str, Any],
                   **gate: Any) -> None:
    """Install a config document's ``policies`` entry on ``participant``
    (the model, or its handle at one exchange: ``gate`` passes through)."""
    policy = clause_to_policy(dict(item["clause"]))
    if item["direction"] == "out":
        participant.add_outbound(policy, **gate)
    elif item["direction"] == "in":
        participant.add_inbound(policy, **gate)
    else:
        raise ConfigError(f"policy direction must be 'in' or 'out', "
                          f"got {item['direction']!r}")


# ----------------------------------------------------------------------
# Controller round trip
# ----------------------------------------------------------------------

def export_config(controller: SdxController) -> Dict[str, Any]:
    """Snapshot a controller's configuration as a JSON-safe dict."""
    participants = []
    policies = []
    # Registration order matters: it fixes port/IP assignment, which BGP
    # tie-breaking observes.
    for participant in controller.topology.participants_in_order():
        participants.append({
            "name": participant.name,
            "asn": participant.asn,
            "ports": len(participant.ports),
            "local_prefixes": [str(p) for p in participant.local_prefixes],
        })
        deny, allow = controller.route_server.export_policy(participant.name)
        if deny or allow is not None:
            participants[-1]["export_policy"] = {
                "deny": list(deny),
                "allow": None if allow is None else list(allow)}
        for direction, clauses in (
                ("out", participant.outbound_clauses()
                 if not participant.is_remote else ()),
                ("in", participant.inbound_clauses())):
            for clause in clauses:
                policies.append({
                    "participant": participant.name,
                    "direction": direction,
                    "clause": clause_to_json(clause)})
    routes = []
    for participant in controller.topology.participants_in_order():
        for entry in controller.route_server.routes_from(participant.name):
            attributes = entry.attributes
            route: Dict[str, Any] = {
                "sender": participant.name,
                "prefix": str(entry.prefix),
                "as_path": list(attributes.as_path.asns),
            }
            if attributes.med:
                route["med"] = attributes.med
            if attributes.local_pref != 100:
                route["local_pref"] = attributes.local_pref
            if attributes.communities:
                route["communities"] = sorted(
                    list(community) for community in attributes.communities)
            routes.append(route)
    ownership = [
        {"prefix": str(prefix), "owner": owner}
        for prefix, owner in controller.ownership.entries()
    ]
    return {
        "version": CONFIG_VERSION,
        "participants": participants,
        "routes": routes,
        "ownership": ownership,
        "policies": policies,
    }


def controller_from_config(document: Dict[str, Any],
                           **controller_kwargs: Any) -> SdxController:
    """Build (but do not start) a controller from a config document."""
    version = document.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r} "
                          f"(expected {CONFIG_VERSION})")
    controller = SdxController(**controller_kwargs)
    for spec in document.get("participants", ()):
        controller.add_participant(
            spec["name"], spec["asn"], ports=spec.get("ports", 1),
            local_prefixes=[IPv4Prefix(text)
                            for text in spec.get("local_prefixes", ())],
            announce=False)
        export = spec.get("export_policy")
        if export:
            controller.route_server.set_export_policy(
                spec["name"], deny=export.get("deny", ()),
                allow=export.get("allow"))
    for route in document.get("routes", ()):
        controller.announce_route(
            route["sender"], IPv4Prefix(route["prefix"]),
            AsPath(route["as_path"]),
            med=route.get("med", 0),
            local_pref=route.get("local_pref", 100),
            communities=[tuple(community)
                         for community in route.get("communities", ())])
    for entry in document.get("ownership", ()):
        # Re-registering a prefix to the same owner is idempotent (local
        # prefixes were registered by add_participant already); an exact
        # conflict raises, flagging an inconsistent document.
        controller.register_ownership(
            IPv4Prefix(entry["prefix"]), entry["owner"])
    for item in document.get("policies", ()):
        install_policy(
            controller.topology.participant(item["participant"]), item)
    return controller


def save_config(controller: SdxController,
                path: Union[str, pathlib.Path]) -> None:
    """Write a controller's configuration to a JSON file."""
    pathlib.Path(path).write_text(
        json.dumps(export_config(controller), indent=2, sort_keys=True) + "\n")


def load_config(path: Union[str, pathlib.Path],
                **controller_kwargs: Any) -> SdxController:
    """Rebuild a controller from a JSON file written by :func:`save_config`."""
    document = json.loads(pathlib.Path(path).read_text())
    return controller_from_config(document, **controller_kwargs)
