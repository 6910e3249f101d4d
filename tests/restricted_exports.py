"""An exchange on the restricted side of the route server's decision.

Five members — one with two ports, one remote, one that may leave — four
prefixes, and a random sequence of operations over them: announcements
carrying blocking and allow-list communities and member ASNs on their
paths, withdrawals, per-session deny and allow lists, policy edits,
session resets and failures, a departure, forced and background swaps, a
stuck route. The one hypothesis driver behind every property that must
hold where routes are withheld from some receivers.
"""

from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import fwd, match

MEMBERS = (("A", 65001, 1), ("B", 65002, 2), ("C", 65003, 1), ("D", 65004, 1),
           ("R", 65005, 0))
NAMES = tuple(name for name, _asn, _ports in MEMBERS)
PREFIXES = tuple(IPv4Prefix(f"{20 + index}.0.0.0/8") for index in range(4))
SERVER_ASN = SdxController().route_server.asn
COMMUNITIES = ((0, 0), (0, 65001), (0, 65003), (SERVER_ASN, 65001),
               (SERVER_ASN, 65004), (3356, 7))
PATH_ASNS = (65001, 65003, 3356, 1299)  # two of them are members'
POLICIES = tuple(
    (holder, match(dstport=port) >> fwd(target))
    for port, (holder, target) in enumerate(
        (("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"), ("D", "A"),
         ("B", "R")), start=80))


def build(**kwargs):
    kwargs.setdefault("with_dataplane", False)
    controller = SdxController(**kwargs)
    for name, asn, ports in MEMBERS:
        controller.add_participant(name, asn, ports=ports)
    for index, prefix in enumerate(PREFIXES):
        for name, asn, _ports in MEMBERS[index % 2:index % 2 + 3]:
            controller.announce_route(name, prefix, AsPath([asn, 100 + index]))
    for holder, policy in POLICIES[:3]:
        controller.participant(holder).add_outbound(policy)
    controller.start()
    return controller


name_index = st.integers(0, len(NAMES) - 1)
names = st.lists(st.sampled_from(NAMES), max_size=2)
operations = st.lists(st.one_of(
    st.tuples(st.just("announce"), name_index,
              st.integers(0, len(PREFIXES) - 1),
              st.lists(st.sampled_from(PATH_ASNS), max_size=2),
              st.lists(st.sampled_from(COMMUNITIES), max_size=2)),
    st.tuples(st.just("withdraw"), name_index,
              st.integers(0, len(PREFIXES) - 1)),
    st.tuples(st.just("export"), name_index, names,
              st.one_of(st.none(), names)),
    st.tuples(st.just("policy"), st.integers(0, len(POLICIES) - 1)),
    st.tuples(st.sampled_from(
        ("reset", "fail", "recover", "leave", "background", "recompile",
         "stuck")), name_index),
), max_size=20)


def apply_operation(controller, installed, operation):
    kind, index = operation[0], operation[1]
    server = controller.route_server
    if kind == "policy":
        holder, policy = POLICIES[index]
        handle = controller.participant(holder)
        if index in installed:
            installed.remove(index)
            handle.remove_outbound(policy)
        elif POLICIES[index][1].symbolic_ports() <= set(server.peers()):
            installed.add(index)
            handle.add_outbound(policy)
        return
    if kind == "background":
        controller.run_background_recompilation()
        return
    if kind == "recompile":
        controller.recompile()
        return
    name, asn = NAMES[index], MEMBERS[index][1]
    if name not in server.peers():
        return
    session = server.session(name)
    if kind == "announce" and session.is_established:
        controller.announce_route(
            name, PREFIXES[operation[2]], AsPath([asn, *operation[3]]),
            communities=operation[4])
    elif kind == "withdraw" and session.is_established:
        controller.withdraw_route(name, PREFIXES[operation[2]])
    elif kind == "stuck" and session.is_established:
        from repro.bgp.messages import Update
        server.inject_unnotified(Update.withdraw(name, PREFIXES[index % 4]))
    elif kind == "export":
        server.set_export_policy(name, deny=operation[2], allow=operation[3])
    elif kind == "reset" and session.is_established:
        server.reset_session(name)
    elif kind == "fail" and session.is_established:
        server.fail_peer(name)
    elif kind == "recover" and session.is_down:
        server.recover_peer(name)
    elif kind == "leave" and name == "D" and not any(
            POLICIES[i][1].symbolic_ports() == {"D"} for i in installed):
        server.remove_peer(name)  # still in the topology, no longer a peer
