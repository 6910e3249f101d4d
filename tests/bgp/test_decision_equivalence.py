"""The once-per-prefix decision equals the once-per-(receiver, prefix) one.

The route server ranks a prefix's routes once and hands out a partition
of the receivers (:meth:`RouteServer.decide`). These properties hold it
to the algorithm it replaced — ``best_route`` of the routes each receiver
may be given, kept in :mod:`tests.bgp.reference` — over random
announcers, LOCAL_PREF / path-length / MED ties, session allow and deny
lists, blocking and allow-list communities, participant ASNs planted in
paths, two sessions of one AS, session teardowns, and a member joining and
leaving whose AS already sits on announced paths — which moves the
decisions the route server keeps without a write to their prefixes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, Update, Withdrawal
from repro.bgp.routeserver import RouteServer
from repro.bgp.session import SESSION_LOG_SIZE
from repro.net.addresses import IPv4Address, IPv4Prefix
from tests.bgp.reference import (
    reference_best,
    reference_changes,
    reference_sends,
    reference_table,
)

#: P3 and P4 are two sessions of one AS: loop prevention and ``(0, asn)``
#: communities must catch both.
PEERS = (("P0", 65000), ("P1", 65001), ("P2", 65002),
         ("P3", 65003), ("P4", 65003))
NAMES = tuple(name for name, _asn in PEERS)
#: A member that joins and leaves: its AS is one of ``PATH_ASNS``, so its
#: coming and going re-stamps the routes whose paths cross it.
LATE = ("late", 3356)
MEMBERS = PEERS + (LATE,)
#: A name with no session reads as "no route" everywhere.
RECEIVERS = NAMES + (LATE[0], "ghost")
PREFIXES = tuple(IPv4Prefix(f"10.{index}.0.0/16") for index in range(3))
SERVER_ASN = RouteServer().asn
PATH_ASNS = (65000, 65001, 65003, 3356, 1299)
COMMUNITIES = ((0, 0), (0, 65000), (0, 65003), (SERVER_ASN, 65001),
               (SERVER_ASN, 65002), (3356, 7))

peer_index = st.integers(0, len(PEERS) - 1)
member_index = st.integers(0, len(MEMBERS) - 1)
route_attributes = st.builds(
    lambda tail, local_pref, med, communities: (tail, local_pref, med,
                                                frozenset(communities)),
    st.lists(st.sampled_from(PATH_ASNS), max_size=3),
    st.sampled_from((100, 100, 200)),
    st.sampled_from((0, 0, 10)),
    st.lists(st.sampled_from(COMMUNITIES), max_size=2))
nlri = st.lists(
    st.tuples(st.integers(0, len(PREFIXES) - 1),
              st.one_of(st.none(), route_attributes)),
    min_size=1, max_size=4)
names = st.lists(st.sampled_from(RECEIVERS), max_size=2)
operations = st.lists(st.one_of(
    st.tuples(st.just("update"), member_index, nlri),
    st.tuples(st.just("export"), member_index, names,
              st.one_of(st.none(), names)),
    st.tuples(st.sampled_from(("reset", "fail", "recover")), member_index),
    st.tuples(st.sampled_from(("join", "leave"))),
), max_size=25)


def build_update(sender: int, items) -> Update:
    """One UPDATE from member ``sender``; a prefix may be both withdrawn
    and (re-)announced in it."""
    name, asn = MEMBERS[sender]
    announcements, withdrawals = [], []
    for prefix_index, attributes in items:
        prefix = PREFIXES[prefix_index]
        if attributes is None:
            withdrawals.append(Withdrawal(prefix))
            continue
        tail, local_pref, med, communities = attributes
        announcements.append(Announcement(prefix, RouteAttributes(
            next_hop=IPv4Address(f"172.0.0.{sender + 1}"),
            as_path=AsPath((asn, *tail)), local_pref=local_pref, med=med,
            communities=communities)))
    return Update(sender=name, announcements=tuple(announcements),
                  withdrawals=tuple(withdrawals))


def make_server():
    server = RouteServer()
    for name, asn in PEERS:
        server.add_peer(name, asn)
    notified = []
    server.add_update_listener(
        lambda update, changes: notified.append((update, changes)))
    return server, notified


def assert_partition_matches(server):
    """(a) every read of the decision equals the per-receiver oracle."""
    for prefix in PREFIXES:
        decision = server.decide(prefix)
        for receiver in RECEIVERS:
            expected = reference_best(server, receiver, prefix)
            assert decision.route_for(receiver) == expected
            assert server.best_route_for(receiver, prefix) == expected
            assert server.view_for(receiver).route(prefix) == expected


def apply_operation(server, operation) -> None:
    """Drive one generated operation, skipping what the FSM forbids and
    what names a member that is not one at the moment."""
    kind = operation[0]
    if kind == "join":
        if not server.is_peer(LATE[0]):
            server.add_peer(*LATE)
        return
    if kind == "leave":
        if server.is_peer(LATE[0]):
            server.remove_peer(LATE[0])
        return
    index = operation[1]
    name = MEMBERS[index][0]
    if not server.is_peer(name):
        return
    session = server.session(name)
    if kind == "update":
        if session.is_established:
            server.submit(build_update(index, operation[2]))
    elif kind == "export":
        server.set_export_policy(name, deny=operation[2], allow=operation[3])
    elif kind == "reset" and session.is_established:
        server.reset_session(name)
    elif kind == "fail" and session.is_established:
        server.fail_peer(name)
    elif kind == "recover" and session.is_down:
        server.recover_peer(name)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_partition_and_change_list_match_the_per_receiver_oracle(ops):
    server, notified = make_server()
    for operation in ops:
        before = reference_table(server, RECEIVERS, PREFIXES)
        del notified[:]
        apply_operation(server, operation)
        assert_partition_matches(server)
        after = reference_table(server, RECEIVERS, PREFIXES)
        # (b) whatever was processed — an UPDATE, a teardown's implied
        # withdrawal or a leaving member's — reported exactly the
        # brute-force diff over the peers left, in order, and counted it
        # without expanding it.
        peers = [name for name in RECEIVERS if server.is_peer(name)]
        for update, changes in notified:
            reference = reference_changes(before, after, peers, update)
            assert changes == reference
            assert list(changes) == reference
            assert len(changes) == len(reference)
        if not notified:
            assert before == after or operation[0] in ("export", "join")


@settings(max_examples=100, deadline=None)
@given(operations)
def test_readvertise_sends_what_a_per_peer_sender_would(ops):
    """(d) Re-advertisement route by route puts on every session exactly
    the UPDATEs, in the order, that one send per change would."""
    server, _notified = make_server()

    def rewrite(prefix, route):
        return IPv4Address(f"192.0.2.{PREFIXES.index(prefix) + 1}")

    server.set_next_hop_rewriter(rewrite)
    expected = {name: [] for name, _asn in MEMBERS}
    counts = dict.fromkeys(expected, 0)

    def readvertise(update, changes):
        for name, updates in reference_sends(server, changes, rewrite).items():
            expected[name].extend(updates)
            counts[name] += len(updates)
        server.readvertise(changes)

    server.add_update_listener(readvertise)
    for operation in ops:
        downs = {name: (server.session(name).resets,
                        server.session(name).failures) for name in NAMES}
        apply_operation(server, operation)
        for name in NAMES:
            session = server.session(name)
            if (session.resets, session.failures) != downs[name]:
                expected[name] = []  # a teardown clears the session's logs
            assert session.sent_log == expected[name][-SESSION_LOG_SIZE:]
            assert session.updates_sent == counts[name]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(peer_index, nlri), max_size=20))
def test_bulk_load_equals_one_by_one(updates):
    """(c) the table-transfer path and the live path agree."""
    bulk, _ = make_server()
    live, _ = make_server()
    batch = [build_update(sender, items) for sender, items in updates]
    assert bulk.bulk_load(batch) == len(batch)
    for update in batch:
        live.submit(update)
    assert bulk.all_prefixes() == live.all_prefixes()
    for prefix in PREFIXES:
        assert bulk.decide(prefix).ranked == live.decide(prefix).ranked
    assert (reference_table(bulk, RECEIVERS, PREFIXES)
            == reference_table(live, RECEIVERS, PREFIXES))
    assert_partition_matches(bulk)
    assert bulk.updates_processed == live.updates_processed
