"""Property tests for the BgpSession state machine.

Two properties the churn suite leans on, pinned by hypothesis over
random operation sequences:

1. *Legal sequences never corrupt the bookkeeping* — after any legal
   interleaving of open/establish/reset/fail/receive/send, the session's
   logs, counters, and announced-prefix set match a trivial reference
   model replayed alongside it.
2. *Every path to down implies full withdrawal* — whichever sequence of
   operations precedes a teardown (reset or fail), the implied
   withdrawal delivered to ``on_down`` names exactly the prefixes the
   peer had announced at that instant, and the session's announced set
   is empty afterwards.

Illegal transitions must raise ``SessionStateError`` and leave every
observable unchanged.

3. *A teardown is decided like any other update* — the best-route
   changes a route server reports for a reset or failed session equal
   the brute-force per-receiver before/after diff of the implied
   withdrawal (the once-per-prefix decision has no teardown shortcut).
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.bgp.routeserver import RouteServer
from repro.bgp.session import SESSION_LOG_SIZE, BgpSession
from repro.exceptions import SessionStateError
from repro.net.addresses import IPv4Address, IPv4Prefix
from tests.bgp.reference import reference_changes, reference_table

PEER = "A"
PREFIXES = [IPv4Prefix(f"10.{index}.0.0/16") for index in range(8)]

#: Operations and the states they are legal in (the reference model).
LEGAL = {
    "open": ("idle", "down"),
    "establish": ("open_sent",),
    "reset": ("open_sent", "established"),
    "fail": ("open_sent", "established"),
    "announce": ("established",),
    "withdraw": ("established",),
    "send": ("established",),
}

operations = st.lists(
    st.tuples(st.sampled_from(sorted(LEGAL)), st.integers(0, 7)),
    max_size=40)


def announcement(index):
    """An announcement of the ``index``-th pool prefix from the peer."""
    return Update.announce(PEER, PREFIXES[index], RouteAttributes(
        next_hop=IPv4Address("172.0.0.9"),
        as_path=AsPath((64999, 64000 + index))))


class Model:
    """The reference model the real session is replayed against."""

    def __init__(self):
        self.state = "idle"
        self.announced = set()
        self.received = deque(maxlen=SESSION_LOG_SIZE)
        self.sent = deque(maxlen=SESSION_LOG_SIZE)
        self.totals = {"received": 0, "sent": 0, "resets": 0, "failures": 0}

    def legal(self, op):
        return self.state in LEGAL[op]

    def apply(self, op, index):
        if op == "open":
            self.state = "open_sent"
        elif op == "establish":
            self.state = "established"
        elif op in ("reset", "fail"):
            self.state = "idle" if op == "reset" else "down"
            self.totals["resets" if op == "reset" else "failures"] += 1
            self.announced.clear()
            self.received.clear()
            self.sent.clear()
        elif op == "announce":
            update = announcement(index)
            self.received.append(update)
            self.announced.add(PREFIXES[index])
            self.totals["received"] += 1
        elif op == "withdraw":
            update = Update.withdraw(PEER, PREFIXES[index])
            self.received.append(update)
            self.announced.discard(PREFIXES[index])
            self.totals["received"] += 1
        elif op == "send":
            update = Update.withdraw("route-server", PREFIXES[index])
            self.sent.append(update)
            self.totals["sent"] += 1


def drive(op, index, session):
    """Perform ``op`` against the real session."""
    if op == "announce":
        session.receive(announcement(index))
    elif op == "withdraw":
        session.receive(Update.withdraw(PEER, PREFIXES[index]))
    elif op == "send":
        session.send(Update.withdraw("route-server", PREFIXES[index]))
    else:
        getattr(session, op)()


def assert_matches(session, model):
    assert session.state.value == model.state
    assert session.announced == frozenset(model.announced)
    assert session.received_log == list(model.received)
    assert session.sent_log == list(model.sent)
    assert session.updates_received == model.totals["received"]
    assert session.updates_sent == model.totals["sent"]
    assert session.resets == model.totals["resets"]
    assert session.failures == model.totals["failures"]


def snapshot(session):
    return (session.state, tuple(session.received_log),
            tuple(session.sent_log), session.announced,
            session.updates_received, session.updates_sent,
            session.resets, session.failures)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_legal_sequences_never_corrupt_bookkeeping(ops):
    session = BgpSession(PEER, 65001)
    model = Model()
    for op, index in ops:
        if not model.legal(op):
            continue
        drive(op, index, session)
        model.apply(op, index)
        assert_matches(session, model)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_illegal_transitions_raise_and_change_nothing(ops):
    session = BgpSession(PEER, 65001)
    model = Model()
    for op, index in ops:
        if model.legal(op):
            drive(op, index, session)
            model.apply(op, index)
            continue
        before = snapshot(session)
        try:
            drive(op, index, session)
        except SessionStateError:
            assert snapshot(session) == before
        else:  # pragma: no cover - the guard property itself
            raise AssertionError(
                f"{op} in state {model.state} did not raise")
    assert_matches(session, model)


@settings(max_examples=150, deadline=None)
@given(operations, st.sampled_from(["reset", "fail"]))
def test_every_path_to_teardown_implies_full_withdrawal(ops, final):
    downs = []
    session = BgpSession(
        PEER, 65001,
        on_down=lambda update, verb: downs.append((update, verb)))
    model = Model()
    expected = []
    for op, index in ops + [(final, 0)]:
        if not model.legal(op):
            continue
        if op in ("reset", "fail"):
            expected.append((frozenset(model.announced), op))
        drive(op, index, session)
        model.apply(op, index)
        if op in ("reset", "fail"):
            assert session.announced == frozenset()
    assert len(downs) == len(expected)
    for (update, verb), (announced, op) in zip(downs, expected):
        assert verb == op
        assert update.sender == PEER
        assert not update.announcements
        assert {w.prefix for w in update.withdrawals} == announced
        # Deterministic rendering: withdrawals arrive sorted.
        assert [w.prefix for w in update.withdrawals] == sorted(announced)


# ----------------------------------------------------------------------
# A teardown's implied withdrawal goes through the same decision path
# ----------------------------------------------------------------------

SERVER_PEERS = (("A", 65001), ("B", 65002), ("C", 65003))

peer_announcements = st.lists(
    st.tuples(st.integers(0, len(SERVER_PEERS) - 1), st.integers(0, 7),
              st.integers(0, 2)),
    max_size=24)


@settings(max_examples=100, deadline=None)
@given(peer_announcements, st.integers(0, len(SERVER_PEERS) - 1),
       st.sampled_from(["reset", "fail"]))
def test_teardown_changes_equal_the_per_receiver_diff(announcements, victim,
                                                      verb):
    server = RouteServer()
    for name, asn in SERVER_PEERS:
        server.add_peer(name, asn)
    for sender, index, extra_hops in announcements:
        name, asn = SERVER_PEERS[sender]
        server.announce(name, PREFIXES[index], RouteAttributes(
            next_hop=IPv4Address(f"172.0.0.{sender + 1}"),
            as_path=AsPath((asn,) + (64000,) * extra_hops)))
    names = [name for name, _asn in SERVER_PEERS]
    name = names[victim]
    notified = []
    server.add_update_listener(
        lambda update, changes: notified.append((update, changes)))
    before = reference_table(server, names, PREFIXES)
    announced = server.session(name).announced
    changes = (server.reset_session(name) if verb == "reset"
               else server.fail_peer(name))
    after = reference_table(server, names, PREFIXES)
    if not announced:
        assert changes == [] and not notified and before == after
        return
    (update, reported), = notified
    assert reported == changes
    assert {w.prefix for w in update.withdrawals} == announced
    assert changes == reference_changes(before, after, names, update)
    assert all(entry is None or entry.learned_from != name
               for entry in after.values())
    assert server.announced_by(name) == ()
