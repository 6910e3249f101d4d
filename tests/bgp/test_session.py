"""Tests for the BGP session state machine."""

import pytest

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.bgp.session import SESSION_LOG_SIZE, BgpSession, SessionState
from repro.exceptions import SessionStateError
from repro.net.addresses import IPv4Address, IPv4Prefix


def announce(sender, prefix, asn=64999):
    """An announcement update with minimal valid attributes."""
    return Update.announce(sender, IPv4Prefix(prefix), RouteAttributes(
        next_hop=IPv4Address("172.0.0.9"), as_path=AsPath((asn,))))


class TestLifecycle:
    def test_starts_idle(self):
        session = BgpSession("A", 65001)
        assert session.state is SessionState.IDLE
        assert not session.is_established

    def test_open_then_establish(self):
        session = BgpSession("A", 65001)
        session.open()
        assert session.state is SessionState.OPEN_SENT
        session.establish()
        assert session.is_established

    def test_connect_shortcut(self):
        session = BgpSession("A", 65001)
        session.connect()
        assert session.is_established

    def test_double_open_rejected(self):
        session = BgpSession("A", 65001)
        session.open()
        with pytest.raises(SessionStateError):
            session.open()

    def test_establish_from_idle_rejected(self):
        with pytest.raises(SessionStateError):
            BgpSession("A", 65001).establish()

    def test_reset_counts_and_returns_to_idle(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.reset()
        assert session.state is SessionState.IDLE
        assert session.resets == 1
        session.connect()
        assert session.is_established


class TestUpdateFlow:
    def test_receive_invokes_callback(self):
        seen = []
        session = BgpSession("A", 65001, on_update=seen.append)
        session.connect()
        update = Update.withdraw("A", IPv4Prefix("10.0.0.0/8"))
        session.receive(update)
        assert seen == [update]
        assert session.updates_received == 1

    def test_receive_while_idle_rejected(self):
        session = BgpSession("A", 65001)
        with pytest.raises(SessionStateError):
            session.receive(Update.withdraw("A", IPv4Prefix("10.0.0.0/8")))

    def test_receive_foreign_sender_rejected(self):
        session = BgpSession("A", 65001)
        session.connect()
        with pytest.raises(SessionStateError):
            session.receive(Update.withdraw("B", IPv4Prefix("10.0.0.0/8")))

    def test_send_logs_updates(self):
        session = BgpSession("A", 65001)
        session.connect()
        update = Update.withdraw("route-server", IPv4Prefix("10.0.0.0/8"))
        session.send(update)
        assert session.sent_log == [update]
        assert session.updates_sent == 1

    def test_send_while_idle_rejected(self):
        with pytest.raises(SessionStateError):
            BgpSession("A", 65001).send(
                Update.withdraw("route-server", IPv4Prefix("10.0.0.0/8")))


class TestTeardown:
    def test_reset_from_idle_rejected(self):
        with pytest.raises(SessionStateError):
            BgpSession("A", 65001).reset()

    def test_fail_from_idle_rejected(self):
        with pytest.raises(SessionStateError):
            BgpSession("A", 65001).fail()

    def test_fail_lands_in_down_and_counts(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.fail()
        assert session.state is SessionState.DOWN
        assert session.is_down
        assert session.failures == 1
        assert session.resets == 0

    def test_reset_from_down_rejected(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.fail()
        with pytest.raises(SessionStateError):
            session.reset()

    def test_double_fail_rejected(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.fail()
        with pytest.raises(SessionStateError):
            session.fail()

    def test_down_recovers_via_open(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.fail()
        session.open()
        session.establish()
        assert session.is_established

    def test_teardown_clears_logs_and_announced(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.receive(announce("A", "10.1.0.0/16"))
        session.send(Update.withdraw("route-server", IPv4Prefix("9.0.0.0/8")))
        assert session.announced == {IPv4Prefix("10.1.0.0/16")}
        session.reset()
        assert session.sent_log == []
        assert session.received_log == []
        assert session.announced == frozenset()
        assert session.updates_received == 1  # counters survive the reset

    def test_logs_are_windows_not_histories(self):
        """Each log keeps the latest updates only — memory stays flat
        however long the session lives — and teardown still clears them."""
        session = BgpSession("A", 65001)
        session.connect()
        outbound = Update.withdraw("route-server", IPv4Prefix("9.0.0.0/8"))
        for index in range(5_000):
            session.receive(announce("A", f"10.{index % 200}.0.0/16"))
            session.send(outbound)
        assert len(session._received_log) == SESSION_LOG_SIZE
        assert len(session._sent_log) == SESSION_LOG_SIZE
        assert session.received_log[-1] == announce("A", "10.199.0.0/16")
        assert session.updates_received == session.updates_sent == 5_000
        session.fail()
        assert session.sent_log == session.received_log == []

    def test_teardown_emits_implied_withdrawal(self):
        down = []
        session = BgpSession("A", 65001,
                             on_down=lambda update, why: down.append((update, why)))
        session.connect()
        session.receive(announce("A", "10.1.0.0/16"))
        session.receive(announce("A", "10.2.0.0/16"))
        session.receive(Update.withdraw("A", IPv4Prefix("10.2.0.0/16")))
        implied = session.fail()
        assert [w.prefix for w in implied.withdrawals] == [
            IPv4Prefix("10.1.0.0/16")]
        assert implied.sender == "A"
        assert down == [(implied, "fail")]

    def test_announced_tracks_note_update(self):
        session = BgpSession("A", 65001)
        session.connect()
        session.note_update(announce("A", "10.1.0.0/16"))
        session.note_update(announce("A", "10.1.0.0/16"))
        assert session.announced == {IPv4Prefix("10.1.0.0/16")}
        assert session.updates_received == 2
        session.note_update(Update.withdraw("A", IPv4Prefix("10.1.0.0/16")))
        assert session.announced == frozenset()
