"""BGP peering sessions between participant routers and the route server.

A deliberately small finite-state machine: the evaluation (Table 1) needs
session *resets* — RIPE collector traces are cleaned of reset-induced
churn, and our synthetic trace generator injects and then discards resets
the same way — but not keepalive timers or TCP emulation. States follow
RFC 4271 naming with the connect-phase states collapsed, plus one
extension the chaos suite needs: a ``DOWN`` state for *failed* (as
opposed to administratively reset) sessions.

The legal transitions::

    IDLE ──open──> OPEN_SENT ──establish──> ESTABLISHED
    OPEN_SENT / ESTABLISHED ──reset──> IDLE      (administrative)
    OPEN_SENT / ESTABLISHED ──fail───> DOWN      (failure)
    DOWN ──open──> OPEN_SENT                      (recovery)

Everything else raises :class:`~repro.exceptions.SessionStateError` —
the guard the churn suite's property tests pin down. Both teardown
transitions clear the sent/received logs and synthesize the *implied
withdrawal* of every prefix the peer had announced (RFC 4271 §6.7
semantics: routes learned over a session do not survive it), which the
route server applies through its normal decision/notify pipeline.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, FrozenSet, Iterable, List, Optional

from repro.bgp.messages import Update, Withdrawal
from repro.exceptions import SessionStateError
from repro.net.addresses import IPv4Prefix


class SessionState(enum.Enum):
    """Collapsed RFC 4271 session states (plus the failed ``DOWN``)."""

    IDLE = "idle"
    OPEN_SENT = "open_sent"
    ESTABLISHED = "established"
    DOWN = "down"


#: States a session may be torn down from (reset or fail).
_UP_STATES = (SessionState.OPEN_SENT, SessionState.ESTABLISHED)

#: How many of the latest updates each of a session's two logs keeps — a
#: window for inspection, not a history: memory stays flat under churn.
SESSION_LOG_SIZE = 256

#: Hook invoked with (implied withdrawal, reason) on every teardown.
#: The route server wires this to its RIB-flush pipeline so a session
#: death is indistinguishable from the peer withdrawing everything.
DownHandler = Callable[[Update, str], None]


class BgpSession:
    """One peering session, counting traffic and enforcing state rules.

    ``on_update`` is invoked for every update received while ESTABLISHED —
    the route server wires this to its RIB processing. ``on_down`` is
    invoked with the implied-withdrawal update whenever the session is
    reset or fails (see :meth:`reset` / :meth:`fail`).
    """

    def __init__(self, peer: str, asn: int,
                 on_update: Optional[Callable[[Update], None]] = None,
                 on_down: Optional[DownHandler] = None):
        self.peer = peer
        self.asn = asn
        self.state = SessionState.IDLE
        self.updates_received = 0
        self.updates_sent = 0
        self.resets = 0
        self.failures = 0
        self._on_update = on_update
        self._on_down = on_down
        self._sent_log: Deque[Update] = deque(maxlen=SESSION_LOG_SIZE)
        self._received_log: Deque[Update] = deque(maxlen=SESSION_LOG_SIZE)
        self._announced: set = set()

    def open(self) -> None:
        """Begin session establishment (IDLE or DOWN -> OPEN_SENT)."""
        if self.state not in (SessionState.IDLE, SessionState.DOWN):
            raise SessionStateError(f"cannot open session to {self.peer} in {self.state}")
        self.state = SessionState.OPEN_SENT

    def establish(self) -> None:
        """Complete establishment (OPEN_SENT -> ESTABLISHED)."""
        if self.state is not SessionState.OPEN_SENT:
            raise SessionStateError(
                f"cannot establish session to {self.peer} in {self.state}")
        self.state = SessionState.ESTABLISHED

    def connect(self) -> None:
        """Convenience: open and establish in one call."""
        self.open()
        self.establish()

    @property
    def is_established(self) -> bool:
        """True when updates may flow."""
        return self.state is SessionState.ESTABLISHED

    @property
    def is_down(self) -> bool:
        """True after a failure, until the session re-opens."""
        return self.state is SessionState.DOWN

    def note_update(self, update: Update) -> None:
        """Record an inbound update in the session's bookkeeping.

        Counts it, logs it, and tracks the announced-prefix set that the
        implied withdrawal on teardown is synthesized from. Called from
        :meth:`receive` and from the route server's bulk-load path (which
        bypasses per-update session delivery by design).
        """
        self.updates_received += 1
        self._received_log.append(update)
        for announcement in update.announcements:
            self._announced.add(announcement.prefix)
        for withdrawal in update.withdrawals:
            self._announced.discard(withdrawal.prefix)

    def receive(self, update: Update) -> None:
        """Process an update arriving from the peer."""
        if not self.is_established:
            raise SessionStateError(
                f"update from {self.peer} while session {self.state.value}")
        if update.sender != self.peer:
            raise SessionStateError(
                f"session with {self.peer} received update from {update.sender}")
        self.note_update(update)
        if self._on_update is not None:
            self._on_update(update)

    def send(self, update: Update) -> None:
        """Record an update sent to the peer (kept for inspection)."""
        if not self.is_established:
            raise SessionStateError(
                f"cannot send to {self.peer} while session {self.state.value}")
        BgpSession.send_on_established((self,), update)

    @staticmethod
    def send_on_established(sessions: Iterable[Optional["BgpSession"]],
                            update: Update) -> int:
        """:meth:`send` ``update`` on each of ``sessions`` that is
        established, skipping the rest (and ``None``): one loop for a route
        many peers are given. Returns how many sessions it was sent on."""
        sent = 0
        for session in sessions:
            if (session is not None
                    and session.state is SessionState.ESTABLISHED):
                session.updates_sent += 1
                session._sent_log.append(update)
                sent += 1
        return sent

    @property
    def sent_log(self) -> List[Update]:
        """The latest updates sent on this session, oldest first."""
        return list(self._sent_log)

    @property
    def received_log(self) -> List[Update]:
        """The latest updates received on this session, oldest first."""
        return list(self._received_log)

    @property
    def announced(self) -> FrozenSet[IPv4Prefix]:
        """Prefixes the peer currently has announced on this session."""
        return frozenset(self._announced)

    def _tear_down(self, to_state: SessionState, verb: str) -> Update:
        """Shared teardown: guard, clear logs, synthesize the withdrawal."""
        if self.state not in _UP_STATES:
            raise SessionStateError(
                f"cannot {verb} session to {self.peer} in {self.state}")
        implied = Update(sender=self.peer, withdrawals=tuple(
            Withdrawal(prefix) for prefix in sorted(self._announced)))
        self.state = to_state
        self._announced.clear()
        self._sent_log.clear()
        self._received_log.clear()
        if self._on_down is not None:
            self._on_down(implied, verb)
        return implied

    def reset(self) -> Update:
        """Tear the session down administratively (-> IDLE).

        Only legal from OPEN_SENT or ESTABLISHED; counts the reset,
        clears both logs, and returns the implied withdrawal of every
        prefix the peer had announced (also delivered to ``on_down``).
        """
        update = self._tear_down(SessionState.IDLE, "reset")
        self.resets += 1
        return update

    def fail(self) -> Update:
        """Tear the session down on failure (-> DOWN).

        Same teardown semantics as :meth:`reset`, but the session lands
        in DOWN — re-advertisements are skipped until :meth:`open`
        recovers it — and the failure counter increments instead.
        """
        update = self._tear_down(SessionState.DOWN, "fail")
        self.failures += 1
        return update

    def __repr__(self) -> str:
        return (f"BgpSession(peer={self.peer!r}, asn={self.asn}, "
                f"state={self.state.value})")
