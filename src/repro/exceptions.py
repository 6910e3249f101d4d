"""Exception hierarchy shared by every repro subpackage.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with one ``except`` clause while still being able to
distinguish addressing errors from policy or BGP errors.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AddressError(ReproError, ValueError):
    """An IPv4/MAC address or prefix could not be parsed or is invalid."""


class PolicyError(ReproError):
    """A policy is malformed or cannot be compiled."""


class FieldError(PolicyError, KeyError):
    """A match/modify references an unknown packet header field."""


class BgpError(ReproError):
    """A BGP message, session, or RIB operation is invalid."""


class SessionStateError(BgpError):
    """A BGP session operation was attempted in the wrong state."""


class OwnershipError(ReproError):
    """A participant tried to originate a prefix it does not own."""


class FabricError(ReproError):
    """The IXP fabric or switch configuration is inconsistent."""


class ParticipantError(ReproError):
    """A participant is unknown or misconfigured."""


class CompilationError(ReproError):
    """The SDX compiler could not produce forwarding rules."""


class StaticPolicyError(PolicyError):
    """The static policy verifier found error-severity diagnostics.

    Raised by an enforcing lint call, and by a strict policy gate for a
    change that introduces one (the change is undone); carries the
    :class:`~repro.statics.diagnostics.StaticsReport` as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class StaticDataplaneError(FabricError):
    """The dataplane verifier rejected a FlowMod apply window.

    Raised by :class:`~repro.statics.dataplane.DataplaneVerifier` in
    strict mode for a window that introduces an error (the southbound
    engine takes the window back out of the table); carries the
    :class:`~repro.statics.diagnostics.StaticsReport` as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
