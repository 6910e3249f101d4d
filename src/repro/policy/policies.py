"""The policy AST: Pyretic-style predicates, actions, and composition.

A :class:`Policy` maps one located packet to a set of located packets
(Section 3.1 of the SDX paper). The concrete constructors mirror the
paper's syntax:

==============  =====================================================
``match(...)``  filter packets by header fields (a :class:`Predicate`)
``fwd(port)``   move the packet to an output port
``modify(...)`` rewrite header fields
``identity``    pass every packet through
``drop``        drop every packet
``p1 + p2``     parallel composition (apply both, union outputs)
``p1 >> p2``    sequential composition (pipe outputs of p1 into p2)
``if_(f,a,b)``  conditional, sugar for ``(f >> a) + (~f >> b)``
==============  =====================================================

Every policy both *evaluates* (:meth:`Policy.eval`) and *compiles*
(:meth:`Policy.compile`) — property tests assert the two agree.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.exceptions import PolicyError
from repro.net.packet import Packet
from repro.policy.classifier import (
    DROP_CLASSIFIER,
    IDENTITY_ACTION,
    IDENTITY_CLASSIFIER,
    Action,
    Classifier,
    ComposeStats,
    Rule,
    parallel_compose,
    sequential_compose,
)
from repro.policy.headerspace import WILDCARD, HeaderSpace

#: A forwarding target: a concrete port number, or a symbolic name that the
#: SDX compiler resolves to a port before low-level compilation.
PortRef = Union[int, str]


class Policy:
    """Base class for every policy node.

    Subclasses implement :meth:`eval` (denotational semantics) and
    :meth:`_compile` (translation to a total :class:`Classifier`).
    """

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        """The set of located packets this policy produces for ``packet``."""
        raise NotImplementedError

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        raise NotImplementedError

    def compile(self, stats: Optional[ComposeStats] = None) -> Classifier:
        """Compile to a total classifier.

        ``stats``, when given, accumulates composition-operation counts for
        the control-plane evaluation.
        """
        classifier = self._compile(stats)
        assert classifier.is_total, f"compiler bug: partial classifier for {self!r}"
        return classifier

    def substitute_ports(self, mapping: Mapping[str, int]) -> "Policy":
        """A copy with symbolic forwarding targets replaced via ``mapping``."""
        return self

    def symbolic_ports(self) -> FrozenSet[str]:
        """Every unresolved symbolic forwarding target in this policy."""
        return frozenset()

    def children(self) -> Tuple["Policy", ...]:
        """Immediate sub-policies (for AST walkers)."""
        return ()

    def __add__(self, other: "Policy") -> "Policy":
        if not isinstance(other, Policy):
            return NotImplemented
        return Parallel((self, other))

    def __rshift__(self, other: "Policy") -> "Policy":
        if not isinstance(other, Policy):
            return NotImplemented
        return Sequential((self, other))


class Predicate(Policy):
    """A boolean policy: passes matching packets, drops the rest."""

    def holds(self, packet: Packet) -> bool:
        """True if ``packet`` satisfies the predicate."""
        raise NotImplementedError

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        return frozenset((packet,)) if self.holds(packet) else frozenset()

    def __and__(self, other: "Predicate") -> "Predicate":
        if not isinstance(other, Predicate):
            return NotImplemented
        return Conjunction((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        if not isinstance(other, Predicate):
            return NotImplemented
        return Disjunction((self, other))

    def __invert__(self) -> "Predicate":
        return Negation(self)


class Identity(Predicate):
    """The pass-through policy (and the always-true predicate)."""

    def holds(self, packet: Packet) -> bool:
        return True

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        return IDENTITY_CLASSIFIER

    def __repr__(self) -> str:
        return "identity"


class Drop(Predicate):
    """The drop-everything policy (and the always-false predicate)."""

    def holds(self, packet: Packet) -> bool:
        return False

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        return DROP_CLASSIFIER

    def __repr__(self) -> str:
        return "drop"


#: Singleton pass-through policy / true predicate.
identity = Identity()

#: Singleton drop policy / false predicate.
drop = Drop()


class Match(Predicate):
    """Filter packets by a conjunction of header-field constraints."""

    def __init__(self, space: HeaderSpace):
        self.space = space

    def holds(self, packet: Packet) -> bool:
        return self.space.matches(packet)

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        if self.space.is_wildcard:
            return IDENTITY_CLASSIFIER
        return Classifier([
            Rule(self.space, (IDENTITY_ACTION,)),
            Rule(WILDCARD, ()),
        ])

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!s}" for k, v in self.space.items_sorted())
        return f"match({inner})"


class Conjunction(Predicate):
    """``p & q`` — packets satisfying both predicates."""

    def __init__(self, parts: Iterable[Predicate]):
        self.parts = tuple(parts)

    def holds(self, packet: Packet) -> bool:
        return all(part.holds(packet) for part in self.parts)

    def children(self) -> Tuple[Policy, ...]:
        return self.parts

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        if all(type(part) is Match for part in self.parts):
            # Header spaces intersect directly: one match, nothing to fold.
            space: Optional[HeaderSpace] = WILDCARD
            for part in self.parts:
                space = space.intersect(part.space)
                if space is None:
                    return DROP_CLASSIFIER
            return Match(space).compile(stats)
        result = IDENTITY_CLASSIFIER
        for part in self.parts:
            result = sequential_compose(result, part.compile(stats), stats)
        return result

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.parts)) + ")"


class Disjunction(Predicate):
    """``p | q`` — packets satisfying either predicate."""

    def __init__(self, parts: Iterable[Predicate]):
        self.parts = tuple(parts)

    def holds(self, packet: Packet) -> bool:
        return any(part.holds(packet) for part in self.parts)

    def children(self) -> Tuple[Policy, ...]:
        return self.parts

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        result = DROP_CLASSIFIER
        for part in self.parts:
            result = parallel_compose(result, part.compile(stats), stats)
        return result

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.parts)) + ")"


class Negation(Predicate):
    """``~p`` — packets not satisfying the predicate."""

    def __init__(self, inner: Predicate):
        self.inner = inner

    def holds(self, packet: Packet) -> bool:
        return not self.inner.holds(packet)

    def children(self) -> Tuple[Policy, ...]:
        return (self.inner,)

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        return self.inner.compile(stats).negate()

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


class Modify(Policy):
    """Rewrite header fields of every packet."""

    def __init__(self, **assignments: Any):
        if not assignments:
            raise PolicyError("modify() needs at least one field assignment")
        self.action = Action(**assignments)

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        return frozenset((self.action.apply(packet),))

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        return Classifier([Rule(WILDCARD, (self.action,))])

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!s}" for k, v in sorted(self.action.items()))
        return f"modify({inner})"


class Forward(Policy):
    """Send every packet to an output port.

    The target may be symbolic (a participant name); symbolic targets must
    be resolved with :meth:`Policy.substitute_ports` before compilation.
    """

    def __init__(self, port: PortRef):
        if not isinstance(port, (int, str)) or isinstance(port, bool):
            raise PolicyError(f"fwd() expects an int port or symbolic name, got {port!r}")
        self.port = port

    @property
    def is_symbolic(self) -> bool:
        """True if the target is an unresolved name."""
        return isinstance(self.port, str)

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        if self.is_symbolic:
            raise PolicyError(f"cannot evaluate unresolved fwd({self.port!r})")
        return frozenset((packet.at_port(self.port),))

    def substitute_ports(self, mapping: Mapping[str, int]) -> Policy:
        if self.is_symbolic and self.port in mapping:
            return Forward(mapping[self.port])
        return self

    def symbolic_ports(self) -> FrozenSet[str]:
        return frozenset((self.port,)) if self.is_symbolic else frozenset()

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        if self.is_symbolic:
            raise PolicyError(f"cannot compile unresolved fwd({self.port!r})")
        return Classifier([Rule(WILDCARD, (Action(port=self.port),))])

    def __repr__(self) -> str:
        return f"fwd({self.port!r})"


class _Composite(Policy):
    """Shared mechanics for n-ary composition nodes."""

    def __init__(self, parts: Iterable[Policy]):
        flattened: List[Policy] = []
        for part in parts:
            if not isinstance(part, Policy):
                raise PolicyError(f"cannot compose non-policy {part!r}")
            if type(part) is type(self):
                flattened.extend(part.parts)  # type: ignore[attr-defined]
            else:
                flattened.append(part)
        self.parts: Tuple[Policy, ...] = tuple(flattened)

    def children(self) -> Tuple[Policy, ...]:
        return self.parts

    def symbolic_ports(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.symbolic_ports()
        return out

    def _rebuild(self, parts: Iterable[Policy]) -> Policy:
        return type(self)(parts)

    def substitute_ports(self, mapping: Mapping[str, int]) -> Policy:
        return self._rebuild(part.substitute_ports(mapping) for part in self.parts)


class Parallel(_Composite):
    """``p1 + p2`` — apply all parts to the packet, union the outputs."""

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        out: FrozenSet[Packet] = frozenset()
        for part in self.parts:
            out |= part.eval(packet)
        return out

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        if not self.parts:
            return DROP_CLASSIFIER
        result = self.parts[0].compile(stats)
        for part in self.parts[1:]:
            result = parallel_compose(result, part.compile(stats), stats)
        return result

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.parts)) + ")"


class Sequential(_Composite):
    """``p1 >> p2`` — pipe each output of p1 into p2."""

    def eval(self, packet: Packet) -> FrozenSet[Packet]:
        current: FrozenSet[Packet] = frozenset((packet,))
        for part in self.parts:
            step: FrozenSet[Packet] = frozenset()
            for intermediate in current:
                step |= part.eval(intermediate)
            current = step
            if not current:
                break
        return current

    def _compile(self, stats: Optional[ComposeStats]) -> Classifier:
        if not self.parts:
            return IDENTITY_CLASSIFIER
        result = self.parts[0].compile(stats)
        for part in self.parts[1:]:
            result = sequential_compose(result, part.compile(stats), stats)
        return result

    def __repr__(self) -> str:
        return "(" + " >> ".join(map(repr, self.parts)) + ")"


def match(space: Optional[HeaderSpace] = None, **constraints: Any) -> Match:
    """Build a match predicate from field constraints or a header space.

    Examples::

        match(dstport=80)
        match(srcip="10.0.0.0/8", protocol=17)
    """
    if space is not None:
        if constraints:
            raise PolicyError("pass either a HeaderSpace or keyword constraints")
        return Match(space)
    return Match(HeaderSpace(**constraints))


def modify(**assignments: Any) -> Modify:
    """Build a header-rewrite policy, e.g. ``modify(dstip="10.0.0.2")``."""
    return Modify(**assignments)


def fwd(port: PortRef) -> Forward:
    """Build a forwarding policy to a port number or symbolic name."""
    return Forward(port)


def if_(condition: Predicate, then_policy: Policy,
        else_policy: Optional[Policy] = None) -> Policy:
    """Conditional composition: ``(cond >> then) + (~cond >> else)``.

    The SDX runtime uses this to stitch a participant's explicit policy
    together with its BGP default-forwarding policy (Section 4.1).
    """
    if not isinstance(condition, Predicate):
        raise PolicyError("if_() condition must be a Predicate")
    if else_policy is None:
        else_policy = identity
    return (condition >> then_policy) + (Negation(condition) >> else_policy)
