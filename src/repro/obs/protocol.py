"""Session-typed protocol conformance monitors.

Jongmans & Arbab ("Modularizing and Specifying Protocols among
Threads") argue that the *conversation* between concurrent parties —
not just the individual sends — should be a first-class, checkable
artifact.  This module is that layer for the repro kernel and the
cluster runtime: a declarative :class:`Protocol` describes the legal
message sequences of a conversation as a tiny regular session type, and
a :class:`ProtocolMonitor` rides the shared
:class:`~repro.obs.monitors.MonitorBus`, checking every message the
runtimes already report against the protocol's automaton *online*.

Specs are built from combinators or the mini-language::

    msg("req") >> (msg("reply") | msg("err"))       # combinators
    Protocol("rpc", "(REQ -> (REPLY | ERR))*",      # mini-language
             parties=("server",))

Grammar of the mini-language (case-insensitive message kinds)::

    expr := cat ('|' cat)*          alternation
    cat  := post ('->'? post)*      sequencing ('->' is optional sugar)
    post := atom ('*'|'+'|'?')*     repetition / optionality
    atom := NAME | '(' expr ')'

Two common conversation disciplines ship as constructors:
:func:`turn_taking` (token-style strict alternation, ``(A -> B)*``)
and :func:`at_most_one_outstanding` (a new request only after the
previous reply, ``(REQ -> (REP1|REP2|...))*``).

The monitor is observation-only.  It consumes the exact event streams
every other detector consumes — kernel :class:`~repro.core.trace
.TraceEvent`\\ s from the :class:`~repro.core.scheduler.Scheduler`
(which the threaded-style kernel programs, the
:class:`~repro.actors.sim.SimActorSystem` actors and the explorer all
share) and :class:`~repro.coroutines.CoChannel` taps from the
:class:`~repro.coroutines.CoScheduler` — so it can never perturb
scheduling, fingerprints or sleep sets, and ``explore(monitors=...)``
reports identical run/decision counts with it attached.  On the
cluster, a :class:`~repro.cluster.node.ClusterNode` steps the same
machines through :meth:`ProtocolMonitor.cluster_entries` with the live
message of every send, delivery and zero-serialization local delivery
(which folds send and delivery into one observation), inline on the
thread that carried it and under :attr:`ProtocolMonitor.lock`.

A non-conforming message raises a ``protocol-violation`` hazard naming
the offending message, the automaton state it arrived in (the recent
accepted trail), and the expected-next set; the machine then *resyncs*
by dropping the offending message, so one stray message yields one
hazard instead of cascading.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from functools import partial
from typing import Any, Iterable, Optional

from ..core.effects import message_kind
from .monitors import Detector, Hazard, MonitorBus, default_detectors

__all__ = [
    "PExpr", "msg", "seq", "alt", "star", "plus", "opt", "parse",
    "turn_taking", "at_most_one_outstanding", "request_reply",
    "Protocol", "ProtocolMachine", "ProtocolMonitor", "protocol_bus",
    "message_kind",
]


# ===========================================================================
# spec combinators
# ===========================================================================

class PExpr:
    """A protocol expression — a regular session type over message kinds.

    Compose with ``>>`` (sequence) and ``|`` (alternation), or the
    module-level :func:`seq`/:func:`alt`/:func:`star`/:func:`plus`/
    :func:`opt` constructors.
    """

    __slots__ = ()

    def __rshift__(self, other: "PExpr") -> "PExpr":
        return seq(self, other)

    def __or__(self, other: "PExpr") -> "PExpr":
        return alt(self, other)

    def star(self) -> "PExpr":
        return star(self)

    def plus(self) -> "PExpr":
        return plus(self)

    def opt(self) -> "PExpr":
        return opt(self)


class _Msg(PExpr):
    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if not _NAME_RE.fullmatch(kind):
            raise ValueError(f"bad message kind {kind!r}")
        self.kind = kind.lower()

    def __str__(self) -> str:
        return self.kind.upper()


class _Seq(PExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    def __str__(self) -> str:
        return " -> ".join(_paren(p, self) for p in self.parts)


class _Alt(PExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    def __str__(self) -> str:
        return " | ".join(_paren(p, self) for p in self.parts)


class _Rep(PExpr):
    """Repetition/optionality: ``op`` is one of ``*`` ``+`` ``?``."""

    __slots__ = ("inner", "op")

    def __init__(self, inner: PExpr, op: str):
        self.inner = inner
        self.op = op

    def __str__(self) -> str:
        return f"{_paren(self.inner, self)}{self.op}"


def _paren(child: PExpr, parent: PExpr) -> str:
    """Parenthesize a child when flat printing would mis-bind."""
    need = (isinstance(child, _Alt)
            or (isinstance(child, _Seq) and isinstance(parent, _Rep)))
    return f"({child})" if need else str(child)


def msg(kind: str) -> PExpr:
    """One message of the given kind (case-insensitive)."""
    return _Msg(kind)


def seq(*parts: PExpr) -> PExpr:
    """``a`` then ``b`` then ... in order."""
    flat: list[PExpr] = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, _Seq) else (p,))
    return flat[0] if len(flat) == 1 else _Seq(tuple(flat))


def alt(*parts: PExpr) -> PExpr:
    """Any one of the alternatives."""
    flat: list[PExpr] = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, _Alt) else (p,))
    return flat[0] if len(flat) == 1 else _Alt(tuple(flat))


def star(inner: PExpr) -> PExpr:
    """Zero or more repetitions."""
    return _Rep(inner, "*")


def plus(inner: PExpr) -> PExpr:
    """One or more repetitions."""
    return _Rep(inner, "+")


def opt(inner: PExpr) -> PExpr:
    """Zero or one occurrence."""
    return _Rep(inner, "?")


def turn_taking(*kinds: str) -> PExpr:
    """Token-style strict alternation: ``(A -> B -> ...)*``."""
    if len(kinds) < 2:
        raise ValueError("turn_taking needs at least two kinds")
    return star(seq(*(msg(k) for k in kinds)))


def at_most_one_outstanding(request: str, *replies: str) -> PExpr:
    """A new request is legal only after the previous one's reply:
    ``(REQ -> (REP1 | REP2 | ...))*`` over the merged two-party stream —
    a pipelined second request shows up as REQ·REQ and violates."""
    if not replies:
        raise ValueError("need at least one reply kind")
    return star(seq(msg(request), alt(*(msg(r) for r in replies))))


#: alias matching the ISSUE/paper vocabulary: REQ -> (REPLY | ERR), looped
request_reply = at_most_one_outstanding


# ---------------------------------------------------------------------------
# mini-language parser
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][\w.-]*")
_TOKEN_RE = re.compile(rf"\s*(->|[()|*+?]|{_NAME_RE.pattern})")


def parse(text: str) -> PExpr:
    """Parse the protocol mini-language (see module docstring)."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(
                    f"protocol spec syntax error at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty protocol spec")
    expr, rest = _parse_alt(tokens, 0)
    if rest != len(tokens):
        raise ValueError(
            f"protocol spec syntax error at {' '.join(tokens[rest:])!r}")
    return expr


def _parse_alt(toks: list[str], i: int) -> tuple[PExpr, int]:
    parts, i = [], i
    part, i = _parse_cat(toks, i)
    parts.append(part)
    while i < len(toks) and toks[i] == "|":
        part, i = _parse_cat(toks, i + 1)
        parts.append(part)
    return alt(*parts), i


def _parse_cat(toks: list[str], i: int) -> tuple[PExpr, int]:
    parts: list[PExpr] = []
    while i < len(toks) and toks[i] not in ("|", ")"):
        if toks[i] == "->":
            i += 1
            continue
        part, i = _parse_post(toks, i)
        parts.append(part)
    if not parts:
        raise ValueError("protocol spec: empty sequence")
    return seq(*parts), i


def _parse_post(toks: list[str], i: int) -> tuple[PExpr, int]:
    inner, i = _parse_atom(toks, i)
    while i < len(toks) and toks[i] in ("*", "+", "?"):
        inner = _Rep(inner, toks[i])
        i += 1
    return inner, i


def _parse_atom(toks: list[str], i: int) -> tuple[PExpr, int]:
    if i >= len(toks):
        raise ValueError("protocol spec: unexpected end")
    tok = toks[i]
    if tok == "(":
        inner, i = _parse_alt(toks, i + 1)
        if i >= len(toks) or toks[i] != ")":
            raise ValueError("protocol spec: unbalanced '('")
        return inner, i + 1
    if tok in (")", "|", "*", "+", "?", "->"):
        raise ValueError(f"protocol spec: unexpected {tok!r}")
    return msg(tok), i + 1


# ===========================================================================
# automaton compilation (Thompson NFA -> epsilon-free transition table)
# ===========================================================================

_UNSET = object()           # cache-miss sentinel (None is a valid value)


class _Compiled:
    __slots__ = ("start", "accept", "delta", "alphabet", "steps")

    def __init__(self, start: frozenset, accept: int,
                 delta: dict, alphabet: frozenset):
        self.start = start          # epsilon-closed initial state set
        self.accept = accept        # the single accepting NFA state
        self.delta = delta          # state -> kind -> frozenset(states)
        self.alphabet = alphabet
        #: (state set, kind) -> next state set | None, filled lazily.
        #: The subset construction done on demand: bounded by the DFA
        #: size, shared by every machine of the spec, and it turns the
        #: per-message advance into one dict probe on the hot path.
        self.steps: dict = {}


def _compile(expr: PExpr) -> _Compiled:
    eps: dict[int, set[int]] = {}
    moves: list[tuple[int, str, int]] = []
    counter = [0]

    def new_state() -> int:
        counter[0] += 1
        return counter[0] - 1

    def link(a: int, b: int) -> None:
        eps.setdefault(a, set()).add(b)

    def build(e: PExpr) -> tuple[int, int]:
        if isinstance(e, _Msg):
            s, t = new_state(), new_state()
            moves.append((s, e.kind, t))
            return s, t
        if isinstance(e, _Seq):
            first, last = build(e.parts[0])
            for part in e.parts[1:]:
                ns, nt = build(part)
                link(last, ns)
                last = nt
            return first, last
        if isinstance(e, _Alt):
            s, t = new_state(), new_state()
            for part in e.parts:
                ps, pt = build(part)
                link(s, ps)
                link(pt, t)
            return s, t
        if isinstance(e, _Rep):
            s, t = new_state(), new_state()
            ps, pt = build(e.inner)
            link(s, ps)
            link(pt, t)
            if e.op in ("*", "?"):
                link(s, t)
            if e.op in ("*", "+"):
                link(pt, ps)
            return s, t
        raise TypeError(f"not a protocol expression: {e!r}")

    start, accept = build(expr)

    closures: dict[int, frozenset] = {}

    def closure(state: int) -> frozenset:
        got = closures.get(state)
        if got is not None:
            return got
        seen = {state}
        stack = [state]
        while stack:
            for nxt in eps.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        got = closures[state] = frozenset(seen)
        return got

    delta: dict[int, dict[str, frozenset]] = {}
    alphabet = set()
    for src, kind, dst in moves:
        alphabet.add(kind)
        delta.setdefault(src, {}).setdefault(kind, set())
    for src, kind, dst in moves:
        delta[src][kind] = frozenset(
            set(delta[src][kind]) | closure(dst))
    return _Compiled(closure(start), accept, delta, frozenset(alphabet))


class ProtocolMachine:
    """One live conformance automaton (the runtime state of a spec)."""

    __slots__ = ("_compiled", "current", "trail", "moved")

    def __init__(self, compiled: _Compiled):
        self._compiled = compiled
        self.current: frozenset = compiled.start
        #: recent accepted message kinds, for human-readable state labels
        self.trail: deque = deque(maxlen=8)
        self.moved = False

    def expected(self) -> tuple[str, ...]:
        """Message kinds legal in the current state, sorted."""
        delta = self._compiled.delta
        kinds: set[str] = set()
        for state in self.current:
            kinds.update(delta.get(state, ()))
        return tuple(sorted(kinds))

    @property
    def accepting(self) -> bool:
        return self._compiled.accept in self.current

    def advance(self, kind: str) -> bool:
        """Consume one message kind; False means non-conforming (the
        state is left unchanged so the caller can resync)."""
        compiled = self._compiled
        key = (self.current, kind)
        nxt = compiled.steps.get(key, _UNSET)
        if nxt is _UNSET:
            delta = compiled.delta
            acc: set[int] = set()
            for state in self.current:
                acc.update(delta.get(state, {}).get(kind, ()))
            nxt = compiled.steps[key] = frozenset(acc) if acc else None
        if nxt is None:
            return False
        self.current = nxt
        self.trail.append(kind)
        self.moved = True
        return True

    def state_label(self) -> str:
        if not self.trail:
            return "the initial state"
        return "state after " + "·".join(self.trail)


# ===========================================================================
# the protocol and its monitor
# ===========================================================================

class Protocol:
    """A named conformance spec bound to the parties it governs.

    ``spec`` is a :class:`PExpr` or mini-language text.  ``parties``
    names the conversation's observation points — kernel mailbox names,
    :class:`~repro.coroutines.CoChannel` names, or cluster actor names;
    empty means "any".  ``at`` selects the observation event:
    ``"deliver"`` (default — conversation order as the receiver sees
    it) or ``"send"`` (deposit order).  Message kinds outside the
    spec's alphabet are ignored unless ``strict=True``; with
    ``complete=True``, a run that ends mid-conversation additionally
    reports an informational ``protocol-incomplete`` hazard.  Every
    runtime classifies a message once, when it is sent, with
    :func:`message_kind`.
    """

    __slots__ = ("name", "expr", "text", "parties", "at", "strict",
                 "complete", "_compiled")

    def __init__(self, name: str, spec: Any, *,
                 parties: Iterable[str] = (),
                 at: str = "deliver", strict: bool = False,
                 complete: bool = False):
        if at not in ("deliver", "send"):
            raise ValueError(f"at must be 'deliver' or 'send', got {at!r}")
        self.name = name
        self.expr = parse(spec) if isinstance(spec, str) else spec
        if not isinstance(self.expr, PExpr):
            raise TypeError(f"spec must be a PExpr or str, got {spec!r}")
        self.text = spec if isinstance(spec, str) else str(self.expr)
        self.parties = tuple(parties)
        self.at = at
        self.strict = strict
        self.complete = complete
        self._compiled = _compile(self.expr)

    @property
    def alphabet(self) -> frozenset:
        return self._compiled.alphabet

    def machine(self) -> ProtocolMachine:
        """A fresh automaton (specs are immutable and reusable)."""
        return ProtocolMachine(self._compiled)

    def watches(self, where: str) -> bool:
        return not self.parties or where in self.parties

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "spec": self.text,
                "parties": list(self.parties), "at": self.at,
                "alphabet": sorted(self.alphabet),
                "strict": self.strict, "complete": self.complete}

    def __repr__(self) -> str:
        where = f" @ {','.join(self.parties)}" if self.parties else ""
        return f"<Protocol {self.name!r}: {self.text}{where}>"


class ProtocolMonitor(Detector):
    """Online conformance checking of one or more :class:`Protocol`\\ s.

    Consumes kernel send/deliver events (any runtime riding the
    Scheduler — threads-style programs and SimActorSystem actors —
    plus CoChannel taps); cluster nodes step it through
    :meth:`cluster_entries`.  Violations are ``error`` hazards keyed
    on ``(kind, subject, wire seq)`` so the same non-conforming message
    observed from both ends of a cluster link counts once.
    """

    name = "protocol"

    def __init__(self, protocols: Iterable[Protocol],
                 max_violations: int = 8):
        self.protocols = tuple(protocols)
        self.max_violations = max_violations
        self._machines = [p.machine() for p in self.protocols]
        self._violations = [0] * len(self.protocols)
        #: held by a cluster node around its steps of the
        #: :meth:`cluster_entries` rows: the sending and delivering
        #: threads of every node sharing the bus step the same machines,
        #: and a step reads then writes ``current``.  The node publishes
        #: a violation after it releases the lock.  The kernel feed runs
        #: on one scheduler thread and takes no lock.
        self.lock = threading.Lock()
        #: kernel feed: seq -> kind of each send not yet delivered
        self._sent: dict[int, str] = {}

    # -- Detector protocol ---------------------------------------------
    def on_event(self, view, event, ready):
        """Step the machines over the sends and deliveries of one kernel
        event, in happened order.  A send carries its ``msg_kind``; a
        delivery is classified by its send's, matched on the seq."""
        obs = []
        mbox = event.recv_mbox
        if mbox is not None:
            kind = self._sent.pop(event.recv_seq, None)
            if kind is not None:
                obs.append(("deliver", mbox, kind, event.recv_seq))
        seqv = event.msg_seq
        if seqv is not None and event.obj_name:
            kind = event.msg_kind
            if kind is not None:
                self._sent[seqv] = kind
                obs.append(("send", event.obj_name, kind, seqv))
        if not obs:
            return
        for i, proto in enumerate(self.protocols):
            machine = self._machines[i]
            for point, where, kind, seqv in obs:
                if proto.at != point or not proto.watches(where):
                    continue
                if kind in proto.alphabet:
                    if machine.advance(kind):
                        continue
                    oob = False
                elif proto.strict:
                    oob = True
                else:
                    continue
                hz = self._violation(i, event.step, event.task_name,
                                     where, kind, seqv, oob)
                if hz is not None:
                    yield hz

    # -- the cluster node's conformance rows ---------------------------
    def cluster_entries(self) -> list:
        """One row per protocol for a cluster node's conformance loop:
        ``(at, watch, alphabet, strict, machine, steps, flag)``.

        Everything the per-message loop needs, pre-resolved — ``watch``
        is ``None`` for watch-everything specs, ``machine`` is the live
        :class:`ProtocolMachine`, ``steps`` its spec's transition cache
        (``(state, token) -> next state``, ``None`` for a refused
        token), so a cached step needs no call, and ``flag(step, task,
        where, token, seqv, outside_alphabet)`` builds the hazard of
        the row's protocol for the rare non-conforming message, with
        the kernel feed's bookkeeping and capping.  The caller holds
        :attr:`lock` while it steps the rows."""
        return [(p.at, frozenset(p.parties) if p.parties else None,
                 p.alphabet, p.strict, m, m._compiled.steps,
                 partial(self._violation, i))
                for i, (p, m) in enumerate(zip(self.protocols,
                                               self._machines))]

    def _violation(self, i: int, step: int, task: str, where: str,
                   kind: str, seqv: Optional[int],
                   outside_alphabet: bool) -> Optional[Hazard]:
        proto, machine = self.protocols[i], self._machines[i]
        self._violations[i] += 1
        if self._violations[i] > self.max_violations:
            return None
        expected = ", ".join(machine.expected()) or "end of session"
        what = ("outside the protocol alphabet" if outside_alphabet
                else f"cannot follow {machine.state_label()}")
        return Hazard(
            kind="protocol-violation", severity="error",
            message=f"protocol {proto.name!r} at {where}: message "
                    f"{kind!r} {what}; expected {{{expected}}}",
            step=step, tasks=(task,),
            objects=(proto.name, where),
            subject=f"{proto.name}@{where}", seq=seqv)

    def on_end(self, view, outcome, detail):
        for proto, machine in zip(self.protocols, self._machines):
            if proto.complete and machine.moved and not machine.accepting:
                expected = ", ".join(machine.expected()) or "nothing"
                yield Hazard(
                    kind="protocol-incomplete", severity="info",
                    message=f"protocol {proto.name!r} ended in "
                            f"{machine.state_label()}; still expected "
                            f"{{{expected}}}",
                    step=0, objects=(proto.name,),
                    subject=f"{proto.name}")

    def counts(self) -> dict[str, int]:
        """Violations observed per protocol (capped hazards included)."""
        return {p.name: n for p, n in zip(self.protocols,
                                          self._violations) if n}


def protocol_bus(protocols: Iterable[Protocol],
                 include_default: bool = True,
                 max_violations: int = 8) -> MonitorBus:
    """A MonitorBus carrying a :class:`ProtocolMonitor` — optionally on
    top of the full shipped detector set."""
    detectors: list[Detector] = \
        default_detectors() if include_default else []
    detectors.append(ProtocolMonitor(protocols,
                                     max_violations=max_violations))
    return MonitorBus(detectors)
