"""Session-typed protocol conformance: specs, automata, monitors.

The :mod:`repro.obs.protocol` layer in isolation — the mini-language
and combinators, the compiled automaton, the message classifier, the
:class:`ProtocolMonitor` riding kernel and coroutine event streams, the
``(kind, subject, seq)`` hazard dedup it relies on, and the
``repro protocol`` CLI verbs.  Cluster-runtime conformance lives in
``test_cluster_protocol.py``.
"""

import json
from collections import namedtuple

import pytest

from repro.core import Receive, Send
from repro.core.mailbox import DeliveryPolicy, Mailbox
from repro.coroutines import CoChannel, CoScheduler
from repro.obs import (Hazard, MonitorBus, Protocol, ProtocolMonitor,
                       at_most_one_outstanding, message_kind,
                       protocol_bus, request_reply, turn_taking)
from repro.obs.explain import explain_hazard
from repro.obs.protocol import msg, opt, parse, plus, seq, star
from repro.verify import explore


# ---------------------------------------------------------------------------
# spec language: combinators <-> mini-language
# ---------------------------------------------------------------------------

class TestSpecLanguage:
    def test_minilanguage_equals_combinators(self):
        text = parse("(REQ -> (REPLY | ERR))*")
        built = star(msg("req") >> (msg("reply") | msg("err")))
        assert str(text) == str(built) == "(REQ -> (REPLY | ERR))*"

    def test_arrow_is_optional_sugar(self):
        assert str(parse("A B C")) == str(parse("A -> B -> C"))

    def test_postfix_operators_bind_tightest(self):
        p = parse("A B* C+ D?")
        assert str(p) == "A -> B* -> C+ -> D?"
        assert str(plus(opt(msg("a")))) == "A?+"

    def test_constructors(self):
        assert str(turn_taking("ping", "pong")) == "(PING -> PONG)*"
        assert (str(at_most_one_outstanding("req", "reply", "err"))
                == "(REQ -> (REPLY | ERR))*")
        assert request_reply is at_most_one_outstanding

    @pytest.mark.parametrize("bad", ["", "(A -> B", "A -> )", "*A",
                                     "A | | B", "A & B"])
    def test_syntax_errors_raise(self, bad):
        with pytest.raises(ValueError):
            parse(bad)

    def test_constructor_arity_checks(self):
        with pytest.raises(ValueError):
            turn_taking("solo")
        with pytest.raises(ValueError):
            at_most_one_outstanding("req")

    def test_protocol_validates_at_and_spec(self):
        with pytest.raises(ValueError):
            Protocol("p", "A", at="arrive")
        with pytest.raises(TypeError):
            Protocol("p", 42)

    def test_describe_roundtrips_the_surface(self):
        p = Protocol("rpc", "(REQ -> (REPLY | ERR))*",
                     parties=("server",), strict=True)
        d = p.describe()
        assert d["name"] == "rpc"
        assert d["spec"] == "(REQ -> (REPLY | ERR))*"
        assert d["parties"] == ["server"]
        assert d["at"] == "deliver"
        assert d["alphabet"] == ["err", "reply", "req"]
        assert d["strict"] is True


# ---------------------------------------------------------------------------
# the automaton
# ---------------------------------------------------------------------------

class TestMachine:
    def test_advance_and_reject(self):
        m = Protocol("p", "A -> B").machine()
        assert not m.accepting and not m.moved
        assert m.advance("a")
        assert m.expected() == ("b",)
        # rejection leaves the state unchanged (resync semantics)
        assert not m.advance("a")
        assert m.expected() == ("b",)
        assert m.advance("b")
        assert m.accepting

    def test_star_accepts_empty_and_loops(self):
        m = Protocol("p", "(A -> B)*").machine()
        assert m.accepting
        for _ in range(3):
            assert m.advance("a") and not m.accepting
            assert m.advance("b") and m.accepting

    def test_machines_of_one_spec_are_independent(self):
        p = Protocol("p", "A -> B")
        m1, m2 = p.machine(), p.machine()
        assert m1.advance("a")
        # m2 still at the initial state despite the shared compiled
        # automaton (and its shared memoized transition table)
        assert m2.expected() == ("a",)
        assert m1.expected() == ("b",)

    def test_alternation_tracks_both_branches(self):
        m = Protocol("p", "A -> (B -> C | B -> D)").machine()
        assert m.advance("a") and m.advance("b")
        assert m.expected() == ("c", "d")
        assert m.advance("d") and m.accepting

    def test_state_label_shows_the_trail(self):
        m = Protocol("p", "A -> B").machine()
        assert m.state_label() == "the initial state"
        m.advance("a")
        assert "a" in m.state_label()


# ---------------------------------------------------------------------------
# the message classifier
# ---------------------------------------------------------------------------

class TestClassifiers:
    @pytest.mark.parametrize("payload,kind", [
        (("REQ", 1, "x"), "req"),
        (["init"], "init"),
        ("Ping", "ping"),
        (7, "int"),
        (None, "nonetype"),
        (("bad token!", 1), None),     # head is not a kind token
        (["work", 2], "work"),
        (True, "bool"),
        (b"x", "bytes"),
        ({"a": 1}, "dict"),
        ("two words", None),           # a string that is no kind token
    ])
    def test_message_kind(self, payload, kind):
        assert message_kind(payload) == kind
        # the classification cache must not change the answer
        assert message_kind(payload) == kind

    def test_type_cache_never_answers_for_a_sequence_type(self):
        # a payload type classified once is answered from a type cache
        # after; a tuple type must stay out of it, as its head decides
        Pair = namedtuple("Pair", "head tail")
        assert message_kind(Pair(1, 2)) == "pair"
        assert message_kind(Pair("go", 2)) == "go"
        assert message_kind(()) == "tuple"
        assert message_kind(("stop",)) == "stop"


# ---------------------------------------------------------------------------
# kernel-event conformance (threads-style Send/Receive programs)
# ---------------------------------------------------------------------------

def _mailbox_program(payloads, receives=None):
    """One task deposits ``payloads`` into mailbox "svc", one drains."""
    n = len(payloads) if receives is None else receives

    def program(sched):
        mb = Mailbox("svc", policy=DeliveryPolicy.FIFO)

        def producer():
            for p in payloads:
                yield Send(mb, p)

        def consumer():
            for _ in range(n):
                yield Receive(mb)
        sched.spawn(producer, name="producer")
        sched.spawn(consumer, name="consumer")
    return program


def _explore_with(program, *protocols, **kw):
    return explore(program, max_runs=kw.pop("max_runs", 5000),
                   reduce="all",
                   monitors=lambda: protocol_bus(list(protocols),
                                                 include_default=False,
                                                 **kw))


class TestKernelConformance:
    def test_violation_names_state_and_expected_set(self):
        res = _explore_with(
            _mailbox_program([("init", 0), ("init", 1)]),
            Protocol("boot", "INIT -> WORK*", parties=("svc",)))
        hz = next(h for h in res.hazards
                  if h.kind == "protocol-violation")
        assert hz.severity == "error"
        assert hz.subject == "boot@svc"
        assert "'init'" in hz.message
        assert "expected {work}" in hz.message

    def test_conforming_program_is_clean(self):
        res = _explore_with(
            _mailbox_program([("init", 0), ("work", 1), ("work", 2)]),
            Protocol("boot", "INIT -> WORK*", parties=("svc",)))
        assert not [h for h in res.hazards
                    if h.kind.startswith("protocol-")]

    def test_resync_drops_only_the_offender(self):
        # A A B against (A -> B)*: the second A is flagged and dropped,
        # after which the B completes the first exchange — exactly one
        # hazard, no cascade (FIFO delivery makes the one run enough)
        bus = protocol_bus(
            [Protocol("turns", "(A -> B)*", parties=("svc",))],
            include_default=False)
        explore(_mailbox_program([("a",), ("a",), ("b",)]),
                max_runs=1, reduce=(), monitors=lambda: bus)
        flagged = [h for h in bus.hazards
                   if h.kind == "protocol-violation"]
        assert len(flagged) == 1
        m = Protocol("turns", "(A -> B)*").machine()
        assert m.advance("a") and not m.advance("a") and m.advance("b")

    def test_outside_alphabet_ignored_unless_strict(self):
        loose = _explore_with(
            _mailbox_program([("init", 0), ("noise", 1), ("work", 2)]),
            Protocol("boot", "INIT -> WORK*", parties=("svc",)))
        assert not [h for h in loose.hazards
                    if h.kind.startswith("protocol-")]
        strict = _explore_with(
            _mailbox_program([("init", 0), ("noise", 1), ("work", 2)]),
            Protocol("boot", "INIT -> WORK*", parties=("svc",),
                     strict=True))
        hz = next(h for h in strict.hazards
                  if h.kind == "protocol-violation")
        assert "outside the protocol alphabet" in hz.message

    def test_incomplete_session_reported_when_asked(self):
        res = _explore_with(
            _mailbox_program([("req", 0)]),
            Protocol("rpc", "REQ -> REPLY", parties=("svc",),
                     complete=True))
        inc = [h for h in res.hazards if h.kind == "protocol-incomplete"]
        assert inc and all(h.severity == "info" for h in inc)
        assert "reply" in inc[0].message

    def test_max_violations_caps_hazards_not_counts(self):
        # 6 deposits of A against (A -> B)*: the first conforms, the
        # next 5 violate; the bus reports the cap, counts() the truth
        mon = ProtocolMonitor(
            [Protocol("turns", "(A -> B)*", parties=("svc",))],
            max_violations=2)
        bus = MonitorBus([mon])
        explore(_mailbox_program([("a",)] * 6), max_runs=1,
                reduce=(), monitors=lambda: bus)
        flagged = [h for h in bus.hazards
                   if h.kind == "protocol-violation"]
        assert len(flagged) == 2
        assert mon.counts() == {"turns": 5}

    def test_monitor_counts_per_protocol(self):
        bus = protocol_bus(
            [Protocol("turns", "(A -> B)*", parties=("svc",))],
            include_default=False)
        res = explore(_mailbox_program([("a",), ("a",), ("b",)]),
                      max_runs=1, reduce=(), monitors=lambda: bus)
        assert res.runs == 1
        mon = next(d for d in bus.detectors
                   if isinstance(d, ProtocolMonitor))
        assert mon.counts() == {"turns": 1}


# ---------------------------------------------------------------------------
# coroutine-channel conformance (CoChannel taps)
# ---------------------------------------------------------------------------

class TestCoChannelConformance:
    def _run(self, payloads, *protocols):
        bus = protocol_bus(list(protocols), include_default=False)
        sched = CoScheduler(monitors=bus)
        chan = CoChannel(capacity=len(payloads) + 1, sched=sched,
                         name="wire")

        def producer():
            for p in payloads:
                yield from chan.put(p)

        def consumer():
            for _ in payloads:
                yield from chan.get()
        sched.spawn(producer, name="producer")
        sched.spawn(consumer, name="consumer")
        sched.run()
        return bus

    def test_tapped_channel_flags_non_conforming_stream(self):
        bus = self._run([("work", 1), ("init", 0)],
                        Protocol("boot", "INIT -> WORK*",
                                 parties=("wire",)))
        hz = next(h for h in bus.hazards
                  if h.kind == "protocol-violation")
        assert hz.subject == "boot@wire"
        assert "expected {init}" in hz.message

    def test_tapped_channel_conforming_stream_clean(self):
        bus = self._run([("init", 0), ("work", 1)],
                        Protocol("boot", "INIT -> WORK*",
                                 parties=("wire",)))
        assert not bus.hazards

    def test_send_point_sees_deposit_order(self):
        bus = self._run([("init", 0), ("work", 1)],
                        Protocol("boot", "INIT -> WORK*",
                                 parties=("wire",), at="send"))
        assert not bus.hazards
        mon = next(d for d in bus.detectors
                   if isinstance(d, ProtocolMonitor))
        assert mon._machines[0].moved

    def test_untapped_channel_feeds_nothing(self):
        sched = CoScheduler(monitors=protocol_bus(
            [Protocol("p", "A")], include_default=False))
        chan = CoChannel(capacity=2)      # no sched= -> no taps

        def producer():
            yield from chan.put(("a",))

        def consumer():
            yield from chan.get()
        sched.spawn(producer)
        sched.spawn(consumer)
        sched.run()
        mon = next(d for d in sched.monitors.detectors
                   if isinstance(d, ProtocolMonitor))
        assert not mon._machines[0].moved
        assert not sched.monitors.hazards


# ---------------------------------------------------------------------------
# hazard dedup on (kind, subject, seq) — the cross-link contract
# ---------------------------------------------------------------------------

class TestHazardDedup:
    def _hz(self, message, subject="boot@worker", seq=77,
            kind="protocol-violation"):
        return Hazard(kind=kind, severity="error", message=message,
                      step=1, subject=subject, seq=seq)

    def test_same_subject_and_seq_count_once(self):
        bus = MonitorBus(detectors=[])
        # both ends of a link word the same wire message differently
        bus.publish(self._hz("seen from the sending node"))
        bus.publish(self._hz("seen from the receiving node"))
        assert len(bus.hazards) == 1

    def test_different_seq_is_a_different_violation(self):
        bus = MonitorBus(detectors=[])
        bus.publish(self._hz("first", seq=1))
        bus.publish(self._hz("second", seq=2))
        assert len(bus.hazards) == 2

    def test_subjectless_hazards_keep_message_identity(self):
        bus = MonitorBus(detectors=[])
        bus.publish(Hazard(kind="x", severity="error", message="one",
                           step=0))
        bus.publish(Hazard(kind="x", severity="error", message="two",
                           step=0))
        bus.publish(Hazard(kind="x", severity="error", message="one",
                           step=0))
        assert len(bus.hazards) == 2

    def test_on_hazard_hook_fires_once_per_new_hazard(self):
        seen = []
        bus = MonitorBus(detectors=[])
        bus.on_hazard = seen.append
        bus.publish(self._hz("worded one way"))
        bus.publish(self._hz("worded another way"))
        bus.publish(self._hz("third wording", seq=78))
        assert [h.seq for h in seen] == [77, 78]


# ---------------------------------------------------------------------------
# explain_hazard: a monitored witness, minimized
# ---------------------------------------------------------------------------

class TestExplainHazard:
    def test_finds_and_explains_a_protocol_witness(self):
        proto = Protocol("turns", "(PING -> PONG)*", parties=("svc",))
        exp = explain_hazard(
            _mailbox_program([("ping",), ("ping",), ("pong",)],
                             receives=3),
            "protocol-violation",
            monitors=lambda: protocol_bus([proto],
                                          include_default=False),
            max_runs=200)
        assert exp is not None
        assert exp.kind == "protocol-violation"

    def test_returns_none_when_nothing_is_flagged(self):
        proto = Protocol("turns", "(PING -> PONG)*", parties=("svc",))
        exp = explain_hazard(
            _mailbox_program([("ping",), ("pong",)], receives=2),
            "protocol-violation",
            monitors=lambda: protocol_bus([proto],
                                          include_default=False),
            max_runs=200)
        assert exp is None


# ---------------------------------------------------------------------------
# the CLI verbs
# ---------------------------------------------------------------------------

class TestProtocolCLI:
    def test_list_names_every_protocol_specimen(self, capsys):
        from repro.cli import main
        assert main(["protocol", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["bug"] for r in rows} >= {
            "msgorder-init-work", "turntaking-pingpong",
            "pipeline-outstanding"}
        assert all(r["alphabet"] for r in rows)

    def test_check_flags_buggy_and_clears_fixed(self, capsys):
        from repro.cli import main
        assert main(["protocol", "check", "bug:msgorder-init-work",
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["flagged"] is True
        assert any(h["kind"] == "protocol-violation"
                   for h in report["hazards"])
        assert main(["protocol", "check", "bug:msgorder-init-work",
                     "--fixed", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flagged"] is False

    def test_check_adhoc_spec_on_named_program(self, capsys):
        from repro.cli import main
        rc = main(["protocol", "check", "pingpong",
                   "--spec", "(PING -> PONG)*", "--at", "deliver",
                   "--max-runs", "2000", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc in (0, 1)
        assert out["protocol"]["spec"] == "(PING -> PONG)*"

    def test_check_requires_a_spec_for_plain_programs(self, capsys):
        from repro.cli import main
        assert main(["protocol", "check", "pingpong"]) == 2

    def test_bad_adhoc_spec_is_a_usage_error(self, capsys):
        from repro.cli import main
        assert main(["protocol", "check", "pingpong",
                     "--spec", "(PING -> "]) == 2
