"""Exploration over simulated worlds + the PR-5 mutation fixtures.

The regression pins work mutation-style: each test reverts one review
fix (monkeypatching the method back to its buggy shape), explores the
scenario that exercises it, and asserts the *monitor* reports the
pinned hazard — then asserts the same exploration budget on fixed code
reports nothing.  The assertion is on the monitor, not the fix: if a
future change breaks the detection channel, these fail even though the
fix itself is still in place.
"""

from repro.cluster import delivery
from repro.cluster.node import ClusterNode, PeerState
from repro.obs.protocol import Protocol, ProtocolMonitor
from repro.sim import explore_world, run_world
from repro.sim.scenarios import SCENARIOS, get

EXPLORE_RUNS = 400      # the CI exploration budget per fixture


def explore_kinds(name, max_runs=EXPLORE_RUNS, detectors=None):
    sc = get(name)
    res = explore_world(sc.factory(0), budget=sc.budget,
                        max_runs=max_runs, detectors=detectors)
    return res, sorted({hz.kind for hz in res.hazards})


# ---------------------------------------------------------------------------
# exploration basics
# ---------------------------------------------------------------------------

class TestExploreWorlds:
    def test_explore_is_deterministic(self):
        sc = get("crash_rejoin")
        runs = [explore_world(sc.factory(0), budget=sc.budget,
                              max_runs=150) for _ in range(2)]
        assert runs[0].runs == runs[1].runs
        assert runs[0].decisions == runs[1].decisions
        assert set(runs[0].terminals) == set(runs[1].terminals)
        assert sorted(h.key for h in runs[0].hazards) == \
            sorted(h.key for h in runs[1].hazards)

    def test_fingerprint_reduction_prunes_reconverged_schedules(self):
        sc = get("eviction")
        naive = explore_world(sc.factory(0), budget=sc.budget,
                              max_runs=600, reduce=())
        reduced = explore_world(sc.factory(0), budget=sc.budget,
                                max_runs=600)
        assert naive.pruned_runs == 0
        assert reduced.pruned_runs > 0
        assert reduced.stats.fingerprint_hits > 0
        # pruning must not change what is observable
        assert set(reduced.terminals) == set(naive.terminals)

    def test_crash_and_recover_schedules_are_enumerated(self):
        res, kinds = explore_kinds("crash_rejoin", max_runs=200)
        assert kinds == []
        assert res.runs == 200
        # every terminal's observation shows the crash script completed
        # (crash fired and recovery brought the node back)
        for (_, obs) in res.terminals:
            assert obs[2] == (), obs   # no node left crashed
            ledger = dict((k, (d, dead)) for k, d, dead in obs[1])
            assert ledger["'w3'"][0] >= 1   # post-recovery delivery

    def test_every_pinned_scenario_is_clean_on_fixed_code(self):
        for name, sc in SCENARIOS.items():
            if not sc.pins:
                continue
            _, kinds = explore_kinds(name)
            assert kinds == [], name

    def test_protocol_monitors_ride_along(self):
        """Conformance monitors consume simulated cluster traffic
        without tripping on virtual time or inline delivery: every
        run's automaton moves, and no run flags the conforming
        stream."""
        monitors = []

        def detectors():
            spec = Protocol("sim-traffic", "(W1 | W2 | W3)*",
                            parties=("sink",), strict=True)
            monitors.append(ProtocolMonitor([spec]))
            return [monitors[-1]]
        res, kinds = explore_kinds("crash_rejoin", max_runs=80,
                                   detectors=detectors)
        assert len(monitors) >= res.runs == 80
        assert all(m._machines[0].moved for m in monitors)
        assert [k for k in kinds if k.startswith("protocol")] == []


# ---------------------------------------------------------------------------
# the mutation fixtures
# ---------------------------------------------------------------------------

class TestRegressionPins:
    def test_skip_resync_pin(self, monkeypatch):
        """Reverting DedupTable.skip_to stalls the dedup prefix under a
        permanently lost message -> sim-resync-stall."""
        monkeypatch.setattr(delivery.DedupTable, "skip_to",
                            lambda self, seq: None)
        _, kinds = explore_kinds("skip_resync")
        assert "sim-resync-stall" in kinds

    def test_credit_return_pin(self, monkeypatch):
        """Reverting the _abandon credit release leaks window slots on
        retry exhaustion -> sim-credit-leak."""
        def no_release(self, dest, env):
            with self._state_lock:
                if env.seq > self._skip.get(dest, 0):
                    self._skip[dest] = env.seq
            # fix reverted: the TELL's credit is never returned
        monkeypatch.setattr(ClusterNode, "_abandon", no_release)
        _, kinds = explore_kinds("credit_return")
        assert "sim-credit-leak" in kinds

    def test_recovery_remint_pin(self, monkeypatch):
        """Reverting the DOWN->ALIVE gate re-mint leaves broken gates
        rejecting traffic to a peer the detector says is healthy ->
        sim-recovery-loss."""
        def no_remint(self, origin):
            now = self.clock()
            peer = self._peers.get(origin)
            if peer is not None and peer.state == PeerState.ALIVE:
                peer.last_heard = now
                return
            with self._state_lock:
                peer = self._peers.get(origin)
                if peer is None:
                    self._peers[origin] = PeerState(origin, now)
                    return
                peer.last_heard = now
                recovered = peer.state != PeerState.ALIVE
                if recovered:
                    peer.state = PeerState.ALIVE
                # fix reverted: broken credit gates survive recovery
            if recovered:
                self._event("cluster-recover", peer=origin)
        monkeypatch.setattr(ClusterNode, "_heard_from", no_remint)
        _, kinds = explore_kinds("recovery_remint")
        assert "sim-recovery-loss" in kinds

    def test_eviction_pin(self, monkeypatch):
        """Reverting _evict_peer keeps per-peer state for a corpse far
        past the eviction window -> sim-evict-leak."""
        monkeypatch.setattr(ClusterNode, "_evict_peer",
                            lambda self, peer: None)
        _, kinds = explore_kinds("eviction")
        assert "sim-evict-leak" in kinds

    def test_dup_delivery_pin(self, monkeypatch):
        """Reverting DedupTable.fresh delivers every retransmission to
        the actor -> sim-duplicate-delivery."""
        monkeypatch.setattr(delivery.DedupTable, "fresh",
                            lambda self, seq: True)
        _, kinds = explore_kinds("dup_delivery")
        assert "sim-duplicate-delivery" in kinds

    def test_mutations_only_raise_their_own_pin(self, monkeypatch):
        """A mutation must not light up unrelated monitors — the pins
        localize the regression, not just detect 'something broke'."""
        monkeypatch.setattr(delivery.DedupTable, "skip_to",
                            lambda self, seq: None)
        _, kinds = explore_kinds("skip_resync")
        assert kinds == ["sim-resync-stall"]


# ---------------------------------------------------------------------------
# seeded runs find the mutations too (the `repro sim run` path)
# ---------------------------------------------------------------------------

class TestSeededDetection:
    def test_seeded_run_catches_a_mutation_and_replays(self, monkeypatch):
        monkeypatch.setattr(delivery.DedupTable, "skip_to",
                            lambda self, seq: None)
        sc = get("skip_resync")
        hit = None
        for seed in range(30):
            run = run_world(sc.factory(seed), seed=seed,
                            budget=sc.budget)
            if any(hz.kind == "sim-resync-stall" for hz in run.hazards):
                hit = run
                break
        assert hit is not None, "no seed under 30 exposed the mutation"
        replay = run_world(sc.factory(hit.seed), seed=hit.seed,
                           budget=sc.budget)
        assert replay.digest() == hit.digest()
        assert [h.key for h in replay.hazards] == \
            [h.key for h in hit.hazards]

    def test_hazard_step_counts_decisions_not_wall_time(self):
        """Satellite: hazards found in simulation are stamped with the
        schedule position (and the world runs on virtual time), so a
        replay reproduces the stamp exactly."""
        sc = get("eviction")
        import repro.cluster.node as nodemod
        orig = nodemod.ClusterNode._evict_peer
        nodemod.ClusterNode._evict_peer = lambda self, peer: None
        try:
            first = run_world(sc.factory(2), seed=2, budget=sc.budget)
            again = run_world(sc.factory(2), seed=2, budget=sc.budget)
        finally:
            nodemod.ClusterNode._evict_peer = orig
        assert [(h.kind, h.step) for h in first.hazards] == \
            [(h.kind, h.step) for h in again.hazards]
        assert first.hazards, "eviction mutation should flag"
