//! The online fault-injection protocol: a long-lived network session
//! absorbing a *stream* of fault events (Section 2.5's reconfiguration
//! viewpoint), round-tripped against the centralized incremental engine.
//!
//! [`OnlineFfc`] keeps the accumulated fault set of a running network.
//! Each [`OnlineFfc::inject_fault`] / [`OnlineFfc::repair_fault`] event
//! triggers one distributed reconfiguration — a full run of the five-phase
//! Section 2.4 protocol, which is what reconfiguration *is* at the network
//! level: every processor re-derives its successor pointer from messages
//! alone — and records the event's round/message cost next to the
//! cumulative totals.
//!
//! The interesting property is the **round trip against the centralized
//! maintainer**: after every event, the protocol's outcome must agree with
//! a [`RingMaintainer`] that absorbed the
//! same event incrementally — same root, same ring bytes, and the
//! protocol's *per-round message counts must equal the maintainer's phase
//! work*: broadcast round r sends exactly d tokens per node the
//! maintainer's forward-level histogram puts at level r − 1, and the
//! per-level receiver counts equal that histogram bin for bin.
//! [`verify_against_maintainer`] packages those assertions as the shared
//! harness the exhaustive protocol tests (and any embedding service that
//! wants a self-check) run after each event — one implementation instead
//! of per-test run-then-diff loops.

use debruijn_core::{Ffc, RingMaintainer};

use crate::ffc_distributed::{DistributedFfc, DistributedOutcome};
use crate::network::ChaosConfig;

/// Round/message cost of one online event (one distributed
/// reconfiguration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineEventCost {
    /// Communication rounds the reconfiguration used.
    pub rounds: usize,
    /// Messages handed to the fabric during the reconfiguration.
    pub messages_sent: u64,
}

/// A long-lived distributed FFC session absorbing fault events online.
#[derive(Clone, Debug)]
pub struct OnlineFfc {
    runner: DistributedFfc,
    faults: Vec<usize>,
    outcome: DistributedOutcome,
    events: usize,
    total_rounds: usize,
    total_messages: u64,
    /// When set, every reconfiguration runs through the chaos fabric,
    /// re-seeded per event so each reconfiguration sees a fresh (but
    /// replayable) adversary stream.
    chaos: Option<ChaosConfig>,
}

impl OnlineFfc {
    /// Starts an online session on B(d,n) with no faults (one initial
    /// reconfiguration runs immediately).
    #[must_use]
    pub fn new(d: u64, n: u32) -> Self {
        Self::build(d, n, None)
    }

    /// Starts an online session whose every reconfiguration — including
    /// the initial bring-up — runs through the chaos fabric: messages are
    /// dropped, duplicated and delayed per `cfg`, and the protocol's
    /// retry-with-timeout/resynchronization machinery has to absorb it.
    /// The chaos stream is re-seeded deterministically per event, so a
    /// session replays bit-identically.
    #[must_use]
    pub fn with_chaos(d: u64, n: u32, cfg: ChaosConfig) -> Self {
        Self::build(d, n, Some(cfg))
    }

    fn build(d: u64, n: u32, chaos: Option<ChaosConfig>) -> Self {
        let runner = DistributedFfc::new(d, n);
        let outcome = match chaos {
            Some(cfg) => runner.run_chaos(&[], cfg),
            None => runner.run(&[]),
        };
        let mut session = OnlineFfc {
            runner,
            faults: Vec::new(),
            outcome,
            events: 0,
            total_rounds: 0,
            total_messages: 0,
            chaos,
        };
        session.account();
        session
    }

    /// The chaos configuration, if this session runs on a faulty fabric.
    #[must_use]
    pub fn chaos_config(&self) -> Option<ChaosConfig> {
        self.chaos
    }

    /// The protocol runner (graph + centralized reference).
    #[must_use]
    pub fn runner(&self) -> &DistributedFfc {
        &self.runner
    }

    /// The accumulated faulty processors.
    #[must_use]
    pub fn faults(&self) -> &[usize] {
        &self.faults
    }

    /// The outcome of the most recent reconfiguration.
    #[must_use]
    pub fn outcome(&self) -> &DistributedOutcome {
        &self.outcome
    }

    /// Fault events absorbed so far (injections + repairs; the initial
    /// bring-up is not counted).
    #[must_use]
    pub fn events(&self) -> usize {
        self.events
    }

    /// Cumulative rounds and messages over every reconfiguration run.
    #[must_use]
    pub fn totals(&self) -> OnlineEventCost {
        OnlineEventCost {
            rounds: self.total_rounds,
            messages_sent: self.total_messages,
        }
    }

    /// Injects a fault at processor `v` and reconfigures; returns the
    /// event's cost. Injecting an already-faulty processor still runs a
    /// reconfiguration (the network cannot know it was redundant) but
    /// leaves the fault set unchanged.
    pub fn inject_fault(&mut self, v: usize) -> OnlineEventCost {
        assert!(v < self.runner.graph().len(), "processor id out of range");
        if !self.faults.contains(&v) {
            self.faults.push(v);
        }
        self.reconfigure()
    }

    /// Repairs the fault at processor `v` and reconfigures; returns the
    /// event's cost.
    ///
    /// # Panics
    /// Panics if `v` is not currently faulty.
    pub fn repair_fault(&mut self, v: usize) -> OnlineEventCost {
        let pos = self
            .faults
            .iter()
            .position(|&f| f == v)
            .unwrap_or_else(|| panic!("repair_fault({v}): processor is not faulty"));
        self.faults.swap_remove(pos);
        self.reconfigure()
    }

    /// Runs one reconfiguration over the current fault set.
    fn reconfigure(&mut self) -> OnlineEventCost {
        self.events += 1;
        self.outcome = match self.chaos {
            Some(cfg) => {
                // A fresh, deterministic adversary stream per event.
                let salt = (self.events as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                self.runner
                    .run_chaos(&self.faults, cfg.reseed(cfg.seed ^ salt))
            }
            None => self.runner.run(&self.faults),
        };
        self.account()
    }

    /// Folds the latest outcome into the cumulative totals.
    fn account(&mut self) -> OnlineEventCost {
        let cost = OnlineEventCost {
            rounds: self.outcome.rounds.total,
            messages_sent: self.outcome.network.messages_sent,
        };
        self.total_rounds += cost.rounds;
        self.total_messages += cost.messages_sent;
        cost
    }
}

/// The shared verification harness: checks a distributed outcome against a
/// centralized [`RingMaintainer`] holding the same accumulated fault set.
///
/// Verified, in order:
///
/// 1. **Root** — the protocol elected the maintainer's repair root.
/// 2. **Ring bytes** — the protocol's successor walk equals the
///    maintainer's ring node for node (`ring` is scratch space for the
///    walk).
/// 3. **Broadcast levels** — the protocol's per-level receiver counts
///    equal the maintainer's forward-level histogram bin for bin (the
///    protocol floods over live-necklace nodes, which is exactly the
///    maintainer's forward structure).
/// 4. **Per-round message counts** — broadcast round r sent exactly
///    d · histogram[r − 1] tokens (every frontier node sends to all d
///    successors), and the fabric's conservation law
///    `sent == delivered + dropped` holds for every traced round.
///
/// For a chaos run ([`DistributedOutcome::chaos`]) the per-round
/// identities of check 4 are meaningless — retries inflate sends and
/// delay decouples a round's sends from its deliveries — so the harness
/// checks the *global* conservation law instead and keeps checks 1–3
/// unchanged: convergence must be bit-identical even on a faulty fabric.
///
/// # Errors
/// Returns a description of the first discrepancy.
pub fn verify_against_maintainer(
    outcome: &DistributedOutcome,
    ffc: &Ffc,
    maintainer: &RingMaintainer,
    ring: &mut Vec<usize>,
) -> Result<(), String> {
    let stats = maintainer.stats();
    if outcome.root != stats.root {
        return Err(format!(
            "root diverges: protocol {} vs maintainer {}",
            outcome.root, stats.root
        ));
    }
    let cycle = outcome
        .cycle
        .as_ref()
        .ok_or_else(|| "protocol walk did not close".to_string())?;
    maintainer.ring_into(ring);
    if cycle != ring {
        return Err(format!(
            "ring bytes diverge: protocol {} nodes vs maintainer {}",
            cycle.len(),
            ring.len()
        ));
    }
    let histogram = maintainer.forward_level_counts();
    if outcome.broadcast_level_counts != histogram {
        return Err(format!(
            "broadcast level counts diverge: protocol {:?} vs forward histogram {:?}",
            outcome.broadcast_level_counts, histogram
        ));
    }
    if outcome.chaos {
        let s = outcome.network;
        if s.messages_sent != s.messages_delivered + s.messages_dropped {
            return Err(format!(
                "chaos run violates global conservation: {} sent, {} delivered, {} dropped",
                s.messages_sent, s.messages_delivered, s.messages_dropped
            ));
        }
        return Ok(());
    }
    let d = ffc.graph().d();
    let probe = outcome.rounds.probe;
    for r in 1..=outcome.rounds.broadcast_depth {
        let round = outcome
            .trace
            .get(probe + r - 1)
            .ok_or_else(|| format!("trace too short for broadcast round {r}"))?;
        let want = d * histogram[r - 1] as u64;
        if round.sent != want {
            return Err(format!(
                "broadcast round {r} sent {} messages, expected d x {} = {want}",
                round.sent,
                histogram[r - 1]
            ));
        }
    }
    for (i, round) in outcome.trace.iter().enumerate() {
        if round.sent != round.delivered + round.dropped {
            return Err(format!(
                "round {i} violates conservation: {} sent, {} delivered, {} dropped",
                round.sent, round.delivered, round.dropped
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::EmbedScratch;

    /// Drives an online session and a centralized maintainer through the
    /// same event stream, running the shared harness after every event.
    fn lockstep(d: u64, n: u32, events: &[(bool, usize)]) {
        let mut online = OnlineFfc::new(d, n);
        let ffc = Ffc::new(d, n);
        let mut maint = RingMaintainer::new();
        let mut ring = Vec::new();
        maint.reset(&ffc, &[]).expect("in-range");
        verify_against_maintainer(online.outcome(), &ffc, &maint, &mut ring)
            .expect("bring-up diverges");
        for &(inject, v) in events {
            let cost = if inject {
                maint.add_fault(&ffc, v).expect("in-range");
                online.inject_fault(v)
            } else {
                maint.clear_fault(&ffc, v).expect("in-range");
                online.repair_fault(v)
            };
            assert!(cost.rounds > 0 && cost.messages_sent > 0);
            verify_against_maintainer(online.outcome(), &ffc, &maint, &mut ring)
                .unwrap_or_else(|e| panic!("event ({inject}, {v}) diverges: {e}"));
        }
    }

    #[test]
    fn online_stream_matches_maintainer_on_example_2_1() {
        let g = dbg_graph::DeBruijn::new(3, 3);
        let a = g.node("020").unwrap();
        let b = g.node("112").unwrap();
        lockstep(
            3,
            3,
            &[
                (true, a),
                (true, b),
                (false, a),
                (true, a),
                (false, b),
                (false, a),
            ],
        );
    }

    /// The exhaustive ≤2-fault grid of the protocol tests, replayed as an
    /// online event stream: inject a, inject b, repair a, repair b — the
    /// shared harness must hold after every event, for every ordered pair.
    #[test]
    fn online_stream_matches_maintainer_exhaustively_on_small_fault_sets() {
        for (d, n) in [(2u64, 5u32), (3, 3)] {
            let ffc = Ffc::new(d, n);
            let total = ffc.graph().len();
            let mut online = OnlineFfc::new(d, n);
            let mut maint = RingMaintainer::new();
            let mut ring = Vec::new();
            for a in 0..total {
                for b in 0..total {
                    if a == b {
                        continue;
                    }
                    maint.reset(&ffc, &[]).expect("in-range");
                    online.faults.clear();
                    for (label, event) in [
                        ("inject a", (true, a)),
                        ("inject b", (true, b)),
                        ("repair a", (false, a)),
                        ("repair b", (false, b)),
                    ] {
                        let (inject, v) = event;
                        if inject {
                            maint.add_fault(&ffc, v).expect("in-range");
                            online.inject_fault(v);
                        } else {
                            maint.clear_fault(&ffc, v).expect("in-range");
                            online.repair_fault(v);
                        }
                        verify_against_maintainer(online.outcome(), &ffc, &maint, &mut ring)
                            .unwrap_or_else(|e| {
                                panic!("{label} diverges for ({a},{b}) in B({d},{n}): {e}")
                            });
                    }
                }
            }
        }
    }

    /// The same lockstep stream as the perfect-fabric tests, but on a
    /// chaos fabric at ≥10% drop (plus duplication and delay): the
    /// protocol must still converge bit-identically to the centralized
    /// maintainer after every event — the harness checks root, ring bytes,
    /// level histogram and global message conservation.
    #[test]
    fn online_chaos_stream_matches_maintainer() {
        for cfg in [
            ChaosConfig::drop_only(0.10, 0xFEED),
            ChaosConfig {
                drop: 0.15,
                duplicate: 0.10,
                max_delay: 2,
                seed: 0xDEC0,
            },
        ] {
            let (d, n) = (3u64, 3u32);
            let mut online = OnlineFfc::with_chaos(d, n, cfg);
            assert_eq!(online.chaos_config(), Some(cfg));
            let ffc = Ffc::new(d, n);
            let mut maint = RingMaintainer::new();
            let mut ring = Vec::new();
            maint.reset(&ffc, &[]).expect("in-range");
            verify_against_maintainer(online.outcome(), &ffc, &maint, &mut ring)
                .expect("chaos bring-up diverges");
            assert!(online.outcome().chaos);
            let g = dbg_graph::DeBruijn::new(d, n);
            let a = g.node("020").unwrap();
            let b = g.node("112").unwrap();
            for (inject, v) in [(true, a), (true, b), (false, a), (false, b)] {
                let cost = if inject {
                    maint.add_fault(&ffc, v).expect("in-range");
                    online.inject_fault(v)
                } else {
                    maint.clear_fault(&ffc, v).expect("in-range");
                    online.repair_fault(v)
                };
                assert!(cost.rounds > 0 && cost.messages_sent > 0);
                verify_against_maintainer(online.outcome(), &ffc, &maint, &mut ring)
                    .unwrap_or_else(|e| panic!("chaos event ({inject}, {v}) diverges: {e}"));
                // The adversary genuinely interfered.
                assert!(online.outcome().network.messages_dropped > 0);
            }
        }
    }

    #[test]
    fn online_event_costs_accumulate() {
        let mut online = OnlineFfc::new(2, 5);
        let bring_up = online.totals();
        assert!(bring_up.rounds > 0);
        let c1 = online.inject_fault(9);
        let c2 = online.repair_fault(9);
        assert_eq!(online.events(), 2);
        assert_eq!(
            online.totals().rounds,
            bring_up.rounds + c1.rounds + c2.rounds
        );
        assert!(online.faults().is_empty());
    }

    #[test]
    #[should_panic(expected = "not faulty")]
    fn repairing_a_healthy_processor_is_a_programming_error() {
        let mut online = OnlineFfc::new(2, 4);
        let _ = online.repair_fault(3);
    }

    /// The harness itself also validates a plain (non-online) run against
    /// a maintainer primed with the same faults — the single entry point
    /// the `ffc_distributed` exhaustive test shares.
    #[test]
    fn harness_accepts_fresh_runs() {
        let ffc = Ffc::new(3, 3);
        let runner = DistributedFfc::new(3, 3);
        let mut maint = RingMaintainer::new();
        let mut ring = Vec::new();
        let mut scratch = EmbedScratch::new();
        for faults in [vec![], vec![5], vec![5, 11]] {
            let outcome = runner.run(&faults);
            maint.reset(&ffc, &faults).expect("in-range");
            verify_against_maintainer(&outcome, &ffc, &maint, &mut ring)
                .expect("fresh run diverges");
            // And the maintainer agreed with the engine, closing the
            // three-way loop.
            let want = ffc.embed_into(&mut scratch, &faults);
            assert_eq!(maint.stats(), want);
        }
    }
}
