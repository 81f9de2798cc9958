//! The distributed fault-free-cycle protocol (Section 2.4), executed on the
//! synchronous message-passing fabric of [`crate::network`].
//!
//! Every processor starts knowing only the network parameters (d, n), its
//! own label, and the identity of the distinguished root R. The protocol
//! runs in five phases, all of whose decisions are made from node-local
//! state and received messages:
//!
//! 1. **Necklace probe** (n rounds): each node circulates a token around
//!    its necklace; if the token fails to return the necklace contains a
//!    faulty processor and the node withdraws from the computation.
//! 2. **Broadcast** (K rounds, K = eccentricity of R in B*): R floods a
//!    token; each node records the round of first receipt as its level and
//!    its minimal same-round sender as its parent — the spanning tree T′ of
//!    Step 1.1.
//! 3. **Necklace-level aggregation** (n rounds): members of each necklace
//!    exchange (level, parent) records, so all of them can agree on the
//!    earliest-reached node Y, the tree label w, and the parent necklace of
//!    Step 1.2.
//! 4. **w-group formation** (1 + n rounds): the node of each child necklace
//!    whose suffix is w announces its necklace to its de Bruijn successors;
//!    the announcements are circulated so that every member necklace of T_w
//!    learns the whole group and can orient the w-cycle of the modified
//!    tree D (Step 2).
//! 5. **Successor computation** (0 rounds): each node decides locally
//!    whether to leave its necklace through the w-edge of D or to follow
//!    its necklace successor (Step 3).
//!
//! The resulting successor pointers trace exactly the Hamiltonian cycle of
//! B* produced by the centralized algorithm in `debruijn_core::ffc`, which
//! the tests verify node for node. The total number of communication
//! rounds is K + 3n + 1 = O(K + n), matching the paper's bound.

use std::collections::{BTreeMap, BTreeSet};

use dbg_graph::{DeBruijn, FaultSet, Topology};
use debruijn_core::Ffc;

use crate::network::{ChaosConfig, Network, NetworkStats, RoundTrace};

/// One processor's protocol state.
#[derive(Clone, Debug, Default)]
struct NodeState {
    /// Necklace members in rotation order starting at this node (filled
    /// when the probe returns).
    necklace: Vec<usize>,
    /// Whether the probe returned — i.e. the whole necklace is fault-free.
    necklace_alive: bool,
    /// Broadcast level (round of first token receipt).
    level: Option<usize>,
    /// Broadcast parent (minimal sender among first-round receipts).
    parent: Option<usize>,
    /// (node, level, parent) records accumulated from necklace mates.
    records: BTreeMap<usize, (usize, usize)>,
    /// The necklace's tree label w, if it is a non-root necklace of B*.
    tree_label: Option<u64>,
    /// The representative of the parent necklace in T.
    parent_rep: Option<usize>,
    /// For each label w, the representatives of the necklaces known to form
    /// the w-group of D (parent and children).
    groups: BTreeMap<u64, BTreeSet<usize>>,
    /// The node's successor in the fault-free cycle H.
    successor: Option<usize>,
}

/// Messages exchanged by the protocol.
#[derive(Clone, Debug)]
enum Msg {
    /// Necklace probe: originating node plus the members accumulated so far.
    Probe { origin: usize, members: Vec<usize> },
    /// Broadcast token carrying its sender.
    Token { sender: usize },
    /// Chaos-mode broadcast token carrying the sender's current level —
    /// under message delay the receipt round no longer encodes distance,
    /// so the level travels explicitly and receivers min-fold it.
    TokenL { sender: usize, level: usize },
    /// Necklace-internal share of (node, level, parent) records.
    Share { records: Vec<(usize, usize, usize)> },
    /// A child necklace announcing itself to a w-group.
    Announce {
        label: u64,
        member_rep: usize,
        parent_rep: usize,
    },
    /// Necklace-internal circulation of w-group membership facts.
    Circulate { items: Vec<(u64, usize, usize)> },
}

/// Per-phase and total round counts, plus fabric statistics.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct DistributedRounds {
    /// Rounds spent probing necklaces (always n).
    pub probe: usize,
    /// Rounds spent broadcasting (the eccentricity of the root in B*, plus
    /// one final quiescent round used to detect termination).
    pub broadcast: usize,
    /// The largest broadcast level assigned — the eccentricity K itself.
    pub broadcast_depth: usize,
    /// Rounds spent sharing records inside necklaces (always n).
    pub share: usize,
    /// Rounds spent forming w-groups (always n + 1).
    pub group: usize,
    /// Total communication rounds.
    pub total: usize,
}

/// The outcome of one distributed FFC execution.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// The root processor R.
    pub root: usize,
    /// The fault-free cycle traced by the successor pointers, if the walk
    /// from the root closed properly (it always does when B* is strongly
    /// connected, in particular for f ≤ d − 2 faults).
    pub cycle: Option<Vec<usize>>,
    /// Round accounting.
    pub rounds: DistributedRounds,
    /// Message accounting from the fabric.
    pub network: NetworkStats,
    /// Per-round message accounting (probe rounds first, then broadcast,
    /// share and group rounds, in execution order).
    pub trace: Vec<RoundTrace>,
    /// How many nodes received their broadcast level at each round
    /// (index = level; `[0]` is the root). This is the protocol-side twin
    /// of the centralized maintainer's forward-level histogram, which the
    /// online harness asserts it against.
    pub broadcast_level_counts: Vec<usize>,
    /// Whether the run went through the chaos fabric
    /// ([`DistributedFfc::run_chaos`]). Under chaos the per-round message
    /// identities (and per-round conservation, because of delay) no longer
    /// hold, so the verification harness skips those checks and keeps the
    /// convergence ones.
    pub chaos: bool,
}

/// The distributed FFC protocol runner for a fixed B(d,n).
#[derive(Clone, Debug)]
pub struct DistributedFfc {
    graph: DeBruijn,
    /// Centralized embedder, used only for root selection and by callers
    /// that want to cross-check the distributed result.
    reference: Ffc,
}

impl DistributedFfc {
    /// Creates the runner for B(d,n).
    #[must_use]
    pub fn new(d: u64, n: u32) -> Self {
        DistributedFfc {
            graph: DeBruijn::new(d, n),
            reference: Ffc::new(d, n),
        }
    }

    /// The underlying de Bruijn graph.
    #[must_use]
    pub fn graph(&self) -> &DeBruijn {
        &self.graph
    }

    /// The centralized reference embedder (same parameters).
    #[must_use]
    pub fn reference(&self) -> &Ffc {
        &self.reference
    }

    /// Runs the protocol with the given faulty processors, rooted at the
    /// same processor the centralized algorithm would pick.
    #[must_use]
    pub fn run(&self, faulty_nodes: &[usize]) -> DistributedOutcome {
        let mask = self.reference.faulty_necklace_mask(faulty_nodes);
        let root = self
            .reference
            .pick_root(self.reference.default_root(), &mask);
        self.run_from(faulty_nodes, root)
    }

    /// Runs the protocol rooted at (the necklace representative of) `root`.
    #[must_use]
    pub fn run_from(&self, faulty_nodes: &[usize], root: usize) -> DistributedOutcome {
        let g = &self.graph;
        let space = g.space();
        let d = space.d();
        let n = space.n() as usize;
        let suffix_count = space.msd_place();
        let total = g.len();
        // All rotation-class lookups below reuse the centralized embedder's
        // precomputed partition tables (flat node → representative lookups)
        // instead of recomputing O(n) canonical rotations per query.
        let rep_of = |v: usize| self.reference.representative_of(v);
        let root = rep_of(root);

        let faults = FaultSet::from_nodes(faulty_nodes.iter().copied());
        let mut net = Network::new(g, &faults).with_trace();
        let mut states: Vec<NodeState> = (0..total).map(|_| NodeState::default()).collect();
        let mut rounds = DistributedRounds::default();

        // ------------------------------------------------------------------
        // Phase 1: necklace probe (n rounds).
        // ------------------------------------------------------------------
        let mut inboxes: Vec<Vec<Msg>> = vec![Vec::new(); total];
        for _ in 0..n {
            let mut outgoing = Vec::new();
            #[allow(clippy::needless_range_loop)] // node id v is the protagonist, not the inbox
            for v in 0..total {
                if !net.alive(v) {
                    continue;
                }
                let succ = space.rotate_left(v as u64) as usize;
                // Launch the probe in the first round.
                if net.stats().rounds == 0 {
                    outgoing.push((
                        v,
                        succ,
                        Msg::Probe {
                            origin: v,
                            members: vec![v],
                        },
                    ));
                }
                // Forward probes received last round (unless they are home).
                for msg in &inboxes[v] {
                    if let Msg::Probe { origin, members } = msg {
                        if *origin == v {
                            continue;
                        }
                        let mut members = members.clone();
                        members.push(v);
                        outgoing.push((
                            v,
                            succ,
                            Msg::Probe {
                                origin: *origin,
                                members,
                            },
                        ));
                    }
                }
            }
            // Record probes that have come home before the exchange wipes them.
            for (v, inbox) in inboxes.iter().enumerate() {
                for msg in inbox {
                    if let Msg::Probe { origin, members } = msg {
                        if *origin == v {
                            states[v].necklace_alive = true;
                            states[v].necklace = members.clone();
                        }
                    }
                }
            }
            inboxes = net.exchange(outgoing);
        }
        // Final sweep for probes that returned on the last round.
        for (v, inbox) in inboxes.iter().enumerate() {
            for msg in inbox {
                if let Msg::Probe { origin, members } = msg {
                    if *origin == v {
                        states[v].necklace_alive = true;
                        states[v].necklace = members.clone();
                    }
                }
            }
        }
        rounds.probe = n;

        // ------------------------------------------------------------------
        // Phase 2: broadcast from the root (K rounds + 1 quiescent round).
        // ------------------------------------------------------------------
        let mut broadcast_round = 0usize;
        if states[root].necklace_alive {
            states[root].level = Some(0);
            let mut frontier = vec![root];
            loop {
                broadcast_round += 1;
                let mut outgoing = Vec::new();
                for &v in &frontier {
                    g.visit_successors(v, |u| {
                        outgoing.push((v, u, Msg::Token { sender: v }));
                    });
                }
                if outgoing.is_empty() {
                    break;
                }
                let delivered = net.exchange(outgoing);
                let mut next = Vec::new();
                for (v, inbox) in delivered.iter().enumerate() {
                    if !states[v].necklace_alive || states[v].level.is_some() {
                        continue;
                    }
                    let mut best_sender: Option<usize> = None;
                    for msg in inbox {
                        if let Msg::Token { sender } = msg {
                            best_sender = Some(best_sender.map_or(*sender, |b| b.min(*sender)));
                        }
                    }
                    if let Some(parent) = best_sender {
                        states[v].level = Some(broadcast_round);
                        states[v].parent = Some(parent);
                        next.push(v);
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
        }
        rounds.broadcast = broadcast_round;
        rounds.broadcast_depth = states.iter().filter_map(|s| s.level).max().unwrap_or(0);

        // ------------------------------------------------------------------
        // Phase 3: necklace-level record sharing (n rounds).
        // ------------------------------------------------------------------
        for (v, state) in states.iter_mut().enumerate() {
            if state.necklace_alive {
                if let Some(level) = state.level {
                    state
                        .records
                        .insert(v, (level, state.parent.unwrap_or(usize::MAX)));
                }
            }
        }
        for _ in 0..n {
            let mut outgoing = Vec::new();
            for (v, state) in states.iter().enumerate() {
                if !net.alive(v) || !state.necklace_alive {
                    continue;
                }
                let succ = space.rotate_left(v as u64) as usize;
                let records: Vec<(usize, usize, usize)> = state
                    .records
                    .iter()
                    .map(|(&node, &(level, parent))| (node, level, parent))
                    .collect();
                outgoing.push((v, succ, Msg::Share { records }));
            }
            let delivered = net.exchange(outgoing);
            for (v, inbox) in delivered.iter().enumerate() {
                for msg in inbox {
                    if let Msg::Share { records } = msg {
                        for &(node, level, parent) in records {
                            states[v].records.insert(node, (level, parent));
                        }
                    }
                }
            }
        }
        rounds.share = n;

        // Local step 1.2: pick Y, the tree label w and the parent necklace.
        self.local_tree_labels(&mut states, root, d);

        // ------------------------------------------------------------------
        // Phase 4: w-group formation (1 announcement round + n circulation).
        // ------------------------------------------------------------------
        let mut outgoing = Vec::new();
        for (v, state) in states.iter().enumerate() {
            if !net.alive(v) || !state.necklace_alive {
                continue;
            }
            let (Some(label), Some(parent_rep)) = (state.tree_label, state.parent_rep) else {
                continue;
            };
            if v as u64 % suffix_count != label {
                continue; // only the node with suffix w announces
            }
            let member_rep = rep_of(v);
            g.visit_successors(v, |u| {
                outgoing.push((
                    v,
                    u,
                    Msg::Announce {
                        label,
                        member_rep,
                        parent_rep,
                    },
                ));
            });
        }
        let delivered = net.exchange(outgoing);
        // Absorb announcements relevant to the receiver's necklace.
        for (v, inbox) in delivered.iter().enumerate() {
            if !states[v].necklace_alive {
                continue;
            }
            let my_rep = rep_of(v);
            for msg in inbox {
                if let Msg::Announce {
                    label,
                    member_rep,
                    parent_rep,
                } = *msg
                {
                    let i_am_parent = my_rep == parent_rep;
                    let i_am_sibling = states[v].tree_label == Some(label)
                        && states[v].parent_rep == Some(parent_rep);
                    if i_am_parent || i_am_sibling {
                        let entry = states[v].groups.entry(label).or_default();
                        entry.insert(member_rep);
                        entry.insert(parent_rep);
                        entry.insert(my_rep);
                    }
                }
            }
        }
        // Circulate group knowledge around each necklace.
        for _ in 0..n {
            let mut outgoing = Vec::new();
            for (v, state) in states.iter().enumerate() {
                if !net.alive(v) || !state.necklace_alive {
                    continue;
                }
                let succ = space.rotate_left(v as u64) as usize;
                let items: Vec<(u64, usize, usize)> = state
                    .groups
                    .iter()
                    .flat_map(|(&label, reps)| reps.iter().map(move |&r| (label, r, r)))
                    .collect();
                outgoing.push((v, succ, Msg::Circulate { items }));
            }
            let delivered = net.exchange(outgoing);
            for (v, inbox) in delivered.iter().enumerate() {
                for msg in inbox {
                    if let Msg::Circulate { items } = msg {
                        for &(label, rep, _) in items {
                            states[v].groups.entry(label).or_default().insert(rep);
                        }
                    }
                }
            }
        }
        rounds.group = n + 1;

        // ------------------------------------------------------------------
        // Phase 5: local successor computation (no communication).
        // ------------------------------------------------------------------
        self.local_successors(&mut states);

        rounds.total = rounds.probe + rounds.broadcast + rounds.share + rounds.group;

        // Per-level receiver counts of the broadcast phase (the protocol
        // twin of the centralized forward-level histogram).
        let broadcast_level_counts = level_histogram(&states);

        // Trace the cycle from the root.
        let cycle = trace_cycle(&states, root, total);

        DistributedOutcome {
            root,
            cycle,
            rounds,
            network: net.stats(),
            trace: net.trace().to_vec(),
            broadcast_level_counts,
            chaos: false,
        }
    }

    /// Runs the protocol through the chaos fabric ([`ChaosConfig`]:
    /// message drop, duplication, bounded delay), rooted at the same
    /// processor the centralized algorithm would pick.
    ///
    /// The chaos variant hardens each phase by **retry with timeout and
    /// round resynchronization**: every node keeps re-sending its current
    /// knowledge each round (probes and their relay caches, its broadcast
    /// level, its record set, its group facts), receivers fold messages
    /// with idempotent min-/union-updates, and a phase ends only after the
    /// global state has been quiescent for `max_delay + 12` consecutive
    /// rounds (so a lost message is re-offered next round and a delayed
    /// one cannot slip in after the phase closes). Broadcast tokens carry
    /// their sender's level explicitly ([`Msg::TokenL`]) because receipt
    /// rounds no longer encode BFS distance under delay.
    ///
    /// The fixpoint of each phase equals the perfect-fabric phase result,
    /// so the outcome's root, cycle and level histogram are bit-identical
    /// to [`DistributedFfc::run`] — which
    /// [`crate::online::verify_against_maintainer`] asserts — while round
    /// and message counts reflect the retries ([`DistributedOutcome::chaos`]
    /// tells the harness to skip the per-round identities).
    #[must_use]
    pub fn run_chaos(&self, faulty_nodes: &[usize], cfg: ChaosConfig) -> DistributedOutcome {
        let mask = self.reference.faulty_necklace_mask(faulty_nodes);
        let root = self
            .reference
            .pick_root(self.reference.default_root(), &mask);
        self.run_chaos_from(faulty_nodes, root, cfg)
    }

    /// [`DistributedFfc::run_chaos`] rooted at (the necklace
    /// representative of) `root`.
    #[must_use]
    pub fn run_chaos_from(
        &self,
        faulty_nodes: &[usize],
        root: usize,
        cfg: ChaosConfig,
    ) -> DistributedOutcome {
        let g = &self.graph;
        let space = g.space();
        let d = space.d();
        let n = space.n() as usize;
        let suffix_count = space.msd_place();
        let total = g.len();
        let rep_of = |v: usize| self.reference.representative_of(v);
        let root = rep_of(root);

        let faults = FaultSet::from_nodes(faulty_nodes.iter().copied());
        let mut net = Network::new(g, &faults).with_trace().with_chaos(cfg);
        let mut states: Vec<NodeState> = (0..total).map(|_| NodeState::default()).collect();
        let mut rounds = DistributedRounds::default();
        let mut pending: Vec<(usize, usize, Msg)> = Vec::new();
        // A phase ends after this many rounds without any state change:
        // long enough that every delayed copy has matured and a dropped
        // message has been re-offered many times (false-stall probability
        // is at most drop^patience per needed edge).
        let patience = cfg.max_delay + 12;
        // Backstop against a pathological chaos stream; generous next to
        // the perfect protocol's K + 3n + 1 rounds.
        let cap = 60 * (n + 1) + 240;

        // Closes a phase: expire whatever the fabric still holds so the
        // global conservation law is restored at every phase boundary.
        fn close_phase<T: Topology>(
            net: &mut Network<'_, T>,
            pending: &mut Vec<(usize, usize, Msg)>,
        ) {
            net.note_expired(pending.len() as u64);
            pending.clear();
        }

        // ------------------------------------------------------------------
        // Phase 1: necklace probe, continuously re-launched and relayed.
        // ------------------------------------------------------------------
        // relay caches: origin -> members accumulated up to this node.
        let mut probe_relay: Vec<BTreeMap<usize, Vec<usize>>> =
            (0..total).map(|_| BTreeMap::new()).collect();
        let mut quiet = 0usize;
        let mut used = 0usize;
        while quiet < patience && used < cap {
            let mut outgoing = Vec::new();
            for v in 0..total {
                if !net.alive(v) {
                    continue;
                }
                let succ = space.rotate_left(v as u64) as usize;
                if !states[v].necklace_alive {
                    outgoing.push((
                        v,
                        succ,
                        Msg::Probe {
                            origin: v,
                            members: vec![v],
                        },
                    ));
                }
                for (&origin, members) in &probe_relay[v] {
                    outgoing.push((
                        v,
                        succ,
                        Msg::Probe {
                            origin,
                            members: members.clone(),
                        },
                    ));
                }
            }
            let delivered = net.exchange_chaos(outgoing, &mut pending);
            used += 1;
            let mut changed = false;
            for (v, inbox) in delivered.iter().enumerate() {
                for msg in inbox {
                    if let Msg::Probe { origin, members } = msg {
                        if *origin == v {
                            if !states[v].necklace_alive {
                                states[v].necklace_alive = true;
                                states[v].necklace = members.clone();
                                changed = true;
                            }
                        } else if !probe_relay[v].contains_key(origin) {
                            let mut members = members.clone();
                            members.push(v);
                            probe_relay[v].insert(*origin, members);
                            changed = true;
                        }
                    }
                }
            }
            quiet = if changed { 0 } else { quiet + 1 };
        }
        close_phase(&mut net, &mut pending);
        rounds.probe = used;

        // ------------------------------------------------------------------
        // Phase 2: broadcast with explicit levels, re-sent every round.
        // ------------------------------------------------------------------
        if states[root].necklace_alive {
            states[root].level = Some(0);
        }
        let mut quiet = 0usize;
        let mut used = 0usize;
        while quiet < patience && used < cap {
            let mut outgoing = Vec::new();
            for (v, state) in states.iter().enumerate() {
                if !net.alive(v) || !state.necklace_alive {
                    continue;
                }
                if let Some(level) = state.level {
                    g.visit_successors(v, |u| {
                        outgoing.push((v, u, Msg::TokenL { sender: v, level }));
                    });
                }
            }
            if outgoing.is_empty() && pending.is_empty() {
                break; // dead root: nothing will ever flow
            }
            let delivered = net.exchange_chaos(outgoing, &mut pending);
            used += 1;
            let mut changed = false;
            for (v, inbox) in delivered.iter().enumerate() {
                if !states[v].necklace_alive || v == root {
                    continue;
                }
                for msg in inbox {
                    if let Msg::TokenL { sender, level } = *msg {
                        let cand = level + 1;
                        match states[v].level {
                            Some(cur) if cur < cand => {}
                            Some(cur) if cur == cand => {
                                // Same level: the parent is the minimal
                                // in-neighbour one level up, min-folded.
                                if states[v].parent.is_none_or(|p| sender < p) {
                                    states[v].parent = Some(sender);
                                    changed = true;
                                }
                            }
                            _ => {
                                states[v].level = Some(cand);
                                states[v].parent = Some(sender);
                                changed = true;
                            }
                        }
                    }
                }
            }
            quiet = if changed { 0 } else { quiet + 1 };
        }
        close_phase(&mut net, &mut pending);
        rounds.broadcast = used;
        rounds.broadcast_depth = states.iter().filter_map(|s| s.level).max().unwrap_or(0);

        // ------------------------------------------------------------------
        // Phase 3: necklace-level record sharing as a grow-only set union.
        // ------------------------------------------------------------------
        for (v, state) in states.iter_mut().enumerate() {
            if state.necklace_alive {
                if let Some(level) = state.level {
                    state
                        .records
                        .insert(v, (level, state.parent.unwrap_or(usize::MAX)));
                }
            }
        }
        let mut quiet = 0usize;
        let mut used = 0usize;
        while quiet < patience && used < cap {
            let mut outgoing = Vec::new();
            for (v, state) in states.iter().enumerate() {
                if !net.alive(v) || !state.necklace_alive {
                    continue;
                }
                let succ = space.rotate_left(v as u64) as usize;
                let records: Vec<(usize, usize, usize)> = state
                    .records
                    .iter()
                    .map(|(&node, &(level, parent))| (node, level, parent))
                    .collect();
                outgoing.push((v, succ, Msg::Share { records }));
            }
            let delivered = net.exchange_chaos(outgoing, &mut pending);
            used += 1;
            let mut changed = false;
            for (v, inbox) in delivered.iter().enumerate() {
                for msg in inbox {
                    if let Msg::Share { records } = msg {
                        for &(node, level, parent) in records {
                            if states[v].records.insert(node, (level, parent)).is_none() {
                                changed = true;
                            }
                        }
                    }
                }
            }
            quiet = if changed { 0 } else { quiet + 1 };
        }
        close_phase(&mut net, &mut pending);
        rounds.share = used;

        // Local step 1.2, unchanged: the shared records have converged to
        // the perfect-fabric fixpoint.
        self.local_tree_labels(&mut states, root, d);

        // ------------------------------------------------------------------
        // Phase 4: w-group formation — announcements and circulation are
        // both re-sent every round and folded as set unions.
        // ------------------------------------------------------------------
        let mut quiet = 0usize;
        let mut used = 0usize;
        while quiet < patience && used < cap {
            let mut outgoing = Vec::new();
            for (v, state) in states.iter().enumerate() {
                if !net.alive(v) || !state.necklace_alive {
                    continue;
                }
                if let (Some(label), Some(parent_rep)) = (state.tree_label, state.parent_rep) {
                    if v as u64 % suffix_count == label {
                        let member_rep = rep_of(v);
                        g.visit_successors(v, |u| {
                            outgoing.push((
                                v,
                                u,
                                Msg::Announce {
                                    label,
                                    member_rep,
                                    parent_rep,
                                },
                            ));
                        });
                    }
                }
                let items: Vec<(u64, usize, usize)> = state
                    .groups
                    .iter()
                    .flat_map(|(&label, reps)| reps.iter().map(move |&r| (label, r, r)))
                    .collect();
                if !items.is_empty() {
                    let succ = space.rotate_left(v as u64) as usize;
                    outgoing.push((v, succ, Msg::Circulate { items }));
                }
            }
            if outgoing.is_empty() && pending.is_empty() {
                break; // no tree edges at all (e.g. root-only component)
            }
            let delivered = net.exchange_chaos(outgoing, &mut pending);
            used += 1;
            let mut changed = false;
            for (v, inbox) in delivered.iter().enumerate() {
                if !states[v].necklace_alive {
                    continue;
                }
                let my_rep = rep_of(v);
                for msg in inbox {
                    match msg {
                        Msg::Announce {
                            label,
                            member_rep,
                            parent_rep,
                        } => {
                            let i_am_parent = my_rep == *parent_rep;
                            let i_am_sibling = states[v].tree_label == Some(*label)
                                && states[v].parent_rep == Some(*parent_rep);
                            if i_am_parent || i_am_sibling {
                                let entry = states[v].groups.entry(*label).or_default();
                                changed |= entry.insert(*member_rep);
                                changed |= entry.insert(*parent_rep);
                                changed |= entry.insert(my_rep);
                            }
                        }
                        Msg::Circulate { items } => {
                            for &(label, rep, _) in items {
                                changed |= states[v].groups.entry(label).or_default().insert(rep);
                            }
                        }
                        _ => {}
                    }
                }
            }
            quiet = if changed { 0 } else { quiet + 1 };
        }
        close_phase(&mut net, &mut pending);
        rounds.group = used;

        // Phase 5: local successor computation (no communication).
        self.local_successors(&mut states);

        rounds.total = rounds.probe + rounds.broadcast + rounds.share + rounds.group;
        let broadcast_level_counts = level_histogram(&states);
        let cycle = trace_cycle(&states, root, total);

        DistributedOutcome {
            root,
            cycle,
            rounds,
            network: net.stats(),
            trace: net.trace().to_vec(),
            broadcast_level_counts,
            chaos: true,
        }
    }

    /// Local step 1.2, shared by the perfect and chaos runners: from the
    /// shared necklace records, each node of a non-root live necklace
    /// derives the earliest-reached node Y, the tree label w = Y div d and
    /// the representative of the parent necklace.
    fn local_tree_labels(&self, states: &mut [NodeState], root: usize, d: u64) {
        let rep_of = |v: usize| self.reference.representative_of(v);
        let root_rep = rep_of(root);
        #[allow(clippy::needless_range_loop)] // reads and writes disjoint fields of states[v]
        for v in 0..states.len() {
            if !states[v].necklace_alive || states[v].level.is_none() {
                continue;
            }
            let my_rep = rep_of(v);
            if my_rep == root_rep {
                continue; // the root necklace has no tree edge
            }
            let chosen = states[v]
                .records
                .iter()
                .min_by_key(|(&node, &(level, _))| (level, node))
                .map(|(&node, &(_, parent))| (node, parent));
            if let Some((y, parent)) = chosen {
                states[v].tree_label = Some(y as u64 / d);
                states[v].parent_rep = Some(rep_of(parent));
            }
        }
    }

    /// Phase 5, shared by the perfect and chaos runners: each node decides
    /// locally whether to leave its necklace through the w-edge of D or to
    /// follow its necklace successor (Step 3).
    fn local_successors(&self, states: &mut [NodeState]) {
        let space = self.graph.space();
        let d = space.d();
        let suffix_count = space.msd_place();
        let rep_of = |v: usize| self.reference.representative_of(v);
        #[allow(clippy::needless_range_loop)] // reads and writes disjoint fields of states[v]
        for v in 0..states.len() {
            if !states[v].necklace_alive || states[v].level.is_none() {
                continue;
            }
            let w = v as u64 % suffix_count;
            let my_rep = rep_of(v);
            let successor = match states[v].groups.get(&w) {
                Some(members) if members.contains(&my_rep) => {
                    // Leave through the w-edge of D: next member in
                    // representative order, wrapping around.
                    let ordered: Vec<usize> = members.iter().copied().collect();
                    let idx = ordered
                        .iter()
                        .position(|&r| r == my_rep)
                        .expect("member set contains self");
                    let target = ordered[(idx + 1) % ordered.len()];
                    (0..d)
                        .map(|beta| (beta, beta * suffix_count + w))
                        .find(|&(_, beta_w)| rep_of(beta_w as usize) == target)
                        .map(|(beta, _)| (w * d + beta) as usize)
                        .expect("the target necklace contains a node of the form βw")
                }
                _ => space.rotate_left(v as u64) as usize,
            };
            states[v].successor = Some(successor);
        }
    }
}

/// Per-level receiver counts of the broadcast phase (the protocol twin of
/// the centralized forward-level histogram).
fn level_histogram(states: &[NodeState]) -> Vec<usize> {
    let mut counts = Vec::new();
    for state in states {
        if let Some(level) = state.level {
            if counts.len() <= level {
                counts.resize(level + 1, 0usize);
            }
            counts[level] += 1;
        }
    }
    counts
}

/// Follows successor pointers from the root; returns the cycle if the walk
/// closes back at the root without repeating any node.
fn trace_cycle(states: &[NodeState], root: usize, total: usize) -> Option<Vec<usize>> {
    let mut cycle = Vec::new();
    let mut seen = vec![false; total];
    let mut v = root;
    loop {
        if seen[v] {
            return None;
        }
        seen[v] = true;
        cycle.push(v);
        v = states[v].successor?;
        if v == root {
            return Some(cycle);
        }
        if cycle.len() > total {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbg_graph::algo::cycles::is_cycle;

    fn compare_with_centralized(d: u64, n: u32, faults: &[usize]) -> DistributedOutcome {
        let runner = DistributedFfc::new(d, n);
        let outcome = runner.run(faults);
        let reference = runner.reference().embed(faults);
        let cycle = outcome
            .cycle
            .clone()
            .expect("distributed protocol must close the cycle");
        assert_eq!(
            cycle.len(),
            reference.cycle.len(),
            "distributed and centralized cycle lengths differ (d={d}, n={n})"
        );
        assert_eq!(
            cycle, reference.cycle,
            "distributed cycle deviates from centralized (d={d}, n={n})"
        );
        assert_eq!(outcome.rounds.broadcast_depth, reference.eccentricity);
        outcome
    }

    #[test]
    fn matches_centralized_without_faults() {
        for (d, n) in [(2u64, 4u32), (3, 3), (4, 2)] {
            let out = compare_with_centralized(d, n, &[]);
            assert_eq!(out.rounds.probe, n as usize);
        }
    }

    #[test]
    fn matches_centralized_with_example_2_1_faults() {
        let g = DeBruijn::new(3, 3);
        let faults = vec![g.node("020").unwrap(), g.node("112").unwrap()];
        let out = compare_with_centralized(3, 3, &faults);
        assert_eq!(out.cycle.unwrap().len(), 21);
    }

    #[test]
    fn matches_centralized_under_guaranteed_fault_loads() {
        for (d, n) in [(4u64, 3u32), (5, 2), (4, 2)] {
            let space = dbg_algebra::words::WordSpace::new(d, n);
            for f in 1..=(d - 2) as usize {
                let faults: Vec<usize> = (0..f as u64)
                    .map(|a| {
                        let mut digits = vec![a; n as usize];
                        digits[n as usize - 1] = d - 1;
                        space.from_digits(&digits) as usize
                    })
                    .collect();
                let out = compare_with_centralized(d, n, &faults);
                // O(K + n) round bound: K ≤ 2n for f ≤ d − 2.
                assert!(out.rounds.total <= 2 * n as usize + 3 * n as usize + 2);
            }
        }
    }

    #[test]
    fn round_budget_is_k_plus_3n_plus_1() {
        let out = compare_with_centralized(2, 6, &[]);
        let n = 6usize;
        // broadcast uses depth+1 rounds (the last one detects quiescence).
        assert!(out.rounds.broadcast <= out.rounds.broadcast_depth + 1);
        assert_eq!(
            out.rounds.total,
            out.rounds.probe + out.rounds.broadcast + out.rounds.share + out.rounds.group
        );
        assert_eq!(
            out.rounds.probe + out.rounds.share + out.rounds.group,
            3 * n + 1
        );
    }

    #[test]
    fn cycle_is_fault_free_and_valid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let runner = DistributedFfc::new(2, 7);
        let g = runner.graph();
        for _ in 0..5 {
            let fault = rng.gen_range(0..g.len());
            let out = runner.run(&[fault]);
            let cycle = out.cycle.expect("single fault keeps B* strongly connected");
            assert!(is_cycle(g, &cycle));
            // No node of the faulty necklace appears.
            let space = g.space();
            let rep = space.canonical_rotation(fault as u64);
            assert!(cycle
                .iter()
                .all(|&v| space.canonical_rotation(v as u64) != rep));
        }
    }

    #[test]
    fn dead_root_component_reports_no_cycle_gracefully() {
        // Fail every necklace except the root's own: the cycle degenerates
        // to the root necklace itself.
        let runner = DistributedFfc::new(2, 3);
        let g = runner.graph();
        let faults = vec![
            g.node("011").unwrap(),
            g.node("111").unwrap(),
            g.node("000").unwrap(),
        ];
        let out = runner.run(&faults);
        let cycle = out.cycle.expect("the root necklace survives");
        assert_eq!(cycle.len(), 3); // the necklace of 001
    }

    /// Exhaustive cross-implementation check: on every fault set of size
    /// ≤ 2, the distributed protocol, the centralized incremental engine
    /// (`RingMaintainer`, via the shared online harness — which also
    /// pins the protocol's per-round message counts against the
    /// maintainer's phase work) and the centralized from-scratch engine
    /// must all trace the identical cycle (same nodes, same order). Both
    /// B(2,5) and B(3,3) push past the f ≤ d−2 guarantee, so this also
    /// covers fault loads where B* needs a genuine component search.
    #[test]
    fn exhaustively_matches_centralized_on_small_fault_sets() {
        for (d, n) in [(2u64, 5u32), (3, 3)] {
            let runner = DistributedFfc::new(d, n);
            let total = runner.graph().len();
            let mut maint = debruijn_core::RingMaintainer::new();
            let mut ring = Vec::new();
            let mut fault_sets: Vec<Vec<usize>> = vec![Vec::new()];
            fault_sets.extend((0..total).map(|a| vec![a]));
            for a in 0..total {
                for b in (a + 1)..total {
                    fault_sets.push(vec![a, b]);
                }
            }
            for faults in &fault_sets {
                let distributed = runner.run(faults);
                // The shared harness covers root, ring bytes, broadcast
                // levels and per-round message counts against the
                // centralized maintainer…
                maint.reset(runner.reference(), faults).expect("in-range");
                crate::online::verify_against_maintainer(
                    &distributed,
                    runner.reference(),
                    &maint,
                    &mut ring,
                )
                .unwrap_or_else(|e| panic!("{faults:?} in B({d},{n}): {e}"));
                // …and the from-scratch engine closes the loop.
                let reference = runner.reference().embed(faults);
                assert_eq!(
                    reference.cycle, ring,
                    "serial engine differs for {faults:?} in B({d},{n})"
                );
            }
        }
    }

    /// The chaos-hardened protocol must converge bit-identically to the
    /// perfect-fabric run — same root, same cycle, same level histogram —
    /// under ≥10% message drop combined with duplication and delay, on
    /// fault loads both inside and past the d − 2 guarantee.
    #[test]
    fn chaos_run_converges_to_the_perfect_fabric_result() {
        let cfgs = [
            ChaosConfig::drop_only(0.10, 0xA11CE),
            ChaosConfig {
                drop: 0.15,
                duplicate: 0.10,
                max_delay: 2,
                seed: 0xB0B,
            },
            ChaosConfig {
                drop: 0.25,
                duplicate: 0.05,
                max_delay: 3,
                seed: 7,
            },
        ];
        for (d, n) in [(2u64, 5u32), (3, 3)] {
            let runner = DistributedFfc::new(d, n);
            let total = runner.graph().len();
            let fault_sets: Vec<Vec<usize>> = vec![
                vec![],
                vec![1],
                vec![total / 2],
                vec![1, total / 2],
                vec![0, 1, 2],
            ];
            for faults in &fault_sets {
                let perfect = runner.run(faults);
                for cfg in cfgs {
                    let chaotic = runner.run_chaos(faults, cfg);
                    assert!(chaotic.chaos);
                    assert_eq!(
                        chaotic.root, perfect.root,
                        "{faults:?} in B({d},{n}) under {cfg:?}"
                    );
                    assert_eq!(
                        chaotic.cycle, perfect.cycle,
                        "{faults:?} in B({d},{n}) under {cfg:?}"
                    );
                    assert_eq!(
                        chaotic.broadcast_level_counts, perfect.broadcast_level_counts,
                        "{faults:?} in B({d},{n}) under {cfg:?}"
                    );
                    let s = chaotic.network;
                    assert_eq!(s.messages_sent, s.messages_delivered + s.messages_dropped);
                    assert!(s.messages_dropped > 0, "the adversary did nothing");
                }
            }
        }
    }

    /// Chaos runs are a pure function of the seed: replaying the same
    /// configuration reproduces the message accounting bit for bit.
    #[test]
    fn chaos_runs_are_deterministic() {
        let runner = DistributedFfc::new(3, 3);
        let cfg = ChaosConfig::default();
        let a = runner.run_chaos(&[5, 11], cfg);
        let b = runner.run_chaos(&[5, 11], cfg);
        assert_eq!(a.network, b.network);
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.rounds.total, b.rounds.total);
    }

    #[test]
    fn message_accounting_is_consistent() {
        let runner = DistributedFfc::new(3, 3);
        let out = runner.run(&[]);
        let s = out.network;
        assert_eq!(s.messages_sent, s.messages_delivered + s.messages_dropped);
        assert_eq!(s.messages_dropped, 0, "no faults, nothing to drop");
        assert!(s.rounds >= out.rounds.total);
    }
}
