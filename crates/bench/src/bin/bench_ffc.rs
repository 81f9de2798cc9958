//! Machine-readable FFC engine benchmark: writes `BENCH_ffc.json` at the
//! repository root so successive PRs can track the perf trajectory.
//!
//! Two kinds of configuration are measured:
//!
//! * **Full tiers** — B(2,10), B(2,14), B(4,5) and B(4,7):
//!   - `setup_ns` — one `Ffc::new` (FKM partition build + engine tables);
//!   - `embed_ns` / `embeds_per_sec` — the full `embed_into` pipeline on a
//!     reused scratch over a Table 2.1-style trial schedule (f cycles
//!     0..=8);
//!   - `reference_embed_ns` / `speedup` — the textbook implementation
//!     (`oracle::embed_reference`) on the same fault sets (fewer trials);
//!   - `stats_only` — the stats-only paths head to head: the PR 2
//!     u8-stamp engine (`oracle::embed_stats_into_u8`, on its own
//!     scratch) vs the bit-parallel engine (`embed_stats_into`), with
//!     `speedup` = u8 / bit;
//!   - `batch` — the batch sweep engine (`Ffc::embed_batch`, stats-only
//!     plan: delta trials over the fault-free levels, with the
//!     bit-parallel pass as their fallback) at 1 and 2 shards, and at 4
//!     and 8 on hosts with more than two CPUs; `speedup` is vs the serial
//!     `embed_into` loop above. Each rep repeats the plan for at least
//!     [`MIN_BATCH_REP`], and each round of reps runs every shard count
//!     once, starting from a different one each round. Each row also
//!     records the engine's `allocated_bytes` and, as `paths`, how one run
//!     of the plan answered its trials (`BatchEmbedder::paths`).
//! * **Stats-only tiers** (`"mode": "stats_only"`) — B(2,18), B(2,20),
//!   B(2,22) and B(2,24), the million-node scale the bit-parallel engine
//!   exists for (the top two tiers are what the PR 10 compact-level +
//!   summary engine buys back in footprint). The full pipeline and the
//!   textbook reference are far too slow to sweep here, so the row
//!   records `setup_ns`, the `stats_only` comparison, and `batch` rows
//!   whose `speedup` is vs the serial **u8-stamp** loop (the PR 2 engine
//!   this PR replaces).
//! * **Full-ring tiers** (`"mode": "full"`) — B(2,16), B(2,18), B(2,20)
//!   and B(2,22): `embed_ns` / `embeds_per_sec` of the full `embed_into`
//!   pipeline over the trial schedule, with the first trial's cycle
//!   verified as a de Bruijn ring that avoids its faults.
//! * **Incremental tiers** (`"mode": "incremental"`) — B(2,16), B(2,18),
//!   B(2,20) and B(2,22): single-fault repair on the `RingMaintainer`
//!   (`add_fault` + `clear_fault` events over random single faults)
//!   against the from-scratch `embed_into` loop on the same fault
//!   schedule (`speedup`, the CI gate). The per-event stats are
//!   checksummed and asserted identical to the from-scratch loop's, and
//!   the row records how many events repaired incrementally vs rebuilt,
//!   the worst single event of one more rep, kept out of the best-of
//!   timing (`repair_max_ns`), and the median warm `reset` to that
//!   event's fault (`rebuild_ns`), the rebuild that worst repair is read
//!   against.
//! * **Serve tiers** (`"mode": "serve"`) — B(2,16), B(2,18), B(2,20) and
//!   B(2,22): the ring-as-a-service read path. A `RingService` writer thread drains
//!   a PR 6 `ChurnPlan` trace (paced over the measurement window, at least
//!   [`SERVE_STEP_PACE`] per step; the B(2,20) and B(2,22) traces are long
//!   enough for more than 1,000 batches, so their p99s are not single
//!   maxima) while
//!   1, 2 and 4 reader threads walk the ring in `ring_segment` strides of
//!   256 through epoch-refreshing `ReaderHandle`s. Each configuration is
//!   measured twice with identical writer-side work: **live** readers
//!   refresh to every published snapshot, **frozen** readers stay pinned
//!   to the initial snapshot (the no-publication baseline). The row
//!   records `lookups_per_sec` / `frozen_lookups_per_sec` / `vs_frozen`
//!   per reader count, the snapshot-publication latency
//!   `publish_p50_ns` / `publish_p99_ns` next to the writer's
//!   `repair_p50_ns` / `repair_p99_ns` / `repair_max_ns` (the worst
//!   batch) with `rebuild_ns` (the median warm `reset` of the trace's
//!   final fault set), `copied_chunks_per_publication`
//!   (dirty snapshot chunks a batch's publication copied — the O(cone)
//!   witness) with `forwarded_chunks_per_publication` (clean chunks it
//!   re-copied only to retire a sparse segment), and the gated `best_vs_frozen`
//!   = best `vs_frozen` across reader counts — the CI floor that keeps
//!   epoch publication free for readers (PR 10 unified the field name:
//!   serve tiers used to overload `speedup`, which named a different
//!   baseline on every other mode). Every run's final published snapshot
//!   is asserted bit-identical (stats + ring bytes) to a from-scratch
//!   `embed_into` of the trace's cumulative fault set. A serve row's
//!   `allocated_bytes` is the service's footprint: the writer's maintainer
//!   session plus every segment the final snapshot references.
//! * **Churn tiers** (`"mode": "churn"`) — B(2,16), B(2,18) and B(2,20):
//!   a deterministic churn trace (Poisson arrivals, correlated 4-bursts,
//!   20% link faults, bounded repair times) replayed through the
//!   `RingMaintainer` via `replay_churn`. The row records
//!   `p50_repair_ns` / `p99_repair_ns` (per-batch repair latency),
//!   `degraded_fraction` (share of trace time spent past tolerance) and
//!   `worst_excluded`, plus the batched-vs-sequential gate: one
//!   `apply_batch` of k = 8 simultaneous faults timed against k
//!   sequential `add_fault` calls on the same nodes (`speedup` =
//!   sequential / batched, best of interleaved reps, component-size
//!   checksums asserted identical — a CI-gated floor of 1.0 like every
//!   other `speedup`).
//!
//! A `--kernels` micro-tier additionally races the two dense sweep
//! kernels word for word — the two-phase scalar reference
//! (`oracle::kernel_step_scalar`: fold pass, then expand pass) against
//! the block kernel the engine runs, here without summaries so that no
//! block is skipped (`BitReach::kernel_step_fused`) — over warm bitmaps
//! at B(2,16), B(2,18) and B(2,20) shapes, one row per shape. Rows
//! report words/sec per kernel and `speedup` = scalar / fused, gated at
//! ≥ 1.0 by `--check` like every other speedup: the block kernel must
//! never lose on the engine's hot shapes, even with nothing to skip. The
//! same flag emits `"kind": "skip_scan"` rows racing the full-bitmap
//! extraction (`extract_bits`) against the two-level summary skip-scan
//! (`extract_bits_skip`) over sparse frontiers at the same shapes —
//! outputs asserted identical, `speedup` = full / skip, gated ≥ 1.0.
//!
//! Every tier also reports `allocated_bytes` — the warm steady-state
//! footprint of the structure the tier exercises (the embed scratch, the
//! maintainer session on incremental/churn tiers, session plus snapshot
//! chunks on serve tiers); incremental tiers
//! additionally break out the compact level array (`level_bytes`)
//! against the u32 storage it replaced (`level_bytes_u32`), with the
//! gated ratio `level_compaction` ≥ 3.0.
//!
//! Usage: `cargo run --release -p dbg-bench --bin bench_ffc [out.json]
//! [--smoke] [--check] [--trials N] [--filter GRAPH] [--kernels]`
//!
//! * default output: `<repo root>/BENCH_ffc.json`;
//! * `--smoke`: CI-sized trial counts (20× fewer trials, minimum 60) and
//!   the B(2,20) tier skipped, so the job stays bounded;
//! * `--trials N`: hard cap on every configuration's trial count (applied
//!   after `--smoke` scaling) — the CI knob for bounding total job time;
//! * `--filter GRAPH`: run only the configurations whose label contains
//!   `GRAPH` (e.g. `--filter "B(2,20)"` or `--filter 2,2`) — a single
//!   tier without editing the config list. A filter matching nothing is
//!   an error;
//! * `--kernels`: also run the scalar-vs-fused kernel micro-tier and
//!   emit it as the top-level `"kernels"` array;
//! * `--check`: after writing, re-read and validate the file — exits
//!   non-zero if the JSON is malformed, any `speedup` / `best_vs_frozen`
//!   is below 1.0, any incremental `level_compaction` is below 3.0 (the
//!   compact-level footprint gate), or a serve row with at least 2^20
//!   nodes has `publish_p99_ns` above `repair_p99_ns` (publication must
//!   not cost more than repair).
//!
//! ATOMICS: the serve tier's `go`/`stop` flags are single-writer
//! booleans — the driver thread alone stores them. `go` is
//! store-Release / spin-load-Acquire so a reader's first lookup is
//! ordered after the driver's setup; `stop` is polled with Relaxed
//! (and stored Release) because readers only use it to exit their loop,
//! never to receive data.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use debruijn_core::bitreach::{extract_bits, extract_bits_skip, sum_words, summarize_bits};
use debruijn_core::oracle::{self, U8StatsScratch};
use debruijn_core::verify::{is_debruijn_ring, ring_avoids_nodes};
use debruijn_core::{
    replay_churn, BatchEmbedder, BitReach, ChurnPlan, ChurnReport, ChurnStep, EmbedScratch,
    FaultEvent, FaultSchedule, Ffc, RingMaintainer, RingService, RingSnapshot, ServeOptions,
    ServiceReport, SweepAccumulator, SweepPaths, SweepPlan,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// What a configuration measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Small tiers: full `embed_into` + textbook reference + stats-only
    /// engines + batch rows.
    Small,
    /// Large tiers, stats-only engines and batch rows (no cycles).
    StatsOnly,
    /// Large tiers, full-ring construction: the `embed_into` pipeline.
    FullRing,
    /// Large tiers, online repair: single-fault `RingMaintainer` events vs
    /// the from-scratch pipeline, stats checksums asserted identical.
    Incremental,
    /// Large tiers, fault churn: a timed arrival/departure trace replayed
    /// through the maintainer (p50/p99 time-to-repair, degraded-time
    /// fraction) plus the batched-vs-sequential k-fault repair gate.
    Churn,
    /// Large tiers, the serving read path: reader threads walking the ring
    /// through epoch-refreshing handles while a churn trace streams through
    /// the `RingService` writer, vs the same run with readers pinned to a
    /// frozen snapshot.
    Serve,
}

/// One benchmarked configuration.
struct Config {
    d: u64,
    n: u32,
    /// Engine trials (reference runs `trials / 20`, at least 20).
    trials: usize,
    /// What this tier measures.
    mode: Mode,
    /// Skipped under `--smoke` (the biggest tiers).
    skip_in_smoke: bool,
}

/// Shard counts the batch engine is measured at (4 and 8 only on hosts
/// with more than two CPUs, see [`batch_shard_counts`]).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Least wall time of one batch-tier rep: a rep repeats its plan until
/// it has run this long, so a smoke-sized plan (a few ms) is not timed
/// alone on a shared host.
const MIN_BATCH_REP: Duration = Duration::from_millis(100);

/// The batch tier's shard counts on a host with `host_cpus` CPUs. On two
/// or fewer, 4 and 8 shards only measure oversubscription, so they are
/// dropped.
fn batch_shard_counts(host_cpus: usize) -> Vec<usize> {
    SHARD_COUNTS
        .into_iter()
        .filter(|&s| s <= 2 || host_cpus > 2)
        .collect()
}

/// Timed repetitions per measurement; the fastest is reported.
const REPS: usize = 3;

/// A Table 2.1-style trial schedule: fault sets with f cycling 0..=8.
fn fault_sets(total: usize, trials: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (0..total).collect();
    (0..trials)
        .map(|t| {
            let f = t % 9;
            let (chosen, _) = nodes.partial_shuffle(&mut rng, f);
            chosen.to_vec()
        })
        .collect()
}

/// XOR-checksum accumulator: keeps the optimiser honest and is
/// merge-order-independent.
#[derive(Clone, Copy, Debug, Default)]
struct Checksum(u64);

impl SweepAccumulator for Checksum {
    fn merge(&mut self, other: Self) {
        self.0 ^= other.0;
    }
}

/// The stats-only trials `after` counts beyond `before`, by path, as a
/// JSON object.
fn paths_json(after: &SweepPaths, before: &SweepPaths) -> String {
    format!(
        "{{ \"delta\": {}, \"fault_free\": {}, \"predicted_pass\": {}, \
         \"budget_fallback\": {}, \"moved_root\": {} }}",
        after.delta - before.delta,
        after.fault_free - before.fault_free,
        after.predicted_pass - before.predicted_pass,
        after.budget_fallback - before.budget_fallback,
        after.moved_root - before.moved_root,
    )
}

/// Times `body` over the trial schedule, best of [`REPS`], returning
/// (mean ns per trial, trials per second, checksum). The checksum is the
/// XOR over **one** repetition (every rep produces the same value, so it
/// is independent of `REPS`) — callers compare it across engines to keep
/// the optimiser honest and the paths provably in agreement.
fn time_loop<F: FnMut(&[usize]) -> usize>(sets: &[Vec<usize>], mut body: F) -> (f64, f64, usize) {
    let mut best = std::time::Duration::MAX;
    let mut checksum = 0usize;
    for _ in 0..REPS {
        let mut rep_checksum = 0usize;
        let start = Instant::now();
        for faults in sets {
            rep_checksum ^= body(faults);
        }
        best = best.min(start.elapsed());
        checksum = rep_checksum;
    }
    let ns = best.as_nanos() as f64 / sets.len() as f64;
    (ns, sets.len() as f64 / best.as_secs_f64(), checksum)
}

/// Nodes returned per `ring_segment` walk in the serve tier: one epoch
/// check amortised over this many lookups.
const SEGMENT: usize = 256;

/// Reader thread counts the serve tier is measured at.
const READER_COUNTS: [usize; 3] = [1, 2, 4];

/// Serve rows with at least this many nodes fail `--check` when
/// `publish_p99_ns > repair_p99_ns`. Smaller tiers stay ungated: at B(2,16)
/// the two sit level (see PERF.md's publication-cost crossover).
const PUBLISH_GATE_NODES: f64 = (1u64 << 20) as f64;

/// Timed repetitions per serve-tier configuration (frozen and live each):
/// the live-vs-frozen ratio is a wash by design, so it needs more samples
/// than the order-of-magnitude speedups elsewhere to beat scheduler noise.
const SERVE_REPS: usize = 5;

/// Least mean gap, per churn step, a serve run paces its trace at. The
/// million-node tiers stream 1,400 to 1,800 steps so their p99 latencies have
/// ten batches beyond them; at this pace the writer keeps up between its
/// heavy batches, so the steps stay separate batches rather than
/// coalescing.
const SERVE_STEP_PACE: Duration = Duration::from_millis(2);

/// Timed warm `reset`s behind a row's `rebuild_ns` (the median is kept).
const REBUILD_REPS: usize = 5;

/// The median wall time, in ns, of a warm `RingMaintainer::reset` of
/// `maint` to `faults` — one from-scratch rebuild, the yardstick a
/// row's worst repair (`repair_max_ns`) is read against. One untimed
/// reset warms the maintainer first.
fn warm_rebuild_ns(ffc: &Ffc, maint: &mut RingMaintainer, faults: &[usize]) -> u64 {
    maint.reset(ffc, faults).expect("in-range");
    let mut times: Vec<u64> = (0..REBUILD_REPS)
        .map(|_| {
            let start = Instant::now();
            maint.reset(ffc, faults).expect("in-range");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[REBUILD_REPS / 2]
}

/// The exclusion set a fault-event stream accumulates to: explicitly
/// faulty nodes plus the source endpoints of still-faulty links — the
/// model the session maintains (pinned by the PR 6 batch tests).
fn exclusion_of(events: &[FaultEvent]) -> Vec<usize> {
    let mut node_down: Vec<usize> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for &ev in events {
        match ev {
            FaultEvent::NodeDown(v) => {
                if !node_down.contains(&v) {
                    node_down.push(v);
                }
            }
            FaultEvent::NodeUp(v) => {
                if let Some(i) = node_down.iter().position(|&x| x == v) {
                    node_down.swap_remove(i);
                }
            }
            FaultEvent::EdgeDown(u, w) => {
                if !edges.contains(&(u, w)) {
                    edges.push((u, w));
                }
            }
            FaultEvent::EdgeUp(u, w) => {
                if let Some(i) = edges.iter().position(|&e| e == (u, w)) {
                    edges.swap_remove(i);
                }
            }
        }
    }
    let mut excl = node_down;
    excl.extend(edges.iter().map(|&(u, _)| u));
    excl.sort_unstable();
    excl.dedup();
    excl
}

/// FNV over ring bytes — order-sensitive, so two rings hash equal only
/// when they are byte-identical.
fn ring_hash(ring: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in ring {
        h = (h ^ v as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One serve-tier measurement run: starts a fault-free `RingService`,
/// spawns `readers` threads walking the ring in [`SEGMENT`] strides, and
/// streams the churn trace through the writer paced over `window`.
/// `frozen` pins every reader to the initial snapshot (the baseline);
/// otherwise readers refresh to each published generation. Writer-side
/// work is identical either way. Returns (lookups/sec summed across
/// readers, the writer's report, the final published snapshot).
fn serve_run(
    ffc: &Arc<Ffc>,
    steps: &[ChurnStep],
    readers: usize,
    frozen: bool,
    window: Duration,
) -> (f64, ServiceReport, Arc<RingSnapshot>) {
    let svc = RingService::start(Arc::clone(ffc), &[], ServeOptions::default())
        .expect("fault-free start is embeddable");
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::with_capacity(readers);
    for _ in 0..readers {
        let mut reader = svc.reader();
        let go = Arc::clone(&go);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut buf: Vec<usize> = Vec::with_capacity(SEGMENT);
            let pinned = frozen.then(|| Arc::clone(reader.pinned()));
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut count = 0u64;
            if let Some(snap) = pinned {
                let mut at = snap.root().expect("fault-free ring");
                while !stop.load(Ordering::Relaxed) {
                    let wrote = snap
                        .ring_segment(at, SEGMENT, &mut buf)
                        .expect("frozen walk stays on ring");
                    count += wrote as u64;
                    at = buf[wrote - 1];
                }
            } else {
                let mut at = reader.snapshot().root().expect("fault-free ring");
                while !stop.load(Ordering::Relaxed) {
                    match reader.ring_segment(at, SEGMENT, &mut buf) {
                        Ok(wrote) if wrote > 0 => {
                            count += wrote as u64;
                            at = buf[wrote - 1];
                        }
                        // The walk start fell off the ring when a repair
                        // was published: restart from the fresh root.
                        _ => at = reader.snapshot().root().expect("serving ring"),
                    }
                }
            }
            count
        }));
    }
    let pace = window.div_f64(steps.len().max(1) as f64);
    let start = Instant::now();
    go.store(true, Ordering::Release);
    for step in steps {
        for &ev in &step.batch {
            svc.submit(ev).expect("churn events are valid");
        }
        std::thread::sleep(pace);
    }
    let mut fin = svc.reader();
    let report = svc.shutdown();
    while start.elapsed() < window {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    let elapsed = start.elapsed();
    let total: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("reader panicked"))
        .sum();
    (total as f64 / elapsed.as_secs_f64(), report, fin.snapshot())
}

/// Dense-capable shapes the `--kernels` micro-tier measures: d = 2 at
/// B(2,16), B(2,18) and B(2,20) word counts — the engine's hot shapes and
/// the ones the full-ring gates sweep. The other d run the same block
/// kernel, instantiated per d, and are pinned by unit tests rather than
/// raced under a ≥ 1.0 gate.
const KERNEL_SHAPES: [(usize, usize); 3] = [(2, 1 << 16), (2, 1 << 18), (2, 1 << 20)];

/// Races the two dense kernels over warm bitmaps and returns one JSON
/// row per shape: words/sec for the retained two-phase scalar reference
/// and the block kernel without summaries, plus `speedup` = scalar ns /
/// fused ns. Both kernels start from identical bitmaps and their
/// newly-visited checksums are asserted equal, so the race also re-pins
/// bit-equality on every measured shape.
fn kernel_tier(smoke: bool) -> Vec<String> {
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x4EC7);
    for &(d, n_nodes) in &KERNEL_SHAPES {
        let reach = BitReach::new(d, n_nodes);
        assert!(reach.dense_capable(), "kernel tier shape must be dense");
        let words = n_nodes / 64;
        let sw = words / d;
        // ~4M word visits per repetition (÷8 under --smoke): large enough
        // to beat timer noise, small enough to keep CI bounded.
        let iters = ((1usize << 22) / words).max(16) / if smoke { 8 } else { 1 };
        let iters = iters.max(4);
        let cur: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
        // A half-warm visited set: the kernels' work is data-independent,
        // so saturation across iterations does not skew the comparison.
        let vis0: Vec<u64> = (0..words)
            .map(|_| rng.next_u64() & rng.next_u64())
            .collect();
        let mut nxt = vec![0u64; words];
        let mut fold = vec![0u64; sw];
        let mut time_kernel = |fused: bool| -> (f64, usize) {
            let mut best = Duration::MAX;
            let mut sink = 0usize;
            for _ in 0..REPS {
                let mut vis = vis0.clone();
                let mut rep_sink = 0usize;
                let start = Instant::now();
                for _ in 0..iters {
                    rep_sink ^= if fused {
                        reach.kernel_step_fused(&cur, &mut vis, &mut nxt)
                    } else {
                        oracle::kernel_step_scalar(&reach, &cur, &mut vis, &mut nxt, &mut fold)
                    };
                }
                best = best.min(start.elapsed());
                sink = rep_sink;
            }
            let wps = (words * iters) as f64 / best.as_secs_f64();
            (wps, sink)
        };
        let (scalar_wps, scalar_sum) = time_kernel(false);
        let (fused_wps, fused_sum) = time_kernel(true);
        assert_eq!(
            scalar_sum, fused_sum,
            "kernels diverge on d={d} words={words}"
        );
        let speedup = fused_wps / scalar_wps;
        eprintln!(
            "kernels d={d} words={words}: scalar {:.0} Mwords/s vs fused {:.0} \
             Mwords/s ({speedup:.2}x) [checksum {scalar_sum}]",
            scalar_wps / 1e6,
            fused_wps / 1e6,
        );
        rows.push(format!(
            "    {{ \"d\": {d}, \"nodes\": {n_nodes}, \"words\": {words}, \
             \"scalar_words_per_sec\": {scalar_wps:.0}, \
             \"fused_words_per_sec\": {fused_wps:.0}, \"speedup\": {speedup:.2} }}"
        ));
        // Skip-scan micro row: extracting a sparse frontier (the shape of
        // delta-pass seeds and early/late BFS levels — about one occupied
        // word per 64-word summary block) with the full-bitmap scan vs the
        // two-level summary skip-scan. Outputs asserted identical; the
        // gated speedup is full / skip.
        let set_bits = (words / 64).max(16);
        let mut bits = vec![0u64; words];
        for _ in 0..set_bits {
            let v = rng.gen_range(0..n_nodes);
            bits[v / 64] |= 1u64 << (v % 64);
        }
        let mut sum = vec![0u64; sum_words(words)];
        summarize_bits(&bits, &mut sum);
        let iters = (if smoke { 200 } else { 2000 }).max(1);
        let mut out: Vec<u32> = Vec::with_capacity(64 * set_bits);
        let mut time_extract = |skip: bool| -> (f64, usize) {
            let mut best = Duration::MAX;
            let mut sink = 0usize;
            for _ in 0..REPS {
                let mut rep_sink = 0usize;
                let start = Instant::now();
                for _ in 0..iters {
                    out.clear();
                    if skip {
                        extract_bits_skip(&bits, &sum, &mut out);
                    } else {
                        extract_bits(&bits, &mut out);
                    }
                    rep_sink ^= out.len() ^ out.last().map_or(0, |&v| v as usize) << 32;
                }
                best = best.min(start.elapsed());
                sink = rep_sink;
            }
            ((words * iters) as f64 / best.as_secs_f64(), sink)
        };
        let (full_wps, full_sink) = time_extract(false);
        let (skip_wps, skip_sink) = time_extract(true);
        assert_eq!(
            full_sink, skip_sink,
            "skip-scan extraction diverges on d={d} words={words}"
        );
        let speedup = skip_wps / full_wps;
        eprintln!(
            "skip_scan d={d} words={words} set_bits={set_bits}: full {:.0} Mwords/s vs skip \
             {:.0} Mwords/s ({speedup:.2}x)",
            full_wps / 1e6,
            skip_wps / 1e6,
        );
        rows.push(format!(
            "    {{ \"kind\": \"skip_scan\", \"d\": {d}, \"nodes\": {n_nodes}, \
             \"words\": {words}, \"set_bits\": {set_bits}, \
             \"full_words_per_sec\": {full_wps:.0}, \
             \"skip_words_per_sec\": {skip_wps:.0}, \"speedup\": {speedup:.2} }}"
        ));
    }
    rows
}

/// Validates a written benchmark file: structural JSON sanity (balanced
/// brackets, the expected top-level keys), `publish_p99_ns <=
/// repair_p99_ns` on every serve row of at least [`PUBLISH_GATE_NODES`]
/// nodes, every `"speedup"` / `"best_vs_frozen"` value at least 1.0 (the
/// serve tier's gated field — best frozen-vs-live read throughput across
/// its reader counts), and every `"level_compaction"` at least 3.0 (the
/// compact u8 level arrays must stay ≥3× under the u32 storage they
/// replaced).
/// `filtered` skips the required-key checks (a `--filter` run only
/// writes one tier's shape). Returns the list of problems found.
fn validate(contents: &str, filtered: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in contents.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    problems.push("unbalanced brackets".into());
                    return problems;
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        problems.push("unbalanced brackets or unterminated string".into());
    }
    if !filtered {
        for key in [
            "\"benchmark\"",
            "\"host_cpus\"",
            "\"configs\"",
            "\"batch\"",
            "\"embeds_per_sec\"",
            "\"stats_only\"",
            "\"repair_ns\"",
            "\"p50_repair_ns\"",
            "\"publish_p50_ns\"",
            "\"vs_frozen\"",
            "\"allocated_bytes\"",
            "\"level_compaction\"",
        ] {
            if !contents.contains(key) {
                problems.push(format!("missing key {key}"));
            }
        }
    }
    let mut speedups = 0usize;
    for (key, floor) in [
        ("\"speedup\":", 1.0),
        ("\"best_vs_frozen\":", 1.0),
        ("\"level_compaction\":", 3.0),
    ] {
        let mut rest = contents;
        while let Some(pos) = rest.find(key) {
            rest = &rest[pos + key.len()..];
            let num = number_token(rest);
            match num.parse::<f64>() {
                Ok(v) if v >= floor => speedups += 1,
                Ok(v) => problems.push(format!("{key} regressed below {floor}: {v}")),
                Err(_) => problems.push(format!("unparseable {key} value: {num:?}")),
            }
        }
    }
    if speedups == 0 && problems.is_empty() {
        problems.push("no speedup values found".into());
    }
    // On the million-node serve tiers, publishing a repair must cost no
    // more than computing it.
    for row in contents.split("\"graph\":").skip(1) {
        if !row.contains("\"mode\": \"serve\"") {
            continue;
        }
        let field = |key: &str| {
            let at = row.find(key)? + key.len();
            number_token(&row[at..]).parse::<f64>().ok()
        };
        match (
            field("\"nodes\":"),
            field("\"publish_p99_ns\":"),
            field("\"repair_p99_ns\":"),
        ) {
            (Some(nodes), Some(publish), Some(repair)) => {
                if nodes >= PUBLISH_GATE_NODES && publish > repair {
                    problems.push(format!(
                        "serve row with {nodes} nodes publishes slower than it repairs: \
                         publish_p99_ns {publish} > repair_p99_ns {repair}"
                    ));
                }
            }
            _ => problems.push("serve row without nodes/publish_p99_ns/repair_p99_ns".into()),
        }
    }
    problems
}

/// The number token at the start of `rest`, after any whitespace.
fn number_token(rest: &str) -> String {
    rest.chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect()
}

#[allow(clippy::too_many_lines)] // one linear measurement script
fn main() {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut check = false;
    let mut kernels = false;
    let mut trial_cap: Option<usize> = None;
    let mut filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--kernels" => kernels = true,
            "--trials" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--trials needs a positive integer");
                        std::process::exit(2);
                    });
                trial_cap = Some(n);
            }
            "--filter" => {
                let pat = args.next().filter(|p| !p.is_empty()).unwrap_or_else(|| {
                    eprintln!("--filter needs a graph label substring, e.g. \"B(2,20)\"");
                    std::process::exit(2);
                });
                filter = Some(pat);
            }
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag {flag}; usage: bench_ffc [out.json] [--smoke] [--check] \
                     [--trials N] [--filter GRAPH] [--kernels]"
                );
                std::process::exit(2);
            }
            path => out_path = Some(path.to_string()),
        }
    }
    let out_path =
        out_path.unwrap_or_else(|| format!("{}/../../BENCH_ffc.json", env!("CARGO_MANIFEST_DIR")));
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scale = |trials: usize| {
        // The floor never raises a tier above its configured count: the
        // biggest smoke-visible tiers (B(2,22) stats) set trials < 60 and
        // must stay time-bounded in CI.
        let t = if smoke {
            (trials / 20).max(60).min(trials)
        } else {
            trials
        };
        t.min(trial_cap.unwrap_or(usize::MAX)).max(1)
    };
    let full = |d, n, trials| Config {
        d,
        n,
        trials: scale(trials),
        mode: Mode::Small,
        skip_in_smoke: false,
    };
    let stats_tier = |d, n, trials, skip_in_smoke| Config {
        d,
        n,
        trials: scale(trials),
        mode: Mode::StatsOnly,
        skip_in_smoke,
    };
    let ring_tier = |d, n, trials, skip_in_smoke| Config {
        d,
        n,
        trials: scale(trials),
        mode: Mode::FullRing,
        skip_in_smoke,
    };
    let incr_tier = |d, n, trials, skip_in_smoke| Config {
        d,
        n,
        trials: scale(trials),
        mode: Mode::Incremental,
        skip_in_smoke,
    };
    let churn_tier = |d, n, trials, skip_in_smoke| Config {
        d,
        n,
        trials: scale(trials),
        mode: Mode::Churn,
        skip_in_smoke,
    };
    let serve_tier = |d, n, trials, skip_in_smoke| Config {
        d,
        n,
        trials: scale(trials),
        mode: Mode::Serve,
        skip_in_smoke,
    };
    let configs = [
        full(2, 10, 4000),
        full(2, 14, 400),
        full(4, 5, 4000),
        full(4, 7, 400),
        stats_tier(2, 18, 60, false),
        stats_tier(2, 20, 20, true),
        stats_tier(2, 22, 12, false),
        stats_tier(2, 24, 8, true),
        ring_tier(2, 16, 60, false),
        ring_tier(2, 18, 16, true),
        ring_tier(2, 20, 6, true),
        ring_tier(2, 22, 4, true),
        incr_tier(2, 16, 60, false),
        incr_tier(2, 18, 16, true),
        incr_tier(2, 20, 6, true),
        incr_tier(2, 22, 4, true),
        churn_tier(2, 16, 120, false),
        churn_tier(2, 18, 40, true),
        churn_tier(2, 20, 16, true),
        serve_tier(2, 16, 60, false),
        serve_tier(2, 18, 24, true),
        serve_tier(2, 20, 500, true),
        serve_tier(2, 22, 640, true),
    ];

    let mut matched = 0usize;
    let mut entries = Vec::new();
    for cfg in &configs {
        if smoke && cfg.skip_in_smoke {
            continue;
        }
        if let Some(pat) = &filter {
            if !format!("B({},{})", cfg.d, cfg.n).contains(pat.as_str()) {
                continue;
            }
        }
        matched += 1;
        let setup_start = Instant::now();
        let ffc = Ffc::new(cfg.d, cfg.n);
        let setup_ns = setup_start.elapsed().as_nanos();

        let total = ffc.graph().len();
        let seed = 0xB * u64::from(cfg.n) + cfg.d;
        let sets = fault_sets(total, cfg.trials, seed);
        let mut scratch = EmbedScratch::new();
        let label = format!("B({},{})", cfg.d, cfg.n);

        if cfg.mode == Mode::Serve {
            // Serve tier: the ring-as-a-service read path. The same churn
            // trace streams through the RingService writer in every run;
            // live readers refresh to each published snapshot while frozen
            // readers stay pinned to the initial one, so the ratio isolates
            // what epoch publication costs the read path.
            let ffc = Arc::new(ffc);
            let plan = ChurnPlan::new(seed ^ 0x5E)
                .arrivals(cfg.trials)
                .bursts(4, 0.25)
                .edge_fault_prob(0.2);
            let steps = plan.generate(&ffc);
            let events: Vec<FaultEvent> =
                steps.iter().flat_map(|s| s.batch.iter().copied()).collect();
            // From-scratch oracle of the trace's end state: every run's
            // final published snapshot must match it bit-for-bit.
            let excl = exclusion_of(&events);
            let want = ffc.embed_into(&mut scratch, &excl);
            let want_hash = ring_hash(scratch.cycle());
            // The big tiers pace heavier repairs; give them a longer window
            // so the bursty writer work averages out of the reader-throughput
            // ratio, and at least `SERVE_STEP_PACE` per step.
            let window = Duration::from_millis(if cfg.skip_in_smoke { 500 } else { 250 })
                .max(SERVE_STEP_PACE * steps.len() as u32);
            let mut reader_rows = Vec::new();
            let mut best_overall = 0.0f64;
            let mut gate_report: Option<(ServiceReport, Arc<RingSnapshot>)> = None;
            let mut ring_buf = Vec::new();
            for &readers in &READER_COUNTS {
                let mut frozen_best = 0.0f64;
                let mut live_best = 0.0f64;
                for _ in 0..SERVE_REPS {
                    // Interleave frozen/live so machine drift hits both
                    // sides of the ratio equally.
                    for &frozen in &[true, false] {
                        let (lps, report, snap) = serve_run(&ffc, &steps, readers, frozen, window);
                        assert_eq!(
                            report.events,
                            events.len() as u64,
                            "writer dropped events on {label}"
                        );
                        assert_eq!(snap.applied_events(), report.events);
                        assert_eq!(
                            snap.stats(),
                            want,
                            "served snapshot diverges from the from-scratch embed on {label}"
                        );
                        snap.ring_into(&mut ring_buf);
                        assert_eq!(
                            ring_hash(&ring_buf),
                            want_hash,
                            "served ring bytes diverge on {label}"
                        );
                        if frozen {
                            frozen_best = frozen_best.max(lps);
                        } else if lps > live_best {
                            live_best = lps;
                            gate_report = Some((report, snap));
                        }
                    }
                }
                let vs_frozen = live_best / frozen_best;
                best_overall = best_overall.max(vs_frozen);
                eprintln!(
                    "{label}: serve x{readers} readers: live {live_best:.0} lookups/s vs frozen \
                     {frozen_best:.0} ({vs_frozen:.2}x)"
                );
                reader_rows.push(format!(
                    "        {{ \"threads\": {readers}, \"lookups_per_sec\": {live_best:.1}, \
                     \"frozen_lookups_per_sec\": {frozen_best:.1}, \"vs_frozen\": {vs_frozen:.2} }}"
                ));
            }
            let (report, final_snap) = gate_report.expect("at least one live run");
            let p50 = report.publish_quantile_ns(0.5);
            let p99 = report.publish_quantile_ns(0.99);
            let rp50 = report.repair_quantile_ns(0.5);
            let rp99 = report.repair_quantile_ns(0.99);
            let repair_max = report.repair_quantile_ns(1.0);
            let rebuild = warm_rebuild_ns(&ffc, &mut RingMaintainer::new(), &excl);
            let copied_per_pub = report.copied_chunks as f64 / report.batches.max(1) as f64;
            let forwarded_per_pub = report.forwarded_chunks as f64 / report.batches.max(1) as f64;
            eprintln!(
                "{label}: serve publish p50 {:.1} µs p99 {:.1} µs (repair p99 {:.1} µs) over {} \
                 publications, {copied_per_pub:.1} chunks copied and {forwarded_per_pub:.1} \
                 forwarded per publication ({} events coalesced into {} batches)",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
                rp99 as f64 / 1e3,
                report.publications,
                report.events,
                report.batches,
            );
            let mut entry = String::new();
            write!(
                entry,
                "    {{\n      \"graph\": \"{label}\",\n      \"nodes\": {total},\n      \
                 \"trials\": {},\n      \"setup_ns\": {setup_ns},\n      \
                 \"mode\": \"serve\",\n      \
                 \"churn_steps\": {},\n      \"churn_events\": {},\n      \
                 \"batches\": {},\n      \"publications\": {},\n      \
                 \"publish_p50_ns\": {p50},\n      \"publish_p99_ns\": {p99},\n      \
                 \"repair_p50_ns\": {rp50},\n      \"repair_p99_ns\": {rp99},\n      \
                 \"repair_max_ns\": {repair_max},\n      \"rebuild_ns\": {rebuild},\n      \
                 \"copied_chunks_per_publication\": {copied_per_pub:.1},\n      \
                 \"forwarded_chunks_per_publication\": {forwarded_per_pub:.1},\n      \
                 \"allocated_bytes\": {},\n      \
                 \"readers\": [\n{}\n      ],\n      \
                 \"best_vs_frozen\": {best_overall:.2}\n    }}",
                cfg.trials,
                steps.len(),
                events.len(),
                report.batches,
                report.publications,
                report.session_bytes + final_snap.allocated_bytes(),
                reader_rows.join(",\n"),
            )
            .expect("writing to a String cannot fail");
            entries.push(entry);
            continue;
        }

        if cfg.mode == Mode::Churn {
            // Churn tier: a deterministic arrival/departure trace (Poisson
            // arrivals, correlated 4-bursts, 20% link faults, bounded
            // repair times) replayed through the maintainer — the
            // service-level picture of an evolving fault environment.
            let plan = ChurnPlan::new(seed ^ 0xC4)
                .arrivals(cfg.trials)
                .bursts(4, 0.25)
                .edge_fault_prob(0.2);
            let steps = plan.generate(&ffc);
            let mut maint = RingMaintainer::new();
            let mut best_report: Option<ChurnReport> = None;
            // First replay warms the session buffers; best of REPS after.
            for rep in 0..=REPS {
                let report = replay_churn(&ffc, &mut maint, &steps, |_, _, _| {})
                    .expect("generated trace is valid");
                if rep == 0 {
                    continue;
                }
                let total_ns: u64 = report.repair_ns.iter().sum();
                let keep = best_report
                    .as_ref()
                    .is_none_or(|b| total_ns < b.repair_ns.iter().sum::<u64>());
                if keep {
                    best_report = Some(report);
                }
            }
            let report = best_report.expect("REPS >= 1");
            let p50 = report.p50_ns();
            let p99 = report.p99_ns();

            // The CI gate: one batched k-fault repair must never be slower
            // than k sequential single-fault repairs of the same nodes
            // (down + up round trips, stats asserted identical). The burst
            // is *correlated* — k contiguous node ids, the rack-failure
            // shape churn traces model — so the k repair cones overlap and
            // the fused delta pass has real sharing to exploit; scattered
            // faults have disjoint cones, where batching can only save
            // per-event bookkeeping.
            let k = 8usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
            let octets: Vec<Vec<usize>> = (0..cfg.trials)
                .map(|_| {
                    let base = rng.gen_range(0..total - k);
                    (base..base + k).collect()
                })
                .collect();
            maint.reset(&ffc, &[]).expect("in-range");
            let mut downs: Vec<FaultEvent> = Vec::with_capacity(k);
            let mut ups: Vec<FaultEvent> = Vec::with_capacity(k);
            let load = |o: &[usize], downs: &mut Vec<FaultEvent>, ups: &mut Vec<FaultEvent>| {
                downs.clear();
                downs.extend(o.iter().map(|&v| FaultEvent::NodeDown(v)));
                ups.clear();
                ups.extend(o.iter().map(|&v| FaultEvent::NodeUp(v)));
            };
            // Warm-up pass.
            load(&octets[0], &mut downs, &mut ups);
            maint.apply_batch(&ffc, &downs).expect("in-range");
            maint.apply_batch(&ffc, &ups).expect("in-range");
            let mut time_side = |batched: bool| {
                let mut sum = 0usize;
                let start = Instant::now();
                for o in &octets {
                    if batched {
                        load(o, &mut downs, &mut ups);
                        sum ^= maint
                            .apply_batch(&ffc, &downs)
                            .expect("in-range")
                            .stats()
                            .component_size;
                        maint.apply_batch(&ffc, &ups).expect("in-range");
                    } else {
                        for &v in o {
                            maint.add_fault(&ffc, v).expect("in-range");
                        }
                        sum ^= maint.stats().component_size;
                        for &v in o {
                            maint.clear_fault(&ffc, v).expect("in-range");
                        }
                    }
                }
                (start.elapsed(), sum)
            };
            // The two sides alternate rep by rep, each leading every other
            // rep, so a slow stretch of a shared host lands on both.
            let (mut batched_best, mut seq_best) = (Duration::MAX, Duration::MAX);
            let (mut batched_sum, mut seq_sum) = (0usize, 0usize);
            for rep in 0..REPS {
                for batched in [rep % 2 == 0, rep % 2 == 1] {
                    let (elapsed, sum) = time_side(batched);
                    if batched {
                        batched_best = batched_best.min(elapsed);
                        batched_sum = sum;
                    } else {
                        seq_best = seq_best.min(elapsed);
                        seq_sum = sum;
                    }
                }
            }
            assert_eq!(
                batched_sum, seq_sum,
                "batched and sequential repair diverge on {label}"
            );
            let batched_ns = batched_best.as_nanos() as f64 / octets.len() as f64;
            let sequential_ns = seq_best.as_nanos() as f64 / octets.len() as f64;
            let speedup = sequential_ns / batched_ns;
            eprintln!(
                "{label}: churn {} steps / {} events, repair p50 {:.1} µs p99 {:.1} µs, \
                 degraded {:.2}%; batched {k}-fault {:.1} µs vs {k} sequential {:.1} µs \
                 ({speedup:.2}x) [checksum {batched_sum}]",
                report.steps,
                report.events,
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
                report.degraded_fraction() * 100.0,
                batched_ns / 1e3,
                sequential_ns / 1e3,
            );
            let mut entry = String::new();
            write!(
                entry,
                "    {{\n      \"graph\": \"{label}\",\n      \"nodes\": {total},\n      \
                 \"trials\": {},\n      \"setup_ns\": {setup_ns},\n      \
                 \"mode\": \"churn\",\n      \
                 \"churn_arrivals\": {},\n      \"churn_steps\": {},\n      \
                 \"churn_events\": {},\n      \
                 \"p50_repair_ns\": {p50},\n      \"p99_repair_ns\": {p99},\n      \
                 \"degraded_fraction\": {:.4},\n      \"worst_excluded\": {},\n      \
                 \"batch_k\": {k},\n      \
                 \"batched_event_ns\": {batched_ns:.1},\n      \
                 \"sequential_event_ns\": {sequential_ns:.1},\n      \
                 \"allocated_bytes\": {},\n      \
                 \"speedup\": {speedup:.2}\n    }}",
                steps.len(),
                cfg.trials,
                report.steps,
                report.events,
                report.degraded_fraction(),
                report.worst_excluded,
                maint.allocated_bytes(),
            )
            .expect("writing to a String cannot fail");
            entries.push(entry);
            continue;
        }

        if cfg.mode == Mode::Incremental {
            // Incremental tier: single-fault repair events on the
            // RingMaintainer vs from-scratch embeds of the same faults.
            // Stats checksums keep the two loops provably in agreement
            // (rare root-necklace faults force the maintainer through its
            // rebuild fallback and stay in the mean, which is the honest
            // service-level number).
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1EC);
            let mut nodes: Vec<usize> = (0..total).collect();
            let singles: Vec<Vec<usize>> = (0..cfg.trials)
                .map(|_| {
                    let (one, _) = nodes.partial_shuffle(&mut rng, 1);
                    one.to_vec()
                })
                .collect();
            let _ = ffc.embed_into(&mut scratch, &singles[0]);
            let (serial_ns, _serial_eps, serial_sum) =
                time_loop(&singles, |f| ffc.embed_into(&mut scratch, f).component_size);
            let mut maint = RingMaintainer::new();
            maint.reset(&ffc, &[]).expect("in-range");
            let _ = maint.add_fault(&ffc, singles[0][0]);
            let _ = maint.clear_fault(&ffc, singles[0][0]);
            let before = maint.repairs();
            let mut best = std::time::Duration::MAX;
            let mut repair_sum = 0usize;
            for _ in 0..REPS {
                let mut rep_sum = 0usize;
                let start = Instant::now();
                for f in &singles {
                    rep_sum ^= maint
                        .add_fault(&ffc, f[0])
                        .expect("in-range")
                        .stats()
                        .component_size;
                    let _ = maint.clear_fault(&ffc, f[0]);
                }
                best = best.min(start.elapsed());
                repair_sum = rep_sum;
            }
            assert_eq!(
                repair_sum, serial_sum,
                "incremental repairs diverge from the from-scratch engine on {label}"
            );
            let events = 2 * singles.len();
            let repair_ns = best.as_nanos() as f64 / events as f64;
            let after = maint.repairs();
            let (incr, rebuilds) = (
                after.incremental - before.incremental,
                after.rebuilds - before.rebuilds,
            );
            // One more rep, timed per event and kept out of `repair_ns`:
            // the worst single event, and a rebuild to its fault.
            let (mut repair_max, mut worst) = (Duration::ZERO, singles[0][0]);
            for f in &singles {
                let t_add = Instant::now();
                let _ = maint.add_fault(&ffc, f[0]);
                let t_clear = Instant::now();
                let _ = maint.clear_fault(&ffc, f[0]);
                let event = (t_clear - t_add).max(t_clear.elapsed());
                if event > repair_max {
                    (repair_max, worst) = (event, f[0]);
                }
            }
            let rebuild = warm_rebuild_ns(&ffc, &mut maint, &[worst]);
            let speedup = serial_ns / repair_ns;
            // The compact-level footprint gate: the session's level array
            // in one byte per node vs the 4 × n_nodes bytes of u32 storage.
            let level_bytes = maint.level_bytes();
            let level_bytes_u32 = 4 * total;
            let level_compaction = level_bytes_u32 as f64 / level_bytes as f64;
            eprintln!(
                "{label}: repair {:.1} µs/event vs embed {:.2} ms ({speedup:.1}x), \
                 {incr} delta + {rebuilds} rebuilds per rep, \
                 levels {level_bytes} B vs u32 {level_bytes_u32} B ({level_compaction:.2}x) \
                 [checksum {repair_sum}]",
                repair_ns / 1e3,
                serial_ns / 1e6,
            );
            let mut entry = String::new();
            write!(
                entry,
                "    {{\n      \"graph\": \"{label}\",\n      \"nodes\": {total},\n      \
                 \"trials\": {},\n      \"setup_ns\": {setup_ns},\n      \
                 \"mode\": \"incremental\",\n      \
                 \"embed_ns\": {serial_ns:.1},\n      \
                 \"repair_ns\": {repair_ns:.1},\n      \
                 \"repair_max_ns\": {},\n      \"rebuild_ns\": {rebuild},\n      \
                 \"repairs_per_sec\": {:.1},\n      \
                 \"delta_events\": {},\n      \"rebuild_events\": {},\n      \
                 \"allocated_bytes\": {},\n      \
                 \"level_bytes\": {level_bytes},\n      \
                 \"level_bytes_u32\": {level_bytes_u32},\n      \
                 \"level_compaction\": {level_compaction:.2},\n      \
                 \"speedup\": {speedup:.2}\n    }}",
                singles.len(),
                repair_max.as_nanos(),
                1e9 / repair_ns,
                incr / REPS,
                rebuilds.div_ceil(REPS),
                maint.allocated_bytes(),
            )
            .expect("writing to a String cannot fail");
            entries.push(entry);
            continue;
        }

        if cfg.mode == Mode::FullRing {
            // Full-ring tiers: the embed_into pipeline over the trial
            // schedule; the first trial's cycle is verified first.
            let _ = ffc.embed_into(&mut scratch, &sets[0]);
            assert!(
                is_debruijn_ring(cfg.d, cfg.n, scratch.cycle()),
                "first trial's cycle is not a ring of {label}"
            );
            assert!(
                ring_avoids_nodes(scratch.cycle(), &sets[0]),
                "first trial's cycle visits a faulty node on {label}"
            );
            let (embed_ns, embeds_per_sec, checksum) =
                time_loop(&sets, |f| ffc.embed_into(&mut scratch, f).component_size);
            eprintln!(
                "{label}: full-ring {:.2} ms ({embeds_per_sec:.1} embeds/s) [checksum {checksum}]",
                embed_ns / 1e6,
            );
            let mut entry = String::new();
            write!(
                entry,
                "    {{\n      \"graph\": \"{label}\",\n      \"nodes\": {total},\n      \
                 \"trials\": {},\n      \"setup_ns\": {setup_ns},\n      \
                 \"mode\": \"full\",\n      \
                 \"embed_ns\": {embed_ns:.1},\n      \
                 \"embeds_per_sec\": {embeds_per_sec:.2},\n      \
                 \"allocated_bytes\": {}\n    }}",
                sets.len(),
                scratch.allocated_bytes(),
            )
            .expect("writing to a String cannot fail");
            entries.push(entry);
            continue;
        }

        // Stats-only paths head to head: the u8-stamp engine (the oracle,
        // on its own scratch) vs the bit-parallel engine (warm-up sizes
        // every buffer first).
        let mut u8_scratch = U8StatsScratch::default();
        let _ = oracle::embed_stats_into_u8(&ffc, &mut u8_scratch, &sets[0]);
        let _ = ffc.embed_stats_into(&mut scratch, &sets[0]);
        let (u8_ns, u8_eps, c1) = time_loop(&sets, |f| {
            oracle::embed_stats_into_u8(&ffc, &mut u8_scratch, f).component_size
        });
        let (bit_ns, bit_eps, c2) = time_loop(&sets, |f| {
            ffc.embed_stats_into(&mut scratch, f).component_size
        });
        assert_eq!(c1, c2, "stats engines disagree on {label}");
        let stats_speedup = u8_ns / bit_ns;
        eprintln!(
            "{label}: setup {:.2} ms, stats u8 {:.1} µs vs bit {:.1} µs ({stats_speedup:.2}x) \
             [checksum {c1}]",
            setup_ns as f64 / 1e6,
            u8_ns / 1e3,
            bit_ns / 1e3,
        );
        let stats_block = format!(
            "      \"stats_only\": {{ \"u8_embeds_per_sec\": {u8_eps:.1}, \
             \"bit_embeds_per_sec\": {bit_eps:.1}, \"speedup\": {stats_speedup:.2} }}"
        );

        // Full tiers additionally run the whole pipeline and the textbook
        // reference; their batch rows compare against the serial
        // `embed_into` loop. Stats tiers compare batch against the serial
        // u8 loop (the engine this PR replaces).
        let (serial_block, batch_baseline_eps) = if cfg.mode == Mode::Small {
            let _ = ffc.embed_into(&mut scratch, &sets[0]);
            let (embed_ns, embeds_per_sec, mut checksum) =
                time_loop(&sets, |f| ffc.embed_into(&mut scratch, f).component_size);

            let ref_trials = (cfg.trials / 20).max(20).min(sets.len());
            let start = Instant::now();
            for faults in sets.iter().take(ref_trials) {
                checksum ^= oracle::embed_reference(&ffc, faults).component_size;
            }
            let reference = start.elapsed();
            let reference_embed_ns = reference.as_nanos() as f64 / ref_trials as f64;
            eprintln!(
                "{label}: embed {:.1} µs ({embeds_per_sec:.0} embeds/s), reference {:.1} µs, \
                 speedup {:.1}x  [checksum {checksum}]",
                embed_ns / 1e3,
                reference_embed_ns / 1e3,
                reference_embed_ns / embed_ns,
            );
            let block = format!(
                "      \"embed_ns\": {embed_ns:.1},\n      \
                 \"embeds_per_sec\": {embeds_per_sec:.1},\n      \
                 \"reference_trials\": {ref_trials},\n      \
                 \"reference_embed_ns\": {reference_embed_ns:.1},\n      \
                 \"speedup\": {:.2},\n",
                reference_embed_ns / embed_ns,
            );
            (block, embeds_per_sec)
        } else {
            (
                format!(
                    "      \"mode\": \"stats_only\",\n      \"embeds_per_sec\": {bit_eps:.1},\n"
                ),
                u8_eps,
            )
        };

        // Batch sweep engine: the same f 0..=8 schedule as a stats-only
        // plan, at increasing shard counts. Each rep repeats the plan for
        // at least MIN_BATCH_REP, and every round of reps runs each shard
        // count once, starting from a different one each round, so host
        // noise falls on all of them alike.
        let plan = SweepPlan::new(FaultSchedule::Cycling((0..=8).collect()), cfg.trials, seed);
        let shard_counts = batch_shard_counts(host_cpus);
        let mut engines: Vec<BatchEmbedder> = shard_counts
            .iter()
            .map(|&shards| {
                let mut batch = BatchEmbedder::new(shards);
                // Warm up every shard's scratch before timing.
                let warm =
                    SweepPlan::new(FaultSchedule::Cycling((0..=8).collect()), 2 * shards, seed);
                let _ = ffc.embed_batch(&mut batch, &warm, |acc: &mut Checksum, trial| {
                    acc.0 ^= trial.stats.component_size as u64;
                });
                batch
            })
            .collect();
        let count = engines.len();
        let mut best = vec![f64::MAX; count];
        let mut sums = vec![Checksum::default(); count];
        for round in 0..REPS {
            for k in (0..count).map(|k| (k + round) % count) {
                let (mut runs, start) = (0u32, Instant::now());
                while runs == 0 || start.elapsed() < MIN_BATCH_REP {
                    sums[k] =
                        ffc.embed_batch(&mut engines[k], &plan, |acc: &mut Checksum, trial| {
                            acc.0 ^= trial.stats.component_size as u64;
                        });
                    runs += 1;
                }
                best[k] = best[k].min(start.elapsed().as_secs_f64() / f64::from(runs));
            }
        }
        let mut batch_rows = Vec::new();
        for (((&shards, &plan_s), sum), engine) in
            shard_counts.iter().zip(&best).zip(&sums).zip(&mut engines)
        {
            assert_eq!(
                sum.0, sums[0].0,
                "{label}: batch x{shards} disagrees with x1"
            );
            let batch_eps = plan.trials() as f64 / plan_s;
            let speedup = batch_eps / batch_baseline_eps;
            // One more run of the plan, for its paths.
            let before = engine.paths();
            let _ = ffc.embed_batch(engine, &plan, |_: &mut Checksum, _| {});
            let paths = paths_json(&engine.paths(), &before);
            eprintln!(
                "{label}: batch x{shards}: {batch_eps:.0} embeds/s \
                 ({speedup:.2}x serial baseline)  [checksum {}] paths {paths}",
                sum.0
            );
            batch_rows.push(format!(
                "        {{ \"shards\": {shards}, \"embeds_per_sec\": {batch_eps:.1}, \
                 \"speedup\": {speedup:.2}, \"allocated_bytes\": {}, \"paths\": {paths} }}",
                engine.allocated_bytes(),
            ));
        }

        let mut entry = String::new();
        write!(
            entry,
            "    {{\n      \"graph\": \"{label}\",\n      \"nodes\": {total},\n      \
             \"trials\": {},\n      \"setup_ns\": {setup_ns},\n      \
             \"allocated_bytes\": {},\n\
             {serial_block}{stats_block},\n      \"batch\": [\n{}\n      ]\n    }}",
            sets.len(),
            scratch.allocated_bytes(),
            batch_rows.join(",\n"),
        )
        .expect("writing to a String cannot fail");
        entries.push(entry);
    }

    if filter.is_some() && matched == 0 {
        eprintln!("--filter matched no configuration");
        std::process::exit(2);
    }
    let kernels_block = if kernels {
        format!(
            "  \"kernels\": [\n{}\n  ],\n",
            kernel_tier(smoke).join(",\n")
        )
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"benchmark\": \"ffc_embed\",\n  \"host_cpus\": {host_cpus},\n  \
         \"schedule\": \"f cycles 0..=8, random fault sets\",\n  \
         \"unit_note\": \"timed loops take the best of {REPS} repetitions; embed_ns is the mean \
         wall time per embed_into within that best repetition, on a reused scratch; \
         stats_only compares the u8-stamp stats engine (PR 2) against the bit-parallel engine \
         (speedup = u8/bit); batch rows are the stats-only sweep engine (embed_batch) — \
         speedup vs the serial embed_into loop on full tiers, vs the serial u8-stamp loop on \
         mode=stats_only tiers, each rep repeating the plan for at least 100 ms, the shard \
         counts alternating within each round of reps, and 4 and 8 shards measured only when \
         host_cpus > 2; mode=full tiers time the embed_into pipeline (the first \
         trial's cycle verified as a fault-avoiding de Bruijn ring); mode=incremental tiers time \
         single-fault RingMaintainer repair events (add_fault + clear_fault) against \
         from-scratch embeds of the same faults — speedup = embed_into / repair event, \
         repair_max_ns the worst single event of one extra rep kept out of repair_ns, \
         rebuild_ns the median warm RingMaintainer::reset to that event's fault, \
         stats checksums asserted identical to the from-scratch loop, and level_bytes / \
         level_bytes_u32 / level_compaction report the compact u8 level-array footprint \
         against the 4 bytes/node of u32 storage (gated >= 3.0); mode=churn \
         tiers replay a deterministic arrival/departure trace (Poisson arrivals, correlated \
         4-bursts, 20% link faults) through the maintainer — \
         p50/p99_repair_ns are per-batch repair latencies and degraded_fraction is the time \
         share spent past tolerance — and time one batched k-fault repair against k sequential \
         single-fault repairs of the same nodes (speedup = sequential/batched, reps alternating \
         which side runs first, component-size checksums asserted identical); mode=serve tiers stream the churn trace through a \
         RingService writer while 1/2/4 reader threads walk the ring in 256-node ring_segment \
         strides — lookups_per_sec is the live (epoch-refreshing) read path, \
         frozen_lookups_per_sec the same run with readers pinned to the initial snapshot \
         (identical writer-side work), best_vs_frozen = best vs_frozen across reader counts \
         (gated >= 1.0), \
         publish_p50/p99_ns the snapshot-publication latency (publish_p99_ns gated <= \
         repair_p99_ns from 2^20 nodes up), repair_max_ns the writer's worst batch, \
         rebuild_ns the median warm RingMaintainer::reset of the trace's final fault set, \
         copied_chunks_per_publication the dirty snapshot chunks each batch's publication \
         copied, forwarded_chunks_per_publication the clean chunks it re-copied only to \
         retire a sparse segment, and every run's final snapshot \
         is asserted bit-identical to a from-scratch embed of the trace's fault set; \
         every tier's allocated_bytes is the audited steady-state footprint of its scratch \
         or maintainer after warmup (serve tiers: the writer's session plus the final \
         snapshot's segments); \
         the optional kernels array races, one row per shape, the two-phase scalar dense \
         kernel against the block kernel without summaries, so nothing is skipped (both \
         forward, the engine's only dense direction; speedup = scalar/fused, newly-visited \
         checksums asserted identical) and, in kind=skip_scan rows, \
         full-bitmap sparse-frontier extraction against the hierarchical-summary skip-scan \
         (speedup = skip/full \
         words per second, outputs asserted identical, gated >= 1.0)\",\n{kernels_block}  \
         \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_ffc.json");
    eprintln!("wrote {out_path}");

    if check {
        let contents = std::fs::read_to_string(&out_path).expect("re-read benchmark file");
        let problems = validate(&contents, filter.is_some());
        if problems.is_empty() {
            eprintln!("check passed: JSON well-formed, all speedups >= 1.0");
        } else {
            for p in &problems {
                eprintln!("check FAILED: {p}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    fn serve_row(nodes: u64, publish: u64, repair: u64) -> String {
        format!(
            "{{ \"graph\": \"g\", \"nodes\": {nodes}, \"mode\": \"serve\", \
             \"publish_p99_ns\": {publish}, \"repair_p99_ns\": {repair}, \
             \"best_vs_frozen\": 1.00 }}"
        )
    }

    #[test]
    fn publish_gate_fails_only_million_node_serve_rows() {
        let file = |rows: &[String]| format!("{{ \"configs\": [{}] }}", rows.join(","));
        let ok = file(&[serve_row(1 << 20, 100, 200), serve_row(1 << 16, 300, 200)]);
        assert_eq!(validate(&ok, true), Vec::<String>::new());
        let slow = file(&[serve_row(1 << 22, 300, 200)]);
        let problems = validate(&slow, true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("publishes slower than it repairs"));
    }
}
