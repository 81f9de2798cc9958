//! `embed-full`: a closed loop of from-scratch `Ffc::embed_into` at
//! B(2,20) on one reused scratch, with f random node faults, f cycling
//! through 0..=8. It runs the whole embed pipeline and the bit-parallel
//! reachability kernels while bypassing the service's queue, session and
//! snapshots.

use std::time::{Duration, Instant};

use debruijn_rings::core::bitreach::{BitReach, BitScratch};
use debruijn_rings::core::verify::{is_debruijn_ring, ring_avoids_nodes};
use debruijn_rings::core::{EmbedScratch, EmbedStats, FaultDrawer, Ffc};
use debruijn_rings::necklace::NecklacePartition;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{first_ms, mix, Config, Metric, Outcome, MIB};

/// B(2,20): about 57 MB of working set, inside a 105 MB L3.
pub const N: u32 = 20;
/// Fault counts cycle through 0..FAULT_CYCLE.
const FAULT_CYCLE: u64 = 9;
/// Every this many embeds, the ring is verified outside the timed region.
const VERIFY_EVERY: u64 = 100;

/// The public passes of one embed, timed one at a time on the same fault
/// set: the layers `embed_into` runs before its crate-private necklace
/// selection, w-group wiring and readoff.
struct Passes {
    reach: BitReach,
    bits: BitScratch,
    nodes: Vec<u32>,
    offsets: Vec<u32>,
    necks: Vec<u32>,
    /// Per embed: mark, root, forward, backward, broadcast and the
    /// residual of `embed_into`, in ns.
    samples: [Vec<f64>; 6],
}

impl Passes {
    fn new(ffc: &Ffc) -> Self {
        Passes {
            reach: BitReach::new(2, ffc.graph().len()),
            bits: BitScratch::new(),
            nodes: Vec::new(),
            offsets: Vec::new(),
            necks: Vec::new(),
            samples: Default::default(),
        }
    }

    /// Times each pass on `faults` and checks the passes agree with the
    /// embed's `stats`.
    fn time(
        &mut self,
        ffc: &Ffc,
        faults: &[usize],
        embed_ns: f64,
        stats: EmbedStats,
        tracer: &mut Tracer,
        i: u64,
    ) -> bool {
        let partition = ffc.partition();
        let t0 = Instant::now();
        self.reach.prepare(&mut self.bits);
        self.necks.clear();
        for &v in faults {
            let nid = partition.membership()[v];
            if !self.necks.contains(&nid) {
                self.necks.push(nid);
                for &m in partition.members(nid as usize) {
                    self.reach.kill(&mut self.bits, m as usize);
                }
            }
        }
        let t1 = Instant::now();
        let mask = ffc.faulty_necklace_mask(faults);
        let root = ffc.representative_of(ffc.pick_root(ffc.default_root(), &mask));
        let t2 = Instant::now();
        let (fwd, _) = self.reach.forward(&mut self.bits, root);
        let t3 = Instant::now();
        self.reach.backward(&mut self.bits, root);
        let t4 = Instant::now();
        let (reached, depth) =
            self.reach
                .broadcast_levels(&mut self.bits, root, &mut self.nodes, &mut self.offsets);
        let t5 = Instant::now();
        let marks = [t0, t1, t2, t3, t4, t5];
        let names = [
            "bitreach.mark",
            "ffc.root",
            "bitreach.forward",
            "bitreach.backward",
            "bitreach.broadcast",
        ];
        let mut parts = 0.0;
        for (k, name) in names.iter().enumerate() {
            tracer.record(name, i, marks[k], marks[k + 1]);
            let ns = (marks[k + 1] - marks[k]).as_nanos() as f64;
            self.samples[k].push(ns);
            parts += ns;
        }
        self.samples[5].push(embed_ns - parts);
        root == stats.root
            && reached == stats.component_size
            && depth == stats.eccentricity
            && fwd >= stats.component_size
    }

    fn metrics(mut self) -> Vec<Metric> {
        let [mark, root, fwd, bwd, bcast, rest] = &mut self.samples;
        vec![
            Metric::new("bitreach.mark_us", median(mark) / 1e3, "us"),
            Metric::new("ffc.root_us", median(root) / 1e3, "us"),
            Metric::new("bitreach.forward_ms", median(fwd) / 1e6, "ms"),
            Metric::new("bitreach.backward_ms", median(bwd) / 1e6, "ms"),
            Metric::new("bitreach.broadcast_ms", median(bcast) / 1e6, "ms"),
            Metric::new("ffc.select_wire_readoff_ms", median(rest) / 1e6, "ms"),
        ]
    }
}

/// Checks one embed's ring: the right length, a cycle of B(2,N), free of
/// the faulty nodes, and Hamiltonian when nothing failed.
fn verify(n_nodes: usize, stats: EmbedStats, cycle: &[usize], faults: &[usize]) -> bool {
    cycle.len() == stats.component_size
        && (!faults.is_empty() || cycle.len() == n_nodes)
        && is_debruijn_ring(2, N, cycle)
        && ring_avoids_nodes(cycle, faults)
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut kept = None;
    for i in 0..cfg.setups as u64 {
        drop(kept.take());
        let span = tracer.begin("setup", i);
        let t = Instant::now();
        let ffc = Ffc::new(2, N);
        let t_warm = Instant::now();
        tracer.record("ffc.new", i, t, t_warm);
        let mut scratch = EmbedScratch::new();
        ffc.embed_into(&mut scratch, &[]);
        let mut drawer = FaultDrawer::new();
        drawer.draw(ffc.graph().len(), 0, 0);
        tracer.record("ffc.warm", i, t_warm, Instant::now());
        out.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        kept = Some((ffc, scratch, drawer));
    }
    let (ffc, mut scratch, mut drawer) = kept.expect("at least one set-up");
    let n_nodes = ffc.graph().len();
    let mut passes = tracer.is_on().then(|| Passes::new(&ffc));
    if tracer.is_on() {
        let t = Instant::now();
        drop(NecklacePartition::new(ffc.graph().space()));
        tracer.record("necklace.partition", 0, t, Instant::now());
    }

    let mut faults = Vec::new();
    let (mut embeds, mut failed, mut verified) = (0u64, 0u64, 0u64);
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let i = embeds;
        faults.clear();
        faults.extend_from_slice(drawer.draw(
            n_nodes,
            mix(cfg.seed, i),
            (i % FAULT_CYCLE) as usize,
        ));
        let span = tracer.begin("embed", i);
        let t0 = Instant::now();
        let stats = ffc.embed_into(&mut scratch, &faults);
        let dt = t0.elapsed();
        tracer.record("ffc.embed_into", i, t0, t0 + dt);
        let w = out.window((t0 - start).as_nanos() as u64);
        w.latency_ms.push(dt.as_secs_f64() * 1e3);
        w.ops += 1.0;
        w.busy_s += dt.as_secs_f64();
        if let Some(p) = passes.as_mut() {
            let ok = p.time(&ffc, &faults, dt.as_nanos() as f64, stats, tracer, i);
            failed += u64::from(!ok);
        }
        tracer.end(span);
        if i % VERIFY_EVERY == 0 {
            verified += 1;
            failed += u64::from(!verify(n_nodes, stats, scratch.cycle(), &faults));
        }
        embeds += 1;
    }
    out.peak_rss_mb = crate::host::peak_rss_mb();
    out.attempted = embeds;
    out.failed = failed;
    out.notes.push(format!(
        "embed-full graph=B(2,{N}) embeds={embeds} verified_rings={verified} working_set embed_scratch_bytes={}",
        scratch.allocated_bytes()
    ));
    if let Some(p) = passes {
        out.layers = p.metrics();
        out.layers.extend([
            Metric::new(
                "ffc.scratch_mb",
                scratch.allocated_bytes() as f64 / MIB,
                "MB",
            ),
            first_ms(tracer, "ffc.new", "ffc.new_ms"),
            first_ms(tracer, "necklace.partition", "necklace.partition_ms"),
        ]);
    }
    out
}
