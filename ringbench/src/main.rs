//! The ring benchmark: one command, three workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! ringbench --workload <serve-churn|embed-full|sweep> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end list; with `--trace 1` they are the
//! per-layer list. See README.md beside this crate for what each metric
//! means on each workload.

#![forbid(unsafe_code)]

mod embed;
mod host;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::{median, summarize};
use trace::Tracer;

pub const MIB: f64 = (1u64 << 20) as f64;

/// Expected range of `trace.overhead_pct`. Outside it the traced run
/// warns but stays valid: run-to-run noise of this size is common on a
/// shared host, so it cannot be told apart from tracing cost.
const MAX_OVERHEAD_PCT: f64 = 25.0;

/// End-to-end metrics, printed for every workload: name and unit. Tails
/// are printed but not listed: on a shared host the p90 of a run measures
/// how much of it other tenants slowed down (its spread over ten seeds
/// reached 42%).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("session.repair_us_p50", "us"),
    ("session.repair_us_p99", "us"),
    ("session.delta_ratio", "ratio"),
    ("snapshot.publish_us_p50", "us"),
    ("snapshot.publish_us_p99", "us"),
    ("snapshot.shared_ring_ratio", "ratio"),
    ("snapshot.shared_membership_ratio", "ratio"),
    ("snapshot.shared_levels_ratio", "ratio"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.events_per_batch", "count"),
    ("serve.queue_depth_max", "count"),
    ("reader.lookup_ns_p50", "ns"),
    ("reader.refresh_ns_p50", "ns"),
    ("reader.reloads", "count"),
    ("snapshot.reclaimed_ratio", "ratio"),
    ("session.allocated_mb", "MB"),
    ("ffc.scratch_mb", "MB"),
    ("bitreach.mark_us", "us"),
    ("ffc.root_us", "us"),
    ("bitreach.forward_ms", "ms"),
    ("bitreach.backward_ms", "ms"),
    ("bitreach.broadcast_ms", "ms"),
    ("ffc.select_wire_readoff_ms", "ms"),
    ("sweep.stats_embed_us_p50", "us"),
    ("sweep.draw_us_p50", "us"),
    ("sweep.shard_scaling", "ratio"),
    ("necklace.partition_ms", "ms"),
    ("ffc.new_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("gen.lag_us_p99", "us"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per untraced run. Each takes a tenth of a second or less, and
/// their median is steadier than any one of them.
const SETUPS: usize = 9;

/// How a workload run is sized.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Set-ups per run; the reported set-up time is their median.
    pub setups: usize,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Length of the windows a run's time is cut into. Latency percentiles and
/// throughput are taken per window and reported at the window that is
/// better than all but [`BEST_WINDOW_PCT`] percent of them (the eighth
/// best of 80 in a 20-second run). Other tenants of a shared host only ever
/// slow a window down, so interference in most windows leaves the figure
/// alone, while a slower program moves every window. Quiet spells on such a
/// host are often shorter than a second: over five seeds, quarter-second
/// windows cut the sweep's throughput spread from 11% to 5% of the median,
/// where one-second windows missed them.
pub const WINDOW_NS: u64 = 250_000_000;
const BEST_WINDOW_PCT: f64 = 10.0;

/// What one window of a run measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each operation started (or due) in the window; infinite
    /// for an operation that failed.
    pub latency_ms: Vec<f64>,
    /// Operations counted by `ops_per_s`, over `busy_s` seconds.
    pub ops: f64,
    pub busy_s: f64,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: submits, lookup pairs, embeds or trials.
    pub attempted: u64,
    /// Rejected operations plus failed correctness checks.
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub windows: Vec<Window>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Facts and warnings printed before the result line.
    pub notes: Vec<String>,
    /// Reasons the run's figures cannot be trusted.
    pub invalid: Vec<String>,
}

impl Outcome {
    /// The window holding time `ns` since the measured window opened.
    pub fn window(&mut self, ns: u64) -> &mut Window {
        let i = (ns / WINDOW_NS) as usize;
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Window::default);
        }
        &mut self.windows[i]
    }

    /// The per-window `p`-th latency percentile, at the near-best window.
    fn latency_ms(&self, p: f64) -> f64 {
        let mut per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.latency_ms.is_empty())
            .map(|w| {
                let mut v = w.latency_ms.clone();
                v.sort_by(f64::total_cmp);
                stats::percentile(&v, p)
            })
            .collect();
        per.sort_by(f64::total_cmp);
        stats::percentile(&per, BEST_WINDOW_PCT)
    }

    /// The per-window throughput, at the near-best window.
    fn ops_per_s(&self) -> f64 {
        let mut per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.busy_s > 0.0)
            .map(|w| w.ops / w.busy_s)
            .collect();
        per.sort_by(f64::total_cmp);
        stats::percentile(&per, 100.0 - BEST_WINDOW_PCT)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeChurn,
    EmbedFull,
    Sweep,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ServeChurn, Workload::EmbedFull, Workload::Sweep];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeChurn => "serve-churn",
            Workload::EmbedFull => "embed-full",
            Workload::Sweep => "sweep",
        }
    }

    /// The workload's own names for its latency and throughput, and the
    /// factor from ms to the latency's unit.
    fn labels(self) -> (&'static str, &'static str, f64, &'static str) {
        match self {
            Workload::ServeChurn => ("visible", "us", 1e3, "writer_batches_per_s"),
            Workload::EmbedFull => ("embed", "ms", 1.0, "embeds_per_s"),
            Workload::Sweep => ("sweep_plan", "ms", 1.0, "sweep_trials_per_s"),
        }
    }

    fn run(self, cfg: &Config, tracer: &mut Tracer) -> Outcome {
        match self {
            Workload::ServeChurn => serve::run(cfg, tracer),
            Workload::EmbedFull => embed::run(cfg, tracer),
            Workload::Sweep => sweep::run(cfg, tracer),
        }
    }
}

/// SplitMix64: the benchmark's own generator for lookups and seeds.
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seed derived from `seed` and an index, independent across indices.
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// FNV-1a over node ids, for printing a ring's fingerprint.
#[must_use]
pub fn fnv1a(ring: &[usize]) -> u64 {
    ring.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ v as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The first span named `span` as a metric in ms.
#[must_use]
pub fn first_ms(tracer: &Tracer, span: &str, metric: &'static str) -> Metric {
    let ns = tracer.durations(span).first().copied().unwrap_or(f64::NAN);
    Metric::new(metric, ns / 1e6, "ms")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing {k}"));
    let name = take("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end metrics of an untraced run, printed by name as well:
/// first over the whole run, with the tail rule, then the near-best-window
/// figures that are gated.
fn end_to_end(w: Workload, out: &mut Outcome) -> Vec<Metric> {
    let mut all: Vec<f64> = out
        .windows
        .iter()
        .flat_map(|w| w.latency_ms.iter().copied())
        .collect();
    let lat = summarize(&mut all);
    let setup = median(&mut out.setup_s);
    let (what, unit, scale, ops_name) = w.labels();
    let name = w.name();
    let tail = format!("{}", lat.tail_pct).replace('.', "");
    println!(
        "{name} {what}_p50_{unit}={} {unit} (whole run, n={})",
        lat.p50 * scale,
        lat.n
    );
    println!(
        "{name} {what}_p{tail}_{unit}={} {unit} (whole run, n={})",
        lat.tail * scale,
        lat.n
    );
    let (p50, p90, ops) = (out.latency_ms(50.0), out.latency_ms(90.0), out.ops_per_s());
    let windows = out.windows.len();
    println!(
        "{name} {what}_p50_{unit}={} {unit} (near-best of {windows} windows)",
        p50 * scale
    );
    println!(
        "{name} {what}_p90_{unit}={} {unit} (near-best of {windows} windows)",
        p90 * scale
    );
    println!("{name} {ops_name}={ops} 1/s (near-best of {windows} windows)");
    let per: Vec<String> = out
        .windows
        .iter()
        .map(|w| format!("{:.4}", w.ops / w.busy_s))
        .collect();
    println!("{name} {ops_name} per window: {}", per.join(" "));
    println!("{name} setup_s={setup} s (median of {})", out.setup_s.len());
    println!("{name} peak_rss_mb={} MB", out.peak_rss_mb);
    let values = [setup, p50, ops, out.peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// The traced run: the named workload once untraced, then every workload
/// traced, each for a third of the time, so that each layer's metrics come
/// from the workload that exercises it and the per-layer list is complete
/// on every workload. Set-up layers and the overhead are the named
/// workload's own.
fn traced(args: &Args) -> (Vec<Metric>, Vec<Outcome>) {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds as f64 / 3.0,
        setups: 1,
    };
    let base = args.workload.run(&cfg, &mut Tracer::new(false));
    let mut layers: BTreeMap<&'static str, Metric> = BTreeMap::new();
    let mut outcomes = vec![];
    let mut overhead = f64::NAN;
    let order = Workload::ALL.into_iter().filter(|&w| w != args.workload);
    for w in order.chain([args.workload]) {
        let mut tracer = Tracer::new(true);
        let out = w.run(&cfg, &mut tracer);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-{}-{}.jsonl",
                args.workload.name(),
                w.name(),
                args.seed
            ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"host_cpus\":{},\"l3_bytes\":{}}}",
            w.name(),
            args.seed,
            args.seconds,
            host::cpus(),
            host::l3_bytes().unwrap_or(0)
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!("spans {} -> {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        for (name, t) in tracer.totals_by_name() {
            println!(
                "self_time {} {name} count={} total_ms={:.3} self_ms={:.3}",
                w.name(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        // The named workload runs last, so its set-up layers win.
        for m in &out.layers {
            layers.insert(m.name, m.clone());
        }
        if w == args.workload {
            overhead = 100.0 * (base.ops_per_s() / out.ops_per_s() - 1.0);
            if overhead.abs() > MAX_OVERHEAD_PCT {
                println!("WARN trace.overhead_pct={overhead:.1} is outside ±{MAX_OVERHEAD_PCT}");
            }
        }
        outcomes.push(out);
    }
    outcomes.push(base);
    layers.insert(
        "trace.overhead_pct",
        Metric::new("trace.overhead_pct", overhead, "%"),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = layers
                .remove(name)
                .unwrap_or(Metric::new(name, f64::NAN, unit));
            assert_eq!(m.unit, unit, "unit of {name}");
            m
        })
        .collect();
    (metrics, outcomes)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ringbench: {e}");
            eprintln!(
                "usage: ringbench --workload <serve-churn|embed-full|sweep> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "host host_cpus={} l3_bytes={} workload={} seed={} seconds={} trace={}",
        host::cpus(),
        host::l3_bytes().map_or("unknown".into(), |b| b.to_string()),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, outcomes) = if args.trace {
        traced(&args)
    } else {
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds as f64,
            setups: SETUPS,
        };
        let mut out = args.workload.run(&cfg, &mut Tracer::new(false));
        (end_to_end(args.workload, &mut out), vec![out])
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for out in &outcomes {
        for note in &out.notes {
            println!("{note}");
        }
        for why in &out.invalid {
            println!("INVALID {why}");
        }
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.invalid.is_empty();
    }
    for m in &metrics {
        if !m.value.is_finite() {
            println!("INVALID metric {} is not a finite number", m.name);
            correct = false;
        }
        if args.trace {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    }
    correct &= failed == 0 && attempted > 0;
    println!(
        "error_rate={} (failed {failed} of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in BENCHMARK.json match what the program emits.
    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
