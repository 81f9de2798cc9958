//! Criterion benchmark: the FFC embedding (Tables 2.1/2.2 workload).
//!
//! Measures the wall-clock cost of one fault-free-cycle embedding as a
//! function of network size and fault count, plus the §2.5.2 simulation
//! loop itself: a full Table 2.1 sweep (B(2,10), f ≤ 8, 1000 trials) run
//! three ways — the textbook reference implementation rebuilt from scratch
//! per trial ("naive"), the engine with a fresh scratch per trial, and the
//! engine with one reused scratch (the production configuration). The
//! naive baseline is kept so every run shows the engine's speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use debruijn_core::oracle::embed_reference;
use debruijn_core::{EmbedScratch, Ffc};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn random_faults(total: usize, f: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (0..total).collect();
    let (chosen, _) = nodes.partial_shuffle(&mut rng, f);
    chosen.to_vec()
}

/// The Table 2.1 trial schedule: `trials` fault sets with f cycling 0..=8.
fn sweep_fault_sets(total: usize, trials: usize, seed: u64) -> Vec<Vec<usize>> {
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

fn bench_ffc_by_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ffc_embed_by_size");
    group.sample_size(10);
    for n in [8u32, 10, 12, 14] {
        let ffc = Ffc::new(2, n);
        let faults = random_faults(ffc.graph().len(), 2, 42);
        let mut scratch = EmbedScratch::new();
        group.bench_with_input(BenchmarkId::new("B(2,n)", n), &n, |b, _| {
            b.iter(|| ffc.embed_into(&mut scratch, &faults));
        });
    }
    for (d, n) in [(4u64, 5u32), (4, 6), (8, 4)] {
        let ffc = Ffc::new(d, n);
        let faults = random_faults(ffc.graph().len(), 2, 42);
        let mut scratch = EmbedScratch::new();
        group.bench_with_input(BenchmarkId::new(format!("B({d},n)"), n), &n, |b, _| {
            b.iter(|| ffc.embed_into(&mut scratch, &faults));
        });
    }
    group.finish();
}

fn bench_ffc_by_fault_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("ffc_embed_by_faults_B(2,10)");
    group.sample_size(10);
    let ffc = Ffc::new(2, 10);
    let mut scratch = EmbedScratch::new();
    for f in [0usize, 1, 5, 10, 30, 50] {
        let faults = random_faults(ffc.graph().len(), f, 7 + f as u64);
        group.bench_with_input(BenchmarkId::from_parameter(f), &f, |b, _| {
            b.iter(|| ffc.embed_into(&mut scratch, &faults));
        });
    }
    group.finish();
}

/// Engine versus reference on a single embedding, at two sizes.
fn bench_engine_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("ffc_engine_vs_reference");
    group.sample_size(10);
    for (d, n) in [(2u64, 10u32), (4, 5)] {
        let ffc = Ffc::new(d, n);
        let faults = random_faults(ffc.graph().len(), 4, 13);
        let mut scratch = EmbedScratch::new();
        group.bench_with_input(
            BenchmarkId::new(format!("engine_B({d},·)"), n),
            &n,
            |b, _| b.iter(|| ffc.embed_into(&mut scratch, &faults)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("reference_B({d},·)"), n),
            &n,
            |b, _| b.iter(|| embed_reference(&ffc, &faults)),
        );
    }
    group.finish();
}

/// The full Table 2.1 Monte-Carlo sweep (B(2,10), f ≤ 8, 1000 trials):
/// the acceptance workload for the engine. One iteration = one sweep.
fn bench_table_2_1_sweep(c: &mut Criterion) {
    let ffc = Ffc::new(2, 10);
    let sets = sweep_fault_sets(ffc.graph().len(), 1000, 0xB210);
    let mut group = c.benchmark_group("table_2_1_sweep_B(2,10)_1000_trials");
    group.sample_size(10);
    group.bench_function("naive_fresh_embed", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for faults in &sets {
                total += embed_reference(&ffc, faults).component_size;
            }
            total
        });
    });
    group.bench_function("engine_fresh_scratch", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for faults in &sets {
                let mut scratch = EmbedScratch::new();
                total += ffc.embed_into(&mut scratch, faults).component_size;
            }
            total
        });
    });
    group.bench_function("engine_reused_scratch", |b| {
        let mut scratch = EmbedScratch::new();
        b.iter(|| {
            let mut total = 0usize;
            for faults in &sets {
                total += ffc.embed_into(&mut scratch, faults).component_size;
            }
            total
        });
    });
    group.finish();
}

fn bench_partition_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ffc_setup");
    group.sample_size(10);
    for n in [10u32, 12, 14] {
        group.bench_with_input(
            BenchmarkId::new("necklace_partition_B(2,n)", n),
            &n,
            |b, &n| {
                b.iter(|| Ffc::new(2, n));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ffc_by_size,
    bench_ffc_by_fault_count,
    bench_engine_vs_reference,
    bench_table_2_1_sweep,
    bench_partition_setup
);
criterion_main!(benches);
