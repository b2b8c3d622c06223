//! Wall-clock scaling of the worker-pool layer: the single-thread path
//! (`parallelism = 1`) vs the full pool (`parallelism = 0` → one worker
//! per core) on the three fanned-out hot paths — characterization sweeps,
//! four-network ANN training, and multi-seed Monte-Carlo comparison.
//!
//! On a host with ≥ 4 cores the `pool` rows should run ≥ 2× faster than
//! their `serial` counterparts (the work items are coarse and
//! independent); on a single-core host both paths collapse to the same
//! sequential loop.

use std::collections::HashMap;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use nanospice::EngineConfig;
use sigchar::{
    characterize, AnalogOptions, CharacterizationConfig, DelayTable, GateTag, PulseSweep,
};
use sigsim::{
    compare_circuit_monte_carlo_cells, CellModels, HarnessConfig, LibrarySpec, MonteCarloConfig,
    StimulusSpec,
};
use sigtom::{
    AnnTrainConfig, AnnTransfer, GateModel, TransferFunction, TransferPrediction, TransferQuery,
};

fn sweep_config(parallelism: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        sweep: PulseSweep {
            min: 8e-12,
            max: 20e-12,
            step: 4e-12, // 4 values -> 64 runs
            t0: 60e-12,
        },
        chain_targets: 3,
        parallelism,
        ..CharacterizationConfig::default()
    }
}

fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterize_sweep");
    group.sample_size(10);
    for (label, parallelism) in [("serial", 1), ("pool", 0)] {
        let config = sweep_config(parallelism);
        group.bench_function(label, |b| {
            b.iter(|| characterize(black_box(GateTag::NorFo1), &config).expect("characterize"))
        });
    }
    group.finish();
}

fn bench_ann_training(c: &mut Criterion) {
    // One dataset, reused; only the four-network fan-out varies.
    let dataset = characterize(GateTag::NorFo1, &sweep_config(0))
        .expect("characterize")
        .dataset;
    let mut group = c.benchmark_group("ann_training_4_networks");
    group.sample_size(10);
    for (label, parallelism) in [("serial", 1), ("pool", 0)] {
        let config = AnnTrainConfig {
            epochs: 200,
            patience: 0,
            parallelism,
            ..AnnTrainConfig::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| AnnTransfer::train(black_box(&dataset), &config).expect("train"))
        });
    }
    group.finish();
}

/// A cheap analytic transfer so the Monte-Carlo bench isolates harness
/// fan-out from ANN inference cost.
struct Analytic;

impl TransferFunction for Analytic {
    fn predict(&self, q: TransferQuery) -> TransferPrediction {
        let degradation = 1.0 - (-q.t / 0.2).exp();
        TransferPrediction {
            a_out: -q.a_in.signum() * 14.0 * degradation.max(0.05),
            delay: 0.055,
        }
    }
    fn backend_name(&self) -> &'static str {
        "analytic"
    }
}

fn bench_monte_carlo(c: &mut Criterion) {
    let bench = sigcircuit::Benchmark::by_name("c17").expect("benchmark");
    let circuit = &bench.nor_mapped;
    let model = GateModel::new(Arc::new(Analytic));
    let cells = CellModels::from_cells(
        "nor-only",
        LibrarySpec::nor_only()
            .tags
            .into_iter()
            .map(|tag| (tag, model.clone())),
    );
    let delays = DelayTable::measure(1..=3, &AnalogOptions::default(), &EngineConfig::default())
        .expect("delays");
    let spec = StimulusSpec::fast();
    let config = HarnessConfig::default();

    let mut group = c.benchmark_group("monte_carlo_c17_8_seeds");
    group.sample_size(10);
    for (label, parallelism) in [("serial", 1), ("pool", 0)] {
        let mc = MonteCarloConfig {
            runs: 8,
            seed: 1,
            parallelism,
            fleet: false,
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let outcomes = compare_circuit_monte_carlo_cells(
                    black_box(circuit),
                    &spec,
                    &cells,
                    &delays,
                    &config,
                    &mc,
                )
                .expect("compare");
                let _: HashMap<usize, f64> = outcomes
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (i, o.t_err_sigmoid))
                    .collect();
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_characterization,
    bench_ann_training,
    bench_monte_carlo
);
criterion_main!(benches);
