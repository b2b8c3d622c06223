//! The speed comparison behind Table I's `t_sim` columns: sigmoid
//! prototype vs digital baseline on the same circuit and stimuli (the
//! analog reference's cost is covered by `spice_engine.rs`).
//!
//! The sigmoid rows compare the levelized engine's scheduling modes —
//! `scalar` (per-gate one-shot predictions, the pre-levelization
//! behavior) and `batched` (one `predict_batch` per model and level round,
//! duplicate gates evaluated once) — first with a cheap analytic transfer
//! isolating scheduling overhead, then with untrained paper-architecture
//! MLPs where batched inference is the win. Both modes produce
//! bit-identical traces; only wall-clock differs.
//!
//! Only `program_c1355/ci_nor_only_execute` and `delta_c1355/ci_1edit`
//! run the served workload's engine: the trained `ci` NOR-only library,
//! valid regions included, on the stimuli the daemon draws.
//! `response_c1355/ci_digitize` times the response path after it:
//! digitizing that engine's output traces; `response_c17/ci_digitize`
//! does the same for c17, the circuit scale of the routed small
//! requests. Every other row, the `ann_*`,
//! `fleet_*` and other `delta_*` rows included, uses an analytic
//! transfer or random-weight MLPs without a valid region, so it measures
//! scheduling and inference overhead only and never exercises
//! projection or the snap table.

use std::collections::HashMap;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use digilog::{simulate as simulate_digital, GateChannels, InertialDelay};
use sigcircuit::Benchmark;
use signn::simd::{set_policy, SimdPolicy};
use signn::{Mlp, ScaledModel, Standardizer};
use sigsim::{
    digital_to_sigmoid, random_stimuli, simulate_cells_with, train_cell_library_cached, CellModels,
    CircuitProgram, FleetScratch, LibrarySpec, PipelineConfig, SigmoidSimConfig, StimulusEdit,
    StimulusSpec,
};
use sigtom::{
    AnnTransfer, GateModel, TomOptions, TransferFunction, TransferPrediction, TransferQuery,
};
use sigwave::SigmoidTrace;

type NetTraces = HashMap<sigcircuit::NetId, Arc<SigmoidTrace>>;

/// A cheap analytic transfer so the scheduling rows isolate simulator
/// overhead from inference cost (which the `ann_*` rows and
/// `transfer_backends.rs` measure).
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

/// One model in all four slots of the paper's `nor-only` set.
fn nor_only_cells(model: GateModel) -> CellModels {
    CellModels::from_cells(
        "nor-only",
        LibrarySpec::nor_only()
            .tags
            .into_iter()
            .map(|tag| (tag, model.clone())),
    )
}

/// Untrained paper-architecture networks: real `3 → 10 → 10 → 5 → 1`
/// inference cost without a training campaign in the bench.
fn synthetic_ann_models() -> CellModels {
    let net = |seed: u64| {
        ScaledModel::new(
            Mlp::paper_architecture(3, seed),
            Standardizer::identity(3),
            Standardizer::identity(1),
        )
    };
    let ann = AnnTransfer::from_parts(net(1), net(2), net(3), net(4));
    nor_only_cells(GateModel::new(Arc::new(ann)))
}

fn bench_simulators(c: &mut Criterion) {
    let scheduling_modes = [
        ("scalar", SigmoidSimConfig::scalar()),
        ("batched", SigmoidSimConfig::default()),
    ];
    for name in ["c17", "c499", "c1355"] {
        let bench = Benchmark::by_name(name).expect("benchmark");
        let circuit = bench.nor_mapped.clone();
        let mut rng = StdRng::seed_from_u64(4);
        let spec = StimulusSpec::fast();
        let digital_stimuli: HashMap<_, _> = circuit
            .inputs()
            .iter()
            .map(|&i| (i, spec.sample(&mut rng)))
            .collect();
        let sigmoid_stimuli: NetTraces = digital_stimuli
            .iter()
            .map(|(&i, t)| (i, Arc::new(digital_to_sigmoid(t, 0.8))))
            .collect();
        let analytic = nor_only_cells(GateModel::new(Arc::new(Analytic)));
        let ann = synthetic_ann_models();
        let channels = GateChannels::uniform(&circuit, InertialDelay::symmetric(5.5e-12));

        let mut group = c.benchmark_group(format!("simulate_{name}"));
        group.sample_size(20);
        for (label, config) in scheduling_modes {
            group.bench_function(label, |b| {
                b.iter(|| {
                    simulate_cells_with(
                        black_box(&circuit),
                        &sigmoid_stimuli,
                        &analytic,
                        TomOptions::default(),
                        &config,
                    )
                    .expect("sim")
                })
            });
        }
        for (label, config) in scheduling_modes {
            group.bench_function(format!("ann_{label}"), |b| {
                b.iter(|| {
                    simulate_cells_with(
                        black_box(&circuit),
                        &sigmoid_stimuli,
                        &ann,
                        TomOptions::default(),
                        &config,
                    )
                    .expect("sim")
                })
            });
        }
        group.bench_function("digital", |b| {
            b.iter(|| {
                simulate_digital(black_box(&circuit), &digital_stimuli, &channels).expect("sim")
            })
        });
        group.finish();
    }
}

/// One uniform cell set over every native kind.
fn uniform_native_cells(model: GateModel) -> CellModels {
    CellModels::uniform("native", model)
}

/// Native-library vs NOR-mapped rows: the same original netlist and
/// stimuli driven through both mapped forms with the same (analytic or
/// ANN) transfer cost per query — so the row difference is the mapping
/// blow-up itself (c1355 carries ~4× fewer native cells than NOR gates),
/// the tentpole's wall-clock claim.
fn bench_mapping_policies(c: &mut Criterion) {
    for name in ["c17", "c1355"] {
        let bench = Benchmark::by_name(name).expect("benchmark");
        let mut rng = StdRng::seed_from_u64(4);
        let spec = StimulusSpec::fast();
        let digital_stimuli: HashMap<_, _> = bench
            .original
            .inputs()
            .iter()
            .map(|&i| (i, spec.sample(&mut rng)))
            .collect();
        let analytic_nor = nor_only_cells(GateModel::new(Arc::new(Analytic)));
        let analytic_native = uniform_native_cells(GateModel::new(Arc::new(Analytic)));
        let ann_native = {
            let net = |seed: u64| {
                ScaledModel::new(
                    Mlp::paper_architecture(3, seed),
                    Standardizer::identity(3),
                    Standardizer::identity(1),
                )
            };
            let ann = AnnTransfer::from_parts(net(1), net(2), net(3), net(4));
            uniform_native_cells(GateModel::new(Arc::new(ann)))
        };
        let ann_nor = synthetic_ann_models();

        let mut group = c.benchmark_group(format!("mapping_{name}"));
        group.sample_size(20);
        let config = SigmoidSimConfig::default();
        // The two mapped forms share input names in position order.
        let stimuli_for = |circuit: &sigcircuit::Circuit| -> NetTraces {
            circuit
                .inputs()
                .iter()
                .zip(bench.original.inputs())
                .map(|(&i, orig)| (i, Arc::new(digital_to_sigmoid(&digital_stimuli[orig], 0.8))))
                .collect()
        };
        let nor_stimuli = stimuli_for(&bench.nor_mapped);
        let native_stimuli = stimuli_for(&bench.native);
        group.bench_function(
            format!("nor_only_{}_gates", bench.nor_mapped.gates().len()),
            |b| {
                b.iter(|| {
                    simulate_cells_with(
                        black_box(&bench.nor_mapped),
                        &nor_stimuli,
                        &analytic_nor,
                        TomOptions::default(),
                        &config,
                    )
                    .expect("sim")
                })
            },
        );
        group.bench_function(
            format!("native_{}_gates", bench.native.gates().len()),
            |b| {
                b.iter(|| {
                    simulate_cells_with(
                        black_box(&bench.native),
                        &native_stimuli,
                        &analytic_native,
                        TomOptions::default(),
                        &config,
                    )
                    .expect("sim")
                })
            },
        );
        group.bench_function("ann_nor_only", |b| {
            b.iter(|| {
                simulate_cells_with(
                    black_box(&bench.nor_mapped),
                    &nor_stimuli,
                    &ann_nor,
                    TomOptions::default(),
                    &config,
                )
                .expect("sim")
            })
        });
        group.bench_function("ann_native", |b| {
            b.iter(|| {
                simulate_cells_with(
                    black_box(&bench.native),
                    &native_stimuli,
                    &ann_native,
                    TomOptions::default(),
                    &config,
                )
                .expect("sim")
            })
        });
        group.finish();
    }
}

/// Compile-once / execute-many rows: per circuit and library,
/// `compile` prices the one-off circuit-dependent work
/// ([`CircuitProgram::compile`]: validation, slot resolution, plan
/// templates), `execute` the steady-state per-request work against the
/// resident program with a reused [`FleetScratch`], and `legacy` the fused
/// entry point paying both per call — the service's warm-path win is
/// `legacy − execute`.
fn bench_program(c: &mut Criterion) {
    for name in ["c17", "c499", "c1355"] {
        let bench = Benchmark::by_name(name).expect("benchmark");
        let mut rng = StdRng::seed_from_u64(4);
        let spec = StimulusSpec::fast();
        let digital_stimuli: HashMap<_, _> = bench
            .original
            .inputs()
            .iter()
            .map(|&i| (i, spec.sample(&mut rng)))
            .collect();
        let stimuli_for = |circuit: &sigcircuit::Circuit| -> NetTraces {
            circuit
                .inputs()
                .iter()
                .zip(bench.original.inputs())
                .map(|(&i, orig)| (i, Arc::new(digital_to_sigmoid(&digital_stimuli[orig], 0.8))))
                .collect()
        };
        let libraries: [(&str, Arc<sigcircuit::Circuit>, Arc<CellModels>); 2] = [
            (
                "nor_only",
                Arc::new(bench.nor_mapped.clone()),
                Arc::new(nor_only_cells(GateModel::new(Arc::new(Analytic)))),
            ),
            (
                "native",
                Arc::new(bench.native.clone()),
                Arc::new(uniform_native_cells(GateModel::new(Arc::new(Analytic)))),
            ),
        ];
        let mut group = c.benchmark_group(format!("program_{name}"));
        group.sample_size(20);
        let config = SigmoidSimConfig::default();
        for (library, circuit, cells) in libraries {
            let stimuli = stimuli_for(&circuit);
            group.bench_function(format!("{library}_compile"), |b| {
                b.iter(|| {
                    CircuitProgram::compile(
                        Arc::clone(black_box(&circuit)),
                        Arc::clone(&cells),
                        TomOptions::default(),
                    )
                    .expect("compiles")
                })
            });
            let program = CircuitProgram::compile(
                Arc::clone(&circuit),
                Arc::clone(&cells),
                TomOptions::default(),
            )
            .expect("compiles");
            let mut scratch = FleetScratch::new();
            group.bench_function(format!("{library}_execute"), |b| {
                b.iter(|| {
                    program
                        .execute_with(black_box(&stimuli), &config, &mut scratch)
                        .expect("sim")
                })
            });
            group.bench_function(format!("{library}_legacy"), |b| {
                b.iter(|| {
                    simulate_cells_with(
                        black_box(&circuit),
                        &stimuli,
                        &cells,
                        TomOptions::default(),
                        &config,
                    )
                    .expect("sim")
                })
            });
        }
        group.finish();
    }
}

/// The served request on benchmark circuit `name`: its NOR mapping
/// compiled on the trained `ci` library (trained once and cached under
/// `target/sigmodels`, as the daemon caches it), plus 16 stimulus sets
/// drawn like the daemon's (µ 60 ps, σ 25 ps, 4 transitions; seeds
/// 1000–1015).
fn served(name: &str) -> (Arc<sigcircuit::Circuit>, CircuitProgram, Vec<NetTraces>) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/sigmodels/ci.nor-only.json"
    );
    let library = train_cell_library_cached(
        std::path::Path::new(path),
        &LibrarySpec::nor_only(),
        &PipelineConfig::ci(),
    )
    .expect("ci library trains");
    let bench = Benchmark::by_name(name).expect("benchmark");
    let circuit = Arc::new(bench.nor_mapped.clone());
    let options = TomOptions::default();
    let program = CircuitProgram::compile(
        Arc::clone(&circuit),
        Arc::new(library.cell_models()),
        options,
    )
    .expect("compiles");
    let sets = served_sets(&circuit, 1000, 16);
    (circuit, program, sets)
}

/// `count` served stimulus sets of `circuit`, from seeds `first..`.
fn served_sets(circuit: &sigcircuit::Circuit, first: u64, count: u64) -> Vec<NetTraces> {
    let spec = StimulusSpec::new(60e-12, 25e-12, 4);
    let vdd = TomOptions::default().vdd;
    (first..first + count)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            random_stimuli(circuit, &spec, &mut rng)
                .iter()
                .map(|(&net, t)| (net, Arc::new(digital_to_sigmoid(t, vdd))))
                .collect()
        })
        .collect()
}

/// Stimulus sets the trained rows execute before timing, so the model
/// set's snap-search line memos are warm, as in a daemon that has served
/// a few hundred requests (seeds 20,000 on).
const WARM_SETS: u64 = 256;
/// The fresh stimulus stream of the trained rows (seeds 30,000 on): each
/// iteration takes the next set, so no timed input repeats one the memo
/// has seen until the stream wraps. A default run (0.3 s warm-up plus 60
/// samples of ≈ 5 ms) takes ~600 of them.
const FRESH_SETS: u64 = 2048;

/// The served c1355 program after [`WARM_SETS`] executes, and the
/// [`FRESH_SETS`] stream the timed iterations draw from.
fn warm_served_c1355() -> (Arc<sigcircuit::Circuit>, CircuitProgram, Vec<NetTraces>) {
    let (circuit, program, _) = served("c1355");
    let mut scratch = FleetScratch::new();
    for set in served_sets(&circuit, 20_000, WARM_SETS) {
        program.execute(&set, &mut scratch).expect("sim");
    }
    let stream = served_sets(&circuit, 30_000, FRESH_SETS);
    (circuit, program, stream)
}

/// The served workload's engine: warm executes of the served c1355
/// request, each iteration on the next stimulus set of a fresh stream.
/// Most rows snap onto the valid region, so this row covers the snap
/// search, its line memo and the snap table. Fresh sets matter: a memo
/// answers every row of a set it has seen.
fn bench_trained_program(c: &mut Criterion) {
    let (_, program, stream) = warm_served_c1355();
    let config = SigmoidSimConfig::default();
    let mut scratch = FleetScratch::new();
    let mut next = 0;
    let mut group = c.benchmark_group("program_c1355");
    group.sample_size(60);
    group.bench_function("ci_nor_only_execute", |b| {
        b.iter(|| {
            next = (next + 1) % stream.len();
            program
                .execute_with(black_box(&stream[next]), &config, &mut scratch)
                .expect("sim")
        })
    });
    group.finish();
}

/// The response path after the engine: every `sim` response digitizes
/// each primary output at `vdd / 2`. Each iteration digitizes the output
/// traces (2 for c17, 32 for c1355) of the next of 16 recorded executes
/// of the served request on the NOR-only `ci` library.
fn bench_response_digitize(c: &mut Criterion) {
    for name in ["c17", "c1355"] {
        let (circuit, program, sets) = served(name);
        let config = SigmoidSimConfig::default();
        let mut scratch = FleetScratch::new();
        let outputs: Vec<Vec<SigmoidTrace>> = sets
            .iter()
            .map(|set| {
                let result = program
                    .execute_with(set, &config, &mut scratch)
                    .expect("sim");
                circuit
                    .outputs()
                    .iter()
                    .map(|&o| result.trace(o).clone())
                    .collect()
            })
            .collect();
        let threshold = TomOptions::default().vdd / 2.0;
        let mut next = 0;
        let mut group = c.benchmark_group(format!("response_{name}"));
        group.sample_size(60);
        group.bench_function("ci_digitize", |b| {
            b.iter(|| {
                next = (next + 1) % outputs.len();
                outputs[next]
                    .iter()
                    .map(|trace| black_box(trace).digitize(threshold).len())
                    .sum::<usize>()
            })
        });
        group.finish();
    }
}

/// Incremental-engine scheduling rows: a resident session absorbs
/// stimulus edits against its committed state. `1edit` re-evaluates a
/// single input cone, `10pct_edits` a tenth of the inputs, and `full` is
/// the warm full execute of the same compiled program with a reused
/// scratch. They run the `Analytic` transfer without a valid region, so
/// they measure scheduling only; `delta_c1355/ci_1edit` is the row on
/// trained models. Every iteration alternates the edited inputs between
/// two distinct traces: re-submitting the committed trace converges
/// after zero gate evaluations under the cutoff and would measure
/// nothing.
fn bench_delta(c: &mut Criterion) {
    for name in ["c17", "c1355"] {
        let bench = Benchmark::by_name(name).expect("benchmark");
        let circuit = Arc::new(bench.nor_mapped.clone());
        let cells = Arc::new(nor_only_cells(GateModel::new(Arc::new(Analytic))));
        let program = CircuitProgram::compile(Arc::clone(&circuit), cells, TomOptions::default())
            .expect("compiles");
        let mut rng = StdRng::seed_from_u64(4);
        let spec = StimulusSpec::fast();
        let baseline: NetTraces = circuit
            .inputs()
            .iter()
            .map(|&i| (i, Arc::new(digital_to_sigmoid(&spec.sample(&mut rng), 0.8))))
            .collect();
        let alternate: NetTraces = circuit
            .inputs()
            .iter()
            .map(|&i| (i, Arc::new(digital_to_sigmoid(&spec.sample(&mut rng), 0.8))))
            .collect();
        let inputs = circuit.inputs().to_vec();
        let edits_from = |count: usize, source: &NetTraces| -> Vec<StimulusEdit> {
            inputs[..count]
                .iter()
                .map(|&net| StimulusEdit {
                    net,
                    trace: Arc::clone(&source[&net]),
                })
                .collect()
        };
        let mut scratch = FleetScratch::new();
        let mut group = c.benchmark_group(format!("delta_{name}"));
        group.sample_size(20);
        for (label, count) in [("1edit", 1), ("10pct_edits", inputs.len().div_ceil(10))] {
            let to_alternate = edits_from(count, &alternate);
            let to_baseline = edits_from(count, &baseline);
            let mut state = program
                .open_session(&baseline, &mut scratch)
                .expect("opens");
            let mut flip = false;
            group.bench_function(label, |b| {
                b.iter(|| {
                    flip = !flip;
                    let edits = if flip { &to_alternate } else { &to_baseline };
                    program
                        .execute_delta(black_box(&mut state), edits)
                        .expect("delta")
                })
            });
        }
        group.bench_function("full", |b| {
            b.iter(|| {
                program
                    .execute_with(
                        black_box(&baseline),
                        &SigmoidSimConfig::default(),
                        &mut scratch,
                    )
                    .expect("sim")
            })
        });
        group.finish();
    }
}

/// A single-input delta on the served c1355 request: a session opened on
/// warm models, and each iteration edits the next primary input to its
/// trace in the next set of the fresh stream (the stream's sets differ
/// from the committed ones, so every edit changes its input). The warm
/// full execute a delta saves is `program_c1355/ci_nor_only_execute`.
fn bench_trained_delta(c: &mut Criterion) {
    let (circuit, program, stream) = warm_served_c1355();
    let opened = served_sets(&circuit, 1000, 1);
    let mut state = program
        .open_session(&opened[0], &mut FleetScratch::new())
        .expect("opens");
    let inputs = circuit.inputs();
    let mut next = 0;
    let mut group = c.benchmark_group("delta_c1355");
    group.sample_size(60);
    group.bench_function("ci_1edit", |b| {
        b.iter(|| {
            next += 1;
            let net = inputs[next % inputs.len()];
            let edit = StimulusEdit {
                net,
                trace: Arc::clone(&stream[next % stream.len()][&net]),
            };
            program
                .execute_delta(black_box(&mut state), &[edit])
                .expect("delta")
        })
    });
    group.finish();
}

/// Fleet rows (this tentpole's wall-clock claim): a 16-run c1355
/// Monte-Carlo-style campaign with real ANN inference, executed three
/// ways. `per_run_scalar` is the reference per-run path — 16 sequential
/// solo executions of [`SigmoidSimConfig::scalar`] (per-gate one-shot
/// predictions, the configuration documented as the baseline every other
/// setting must match bit for bit) with the SIMD kernels forced off.
/// `per_run_batched` adds level batching and duplicate-gate elimination,
/// still per run and still SIMD-off. `fleet` is one
/// [`CircuitProgram::execute_fleet`] lockstep execution under the
/// runtime-detected kernels — the full optimization stack. Traces are
/// bit-identical at every setting (the fleet and SIMD proptests enforce
/// it); only wall-clock differs, and every row covers the same 16 runs
/// per iteration, so the medians compare directly. Acceptance for the
/// perf work is `per_run_scalar / fleet >= 4`.
fn bench_fleet(c: &mut Criterion) {
    let runs = 16u64;
    let bench = Benchmark::by_name("c1355").expect("benchmark");
    let circuit = Arc::new(bench.nor_mapped.clone());
    let cells = Arc::new(synthetic_ann_models());
    let program = CircuitProgram::compile(Arc::clone(&circuit), cells, TomOptions::default())
        .expect("compiles");
    let spec = StimulusSpec::fast();
    let sets: Vec<NetTraces> = (0..runs)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(4 ^ (r << 16));
            circuit
                .inputs()
                .iter()
                .map(|&i| (i, Arc::new(digital_to_sigmoid(&spec.sample(&mut rng), 0.8))))
                .collect()
        })
        .collect();
    let batched = SigmoidSimConfig::default();
    let mut group = c.benchmark_group("fleet_c1355");
    group.sample_size(10);
    let mut scratch = FleetScratch::new();
    for (label, config) in [
        ("per_run_scalar", SigmoidSimConfig::scalar()),
        ("per_run_batched", batched),
    ] {
        group.bench_function(format!("{label}_{runs}_runs"), |b| {
            set_policy(SimdPolicy::Off);
            b.iter(|| {
                for stimuli in &sets {
                    program
                        .execute_with(black_box(stimuli), &config, &mut scratch)
                        .expect("sim");
                }
            });
            set_policy(SimdPolicy::Auto);
        });
    }
    let mut fleet_scratch = FleetScratch::new();
    group.bench_function(format!("fleet_{runs}_runs"), |b| {
        set_policy(SimdPolicy::Auto);
        b.iter(|| {
            program
                .execute_fleet_with(black_box(&sets), &batched, &mut fleet_scratch)
                .expect("fleet")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulators,
    bench_mapping_policies,
    bench_program,
    bench_trained_program,
    bench_response_digitize,
    bench_delta,
    bench_trained_delta,
    bench_fleet
);
criterion_main!(benches);
