//! Valid-region cost (Sec. IV-B): membership tests and projections —
//! paid once per gate transition when region containment is enabled.
//! The `valid_region/*` rows use a synthetic 3,600-point grid;
//! `valid_region_c1355/ci_project` projects the queries the served
//! engine asks the trained `ci` regions.

use std::sync::{Arc, Mutex};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sigcircuit::Benchmark;
use sigsim::{
    digital_to_sigmoid, random_stimuli, train_cell_library_cached, CellModels, CircuitProgram,
    FleetScratch, LibrarySpec, PipelineConfig, SigmoidSimConfig, StimulusSpec,
};
use sigtom::{
    GateModel, TomOptions, TransferFunction, TransferPrediction, TransferQuery, ValidRegion,
};

fn grid(n: usize) -> Vec<[f64; 3]> {
    let mut pts = Vec::with_capacity(n * n * 4);
    for i in 0..n {
        for j in 0..n {
            for k in 0..4 {
                pts.push([
                    i as f64 * 3.0 / n as f64,
                    5.0 + 25.0 * j as f64 / n as f64,
                    -(5.0 + 6.0 * k as f64),
                ]);
            }
        }
    }
    pts
}

fn bench_region(c: &mut Criterion) {
    let region = ValidRegion::build(&grid(30), 3.0); // 3600 points
    let inside = TransferQuery {
        t: 1.5,
        a_in: 15.0,
        a_prev_out: -11.0,
    };
    let outside = TransferQuery {
        t: 40.0,
        a_in: 300.0,
        a_prev_out: 50.0,
    };
    let mut group = c.benchmark_group("valid_region");
    group.bench_function("contains_inside", |b| {
        b.iter(|| region.contains(black_box(&inside)))
    });
    group.bench_function("contains_outside", |b| {
        b.iter(|| region.contains(black_box(&outside)))
    });
    group.bench_function("project_outside", |b| {
        b.iter(|| region.project(black_box(outside)))
    });
    group.finish();

    // Build cost (once per training run).
    let pts = grid(20);
    c.bench_function("region_build_1600pts", |b| {
        b.iter(|| ValidRegion::build(black_box(&pts), 3.0))
    });
}

/// A region-free stand-in for a trained slot model: it logs every
/// (clamped) query the engine asks and answers through the real model,
/// so the engine runs exactly as with the real library.
struct Recorder {
    model: GateModel,
    queries: Mutex<Vec<TransferQuery>>,
}

impl TransferFunction for Recorder {
    fn predict(&self, query: TransferQuery) -> TransferPrediction {
        let mut out = Vec::new();
        self.predict_batch(&[query], &mut out);
        out[0]
    }

    fn predict_batch(&self, queries: &[TransferQuery], out: &mut Vec<TransferPrediction>) {
        self.queries.lock().expect("log").extend_from_slice(queries);
        self.model.predict_batch(&mut queries.to_vec(), out);
    }

    fn backend_name(&self) -> &'static str {
        "recorder"
    }
}

/// Projection on real queries: the trained `ci` NOR-only regions (242–324
/// points per slot, read from the library cached under
/// `target/sigmodels`, trained there on first use), and the queries of
/// four warm c1355 executes on the daemon's stimulus (µ 60 ps, σ 25 ps,
/// 4 transitions, seeds 1000–1003). One iteration projects one
/// execute's queries (7,300–8,000), rotating through the four.
/// [`ValidRegion::project`] never reads the line memo a [`GateModel`]
/// keeps, so this row stays the memo-free search cost even though it
/// repeats four query sets.
fn bench_served_queries(c: &mut Criterion) {
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
    let slots: Vec<(Arc<Recorder>, Arc<ValidRegion>)> = library
        .tags()
        .into_iter()
        .map(|tag| {
            let model = library.model(tag).expect("trained tag");
            let region = Arc::clone(model.region().expect("ci models carry regions"));
            let recorder = Recorder {
                model,
                queries: Mutex::new(Vec::new()),
            };
            (Arc::new(recorder), region)
        })
        .collect();
    let cells = CellModels::from_cells(
        "nor-only",
        library
            .tags()
            .into_iter()
            .zip(&slots)
            .map(|(tag, (rec, _))| {
                let transfer: Arc<dyn TransferFunction + Send + Sync> = Arc::clone(rec) as _;
                (tag, GateModel::new(transfer))
            }),
    );
    let bench = Benchmark::by_name("c1355").expect("benchmark");
    let circuit = Arc::new(bench.nor_mapped.clone());
    let options = TomOptions::default();
    let program =
        CircuitProgram::compile(Arc::clone(&circuit), Arc::new(cells), options).expect("compiles");
    let spec = StimulusSpec::new(60e-12, 25e-12, 4);
    let config = SigmoidSimConfig::default();
    let mut scratch = FleetScratch::new();
    let requests: Vec<Vec<(Arc<ValidRegion>, TransferQuery)>> = (0..4)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let stimuli = random_stimuli(&circuit, &spec, &mut rng)
                .iter()
                .map(|(&net, t)| (net, Arc::new(digital_to_sigmoid(t, options.vdd))))
                .collect();
            program
                .execute_with(&stimuli, &config, &mut scratch)
                .expect("sim");
            slots
                .iter()
                .flat_map(|(rec, region)| {
                    let queries = std::mem::take(&mut *rec.queries.lock().expect("log"));
                    queries.into_iter().map(|q| (Arc::clone(region), q))
                })
                .collect()
        })
        .collect();

    for reqs in &requests {
        for (region, q) in reqs {
            black_box(region.project(*q));
        }
    }

    let mut next = 0;
    let mut group = c.benchmark_group("valid_region_c1355");
    group.sample_size(60);
    group.bench_function("ci_project", |b| {
        b.iter(|| {
            next = (next + 1) % requests.len();
            let mut acc = 0.0;
            for (region, q) in &requests[next] {
                acc += region.project(black_box(*q)).t;
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_region, bench_served_queries);
criterion_main!(benches);
