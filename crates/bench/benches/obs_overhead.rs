//! Observability overhead guard: the same warm compile-once request
//! (`warm_program_active` on c1355, the serving hot path) under each
//! `SIG_OBS` mode, plus microbenchmarks of the disabled primitives.
//!
//! The contract the rows enforce (see `docs/observability.md`):
//!
//! * `off` vs `counters` on the warm request must stay within noise —
//!   the acceptance threshold is 2%. Every instrumented point in the
//!   engine and service collapses to one relaxed atomic load when the
//!   mode says no, so the gap is a handful of loads per request.
//! * the `off` microbenchmark rows (`hist_record`, `stopwatch`, `span`)
//!   document that a disabled observation point costs nanoseconds —
//!   cheap enough to instrument hot loops unconditionally.
//!
//! Modes are switched with [`sigobs::set_mode`] around each row (the
//! mode is process-global; Criterion runs rows sequentially, so each
//! row owns the process while it runs).

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sigserve::protocol::{CircuitSource, SimRequest};
use sigserve::{ModelSet, Service, ServiceConfig};
use sigtom::{GateModel, TomOptions, TransferFunction, TransferPrediction, TransferQuery};

struct Fixed;
impl TransferFunction for Fixed {
    fn predict(&self, q: TransferQuery) -> TransferPrediction {
        TransferPrediction {
            a_out: -q.a_in.signum() * 14.0,
            delay: 0.05,
        }
    }
    fn backend_name(&self) -> &'static str {
        "fixed"
    }
}

fn bench_service() -> Arc<Service> {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert(ModelSet {
        name: "bench".to_string(),
        library: "nor-only".to_string(),
        policy: sigcircuit::MappingPolicy::NorOnly,
        cells: Arc::new(sigsim::CellModels::from_cells(
            "nor-only",
            sigsim::LibrarySpec::nor_only()
                .tags
                .into_iter()
                .map(|tag| (tag, GateModel::new(Arc::new(Fixed)))),
        )),
        delays: sigserve::registry::DelaySource::none(),
        options: TomOptions::default(),
    });
    service
}

fn warm_request() -> SimRequest {
    let text = sigcircuit::to_bench(
        &sigcircuit::Benchmark::by_name("c1355")
            .expect("benchmark")
            .original,
    );
    SimRequest {
        circuit: CircuitSource::Inline(text),
        models: "bench".to_string(),
        library: "nor-only".to_string(),
        seed: 7,
        mu: 60e-12,
        sigma: 25e-12,
        transitions: 1,
        compare: false,
        timing: false,
        timings: false,
    }
}

/// The guard rows: `warm_program_active/{off,counters,trace}`. CI
/// compares `off` against `counters` and fails the job if counters cost
/// more than the 2% acceptance threshold.
fn bench_modes(c: &mut Criterion) {
    let service = bench_service();
    let request = warm_request();
    service.execute_sim(&request).expect("prime program");
    let mut group = c.benchmark_group("obs_overhead/warm_program_active");
    group.sample_size(20);
    for mode in [
        sigobs::ObsMode::Off,
        sigobs::ObsMode::Counters,
        sigobs::ObsMode::Trace,
    ] {
        sigobs::set_mode(mode);
        group.bench_function(mode.as_str(), |b| {
            b.iter(|| {
                let result = service
                    .execute_sim(black_box(&request))
                    .expect("warm request");
                black_box(result.outputs.len())
            });
        });
    }
    sigobs::set_mode(sigobs::ObsMode::Off);
    group.finish();
}

/// The primitives a disabled observation point actually executes.
fn bench_primitives(c: &mut Criterion) {
    static HIST: sigobs::Hist = sigobs::Hist::new("bench.overhead");
    let mut group = c.benchmark_group("obs_overhead/primitive");
    for mode in [sigobs::ObsMode::Off, sigobs::ObsMode::Counters] {
        sigobs::set_mode(mode);
        group.bench_function(format!("hist_record_{}", mode.as_str()), |b| {
            b.iter(|| HIST.record_duration(black_box(Duration::from_nanos(1234))));
        });
        group.bench_function(format!("stopwatch_{}", mode.as_str()), |b| {
            b.iter(|| {
                let sw = sigobs::stopwatch();
                sw.observe(black_box(&HIST));
            });
        });
    }
    sigobs::set_mode(sigobs::ObsMode::Trace);
    group.bench_function("span_trace", |b| {
        b.iter(|| {
            let mut span = sigobs::span(black_box("bench.span"));
            span.set_arg("rows", black_box(64));
        });
    });
    // Keep the journal bounded: a drain empties what the row above wrote.
    let (events, _) = sigobs::drain_chrome_trace();
    black_box(events.len());
    sigobs::set_mode(sigobs::ObsMode::Off);
    group.finish();
}

criterion_group!(benches, bench_modes, bench_primitives);
criterion_main!(benches);
