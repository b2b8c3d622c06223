//! Service throughput: N concurrent clients × M requests against one
//! resident [`sigserve::Service`], cold vs warm circuit cache.
//!
//! The service runs synthetic (fixed-transfer) models registered
//! directly in the registry, so the numbers isolate the service layer:
//! request decode, cache lookup (content hash vs `.bench` parse +
//! validation + NOR mapping + fan-out limiting + levelization),
//! scheduling, and the levelized sigmoid engine itself.
//!
//! Requests send the **original** (multi-kind) c1355 netlist inline, so
//! a cache miss pays the full build pipeline — exactly what a fleet
//! client replaying the same netlist would otherwise pay per request.
//! Two stimulus regimes bracket the win:
//!
//! * `settle` (0 transitions, a boolean settle/structure query): request
//!   cost is almost entirely circuit building, so `warm_cache` must run
//!   ≥ 5× faster than `cold_cache` — the repeated-circuit headline.
//! * `active` (1 transition per input): simulation work grows with
//!   stimulus activity and the cache win shrinks toward ~2×; both rows
//!   together show where the cache matters and where the engine does.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sigserve::protocol::{CircuitSource, Request, Response, SessionEdit, SimRequest};
use sigserve::{ModelSet, Service, ServiceConfig, SessionTable};
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

/// A synthetic native cell set: every native cell kind bound to the same
/// fixed transfer, so native rows isolate the gate-count effect.
fn native_cells() -> sigsim::CellModels {
    sigsim::CellModels::uniform("native", GateModel::new(Arc::new(Fixed)))
}

fn bench_service(workers: usize) -> Arc<Service> {
    let service = Service::new(ServiceConfig {
        workers,
        queue_capacity: 512,
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
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
    service.registry().insert(ModelSet {
        name: "bench".to_string(),
        library: "native".to_string(),
        policy: sigcircuit::MappingPolicy::Native,
        cells: Arc::new(native_cells()),
        delays: sigserve::registry::DelaySource::none(),
        options: TomOptions::default(),
    });
    service
}

/// The original (multi-kind) netlist text: the realistic client payload,
/// NOR-mapped and fan-out-limited by the service on a cache miss.
fn bench_text(name: &str) -> String {
    sigcircuit::to_bench(
        &sigcircuit::Benchmark::by_name(name)
            .expect("benchmark")
            .original,
    )
}

fn request(text: String, seed: u64, transitions: usize) -> SimRequest {
    request_lib(text, "nor-only", seed, transitions)
}

fn request_lib(text: String, library: &str, seed: u64, transitions: usize) -> SimRequest {
    SimRequest {
        circuit: CircuitSource::Inline(text),
        models: "bench".to_string(),
        library: library.to_string(),
        seed,
        mu: 60e-12,
        sigma: 25e-12,
        transitions,
        compare: false,
        timing: false,
        timings: false,
    }
}

/// Cold vs warm: the same c1355 request, but the cold variant prepends a
/// unique comment line per call so every content hash misses and the
/// full build pipeline runs again.
fn bench_cache_temperature(c: &mut Criterion) {
    let service = bench_service(1);
    let text = bench_text("c1355");
    let mut group = c.benchmark_group("service_throughput/c1355");
    group.sample_size(10);

    for (label, transitions) in [("settle", 0usize), ("active", 1)] {
        let unique = Cell::new(0u64);
        group.bench_function(format!("cold_cache_{label}"), |b| {
            b.iter(|| {
                unique.set(unique.get() + 1);
                let tagged = format!("# cold {}\n{}", unique.get(), text);
                let result = service
                    .execute_sim(&request(tagged, 7, transitions))
                    .expect("cold request");
                black_box(result.outputs.len())
            });
        });

        // One priming call, then every iteration hits.
        service
            .execute_sim(&request(text.clone(), 7, transitions))
            .expect("prime");
        group.bench_function(format!("warm_cache_{label}"), |b| {
            b.iter(|| {
                let result = service
                    .execute_sim(&request(text.clone(), 7, transitions))
                    .expect("warm request");
                black_box(result.outputs.len())
            });
        });
    }

    // Native vs NOR-mapped rows: the same inline c1355 netlist, warm
    // cache, active stimuli — the only difference is the cell library,
    // so the native library's gate-count reduction (c1355 maps to ~4×
    // fewer native cells than NOR gates) shows up directly as
    // per-request wall clock.
    for library in ["nor-only", "native"] {
        service
            .execute_sim(&request_lib(text.clone(), library, 7, 1))
            .expect("prime");
        group.bench_function(format!("warm_active_{library}"), |b| {
            b.iter(|| {
                let result = service
                    .execute_sim(&request_lib(text.clone(), library, 7, 1))
                    .expect("library request");
                black_box(result.outputs.len())
            });
        });
    }

    // Warm-circuit vs warm-program: both rows skip parsing/mapping (the
    // circuit is resolved once), but the `fused` row re-runs validation,
    // slot resolution, planning and buffer allocation per request (what
    // every warm request paid before the program cache), while the
    // `program` row binds stimuli to the cached compiled program with a
    // pooled scratch — the compile-once/execute-many headline.
    let set = service
        .registry()
        .get_or_load("bench", "nor-only")
        .expect("registered set");
    let parsed =
        sigcircuit::parse_circuit(&text, sigcircuit::sniff_format(&text)).expect("bench text");
    let circuit = sigserve::service::map_for_simulation(parsed, set.policy);
    for (label, transitions) in [("settle", 0usize), ("active", 1)] {
        let warm_request = request(text.clone(), 7, transitions);
        group.bench_function(format!("warm_circuit_fused_{label}"), |b| {
            b.iter(|| {
                let result = sigserve::run_sim(
                    black_box(&circuit),
                    &set,
                    &warm_request,
                    sigserve::CacheOutcome::Hit,
                )
                .expect("fused request");
                black_box(result.outputs.len())
            });
        });
        service.execute_sim(&warm_request).expect("prime program");
        group.bench_function(format!("warm_program_{label}"), |b| {
            b.iter(|| {
                let result = service
                    .execute_sim(black_box(&warm_request))
                    .expect("program request");
                black_box(result.outputs.len())
            });
        });
    }

    // Session row next to `warm_program_settle`: one resident session
    // opened over the same inline netlist, then a single-input delta per
    // iteration through the connection-scoped scheduling path. The edit
    // alternates the input's constant level so its cone genuinely
    // re-evaluates; even paying queue + wakeup per request, the delta
    // undercuts the synchronous warm full execute because only the
    // edited cone runs.
    let table = SessionTable::new(Arc::clone(&service));
    let input_name = circuit.net_name(circuit.inputs()[0]).to_string();
    session_exchange(
        &service,
        &table,
        Request::SessionOpen {
            id: 900,
            session: 1,
            sim: request(text.clone(), 7, 0),
        },
    );
    let flip = Cell::new(false);
    group.bench_function("warm_session_delta", |b| {
        b.iter(|| {
            flip.set(!flip.get());
            session_exchange(
                &service,
                &table,
                Request::SessionDelta {
                    id: 901,
                    session: 1,
                    edits: vec![SessionEdit {
                        net: input_name.clone(),
                        initial_high: flip.get(),
                        toggles: vec![],
                    }],
                },
            );
        });
    });
    group.finish();
}

/// Sends one session request through the connection-scoped path and
/// blocks until its response arrives (the pool answers asynchronously).
fn session_exchange(service: &Arc<Service>, table: &Arc<SessionTable>, request: Request) {
    let done = Arc::new((Mutex::new(false), Condvar::new()));
    let signal = Arc::clone(&done);
    service.handle(request, table, move |response| {
        assert!(
            !matches!(response, Response::Error { .. }),
            "session request failed: {response:?}"
        );
        let (flag, cv) = &*signal;
        *flag.lock().expect("flag") = true;
        cv.notify_all();
    });
    let (flag, cv) = &*done;
    let mut flag = flag.lock().expect("flag");
    while !*flag {
        flag = cv.wait(flag).expect("flag");
    }
}

/// Full scheduling path: N clients push M requests each through
/// `Service::handle` (bounded queue + worker pool) and wait for all
/// responses — the daemon's hot loop without the socket.
fn bench_concurrent_clients(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput/clients");
    group.sample_size(10);
    for clients in [1usize, 4] {
        let service = bench_service(0);
        // Warm the cache with the three benchmark circuits.
        let texts: Vec<String> = ["c17", "c499", "c1355"]
            .map(bench_text)
            .into_iter()
            .collect();
        for t in &texts {
            service
                .execute_sim(&request(t.clone(), 1, 1))
                .expect("warm");
        }
        group.bench_function(format!("{clients}x6_requests_warm"), |b| {
            b.iter(|| {
                let pending = Arc::new((Mutex::new(0usize), Condvar::new()));
                let completed = Arc::new(AtomicU64::new(0));
                std::thread::scope(|scope| {
                    for client in 0..clients {
                        let service = Arc::clone(&service);
                        let texts = texts.clone();
                        let pending = Arc::clone(&pending);
                        let completed = Arc::clone(&completed);
                        scope.spawn(move || {
                            let table = SessionTable::new(Arc::clone(&service));
                            for (i, text) in texts.iter().cycle().take(6).enumerate() {
                                {
                                    let (count, _) = &*pending;
                                    *count.lock().expect("count") += 1;
                                }
                                let pending = Arc::clone(&pending);
                                let completed = Arc::clone(&completed);
                                service.handle(
                                    Request::Sim {
                                        id: (client * 100 + i) as u64,
                                        sim: request(text.clone(), i as u64, 1),
                                    },
                                    &table,
                                    move |_response| {
                                        completed.fetch_add(1, Ordering::Relaxed);
                                        let (count, cv) = &*pending;
                                        *count.lock().expect("count") -= 1;
                                        cv.notify_all();
                                    },
                                );
                            }
                        });
                    }
                });
                let (count, cv) = &*pending;
                let mut count = count.lock().expect("count");
                while *count > 0 {
                    count = cv.wait(count).expect("count");
                }
                black_box(completed.load(Ordering::Relaxed))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cache_temperature, bench_concurrent_clients);
criterion_main!(benches);
