//! `sigserve` — the resident simulation service.
//!
//! Every earlier entry point (the experiment bins, the examples, the
//! harness tests) re-loaded gate models and re-parsed circuits per
//! invocation. This crate gives the expensive artifacts a resident home
//! and puts a wire protocol in front of the PR-2 batched engine:
//!
//! * [`ModelRegistry`] — model sets keyed by `(preset, library)`: each
//!   loads one trained [`sigsim::CellLibrary`] — `nor-only` the paper's
//!   four-variant prototype set, `native` the full library
//!   (NAND2/AND2/OR2/INV/NOR as first-class cells) — once, and shares it
//!   as `Arc` across all requests,
//! * [`CircuitCache`] — an LRU keyed by content hash *and* mapping
//!   policy, so repeated requests skip `.bench`/JSON parsing,
//!   validation, technology mapping and levelization,
//! * [`Service`] — a bounded scheduler over the long-lived
//!   [`sigwave::parallel::WorkerPool`]: requests stream in over
//!   newline-delimited JSON ([`protocol`]), run concurrently, and stream
//!   back per-request results with ids, explicit `overloaded`
//!   backpressure, and drain-on-shutdown,
//! * [`server`] — TCP (the [`mux`] reactor, shared with [`router`]) and
//!   stdio transports; the `sigserve` daemon and `sigctl` wrap them.
//!
//! The service is a **scheduling layer, never a numerics layer**:
//! responses are bit-identical to direct [`sigsim::compare_circuit_cells`]
//! / [`sigsim::simulate_cells_with`] calls with the same seed (enforced by
//! `tests/service_parity.rs`). The protocol grammar is normatively
//! specified in `docs/protocol.md`; cache keys and backpressure
//! semantics are documented in `docs/architecture.md`.

// `deny` rather than `forbid` so the one FFI module ([`reactor`], which
// wraps the three epoll syscalls) can opt in; every other module stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod mux;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod router;
pub mod server;
pub mod service;
pub mod session;

pub use cache::{CacheKey, CircuitCache, ProgramCache};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, CacheOutcome, CircuitSource,
    ErrorKind, FrameReader, ProtocolError, Request, Response, SessionEdit, SimRequest, SimResult,
    StatsReply, MAX_FRAME_BYTES,
};
pub use registry::{DelaySource, ModelRegistry, ModelSet, RegistryError};
pub use server::{run_connection, serve_stdio, serve_tcp};
pub use service::{run_sim, run_sim_edited, Handled, Service, ServiceConfig};
pub use session::SessionTable;

#[cfg(test)]
mod service_tests {
    use super::*;
    use crate::registry::synthetic_set;
    use std::sync::{Arc, Condvar, Mutex};

    fn collecting() -> (
        Arc<Mutex<Vec<Response>>>,
        impl Fn(Response) + Send + Sync + 'static,
    ) {
        let sink: Arc<Mutex<Vec<Response>>> = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&sink);
        (sink, move |r| s.lock().expect("sink").push(r))
    }

    fn sim_request(id: u64) -> Request {
        Request::Sim {
            id,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                seed: id,
                timing: false,
                ..SimRequest::default()
            },
        }
    }

    #[test]
    fn overload_rejects_instead_of_buffering() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        // Occupy the single worker with a gate job, then fill the queue.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            service.pool_for_tests().execute(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().expect("gate");
                while !*open {
                    open = cv.wait(open).expect("gate");
                }
            });
        }
        while service.pool_for_tests().queued() > 0 {
            std::thread::yield_now();
        }
        let table = SessionTable::new(Arc::clone(&service));
        let (sink, respond) = collecting();
        assert_eq!(
            service.handle(sim_request(1), &table, respond),
            Handled::Continue
        );
        // Queue now holds request 1; request 2 must be rejected at once.
        let (sink2, respond2) = collecting();
        service.handle(sim_request(2), &table, respond2);
        let rejected = sink2.lock().expect("sink").clone();
        assert_eq!(rejected.len(), 1, "rejection must be immediate");
        assert!(
            matches!(
                rejected[0],
                Response::Error {
                    id: Some(2),
                    kind: ErrorKind::Overloaded,
                    ..
                }
            ),
            "{rejected:?}"
        );
        assert_eq!(service.stats().rejected, 1);
        // Open the gate: the accepted request still completes.
        {
            let (lock, cv) = &*gate;
            *lock.lock().expect("gate") = true;
            cv.notify_all();
        }
        service.drain();
        let done = sink.lock().expect("sink").clone();
        assert_eq!(done.len(), 1);
        assert!(matches!(done[0], Response::Sim { id: 1, .. }));
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn unknown_models_and_circuits_are_structured_errors() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let table = SessionTable::new(Arc::clone(&service));
        let (sink, respond) = collecting();
        let respond = Arc::new(respond);
        for (id, circuit, models) in [
            (1, CircuitSource::Name("c17".into()), "ghost"),
            (2, CircuitSource::Name("c9999".into()), "synth"),
            (3, CircuitSource::Inline("y = FROB(a)\n".into()), "synth"),
        ] {
            let respond = Arc::clone(&respond);
            service.handle(
                Request::Sim {
                    id,
                    sim: SimRequest {
                        circuit,
                        models: models.into(),
                        ..SimRequest::default()
                    },
                },
                &table,
                move |r| respond(r),
            );
        }
        service.drain();
        let mut got: Vec<(Option<u64>, ErrorKind)> = sink
            .lock()
            .expect("sink")
            .iter()
            .map(|r| match r {
                Response::Error { id, kind, .. } => (*id, *kind),
                other => panic!("expected error, got {other:?}"),
            })
            .collect();
        got.sort_unstable_by_key(|(id, _)| *id);
        assert_eq!(
            got,
            vec![
                (Some(1), ErrorKind::UnknownModels),
                (Some(2), ErrorKind::Circuit),
                (Some(3), ErrorKind::Circuit),
            ]
        );
        // Failed builds never pollute the cache.
        assert_eq!(service.cache().entries(), 0);
    }

    /// A synthetic native-library model set for service-level tests.
    fn synthetic_native_set(name: &str) -> ModelSet {
        use sigcircuit::GateKind;
        use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};

        struct Inverting;
        impl TransferFunction for Inverting {
            fn predict(&self, q: TransferQuery) -> TransferPrediction {
                TransferPrediction {
                    a_out: -q.a_in.signum() * 14.0,
                    delay: 0.05,
                }
            }
            fn backend_name(&self) -> &'static str {
                "inverting"
            }
        }
        struct Buffering;
        impl TransferFunction for Buffering {
            fn predict(&self, q: TransferQuery) -> TransferPrediction {
                TransferPrediction {
                    a_out: q.a_in.signum() * 14.0,
                    delay: 0.07,
                }
            }
            fn backend_name(&self) -> &'static str {
                "buffering"
            }
        }

        let mut cells = sigsim::CellModels::empty("native");
        for kind in [GateKind::Inv, GateKind::Nor, GateKind::Nand] {
            let slot = cells.push(GateModel::new(Arc::new(Inverting)));
            let single = kind == GateKind::Inv;
            cells.bind(slot, kind, single, false);
            cells.bind(slot, kind, single, true);
            if single {
                // The inverter cell also answers 1-input NORs.
                cells.bind(slot, GateKind::Nor, true, false);
                cells.bind(slot, GateKind::Nor, true, true);
            }
        }
        for kind in [GateKind::And, GateKind::Or] {
            let slot = cells.push(GateModel::new(Arc::new(Buffering)));
            cells.bind(slot, kind, false, false);
            cells.bind(slot, kind, false, true);
        }
        ModelSet {
            name: name.to_string(),
            library: "native".to_string(),
            policy: sigcircuit::MappingPolicy::Native,
            cells: Arc::new(cells),
            delays: crate::registry::DelaySource::none(),
            options: sigtom::TomOptions::default(),
        }
    }

    #[test]
    fn native_library_requests_keep_native_cells() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        service.registry().insert(synthetic_native_set("synth"));
        // One netlist, both libraries: the native request reports its
        // library, caches separately, and answers with the same settled
        // levels as the NOR-mapped run.
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n".to_string();
        let request = |library: &str| SimRequest {
            circuit: CircuitSource::Inline(text.clone()),
            models: "synth".into(),
            library: library.into(),
            timing: false,
            ..SimRequest::default()
        };
        let nor = service.execute_sim(&request("nor-only")).unwrap();
        let native = service.execute_sim(&request("native")).unwrap();
        assert_eq!(nor.library, "nor-only");
        assert_eq!(native.library, "native");
        assert_ne!(
            nor.fingerprint, native.fingerprint,
            "policies simulate different mapped circuits"
        );
        assert_eq!(service.cache().misses(), 2, "policies cache separately");
        // Same boolean behaviour: settled output levels agree.
        assert_eq!(nor.outputs.len(), native.outputs.len());
        for (a, b) in nor.outputs.iter().zip(&native.outputs) {
            assert_eq!(a.final_high(), b.final_high(), "settled levels differ");
        }
        // Stats name both resident sets.
        let stats = service.stats();
        assert_eq!(
            stats.model_sets,
            vec!["synth/native".to_string(), "synth/nor-only".to_string()]
        );
    }

    #[test]
    fn repeated_requests_hit_the_program_cache_with_identical_results() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let sim = SimRequest {
            circuit: CircuitSource::Name("c17".into()),
            models: "synth".into(),
            seed: 9,
            timing: false,
            ..SimRequest::default()
        };
        let first = service.execute_sim(&sim).unwrap();
        assert_eq!(
            (service.programs().misses(), service.programs().hits()),
            (1, 0),
            "first request compiles the program"
        );
        let second = service.execute_sim(&sim).unwrap();
        assert_eq!(
            (service.programs().misses(), service.programs().hits()),
            (1, 1),
            "warm request reuses the compiled program"
        );
        assert_eq!(service.programs().entries(), 1);
        // Identical payloads modulo the circuit-cache field.
        assert_eq!(first.outputs, second.outputs);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.cache, CacheOutcome::Miss);
        assert_eq!(second.cache, CacheOutcome::Hit);
        // And identical to the fused no-program reference path (what
        // `sigctl golden` runs): the program is a pure accelerator.
        let set = service.registry().get_or_load("synth", "nor-only").unwrap();
        let circuit = sigcircuit::Benchmark::by_name("c17")
            .unwrap()
            .nor_mapped
            .clone();
        let golden = run_sim(&circuit, &set, &sim, CacheOutcome::Miss).unwrap();
        assert_eq!(golden, first, "program path must match the fused path");
        // A different seed reuses the program (stimulus is bind-time
        // input, not part of the key) but changes the outputs.
        let reseeded = service
            .execute_sim(&SimRequest { seed: 10, ..sim })
            .unwrap();
        assert_eq!(
            (service.programs().misses(), service.programs().hits()),
            (1, 2)
        );
        assert_ne!(reseeded.outputs, first.outputs, "seed must matter");
    }

    #[test]
    fn pooled_fleet_arena_counters_reset_between_requests() {
        // Regression: `FleetScratch` accumulates `runs`/`rows_merged`
        // across executions, and `ScratchPool` reuses arenas. Without the
        // reset on acquire, a warm request's counters included the
        // arena's whole history, so the daemon's `fleet_rows` stat grew
        // quadratically instead of linearly.
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let sim = SimRequest {
            circuit: CircuitSource::Name("c17".into()),
            models: "synth".into(),
            seed: 3,
            timing: false,
            ..SimRequest::default()
        };
        service.execute_sim_batch(&sim, 3).unwrap();
        let first = service.stats();
        assert!(first.fleet_rows > 0, "fleet must merge rows");
        assert_eq!(first.fleet_runs, 3);
        // Identical warm request through the pooled arena: stats must
        // grow by exactly one request's worth, not the arena's history.
        service.execute_sim_batch(&sim, 3).unwrap();
        let second = service.stats();
        assert_eq!(second.fleet_runs, 6);
        assert_eq!(
            second.fleet_rows,
            2 * first.fleet_rows,
            "pooled arena must not double-count its history"
        );
    }

    #[test]
    fn timings_opt_in_reports_phases_and_golden_path_stays_silent() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let plain = SimRequest {
            circuit: CircuitSource::Name("c17".into()),
            models: "synth".into(),
            seed: 11,
            timing: false,
            ..SimRequest::default()
        };
        // Without the opt-in, no breakdown is attached (byte parity with
        // the golden transcripts depends on this).
        let silent = service.execute_sim(&plain).unwrap();
        assert!(silent.timings.is_none());
        // With it, resolve and execute phases are filled by the service;
        // queue wait and the total belong to the dispatch boundary and
        // stay zero on this direct call.
        let timed = service
            .execute_sim(&SimRequest {
                timings: true,
                ..plain.clone()
            })
            .unwrap();
        let t = timed.timings.expect("opt-in must attach timings");
        assert!(t.resolve_s >= 0.0);
        assert!(t.execute_s > 0.0, "execution takes nonzero time");
        assert_eq!(t.queue_s, 0.0);
        assert_eq!(t.total_s, 0.0);
        // Fleet entries each echo the one shared breakdown.
        let fleet = service
            .execute_sim_batch(
                &SimRequest {
                    timings: true,
                    ..plain
                },
                2,
            )
            .unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].timings, fleet[1].timings);
        assert!(fleet[0].timings.as_ref().expect("fleet timings").execute_s > 0.0);
    }

    #[test]
    fn reinserted_model_set_never_serves_a_stale_program() {
        use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};
        struct Slow;
        impl TransferFunction for Slow {
            fn predict(&self, q: TransferQuery) -> TransferPrediction {
                TransferPrediction {
                    a_out: -q.a_in.signum() * 14.0,
                    delay: 0.45,
                }
            }
            fn backend_name(&self) -> &'static str {
                "slow"
            }
        }
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let sim = SimRequest {
            circuit: CircuitSource::Name("c17".into()),
            models: "synth".into(),
            seed: 4,
            timing: false,
            ..SimRequest::default()
        };
        let first = service.execute_sim(&sim).unwrap();
        // An embedder swaps the set under the same (name, library) key
        // with different models: the cached program compiled against the
        // old cells must not answer for the new set.
        let mut swapped = synthetic_set("synth");
        swapped.cells = Arc::new(crate::registry::nor_only_cells(&GateModel::new(Arc::new(
            Slow,
        ))));
        service.registry().insert(swapped);
        let second = service.execute_sim(&sim).unwrap();
        assert_eq!(
            service.programs().misses(),
            2,
            "new cells allocation must compile a new program"
        );
        assert_ne!(
            first.outputs, second.outputs,
            "responses must reflect the re-registered models"
        );
    }

    #[test]
    fn compare_requests_do_not_touch_the_program_cache() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        // The synthetic set has no delay table, so compare errors — but
        // the point here is the program-cache counters stay untouched
        // either way (compare mode keeps the fused harness path).
        let err = service
            .execute_sim(&SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                compare: true,
                ..SimRequest::default()
            })
            .unwrap_err();
        assert_eq!(err.0, ErrorKind::Simulation);
        assert_eq!(service.programs().misses(), 0);
        assert_eq!(service.programs().hits(), 0);
        let stats = service.stats();
        assert_eq!(stats.program_entries, 0);
        assert_eq!(stats.cache_misses, 1, "the circuit itself was cached");
    }

    #[test]
    fn compare_without_delay_table_is_rejected() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let err = service
            .execute_sim(&SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                compare: true,
                ..SimRequest::default()
            })
            .unwrap_err();
        assert_eq!(err.0, ErrorKind::Simulation);
        assert!(err.1.contains("delay table"), "{}", err.1);
    }

    /// Collects responses from session-aware dispatch and drains, so a
    /// test reads one request's complete outcome.
    fn roundtrip(
        service: &Arc<Service>,
        table: &Arc<SessionTable>,
        request: Request,
    ) -> Vec<Response> {
        let (sink, respond) = collecting();
        service.handle(request, table, respond);
        service.drain();
        let responses = std::mem::take(&mut *sink.lock().expect("sink"));
        responses
    }

    #[test]
    fn session_delta_matches_cold_execute_of_final_stimuli() {
        use sigwave::{DigitalTrace, Level};
        use std::collections::HashMap;

        let service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        let table = SessionTable::new(Arc::clone(&service));
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n".to_string();
        let open_sim = SimRequest {
            circuit: CircuitSource::Inline(text.clone()),
            models: "synth".into(),
            seed: 7,
            timing: false,
            ..SimRequest::default()
        };
        let opened = roundtrip(
            &service,
            &table,
            Request::SessionOpen {
                id: 1,
                session: 9,
                sim: open_sim.clone(),
            },
        );
        let baseline = match opened.as_slice() {
            [Response::Session {
                id: 1,
                session: 9,
                result,
            }] => result.clone(),
            other => panic!("expected session response, got {other:?}"),
        };
        // The baseline is exactly what a plain sim of the same request
        // answers (modulo the circuit-cache outcome of the second run).
        let plain = service.execute_sim(&open_sim).expect("plain sim");
        assert_eq!(baseline.outputs, plain.outputs);
        assert_eq!(baseline.fingerprint, plain.fingerprint);
        assert_eq!(service.stats().sessions_open, 1);

        // Apply a delta, then independently rebuild the *final* stimulus
        // set (baseline seed-derived stimuli with net `a` replaced) and
        // run it cold through the fused engine: bit parity is the
        // incremental engine's contract.
        let edit = SessionEdit {
            net: "a".into(),
            initial_high: true,
            toggles: vec![2.0e-10, 3.5e-10],
        };
        let deltad = roundtrip(
            &service,
            &table,
            Request::SessionDelta {
                id: 2,
                session: 9,
                edits: vec![edit.clone()],
            },
        );
        let delta = match deltad.as_slice() {
            [Response::Sim { id: 2, result }] => result.clone(),
            other => panic!("expected sim response, got {other:?}"),
        };
        assert_eq!(delta.cache, CacheOutcome::Hit, "deltas reuse the session");
        assert_eq!(delta.fingerprint, baseline.fingerprint);

        let set = service.registry().get_or_load("synth", "nor-only").unwrap();
        let circuit = crate::service::map_for_simulation(
            sigcircuit::parse_circuit(&text, sigcircuit::sniff_format(&text)).unwrap(),
            set.policy,
        );
        let spec = sigsim::StimulusSpec::new(open_sim.mu, open_sim.sigma, open_sim.transitions);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(open_sim.seed);
        let mut digital = sigsim::random_stimuli(&circuit, &spec, &mut rng);
        let a = circuit.find_net("a").expect("input a");
        digital.insert(
            a,
            DigitalTrace::new(Level::High, edit.toggles.clone()).unwrap(),
        );
        let vdd = set.options.vdd;
        let sigmoid: HashMap<_, _> = digital
            .iter()
            .map(|(&net, t)| (net, Arc::new(sigsim::digital_to_sigmoid(t, vdd))))
            .collect();
        let cold = sigsim::simulate_cells_with(
            &circuit,
            &sigmoid,
            &set.cells,
            set.options,
            &sigsim::SigmoidSimConfig::default(),
        )
        .expect("cold execute");
        let expected: Vec<_> = circuit
            .outputs()
            .iter()
            .map(|&o| {
                let d = cold.trace(o).digitize(vdd / 2.0);
                crate::protocol::OutputTrace {
                    net: circuit.net_name(o).to_string(),
                    initial_high: d.initial().is_high(),
                    toggles: d.toggles().to_vec(),
                }
            })
            .collect();
        assert_eq!(delta.outputs, expected, "delta must match cold execute");

        // Re-sending the identical edit is a no-op: byte-identical
        // response, zero gates re-evaluated.
        let before = service.stats().gates_reeval;
        let again = roundtrip(
            &service,
            &table,
            Request::SessionDelta {
                id: 3,
                session: 9,
                edits: vec![edit],
            },
        );
        let repeat = match again.as_slice() {
            [Response::Sim { id: 3, result }] => result.clone(),
            other => panic!("expected sim response, got {other:?}"),
        };
        assert_eq!(repeat, delta, "identical edit must answer identically");
        assert_eq!(
            service.stats().gates_reeval,
            before,
            "identical edit re-evaluates nothing"
        );
        assert_eq!(service.stats().delta_hits, 2);

        // Close releases the session; a second close is unknown.
        let closed = roundtrip(
            &service,
            &table,
            Request::SessionClose { id: 4, session: 9 },
        );
        assert_eq!(closed, vec![Response::SessionClosed { id: 4, session: 9 }]);
        assert_eq!(service.stats().sessions_open, 0);
        let reclosed = roundtrip(
            &service,
            &table,
            Request::SessionClose { id: 5, session: 9 },
        );
        assert!(
            matches!(
                reclosed.as_slice(),
                [Response::Error {
                    kind: ErrorKind::UnknownSession,
                    ..
                }]
            ),
            "{reclosed:?}"
        );
    }

    #[test]
    fn session_capacity_evicts_this_connections_lru() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            session_capacity: 2,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        let table = SessionTable::new(Arc::clone(&service));
        let open = |session: u64, id: u64| Request::SessionOpen {
            id,
            session,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                seed: session,
                timing: false,
                ..SimRequest::default()
            },
        };
        for (session, id) in [(1, 1), (2, 2)] {
            let got = roundtrip(&service, &table, open(session, id));
            assert!(
                matches!(got.as_slice(), [Response::Session { .. }]),
                "{got:?}"
            );
        }
        assert_eq!(service.stats().sessions_open, 2);
        // Touch session 1 so session 2 becomes the LRU victim.
        let touched = roundtrip(
            &service,
            &table,
            Request::SessionDelta {
                id: 3,
                session: 1,
                edits: vec![],
            },
        );
        assert!(
            matches!(touched.as_slice(), [Response::Sim { .. }]),
            "{touched:?}"
        );
        let third = roundtrip(&service, &table, open(3, 4));
        assert!(
            matches!(third.as_slice(), [Response::Session { .. }]),
            "{third:?}"
        );
        assert_eq!(service.stats().sessions_open, 2, "cap holds after evict");
        // Session 2 was evicted; 1 and 3 still answer.
        for (session, id, open_expected) in [(2u64, 5u64, false), (1, 6, true), (3, 7, true)] {
            let got = roundtrip(
                &service,
                &table,
                Request::SessionDelta {
                    id,
                    session,
                    edits: vec![],
                },
            );
            if open_expected {
                assert!(matches!(got.as_slice(), [Response::Sim { .. }]), "{got:?}");
            } else {
                assert!(
                    matches!(
                        got.as_slice(),
                        [Response::Error {
                            kind: ErrorKind::UnknownSession,
                            ..
                        }]
                    ),
                    "{got:?}"
                );
            }
        }
    }

    #[test]
    fn failed_open_releases_its_slot() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let table = SessionTable::new(Arc::clone(&service));
        let got = roundtrip(
            &service,
            &table,
            Request::SessionOpen {
                id: 1,
                session: 4,
                sim: SimRequest {
                    circuit: CircuitSource::Name("c17".into()),
                    models: "ghost".into(),
                    ..SimRequest::default()
                },
            },
        );
        assert!(
            matches!(
                got.as_slice(),
                [Response::Error {
                    id: Some(1),
                    kind: ErrorKind::UnknownModels,
                    ..
                }]
            ),
            "{got:?}"
        );
        assert_eq!(service.stats().sessions_open, 0, "failed open frees budget");
        let delta = roundtrip(
            &service,
            &table,
            Request::SessionDelta {
                id: 2,
                session: 4,
                edits: vec![],
            },
        );
        assert!(
            matches!(
                delta.as_slice(),
                [Response::Error {
                    kind: ErrorKind::UnknownSession,
                    ..
                }]
            ),
            "{delta:?}"
        );
    }

    /// Occupies the single worker of `service` until [`open_gate`].
    pub(crate) fn hold_the_worker(service: &Arc<Service>) -> Arc<(Mutex<bool>, Condvar)> {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held = Arc::clone(&gate);
        service.pool_for_tests().execute(move || {
            let (lock, cv) = &*held;
            let mut open = lock.lock().expect("gate");
            while !*open {
                open = cv.wait(open).expect("gate");
            }
        });
        while service.pool_for_tests().queued() > 0 {
            std::thread::yield_now();
        }
        gate
    }

    pub(crate) fn open_gate(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().expect("gate") = true;
        gate.1.notify_all();
    }

    fn open_c17(id: u64, session: u64, models: &str) -> Request {
        Request::SessionOpen {
            id,
            session,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: models.into(),
                seed: session,
                timing: false,
                ..SimRequest::default()
            },
        }
    }

    /// A delta that re-drives c17 input `1`, so its cone re-evaluates.
    fn delta_c17(id: u64, session: u64) -> Request {
        Request::SessionDelta {
            id,
            session,
            edits: vec![SessionEdit {
                net: "1".into(),
                initial_high: id.is_multiple_of(2),
                toggles: vec![1.0e-10, 2.0e-10 + id as f64 * 1.0e-11],
            }],
        }
    }

    #[test]
    fn a_refused_delta_gives_its_turn_back() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        let table = SessionTable::new(Arc::clone(&service));
        let opened = roundtrip(&service, &table, open_c17(1, 7, "synth"));
        assert!(
            matches!(opened.as_slice(), [Response::Session { .. }]),
            "{opened:?}"
        );
        let gate = hold_the_worker(&service);
        // Delta 2 fills the queue of one; delta 3 is refused at once.
        let (sink, respond) = collecting();
        let respond = Arc::new(respond);
        for id in [2, 3] {
            let respond = Arc::clone(&respond);
            service.handle(delta_c17(id, 7), &table, move |r| respond(r));
        }
        let refused = sink.lock().expect("sink").clone();
        assert!(
            matches!(
                refused.as_slice(),
                [Response::Error {
                    id: Some(3),
                    kind: ErrorKind::Overloaded,
                    ..
                }]
            ),
            "{refused:?}"
        );
        open_gate(&gate);
        service.drain();
        // The refused turn went back: a later delta does not wait on it.
        let (tx, rx) = std::sync::mpsc::channel();
        service.handle(delta_c17(4, 7), &table, move |r| {
            tx.send(r).expect("receiver");
        });
        let later = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a later delta must answer");
        assert!(matches!(later, Response::Sim { id: 4, .. }), "{later:?}");
        let answered = sink.lock().expect("sink").clone();
        assert!(
            matches!(answered.as_slice(), [_, Response::Sim { id: 2, .. }]),
            "{answered:?}"
        );
    }

    #[test]
    fn closing_a_session_with_queued_deltas_answers_every_frame() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        let table = SessionTable::new(Arc::clone(&service));
        let opened = roundtrip(&service, &table, open_c17(1, 7, "synth"));
        assert!(
            matches!(opened.as_slice(), [Response::Session { .. }]),
            "{opened:?}"
        );
        let gate = hold_the_worker(&service);
        let (sink, respond) = collecting();
        let respond = Arc::new(respond);
        for request in [
            delta_c17(2, 7),
            delta_c17(3, 7),
            Request::SessionClose { id: 4, session: 7 },
            delta_c17(5, 7),
        ] {
            let respond = Arc::clone(&respond);
            service.handle(request, &table, move |r| respond(r));
        }
        assert_eq!(service.stats().sessions_open, 0, "close releases at once");
        open_gate(&gate);
        service.drain();
        let mut got = sink.lock().expect("sink").clone();
        got.sort_by_key(Response::id);
        // Deltas queued before the close complete against the slot they
        // hold, like deltas of an evicted session; a delta after it finds
        // no session.
        assert!(
            matches!(
                got.as_slice(),
                [
                    Response::Sim { id: 2, .. },
                    Response::Sim { id: 3, .. },
                    Response::SessionClosed { id: 4, session: 7 },
                    Response::Error {
                        id: Some(5),
                        kind: ErrorKind::UnknownSession,
                        ..
                    },
                ]
            ),
            "{got:?}"
        );
        assert_eq!(service.stats().sessions_open, 0);
    }

    #[test]
    fn a_delta_that_unwinds_closes_its_session() {
        let service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        service
            .registry()
            .insert(crate::registry::faulty_set("faulty", Arc::clone(&armed)));
        let table = SessionTable::new(Arc::clone(&service));
        let opened = roundtrip(&service, &table, open_c17(1, 7, "faulty"));
        assert!(
            matches!(opened.as_slice(), [Response::Session { .. }]),
            "{opened:?}"
        );
        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        let (sink, respond) = collecting();
        let respond = Arc::new(respond);
        for id in [2, 3, 4] {
            let respond = Arc::clone(&respond);
            service.handle(delta_c17(id, 7), &table, move |r| respond(r));
        }
        service.drain();
        let mut got = sink.lock().expect("sink").clone();
        got.sort_by_key(Response::id);
        let kinds: Vec<_> = got
            .iter()
            .map(|r| match r {
                Response::Error { id, kind, .. } => (*id, *kind),
                other => panic!("expected an error, got {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                (Some(2), ErrorKind::Internal),
                (Some(3), ErrorKind::UnknownSession),
                (Some(4), ErrorKind::UnknownSession),
            ]
        );
        assert_eq!(service.stats().sessions_open, 0, "the session closed");
        assert_eq!(service.pool_for_tests().panicked_jobs(), 1);
    }

    #[test]
    fn inline_netlist_with_a_buffer_style_net_name_maps() {
        // A client netlist may already name a net `__buf1_n`. Mapping
        // keeps input names, and this input drives 12 NOR inputs after
        // XOR mapping, so buffering must pick names around it, not panic.
        let mut text = String::from("INPUT(__buf1_n)\nINPUT(b)\n");
        for i in 0..6 {
            text.push_str(&format!("OUTPUT(y{i})\ny{i} = XOR(__buf1_n, b)\n"));
        }
        let parsed = sigcircuit::parse_circuit(&text, sigcircuit::sniff_format(&text)).unwrap();
        let mapped =
            crate::service::map_for_simulation(parsed.clone(), sigcircuit::MappingPolicy::NorOnly);
        assert!(mapped.is_nor_only());
        assert!(
            mapped.find_net("__buf2_n").is_some(),
            "the input was buffered"
        );
        assert_eq!(mapped.inputs().len(), 2);
        for bits in [[false, false], [false, true], [true, false], [true, true]] {
            assert_eq!(mapped.eval(&bits), parsed.eval(&bits), "{bits:?}");
        }
    }

    #[test]
    fn inline_bench_text_simulates_and_caches_by_content() {
        let service = Service::new(ServiceConfig::default());
        service.registry().insert(synthetic_set("synth"));
        let bench =
            sigcircuit::to_bench(&sigcircuit::Benchmark::by_name("c17").unwrap().nor_mapped);
        let sim = SimRequest {
            circuit: CircuitSource::Inline(bench.clone()),
            models: "synth".into(),
            timing: false,
            ..SimRequest::default()
        };
        let first = service.execute_sim(&sim).unwrap();
        let second = service.execute_sim(&sim).unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(
            first.outputs, second.outputs,
            "results identical across cache states"
        );
        // The same netlist through a *name* source is a different cache
        // key (and a structurally renumbered circuit after the
        // `.bench` round trip), but inputs/outputs keep their names and
        // order, so the predictions are identical.
        let by_name = service
            .execute_sim(&SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                timing: false,
                ..SimRequest::default()
            })
            .unwrap();
        assert_eq!(by_name.outputs, first.outputs);
        assert_eq!(service.cache().misses(), 2);
        assert_eq!(service.cache().hits(), 1);
        // Non-NOR inline netlists are NOR-mapped before simulation.
        let non_nor = service
            .execute_sim(&SimRequest {
                circuit: CircuitSource::Inline(
                    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n".into(),
                ),
                models: "synth".into(),
                timing: false,
                ..SimRequest::default()
            })
            .unwrap();
        assert_eq!(non_nor.outputs.len(), 1);
    }
}
