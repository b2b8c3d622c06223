//! Property tests for the wire protocol: the decoder must never panic —
//! not on arbitrary bytes, truncated frames or oversized requests — and
//! must yield a structured error for everything invalid; every
//! request/response variant must round-trip exactly.

use std::io::Cursor;

use proptest::prelude::*;
use rand::Rng;
use sigserve::protocol::{
    decode_request, decode_response, encode_request, encode_response, hex64, CacheOutcome,
    CircuitSource, CompareStats, ErrorKind, FrameReader, OutputTrace, PhaseTimings, ProtocolError,
    Request, Response, SessionEdit, SimRequest, SimResult, StatsReply, TimingStats, TraceSpan,
    MAX_BATCH_RUNS, MAX_STIMULUS_S, MAX_WIRE_INT,
};

fn drain_frames(bytes: &[u8], cap: usize) -> Vec<Result<String, ProtocolError>> {
    let mut reader = FrameReader::new(Cursor::new(bytes.to_vec()), cap);
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().expect("cursor I/O cannot fail") {
        frames.push(frame);
    }
    frames
}

proptest! {
    /// Arbitrary bytes through the framing + decoding stack: no panic,
    /// and every frame either decodes or yields a structured error.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        seed in 0u64..u64::MAX,
        len in 0usize..300,
        cap in 1usize..128,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Newline-rich so multi-frame paths get exercised.
        let bytes: Vec<u8> = (0..len)
            .map(|_| if rng.gen_range(0..8u32) == 0 {
                b'\n'
            } else {
                #[allow(clippy::cast_possible_truncation)]
                { rng.gen::<u64>() as u8 }
            })
            .collect();
        for line in drain_frames(&bytes, cap).into_iter().flatten() {
            // Any decode outcome is fine; panics are not.
            let _ = decode_request(&line);
            let _ = decode_response(&line);
        }
    }

    /// Truncating a valid request frame anywhere strictly inside it must
    /// produce a structured error, never a panic or a bogus accept.
    #[test]
    fn truncated_frames_are_structured_errors(
        id in 0u64..1_000_000,
        cut_fraction in 0.0..1.0f64,
    ) {
        let line = encode_request(&Request::Sim { id, sim: SimRequest::default() });
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let cut = ((line.len() - 1) as f64 * cut_fraction) as usize;
        // Cut on a char boundary (ASCII here, but stay robust).
        let mut cut = cut.min(line.len() - 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &line[..cut];
        prop_assert!(
            matches!(decode_request(truncated), Err(ProtocolError::Malformed { .. })),
            "truncation at {} accepted: {:?}", cut, truncated
        );
    }

    /// Oversized frames are rejected with `Oversized` and the stream
    /// recovers: a well-formed follow-up frame still decodes.
    #[test]
    fn oversized_frames_error_and_stream_recovers(
        pad in 1usize..200,
        id in 0u64..1_000_000,
    ) {
        let cap = 64;
        let big = "x".repeat(cap + pad);
        let good = encode_request(&Request::Ping { id });
        prop_assume!(good.len() < cap);
        let input = format!("{big}\n{good}\n");
        let frames = drain_frames(input.as_bytes(), cap);
        prop_assert_eq!(frames.len(), 2);
        prop_assert_eq!(
            frames[0].clone(),
            Err(ProtocolError::Oversized { limit: cap })
        );
        let line = frames[1].clone().expect("second frame intact");
        prop_assert_eq!(decode_request(&line).expect("decodes"), Request::Ping { id });
    }

    /// Every request variant round-trips exactly through encode/decode.
    #[test]
    fn request_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let request = random_request(&mut rng);
        let line = encode_request(&request);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_request(&line).expect("round trip decodes"), request);
    }

    /// Every response variant round-trips exactly through encode/decode,
    /// including full-precision floats and full-range fingerprints.
    #[test]
    fn response_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let response = random_response(&mut rng);
        let line = encode_response(&response);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_response(&line).expect("round trip decodes"), response);
    }
}

use rand::SeedableRng;

fn random_string(rng: &mut rand::rngs::StdRng) -> String {
    let len = rng.gen_range(0..20usize);
    (0..len)
        .map(|_| {
            // Bias toward characters that stress JSON escaping.
            match rng.gen_range(0..6u32) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\u{7}',
                4 => 'é',
                #[allow(clippy::cast_possible_truncation)]
                _ => char::from(rng.gen_range(u32::from(b' ')..u32::from(b'{')) as u8),
            }
        })
        .collect()
}

fn random_f64(rng: &mut rand::rngs::StdRng) -> f64 {
    // Mix magnitudes; all values finite (non-finite JSON is exercised by
    // the vendored serde_json's own tests).
    let mag = 10f64.powi(rng.gen_range(-15..15i32));
    (rng.gen_range(-1.0..1.0f64)) * mag
}

/// A stimulus time in `[1e-15, MAX_STIMULUS_S)`, log-spread over the
/// valid range.
fn random_stimulus_s(rng: &mut rand::rngs::StdRng) -> f64 {
    let s = 10f64.powi(rng.gen_range(-15..0i32)) * rng.gen_range(1.0..10.0f64);
    debug_assert!((1e-15..MAX_STIMULUS_S).contains(&s));
    s
}

fn random_sim(rng: &mut rand::rngs::StdRng) -> SimRequest {
    SimRequest {
        circuit: if rng.gen() {
            CircuitSource::Name(random_string(rng))
        } else {
            CircuitSource::Inline(random_string(rng))
        },
        models: random_string(rng),
        library: if rng.gen() {
            "nor-only".to_string()
        } else {
            random_string(rng)
        },
        seed: rng.gen_range(0..MAX_WIRE_INT),
        mu: random_stimulus_s(rng),
        sigma: random_stimulus_s(rng),
        transitions: rng.gen_range(0..1000usize),
        compare: rng.gen(),
        timing: rng.gen(),
        timings: rng.gen(),
    }
}

fn random_edit(rng: &mut rand::rngs::StdRng) -> SessionEdit {
    let n = rng.gen_range(0..5usize);
    let mut t = 0.0;
    let toggles = (0..n)
        .map(|_| {
            t += rng.gen_range(1e-12..1e-10f64);
            t
        })
        .collect();
    SessionEdit {
        net: random_string(rng),
        initial_high: rng.gen(),
        toggles,
    }
}

fn random_request(rng: &mut rand::rngs::StdRng) -> Request {
    let id = rng.gen_range(0..MAX_WIRE_INT);
    match rng.gen_range(0..9u32) {
        0 => Request::Ping { id },
        1 => Request::Stats { id },
        2 => Request::Shutdown { id },
        8 => Request::Trace { id },
        3 => Request::SessionOpen {
            id,
            session: rng.gen_range(0..MAX_WIRE_INT),
            sim: SimRequest {
                // Sessions are sigmoid-only: compare must be off for the
                // encoded frame to decode back.
                compare: false,
                ..random_sim(rng)
            },
        },
        4 => Request::SessionDelta {
            id,
            session: rng.gen_range(0..MAX_WIRE_INT),
            edits: (0..rng.gen_range(0..4usize))
                .map(|_| random_edit(rng))
                .collect(),
        },
        5 => Request::SessionClose {
            id,
            session: rng.gen_range(0..MAX_WIRE_INT),
        },
        6 => {
            let runs = rng.gen_range(1..MAX_BATCH_RUNS + 1);
            Request::SimBatch {
                id,
                sim: SimRequest {
                    // Batches are sigmoid-only, and every derived seed
                    // (`seed + r`) must stay a valid wire integer for the
                    // encoded frame to decode back.
                    compare: false,
                    seed: rng.gen_range(0..MAX_WIRE_INT - MAX_BATCH_RUNS as u64),
                    ..random_sim(rng)
                },
                runs,
            }
        }
        _ => Request::Sim {
            id,
            sim: random_sim(rng),
        },
    }
}

fn random_output(rng: &mut rand::rngs::StdRng) -> OutputTrace {
    let n = rng.gen_range(0..5usize);
    let mut t = 0.0;
    let toggles = (0..n)
        .map(|_| {
            t += rng.gen_range(1e-12..1e-10f64);
            t
        })
        .collect();
    OutputTrace {
        net: random_string(rng),
        initial_high: rng.gen(),
        toggles,
    }
}

fn random_result(rng: &mut rand::rngs::StdRng) -> SimResult {
    SimResult {
        fingerprint: hex64(rng.gen::<u64>()),
        library: if rng.gen() {
            "native".to_string()
        } else {
            random_string(rng)
        },
        cache: if rng.gen() {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        },
        outputs: (0..rng.gen_range(0..4usize))
            .map(|_| random_output(rng))
            .collect(),
        compare: rng.gen::<bool>().then(|| CompareStats {
            t_err_digital: random_f64(rng).abs(),
            t_err_sigmoid: random_f64(rng).abs(),
            error_ratio: random_f64(rng).abs(),
        }),
        timing: rng.gen::<bool>().then(|| TimingStats {
            wall_analog_s: random_f64(rng).abs(),
            wall_digital_s: random_f64(rng).abs(),
            wall_sigmoid_s: random_f64(rng).abs(),
        }),
        timings: rng.gen::<bool>().then(|| PhaseTimings {
            queue_s: random_f64(rng).abs(),
            resolve_s: random_f64(rng).abs(),
            execute_s: random_f64(rng).abs(),
            total_s: random_f64(rng).abs(),
        }),
    }
}

fn random_span(rng: &mut rand::rngs::StdRng) -> TraceSpan {
    TraceSpan {
        name: random_string(rng),
        tid: rng.gen_range(0..1000),
        // Wire times are microsecond floats; keep them exactly
        // round-trippable (shortest-round-trip encoding preserves any
        // f64, so magnitude is unconstrained).
        start_us: random_f64(rng).abs(),
        dur_us: random_f64(rng).abs(),
        arg: rng
            .gen::<bool>()
            .then(|| (random_string(rng), rng.gen_range(0..MAX_WIRE_INT))),
    }
}

fn random_response(rng: &mut rand::rngs::StdRng) -> Response {
    let id = rng.gen_range(0..MAX_WIRE_INT);
    match rng.gen_range(0..9u32) {
        8 => Response::Trace {
            id,
            spans: (0..rng.gen_range(0..4usize))
                .map(|_| random_span(rng))
                .collect(),
            dropped: rng.gen_range(0..MAX_WIRE_INT),
        },
        0 => Response::Pong { id },
        7 => Response::SimBatch {
            id,
            results: (0..rng.gen_range(0..4usize))
                .map(|_| random_result(rng))
                .collect(),
        },
        1 => Response::ShuttingDown { id },
        5 => Response::Session {
            id,
            session: rng.gen_range(0..MAX_WIRE_INT),
            result: random_result(rng),
        },
        6 => Response::SessionClosed {
            id,
            session: rng.gen_range(0..MAX_WIRE_INT),
        },
        2 => Response::Stats {
            id,
            stats: StatsReply {
                model_sets: (0..rng.gen_range(0..3usize))
                    .map(|_| random_string(rng))
                    .collect(),
                model_loads: rng.gen_range(0..MAX_WIRE_INT),
                model_requests: rng.gen_range(0..MAX_WIRE_INT),
                cache_hits: rng.gen_range(0..MAX_WIRE_INT),
                cache_misses: rng.gen_range(0..MAX_WIRE_INT),
                cache_entries: rng.gen_range(0..MAX_WIRE_INT),
                program_hits: rng.gen_range(0..MAX_WIRE_INT),
                program_misses: rng.gen_range(0..MAX_WIRE_INT),
                program_entries: rng.gen_range(0..MAX_WIRE_INT),
                workers: rng.gen_range(0..MAX_WIRE_INT),
                queue_capacity: rng.gen_range(0..MAX_WIRE_INT),
                completed: rng.gen_range(0..MAX_WIRE_INT),
                rejected: rng.gen_range(0..MAX_WIRE_INT),
                sessions_open: rng.gen_range(0..MAX_WIRE_INT),
                delta_hits: rng.gen_range(0..MAX_WIRE_INT),
                gates_reeval: rng.gen_range(0..MAX_WIRE_INT),
                simd_level: ["scalar", "sse2", "avx2"][rng.gen_range(0..3usize)].to_string(),
                fleet_runs: rng.gen_range(0..MAX_WIRE_INT),
                fleet_rows: rng.gen_range(0..MAX_WIRE_INT),
                snap_memo_hits: rng.gen_range(0..MAX_WIRE_INT),
                snap_memo_searches: rng.gen_range(0..MAX_WIRE_INT),
                snap_memo_bytes: rng.gen_range(0..MAX_WIRE_INT),
                obs_mode: ["off", "counters", "trace"][rng.gen_range(0..3usize)].to_string(),
                connections_open: rng.gen_range(0..MAX_WIRE_INT),
                frames_pipelined: rng.gen_range(0..MAX_WIRE_INT),
                admission_rejects: rng.gen_range(0..MAX_WIRE_INT),
                sim_p50_s: random_f64(rng).abs(),
                sim_p99_s: random_f64(rng).abs(),
                batch_p50_s: random_f64(rng).abs(),
                batch_p99_s: random_f64(rng).abs(),
                delta_p50_s: random_f64(rng).abs(),
                delta_p99_s: random_f64(rng).abs(),
                queue_p50_s: random_f64(rng).abs(),
                queue_p99_s: random_f64(rng).abs(),
            },
        },
        3 => Response::Error {
            id: if rng.gen() {
                Some(rng.gen_range(0..MAX_WIRE_INT))
            } else {
                None
            },
            kind: *[
                ErrorKind::Protocol,
                ErrorKind::Overloaded,
                ErrorKind::UnknownModels,
                ErrorKind::Circuit,
                ErrorKind::Simulation,
                ErrorKind::UnknownSession,
                ErrorKind::ShuttingDown,
                ErrorKind::Internal,
            ]
            .get(rng.gen_range(0..8usize))
            .expect("in range"),
            message: random_string(rng),
        },
        _ => Response::Sim {
            id,
            result: random_result(rng),
        },
    }
}
