//! The snap search's line memo on the served setup: NOR-mapped c1355 on
//! the trained `ci` library, with 60 ps / 25 ps stimuli of 4 transitions.
//! Every execution, fleet and session delta shares one model set, so its
//! memos warm up across runs; each result must still equal the scalar
//! path's ([`SigmoidSimConfig::scalar`] reads no memo) bit for bit.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigcircuit::{Benchmark, Circuit, NetId};
use sigsim::{
    digital_to_sigmoid, library_cache_path, random_stimuli, train_cell_library_cached,
    CircuitProgram, FleetScratch, LibrarySpec, PipelineConfig, SigmoidSimConfig, SigmoidSimResult,
    StimulusEdit, StimulusSpec,
};
use sigtom::{traces_bit_identical, TomOptions};
use sigwave::SigmoidTrace;

// The workspace target dir: shares the ci model cache with the other
// tests and the CI smoke job.
const MODELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");

type Stimuli = HashMap<NetId, Arc<SigmoidTrace>>;

fn served_program() -> CircuitProgram {
    let spec = LibrarySpec::nor_only();
    let library = train_cell_library_cached(
        &library_cache_path(&PathBuf::from(MODELS_DIR).join("ci.json"), &spec.name),
        &spec,
        &PipelineConfig::ci(),
    )
    .expect("ci models");
    let circuit = Benchmark::by_name("c1355").expect("benchmark").nor_mapped;
    CircuitProgram::compile(
        Arc::new(circuit),
        Arc::new(library.cell_models()),
        TomOptions::default(),
    )
    .expect("compiles")
}

fn stimuli(circuit: &Circuit, seed: u64) -> Stimuli {
    let spec = StimulusSpec::new(60e-12, 25e-12, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    random_stimuli(circuit, &spec, &mut rng)
        .iter()
        .map(|(&net, t)| {
            let trace = digital_to_sigmoid(t, TomOptions::default().vdd);
            (net, Arc::new(trace))
        })
        .collect()
}

fn assert_scalar(program: &CircuitProgram, stim: &Stimuli, got: &SigmoidSimResult, what: &str) {
    let scalar = program
        .execute_with(stim, &SigmoidSimConfig::scalar(), &mut FleetScratch::new())
        .expect("scalar");
    for (net, (a, b)) in got.traces().iter().zip(scalar.traces()).enumerate() {
        assert!(traces_bit_identical(a, b), "{what}: net {net} differs");
    }
}

#[test]
fn warm_memo_matches_the_scalar_path_on_c1355() {
    let program = served_program();
    let circuit = Arc::clone(program.circuit());
    let mut scratch = FleetScratch::new();
    let mut first = (0, 0);
    for seed in 0..256 {
        let stim = stimuli(&circuit, 70_000 + seed);
        let got = program
            .execute_with(&stim, &SigmoidSimConfig::default(), &mut scratch)
            .expect("execute");
        assert_scalar(&program, &stim, &got, &format!("seed {seed}"));
        if seed == 7 {
            first = (scratch.snap_memo_hits(), scratch.snap_memo_searches());
        }
    }
    // The memo answers most rows once warm, and more of them than early.
    let hits = scratch.snap_memo_hits() - first.0;
    let searches = scratch.snap_memo_searches() - first.1;
    assert!(hits > 9 * searches, "{hits} hits, {searches} searches");
    assert!(first.0 < 9 * first.1, "the first 8 requests: {first:?}");

    // A fleet of 16 on the warm models.
    let sets: Vec<Stimuli> = (0..16).map(|r| stimuli(&circuit, 80_000 + r)).collect();
    let fleet = program.execute_fleet(&sets, &mut scratch).expect("fleet");
    for (r, (stim, got)) in sets.iter().zip(&fleet).enumerate() {
        assert_scalar(&program, stim, got, &format!("fleet run {r}"));
    }

    // A session delta chain: each delta swaps one input for the stimulus
    // of another seed; the result must equal a scalar run of the edited
    // stimuli.
    let mut stim = stimuli(&circuit, 90_000);
    let mut state = program.open_session(&stim, &mut scratch).expect("open");
    for k in 0..8u64 {
        let donor = stimuli(&circuit, 90_001 + k);
        let net = circuit.inputs()[(k as usize * 5) % circuit.inputs().len()];
        let edit = StimulusEdit {
            net,
            trace: Arc::clone(&donor[&net]),
        };
        stim.insert(net, Arc::clone(&edit.trace));
        let got = program.execute_delta(&mut state, &[edit]).expect("delta");
        assert_scalar(&program, &stim, &got, &format!("delta {k}"));
    }
}
