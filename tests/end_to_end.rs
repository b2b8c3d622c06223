//! Workspace-level integration: the full pipeline — characterization,
//! training, delay extraction, three-way comparison — on ISCAS-85 c17.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nanospice::EngineConfig;
use sigchar::GateTag;
use sigchar::{AnalogOptions, DelayTable};
use sigcircuit::Benchmark;
use sigsim::{
    compare_circuit_cells, final_levels_agree, random_stimuli, train_cell_library_cached,
    CellLibrary, HarnessConfig, LibrarySpec, PipelineConfig, SigmoidInputMode, StimulusSpec,
};

/// All integration tests share one cached artifact to keep the suite fast.
const SHARED_CACHE: &str = "target/sigmodels/integration.nor-only.json";

fn shared_models() -> CellLibrary {
    train_cell_library_cached(
        &PathBuf::from(SHARED_CACHE),
        &LibrarySpec::nor_only(),
        &PipelineConfig::fast(),
    )
    .expect("pipeline")
}

#[test]
fn pipeline_to_comparison_on_c17() {
    let cells = shared_models().cell_models();
    let delays = DelayTable::measure(1..=4, &AnalogOptions::default(), &EngineConfig::default())
        .expect("delay extraction");
    let bench = Benchmark::by_name("c17").expect("benchmark");
    let mut rng = StdRng::seed_from_u64(11);
    let stimuli = random_stimuli(
        &bench.nor_mapped,
        &StimulusSpec::new(60e-12, 25e-12, 8),
        &mut rng,
    );
    let outcome = compare_circuit_cells(
        &bench.nor_mapped,
        &stimuli,
        &cells,
        &delays,
        &HarnessConfig::default(),
    )
    .expect("comparison");

    // Structural sanity of the comparison result.
    assert_eq!(outcome.outputs, 2);
    assert_eq!(outcome.bundles.len(), 2);
    assert!(outcome.window.duration() > 0.0);
    assert!(final_levels_agree(&outcome, 0.8), "settled levels disagree");

    // Both predictions must be far better than chance (< 25% of the window).
    let budget = outcome.window.duration() * outcome.outputs as f64;
    assert!(outcome.t_err_sigmoid < 0.25 * budget);
    assert!(outcome.t_err_digital < 0.25 * budget);

    // Speed claim (scaled): the sigmoid prediction is at least 5x faster
    // than the analog reference on the same machine.
    assert!(
        outcome.wall_analog.as_secs_f64() > 5.0 * outcome.wall_sigmoid.as_secs_f64(),
        "analog {:?} vs sigmoid {:?}",
        outcome.wall_analog,
        outcome.wall_sigmoid
    );
}

#[test]
fn same_stimulus_mode_runs() {
    let cells = shared_models().cell_models();
    let delays = DelayTable::measure(1..=4, &AnalogOptions::default(), &EngineConfig::default())
        .expect("delay extraction");
    let bench = Benchmark::by_name("c17").expect("benchmark");
    let mut rng = StdRng::seed_from_u64(5);
    let stimuli = random_stimuli(
        &bench.nor_mapped,
        &StimulusSpec::new(60e-12, 25e-12, 6),
        &mut rng,
    );
    let config = HarnessConfig {
        sigmoid_inputs: SigmoidInputMode::SameAsDigital,
        ..HarnessConfig::default()
    };
    let outcome = compare_circuit_cells(&bench.nor_mapped, &stimuli, &cells, &delays, &config)
        .expect("comparison");
    assert!(final_levels_agree(&outcome, 0.8));
}

#[test]
fn models_serialize_and_reload_identically() {
    let trained = shared_models();
    let path = PathBuf::from(SHARED_CACHE);
    assert!(path.exists(), "cache artifact must exist after training");
    let reloaded =
        train_cell_library_cached(&path, &LibrarySpec::nor_only(), &PipelineConfig::fast())
            .expect("reload");
    let q = sigtom::TransferQuery {
        t: 1.2,
        a_in: -14.0,
        a_prev_out: 16.0,
    };
    assert_eq!(
        trained
            .model(GateTag::NorFo2)
            .unwrap()
            .transfer()
            .predict(q),
        reloaded
            .model(GateTag::NorFo2)
            .unwrap()
            .transfer()
            .predict(q),
    );
}
