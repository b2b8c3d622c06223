//! Scaled checks of the paper's headline claims (Sec. V-C):
//!
//! 1. the sigmoid prototype is substantially faster than the analog
//!    simulator,
//! 2. at short inter-transition times the sigmoid prototype's `t_err` beats
//!    the digital baseline,
//! 3. the sigmoid advantage shrinks as inter-transition times grow.
//!
//! These run on c17 with a handful of seeds; the full-scale version is
//! `cargo run --release -p sigbench --bin table1`.

use std::path::PathBuf;

use nanospice::EngineConfig;
use sigchar::{AnalogOptions, DelayTable};
use sigcircuit::Benchmark;
use sigsim::{
    compare_circuit_cells, random_stimuli, train_cell_library_cached, CellModels, HarnessConfig,
    LibrarySpec, PipelineConfig, StimulusSpec,
};

/// Shared fixture: decent (not CI-tiny) models, cached across tests.
fn models_and_delays() -> (CellModels, DelayTable) {
    let path = PathBuf::from("target/sigmodels/claims.nor-only.json");
    let config = PipelineConfig {
        characterization: sigchar::CharacterizationConfig {
            sweep: sigchar::PulseSweep {
                min: 5e-12,
                max: 20e-12,
                step: 5e-12,
                t0: 60e-12,
            },
            chain_targets: 4,
            ..sigchar::CharacterizationConfig::default()
        },
        ..PipelineConfig::default()
    };
    let library =
        train_cell_library_cached(&path, &LibrarySpec::nor_only(), &config).expect("pipeline");
    let delays = DelayTable::measure(1..=4, &AnalogOptions::default(), &EngineConfig::default())
        .expect("delays");
    (library.cell_models(), delays)
}

fn mean_errors(
    spec: &StimulusSpec,
    cells: &CellModels,
    delays: &DelayTable,
    runs: usize,
) -> (f64, f64, f64) {
    let bench = Benchmark::by_name("c17").expect("benchmark");
    let mut sig = 0.0;
    let mut dig = 0.0;
    let mut speedup = 0.0;
    for r in 0..runs {
        let mut rng = sigrepro::digital::rng(1000 + r as u64);
        let stimuli = random_stimuli(&bench.nor_mapped, spec, &mut rng);
        let outcome = compare_circuit_cells(
            &bench.nor_mapped,
            &stimuli,
            cells,
            delays,
            &HarnessConfig::default(),
        )
        .expect("comparison");
        sig += outcome.t_err_sigmoid;
        dig += outcome.t_err_digital;
        speedup += outcome.wall_analog.as_secs_f64() / outcome.wall_sigmoid.as_secs_f64();
    }
    (sig / runs as f64, dig / runs as f64, speedup / runs as f64)
}

#[test]
fn sigmoid_beats_digital_on_fast_stimuli_and_trails_analog_speed() {
    let (models, delays) = models_and_delays();
    let fast = StimulusSpec::fast();
    let (sig_fast, dig_fast, speedup) = mean_errors(&fast, &models, &delays, 3);

    // Claim 2: better accuracy than the digital baseline at fast stimuli.
    assert!(
        sig_fast < dig_fast,
        "sigmoid {sig_fast:.3e}s should beat digital {dig_fast:.3e}s at (20,10)ps"
    );
    // Claim 1: far faster than the analog reference.
    assert!(speedup > 5.0, "speedup over analog only {speedup:.1}x");

    // Claim 3: the *relative* advantage shrinks as µt grows.
    let slow = StimulusSpec::slow();
    let (sig_slow, dig_slow, _) = mean_errors(&slow, &models, &delays, 3);
    let ratio_fast = sig_fast / dig_fast;
    let ratio_slow = sig_slow / dig_slow;
    assert!(
        ratio_slow > ratio_fast,
        "advantage should shrink with µt: fast ratio {ratio_fast:.2}, slow ratio {ratio_slow:.2}"
    );
}
