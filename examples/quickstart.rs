//! Quickstart: the full paper pipeline on ISCAS-85 c17.
//!
//! 1. Characterize NOR/inverter gates against the analog substrate and
//!    train the TOM transfer-function ANNs (cached under `target/`).
//! 2. Extract classic rise/fall delays for the digital baseline.
//! 3. Stimulate the NOR-mapped c17 with randomized transitions and compare
//!    all three simulators.
//!
//! Run with: `cargo run --release --example quickstart`

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nanospice::EngineConfig;
use sigchar::{AnalogOptions, DelayTable};
use sigcircuit::Benchmark;
use sigsim::{
    compare_circuit_cells, random_stimuli, train_cell_library_cached, HarnessConfig, LibrarySpec,
    PipelineConfig, StimulusSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Train (or load) the gate models --------------------------------
    let cache = PathBuf::from("target/sigmodels/quickstart.nor-only.json");
    println!(
        "training/loading TOM gate models (cache: {})",
        cache.display()
    );
    let library =
        train_cell_library_cached(&cache, &LibrarySpec::nor_only(), &PipelineConfig::fast())?;
    let cells = library.cell_models();
    for tag in ["INV", "NOR/FO1", "NOR/FO2"] {
        if let Some(d) = library.datasets.get(tag) {
            println!("  {tag}: {} training samples", d.len());
        }
    }

    // --- 2. Digital baseline delays ----------------------------------------
    let delays = DelayTable::measure(1..=4, &AnalogOptions::default(), &EngineConfig::default())?;
    println!(
        "extracted digital delays for {} fan-out classes",
        delays.len()
    );

    // --- 3. Compare on c17 ---------------------------------------------------
    let bench = Benchmark::by_name("c17").map_err(|n| format!("unknown benchmark {n}"))?;
    println!(
        "c17: {} NOR gates after mapping (paper: 24)",
        bench.nor_gate_count()
    );
    let mut rng = StdRng::seed_from_u64(2025);
    let stimuli = random_stimuli(&bench.nor_mapped, &StimulusSpec::fast(), &mut rng);
    let outcome = compare_circuit_cells(
        &bench.nor_mapped,
        &stimuli,
        &cells,
        &delays,
        &HarnessConfig::default(),
    )?;

    println!("\n=== c17, (µt, σt) = (20 ps, 10 ps), 20 transitions ===");
    println!(
        "t_err digital (ModelSim-style): {:8.2} ps",
        outcome.t_err_digital * 1e12
    );
    println!(
        "t_err sigmoid  (this paper):    {:8.2} ps",
        outcome.t_err_sigmoid * 1e12
    );
    println!("error ratio: {:.2}", outcome.error_ratio());
    println!(
        "wall times: analog {:.1?} | digital {:.1?} | sigmoid {:.1?}",
        outcome.wall_analog, outcome.wall_digital, outcome.wall_sigmoid
    );
    Ok(())
}
