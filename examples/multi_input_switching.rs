//! Multi-input switching on a NOR2 gate and the TOM decision procedure.
//!
//! The NOR output only rises once *both* inputs are low; which input is
//! "relevant" changes over time. This example sweeps the skew between two
//! falling input transitions and compares the analog output's rise time
//! against the TOM prediction with the per-input decision procedure of
//! Sec. III, and shows the masked-input case.
//!
//! Run with: `cargo run --release --example multi_input_switching`

use std::path::PathBuf;

use nanospice::{Engine, GateParams, NetworkBuilder, Pwl};
use sigchar::GateTag;
use sigsim::{digital_to_sigmoid, train_cell_library_cached, LibrarySpec, PipelineConfig};
use sigtom::{apply_plan, plan_cell, CellFunction, TomOptions};
use sigwave::{DigitalTrace, Level};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = PathBuf::from("target/sigmodels/quickstart.nor-only.json");
    let library =
        train_cell_library_cached(&cache, &LibrarySpec::nor_only(), &PipelineConfig::fast())?;
    let nor = library.model(GateTag::NorFo1).ok_or("no NOR/FO1 model")?;

    println!("NOR2 with falling input A at 100 ps, falling input B skewed:");
    println!(
        "{:>9} {:>14} {:>14} {:>9}",
        "skew(ps)", "analog rise", "sigmoid rise", "diff(ps)"
    );
    for skew_ps in [0.0, 5.0, 15.0, 30.0, 60.0] {
        let skew = skew_ps * 1e-12;
        let ta = DigitalTrace::new(Level::High, vec![100e-12])?;
        let tb = DigitalTrace::new(Level::High, vec![100e-12 + skew])?;

        // --- analog -----------------------------------------------------------
        let mut b = NetworkBuilder::new(0.8);
        let a = b.add_source("a", Pwl::heaviside_train(&ta, 0.8, 2e-12));
        let bb = b.add_source("b", Pwl::heaviside_train(&tb, 0.8, 2e-12));
        let out = b.add_state("out", 0.0);
        b.add_nor2(a, bb, out, &GateParams::default_15nm());
        b.add_cap(out, 0.2e-15);
        let net = b.build();
        let res = Engine::default().run(&net, 0.0, 300e-12, &["out"])?;
        let analog_rise = res
            .waveform("out")
            .and_then(|w| w.crossings(0.4).first().map(|c| c.0))
            .ok_or("output did not rise")?;

        // --- sigmoid TOM -------------------------------------------------------
        let sa = digital_to_sigmoid(&ta, 0.8);
        let sb = digital_to_sigmoid(&tb, 0.8);
        let prediction = apply_plan(
            plan_cell(CellFunction::Nor, &[&sa, &sb], TomOptions::default()),
            &nor,
        );
        let sigmoid_rise = prediction
            .transitions()
            .first()
            .map(sigwave::Sigmoid::crossing_seconds)
            .ok_or("TOM predicted no output transition")?;

        println!(
            "{skew_ps:>9.1} {:>12.2}ps {:>12.2}ps {:>9.2}",
            analog_rise * 1e12,
            sigmoid_rise * 1e12,
            (analog_rise - sigmoid_rise).abs() * 1e12
        );
    }

    // Masked input: B stays high, transitions on A must be ignored.
    let ta = DigitalTrace::new(Level::Low, vec![100e-12, 140e-12])?;
    let sa = digital_to_sigmoid(&ta, 0.8);
    let sb = sigwave::SigmoidTrace::constant(Level::High, 0.8);
    let masked = apply_plan(
        plan_cell(CellFunction::Nor, &[&sa, &sb], TomOptions::default()),
        &nor,
    );
    println!(
        "\nwith input B held high, the decision procedure ignores A: {} output transitions",
        masked.len()
    );
    assert!(masked.is_empty());

    Ok(())
}
