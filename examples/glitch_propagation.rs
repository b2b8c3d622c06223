//! Glitch propagation: the scenario motivating the paper's introduction.
//!
//! A narrow pulse travelling through a NOR chain degrades a little at
//! every stage until it vanishes. Pure/inertial digital models either pass
//! the pulse unchanged or kill it immediately; the sigmoid TOM tracks the
//! gradual degradation because slope information survives between gates.
//!
//! This example sends pulses of several widths through a 6-stage NOR chain
//! and reports, per model, after how many stages the pulse disappears,
//! against the analog reference. For the 8 ps pulse — the interesting
//! regime where models disagree — every per-stage trace is also dumped
//! as `target/glitch_propagation.vcd` for waveform viewers (GTKWave,
//! Surfer).
//!
//! Run with: `cargo run --release --example glitch_propagation`

use std::collections::HashMap;
use std::path::PathBuf;

use digilog::{apply_channel, PureDelay};
use nanospice::{Engine, EngineConfig, Pwl, Stimulus};
use sigchar::{build_analog, AnalogOptions, ChainGate, CharChain, DelayTable, GateTag};
use sigfit::{fit_waveform, FitOptions};
use sigsim::{train_cell_library_cached, LibrarySpec, PipelineConfig};
use sigtom::{predict_single_input, TomOptions};
use sigwave::{write_vcd, DigitalTrace, Level, VcdSignal};

const STAGES: usize = 6;

/// The pulse width whose per-stage traces are dumped as VCD.
const VCD_WIDTH_PS: f64 = 8.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = PathBuf::from("target/sigmodels/quickstart.nor-only.json");
    let library =
        train_cell_library_cached(&cache, &LibrarySpec::nor_only(), &PipelineConfig::fast())?;
    let nor = library.model(GateTag::NorFo1).ok_or("no NOR/FO1 model")?;
    let delays = DelayTable::measure([1], &AnalogOptions::default(), &EngineConfig::default())?;
    let inertial = delays.lookup_cell(ChainGate::Nor, 1, 1.0).to_inertial();
    let pure = PureDelay {
        rise: inertial.rise,
        fall: inertial.fall,
    };

    println!("pulse width -> stages survived (out of {STAGES})");
    println!(
        "{:>10} {:>8} {:>8} {:>9} {:>9}",
        "width", "analog", "sigmoid", "inertial", "pure"
    );

    let mut vcd_signals: Vec<VcdSignal> = Vec::new();
    for width_ps in [3.0, 5.0, 8.0, 12.0, 20.0, 40.0] {
        let width = width_ps * 1e-12;
        let dump_vcd = (width_ps - VCD_WIDTH_PS).abs() < f64::EPSILON;
        let stim = DigitalTrace::new(Level::Low, vec![80e-12, 80e-12 + width])?;

        // --- analog reference ------------------------------------------------
        let chain = CharChain::new(ChainGate::Nor, STAGES, 1);
        let mut stimuli: HashMap<sigcircuit::NetId, Box<dyn Stimulus>> = HashMap::new();
        stimuli.insert(
            chain.input,
            Box::new(Pwl::heaviside_train(&stim, 0.8, 1e-12)),
        );
        stimuli.insert(chain.tie.expect("nor chain"), Box::new(nanospice::Dc(0.0)));
        let mut init = HashMap::new();
        init.insert(chain.input, Level::Low);
        init.insert(chain.tie.expect("nor chain"), Level::Low);
        let analog = build_analog(&chain.circuit, stimuli, &init, &AnalogOptions::default())?;
        let probe_names: Vec<String> = chain
            .stage_nets
            .iter()
            .map(|n| analog.probe_name(*n).to_string())
            .collect();
        let probes: Vec<&str> = probe_names.iter().map(String::as_str).collect();
        let res = Engine::default().run(&analog.network, 0.0, 350e-12, &probes)?;
        let analog_survived = (1..=STAGES)
            .take_while(|&i| {
                res.waveform(&probe_names[i])
                    .map(|w| w.crossings(0.4).len() >= 2)
                    .unwrap_or(false)
            })
            .count();

        if dump_vcd {
            for (i, name) in probe_names.iter().enumerate() {
                let wave = res.waveform(name).expect("probed");
                vcd_signals.push(VcdSignal::digital(
                    format!("analog.stage{i}"),
                    &wave.digitize(0.4),
                ));
            }
        }

        // --- sigmoid TOM ------------------------------------------------------
        let input_wave = res.waveform(&probe_names[0]).expect("probed");
        let mut trace = fit_waveform(input_wave, &FitOptions::default())?.trace;
        if dump_vcd {
            vcd_signals.push(VcdSignal::sigmoid("sigmoid.stage0", &trace, 0.4));
        }
        let mut sigmoid_survived = 0;
        for stage in 1..=STAGES {
            let initial = trace.initial().inverted();
            trace = predict_single_input(&nor, &trace, initial, TomOptions::default());
            if dump_vcd {
                vcd_signals.push(VcdSignal::sigmoid(
                    format!("sigmoid.stage{stage}"),
                    &trace,
                    0.4,
                ));
            }
            if trace.len() >= 2 {
                sigmoid_survived += 1;
            } else {
                break;
            }
        }

        // --- digital channels -------------------------------------------------
        let digital_input = input_wave.digitize(0.4);
        let count_stages = |ch: &dyn digilog::DelayChannel| {
            let mut t = digital_input.clone();
            let mut survived = 0;
            for _ in 0..STAGES {
                t = apply_channel(&t.inverted(), ch);
                if t.len() >= 2 {
                    survived += 1;
                } else {
                    break;
                }
            }
            survived
        };
        let inertial_survived = count_stages(&inertial);
        let pure_survived = count_stages(&pure);
        if dump_vcd {
            let mut t = digital_input.clone();
            vcd_signals.push(VcdSignal::digital("inertial.stage0", &t));
            for stage in 1..=STAGES {
                t = apply_channel(&t.inverted(), &inertial);
                vcd_signals.push(VcdSignal::digital(format!("inertial.stage{stage}"), &t));
            }
        }

        println!(
            "{width_ps:>8.1}ps {analog_survived:>8} {sigmoid_survived:>8} {inertial_survived:>9} {pure_survived:>9}"
        );
    }
    let vcd_path = std::path::Path::new("target").join("glitch_propagation.vcd");
    std::fs::create_dir_all("target")?;
    let mut vcd_file = std::fs::File::create(&vcd_path)?;
    write_vcd(&mut vcd_file, &vcd_signals)?;
    println!(
        "\nThe sigmoid column should track the analog column much more closely\n\
         than the single-delay digital channels, which only know a hard cutoff.\n\
         Per-stage traces of the {VCD_WIDTH_PS} ps pulse: {}",
        vcd_path.display()
    );
    Ok(())
}
