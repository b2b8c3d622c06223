//! Regenerates **Fig. 5**: an example output trace comparing the digital
//! prediction, the sigmoid prediction, and the analog reference, under the
//! same-stimulus condition of the detailed c1355 comparison.
//!
//! The binary picks the output with the most analog transitions (the most
//! informative plot), writes `results/fig5.csv` with columns
//! `t_s, v_analog, v_sigmoid, v_digital` and prints the per-output errors.
//!
//! Usage:
//! `cargo run --release -p sigbench --bin fig5 -- [--circuit c1355] [--seed 3] [--paper-scale]`

use rand::rngs::StdRng;
use rand::SeedableRng;

use nanospice::EngineConfig;
use sigbench::{load_library, results_dir_from, write_csv, Args};
use sigchar::{AnalogOptions, DelayTable};
use sigcircuit::{Benchmark, MappingPolicy};
use sigsim::{
    compare_circuit_cells, random_stimuli, HarnessConfig, SigmoidInputMode, StimulusSpec,
};
use sigwave::metrics::t_err_digital;

fn main() {
    let args = Args::parse();
    let name = args.get("circuit", "c1355");
    let seed: u64 = args.get_num("seed", 3);

    let cells = load_library(&args, MappingPolicy::NorOnly).cell_models();
    let delays = DelayTable::measure(1..=6, &AnalogOptions::default(), &EngineConfig::default())
        .expect("delay extraction");

    let bench = Benchmark::by_name(&name).expect("unknown circuit");
    let circuit = &bench.nor_mapped;
    let mut rng = StdRng::seed_from_u64(seed);
    let stimuli = random_stimuli(circuit, &StimulusSpec::fast(), &mut rng);
    let config = HarnessConfig {
        sigmoid_inputs: SigmoidInputMode::SameAsDigital,
        ..HarnessConfig::default()
    };
    let outcome = compare_circuit_cells(circuit, &stimuli, &cells, &delays, &config)
        .expect("comparison failed");

    // Pick the busiest output.
    let bundle = outcome
        .bundles
        .iter()
        .max_by_key(|b| b.analog.crossings(0.4).len())
        .expect("at least one output");
    let reference = bundle.analog.digitize(0.4);
    let window = outcome.window;
    println!(
        "{}: output {:?} — analog transitions: {}",
        bench.name,
        bundle.net,
        reference.len()
    );
    println!(
        "  t_err digital  = {:8.2} ps",
        t_err_digital(&reference, &bundle.digital, window) * 1e12
    );
    println!(
        "  t_err sigmoid  = {:8.2} ps",
        t_err_digital(&reference, &bundle.sigmoid.digitize(0.4), window) * 1e12
    );
    println!(
        "  totals over {} outputs: digital {:.2} ps, sigmoid {:.2} ps (ratio {:.2})",
        outcome.outputs,
        outcome.t_err_digital * 1e12,
        outcome.t_err_sigmoid * 1e12,
        outcome.error_ratio()
    );

    let n = 3000;
    let (t0, t1) = (window.t0, window.t1);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
            let dig = if bundle.digital.level_at(t).is_high() {
                0.8
            } else {
                0.0
            };
            vec![
                t,
                bundle.analog.value_at(t),
                bundle.sigmoid.value_at(t),
                dig,
            ]
        })
        .collect();
    write_csv(
        &results_dir_from(&args).join("fig5.csv"),
        &["t_s", "v_analog", "v_sigmoid", "v_digital"],
        &rows,
    );
}
