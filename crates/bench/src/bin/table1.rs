//! Regenerates **Table I**: `t_err` of the digital baseline and the sigmoid
//! prototype against the analog reference, error ratios, and simulation
//! wall times, for c17/c499/c1355 under the three stimulus setups, plus the
//! c1355 same-stimulus row.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sigbench --bin table1 -- \
//!     [--circuits c17,c499,c1355] [--runs 5] [--seed 1] [--paper-scale] \
//!     [--library nor-only|native] [--parallelism 0] [--mc-parallelism 1] \
//!     [--out results]
//! ```
//!
//! The paper uses 50 runs per cell; `--runs 50` reproduces that scale.
//! `--library native` simulates the native-cell mapped circuits with the
//! full cell library instead of NOR-expanding them (the gate-count and
//! `t_sim` advantage row); every CSV row carries its library and mapping
//! policy so results files are self-describing. `--parallelism` gates the
//! model-training pipeline (0 = all cores, the default).
//! `--mc-parallelism 0` additionally fans the Monte-Carlo comparison runs
//! out across all cores (`t_err` columns are bit-identical at any
//! setting), but it defaults to sequential because the reported `t_sim`
//! wall-clock columns are per-run timings — measuring them under parallel
//! contention would inflate them.

use std::time::Duration;

use nanospice::EngineConfig;
use sigbench::{load_library, results_dir_from, write_csv_text, Args};
use sigchar::{AnalogOptions, DelayTable};
use sigcircuit::{Benchmark, MappingPolicy};
use sigsim::{
    compare_circuit_monte_carlo_cells, CellModels, HarnessConfig, McSummary, MonteCarloConfig,
    SigmoidInputMode, StimulusSpec,
};

struct Cell {
    circuit: String,
    library: String,
    mapping: String,
    gates: usize,
    mu_ps: f64,
    sigma_ps: f64,
    err_ratio: f64,
    t_err_digital_ps: f64,
    t_err_sigmoid_ps: f64,
    wall_sigmoid: Duration,
    wall_analog: Duration,
    same_stimulus: bool,
}

fn main() {
    let args = Args::parse();
    let circuits = args.get("circuits", "c17,c499,c1355");
    let library = args.get("library", "nor-only");
    let policy = MappingPolicy::from_name(&library).unwrap_or_else(|| {
        eprintln!("table1: unknown library {library:?} (nor-only/native)");
        std::process::exit(2);
    });
    let mc = MonteCarloConfig {
        runs: args.get_num("runs", 5),
        seed: args.get_num("seed", 1),
        // Sequential by default: the t_sim columns are per-run wall-clock
        // timings and must not include parallel contention (see module
        // docs); pass `--mc-parallelism 0` to use every core when only
        // the t_err columns matter. Distinct from `--parallelism`, which
        // gates model training (where timing fidelity is irrelevant).
        parallelism: args.get_num("mc-parallelism", 1),
        // `--fleet 1` runs every seed's sigmoid simulation in lockstep
        // through one CircuitProgram::execute_fleet (t_err columns are
        // bit-identical; t_sim_sig becomes the amortized share).
        fleet: args.get_num::<u32>("fleet", 0) != 0,
    };

    // Benchmark circuits carry per-instance interconnect variation; the
    // digital baseline's extraction grid covers it (fan-out x load), the
    // sigmoid prototype keeps only its nominal FO1/FO2 ANNs (Sec. V-C's
    // "much more accurate gate characterization used for ModelSim").
    let variation: f64 = args.get_num("wire-variation", 0.35);
    let analog = AnalogOptions {
        wire_cap_variation: variation,
        ..AnalogOptions::default()
    };
    let cells = load_library(&args, policy).cell_models();
    // Extraction covers the classes the mapped circuits actually
    // instantiate: NOR/INV for the prototype mapping, every native cell
    // for --library native (NAND2/AND2/OR2 get their own chain delays
    // instead of the historical NOR-class reuse).
    let delay_cells: &[sigchar::ChainGate] = match policy {
        MappingPolicy::NorOnly => &sigchar::LEGACY_DELAY_CELLS,
        MappingPolicy::Native => &sigchar::NATIVE_DELAY_CELLS,
    };
    let delays = DelayTable::measure_cells(
        delay_cells,
        1..=6,
        &[
            1.0 - variation,
            1.0 - variation / 2.0,
            1.0,
            1.0 + variation / 2.0,
            1.0 + variation,
        ],
        &AnalogOptions::default(),
        &EngineConfig::default(),
    )
    .expect("delay extraction failed");

    let mut rows: Vec<Cell> = Vec::new();
    for name in circuits.split(',') {
        let bench = Benchmark::by_name(name.trim()).expect("unknown circuit");
        for spec in StimulusSpec::table1() {
            let cell = run_cell(
                &bench,
                policy,
                &spec,
                &mc,
                &cells,
                &delays,
                &analog,
                SigmoidInputMode::Fitted,
            );
            print_cell(&cell);
            rows.push(cell);
        }
    }

    // The detailed same-stimulus comparison (last row of Table I) on the
    // largest circuit requested.
    if let Some(last) = circuits.split(',').next_back() {
        let bench = Benchmark::by_name(last.trim()).expect("unknown circuit");
        let spec = StimulusSpec::fast();
        let cell = run_cell(
            &bench,
            policy,
            &spec,
            &mc,
            &cells,
            &delays,
            &analog,
            SigmoidInputMode::SameAsDigital,
        );
        print_cell(&cell);
        rows.push(cell);
    }

    // CSV artifact: text columns make every row self-describing.
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|c| {
            vec![
                c.circuit.clone(),
                c.library.clone(),
                c.mapping.clone(),
                c.gates.to_string(),
                format!("{:.6e}", c.mu_ps),
                format!("{:.6e}", c.sigma_ps),
                format!("{:.6e}", c.err_ratio),
                format!("{:.6e}", c.t_err_digital_ps),
                format!("{:.6e}", c.t_err_sigmoid_ps),
                format!("{:.6e}", c.wall_sigmoid.as_secs_f64()),
                format!("{:.6e}", c.wall_analog.as_secs_f64()),
                u8::from(c.same_stimulus).to_string(),
            ]
        })
        .collect();
    write_csv_text(
        &results_dir_from(&args).join("table1.csv"),
        &[
            "circuit",
            "library",
            "mapping",
            "gates",
            "mu_ps",
            "sigma_ps",
            "error_ratio",
            "t_err_digital_ps",
            "t_err_sigmoid_ps",
            "t_sim_sigmoid_s",
            "t_sim_analog_s",
            "same_stimulus",
        ],
        &csv_rows,
    );
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    bench: &Benchmark,
    policy: MappingPolicy,
    spec: &StimulusSpec,
    mc: &MonteCarloConfig,
    cells: &CellModels,
    delays: &DelayTable,
    analog: &AnalogOptions,
    mode: SigmoidInputMode,
) -> Cell {
    let circuit = bench.circuit_for(policy);
    let config = HarnessConfig {
        sigmoid_inputs: mode,
        analog: *analog,
        ..HarnessConfig::default()
    };
    let outcomes = compare_circuit_monte_carlo_cells(circuit, spec, cells, delays, &config, mc)
        .expect("comparison failed");
    let summary = McSummary::from_outcomes(&outcomes, circuit.gates().len());
    Cell {
        circuit: bench.name.to_string(),
        library: cells.name().to_string(),
        mapping: policy.as_str().to_string(),
        gates: bench.gate_count(policy),
        mu_ps: spec.mu * 1e12,
        sigma_ps: spec.sigma * 1e12,
        err_ratio: if summary.digital.mean > 0.0 {
            summary.error_ratio()
        } else {
            f64::NAN
        },
        t_err_digital_ps: summary.digital.mean * 1e12,
        t_err_sigmoid_ps: summary.sigmoid.mean * 1e12,
        wall_sigmoid: summary.wall_sigmoid / summary.runs as u32,
        wall_analog: summary.wall_analog / summary.runs as u32,
        same_stimulus: mode == SigmoidInputMode::SameAsDigital,
    }
}

fn print_cell(c: &Cell) {
    println!(
        "{:>6}{} [{}/{}] #gates={:<5} ({:>5.0},{:>5.0})ps  ratio={:<5.2} t_err_dig={:>9.2}ps t_err_sig={:>9.2}ps  t_sim_sig={:>9.3?} t_sim_spice={:>9.3?}",
        c.circuit,
        if c.same_stimulus { "*" } else { " " },
        c.library,
        c.mapping,
        c.gates,
        c.mu_ps,
        c.sigma_ps,
        c.err_ratio,
        c.t_err_digital_ps,
        c.t_err_sigmoid_ps,
        c.wall_sigmoid,
        c.wall_analog,
    );
}
