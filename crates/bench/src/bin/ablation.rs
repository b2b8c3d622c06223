//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * transfer backend — ANN (paper) vs LUT vs interpolation polynomial,
//! * valid-region containment — on (paper) vs off,
//! * sub-threshold pulse cancellation — on (paper) vs off.
//!
//! Each variant runs the same randomized c17 comparison; `t_err` against
//! the analog reference is reported per variant.
//!
//! Usage: `cargo run --release -p sigbench --bin ablation -- [--runs 5] [--circuit c17]`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nanospice::EngineConfig;
use sigbench::{load_library, results_dir_from, write_csv, Args};
use sigchar::{AnalogOptions, DelayTable, GateTag};
use sigcircuit::{Benchmark, MappingPolicy};
use sigsim::{
    compare_circuit_cells, random_stimuli, CellLibrary, CellModels, HarnessConfig, StimulusSpec,
};
use sigtom::{GateModel, LutTransfer, PolyTransfer, TomOptions, ValidRegion};

/// The library's cells with each trained model replaced by `rebuild`.
fn variant(library: &CellLibrary, rebuild: impl Fn(GateTag, GateModel) -> GateModel) -> CellModels {
    CellModels::from_cells(
        library.name(),
        library.tags().into_iter().map(|tag| {
            let model = library.model(tag).expect("trained tag");
            (tag, rebuild(tag, model))
        }),
    )
}

fn backend_models(library: &CellLibrary, backend: &str) -> CellModels {
    variant(library, |tag, template| {
        let data = library.dataset(tag).expect("dataset stored");
        let transfer: Arc<dyn sigtom::TransferFunction + Send + Sync> = match backend {
            "lut" => Arc::new(LutTransfer::build(data, 4).expect("lut build")),
            "poly" => Arc::new(PolyTransfer::fit(data).expect("poly fit")),
            other => panic!("unknown backend {other}"),
        };
        let mut m = GateModel::new(transfer);
        if let Some(r) = template.region() {
            m = m.with_region(Arc::clone(r));
        }
        m
    })
}

fn strip_region(library: &CellLibrary) -> CellModels {
    variant(library, |_, m| GateModel::new(Arc::clone(m.transfer())))
}

fn tighten_region(library: &CellLibrary, margin: f64) -> CellModels {
    variant(library, |tag, m| {
        let data = library.dataset(tag).expect("dataset stored");
        let pts: Vec<[f64; 3]> = data
            .rising
            .iter()
            .chain(&data.falling)
            .map(|s| s.features())
            .collect();
        GateModel::new(Arc::clone(m.transfer()))
            .with_region(Arc::new(ValidRegion::build(&pts, margin)))
    })
}

fn main() {
    let args = Args::parse();
    let runs: usize = args.get_num("runs", 5);
    let circuit_name = args.get("circuit", "c17");
    let library = load_library(&args, MappingPolicy::NorOnly);
    let delays = DelayTable::measure(1..=6, &AnalogOptions::default(), &EngineConfig::default())
        .expect("delay extraction");
    let bench = Benchmark::by_name(&circuit_name).expect("unknown circuit");
    let circuit = &bench.nor_mapped;

    let ann = library.cell_models();
    let variants: Vec<(String, CellModels, TomOptions)> = vec![
        ("ann(paper)".into(), ann.clone(), TomOptions::default()),
        (
            "lut".into(),
            backend_models(&library, "lut"),
            TomOptions::default(),
        ),
        (
            "poly".into(),
            backend_models(&library, "poly"),
            TomOptions::default(),
        ),
        (
            "ann,no-region".into(),
            strip_region(&library),
            TomOptions::default(),
        ),
        (
            "ann,tight-region".into(),
            tighten_region(&library, 1.5),
            TomOptions::default(),
        ),
        (
            "ann,no-cancel".into(),
            ann.clone(),
            TomOptions {
                cancel_subthreshold: false,
                ..TomOptions::default()
            },
        ),
    ];

    println!(
        "{:<18} {:>12} {:>12} {:>8}",
        "variant", "t_err_sig", "t_err_dig", "ratio"
    );
    let mut rows = Vec::new();
    for (i, (name, models, tom)) in variants.iter().enumerate() {
        let config = HarnessConfig {
            tom: *tom,
            ..HarnessConfig::default()
        };
        let mut sum_sig = 0.0;
        let mut sum_dig = 0.0;
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(77 + r as u64);
            let stimuli = random_stimuli(circuit, &StimulusSpec::fast(), &mut rng);
            let outcome = compare_circuit_cells(circuit, &stimuli, models, &delays, &config)
                .expect("comparison failed");
            sum_sig += outcome.t_err_sigmoid;
            sum_dig += outcome.t_err_digital;
        }
        println!(
            "{:<18} {:>10.2}ps {:>10.2}ps {:>8.2}",
            name,
            sum_sig / runs as f64 * 1e12,
            sum_dig / runs as f64 * 1e12,
            sum_sig / sum_dig
        );
        rows.push(vec![
            i as f64,
            sum_sig / runs as f64 * 1e12,
            sum_dig / runs as f64 * 1e12,
            sum_sig / sum_dig,
        ]);
    }
    write_csv(
        &results_dir_from(&args).join("ablation.csv"),
        &[
            "variant_index",
            "t_err_sigmoid_ps",
            "t_err_digital_ps",
            "ratio",
        ],
        &rows,
    );
}
