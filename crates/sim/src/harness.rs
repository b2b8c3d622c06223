//! The three-way comparison harness of Sec. V: one circuit, one stimulus,
//! three simulators — analog reference (nanospice standing in for
//! SPICE/Spectre), digital baseline (digilog standing in for ModelSim),
//! and the sigmoid prototype — with the paper's `t_err` accounting.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use digilog::{simulate as simulate_digital, GateChannels};
use nanospice::{Engine, EngineConfig, Pwl, Stimulus};
use rand::SeedableRng;
use sigchar::{build_analog, AnalogOptions, BuildAnalogError, CharError, DelayTable};
use sigcircuit::{Circuit, NetId};
use sigfit::{fit_waveform, FitOptions};
use sigtom::TomOptions;
use sigwave::metrics::{t_err_digital, Window};
use sigwave::{DigitalTrace, Level, SigmoidTrace, Waveform};

use crate::simulator::{
    simulate_cells_with, CellModels, CircuitProgram, FleetScratch, SigmoidSimConfig,
    SigmoidSimError,
};

/// How the sigmoid simulator's input traces are derived from the analog
/// reference inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigmoidInputMode {
    /// Fit sigmoids to the shaped analog input waveforms (the paper's
    /// standard setup).
    #[default]
    Fitted,
    /// Use exactly the transitions the digital simulator sees (threshold
    /// crossings with a fixed steep slope) — the "same stimulus" row of
    /// Table I, where "our sigmoid simulator was stimulated with exactly
    /// the same input waveforms as ModelSim".
    SameAsDigital,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Analog translation options (shaping/termination, caps).
    pub analog: AnalogOptions,
    /// Analog engine settings.
    pub engine: EngineConfig,
    /// Waveform fitting options (for input fitting).
    pub fit: FitOptions,
    /// TOM prediction options.
    pub tom: TomOptions,
    /// Extra settling time simulated after the last input transition
    /// (seconds).
    pub tail: f64,
    /// How the sigmoid simulator's inputs are derived.
    pub sigmoid_inputs: SigmoidInputMode,
    /// Scheduling of the sigmoid simulator (batched or scalar); traces
    /// are identical at either setting, only `wall_sigmoid` changes. One
    /// simulation runs on one thread; Monte-Carlo campaigns spread whole
    /// runs over threads ([`MonteCarloConfig::parallelism`]).
    pub sigmoid_sim: SigmoidSimConfig,
    /// SIMD kernel policy override. `None` leaves the process-global
    /// policy untouched (resolved from the `SIG_SIMD` environment
    /// variable on first use); `Some` pins it via
    /// [`signn::simd::set_policy`] before the comparison runs. Traces are
    /// bit-identical at every level, only `wall_sigmoid` changes.
    pub simd: Option<signn::simd::SimdPolicy>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            analog: AnalogOptions::default(),
            engine: EngineConfig::default(),
            fit: FitOptions::default(),
            tom: TomOptions::default(),
            tail: 120e-12,
            sigmoid_inputs: SigmoidInputMode::Fitted,
            sigmoid_sim: SigmoidSimConfig::default(),
            simd: None,
        }
    }
}

/// The fixed slope used when converting Heaviside transitions to sigmoids
/// in [`SigmoidInputMode::SameAsDigital`] (scaled units; a sharp but
/// finite edge).
pub const SAME_STIMULUS_SLOPE: f64 = 40.0;

/// Converts a digital trace into a sigmoidal trace with fixed steep slopes
/// at the same crossing times.
#[must_use]
pub fn digital_to_sigmoid(trace: &DigitalTrace, vdd: f64) -> SigmoidTrace {
    let mut rising = !trace.initial().is_high();
    let transitions = trace
        .toggles()
        .iter()
        .map(|&t| {
            let s = if rising {
                sigwave::Sigmoid::rising(SAME_STIMULUS_SLOPE, sigwave::to_scaled_time(t))
            } else {
                sigwave::Sigmoid::falling(SAME_STIMULUS_SLOPE, sigwave::to_scaled_time(t))
            };
            rising = !rising;
            s
        })
        .collect();
    SigmoidTrace::from_transitions(trace.initial(), transitions, vdd)
        .expect("digital traces alternate by construction")
}

/// Error from the harness.
#[derive(Debug)]
pub enum HarnessError {
    /// Analog build failed.
    Build(BuildAnalogError),
    /// Analog simulation failed.
    Analog(nanospice::SimulationError),
    /// Input fitting failed.
    Fit(sigfit::WaveformFitError),
    /// Sigmoid simulation failed.
    Sigmoid(SigmoidSimError),
    /// Digital simulation failed.
    Digital(digilog::DigitalSimError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "analog build: {e}"),
            Self::Analog(e) => write!(f, "analog simulation: {e}"),
            Self::Fit(e) => write!(f, "input fitting: {e}"),
            Self::Sigmoid(e) => write!(f, "sigmoid simulation: {e}"),
            Self::Digital(e) => write!(f, "digital simulation: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<BuildAnalogError> for HarnessError {
    fn from(e: BuildAnalogError) -> Self {
        Self::Build(e)
    }
}
impl From<nanospice::SimulationError> for HarnessError {
    fn from(e: nanospice::SimulationError) -> Self {
        Self::Analog(e)
    }
}
impl From<sigfit::WaveformFitError> for HarnessError {
    fn from(e: sigfit::WaveformFitError) -> Self {
        Self::Fit(e)
    }
}
impl From<SigmoidSimError> for HarnessError {
    fn from(e: SigmoidSimError) -> Self {
        Self::Sigmoid(e)
    }
}
impl From<digilog::DigitalSimError> for HarnessError {
    fn from(e: digilog::DigitalSimError) -> Self {
        Self::Digital(e)
    }
}

impl From<CharError> for HarnessError {
    fn from(e: CharError) -> Self {
        match e {
            CharError::Build(b) => Self::Build(b),
            CharError::Simulation(s) => Self::Analog(s),
            CharError::Fit(f) => Self::Fit(f),
        }
    }
}

/// Per-output traces from one comparison run (the Fig. 5 data).
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Output net name.
    pub net: String,
    /// The analog reference waveform.
    pub analog: Waveform,
    /// The digital baseline's prediction.
    pub digital: DigitalTrace,
    /// The sigmoid prototype's prediction.
    pub sigmoid: SigmoidTrace,
}

/// Aggregate result of one comparison run (one Table I cell contribution).
#[derive(Debug, Clone)]
pub struct ComparisonOutcome {
    /// Total `t_err` of the digital baseline vs the analog reference,
    /// summed over all outputs (seconds).
    pub t_err_digital: f64,
    /// Total `t_err` of the sigmoid prototype (seconds).
    pub t_err_sigmoid: f64,
    /// Number of primary outputs compared.
    pub outputs: usize,
    /// Wall time of the analog engine run.
    pub wall_analog: Duration,
    /// Wall time of the digital simulation.
    pub wall_digital: Duration,
    /// Wall time of the sigmoid simulation (prediction only).
    pub wall_sigmoid: Duration,
    /// The observation window used for `t_err`.
    pub window: Window,
    /// Per-output traces (for plots and debugging).
    pub bundles: Vec<TraceBundle>,
}

impl ComparisonOutcome {
    /// The paper's error ratio `t_err_sigmoid / t_err_digital` (∞ when the
    /// digital baseline is perfect).
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        if self.t_err_digital == 0.0 {
            if self.t_err_sigmoid == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.t_err_sigmoid / self.t_err_digital
        }
    }
}

/// Aggregate statistics of one `t_err` series across a Monte-Carlo
/// campaign (all values in seconds, like the per-run fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McStats {
    /// Arithmetic mean over all runs.
    pub mean: f64,
    /// Smallest per-run value.
    pub min: f64,
    /// Largest per-run value.
    pub max: f64,
    /// 95th percentile (nearest-rank on the sorted runs — the value at
    /// index `ceil(0.95·n) - 1`, so it is always an observed run).
    pub p95: f64,
}

impl McStats {
    fn of(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "stats need at least one run");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        values.sort_by(f64::total_cmp);
        // Nearest-rank: ceil(0.95 n) clamped into 1..=n.
        let rank = (0.95 * n as f64).ceil() as usize;
        Self {
            mean,
            min: values[0],
            max: values[n - 1],
            p95: values[rank.clamp(1, n) - 1],
        }
    }
}

/// Per-circuit aggregation of a Monte-Carlo comparison campaign: the
/// digital and sigmoid `t_err` distributions, total wall-clock per
/// simulator, and the total gate-evaluation count — the row form the
/// `table1` binary prints.
#[derive(Debug, Clone, PartialEq)]
pub struct McSummary {
    /// Number of outcomes aggregated.
    pub runs: usize,
    /// `t_err` statistics of the digital baseline.
    pub digital: McStats,
    /// `t_err` statistics of the sigmoid prototype.
    pub sigmoid: McStats,
    /// Total analog-engine wall time across all runs.
    pub wall_analog: Duration,
    /// Total digital-baseline wall time across all runs.
    pub wall_digital: Duration,
    /// Total sigmoid-simulation wall time across all runs (in fleet mode
    /// this is the fleet execution's wall time, re-assembled from the
    /// per-run amortized shares).
    pub wall_sigmoid: Duration,
    /// Total gates evaluated: `runs ×` the circuit's gate count (each
    /// comparison run evaluates every gate exactly once).
    pub gates_evaluated: u64,
}

impl McSummary {
    /// Aggregates a campaign's outcomes; `gates_per_run` is the circuit's
    /// gate count.
    ///
    /// # Panics
    ///
    /// Panics on an empty outcome slice (no runs — nothing to
    /// summarize).
    #[must_use]
    pub fn from_outcomes(outcomes: &[ComparisonOutcome], gates_per_run: usize) -> Self {
        assert!(!outcomes.is_empty(), "cannot summarize zero outcomes");
        Self {
            runs: outcomes.len(),
            digital: McStats::of(outcomes.iter().map(|o| o.t_err_digital).collect()),
            sigmoid: McStats::of(outcomes.iter().map(|o| o.t_err_sigmoid).collect()),
            wall_analog: outcomes.iter().map(|o| o.wall_analog).sum(),
            wall_digital: outcomes.iter().map(|o| o.wall_digital).sum(),
            wall_sigmoid: outcomes.iter().map(|o| o.wall_sigmoid).sum(),
            gates_evaluated: (outcomes.len() * gates_per_run) as u64,
        }
    }

    /// The campaign-level error ratio `mean t_err_sigmoid / mean
    /// t_err_digital`, with the same perfect-baseline conventions as
    /// [`ComparisonOutcome::error_ratio`].
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        if self.digital.mean == 0.0 {
            if self.sigmoid.mean == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.sigmoid.mean / self.digital.mean
        }
    }
}

/// Runs the full three-way comparison of a library-cell circuit under the
/// given digital input stimuli.
///
/// The analog run is the reference: its shaped input waveforms are fitted
/// (for the sigmoid simulator) and digitized (for the digital simulator),
/// so all three simulators observe the *same* inputs, exactly as in the
/// paper's setup. The circuit may be in either mapped form — NOR-only or
/// native cells — as long as `cells` covers its gates and the analog
/// translator can realize them (INV, NOR1–3, NAND2, AND2, OR2).
///
/// # Errors
///
/// Returns [`HarnessError`] if any stage fails structurally.
pub fn compare_circuit_cells(
    circuit: &Circuit,
    stimuli: &HashMap<NetId, DigitalTrace>,
    cells: &CellModels,
    delays: &DelayTable,
    config: &HarnessConfig,
) -> Result<ComparisonOutcome, HarnessError> {
    if let Some(policy) = config.simd {
        signn::simd::set_policy(policy);
    }
    let prepared = prepare_run(circuit, stimuli, delays, config)?;
    let start = Instant::now();
    let sigmoid_result = simulate_cells_with(
        circuit,
        &prepared.sigmoid_inputs,
        cells,
        config.tom,
        &config.sigmoid_sim,
    )?;
    let wall_sigmoid = start.elapsed();
    Ok(finish_run(
        circuit,
        prepared,
        &sigmoid_result,
        wall_sigmoid,
        config,
    ))
}

/// Everything one comparison run produces *before* the sigmoid simulator
/// executes: the analog reference (probed output waveforms), the common
/// derived inputs, and the digital baseline with its timing. Splitting
/// here lets the fleet Monte-Carlo path run the sigmoid stage of many
/// runs as one [`CircuitProgram::execute_fleet`] while keeping every
/// other stage — and therefore every `t_err` — identical to the
/// independent path.
struct PreparedRun {
    sigmoid_inputs: HashMap<NetId, Arc<SigmoidTrace>>,
    /// Analog output waveforms, in `circuit.outputs()` order.
    output_waves: Vec<Waveform>,
    digital: digilog::DigitalSimResult,
    wall_analog: Duration,
    wall_digital: Duration,
    t_end: f64,
}

/// The analog + input-derivation + digital-baseline stages of
/// [`compare_circuit_cells`] (everything up to the sigmoid simulation).
fn prepare_run(
    circuit: &Circuit,
    stimuli: &HashMap<NetId, DigitalTrace>,
    delays: &DelayTable,
    config: &HarnessConfig,
) -> Result<PreparedRun, HarnessError> {
    // ---- Analog reference -------------------------------------------------
    let mut analog_stimuli: HashMap<NetId, Box<dyn Stimulus>> = HashMap::new();
    let mut init = HashMap::new();
    let mut t_last: f64 = 0.0;
    for (&net, trace) in stimuli {
        analog_stimuli.insert(net, Box::new(Pwl::heaviside_train(trace, 0.8, 1e-12)));
        init.insert(net, trace.initial());
        if let Some(&last) = trace.toggles().last() {
            t_last = t_last.max(last);
        }
    }
    let analog = build_analog(circuit, analog_stimuli, &init, &config.analog)?;
    let mut probe_names: Vec<String> = Vec::new();
    for &i in circuit.inputs() {
        probe_names.push(analog.probe_name(i).to_string());
    }
    for &o in circuit.outputs() {
        probe_names.push(analog.probe_name(o).to_string());
    }
    let probes: Vec<&str> = probe_names.iter().map(String::as_str).collect();
    let t_end = t_last + config.tail;

    let start = Instant::now();
    let analog_result = Engine::new(config.engine).run(&analog.network, 0.0, t_end, &probes)?;
    let wall_analog = start.elapsed();

    // ---- Derive the common inputs -----------------------------------------
    let threshold = config.tom.vdd / 2.0;
    let mut sigmoid_inputs: HashMap<NetId, Arc<SigmoidTrace>> = HashMap::new();
    let mut digital_inputs: HashMap<NetId, DigitalTrace> = HashMap::new();
    for &i in circuit.inputs() {
        let wave = analog_result
            .waveform(analog.probe_name(i))
            .expect("probed");
        let digitized = wave.digitize(threshold);
        let sigmoid = match config.sigmoid_inputs {
            SigmoidInputMode::Fitted => fit_waveform(wave, &config.fit)?.trace,
            SigmoidInputMode::SameAsDigital => digital_to_sigmoid(&digitized, config.tom.vdd),
        };
        sigmoid_inputs.insert(i, Arc::new(sigmoid));
        digital_inputs.insert(i, digitized);
    }

    // ---- Digital baseline --------------------------------------------------
    // Per-instance delays: the digital baseline knows each gate's actual
    // fan-out *and* interconnect (like ModelSim fed by Genus/Innovus
    // extraction), while the sigmoid prototype only has its FO1/FO2 models.
    // Lookups are keyed by cell class, so native NAND2/AND2/OR2 instances
    // use their own measured chain delays when the table carries them
    // (tables without those classes fall back to the NOR class — the
    // historical approximation, and still exact for NOR-only circuits).
    let fanouts = circuit.fanout_counts();
    let channels = GateChannels::from_fn(circuit, |gi| {
        let gate = &circuit.gates()[gi];
        let mult = sigchar::wire_cap_multiplier(
            circuit.net_name(gate.output),
            config.analog.wire_cap_variation,
        );
        Box::new(
            delays
                .lookup_cell(delay_class(gate), fanouts[gate.output.0], mult)
                .to_inertial(),
        )
    });
    let start = Instant::now();
    let digital_result = simulate_digital(circuit, &digital_inputs, &channels)?;
    let wall_digital = start.elapsed();

    let output_waves = circuit
        .outputs()
        .iter()
        .map(|&o| {
            analog_result
                .waveform(analog.probe_name(o))
                .expect("probed")
                .clone()
        })
        .collect();
    Ok(PreparedRun {
        sigmoid_inputs,
        output_waves,
        digital: digital_result,
        wall_analog,
        wall_digital,
        t_end,
    })
}

/// The `t_err` accounting stage of [`compare_circuit_cells`]: folds a
/// prepared run and its sigmoid result into a [`ComparisonOutcome`].
fn finish_run(
    circuit: &Circuit,
    prepared: PreparedRun,
    sigmoid_result: &crate::simulator::SigmoidSimResult,
    wall_sigmoid: Duration,
    config: &HarnessConfig,
) -> ComparisonOutcome {
    let threshold = config.tom.vdd / 2.0;
    let window = Window::new(0.0, prepared.t_end);
    let mut t_err_dig = 0.0;
    let mut t_err_sig = 0.0;
    let mut bundles = Vec::with_capacity(circuit.outputs().len());
    for (&o, wave) in circuit.outputs().iter().zip(prepared.output_waves) {
        let reference = wave.digitize(threshold);
        let dig = prepared.digital.trace(o).clone();
        let sig = sigmoid_result.trace(o).clone();
        t_err_dig += t_err_digital(&reference, &dig, window);
        t_err_sig += t_err_digital(&reference, &sig.digitize(threshold), window);
        bundles.push(TraceBundle {
            net: circuit.net_name(o).to_string(),
            analog: wave,
            digital: dig,
            sigmoid: sig,
        });
    }

    ComparisonOutcome {
        t_err_digital: t_err_dig,
        t_err_sigmoid: t_err_sig,
        outputs: circuit.outputs().len(),
        wall_analog: prepared.wall_analog,
        wall_digital: prepared.wall_digital,
        wall_sigmoid,
        window,
        bundles,
    }
}

/// Configuration of a multi-seed Monte-Carlo comparison campaign.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloConfig {
    /// Number of independent runs (the paper uses 50 per Table I cell).
    pub runs: usize,
    /// Base seed; each run derives its own stream deterministically.
    pub seed: u64,
    /// Worker threads for the runs (`0` = auto-detect, `1` = sequential).
    pub parallelism: usize,
    /// Fleet execution: run every seed's sigmoid simulation in lockstep
    /// through one [`CircuitProgram::execute_fleet`] call instead of one
    /// independent simulation per run. Seeding, stimuli and every `t_err`
    /// are bit-identical to the independent path (property-tested); only
    /// the `wall_sigmoid` fields change — each outcome reports its
    /// amortized share (fleet wall time ÷ runs). Implies sequential
    /// preparation (`parallelism` is ignored).
    pub fleet: bool,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            runs: 5,
            seed: 1,
            parallelism: sigwave::parallel::available_parallelism(),
            fleet: false,
        }
    }
}

impl MonteCarloConfig {
    /// The derived seed of run `r` for a stimulus spec with `transitions`
    /// transitions (the Table I binary's historical formula, kept so cached
    /// results stay comparable).
    #[must_use]
    pub fn run_seed(&self, r: usize, transitions: usize) -> u64 {
        self.seed ^ (r as u64).wrapping_mul(0x9e37_79b9) ^ transitions as u64
    }
}

/// Runs [`compare_circuit_cells`] for `mc.runs` independently seeded stimuli,
/// fanned out across the worker pool; outcomes are returned in run order
/// and the `t_err` results are identical at any parallelism setting (each
/// run owns its RNG).
///
/// **Timing caveat:** each outcome's `wall_*` fields are per-run
/// `Instant`-based measurements. At `parallelism > 1` concurrent runs
/// contend for cores and inflate those timings — set `parallelism: 1`
/// when the wall-clock fields are the quantity of interest (as the
/// `table1` binary does for the paper's `t_sim` columns).
///
/// # Errors
///
/// Returns the lowest-index run's [`HarnessError`] if any run fails.
pub fn compare_circuit_monte_carlo_cells(
    circuit: &Circuit,
    spec: &crate::stimulus::StimulusSpec,
    cells: &CellModels,
    delays: &DelayTable,
    config: &HarnessConfig,
    mc: &MonteCarloConfig,
) -> Result<Vec<ComparisonOutcome>, HarnessError> {
    if mc.fleet {
        return compare_monte_carlo_fleet(circuit, spec, cells, delays, config, mc);
    }
    let runs: Vec<usize> = (0..mc.runs).collect();
    sigwave::parallel::try_par_map(mc.parallelism, &runs, |_, &r| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(mc.run_seed(r, spec.transitions));
        let stimuli = random_stimuli(circuit, spec, &mut rng);
        compare_circuit_cells(circuit, &stimuli, cells, delays, config)
    })
}

/// The fleet form of the Monte-Carlo campaign: prepare every run
/// (analog + digital baselines, per-run RNG seeding unchanged), then run
/// all sigmoid simulations in lockstep through one
/// [`CircuitProgram::execute_fleet`], and finally account each run. Every
/// non-timing field of every outcome is bit-identical to the independent
/// path; `wall_sigmoid` reports each run's amortized share of the one
/// fleet execution.
fn compare_monte_carlo_fleet(
    circuit: &Circuit,
    spec: &crate::stimulus::StimulusSpec,
    cells: &CellModels,
    delays: &DelayTable,
    config: &HarnessConfig,
    mc: &MonteCarloConfig,
) -> Result<Vec<ComparisonOutcome>, HarnessError> {
    if let Some(policy) = config.simd {
        signn::simd::set_policy(policy);
    }
    let mut prepared = Vec::with_capacity(mc.runs);
    for r in 0..mc.runs {
        let mut rng = rand::rngs::StdRng::seed_from_u64(mc.run_seed(r, spec.transitions));
        let stimuli = random_stimuli(circuit, spec, &mut rng);
        prepared.push(prepare_run(circuit, &stimuli, delays, config)?);
    }
    let program = CircuitProgram::compile(
        Arc::new(circuit.clone()),
        Arc::new(cells.clone()),
        config.tom,
    )?;
    let sets: Vec<HashMap<NetId, Arc<SigmoidTrace>>> =
        prepared.iter().map(|p| p.sigmoid_inputs.clone()).collect();
    let mut scratch = FleetScratch::new();
    let start = Instant::now();
    let results = program.execute_fleet_with(&sets, &config.sigmoid_sim, &mut scratch)?;
    let wall_share = start
        .elapsed()
        .checked_div(mc.runs.max(1) as u32)
        .unwrap_or_default();
    Ok(prepared
        .into_iter()
        .zip(results)
        .map(|(p, sigmoid)| finish_run(circuit, p, &sigmoid, wall_share, config))
        .collect())
}

/// The delay-table cell class of a circuit gate. Single-input gates time
/// like inverter chains (the historical rule, which keeps NOR-only
/// circuits bit-identical); multi-input gates resolve to their own class.
/// Kinds with no characterization chain (XOR/XNOR never reach the
/// baseline — the sigmoid validation already rejected them; BUF maps to
/// two inverters in native netlists) use the NOR class like the legacy
/// keying did.
fn delay_class(gate: &sigcircuit::Gate) -> sigchar::ChainGate {
    use sigcircuit::GateKind;
    if gate.inputs.len() == 1 {
        return sigchar::ChainGate::Inverter;
    }
    match gate.kind {
        GateKind::Nand => sigchar::ChainGate::Nand,
        GateKind::And => sigchar::ChainGate::And,
        GateKind::Or => sigchar::ChainGate::Or,
        _ => sigchar::ChainGate::Nor,
    }
}

/// Sanity check used by tests and examples: all three simulators must agree
/// on the final settled levels of every output (boolean correctness).
#[must_use]
pub fn final_levels_agree(outcome: &ComparisonOutcome, vdd: f64) -> bool {
    outcome.bundles.iter().all(|b| {
        let analog = b.analog.values().last().copied().unwrap_or(0.0) > vdd / 2.0;
        let digital = b.digital.final_level().is_high();
        let sigmoid = b.sigmoid.final_level().is_high();
        analog == digital && digital == sigmoid
    })
}

/// Generates per-input random stimuli for a circuit from a spec.
#[must_use]
pub fn random_stimuli(
    circuit: &Circuit,
    spec: &crate::stimulus::StimulusSpec,
    rng: &mut rand::rngs::StdRng,
) -> HashMap<NetId, DigitalTrace> {
    circuit
        .inputs()
        .iter()
        .map(|&i| (i, spec.sample(rng)))
        .collect()
}

/// Holds one input assignment fixed at constant levels (useful to settle a
/// circuit or drive only a subset of inputs).
#[must_use]
pub fn constant_stimuli(circuit: &Circuit, level: Level) -> HashMap<NetId, DigitalTrace> {
    circuit
        .inputs()
        .iter()
        .map(|&i| (i, DigitalTrace::constant(level)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{train_cell_library, LibrarySpec, PipelineConfig};
    use crate::stimulus::StimulusSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sigchar::CharacterizationConfig;
    use sigchar::PulseSweep;
    use sigtom::AnnTrainConfig;

    fn tiny_pipeline() -> PipelineConfig {
        PipelineConfig {
            characterization: CharacterizationConfig {
                sweep: PulseSweep {
                    min: 10e-12,
                    max: 20e-12,
                    step: 5e-12,
                    t0: 60e-12,
                },
                chain_targets: 3,
                ..CharacterizationConfig::default()
            },
            training: AnnTrainConfig {
                epochs: 250,
                patience: 0,
                ..AnnTrainConfig::default()
            },
            region_margin: Some(4.0),
            ..PipelineConfig::default()
        }
    }

    /// A hand-built outcome with the given `t_err` pair and wall times —
    /// everything `McSummary` reads, nothing more.
    fn outcome(t_dig: f64, t_sig: f64, wall_ms: u64) -> ComparisonOutcome {
        ComparisonOutcome {
            t_err_digital: t_dig,
            t_err_sigmoid: t_sig,
            outputs: 2,
            wall_analog: Duration::from_millis(10 * wall_ms),
            wall_digital: Duration::from_millis(wall_ms),
            wall_sigmoid: Duration::from_millis(2 * wall_ms),
            window: Window::new(0.0, 1e-9),
            bundles: Vec::new(),
        }
    }

    #[test]
    fn mc_summary_aggregates_hand_built_outcomes() {
        // 20 runs with sigmoid t_err 1..=20 ps: mean 10.5, min 1, max 20,
        // p95 = ceil(0.95·20) = 19th sorted value = 19 (nearest rank).
        let outcomes: Vec<ComparisonOutcome> = (1..=20)
            .map(|i| outcome(2e-12 * i as f64, 1e-12 * i as f64, i as u64))
            .collect();
        let s = McSummary::from_outcomes(&outcomes, 546);
        assert_eq!(s.runs, 20);
        assert!((s.sigmoid.mean - 10.5e-12).abs() < 1e-24);
        assert_eq!(s.sigmoid.min, 1e-12);
        assert_eq!(s.sigmoid.max, 20e-12);
        assert_eq!(s.sigmoid.p95, 19e-12);
        assert!((s.digital.mean - 21e-12).abs() < 1e-24);
        assert_eq!(s.digital.p95, 38e-12);
        assert_eq!(s.gates_evaluated, 20 * 546);
        // Wall totals: Σ 1..=20 = 210 ms per unit.
        assert_eq!(s.wall_digital, Duration::from_millis(210));
        assert_eq!(s.wall_sigmoid, Duration::from_millis(420));
        assert_eq!(s.wall_analog, Duration::from_millis(2100));
        // Ratio of means = 0.5 here.
        assert!((s.error_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mc_summary_single_run_and_perfect_baseline() {
        let s = McSummary::from_outcomes(&[outcome(0.0, 0.0, 1)], 6);
        assert_eq!(s.runs, 1);
        assert_eq!(s.sigmoid.p95, 0.0);
        assert_eq!(s.error_ratio(), 1.0);
        let s = McSummary::from_outcomes(&[outcome(0.0, 3e-12, 1)], 6);
        assert_eq!(s.error_ratio(), f64::INFINITY);
    }

    #[test]
    fn fleet_monte_carlo_matches_independent_runs() {
        // The fleet MC parity claim on a real end-to-end campaign: same
        // seeds, same stimuli, bit-identical t_err and traces — only the
        // wall_* fields may differ.
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let circuit = &bench.nor_mapped;
        let cells = train_cell_library(&LibrarySpec::nor_only(), &tiny_pipeline())
            .unwrap()
            .cell_models();
        let delays =
            DelayTable::measure(1..=3, &AnalogOptions::default(), &EngineConfig::default())
                .unwrap();
        let spec = StimulusSpec::new(60e-12, 20e-12, 4);
        let config = HarnessConfig::default();
        let base = MonteCarloConfig {
            runs: 3,
            seed: 99,
            parallelism: 1,
            fleet: false,
        };
        let independent =
            compare_circuit_monte_carlo_cells(circuit, &spec, &cells, &delays, &config, &base)
                .unwrap();
        let fleet = compare_circuit_monte_carlo_cells(
            circuit,
            &spec,
            &cells,
            &delays,
            &config,
            &MonteCarloConfig {
                fleet: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(independent.len(), fleet.len());
        for (r, (a, b)) in independent.iter().zip(&fleet).enumerate() {
            assert_eq!(
                a.t_err_digital.to_bits(),
                b.t_err_digital.to_bits(),
                "run {r}"
            );
            assert_eq!(
                a.t_err_sigmoid.to_bits(),
                b.t_err_sigmoid.to_bits(),
                "run {r}"
            );
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.window, b.window);
            for (ba, bb) in a.bundles.iter().zip(&b.bundles) {
                assert_eq!(ba.net, bb.net);
                assert_eq!(ba.digital, bb.digital);
                assert!(
                    sigtom::traces_bit_identical(&ba.sigmoid, &bb.sigmoid),
                    "run {r} output {} sigmoid trace differs in fleet mode",
                    ba.net
                );
            }
        }
    }

    #[test]
    fn c17_three_way_comparison() {
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let circuit = &bench.nor_mapped;
        let cells = train_cell_library(&LibrarySpec::nor_only(), &tiny_pipeline())
            .unwrap()
            .cell_models();
        let delays =
            DelayTable::measure(1..=3, &AnalogOptions::default(), &EngineConfig::default())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let spec = StimulusSpec::new(60e-12, 20e-12, 6);
        let stimuli = random_stimuli(circuit, &spec, &mut rng);
        let outcome = compare_circuit_cells(
            circuit,
            &stimuli,
            &cells,
            &delays,
            &HarnessConfig::default(),
        )
        .unwrap();

        assert_eq!(outcome.outputs, 2);
        assert!(
            final_levels_agree(&outcome, 0.8),
            "all simulators must agree on settled levels"
        );
        // Errors must be small relative to the window (sane predictions).
        let budget = outcome.window.duration() * outcome.outputs as f64;
        assert!(
            outcome.t_err_sigmoid < 0.25 * budget,
            "sigmoid t_err {:.3e} too large",
            outcome.t_err_sigmoid
        );
        assert!(
            outcome.t_err_digital < 0.25 * budget,
            "digital t_err {:.3e} too large",
            outcome.t_err_digital
        );
        // The analog engine dominates the wall-clock comparison.
        assert!(outcome.wall_analog > outcome.wall_sigmoid);
    }

    #[test]
    fn c17_policies_compare_cleanly_with_one_native_library() {
        // The acceptance parity test: one trained native library drives
        // compare_circuit_cells on BOTH mapped forms of c17 — the
        // NOR-only prototype form and the native 6-NAND2 form — and all
        // three simulators agree on settled levels in each.
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let library = train_cell_library(&LibrarySpec::native(), &tiny_pipeline()).unwrap();
        let cells = library.cell_models();
        let delays =
            DelayTable::measure(1..=3, &AnalogOptions::default(), &EngineConfig::default())
                .unwrap();
        let spec = StimulusSpec::new(60e-12, 20e-12, 4);
        for (policy, circuit) in [
            (sigcircuit::MappingPolicy::NorOnly, &bench.nor_mapped),
            (sigcircuit::MappingPolicy::Native, &bench.native),
        ] {
            let mut rng = StdRng::seed_from_u64(42);
            let stimuli = random_stimuli(circuit, &spec, &mut rng);
            let outcome = compare_circuit_cells(
                circuit,
                &stimuli,
                &cells,
                &delays,
                &HarnessConfig::default(),
            )
            .unwrap();
            assert!(
                final_levels_agree(&outcome, 0.8),
                "{policy}: simulators disagree on settled levels"
            );
            let budget = outcome.window.duration() * outcome.outputs as f64;
            assert!(
                outcome.t_err_sigmoid < 0.25 * budget,
                "{policy}: sigmoid t_err {:.3e} too large",
                outcome.t_err_sigmoid
            );
        }
    }
}
