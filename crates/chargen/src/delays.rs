//! Per-gate digital delay extraction from analog step responses — the
//! reproduction's stand-in for the paper's Genus/Innovus delay extraction
//! feeding ModelSim.

use std::collections::HashMap;

use digilog::InertialDelay;
use nanospice::{Dc, Engine, EngineConfig, Pwl, Stimulus};
use sigwave::{DigitalTrace, Level};

use crate::analog::{build_analog, AnalogOptions};
use crate::chain::{ChainGate, CharChain};
use crate::extract::CharError;

/// Extracted 50 %→50 % propagation delays of one gate configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDelays {
    /// Input-to-output delay for a rising *output* transition (seconds).
    pub rise: f64,
    /// Delay for a falling output transition (seconds).
    pub fall: f64,
}

impl GateDelays {
    /// As an inertial channel (the classic digital-simulator model).
    #[must_use]
    pub fn to_inertial(self) -> InertialDelay {
        InertialDelay {
            rise: self.rise,
            fall: self.fall,
        }
    }
}

/// Measures the rise/fall delays of any characterizable cell kind
/// (inverter, NOR, NAND, AND, OR chains) driving `fanout` loads with the
/// wire capacitance scaled by `load_multiplier` — the per-instance
/// extraction a signoff flow performs for every gate's actual
/// interconnect. Simulates a two-target chain and times the second
/// target (the first shapes the edge realistically).
///
/// # Errors
///
/// Returns [`CharError`] if the analog run fails or the expected crossings
/// are missing.
pub fn measure_gate_delays(
    gate: ChainGate,
    fanout: usize,
    load_multiplier: f64,
    analog_options: &AnalogOptions,
    engine_config: &EngineConfig,
) -> Result<GateDelays, CharError> {
    let analog_options = &AnalogOptions {
        wire_cap: analog_options.wire_cap * load_multiplier,
        wire_cap_variation: 0.0,
        ..*analog_options
    };
    let chain = CharChain::new(gate, 2, fanout);
    // A single slow pulse: edges are far apart, so delays are "fresh".
    let stim = DigitalTrace::new(Level::Low, vec![60e-12, 160e-12]).expect("static toggle times");
    let mut stimuli: HashMap<sigcircuit::NetId, Box<dyn Stimulus>> = HashMap::new();
    stimuli.insert(
        chain.input,
        Box::new(Pwl::heaviside_train(&stim, 0.8, 1e-12)),
    );
    let mut init = HashMap::new();
    init.insert(chain.input, Level::Low);
    if let Some(tie) = chain.tie {
        let v = if chain.tie_level.is_high() { 0.8 } else { 0.0 };
        stimuli.insert(tie, Box::new(Dc(v)));
        init.insert(tie, chain.tie_level);
    }
    let analog = build_analog(&chain.circuit, stimuli, &init, analog_options)?;
    let p_in = analog.probe_name(chain.stage_nets[1]).to_string();
    let p_out = analog.probe_name(chain.stage_nets[2]).to_string();
    let res = Engine::new(*engine_config).run(&analog.network, 0.0, 3.2e-10, &[&p_in, &p_out])?;
    let win = res.waveform(&p_in).expect("probed");
    let wout = res.waveform(&p_out).expect("probed");
    let cin = win.crossings(0.4);
    let cout = wout.crossings(0.4);
    if cin.len() != 2 || cout.len() != 2 {
        return Err(CharError::Simulation(
            nanospice::SimulationError::UnknownProbe(format!(
                "expected 2 crossings on measurement stage, got {}/{}",
                cin.len(),
                cout.len()
            )),
        ));
    }
    // Second target inverts: input falling edge -> output rising edge.
    let d1 = cout[0].0 - cin[0].0;
    let d2 = cout[1].0 - cin[1].0;
    let (rise, fall) = match cout[0].1 {
        sigwave::CrossingDirection::Rising => (d1, d2),
        sigwave::CrossingDirection::Falling => (d2, d1),
    };
    Ok(GateDelays { rise, fall })
}

/// The two cell classes [`DelayTable::measure`] measures: the paper's
/// NOR-only prototype world.
pub const LEGACY_DELAY_CELLS: [ChainGate; 2] = [ChainGate::Nor, ChainGate::Inverter];

/// All characterizable cell classes — what a native-library table
/// measures so NAND2/AND2/OR2 stop borrowing NOR-class delays.
pub const NATIVE_DELAY_CELLS: [ChainGate; 5] = [
    ChainGate::Nor,
    ChainGate::Inverter,
    ChainGate::Nand,
    ChainGate::And,
    ChainGate::Or,
];

/// A delay table indexed by **cell class** ([`ChainGate`]), fan-out and
/// interconnect load multiplier — the reproduction's equivalent of a
/// signoff extraction database: one delay entry per gate configuration
/// *including its actual interconnect*.
///
/// Historical note: the table used to key only `(inverter?, fan-out)`,
/// so NAND/AND/OR gates in compare mode reused NOR-class delays. It is
/// now keyed by cell class; [`DelayTable::lookup_cell`] falls back to
/// the NOR class for unmeasured classes, which reproduces the old
/// behaviour exactly when only the legacy classes were measured. Tables
/// are measured in-memory per process (never serialized), so the format
/// change cannot leave stale artifacts behind.
#[derive(Debug, Clone, Default)]
pub struct DelayTable {
    /// Per (cell class, fan-out): `(load multiplier, delays)` sorted by
    /// multiplier.
    by_cell: HashMap<(ChainGate, usize), Vec<(f64, GateDelays)>>,
}

impl DelayTable {
    /// Builds the legacy-class table ([`LEGACY_DELAY_CELLS`]) for every
    /// fan-out in `fanouts` at nominal load — the table the `nor-only`
    /// cell set's digital baseline uses.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors.
    pub fn measure(
        fanouts: impl IntoIterator<Item = usize>,
        analog_options: &AnalogOptions,
        engine_config: &EngineConfig,
    ) -> Result<Self, CharError> {
        Self::measure_cells(
            &LEGACY_DELAY_CELLS,
            fanouts,
            &[1.0],
            analog_options,
            engine_config,
        )
    }

    /// Builds the full (cell class × fan-out × load multiplier) grid for
    /// an arbitrary class set — [`NATIVE_DELAY_CELLS`] gives every native
    /// cell its own measured chain delays.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors.
    ///
    /// # Panics
    ///
    /// Panics if `multipliers` is empty.
    pub fn measure_cells(
        cells: &[ChainGate],
        fanouts: impl IntoIterator<Item = usize>,
        multipliers: &[f64],
        analog_options: &AnalogOptions,
        engine_config: &EngineConfig,
    ) -> Result<Self, CharError> {
        assert!(!multipliers.is_empty(), "need at least one load multiplier");
        let mut by_cell: HashMap<(ChainGate, usize), Vec<(f64, GateDelays)>> = HashMap::new();
        for f in fanouts {
            let f = f.max(1);
            for &gate in cells {
                let key = (gate, f);
                if by_cell.contains_key(&key) {
                    continue;
                }
                let mut entries = Vec::with_capacity(multipliers.len());
                for &m in multipliers {
                    entries.push((
                        m,
                        measure_gate_delays(gate, f, m, analog_options, engine_config)?,
                    ));
                }
                entries.sort_by(|a, b| a.0.total_cmp(&b.0));
                by_cell.insert(key, entries);
            }
        }
        Ok(Self { by_cell })
    }

    /// Full lookup: cell class, fan-out and load multiplier, with
    /// interpolation and graceful fallback. The load multiplier is
    /// linearly interpolated (clamped) between the measured
    /// multipliers. Fallback order for a missing
    /// `(cell, fanout)` entry: the same class at its largest measured
    /// fan-out, then the NOR class (the legacy approximation for cells a
    /// table never measured), then the inverter class, then any entry.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    #[must_use]
    pub fn lookup_cell(&self, cell: ChainGate, fanout: usize, multiplier: f64) -> GateDelays {
        let key = (cell, fanout.max(1));
        let entries = self.by_cell.get(&key).unwrap_or_else(|| {
            let largest_of = |class: ChainGate| {
                self.by_cell
                    .keys()
                    .filter(|(c, _)| *c == class)
                    .max_by_key(|(_, f)| *f)
            };
            let fallback = largest_of(cell)
                .or_else(|| largest_of(ChainGate::Nor))
                .or_else(|| largest_of(ChainGate::Inverter))
                .or_else(|| self.by_cell.keys().max_by_key(|(_, f)| *f))
                .expect("delay table must not be empty");
            &self.by_cell[fallback]
        });
        if entries.len() == 1 {
            return entries[0].1;
        }
        // Clamp outside the measured range.
        if multiplier <= entries[0].0 {
            return entries[0].1;
        }
        if multiplier >= entries[entries.len() - 1].0 {
            return entries[entries.len() - 1].1;
        }
        let i = entries.partition_point(|(m, _)| *m <= multiplier);
        let (m0, d0) = entries[i - 1];
        let (m1, d1) = entries[i];
        let w = (multiplier - m0) / (m1 - m0);
        GateDelays {
            rise: d0.rise + w * (d1.rise - d0.rise),
            fall: d0.fall + w * (d1.fall - d0.fall),
        }
    }

    /// Whether a `(cell, fan-out)` configuration was actually measured
    /// (no fallback involved).
    #[must_use]
    pub fn has_cell(&self, cell: ChainGate, fanout: usize) -> bool {
        self.by_cell.contains_key(&(cell, fanout.max(1)))
    }

    /// Number of measured (cell class, fan-out) configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_cell.len()
    }

    /// `true` if nothing was measured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_cell.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nor_delays_in_calibrated_range() {
        let d = measure_gate_delays(
            ChainGate::Nor,
            1,
            1.0,
            &AnalogOptions::default(),
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(d.rise > 0.5e-12 && d.rise < 40e-12, "rise {:.2e}", d.rise);
        assert!(d.fall > 0.5e-12 && d.fall < 40e-12, "fall {:.2e}", d.fall);
        // With the widened (pre-charged) pull-up stack the edges are
        // roughly balanced; they must at least be within 2x of each other.
        let ratio = d.rise / d.fall;
        assert!(
            (0.5..2.0).contains(&ratio),
            "unbalanced edges, ratio {ratio}"
        );
    }

    #[test]
    fn higher_fanout_is_slower() {
        let cfg = EngineConfig::default();
        let opts = AnalogOptions::default();
        let fo1 = measure_gate_delays(ChainGate::Nor, 1, 1.0, &opts, &cfg).unwrap();
        let fo3 = measure_gate_delays(ChainGate::Nor, 3, 1.0, &opts, &cfg).unwrap();
        assert!(fo3.rise > fo1.rise, "{} vs {}", fo3.rise, fo1.rise);
        assert!(fo3.fall > fo1.fall);
    }

    #[test]
    fn table_lookup_and_fallback() {
        let cfg = EngineConfig::default();
        let opts = AnalogOptions::default();
        let table = DelayTable::measure([1, 2], &opts, &cfg).unwrap();
        // Two fan-outs x two gate kinds (NOR + inverter).
        assert_eq!(table.len(), 4);
        // Inverters are characterized separately from NOR gates.
        let inv = table.lookup_cell(ChainGate::Inverter, 1, 1.0);
        assert!(inv.rise > 0.5e-12 && inv.rise < 40e-12);
        let d1 = table.lookup_cell(ChainGate::Nor, 1, 1.0);
        let d9 = table.lookup_cell(ChainGate::Nor, 9, 1.0); // falls back to fan-out 2
        let d2 = table.lookup_cell(ChainGate::Nor, 2, 1.0);
        assert_eq!(d9, d2);
        assert!(d2.rise > d1.rise);
    }

    #[test]
    fn cell_classes_have_distinct_measured_delays() {
        // A native-class table must serve NAND from its own measurement,
        // not the NOR approximation — and a legacy table must fall back
        // to the NOR class for NAND exactly as the old keying did.
        let cfg = EngineConfig::default();
        let opts = AnalogOptions::default();
        let native =
            DelayTable::measure_cells(&[ChainGate::Nor, ChainGate::Nand], [1], &[1.0], &opts, &cfg)
                .unwrap();
        assert!(native.has_cell(ChainGate::Nand, 1));
        let nand = native.lookup_cell(ChainGate::Nand, 1, 1.0);
        let nor = native.lookup_cell(ChainGate::Nor, 1, 1.0);
        assert!(nand.rise > 0.5e-12 && nand.rise < 40e-12, "{:?}", nand);
        assert_ne!(nand, nor, "NAND must not reuse the NOR measurement");

        let legacy = DelayTable::measure([1], &opts, &cfg).unwrap();
        assert!(!legacy.has_cell(ChainGate::Nand, 1));
        assert_eq!(
            legacy.lookup_cell(ChainGate::Nand, 1, 1.0),
            legacy.lookup_cell(ChainGate::Nor, 1, 1.0),
            "unmeasured classes fall back to the NOR class"
        );
        assert!(
            legacy.has_cell(ChainGate::Nor, 1) && legacy.has_cell(ChainGate::Inverter, 1),
            "the legacy table measures the two classes of the old two-class lookup"
        );
    }

    #[test]
    fn loaded_grid_interpolates() {
        let cfg = EngineConfig::default();
        let opts = AnalogOptions::default();
        let table =
            DelayTable::measure_cells(&LEGACY_DELAY_CELLS, [1], &[0.5, 1.0, 1.5], &opts, &cfg)
                .unwrap();
        let light = table.lookup_cell(ChainGate::Nor, 1, 0.5);
        let nominal = table.lookup_cell(ChainGate::Nor, 1, 1.0);
        let heavy = table.lookup_cell(ChainGate::Nor, 1, 1.5);
        assert!(light.fall < nominal.fall && nominal.fall < heavy.fall);
        // Interpolated point sits between the grid values.
        let mid = table.lookup_cell(ChainGate::Nor, 1, 1.25);
        assert!(mid.fall > nominal.fall && mid.fall < heavy.fall);
        // Clamped outside the range.
        assert_eq!(table.lookup_cell(ChainGate::Nor, 1, 0.1), light);
        assert_eq!(table.lookup_cell(ChainGate::Nor, 1, 9.0), heavy);
    }
}
