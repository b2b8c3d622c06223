//! Gate-level netlists: nets, gates, validation, topological ordering and
//! boolean evaluation.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::loader::structural_fingerprint;

/// Index of a net (signal) in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub usize);

/// The boolean function of a gate; arity is given by its input list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Inverter (arity 1).
    Inv,
    /// Buffer (arity 1).
    Buf,
    /// AND (arity ≥ 2).
    And,
    /// NAND (arity ≥ 2).
    Nand,
    /// OR (arity ≥ 2).
    Or,
    /// NOR (arity ≥ 1; a 1-input NOR is an inverter, the form produced by
    /// NOR-only mapping).
    Nor,
    /// XOR (arity 2).
    Xor,
    /// XNOR (arity 2).
    Xnor,
}

impl GateKind {
    /// Evaluates the gate on boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics on arity violations (validated at circuit construction).
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Inv => {
                assert_eq!(inputs.len(), 1);
                !inputs[0]
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1);
                inputs[0]
            }
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => {
                assert_eq!(inputs.len(), 2);
                inputs[0] ^ inputs[1]
            }
            GateKind::Xnor => {
                assert_eq!(inputs.len(), 2);
                !(inputs[0] ^ inputs[1])
            }
        }
    }

    /// Whether `arity` inputs are legal for this gate kind.
    #[must_use]
    pub fn arity_ok(&self, arity: usize) -> bool {
        match self {
            GateKind::Inv | GateKind::Buf => arity == 1,
            GateKind::Xor | GateKind::Xnor => arity == 2,
            GateKind::Nor => arity >= 1,
            GateKind::And | GateKind::Nand | GateKind::Or => arity >= 2,
        }
    }
}

impl GateKind {
    /// The upper-case cell name (`"NOR"`, `"XNOR"`, …), as displayed.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GateKind::Inv => "INV",
            GateKind::Buf => "BUF",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gate {
    /// Boolean function.
    pub kind: GateKind,
    /// Input nets, in order.
    pub inputs: Vec<NetId>,
    /// Output net (each net is driven by at most one gate).
    pub output: NetId,
}

/// A combinational gate-level circuit.
///
/// Built via [`CircuitBuilder`]; construction validates arities, single
/// drivers and acyclicity, so every constructed circuit has a topological
/// order.
///
/// Serialization carries only the source data (nets, inputs, outputs,
/// gates); the derived schedules (`topo`, `levels`, `fanouts`) and the
/// fingerprint are recomputed on deserialization so they can never
/// disagree with the gate list.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    net_names: Vec<String>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
    /// Gate indices in topological order (computed at build time).
    topo: Vec<usize>,
    /// ASAP levelization: `levels[l]` holds the (ascending) indices of the
    /// gates whose inputs are all primary inputs or outputs of gates in
    /// levels `< l` (computed at build time, like `topo`).
    levels: Vec<Vec<usize>>,
    /// Per-net fanout dependency lists: `fanouts[n]` holds the (ascending)
    /// indices of the gates reading net `n` (computed at build time, like
    /// `topo`/`levels`).
    fanouts: Vec<Vec<usize>>,
    /// [`Circuit::fingerprint`] (computed at build time, like `topo`).
    fingerprint: u64,
}

/// The derived schedules of a gate list: the topological order (Kahn), the
/// ASAP levelization, and the per-net fanout dependency lists.
type Schedules = (Vec<usize>, Vec<Vec<usize>>, Vec<Vec<usize>>);

/// Computes the derived schedules of a gate list: the topological order
/// (Kahn), the ASAP levelization and the per-net fanout lists (net index →
/// gate indices reading it). Returns `None` if the gate graph contains a
/// combinational cycle. Shared by [`CircuitBuilder::build`] and
/// deserialization (which must not trust schedules from the wire).
fn derive_schedules(gates: &[Gate], net_count: usize) -> Option<Schedules> {
    let mut driver: Vec<Option<usize>> = vec![None; net_count];
    for (gi, g) in gates.iter().enumerate() {
        // Both callers run `validate_structure` first, so each net has at
        // most one driver.
        driver[g.output.0].get_or_insert(gi);
    }
    // Kahn topological sort over gates.
    let mut indegree: Vec<usize> = gates
        .iter()
        .map(|g| g.inputs.iter().filter(|i| driver[i.0].is_some()).count())
        .collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
    // Gate indices ascend in the iteration, so each per-net list comes out
    // sorted without an explicit sort.
    let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); net_count];
    for (gi, g) in gates.iter().enumerate() {
        for i in &g.inputs {
            if let Some(d) = driver[i.0] {
                consumers[d].push(gi);
            }
            if fanouts[i.0].last() != Some(&gi) {
                fanouts[i.0].push(gi);
            }
        }
    }
    let mut queue: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut topo = Vec::with_capacity(gates.len());
    while let Some(gi) = queue.pop() {
        topo.push(gi);
        for &c in &consumers[gi] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if topo.len() != gates.len() {
        return None;
    }
    // ASAP levelization: a gate's level is the maximum level of its
    // input nets, where a net's level is its driver's level + 1 and
    // primary inputs are level 0. Walking in topological order, every
    // input net's level is final by the time its consumer is placed.
    let mut net_level = vec![0usize; net_count];
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for &gi in &topo {
        let g = &gates[gi];
        let lvl = g.inputs.iter().map(|i| net_level[i.0]).max().unwrap_or(0);
        net_level[g.output.0] = lvl + 1;
        if levels.len() <= lvl {
            levels.resize_with(lvl + 1, Vec::new);
        }
        levels[lvl].push(gi);
    }
    for level in &mut levels {
        level.sort_unstable();
    }
    Some((topo, levels, fanouts))
}

impl Serialize for Circuit {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("net_names".to_string(), self.net_names.to_value()),
            ("inputs".to_string(), self.inputs.to_value()),
            ("outputs".to_string(), self.outputs.to_value()),
            ("gates".to_string(), self.gates.to_value()),
        ])
    }
}

impl Deserialize for Circuit {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let net_names = Vec::<String>::from_value(v.get_field("net_names")?)?;
        let inputs = Vec::<NetId>::from_value(v.get_field("inputs")?)?;
        let outputs = Vec::<NetId>::from_value(v.get_field("outputs")?)?;
        let gates = Vec::<Gate>::from_value(v.get_field("gates")?)?;
        let n = net_names.len();
        let in_range = |id: &NetId| id.0 < n;
        if !inputs.iter().all(in_range)
            || !outputs.iter().all(in_range)
            || !gates
                .iter()
                .all(|g| in_range(&g.output) && g.inputs.iter().all(in_range))
        {
            return Err(serde::Error::new("circuit references a net out of range"));
        }
        validate_structure(&net_names, &inputs, &outputs, &gates)
            .map_err(|e| serde::Error::new(format!("invalid circuit: {e}")))?;
        let (topo, levels, fanouts) = derive_schedules(&gates, n)
            .ok_or_else(|| serde::Error::new("circuit contains a combinational cycle"))?;
        let fingerprint = structural_fingerprint(&net_names, &inputs, &outputs, &gates);
        Ok(Self {
            net_names,
            inputs,
            outputs,
            gates,
            topo,
            levels,
            fanouts,
            fingerprint,
        })
    }
}

/// Error building a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildCircuitError {
    /// A net is driven by more than one gate.
    MultipleDrivers {
        /// The doubly-driven net.
        net: String,
    },
    /// A gate output drives a primary input.
    DrivesInput {
        /// The offending net.
        net: String,
    },
    /// Gate has an invalid number of inputs for its kind.
    BadArity {
        /// Gate index.
        gate: usize,
        /// Gate kind.
        kind: GateKind,
        /// Provided arity.
        arity: usize,
    },
    /// A net is read but never driven and is not a primary input.
    Undriven {
        /// The floating net.
        net: String,
    },
    /// The gate graph contains a combinational cycle.
    Cyclic,
    /// An output was declared that no gate drives and is not an input.
    UndrivenOutput {
        /// The output net.
        net: String,
    },
    /// Duplicate net name.
    DuplicateName(String),
}

impl std::fmt::Display for BuildCircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MultipleDrivers { net } => write!(f, "net {net:?} has multiple drivers"),
            Self::DrivesInput { net } => write!(f, "gate drives primary input {net:?}"),
            Self::BadArity { gate, kind, arity } => {
                write!(f, "gate {gate} ({kind}) has invalid arity {arity}")
            }
            Self::Undriven { net } => write!(f, "net {net:?} is read but never driven"),
            Self::Cyclic => write!(f, "circuit contains a combinational cycle"),
            Self::UndrivenOutput { net } => write!(f, "declared output {net:?} is undriven"),
            Self::DuplicateName(n) => write!(f, "duplicate net name {n:?}"),
        }
    }
}

impl std::error::Error for BuildCircuitError {}

impl Circuit {
    /// Primary input nets.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates (unordered; see [`Circuit::topological_gates`]).
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.0]
    }

    /// Looks up a net by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.iter().position(|n| n == name).map(NetId)
    }

    /// Gate indices in topological (input→output) order.
    #[must_use]
    pub fn topological_gates(&self) -> &[usize] {
        &self.topo
    }

    /// ASAP levelization of the gate graph, cached at build time: level 0
    /// holds the gates fed only by primary inputs, level `l` the gates
    /// whose deepest input is driven from level `l − 1`. All gates within
    /// one level are independent of each other, so they can be evaluated
    /// in any order — or in parallel, or as one batch — once every
    /// earlier level is done. Gate indices within a level are ascending,
    /// and flattening the levels in order yields a valid topological
    /// order (see [`Circuit::topological_gates`]).
    #[must_use]
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// Per-net fanout dependency lists, cached at build time alongside
    /// [`Circuit::levels`]: `fanouts()[n]` holds the ascending,
    /// deduplicated indices of the gates reading net `n`. This is the
    /// dependency structure an event-driven scheduler seeds from — when a
    /// net's trace changes, exactly the gates in its list need
    /// re-evaluation. (Load *counts*, which also weigh primary outputs,
    /// are [`Circuit::fanout_counts`].)
    #[must_use]
    pub fn fanouts(&self) -> &[Vec<usize>] {
        &self.fanouts
    }

    /// A cheap structural fingerprint of the source data (net names,
    /// inputs, outputs, gate list), computed once when the circuit is
    /// built or deserialized. Equal circuits fingerprint equal; distinct
    /// circuits collide only with hash probability. Used by the
    /// `sigserve` cache to tag entries and by responses to echo which
    /// netlist was simulated.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of gate inputs reading each net (the net's fan-out); primary
    /// outputs additionally count as one load each.
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.net_names.len()];
        for g in &self.gates {
            for i in &g.inputs {
                counts[i.0] += 1;
            }
        }
        for o in &self.outputs {
            counts[o.0] += 1;
        }
        counts
    }

    /// Logic level (longest path in gates) of each net; inputs are level 0.
    /// A gate's output net sits one past its level in [`Circuit::levels`].
    #[must_use]
    pub fn net_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.net_names.len()];
        for &gi in &self.topo {
            let g = &self.gates[gi];
            let max_in = g.inputs.iter().map(|i| level[i.0]).max().unwrap_or(0);
            level[g.output.0] = max_in + 1;
        }
        level
    }

    /// Circuit depth: the maximum output level.
    #[must_use]
    pub fn depth(&self) -> usize {
        let levels = self.net_levels();
        self.outputs.iter().map(|o| levels[o.0]).max().unwrap_or(0)
    }

    /// Evaluates the circuit on a boolean input assignment (same order as
    /// [`Circuit::inputs`]); returns output values (same order as
    /// [`Circuit::outputs`]).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    #[must_use]
    pub fn eval(&self, values: &[bool]) -> Vec<bool> {
        assert_eq!(values.len(), self.inputs.len(), "input count mismatch");
        let mut nets = vec![false; self.net_names.len()];
        for (net, &v) in self.inputs.iter().zip(values) {
            nets[net.0] = v;
        }
        let mut buf = Vec::new();
        for &gi in &self.topo {
            let g = &self.gates[gi];
            buf.clear();
            buf.extend(g.inputs.iter().map(|i| nets[i.0]));
            nets[g.output.0] = g.kind.eval(&buf);
        }
        self.outputs.iter().map(|o| nets[o.0]).collect()
    }

    /// Bit-parallel boolean evaluation: bit `k` of `words[i]` is the value
    /// of input `i` in the `k`-th of 64 simultaneous input vectors; the
    /// returned vector holds one word **per net** (indexed by [`NetId`]),
    /// each bit lane evaluated independently. Lane 0 of the result equals
    /// [`Circuit::eval`] on the lane-0 bits, and so on — this is the
    /// sampling primitive equivalence checkers use to propose internal
    /// net correspondences before proving them (see the `sigcheck` crate).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the input count.
    #[must_use]
    pub fn eval_words(&self, words: &[u64]) -> Vec<u64> {
        assert_eq!(words.len(), self.inputs.len(), "input count mismatch");
        let mut nets = vec![0u64; self.net_names.len()];
        for (net, &w) in self.inputs.iter().zip(words) {
            nets[net.0] = w;
        }
        for &gi in &self.topo {
            let g = &self.gates[gi];
            let mut acc = nets[g.inputs[0].0];
            match g.kind {
                GateKind::Inv => acc = !acc,
                GateKind::Buf => {}
                GateKind::And => {
                    for i in &g.inputs[1..] {
                        acc &= nets[i.0];
                    }
                }
                GateKind::Nand => {
                    for i in &g.inputs[1..] {
                        acc &= nets[i.0];
                    }
                    acc = !acc;
                }
                GateKind::Or => {
                    for i in &g.inputs[1..] {
                        acc |= nets[i.0];
                    }
                }
                GateKind::Nor => {
                    for i in &g.inputs[1..] {
                        acc |= nets[i.0];
                    }
                    acc = !acc;
                }
                GateKind::Xor => acc ^= nets[g.inputs[1].0],
                GateKind::Xnor => acc = !(acc ^ nets[g.inputs[1].0]),
            }
            nets[g.output.0] = acc;
        }
        nets
    }

    /// Per-kind gate counts (for reporting, cf. Table I's `#NOR-gates`).
    #[must_use]
    pub fn gate_histogram(&self) -> HashMap<GateKind, usize> {
        let mut h = HashMap::new();
        for g in &self.gates {
            *h.entry(g.kind).or_insert(0) += 1;
        }
        h
    }

    /// `true` if every gate is a NOR (of any arity) — the form accepted by
    /// the paper's prototype simulator.
    #[must_use]
    pub fn is_nor_only(&self) -> bool {
        self.gates.iter().all(|g| g.kind == GateKind::Nor)
    }
}

/// Incrementally builds and validates a [`Circuit`].
///
/// # Example
///
/// ```
/// use sigcircuit::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new();
/// let a = b.add_input("a");
/// let c = b.add_gate(GateKind::Inv, &[a], "a_n");
/// b.mark_output(c);
/// let circuit = b.build()?;
/// assert_eq!(circuit.eval(&[false]), vec![true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder {
    net_names: Vec<String>,
    name_index: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
}

impl CircuitBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, name: &str) -> Result<NetId, BuildCircuitError> {
        if self.name_index.contains_key(name) {
            return Err(BuildCircuitError::DuplicateName(name.to_string()));
        }
        let id = NetId(self.net_names.len());
        self.net_names.push(name.to_string());
        self.name_index.insert(name.to_string(), id);
        Ok(id)
    }

    /// Adds a primary input net.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names (use [`CircuitBuilder::try_add_input`] for
    /// a fallible version).
    pub fn add_input(&mut self, name: &str) -> NetId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Adds a primary input net; errors on duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCircuitError::DuplicateName`] if the name exists.
    pub fn try_add_input(&mut self, name: &str) -> Result<NetId, BuildCircuitError> {
        let id = self.intern(name)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate driving a freshly created net named `output_name`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or bad arity (use
    /// [`CircuitBuilder::try_add_gate`] for a fallible version).
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId], output_name: &str) -> NetId {
        self.try_add_gate(kind, inputs, output_name)
            .expect("invalid gate")
    }

    /// Adds a gate driving a new net; errors on duplicates or bad arity.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCircuitError`] on duplicate name or arity violation.
    pub fn try_add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output_name: &str,
    ) -> Result<NetId, BuildCircuitError> {
        if !kind.arity_ok(inputs.len()) {
            return Err(BuildCircuitError::BadArity {
                gate: self.gates.len(),
                kind,
                arity: inputs.len(),
            });
        }
        let out = self.intern(output_name)?;
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Declares a net as primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Validates and finalizes the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCircuitError`] when structural invariants are violated
    /// (multiple drivers, cycles, floating nets, undriven outputs).
    pub fn build(self) -> Result<Circuit, BuildCircuitError> {
        validate_structure(&self.net_names, &self.inputs, &self.outputs, &self.gates)?;
        let (topo, levels, fanouts) =
            derive_schedules(&self.gates, self.net_names.len()).ok_or(BuildCircuitError::Cyclic)?;
        let fingerprint =
            structural_fingerprint(&self.net_names, &self.inputs, &self.outputs, &self.gates);
        Ok(Circuit {
            net_names: self.net_names,
            inputs: self.inputs,
            outputs: self.outputs,
            gates: self.gates,
            topo,
            levels,
            fanouts,
            fingerprint,
        })
    }
}

/// The structural invariants every [`Circuit`] upholds (arities, single
/// drivers, all read nets driven, declared outputs driven) — enforced by
/// [`CircuitBuilder::build`] and by deserialization, which must not admit
/// circuits the builder would reject (acyclicity is checked separately by
/// `derive_schedules`). Expects net ids already bounds-checked.
fn validate_structure(
    net_names: &[String],
    inputs: &[NetId],
    outputs: &[NetId],
    gates: &[Gate],
) -> Result<(), BuildCircuitError> {
    let n = net_names.len();
    let mut driver: Vec<Option<usize>> = vec![None; n];
    let is_input: Vec<bool> = {
        let mut v = vec![false; n];
        for i in inputs {
            v[i.0] = true;
        }
        v
    };
    for (gi, g) in gates.iter().enumerate() {
        if !g.kind.arity_ok(g.inputs.len()) {
            return Err(BuildCircuitError::BadArity {
                gate: gi,
                kind: g.kind,
                arity: g.inputs.len(),
            });
        }
        if is_input[g.output.0] {
            return Err(BuildCircuitError::DrivesInput {
                net: net_names[g.output.0].clone(),
            });
        }
        if driver[g.output.0].is_some() {
            return Err(BuildCircuitError::MultipleDrivers {
                net: net_names[g.output.0].clone(),
            });
        }
        driver[g.output.0] = Some(gi);
    }
    // All read nets must be driven or inputs.
    for g in gates {
        for i in &g.inputs {
            if !is_input[i.0] && driver[i.0].is_none() {
                return Err(BuildCircuitError::Undriven {
                    net: net_names[i.0].clone(),
                });
            }
        }
    }
    for o in outputs {
        if !is_input[o.0] && driver[o.0].is_none() {
            return Err(BuildCircuitError::UndrivenOutput {
                net: net_names[o.0].clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn half_adder() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let c = b.add_input("b");
        let sum = b.add_gate(GateKind::Xor, &[a, c], "sum");
        let carry = b.add_gate(GateKind::And, &[a, c], "carry");
        b.mark_output(sum);
        b.mark_output(carry);
        b.build().unwrap()
    }

    #[test]
    fn half_adder_truth_table() {
        let c = half_adder();
        assert_eq!(c.eval(&[false, false]), vec![false, false]);
        assert_eq!(c.eval(&[true, false]), vec![true, false]);
        assert_eq!(c.eval(&[false, true]), vec![true, false]);
        assert_eq!(c.eval(&[true, true]), vec![false, true]);
    }

    #[test]
    fn all_gate_kinds_eval() {
        assert!(GateKind::Inv.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(!GateKind::Nor.eval(&[false, true]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(GateKind::Xnor.eval(&[true, true]));
    }

    #[test]
    fn single_input_nor_is_inverter() {
        assert!(GateKind::Nor.arity_ok(1));
        assert!(GateKind::Nor.eval(&[false]));
        assert!(!GateKind::Nor.eval(&[true]));
    }

    #[test]
    fn rejects_multiple_drivers() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let x = b.add_gate(GateKind::Inv, &[a], "x");
        // Manually force a second driver for x.
        b.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![a],
            output: x,
        });
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        // x = INV(y), y = INV(x): construct the cycle manually.
        let x = NetId(b.net_names.len());
        b.net_names.push("x".into());
        let y = NetId(b.net_names.len());
        b.net_names.push("y".into());
        b.gates.push(Gate {
            kind: GateKind::And,
            inputs: vec![a, y],
            output: x,
        });
        b.gates.push(Gate {
            kind: GateKind::Inv,
            inputs: vec![x],
            output: y,
        });
        assert_eq!(b.build().unwrap_err(), BuildCircuitError::Cyclic);
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        assert!(matches!(
            b.try_add_gate(GateKind::Xor, &[a], "x"),
            Err(BuildCircuitError::BadArity { .. })
        ));
    }

    #[test]
    fn rejects_undriven_output() {
        let mut b = CircuitBuilder::new();
        let _ = b.add_input("a");
        let phantom = NetId(b.net_names.len());
        b.net_names.push("ghost".into());
        b.outputs.push(phantom);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::UndrivenOutput { .. })
        ));
    }

    #[test]
    fn fanout_and_levels() {
        let c = half_adder();
        let fo = c.fanout_counts();
        let a = c.find_net("a").unwrap();
        assert_eq!(fo[a.0], 2); // read by XOR and AND
        assert_eq!(c.depth(), 1);
        let mut b = CircuitBuilder::new();
        let x = b.add_input("x");
        let n1 = b.add_gate(GateKind::Inv, &[x], "n1");
        let n2 = b.add_gate(GateKind::Inv, &[n1], "n2");
        b.mark_output(n2);
        let chain = b.build().unwrap();
        assert_eq!(chain.depth(), 2);
    }

    #[test]
    fn levels_partition_gates_by_asap_depth() {
        let c = half_adder();
        // Both gates read only primary inputs: one level with both gates.
        assert_eq!(c.levels(), &[vec![0, 1]]);
        let mut b = CircuitBuilder::new();
        let x = b.add_input("x");
        let y = b.add_input("y");
        let n1 = b.add_gate(GateKind::Inv, &[x], "n1");
        let n2 = b.add_gate(GateKind::And, &[n1, y], "n2");
        let n3 = b.add_gate(GateKind::Or, &[n1, y], "n3");
        let n4 = b.add_gate(GateKind::And, &[n2, n3], "n4");
        b.mark_output(n4);
        let c = b.build().unwrap();
        // INV at level 0; AND/OR both wait on it; the final AND on both.
        assert_eq!(c.levels(), &[vec![0], vec![1, 2], vec![3]]);
        // Every gate appears exactly once across the levels.
        let mut flat: Vec<usize> = c.levels().iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat, vec![0, 1, 2, 3]);
        // A gate's level is its output net's level minus one.
        let net_levels = c.net_levels();
        for (lvl, gates) in c.levels().iter().enumerate() {
            for &gi in gates {
                assert_eq!(net_levels[c.gates()[gi].output.0], lvl + 1);
            }
        }
    }

    #[test]
    fn levels_flatten_to_topological_order() {
        let c = half_adder();
        let mut seen = std::collections::HashSet::new();
        for i in c.inputs() {
            seen.insert(*i);
        }
        for &gi in c.levels().iter().flatten() {
            let g = &c.gates()[gi];
            for i in &g.inputs {
                assert!(seen.contains(i), "dependency violated");
            }
            seen.insert(g.output);
        }
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let c = half_adder();
        // Each gate's driven inputs must appear earlier in topo order.
        let mut seen = std::collections::HashSet::new();
        for i in c.inputs() {
            seen.insert(*i);
        }
        for &gi in c.topological_gates() {
            let g = &c.gates()[gi];
            for i in &g.inputs {
                assert!(seen.contains(i), "dependency violated");
            }
            seen.insert(g.output);
        }
    }

    #[test]
    fn serde_round_trip_recomputes_schedules() {
        let c = half_adder();
        let json = serde_json::to_string(&c).unwrap();
        // Only source data travels; derived schedules are rebuilt.
        assert!(!json.contains("topo"), "derived fields must not serialize");
        let back: Circuit = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        assert_eq!(c.topological_gates(), back.topological_gates());
        assert_eq!(c.levels(), back.levels());
        assert_eq!(c.fanouts(), back.fanouts());
    }

    #[test]
    fn fanout_lists_track_consumer_gates() {
        let c = half_adder();
        let a = c.find_net("a").unwrap();
        let b = c.find_net("b").unwrap();
        let sum = c.find_net("sum").unwrap();
        // Both inputs feed the XOR (gate 0) and the AND (gate 1); the
        // outputs feed nothing.
        assert_eq!(c.fanouts()[a.0], vec![0, 1]);
        assert_eq!(c.fanouts()[b.0], vec![0, 1]);
        assert!(c.fanouts()[sum.0].is_empty());
        // A gate listing one net twice appears once in its fanout list.
        let mut bld = CircuitBuilder::new();
        let x = bld.add_input("x");
        let y = bld.add_gate(GateKind::Nor, &[x, x], "y");
        bld.mark_output(y);
        let c = bld.build().unwrap();
        assert_eq!(c.fanouts()[x.0], vec![0]);
    }

    #[test]
    fn deserialize_recomputes_fanout_lists_from_wire_circuits() {
        // A wire circuit never touched by CircuitBuilder: the fanout lists
        // must be derived from the gate list exactly like topo/levels, and
        // must never travel on the wire.
        let wire = r#"{
            "net_names": ["a", "b", "n1", "y"],
            "inputs": [[0], [1]],
            "outputs": [[3]],
            "gates": [
                {"kind": "Nor", "inputs": [[0], [1]], "output": [2]},
                {"kind": "Nor", "inputs": [[2], [1]], "output": [3]}
            ]
        }"#;
        let c: Circuit = serde_json::from_str(wire).unwrap();
        assert_eq!(c.fanouts()[0], vec![0]); // a → first NOR
        assert_eq!(c.fanouts()[1], vec![0, 1]); // b → both NORs
        assert_eq!(c.fanouts()[2], vec![1]); // n1 → second NOR
        assert!(c.fanouts()[3].is_empty()); // y → primary output only
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            !json.contains("fanouts"),
            "derived fanout lists must not serialize"
        );
        let back: Circuit = serde_json::from_str(&json).unwrap();
        assert_eq!(c.fanouts(), back.fanouts());
    }

    #[test]
    fn deserialize_rejects_cycles_and_bad_ids() {
        // x = AND(a, y), y = INV(x): a cycle no builder would produce.
        let cyclic = r#"{
            "net_names": ["a", "x", "y"],
            "inputs": [[0]],
            "outputs": [[1]],
            "gates": [
                {"kind": "And", "inputs": [[0], [2]], "output": [1]},
                {"kind": "Inv", "inputs": [[1]], "output": [2]}
            ]
        }"#;
        let err = serde_json::from_str::<Circuit>(cyclic).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        // A gate referencing a net that does not exist.
        let oob = r#"{
            "net_names": ["a"],
            "inputs": [[0]],
            "outputs": [],
            "gates": [{"kind": "Inv", "inputs": [[7]], "output": [0]}]
        }"#;
        let err = serde_json::from_str::<Circuit>(oob).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn deserialize_enforces_builder_invariants() {
        // A gate reading a net that is neither an input nor gate-driven.
        let read_undriven = r#"{
            "net_names": ["a", "y", "w"],
            "inputs": [[0]],
            "outputs": [[1]],
            "gates": [{"kind": "Nor", "inputs": [[2]], "output": [1]}]
        }"#;
        let err = serde_json::from_str::<Circuit>(read_undriven).unwrap_err();
        assert!(err.to_string().contains("never driven"), "{err}");
        // Two gates driving the same net.
        let dup = r#"{
            "net_names": ["a", "y"],
            "inputs": [[0]],
            "outputs": [[1]],
            "gates": [
                {"kind": "Inv", "inputs": [[0]], "output": [1]},
                {"kind": "Buf", "inputs": [[0]], "output": [1]}
            ]
        }"#;
        let err = serde_json::from_str::<Circuit>(dup).unwrap_err();
        assert!(err.to_string().contains("multiple drivers"), "{err}");
        // A zero-input NOR (no builder produces one).
        let zero_arity = r#"{
            "net_names": ["a", "y"],
            "inputs": [[0]],
            "outputs": [[1]],
            "gates": [{"kind": "Nor", "inputs": [], "output": [1]}]
        }"#;
        let err = serde_json::from_str::<Circuit>(zero_arity).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn eval_words_lanes_match_scalar_eval() {
        let c = half_adder();
        // All four input combinations in the low 4 lanes of one word pair.
        let words = [0b0101u64, 0b0011u64]; // a = 1,0,1,0; b = 1,1,0,0
        let nets = c.eval_words(&words);
        for lane in 0..4 {
            let bits = vec![words[0] >> lane & 1 == 1, words[1] >> lane & 1 == 1];
            let expect = c.eval(&bits);
            for (o, e) in c.outputs().iter().zip(&expect) {
                assert_eq!(nets[o.0] >> lane & 1 == 1, *e, "lane {lane}");
            }
        }
        // Every gate kind, including the 1-input ones, in one circuit.
        let mut b = CircuitBuilder::new();
        let x = b.add_input("x");
        let y = b.add_input("y");
        let mut outs = Vec::new();
        for (kind, ins) in [
            (GateKind::Inv, vec![x]),
            (GateKind::Buf, vec![y]),
            (GateKind::And, vec![x, y]),
            (GateKind::Nand, vec![x, y]),
            (GateKind::Or, vec![x, y]),
            (GateKind::Nor, vec![x, y]),
            (GateKind::Xor, vec![x, y]),
            (GateKind::Xnor, vec![x, y]),
        ] {
            let o = b.add_gate(kind, &ins, &format!("{kind}_out"));
            b.mark_output(o);
            outs.push(o);
        }
        let c = b.build().unwrap();
        let words = [0b0101u64, 0b0011u64];
        let nets = c.eval_words(&words);
        for lane in 0..4 {
            let bits = vec![words[0] >> lane & 1 == 1, words[1] >> lane & 1 == 1];
            let expect = c.eval(&bits);
            for (o, e) in c.outputs().iter().zip(&expect) {
                assert_eq!(nets[o.0] >> lane & 1 == 1, *e, "lane {lane}");
            }
        }
    }

    proptest! {
        #[test]
        fn random_nor_trees_evaluate_consistently(bits in proptest::collection::vec(any::<bool>(), 4)) {
            // NOR(NOR(a,b), NOR(c,d)) == (a|b) & (c|d)
            let mut b = CircuitBuilder::new();
            let ins: Vec<NetId> = (0..4).map(|i| b.add_input(&format!("i{i}"))).collect();
            let n1 = b.add_gate(GateKind::Nor, &[ins[0], ins[1]], "n1");
            let n2 = b.add_gate(GateKind::Nor, &[ins[2], ins[3]], "n2");
            let out = b.add_gate(GateKind::Nor, &[n1, n2], "out");
            b.mark_output(out);
            let c = b.build().unwrap();
            let got = c.eval(&bits)[0];
            let expect = (bits[0] | bits[1]) & (bits[2] | bits[3]);
            prop_assert_eq!(got, expect);
        }
    }
}
