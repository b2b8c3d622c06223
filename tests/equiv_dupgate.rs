//! Machine-checks the duplicate-gate-elimination premise from the
//! engine's compile pipeline: gates with identical (function, input
//! nets) may be aliased to a single instance without changing the
//! circuit's boolean function. The engine argues this "sound by
//! determinism"; here the claim is *proven* by miter on c1355, whose
//! NOR-mapped form carries the workspace's largest duplicate
//! population: 627 of its 2172 gates alias by (kind, inputs), and 603
//! once the engine also keys on the fan-out model slot.

use std::collections::HashMap;

use sigcheck::verify_mapping;
use sigcircuit::{Benchmark, Circuit, CircuitBuilder, GateKind, NetId};

/// Structurally dedupes a circuit to a fixpoint: in topological order,
/// a gate whose (kind, remapped input nets) key was already seen is
/// dropped and its output aliased to the first instance's output.
/// Because aliasing happens while walking, later duplicates that only
/// become structural *after* their fanins alias are caught too.
/// Returns the deduped circuit and the number of aliased gates.
fn alias_duplicate_gates(circuit: &Circuit) -> (Circuit, usize) {
    let mut b = CircuitBuilder::new();
    let mut map: Vec<Option<NetId>> = vec![None; circuit.net_count()];
    for &i in circuit.inputs() {
        map[i.0] = Some(b.add_input(circuit.net_name(i)));
    }
    let mut seen: HashMap<(GateKind, Vec<NetId>), NetId> = HashMap::new();
    let mut aliased = 0usize;
    for &gi in circuit.topological_gates() {
        let g = &circuit.gates()[gi];
        let ins: Vec<NetId> = g
            .inputs
            .iter()
            .map(|i| map[i.0].expect("topological order"))
            .collect();
        let key = (g.kind, ins.clone());
        let out = if let Some(&existing) = seen.get(&key) {
            aliased += 1;
            existing
        } else {
            let out = b.add_gate(g.kind, &ins, circuit.net_name(g.output));
            seen.insert(key, out);
            out
        };
        map[g.output.0] = Some(out);
    }
    for &o in circuit.outputs() {
        b.mark_output(map[o.0].expect("outputs are driven"));
    }
    (b.build().expect("aliasing preserves validity"), aliased)
}

/// The headline case: c1355's NOR-mapped form loses hundreds of gates
/// to aliasing, and the result is *proven* equivalent to both the
/// NOR-mapped circuit and the untouched original.
#[test]
fn c1355_duplicate_aliasing_is_proven_equivalent() {
    let bench = Benchmark::by_name("c1355").expect("benchmark");
    let (deduped, aliased) = alias_duplicate_gates(&bench.nor_mapped);
    assert!(
        aliased >= 400,
        "c1355's NOR form should carry hundreds of duplicates, found {aliased}"
    );
    assert_eq!(
        deduped.gates().len() + aliased,
        bench.nor_mapped.gates().len(),
        "every aliased gate disappears from the netlist"
    );

    let vs_mapped = verify_mapping(&bench.nor_mapped, &deduped).expect("ties");
    assert!(
        vs_mapped.is_equivalent(),
        "aliasing must preserve the NOR-mapped function: {:?}",
        vs_mapped.verdict
    );
    let vs_original = verify_mapping(&bench.original, &deduped).expect("ties");
    assert!(
        vs_original.is_equivalent(),
        "aliased circuit must still implement the original: {:?}",
        vs_original.verdict
    );
}

/// The smaller benchmarks go through the same proof, so the property is
/// not c1355-specific.
#[test]
fn aliasing_is_proven_equivalent_on_all_benchmarks() {
    for name in ["c17", "c499"] {
        let bench = Benchmark::by_name(name).expect("benchmark");
        let (deduped, _) = alias_duplicate_gates(&bench.nor_mapped);
        let result = verify_mapping(&bench.nor_mapped, &deduped).expect("ties");
        assert!(
            result.is_equivalent(),
            "{name}: aliasing must preserve the function"
        );
    }
}
