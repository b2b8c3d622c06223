//! Fan-out limiting by buffer insertion — the standard synthesis transform
//! that keeps gate loads within the characterized range. The paper's
//! prototype only provides models for fan-out 1 and 2; realistic netlists
//! (and the paper's future-work direction of "arbitrary fan-outs") keep
//! fan-outs low by buffering, which this pass performs with NOR-only
//! buffers (two single-input NORs), preserving the NOR-only property.

use std::collections::{HashMap, HashSet};

use crate::netlist::{Circuit, CircuitBuilder, GateKind, NetId};

/// Rewrites `circuit` so no net drives more than `max_fanout` gate inputs,
/// by inserting inverter-pair buffers (each a pair of 1-input NORs for
/// NOR-only circuits, [`GateKind::Inv`] pairs otherwise).
///
/// Primary outputs stay attached to the original nets; only gate inputs are
/// redistributed. The result computes the same boolean function.
///
/// # Panics
///
/// Panics if `max_fanout == 0`.
#[must_use]
pub fn limit_fanout(circuit: &Circuit, max_fanout: usize) -> Circuit {
    assert!(max_fanout >= 2, "max_fanout must be at least 2");
    let nor_only = circuit.is_nor_only();
    let buf_kind = if nor_only {
        GateKind::Nor
    } else {
        GateKind::Inv
    };

    // Count *gate input* consumers per net and assign each consumer edge a
    // rank (order of appearance over gates in index order, for
    // determinism).
    let mut consumer_rank: HashMap<(NetId, usize), usize> = HashMap::new();
    let mut counts: HashMap<NetId, usize> = HashMap::new();
    for (gi, g) in circuit.gates().iter().enumerate() {
        for (slot, &i) in g.inputs.iter().enumerate() {
            let r = counts.entry(i).or_insert(0);
            consumer_rank.insert((i, gi * 8 + slot), *r);
            *r += 1;
        }
    }

    let mut b = CircuitBuilder::new();
    // map[net] = list of copies: copy 0 is the original; consumers with
    // rank r read copy `r / max_fanout`.
    let mut copies: HashMap<NetId, Vec<NetId>> = HashMap::new();
    let mut fresh = 0usize;
    // Buffer names count up `__buf1_n`, `__buf2`, `__buf3_n`, ... and skip
    // every name the circuit already has, so re-buffering a buffered
    // netlist cannot collide while other circuits keep this sequence.
    let taken: HashSet<&str> = (0..circuit.net_count())
        .map(|i| circuit.net_name(NetId(i)))
        .collect();
    let fresh_name = |fresh: &mut usize, suffix: &str| loop {
        *fresh += 1;
        let name = format!("__buf{fresh}{suffix}");
        if !taken.contains(name.as_str()) {
            break name;
        }
    };

    // Copies are chained (copy i+1 is buffered from copy i), so every copy
    // including the original drives at most `max_fanout - 1` consumers plus
    // one chain link, except the last copy which takes `max_fanout`.
    let per_copy = max_fanout - 1;
    let make_copies = |b: &mut CircuitBuilder, fresh: &mut usize, net: NetId, mapped: NetId| {
        let n_consumers = counts.get(&net).copied().unwrap_or(0);
        let mut list = vec![mapped];
        if n_consumers > max_fanout {
            let groups = n_consumers.div_ceil(per_copy);
            let mut prev = mapped;
            for _ in 1..groups {
                let inv = b.add_gate(buf_kind, &[prev], &fresh_name(fresh, "_n"));
                let buf = b.add_gate(buf_kind, &[inv], &fresh_name(fresh, ""));
                list.push(buf);
                prev = buf;
            }
        }
        list
    };

    for &i in circuit.inputs() {
        let mapped = b.add_input(circuit.net_name(i));
        let list = make_copies(&mut b, &mut fresh, i, mapped);
        copies.insert(i, list);
    }
    for &gi in circuit.topological_gates() {
        let g = &circuit.gates()[gi];
        let ins: Vec<NetId> = g
            .inputs
            .iter()
            .enumerate()
            .map(|(slot, &i)| {
                let rank = consumer_rank[&(i, gi * 8 + slot)];
                let list = &copies[&i];
                if list.len() == 1 {
                    list[0]
                } else {
                    list[(rank / (max_fanout - 1)).min(list.len() - 1)]
                }
            })
            .collect();
        let mapped = b.add_gate(g.kind, &ins, circuit.net_name(g.output));
        let list = make_copies(&mut b, &mut fresh, g.output, mapped);
        copies.insert(g.output, list);
    }
    for &o in circuit.outputs() {
        b.mark_output(copies[&o][0]);
    }
    b.build().expect("buffering preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn max_gate_fanout(c: &Circuit) -> usize {
        let fo = c.fanout_counts();
        // Count only gate-input loads for the check (outputs add 1 in
        // fanout_counts, so recompute directly).
        let mut counts = vec![0usize; c.net_count()];
        for g in c.gates() {
            for i in &g.inputs {
                counts[i.0] += 1;
            }
        }
        let _ = fo;
        counts.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn high_fanout_net_is_buffered() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let src = b.add_gate(GateKind::Nor, &[a], "src");
        for i in 0..9 {
            let g = b.add_gate(GateKind::Nor, &[src], &format!("load{i}"));
            b.mark_output(g);
        }
        let c = b.build().unwrap();
        let limited = limit_fanout(&c, 4);
        assert!(max_gate_fanout(&limited) <= 4);
        assert!(limited.is_nor_only());
        // Function preserved.
        for v in [false, true] {
            assert_eq!(c.eval(&[v]), limited.eval(&[v]));
        }
        // 9 loads at 3 per copy -> 3 copies -> 2 buffer pairs = 4 extras.
        assert_eq!(limited.gates().len(), c.gates().len() + 4);
    }

    #[test]
    fn low_fanout_untouched() {
        let c = crate::c17();
        let limited = limit_fanout(&c, 4);
        assert_eq!(limited.gates().len(), c.gates().len());
    }

    #[test]
    fn benchmarks_stay_equivalent_after_buffering() {
        let mut rng = StdRng::seed_from_u64(9);
        for name in ["c499"] {
            let bench = crate::Benchmark::by_name(name).unwrap();
            let limited = limit_fanout(&bench.nor_mapped, 4);
            assert!(max_gate_fanout(&limited) <= 4, "{name}");
            assert!(limited.is_nor_only());
            let n = bench.nor_mapped.inputs().len();
            for _ in 0..10 {
                let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                assert_eq!(bench.nor_mapped.eval(&bits), limited.eval(&bits), "{name}");
            }
        }
    }

    #[test]
    fn rebuffered_c499_keeps_function_at_fanout_two() {
        // NOR-mapped c499 is already buffered to fan-out 4, so it has
        // `__bufN` nets; buffering it again must pick names around them.
        let bench = crate::Benchmark::by_name("c499").unwrap();
        let limited = limit_fanout(&bench.nor_mapped, 2);
        assert!(max_gate_fanout(&limited) <= 2);
        assert!(limited.is_nor_only());
        let mut rng = StdRng::seed_from_u64(11);
        let n = bench.nor_mapped.inputs().len();
        for _ in 0..32 {
            let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(bench.nor_mapped.eval(&bits), limited.eval(&bits));
        }
    }

    #[test]
    fn buffer_names_skip_only_taken_names() {
        let fanned = |src_name: &str, first_load: &str| {
            let mut b = CircuitBuilder::new();
            let a = b.add_input("a");
            let src = b.add_gate(GateKind::Nor, &[a], src_name);
            for i in 0..9 {
                let name = if i == 0 {
                    first_load.to_string()
                } else {
                    format!("load{i}")
                };
                let g = b.add_gate(GateKind::Nor, &[src], &name);
                b.mark_output(g);
            }
            limit_fanout(&b.build().unwrap(), 4)
        };
        let names = |c: &Circuit| -> Vec<String> {
            (0..c.net_count())
                .map(|i| c.net_name(NetId(i)).to_string())
                .filter(|n| n.starts_with("__buf"))
                .collect()
        };
        // Without a collision the names are the plain sequence.
        let plain = fanned("src", "load0");
        assert_eq!(names(&plain), ["__buf1_n", "__buf2", "__buf3_n", "__buf4"]);
        // Taken names are skipped; the circuit's own nets keep theirs.
        let taken = fanned("__buf1_n", "__buf4");
        let mut got = names(&taken);
        got.sort();
        assert_eq!(
            got,
            ["__buf1_n", "__buf2_n", "__buf3", "__buf4", "__buf4_n", "__buf5"]
        );
        assert!(max_gate_fanout(&taken) <= 4);
        for v in [false, true] {
            assert_eq!(plain.eval(&[v]), taken.eval(&[v]));
        }
    }

    #[test]
    fn buffered_inputs_work() {
        // A primary input with high fan-out gets buffered too.
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        for i in 0..7 {
            let g = b.add_gate(GateKind::Inv, &[a], &format!("g{i}"));
            b.mark_output(g);
        }
        let c = b.build().unwrap();
        let limited = limit_fanout(&c, 3);
        assert!(max_gate_fanout(&limited) <= 3);
        for v in [false, true] {
            assert_eq!(c.eval(&[v]), limited.eval(&[v]));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_max_rejected() {
        let _ = limit_fanout(&crate::c17(), 1);
    }
}
