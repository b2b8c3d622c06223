//! Circuit loading with format auto-detection, plus the content hashing
//! the `sigserve` circuit cache keys on.
//!
//! Two on-disk formats exist in the workspace: ISCAS `.bench` netlists
//! ([`crate::parse_bench`]) and the JSON netlist serialization of
//! [`Circuit`] itself. [`load_circuit`] dispatches on the file extension
//! and falls back to sniffing the content (a JSON netlist begins with
//! `{`, a `.bench` file with a directive, comment or assignment), so
//! callers — `sigctl`, the experiment binaries — accept either format
//! from one flag.

use std::path::Path;

use crate::netlist::{Circuit, Gate, NetId};
use crate::ParseBenchError;

/// The detected on-disk format of a circuit file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitFormat {
    /// ISCAS `.bench` netlist text.
    Bench,
    /// JSON serialization of [`Circuit`].
    Json,
}

impl std::fmt::Display for CircuitFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bench => f.write_str("bench"),
            Self::Json => f.write_str("json"),
        }
    }
}

/// Error loading a circuit from disk.
#[derive(Debug)]
pub enum LoadCircuitError {
    /// The file could not be read.
    Io(std::io::Error),
    /// `.bench` parsing failed.
    Bench(ParseBenchError),
    /// JSON parsing or validation failed.
    Json(serde_json::Error),
}

impl std::fmt::Display for LoadCircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cannot read circuit file: {e}"),
            Self::Bench(e) => write!(f, "invalid .bench netlist: {e}"),
            Self::Json(e) => write!(f, "invalid JSON netlist: {e}"),
        }
    }
}

impl std::error::Error for LoadCircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Bench(e) => Some(e),
            Self::Json(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LoadCircuitError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Detects the format of circuit text: a leading `{` (after whitespace)
/// is the JSON netlist, anything else is `.bench` (whose lines start with
/// directives, comments or assignments — never `{`).
#[must_use]
pub fn sniff_format(text: &str) -> CircuitFormat {
    if text.trim_start().starts_with('{') {
        CircuitFormat::Json
    } else {
        CircuitFormat::Bench
    }
}

/// Parses circuit text in the given format.
///
/// # Errors
///
/// Returns [`LoadCircuitError`] on parse or validation failure (both
/// formats enforce the full [`crate::CircuitBuilder`] invariants).
pub fn parse_circuit(text: &str, format: CircuitFormat) -> Result<Circuit, LoadCircuitError> {
    match format {
        CircuitFormat::Bench => crate::parse_bench(text).map_err(LoadCircuitError::Bench),
        CircuitFormat::Json => serde_json::from_str(text).map_err(LoadCircuitError::Json),
    }
}

/// Loads a circuit from disk, auto-detecting the format: the `.bench` /
/// `.json` extension decides when present (case-insensitive); otherwise
/// the content is sniffed ([`sniff_format`]).
///
/// # Errors
///
/// Returns [`LoadCircuitError`] on I/O or parse failure.
pub fn load_circuit(path: impl AsRef<Path>) -> Result<Circuit, LoadCircuitError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let format = match path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("bench") => CircuitFormat::Bench,
        Some("json") => CircuitFormat::Json,
        _ => sniff_format(&text),
    };
    parse_circuit(&text, format)
}

/// A streaming FNV-1a 64-bit hasher — the incremental form of
/// [`content_hash`], used to derive composite cache keys (the `sigserve`
/// circuit and program caches) without concatenating the key material
/// into one buffer first. Feeding the same bytes in any chunking yields
/// the same hash; [`ContentHasher::written`] reports the total byte
/// count so key consumers can pair hash and length.
///
/// # Example
///
/// ```
/// use sigcircuit::{content_hash, ContentHasher};
/// let mut h = ContentHasher::new();
/// h.update(b"nor-only;");
/// h.update(b"name:c17");
/// assert_eq!(h.written(), 17);
/// assert_eq!(h.finish(), content_hash(b"nor-only;name:c17"));
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    hash: u64,
    written: usize,
}

impl ContentHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            hash: Self::OFFSET,
            written: 0,
        }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(Self::PRIME);
        }
        self.written += bytes.len();
    }

    /// Total bytes fed so far.
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit hash of arbitrary bytes — the stable, dependency-free
/// content hash the `sigserve` circuit cache keys on. Not cryptographic;
/// cache consumers pair it with the input length to make accidental
/// collisions implausible.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = ContentHasher::new();
    h.update(bytes);
    h.finish()
}

/// The structural fingerprint behind [`Circuit::fingerprint`]: hashes the
/// source data (net names, inputs, outputs, gate list) without
/// serializing it. The circuit computes it once, when it is built or
/// deserialized.
pub(crate) fn structural_fingerprint(
    net_names: &[String],
    inputs: &[NetId],
    outputs: &[NetId],
    gates: &[Gate],
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = content_hash(b"sigcircuit-v1");
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(PRIME);
    };
    mix(net_names.len() as u64);
    for name in net_names {
        mix(content_hash(name.as_bytes()));
    }
    for &i in inputs {
        mix(i.0 as u64 + 1);
    }
    mix(u64::MAX); // separator between sections
    for &o in outputs {
        mix(o.0 as u64 + 1);
    }
    mix(u64::MAX);
    for g in gates {
        mix(content_hash(g.kind.name().as_bytes()));
        mix(g.output.0 as u64);
        for i in &g.inputs {
            mix(i.0 as u64 + 1);
        }
        mix(u64::MAX);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, GateKind};

    fn tiny() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Nor, &[a], "y");
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn sniffs_json_vs_bench() {
        assert_eq!(sniff_format("  \n{\"net_names\": []}"), CircuitFormat::Json);
        assert_eq!(sniff_format("INPUT(a)\n"), CircuitFormat::Bench);
        assert_eq!(sniff_format("# comment\nINPUT(a)\n"), CircuitFormat::Bench);
    }

    #[test]
    fn loads_bench_by_extension_and_by_sniff() {
        let dir = std::env::temp_dir().join("sigcircuit_loader_test");
        std::fs::create_dir_all(&dir).unwrap();
        let c = tiny();
        let text = crate::to_bench(&c);
        for name in ["t.bench", "t.netlist"] {
            let path = dir.join(name);
            std::fs::write(&path, &text).unwrap();
            let loaded = load_circuit(&path).unwrap();
            assert_eq!(loaded, c, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_json_by_extension_and_by_sniff() {
        let dir = std::env::temp_dir().join("sigcircuit_loader_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let c = tiny();
        let text = serde_json::to_string(&c).unwrap();
        for name in ["t.json", "t.circuit"] {
            let path = dir.join(name);
            std::fs::write(&path, &text).unwrap();
            let loaded = load_circuit(&path).unwrap();
            assert_eq!(loaded, c, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_errors_are_structured() {
        assert!(matches!(
            load_circuit("/nonexistent/x.bench"),
            Err(LoadCircuitError::Io(_))
        ));
        let dir = std::env::temp_dir().join("sigcircuit_loader_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad_bench = dir.join("bad.bench");
        std::fs::write(&bad_bench, "y = FROB(a)\n").unwrap();
        assert!(matches!(
            load_circuit(&bad_bench),
            Err(LoadCircuitError::Bench(_))
        ));
        let bad_json = dir.join("bad.json");
        std::fs::write(&bad_json, "{\"net_names\": 3}").unwrap();
        assert!(matches!(
            load_circuit(&bad_json),
            Err(LoadCircuitError::Json(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_hash_is_stable_fnv1a() {
        // Reference FNV-1a vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let c = tiny();
        assert_eq!(c.fingerprint(), tiny().fingerprint());
        // Different output marking changes the fingerprint.
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Nor, &[a], "y");
        let z = b.add_gate(GateKind::Nor, &[y], "z");
        b.mark_output(z);
        let c2 = b.build().unwrap();
        assert_ne!(c.fingerprint(), c2.fingerprint());
        // A renamed net changes it too.
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Nor, &[a], "y2");
        b.mark_output(y);
        assert_ne!(c.fingerprint(), b.build().unwrap().fingerprint());
    }

    #[test]
    fn fingerprint_values_are_stable() {
        // Responses echo these values; computing them once per circuit
        // must not change them.
        assert_eq!(tiny().fingerprint(), 0x259539cd928f8715);
        for (name, want) in [
            ("c17", 0x27c5fe22a01c53da),
            ("c499", 0x7bccb5fbe9f1cca9),
            ("c1355", 0x34636ebfea757d18),
        ] {
            let bench = crate::Benchmark::by_name(name).unwrap();
            assert_eq!(bench.nor_mapped.fingerprint(), want, "{name}");
        }
    }

    #[test]
    fn fingerprint_survives_serde_round_trip() {
        let bench = crate::Benchmark::by_name("c17").unwrap();
        let c = &bench.nor_mapped;
        let back: Circuit = serde_json::from_str(&serde_json::to_string(c).unwrap()).unwrap();
        assert_eq!(c.fingerprint(), back.fingerprint());
    }
}
