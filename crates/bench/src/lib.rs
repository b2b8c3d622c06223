//! Shared utilities for the benchmark harness: every table and figure of
//! the paper has a matching binary in `src/bin/` (see `DESIGN.md` for the
//! experiment index), plus Criterion micro-benchmarks in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use sigsim::{
    library_cache_path, train_cell_library_cached, CellLibrary, LibrarySpec, PipelineConfig,
};

/// Minimal `--key value` / `--flag` argument parser for the experiment
/// binaries (keeps the dependency set to the approved list).
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments (a value-flag at the end of the line).
    #[must_use]
    pub fn parse() -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = argv[i].trim_start_matches("--").to_string();
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                values.insert(a, argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(a);
                i += 1;
            }
        }
        Self { values, flags }
    }

    /// String option with default.
    #[must_use]
    pub fn get(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Numeric option with default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    #[must_use]
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.values
            .get(key)
            .map(|v| v.parse().expect("malformed numeric argument"))
            .unwrap_or(default)
    }

    /// Boolean flag presence.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::parse()
    }
}

/// Where experiment CSV outputs are written by default (`results/`).
/// Prefer [`results_dir_from`] in binaries so `--out` can redirect.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// The experiment output directory, honoring `--out <path>` (default
/// `results/`). Lets CI smoke jobs and concurrent local runs write to
/// disjoint directories instead of colliding in the checkout.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir_from(args: &Args) -> PathBuf {
    let dir = PathBuf::from(args.get("out", "results"));
    std::fs::create_dir_all(&dir).expect("cannot create output directory");
    dir
}

/// The pipeline config and model-cache path selected by the standard
/// flags (`--paper-scale`, `--fast-models`, `--models PATH`,
/// `--parallelism N`).
#[must_use]
pub fn pipeline_from_args(args: &Args) -> (PipelineConfig, PathBuf) {
    let (config, cache) = if args.has("paper-scale") {
        (
            PipelineConfig {
                characterization: sigchar::CharacterizationConfig::paper(),
                ..PipelineConfig::default()
            },
            PathBuf::from("target/sigmodels/paper.json"),
        )
    } else if args.has("fast-models") {
        (
            PipelineConfig::fast(),
            PathBuf::from("target/sigmodels/quickstart.json"),
        )
    } else {
        (
            PipelineConfig::default(),
            PathBuf::from("target/sigmodels/default.json"),
        )
    };
    let cache = args
        .values
        .get("models")
        .map(PathBuf::from)
        .unwrap_or(cache);
    // `--parallelism N` gates every worker pool in the pipeline (0 = auto).
    (
        config.with_parallelism(args.get_num("parallelism", 0)),
        cache,
    )
}

/// Loads (or trains) the cell library of a mapping policy at the scale the
/// standard flags select (`--paper-scale` switches to the full-granularity
/// characterization sweep and long training): the paper's four-variant
/// `nor-only` set for [`sigcircuit::MappingPolicy::NorOnly`], the full
/// native library for [`sigcircuit::MappingPolicy::Native`]. Each is
/// cached beside the selected model-cache path as
/// `<stem>.<library>.json` ([`library_cache_path`]), exactly as the
/// service registry caches its presets.
///
/// # Panics
///
/// Panics if the pipeline fails — the experiment binaries have no way to
/// proceed without models.
#[must_use]
pub fn load_library(args: &Args, policy: sigcircuit::MappingPolicy) -> CellLibrary {
    let (config, cache) = pipeline_from_args(args);
    let spec = LibrarySpec::for_policy(policy);
    train_cell_library_cached(&library_cache_path(&cache, &spec.name), &spec, &config)
        .expect("training pipeline failed")
}

/// Writes rows of `f64` columns as CSV with a header.
///
/// # Panics
///
/// Panics on I/O errors (experiment outputs are not recoverable).
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<f64>]) {
    let mut f = std::fs::File::create(path).expect("cannot create CSV");
    writeln!(f, "{}", header.join(",")).expect("write");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6e}")).collect();
        writeln!(f, "{}", line.join(",")).expect("write");
    }
    println!("wrote {}", path.display());
}

/// Writes rows of already-formatted cells as CSV with a header — for
/// result files mixing text columns (library, mapping policy) with
/// numbers, so every row is self-describing.
///
/// # Panics
///
/// Panics on I/O errors (experiment outputs are not recoverable).
pub fn write_csv_text(path: &Path, header: &[&str], rows: &[Vec<String>]) {
    let mut f = std::fs::File::create(path).expect("cannot create CSV");
    writeln!(f, "{}", header.join(",")).expect("write");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write");
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults() {
        let a = Args {
            values: HashMap::new(),
            flags: vec!["fast".into()],
        };
        assert_eq!(a.get("circuits", "c17"), "c17");
        assert_eq!(a.get_num("runs", 3usize), 3);
        assert!(a.has("fast"));
        assert!(!a.has("slow"));
    }
}
