//! Runtime-dispatched SIMD kernels for the inference hot loops.
//!
//! Four loops dominate the simulator's inference cost: the dense
//! matmul inside [`crate::Mlp::forward_batch`], the elementwise
//! standardize/unstandardize passes of [`crate::Standardizer`], the
//! LUT neighbour-distance sweep in `sigtom`'s `LutTransfer`, and the
//! leaf scan of `sigtom`'s valid-region nearest search. This module
//! provides SSE2/AVX2 f64 kernels for the first three and an AVX2 kernel
//! for the leaf scan behind a process-global selection policy, using
//! only `std::arch` + runtime feature detection — no dependencies, and a
//! scalar fallback at every other level and architecture.
//!
//! # Bit-identity contract
//!
//! Every kernel is held to the same bar as the batched engine itself:
//! results are **bit-identical** (`f64::to_bits` equality) to the scalar
//! reference loop at every level. The kernels achieve this by
//! vectorizing *across rows* (one SIMD lane per sample) instead of
//! within a row: each lane performs exactly the scalar per-row
//! operation sequence — for the dense kernel, `acc = bias` then
//! `acc += w[i] * x[i]` in input order with separate mul and add
//! roundings (never FMA, which rounds once and would diverge); for the
//! elementwise kernels, the single IEEE op per element is order-free;
//! for the leaf scan, merging lane minima is order-free too (it skips
//! NaN, and a squared distance is never `-0.0`), and counting the
//! distances equal to the minimum is exact.
//! Leftover rows (`n % lanes`) run the scalar loop. Parity proptests in
//! this module enforce the contract per kernel at every detected level.
//!
//! # Selection policy
//!
//! The active level is resolved once per process from [`SimdPolicy`]:
//! `Auto` picks the best detected level, `Force` clamps a requested
//! level to what the host supports, `Off` pins scalar. The `SIG_SIMD`
//! environment variable (`off`, `scalar`, `auto`, `sse2`, `avx2`) seeds
//! the policy at first use; [`set_policy`] overrides it (the harness
//! exposes this as a config knob so CI can pin both paths). Kernels
//! take the level as an explicit argument so tests can exercise every
//! level regardless of the global.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// A SIMD instruction-set level for the f64 kernels, in increasing
/// capability order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain scalar loops (the reference semantics, any architecture).
    Scalar,
    /// SSE2: 2 × f64 lanes (baseline on `x86_64`).
    Sse2,
    /// AVX2: 4 × f64 lanes.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (used by `SIG_SIMD` and service stats).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// f64 lanes per vector at this level.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 2,
            SimdLevel::Avx2 => 4,
        }
    }

    /// All levels the current host can execute, in increasing order
    /// (always starts with [`SimdLevel::Scalar`]). Parity tests iterate
    /// this so hosts without AVX2 skip that level cleanly.
    #[must_use]
    pub fn available() -> Vec<SimdLevel> {
        let best = detected_best();
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| l <= best)
            .collect()
    }
}

/// How the process-wide kernel level is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Use the best level the host supports (the default).
    Auto,
    /// Request a specific level; clamped to the detected best, so
    /// forcing `avx2` on a host without it degrades safely.
    Force(SimdLevel),
    /// Pin scalar loops (reference semantics).
    Off,
}

impl SimdPolicy {
    /// Parses a `SIG_SIMD` value. Recognized: `off`, `scalar`, `auto`,
    /// `sse2`, `avx2` (case-insensitive). Returns `None` for anything
    /// else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "off" => Some(SimdPolicy::Off),
            "scalar" => Some(SimdPolicy::Force(SimdLevel::Scalar)),
            "auto" => Some(SimdPolicy::Auto),
            "sse2" => Some(SimdPolicy::Force(SimdLevel::Sse2)),
            "avx2" => Some(SimdPolicy::Force(SimdLevel::Avx2)),
            _ => None,
        }
    }

    /// The level this policy resolves to on the current host.
    #[must_use]
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdPolicy::Auto => detected_best(),
            SimdPolicy::Force(level) => level.min(detected_best()),
            SimdPolicy::Off => SimdLevel::Scalar,
        }
    }
}

/// The best level the host supports.
#[must_use]
pub fn detected_best() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The resolved process-wide level: `0` = unresolved, otherwise
/// `1 + level as u8`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 1,
        SimdLevel::Sse2 => 2,
        SimdLevel::Avx2 => 3,
    }
}

fn decode(v: u8) -> Option<SimdLevel> {
    match v {
        1 => Some(SimdLevel::Scalar),
        2 => Some(SimdLevel::Sse2),
        3 => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// Overrides the process-wide kernel level with a resolved policy.
/// Takes effect for all subsequent [`active_level`] calls.
pub fn set_policy(policy: SimdPolicy) {
    ACTIVE.store(encode(policy.resolve()), Ordering::SeqCst);
}

/// The process-wide kernel level, resolved once on first use: the
/// `SIG_SIMD` environment variable if set to a recognized value,
/// otherwise [`SimdPolicy::Auto`]. [`set_policy`] overrides it.
#[must_use]
pub fn active_level() -> SimdLevel {
    if let Some(level) = decode(ACTIVE.load(Ordering::Relaxed)) {
        return level;
    }
    let policy = std::env::var("SIG_SIMD")
        .ok()
        .and_then(|v| SimdPolicy::from_name(&v))
        .unwrap_or(SimdPolicy::Auto);
    let level = policy.resolve();
    // Racing first calls resolve the same env, so last-write-wins is
    // deterministic.
    ACTIVE.store(encode(level), Ordering::SeqCst);
    level
}

/// Largest standardizer dimension the tiled SIMD path covers; wider
/// rows (none exist in practice — the TOM features are 3-wide) fall
/// back to the scalar loop.
const MAX_TILE_DIM: usize = 8;

// ---------------------------------------------------------------------
// Kernel 1: dense layer forward over a structure-of-arrays batch.
// ---------------------------------------------------------------------

/// Forward pass of one dense layer (`y = W x + b`) over an SoA batch:
/// `x` holds `inputs` rows of `n` sample values (feature-major), `out`
/// receives `outputs` rows of `n` values. Per sample the accumulation
/// is exactly the scalar order — `acc = bias; acc += w[i] * x[i]` in
/// input order, separate mul/add roundings — so every level is
/// bit-identical to [`SimdLevel::Scalar`].
///
/// # Panics
///
/// Panics if the slice lengths do not match the given shape.
#[allow(clippy::too_many_arguments)] // a kernel signature: shape + data, no natural struct
pub fn dense_forward_soa(
    level: SimdLevel,
    inputs: usize,
    outputs: usize,
    weights: &[f64],
    biases: &[f64],
    x: &[f64],
    n: usize,
    out: &mut [f64],
) {
    assert_eq!(weights.len(), inputs * outputs, "weight shape mismatch");
    assert_eq!(biases.len(), outputs, "bias shape mismatch");
    assert_eq!(x.len(), inputs * n, "input batch shape mismatch");
    assert_eq!(out.len(), outputs * n, "output batch shape mismatch");
    match level {
        SimdLevel::Scalar => dense_forward_scalar(inputs, outputs, weights, biases, x, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline; AVX2 levels are
        // only ever produced by `SimdPolicy::resolve`, which clamps to
        // `detected_best()`, or by tests iterating `available()`.
        SimdLevel::Sse2 => unsafe {
            dense_forward_sse2(inputs, outputs, weights, biases, x, n, out);
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above — Avx2 implies `is_x86_feature_detected!("avx2")`.
        SimdLevel::Avx2 => unsafe {
            dense_forward_avx2(inputs, outputs, weights, biases, x, n, out);
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => dense_forward_scalar(inputs, outputs, weights, biases, x, n, out),
    }
}

fn dense_forward_scalar(
    inputs: usize,
    outputs: usize,
    weights: &[f64],
    biases: &[f64],
    x: &[f64],
    n: usize,
    out: &mut [f64],
) {
    for o in 0..outputs {
        let wrow = &weights[o * inputs..(o + 1) * inputs];
        let orow = &mut out[o * n..(o + 1) * n];
        for (r, slot) in orow.iter_mut().enumerate() {
            let mut acc = biases[o];
            for (i, w) in wrow.iter().enumerate() {
                acc += w * x[i * n + r];
            }
            *slot = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn dense_forward_sse2(
    inputs: usize,
    outputs: usize,
    weights: &[f64],
    biases: &[f64],
    x: &[f64],
    n: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::{_mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_storeu_pd};
    let main = n - n % 2;
    for o in 0..outputs {
        let wrow = &weights[o * inputs..(o + 1) * inputs];
        let bias = biases[o];
        let bias_v = _mm_set1_pd(bias);
        let mut r = 0;
        while r < main {
            let mut acc = bias_v;
            for (i, &w) in wrow.iter().enumerate() {
                let xv = _mm_loadu_pd(x.as_ptr().add(i * n + r));
                acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(w), xv));
            }
            _mm_storeu_pd(out.as_mut_ptr().add(o * n + r), acc);
            r += 2;
        }
        for r in main..n {
            let mut acc = bias;
            for (i, &w) in wrow.iter().enumerate() {
                acc += w * x[i * n + r];
            }
            out[o * n + r] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_forward_avx2(
    inputs: usize,
    outputs: usize,
    weights: &[f64],
    biases: &[f64],
    x: &[f64],
    n: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    let main = n - n % 4;
    for o in 0..outputs {
        let wrow = &weights[o * inputs..(o + 1) * inputs];
        let bias = biases[o];
        let bias_v = _mm256_set1_pd(bias);
        let mut r = 0;
        while r < main {
            let mut acc = bias_v;
            for (i, &w) in wrow.iter().enumerate() {
                let xv = _mm256_loadu_pd(x.as_ptr().add(i * n + r));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(w), xv));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(o * n + r), acc);
            r += 4;
        }
        for r in main..n {
            let mut acc = bias;
            for (i, &w) in wrow.iter().enumerate() {
                acc += w * x[i * n + r];
            }
            out[o * n + r] = acc;
        }
    }
}

// ---------------------------------------------------------------------
// Kernel 2: standardize / unstandardize over row-major batches.
// ---------------------------------------------------------------------

/// Standardizes a flat row-major batch in place: element `j` becomes
/// `(data[j] - means[j % dim]) / stds[j % dim]`. One IEEE op sequence
/// per element, so every level is trivially bit-identical; the SIMD
/// paths tile the periodic coefficients to `dim × lanes` so whole
/// vectors load coefficients directly.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `means.len()` or the
/// coefficient slices disagree in length.
pub fn standardize_rows(level: SimdLevel, means: &[f64], stds: &[f64], data: &mut [f64]) {
    affine_rows(level, means, stds, data, AffineForm::Standardize);
}

/// Inverts [`standardize_rows`] in place: element `j` becomes
/// `data[j] * stds[j % dim] + means[j % dim]`.
///
/// # Panics
///
/// Panics on the same shape mismatches as [`standardize_rows`].
pub fn unstandardize_rows(level: SimdLevel, means: &[f64], stds: &[f64], data: &mut [f64]) {
    affine_rows(level, means, stds, data, AffineForm::Unstandardize);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AffineForm {
    Standardize,
    Unstandardize,
}

fn affine_rows(level: SimdLevel, means: &[f64], stds: &[f64], data: &mut [f64], form: AffineForm) {
    let dim = means.len();
    assert_eq!(stds.len(), dim, "coefficient shape mismatch");
    assert!(dim > 0, "zero-dimensional standardizer");
    assert_eq!(data.len() % dim, 0, "batch is not whole rows");
    let effective = if dim > MAX_TILE_DIM {
        SimdLevel::Scalar
    } else {
        level
    };
    match effective {
        SimdLevel::Scalar => affine_scalar(means, stds, data, form),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level provenance as in `dense_forward_soa`.
        SimdLevel::Sse2 => unsafe { affine_sse2(means, stds, data, form) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level provenance as in `dense_forward_soa`.
        SimdLevel::Avx2 => unsafe { affine_avx2(means, stds, data, form) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => affine_scalar(means, stds, data, form),
    }
}

fn affine_scalar(means: &[f64], stds: &[f64], data: &mut [f64], form: AffineForm) {
    let dim = means.len();
    for (j, v) in data.iter_mut().enumerate() {
        let m = means[j % dim];
        let s = stds[j % dim];
        *v = match form {
            AffineForm::Standardize => (*v - m) / s,
            AffineForm::Unstandardize => *v * s + m,
        };
    }
}

/// Fills stack tiles with the coefficients repeated to `dim * lanes`
/// elements, so every vector of `lanes` consecutive batch elements can
/// load its coefficients from a fixed tile offset.
fn fill_tiles(
    means: &[f64],
    stds: &[f64],
    lanes: usize,
    tile_m: &mut [f64; MAX_TILE_DIM * 4],
    tile_s: &mut [f64; MAX_TILE_DIM * 4],
) -> usize {
    let dim = means.len();
    let len = dim * lanes;
    for t in 0..len {
        tile_m[t] = means[t % dim];
        tile_s[t] = stds[t % dim];
    }
    len
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn affine_sse2(means: &[f64], stds: &[f64], data: &mut [f64], form: AffineForm) {
    use std::arch::x86_64::{
        _mm_add_pd, _mm_div_pd, _mm_loadu_pd, _mm_mul_pd, _mm_storeu_pd, _mm_sub_pd,
    };
    let mut tile_m = [0.0; MAX_TILE_DIM * 4];
    let mut tile_s = [0.0; MAX_TILE_DIM * 4];
    let tile_len = fill_tiles(means, stds, 2, &mut tile_m, &mut tile_s);
    let main = data.len() - data.len() % tile_len;
    let mut base = 0;
    while base < main {
        let mut off = 0;
        while off < tile_len {
            let v = _mm_loadu_pd(data.as_ptr().add(base + off));
            let m = _mm_loadu_pd(tile_m.as_ptr().add(off));
            let s = _mm_loadu_pd(tile_s.as_ptr().add(off));
            let r = match form {
                AffineForm::Standardize => _mm_div_pd(_mm_sub_pd(v, m), s),
                AffineForm::Unstandardize => _mm_add_pd(_mm_mul_pd(v, s), m),
            };
            _mm_storeu_pd(data.as_mut_ptr().add(base + off), r);
            off += 2;
        }
        base += tile_len;
    }
    affine_scalar(means, stds, &mut data[main..], form);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn affine_avx2(means: &[f64], stds: &[f64], data: &mut [f64], form: AffineForm) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_storeu_pd,
        _mm256_sub_pd,
    };
    let mut tile_m = [0.0; MAX_TILE_DIM * 4];
    let mut tile_s = [0.0; MAX_TILE_DIM * 4];
    let tile_len = fill_tiles(means, stds, 4, &mut tile_m, &mut tile_s);
    let main = data.len() - data.len() % tile_len;
    let mut base = 0;
    while base < main {
        let mut off = 0;
        while off < tile_len {
            let v = _mm256_loadu_pd(data.as_ptr().add(base + off));
            let m = _mm256_loadu_pd(tile_m.as_ptr().add(off));
            let s = _mm256_loadu_pd(tile_s.as_ptr().add(off));
            let r = match form {
                AffineForm::Standardize => _mm256_div_pd(_mm256_sub_pd(v, m), s),
                AffineForm::Unstandardize => _mm256_add_pd(_mm256_mul_pd(v, s), m),
            };
            _mm256_storeu_pd(data.as_mut_ptr().add(base + off), r);
            off += 4;
        }
        base += tile_len;
    }
    affine_scalar(means, stds, &mut data[main..], form);
}

// ---------------------------------------------------------------------
// Kernel 3: LUT scaled squared distances over an SoA sample table.
// ---------------------------------------------------------------------

/// Computes the scaled squared distance of every stored sample to one
/// query over `DIMS` feature axes: `features` holds `DIMS` rows of `n`
/// values (feature-major), and `out[r]` receives
/// `Σ_a ((features[a][r] - query[a]) / scales[a])²` accumulated in axis
/// order from `0.0` — the exact scalar sequence `LutTransfer` uses, so
/// downstream nearest-neighbour selection (including tie order) is
/// unchanged at every level.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given shape.
pub fn scaled_distances_soa<const DIMS: usize>(
    level: SimdLevel,
    features: &[f64],
    n: usize,
    query: &[f64; DIMS],
    scales: &[f64; DIMS],
    out: &mut [f64],
) {
    assert_eq!(features.len(), DIMS * n, "feature table shape mismatch");
    assert_eq!(out.len(), n, "output shape mismatch");
    match level {
        SimdLevel::Scalar => scaled_distances_scalar(features, n, query, scales, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level provenance as in `dense_forward_soa`.
        SimdLevel::Sse2 => unsafe { scaled_distances_sse2(features, n, query, scales, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level provenance as in `dense_forward_soa`.
        SimdLevel::Avx2 => unsafe { scaled_distances_avx2(features, n, query, scales, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scaled_distances_scalar(features, n, query, scales, out),
    }
}

fn scaled_distances_scalar<const DIMS: usize>(
    features: &[f64],
    n: usize,
    query: &[f64; DIMS],
    scales: &[f64; DIMS],
    out: &mut [f64],
) {
    for (r, slot) in out.iter_mut().enumerate() {
        let mut d2 = 0.0;
        for a in 0..DIMS {
            let d = (features[a * n + r] - query[a]) / scales[a];
            d2 += d * d;
        }
        *slot = d2;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn scaled_distances_sse2<const DIMS: usize>(
    features: &[f64],
    n: usize,
    query: &[f64; DIMS],
    scales: &[f64; DIMS],
    out: &mut [f64],
) {
    use std::arch::x86_64::{
        _mm_add_pd, _mm_div_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_setzero_pd,
        _mm_storeu_pd, _mm_sub_pd,
    };
    let main = n - n % 2;
    let mut r = 0;
    while r < main {
        let mut acc = _mm_setzero_pd();
        for a in 0..DIMS {
            let f = _mm_loadu_pd(features.as_ptr().add(a * n + r));
            let d = _mm_div_pd(_mm_sub_pd(f, _mm_set1_pd(query[a])), _mm_set1_pd(scales[a]));
            acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
        }
        _mm_storeu_pd(out.as_mut_ptr().add(r), acc);
        r += 2;
    }
    scaled_distances_tail(features, n, main, query, scales, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scaled_distances_avx2<const DIMS: usize>(
    features: &[f64],
    n: usize,
    query: &[f64; DIMS],
    scales: &[f64; DIMS],
    out: &mut [f64],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    let main = n - n % 4;
    let mut r = 0;
    while r < main {
        let mut acc = _mm256_setzero_pd();
        for a in 0..DIMS {
            let f = _mm256_loadu_pd(features.as_ptr().add(a * n + r));
            let d = _mm256_div_pd(
                _mm256_sub_pd(f, _mm256_set1_pd(query[a])),
                _mm256_set1_pd(scales[a]),
            );
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(r), acc);
        r += 4;
    }
    scaled_distances_tail(features, n, main, query, scales, out);
}

#[cfg(target_arch = "x86_64")]
fn scaled_distances_tail<const DIMS: usize>(
    features: &[f64],
    n: usize,
    from: usize,
    query: &[f64; DIMS],
    scales: &[f64; DIMS],
    out: &mut [f64],
) {
    for (r, slot) in out.iter_mut().enumerate().take(n).skip(from) {
        let mut d2 = 0.0;
        for a in 0..DIMS {
            let d = (features[a * n + r] - query[a]) / scales[a];
            d2 += d * d;
        }
        *slot = d2;
    }
}

// ---------------------------------------------------------------------
// Kernel 4: nearest point of an SoA point leaf.
// ---------------------------------------------------------------------

/// The most points one [`leaf_nearest_soa`] call scans.
pub const LEAF_POINTS: usize = 64;

/// The nearest points of a leaf to a query, see [`leaf_nearest_soa`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafNearest {
    /// The minimum squared distance; `+∞` for an empty leaf or one whose
    /// distances are all NaN.
    pub d2: f64,
    /// How many points are at exactly `d2` (0 when `d2` exceeds the
    /// bound).
    pub ties: usize,
    /// The first point at `d2` (`usize::MAX` when `ties` is 0).
    pub index: usize,
    /// The smallest distance above `d2`, NaN skipped: the leaf's
    /// runner-up when `ties` is 1. `+∞` when not asked for, when `ties`
    /// is 0, or when no point lies farther.
    pub above: f64,
}

impl LeafNearest {
    const NONE: Self = Self {
        d2: f64::INFINITY,
        ties: 0,
        index: usize::MAX,
        above: f64::INFINITY,
    };
}

/// Finds the points of a leaf `(xs[r], ys[r], zs[r])` nearest to
/// `query`: the minimum squared distance and, unless it exceeds
/// `bound`, how many points reach it, the first of them and, if
/// `runner_up` asks for it, the smallest distance above it. Each
/// distance is `dx * dx + dy * dy + dz * dz` with `dx = xs[r] - query[0]`
/// (and so on), rounded after every operation in that order — the
/// scalar sequence of `sigtom`'s valid-region search. The minimum skips
/// NaN distances (`if d < min` from `+∞`).
///
/// The scalar level scans once; AVX2 keeps a minimum per lane, merges
/// the lanes, then counts the distances equal to the minimum in a second
/// pass, and takes the smallest distance above it in a third pass only
/// when asked. Both give the same result: a minimum is order-free once
/// NaN is skipped (and a squared distance is never `-0.0`), and the count
/// and first position of a value are exact. SSE2 runs the scalar scan:
/// its two-lane version measured no reliable gain over it.
///
/// # Panics
///
/// Panics if the slice lengths differ or exceed [`LEAF_POINTS`].
pub fn leaf_nearest_soa(
    level: SimdLevel,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    query: [f64; 3],
    bound: f64,
    runner_up: bool,
) -> LeafNearest {
    let n = xs.len();
    assert!(
        ys.len() == n && zs.len() == n && n <= LEAF_POINTS,
        "point leaf shape mismatch"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level provenance as in `dense_forward_soa`.
        SimdLevel::Avx2 => unsafe { leaf_nearest_avx2(xs, ys, zs, query, bound, runner_up) },
        _ => leaf_nearest_scalar(xs, ys, zs, query, bound, runner_up),
    }
}

fn leaf_nearest_scalar(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    query: [f64; 3],
    bound: f64,
    runner_up: bool,
) -> LeafNearest {
    let mut found = LeafNearest::NONE;
    for r in 0..xs.len() {
        let dx = xs[r] - query[0];
        let dy = ys[r] - query[1];
        let dz = zs[r] - query[2];
        let d2 = dx * dx + dy * dy + dz * dz;
        if d2 < found.d2 {
            found = LeafNearest {
                d2,
                ties: 1,
                index: r,
                above: found.d2,
            };
        } else if d2 == found.d2 {
            found.ties += 1;
            found.index = found.index.min(r);
        } else if d2 < found.above {
            found.above = d2;
        }
    }
    if found.d2 > bound {
        LeafNearest {
            d2: found.d2,
            ..LeafNearest::NONE
        }
    } else if runner_up {
        found
    } else {
        LeafNearest {
            above: f64::INFINITY,
            ..found
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn leaf_nearest_avx2(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    query: [f64; 3],
    bound: f64,
    runner_up: bool,
) -> LeafNearest {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_min_pd,
        _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _CMP_EQ_OQ, _CMP_GT_OQ,
    };
    let n = xs.len();
    let main = n - n % 4;
    let mut buffer = [0.0; LEAF_POINTS];
    let out = &mut buffer[..n];
    let (qx, qy, qz) = (
        _mm256_set1_pd(query[0]),
        _mm256_set1_pd(query[1]),
        _mm256_set1_pd(query[2]),
    );
    let mut distances = |r: usize| {
        let dx = _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(r)), qx);
        let dy = _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(r)), qy);
        let dz = _mm256_sub_pd(_mm256_loadu_pd(zs.as_ptr().add(r)), qz);
        let d2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );
        _mm256_storeu_pd(out.as_mut_ptr().add(r), d2);
        d2
    };
    // `_mm256_min_pd(d2, min)` returns its second operand when `d2` is
    // NaN, so a lane minimum skips NaN exactly as the scalar fold does.
    // Two of them, so consecutive vectors do not wait on one another.
    let mut min = [_mm256_set1_pd(f64::INFINITY); 2];
    let mut r = 0;
    while r + 8 <= main {
        min[0] = _mm256_min_pd(distances(r), min[0]);
        min[1] = _mm256_min_pd(distances(r + 4), min[1]);
        r += 8;
    }
    if r < main {
        min[0] = _mm256_min_pd(distances(r), min[0]);
    }
    let mut lanes = [0.0; 8];
    _mm256_storeu_pd(lanes.as_mut_ptr(), min[0]);
    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), min[1]);
    let mut d2 = f64::INFINITY;
    for &lane in &lanes {
        if lane < d2 {
            d2 = lane;
        }
    }
    for r in main..n {
        let dx = xs[r] - query[0];
        let dy = ys[r] - query[1];
        let dz = zs[r] - query[2];
        out[r] = dx * dx + dy * dy + dz * dz;
        if out[r] < d2 {
            d2 = out[r];
        }
    }
    let mut found = LeafNearest {
        d2,
        ..LeafNearest::NONE
    };
    if d2 > bound {
        return found;
    }
    // Count the distances equal to the minimum: bit `l` of a vector's
    // mask is lane `l`.
    let target = _mm256_set1_pd(d2);
    let mut r = 0;
    while r < main {
        let equal = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_loadu_pd(out.as_ptr().add(r)), target);
        let hits = _mm256_movemask_pd(equal) as u32;
        let first = if hits == 0 {
            usize::MAX
        } else {
            r + hits.trailing_zeros() as usize
        };
        found.ties += hits.count_ones() as usize;
        found.index = found.index.min(first);
        r += 4;
    }
    for (r, &d) in out.iter().enumerate().skip(main) {
        if d == d2 {
            found.ties += 1;
            found.index = found.index.min(r);
        }
    }
    if !runner_up {
        return found;
    }
    // The smallest distance above the minimum: a lane that is not above
    // it (a tie, or NaN, which compares false) enters as +∞.
    let infinity = _mm256_set1_pd(f64::INFINITY);
    let farther = |r: usize, above: __m256d| {
        let d = _mm256_loadu_pd(out.as_ptr().add(r));
        let over = _mm256_cmp_pd::<_CMP_GT_OQ>(d, target);
        _mm256_min_pd(_mm256_blendv_pd(infinity, d, over), above)
    };
    let mut above = [infinity; 2];
    let mut r = 0;
    while r + 8 <= main {
        above[0] = farther(r, above[0]);
        above[1] = farther(r + 4, above[1]);
        r += 8;
    }
    if r < main {
        above[0] = farther(r, above[0]);
    }
    _mm256_storeu_pd(lanes.as_mut_ptr(), above[0]);
    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), above[1]);
    for &d in lanes.iter().chain(&out[main..]) {
        if d > d2 && d < found.above {
            found.above = d;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn policy_names_round_trip() {
        for (name, policy) in [
            ("off", SimdPolicy::Off),
            ("scalar", SimdPolicy::Force(SimdLevel::Scalar)),
            ("auto", SimdPolicy::Auto),
            ("sse2", SimdPolicy::Force(SimdLevel::Sse2)),
            ("avx2", SimdPolicy::Force(SimdLevel::Avx2)),
        ] {
            assert_eq!(SimdPolicy::from_name(name), Some(policy), "{name}");
            assert_eq!(
                SimdPolicy::from_name(&name.to_ascii_uppercase()),
                Some(policy)
            );
        }
        assert_eq!(SimdPolicy::from_name("mmx"), None);
        assert_eq!(SimdPolicy::from_name(""), None);
    }

    #[test]
    fn force_clamps_to_detected() {
        let best = detected_best();
        assert!(SimdPolicy::Force(SimdLevel::Avx2).resolve() <= best);
        assert_eq!(SimdPolicy::Off.resolve(), SimdLevel::Scalar);
        assert_eq!(SimdPolicy::Auto.resolve(), best);
    }

    #[test]
    fn available_starts_scalar_and_is_sorted() {
        let levels = SimdLevel::available();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| {
                let mag = 10f64.powi(rng.gen_range(-12..12));
                rng.gen_range(-1.0..1.0) * mag
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} {x} vs {y}");
        }
    }

    proptest! {
        /// Dense-kernel parity: every available level is bit-identical
        /// to the scalar reference on random shapes × random data
        /// (hosts without AVX2 simply don't iterate that level).
        #[test]
        fn dense_kernel_parity(
            seed in 0u64..u64::MAX,
            inputs in 1usize..12,
            outputs in 1usize..12,
            n in 0usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let weights = random_vec(&mut rng, inputs * outputs);
            let biases = random_vec(&mut rng, outputs);
            let x = random_vec(&mut rng, inputs * n);
            let mut reference = vec![0.0; outputs * n];
            dense_forward_soa(
                SimdLevel::Scalar, inputs, outputs, &weights, &biases, &x, n, &mut reference,
            );
            for level in SimdLevel::available() {
                let mut out = vec![f64::NAN; outputs * n];
                dense_forward_soa(level, inputs, outputs, &weights, &biases, &x, n, &mut out);
                assert_bits_eq(&out, &reference, level.as_str());
            }
        }

        /// Standardize/unstandardize parity at every available level,
        /// including dims that straddle the tile width.
        #[test]
        fn affine_kernel_parity(
            seed in 0u64..u64::MAX,
            dim in 1usize..10,
            rows in 0usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let means = random_vec(&mut rng, dim);
            let stds: Vec<f64> = random_vec(&mut rng, dim)
                .into_iter()
                .map(|s| s.abs().max(1e-12))
                .collect();
            let data = random_vec(&mut rng, dim * rows);
            for form in [AffineForm::Standardize, AffineForm::Unstandardize] {
                let mut reference = data.clone();
                affine_rows(SimdLevel::Scalar, &means, &stds, &mut reference, form);
                for level in SimdLevel::available() {
                    let mut out = data.clone();
                    affine_rows(level, &means, &stds, &mut out, form);
                    assert_bits_eq(&out, &reference, level.as_str());
                }
            }
        }

        /// LUT distance-kernel parity at every available level.
        #[test]
        fn distance_kernel_parity(
            seed in 0u64..u64::MAX,
            n in 0usize..50,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let features = random_vec(&mut rng, 3 * n);
            let query = [
                rng.gen_range(-20.0..20.0),
                rng.gen_range(-20.0..20.0),
                rng.gen_range(-20.0..20.0),
            ];
            let scales = [
                rng.gen_range(0.01..10.0f64),
                rng.gen_range(0.01..10.0),
                rng.gen_range(0.01..10.0),
            ];
            let mut reference = vec![0.0; n];
            scaled_distances_soa(SimdLevel::Scalar, &features, n, &query, &scales, &mut reference);
            for level in SimdLevel::available() {
                let mut out = vec![f64::NAN; n];
                scaled_distances_soa(level, &features, n, &query, &scales, &mut out);
                assert_bits_eq(&out, &reference, level.as_str());
            }
        }

        /// Leaf-scan parity at every available level: the minimum, its
        /// ties and first index, on lengths around the vector widths up
        /// to a full leaf, with repeated points (tied minima), NaN
        /// coordinates and bounds below, at and above the minimum.
        #[test]
        fn leaf_nearest_kernel_parity(
            seed in 0u64..u64::MAX,
            n in 0usize..LEAF_POINTS + 1,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut axes = [0, 1, 2].map(|_| random_vec(&mut rng, n));
            for r in 0..n {
                match rng.gen_range(0..8u32) {
                    0 | 1 if r > 0 => {
                        let from = rng.gen_range(0..r);
                        for axis in &mut axes {
                            axis[r] = axis[from];
                        }
                    }
                    2 => axes[rng.gen_range(0..3usize)][r] = f64::NAN,
                    _ => {}
                }
            }
            let query = [0, 1, 2].map(|_| rng.gen_range(-20.0..20.0));
            let [xs, ys, zs] = &axes;
            // The reference: plain folds over the scalar distances.
            let d2: Vec<f64> = (0..n)
                .map(|r| {
                    let (dx, dy, dz) = (xs[r] - query[0], ys[r] - query[1], zs[r] - query[2]);
                    dx * dx + dy * dy + dz * dz
                })
                .collect();
            let min = d2.iter().fold(f64::INFINITY, |m, &d| if d < m { d } else { m });
            let bound = match rng.gen_range(0..4u32) {
                0 => min,
                1 => min / 2.0,
                2 => min * 2.0,
                _ => f64::INFINITY,
            };
            let expected = if min > bound {
                LeafNearest { d2: min, ..LeafNearest::NONE }
            } else {
                LeafNearest {
                    d2: min,
                    ties: d2.iter().filter(|&&d| d == min).count(),
                    index: d2.iter().position(|&d| d == min).unwrap_or(usize::MAX),
                    above: d2
                        .iter()
                        .filter(|&&d| d > min)
                        .fold(f64::INFINITY, |m, &d| m.min(d)),
                }
            };
            for (level, runner_up) in SimdLevel::available()
                .into_iter()
                .flat_map(|level| [(level, true), (level, false)])
            {
                let got = leaf_nearest_soa(level, xs, ys, zs, query, bound, runner_up);
                let expected = if runner_up {
                    expected
                } else {
                    LeafNearest { above: f64::INFINITY, ..expected }
                };
                prop_assert_eq!(got.d2.to_bits(), expected.d2.to_bits(), "{}", level.as_str());
                prop_assert_eq!(
                    got.above.to_bits(),
                    expected.above.to_bits(),
                    "{}",
                    level.as_str()
                );
                prop_assert_eq!(
                    (got.ties, got.index),
                    (expected.ties, expected.index),
                    "{}",
                    level.as_str()
                );
            }
        }
    }
}
