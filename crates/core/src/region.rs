//! Valid-region containment (Sec. IV-B).
//!
//! ANNs behave arbitrarily outside their training set, and prediction
//! errors amplify along gate chains. The paper computes the *concave hull*
//! of the 3-D training inputs and projects out-of-region queries onto it.
//! Concave hulls are not uniquely defined (the paper cites Moreira &
//! Santos' k-nearest-neighbour construction); we use the equivalent
//! kNN-distance membership test: a query is *inside* if its distance to the
//! nearest training point is within a data-derived threshold, and
//! projection snaps the query to the nearest training point. A kd-tree
//! makes both operations `O(log n)`.

use serde::{Deserialize, Serialize};

use crate::transfer::TransferQuery;

/// A 3-D point in (normalized) transfer-feature space.
type Point = [f64; 3];

/// kd-tree node in implicit array layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KdNode {
    point: Point,
    /// Split axis at this node (depth % 3).
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// The valid input region of a trained transfer function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidRegion {
    nodes: Vec<KdNode>,
    root: Option<usize>,
    /// Per-axis normalization scale (so distances weigh T and slopes
    /// comparably).
    scales: [f64; 3],
    /// Inside iff nearest-neighbour distance (normalized) ≤ threshold.
    threshold: f64,
}

impl ValidRegion {
    /// Builds the region from the feature vectors of a training set.
    ///
    /// `margin` scales the membership threshold relative to the data's own
    /// typical nearest-neighbour spacing (≥ 1; the paper-equivalent
    /// "concave hull tightness" knob — larger is more permissive). A good
    /// default is 3.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `margin` is not positive.
    #[must_use]
    pub fn build(points: &[[f64; 3]], margin: f64) -> Self {
        assert!(!points.is_empty(), "valid region needs training points");
        assert!(margin > 0.0, "margin must be positive");
        // Normalize each axis by its spread.
        let mut scales = [1.0f64; 3];
        for axis in 0..3 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in points {
                lo = lo.min(p[axis]);
                hi = hi.max(p[axis]);
            }
            let spread = (hi - lo).abs();
            scales[axis] = if spread > 1e-12 { spread } else { 1.0 };
        }
        let normalized: Vec<Point> = points
            .iter()
            .map(|p| [p[0] / scales[0], p[1] / scales[1], p[2] / scales[2]])
            .collect();

        let mut region = Self {
            nodes: Vec::with_capacity(points.len()),
            root: None,
            scales,
            threshold: 0.0,
        };
        let mut idx: Vec<usize> = (0..normalized.len()).collect();
        region.root = region.build_rec(&normalized, &mut idx, 0);

        // Typical spacing: median nearest-neighbour distance (each point
        // queried against the tree excluding itself would need bookkeeping;
        // the second-nearest of a self-query is the same thing).
        let mut nn: Vec<f64> = normalized
            .iter()
            .map(|p| region.two_nearest(*p).1)
            .filter(|d| d.is_finite())
            .collect();
        nn.sort_by(f64::total_cmp);
        // Fallback for degenerate (single-point) regions: a tight default
        // of 5% of the normalized spread.
        let median = if nn.is_empty() {
            0.05
        } else {
            nn[nn.len() / 2].max(1e-9)
        };
        region.threshold = margin * median;
        region
    }

    fn build_rec(&mut self, pts: &[Point], idx: &mut [usize], depth: usize) -> Option<usize> {
        if idx.is_empty() {
            return None;
        }
        let axis = depth % 3;
        idx.sort_by(|&a, &b| pts[a][axis].total_cmp(&pts[b][axis]));
        let mid = idx.len() / 2;
        let point = pts[idx[mid]];
        let slot = self.nodes.len();
        self.nodes.push(KdNode {
            point,
            axis,
            left: None,
            right: None,
        });
        let (left_idx, rest) = idx.split_at_mut(mid);
        let right_idx = &mut rest[1..];
        let left = self.build_rec(pts, left_idx, depth + 1);
        let right = self.build_rec(pts, right_idx, depth + 1);
        self.nodes[slot].left = left;
        self.nodes[slot].right = right;
        Some(slot)
    }

    /// Nearest and second-nearest distances from `q` (normalized space).
    fn two_nearest(&self, q: Point) -> (f64, f64) {
        let mut best = (f64::INFINITY, f64::INFINITY, None::<Point>);
        self.search(self.root, q, &mut best);
        (best.0.sqrt(), best.1.sqrt())
    }

    fn nearest_point(&self, q: Point) -> (f64, Point) {
        let mut best = (f64::INFINITY, f64::INFINITY, None::<Point>);
        self.search(self.root, q, &mut best);
        (best.0.sqrt(), best.2.expect("tree non-empty"))
    }

    fn search(&self, node: Option<usize>, q: Point, best: &mut (f64, f64, Option<Point>)) {
        let Some(i) = node else { return };
        let n = &self.nodes[i];
        let d2 = dist2(n.point, q);
        if d2 < best.0 {
            best.1 = best.0;
            best.0 = d2;
            best.2 = Some(n.point);
        } else if d2 < best.1 {
            best.1 = d2;
        }
        let delta = q[n.axis] - n.point[n.axis];
        let (near, far) = if delta < 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.search(near, q, best);
        if delta * delta < best.1 {
            self.search(far, q, best);
        }
    }

    fn normalize(&self, q: &TransferQuery) -> Point {
        [
            q.t / self.scales[0],
            q.a_in / self.scales[1],
            q.a_prev_out / self.scales[2],
        ]
    }

    /// `true` if the query lies inside the valid region.
    #[must_use]
    pub fn contains(&self, query: &TransferQuery) -> bool {
        let (d, _) = self.two_nearest(self.normalize(query));
        d <= self.threshold
    }

    /// Projects the query into the region: queries already inside are
    /// returned unchanged, outside queries snap to the closest training
    /// point ("compute the closest point on the concave hull and use these
    /// coordinates as inputs instead", Sec. IV-B). One kd-tree search
    /// yields both the membership distance and the snap target.
    #[must_use]
    pub fn project(&self, query: TransferQuery) -> TransferQuery {
        let (d, p) = self.nearest_point(self.normalize(&query));
        if d <= self.threshold {
            return query;
        }
        TransferQuery {
            t: p[0] * self.scales[0],
            a_in: p[1] * self.scales[1],
            a_prev_out: p[2] * self.scales[2],
        }
    }

    /// Number of stored training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false`: construction requires at least one point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Builds the region from a dataset's polarity half.
    #[must_use]
    pub fn from_samples(samples: &[sigchar::TransferSample], margin: f64) -> Self {
        let pts: Vec<[f64; 3]> = samples.iter().map(|s| s.features()).collect();
        Self::build(&pts, margin)
    }
}

fn dist2(a: Point, b: Point) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> Vec<[f64; 3]> {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..5 {
                    pts.push([i as f64 * 0.1, 5.0 + j as f64, -(5.0 + k as f64)]);
                }
            }
        }
        pts
    }

    fn q(t: f64, a_in: f64, a_prev: f64) -> TransferQuery {
        TransferQuery {
            t,
            a_in,
            a_prev_out: a_prev,
        }
    }

    #[test]
    fn training_points_are_inside() {
        let r = ValidRegion::build(&grid(), 3.0);
        for p in grid().iter().step_by(17) {
            assert!(r.contains(&q(p[0], p[1], p[2])));
        }
    }

    #[test]
    fn far_points_are_outside() {
        let r = ValidRegion::build(&grid(), 3.0);
        assert!(!r.contains(&q(100.0, 5.0, -5.0)));
        assert!(!r.contains(&q(0.5, 500.0, -5.0)));
    }

    #[test]
    fn projection_is_idempotent_and_inside() {
        let r = ValidRegion::build(&grid(), 3.0);
        let outside = q(50.0, 80.0, -40.0);
        let p = r.project(outside);
        assert!(r.contains(&p), "projected point must be inside");
        let pp = r.project(p);
        assert_eq!(p, pp, "projection must be idempotent");
    }

    #[test]
    fn inside_projection_is_identity() {
        let r = ValidRegion::build(&grid(), 3.0);
        let inside = q(0.41, 7.03, -6.97);
        assert!(r.contains(&inside));
        assert_eq!(r.project(inside), inside);
    }

    #[test]
    fn concavity_hole_detected() {
        // Points on a ring (hole in the middle): a convex hull would call
        // the centre inside, the kNN region must not.
        let mut pts = Vec::new();
        for i in 0..200 {
            let ang = i as f64 * std::f64::consts::TAU / 200.0;
            pts.push([10.0 * ang.cos(), 10.0 * ang.sin(), 0.0]);
        }
        let r = ValidRegion::build(&pts, 2.0);
        assert!(
            !r.contains(&q(0.0, 0.0, 0.0)),
            "hole centre must be outside the concave region"
        );
        assert!(r.contains(&q(10.0, 0.0, 0.0)));
    }

    #[test]
    fn single_point_region() {
        let r = ValidRegion::build(&[[1.0, 2.0, 3.0]], 3.0);
        assert_eq!(r.len(), 1);
        let proj = r.project(q(9.0, 9.0, 9.0));
        assert!((proj.t - 1.0).abs() < 1e-9);
        assert!((proj.a_in - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "needs training points")]
    fn empty_rejected() {
        let _ = ValidRegion::build(&[], 3.0);
    }

    /// The two-search projection: membership from [`ValidRegion::contains`],
    /// then a second search for the snap target.
    fn two_search_project(r: &ValidRegion, query: TransferQuery) -> TransferQuery {
        if r.contains(&query) {
            return query;
        }
        let (_, p) = r.nearest_point(r.normalize(&query));
        q(p[0] * r.scales[0], p[1] * r.scales[1], p[2] * r.scales[2])
    }

    proptest! {
        #[test]
        fn single_search_projection_matches_two_searches(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Points on a coarse integer grid, so repeated points and
            // equidistant neighbours (tied distances) are common.
            let grid = |rng: &mut rand::rngs::StdRng| -> [f64; 3] {
                [0, 1, 2].map(|_| f64::from(rng.gen_range(0..4u32)) * 0.5)
            };
            let mut pts: Vec<[f64; 3]> =
                (0..rng.gen_range(1..40usize)).map(|_| grid(&mut rng)).collect();
            for _ in 0..rng.gen_range(0..8usize) {
                let again = pts[rng.gen_range(0..pts.len())];
                pts.push(again);
            }
            let r = ValidRegion::build(&pts, rng.gen_range(0.5..4.0f64));
            for _ in 0..32 {
                let base = pts[rng.gen_range(0..pts.len())];
                let [t, a, p] = match rng.gen_range(0..4u32) {
                    // A training point or a grid point: distance 0 or ties.
                    0 => base,
                    1 => grid(&mut rng),
                    // Midway between two grid points: an exact tie.
                    2 => {
                        let g = grid(&mut rng);
                        [0, 1, 2].map(|i| (base[i] + g[i]) / 2.0)
                    }
                    // Near or far off the cloud, inside or outside the
                    // threshold.
                    _ => {
                        let spread = [0.05, 0.5, 5.0][rng.gen_range(0..3usize)];
                        [0, 1, 2].map(|i| base[i] + rng.gen_range(-spread..spread))
                    }
                };
                let query = q(t, a, p);
                let one = r.project(query);
                let two = two_search_project(&r, query);
                prop_assert!(
                    [one.t, one.a_in, one.a_prev_out].map(f64::to_bits)
                        == [two.t, two.a_in, two.a_prev_out].map(f64::to_bits),
                    "{query:?}: one search {one:?} vs two {two:?}"
                );
            }
        }

        #[test]
        fn nearest_matches_brute_force(
            pts in proptest::collection::vec(
                proptest::array::uniform3(-10.0..10.0f64), 1..60),
            probe in proptest::array::uniform3(-15.0..15.0f64),
        ) {
            let r = ValidRegion::build(&pts, 3.0);
            let query = q(probe[0], probe[1], probe[2]);
            let norm = r.normalize(&query);
            let (d, _) = r.two_nearest(norm);
            // Brute force in the same normalized space.
            let brute = pts
                .iter()
                .map(|p| {
                    let n = [p[0] / r.scales[0], p[1] / r.scales[1], p[2] / r.scales[2]];
                    dist2(n, norm).sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            prop_assert!((d - brute).abs() < 1e-9, "kd {d} vs brute {brute}");
        }
    }
}
