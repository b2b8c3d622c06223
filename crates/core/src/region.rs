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

use serde::{Deserialize, Error, Serialize, Value};

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

/// The serialized part of a [`ValidRegion`]. These four fields are the
/// model cache format; the search boxes are derived from them on load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KdTree {
    /// Nodes in preorder: the root is node 0 and every child index is
    /// larger than its parent's.
    nodes: Vec<KdNode>,
    root: Option<usize>,
    /// Per-axis normalization scale (so distances weigh T and slopes
    /// comparably).
    scales: [f64; 3],
    /// Inside iff nearest-neighbour distance (normalized) ≤ threshold.
    threshold: f64,
}

/// The valid input region of a trained transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidRegion {
    tree: KdTree,
    /// Per node: the tight bounding box `[lo, hi]` of the points in its
    /// subtree, which [`ValidRegion::nearest`] prunes by. Derived from the
    /// tree when a region is built or loaded, never serialized.
    boxes: Vec<[Point; 2]>,
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

        let mut tree = KdTree {
            nodes: Vec::with_capacity(points.len()),
            root: None,
            scales,
            threshold: 0.0,
        };
        let mut idx: Vec<usize> = (0..normalized.len()).collect();
        tree.root = tree.build_rec(&normalized, &mut idx, 0);

        // Typical spacing: median nearest-neighbour distance (each point
        // queried against the tree excluding itself would need bookkeeping;
        // the second-nearest of a self-query is the same thing).
        let mut nn: Vec<f64> = normalized
            .iter()
            .map(|p| tree.two_nearest(*p).1)
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
        tree.threshold = margin * median;
        Self::from_tree(tree).expect("build writes a preorder tree")
    }

    /// Derives the search boxes of a tree, bottom-up: children follow
    /// their parent in preorder, so one reverse pass sees every child's
    /// box before its parent's. Rejects a tree that is not the preorder
    /// layout [`ValidRegion::build`] writes.
    fn from_tree(tree: KdTree) -> Result<Self, Error> {
        let n = tree.nodes.len();
        if n == 0 || tree.root != Some(0) {
            return Err(Error::new("valid region: empty tree or root not at node 0"));
        }
        let mut boxes = vec![[[0.0; 3]; 2]; n];
        for i in (0..n).rev() {
            let node = &tree.nodes[i];
            if node.axis >= 3 {
                return Err(Error::new(format!(
                    "valid region: node {i} splits axis {}",
                    node.axis
                )));
            }
            let mut bounds = [node.point; 2];
            for child in [node.left, node.right].into_iter().flatten() {
                if child <= i || child >= n {
                    return Err(Error::new(format!(
                        "valid region: node {i} has child {child} outside preorder"
                    )));
                }
                for axis in 0..3 {
                    bounds[0][axis] = bounds[0][axis].min(boxes[child][0][axis]);
                    bounds[1][axis] = bounds[1][axis].max(boxes[child][1][axis]);
                }
            }
            boxes[i] = bounds;
        }
        Ok(Self { tree, boxes })
    }

    /// The node nearest to `q` (normalized space) and its squared
    /// distance; `None` only for a query with a NaN or infinite
    /// coordinate. A depth-first descent, near child first, that skips
    /// every subtree whose box is no closer than the best distance so far.
    ///
    /// Exact, and the same node [`KdTree::search`] finds: a skipped subtree
    /// holds no point strictly closer than the best (the box distance is
    /// computed with the same rounding as the point distance, so it never
    /// exceeds it), and a tie never replaces the best. Both searches thus
    /// return the first node, in the same depth-first order, at the
    /// minimum distance.
    fn nearest(&self, q: Point) -> (f64, Option<usize>) {
        let mut best = (f64::INFINITY, None);
        self.descend(0, q, &mut best);
        best
    }

    fn descend(&self, i: usize, q: Point, best: &mut (f64, Option<usize>)) {
        if box_dist2(&self.boxes[i], q) >= best.0 {
            return;
        }
        let n = &self.tree.nodes[i];
        let d2 = dist2(n.point, q);
        if d2 < best.0 {
            *best = (d2, Some(i));
        }
        let (near, far) = if q[n.axis] - n.point[n.axis] < 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        for child in [near, far].into_iter().flatten() {
            self.descend(child, q, best);
        }
    }

    fn normalize(&self, q: &TransferQuery) -> Point {
        let s = self.tree.scales;
        [q.t / s[0], q.a_in / s[1], q.a_prev_out / s[2]]
    }

    /// `true` if the query lies inside the valid region.
    #[must_use]
    pub fn contains(&self, query: &TransferQuery) -> bool {
        let (d2, _) = self.nearest(self.normalize(query));
        d2.sqrt() <= self.tree.threshold
    }

    /// The node a query outside the region snaps to, or `None` for a
    /// query inside it. One search yields both the membership distance
    /// and the snap target.
    ///
    /// # Panics
    ///
    /// Panics on a query with a NaN or infinite coordinate.
    pub(crate) fn snap_node(&self, query: &TransferQuery) -> Option<usize> {
        let (d2, node) = self.nearest(self.normalize(query));
        if d2.sqrt() <= self.tree.threshold {
            return None;
        }
        Some(node.expect("query coordinates are finite"))
    }

    /// The training point stored at `node`, as a query in unnormalized
    /// units.
    pub(crate) fn node_query(&self, node: usize) -> TransferQuery {
        let p = self.tree.nodes[node].point;
        let s = self.tree.scales;
        TransferQuery {
            t: p[0] * s[0],
            a_in: p[1] * s[1],
            a_prev_out: p[2] * s[2],
        }
    }

    /// Projects the query into the region: queries already inside are
    /// returned unchanged, outside queries snap to the closest training
    /// point ("compute the closest point on the concave hull and use these
    /// coordinates as inputs instead", Sec. IV-B).
    ///
    /// # Panics
    ///
    /// Panics on a query with a NaN or infinite coordinate.
    #[must_use]
    pub fn project(&self, query: TransferQuery) -> TransferQuery {
        match self.snap_node(&query) {
            None => query,
            Some(node) => self.node_query(node),
        }
    }

    /// Number of stored training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.nodes.len()
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

impl Serialize for ValidRegion {
    fn to_value(&self) -> Value {
        self.tree.to_value()
    }
}

impl Deserialize for ValidRegion {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Self::from_tree(KdTree::from_value(v)?)
    }
}

impl KdTree {
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

    /// Nearest and second-nearest distances from `q` (normalized space):
    /// the spacing estimate of [`ValidRegion::build`].
    fn two_nearest(&self, q: Point) -> (f64, f64) {
        let mut best = (f64::INFINITY, f64::INFINITY, None::<Point>);
        self.search(self.root, q, &mut best);
        (best.0.sqrt(), best.1.sqrt())
    }

    /// Two-nearest search pruned by the splitting plane alone. Besides the
    /// spacing estimate it is the reference [`ValidRegion::nearest`] is
    /// tested against.
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
}

fn dist2(a: Point, b: Point) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Squared distance from `q` to the box `[lo, hi]`, summed like
/// [`dist2`]. Each axis gap is a rounded difference against a box face
/// that lies no farther from `q` than any point in the box, and rounding
/// is monotone, so the result never exceeds the [`dist2`] of a point in
/// the box.
fn box_dist2(bounds: &[Point; 2], q: Point) -> f64 {
    let gap = |axis: usize| {
        (bounds[0][axis] - q[axis])
            .max(q[axis] - bounds[1][axis])
            .max(0.0)
    };
    let (gx, gy, gz) = (gap(0), gap(1), gap(2));
    gx * gx + gy * gy + gz * gz
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

    /// The reference projection: membership and snap target from the
    /// retained two-nearest search.
    fn reference_project(r: &ValidRegion, query: TransferQuery) -> TransferQuery {
        let mut best = (f64::INFINITY, f64::INFINITY, None);
        r.tree.search(r.tree.root, r.normalize(&query), &mut best);
        if best.0.sqrt() <= r.tree.threshold {
            return query;
        }
        let p = best.2.expect("tree non-empty");
        let s = r.tree.scales;
        q(p[0] * s[0], p[1] * s[1], p[2] * s[2])
    }

    fn bits(q: TransferQuery) -> [u64; 3] {
        [q.t, q.a_in, q.a_prev_out].map(f64::to_bits)
    }

    #[test]
    fn serializes_to_the_cache_format_and_round_trips() {
        // The exact bytes this region (with a duplicate point) serialized
        // to before regions carried search boxes: model cache files must
        // not change.
        const CACHE: &str = concat!(
            r#"{"nodes":[{"point":[0.3333333333333333,0.16666666666666666,-0.3333333333333333],"#,
            r#""axis":0,"left":1,"right":3},{"point":[0,0.6666666666666666,0.6666666666666666],"#,
            r#""axis":1,"left":2,"right":null},{"point":[0.3333333333333333,0.16666666666666666,"#,
            r#"-0.3333333333333333],"axis":2,"left":null,"right":null},{"point":[1,"#,
            r#"-0.3333333333333333,0.6666666666666666],"axis":1,"left":null,"right":null}],"#,
            r#""root":0,"scales":[1.5,1.5,3],"threshold":3.5}"#
        );
        let r = ValidRegion::build(
            &[
                [0.0, 1.0, 2.0],
                [1.5, -0.5, 2.0],
                [0.5, 0.25, -1.0],
                [0.5, 0.25, -1.0],
            ],
            3.0,
        );
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(json, CACHE);
        let back: ValidRegion = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r, "boxes are rebuilt on load");
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for probe in [
            q(0.0, 0.0, 0.0),
            q(0.5, 0.25, -1.0),
            q(9.0, -9.0, 9.0),
            q(1.5, -0.5, 2.1),
            q(-3.0, 1.0, 2.0),
        ] {
            assert_eq!(
                bits(back.project(probe)),
                bits(r.project(probe)),
                "{probe:?}"
            );
            assert_eq!(back.contains(&probe), r.contains(&probe), "{probe:?}");
        }
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let region = |nodes: &str| {
            format!(r#"{{"nodes":[{nodes}],"root":0,"scales":[1,1,1],"threshold":1}}"#)
        };
        let leaf = r#"{"point":[0,0,0],"axis":0,"left":null,"right":null}"#;
        for bad in [
            r#"{"nodes":[],"root":null,"scales":[1,1,1],"threshold":1}"#.to_string(),
            format!(r#"{{"nodes":[{leaf}],"root":null,"scales":[1,1,1],"threshold":1}}"#),
            region(r#"{"point":[0,0,0],"axis":0,"left":0,"right":null}"#),
            region(&format!(
                r#"{{"point":[0,0,0],"axis":0,"left":null,"right":2}},{leaf}"#
            )),
            region(r#"{"point":[0,0,0],"axis":3,"left":null,"right":null}"#),
        ] {
            assert!(serde_json::from_str::<ValidRegion>(&bad).is_err(), "{bad}");
        }
        assert!(serde_json::from_str::<ValidRegion>(&region(leaf)).is_ok());
    }

    proptest! {
        #[test]
        fn box_search_matches_reference_search(seed in 0u64..u64::MAX) {
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
                    // Near, off or far off the cloud, inside or outside
                    // the threshold.
                    _ => {
                        let spread = [0.05, 0.5, 5.0, 500.0][rng.gen_range(0..4usize)];
                        [0, 1, 2].map(|i| base[i] + rng.gen_range(-spread..spread))
                    }
                };
                let query = q(t, a, p);
                let norm = r.normalize(&query);
                let (d2, node) = r.nearest(norm);
                let mut reference = (f64::INFINITY, f64::INFINITY, None);
                r.tree.search(r.tree.root, norm, &mut reference);
                prop_assert_eq!(d2.to_bits(), reference.0.to_bits(), "{:?}", query);
                prop_assert!(
                    node.map(|i| r.tree.nodes[i].point.map(f64::to_bits))
                        == reference.2.map(|p| p.map(f64::to_bits)),
                    "{query:?}: box search node {node:?} vs reference point {:?}",
                    reference.2
                );
                let projected = r.project(query);
                let expected = reference_project(&r, query);
                prop_assert!(
                    bits(projected) == bits(expected),
                    "{query:?}: box search {projected:?} vs reference {expected:?}"
                );
                prop_assert_eq!(
                    r.contains(&query),
                    reference.0.sqrt() <= r.tree.threshold,
                    "{:?}",
                    query
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
            let (d, _) = r.tree.two_nearest(norm);
            let (d2, _) = r.nearest(norm);
            // Brute force in the same normalized space.
            let s = r.tree.scales;
            let brute = pts
                .iter()
                .map(|p| dist2([p[0] / s[0], p[1] / s[1], p[2] / s[2]], norm).sqrt())
                .fold(f64::INFINITY, f64::min);
            prop_assert!((d - brute).abs() < 1e-9, "kd {d} vs brute {brute}");
            prop_assert!((d2.sqrt() - brute).abs() < 1e-9, "box kd {d2} vs brute {brute}");
        }
    }
}
