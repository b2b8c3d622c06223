//! Valid-region containment (Sec. IV-B).
//!
//! ANNs behave arbitrarily outside their training set, and prediction
//! errors amplify along gate chains. The paper computes the *concave hull*
//! of the 3-D training inputs and projects out-of-region queries onto it.
//! Concave hulls are not uniquely defined (the paper cites Moreira &
//! Santos' k-nearest-neighbour construction); we use the equivalent
//! kNN-distance membership test: a query is *inside* if its distance to the
//! nearest training point is within a data-derived threshold, and
//! projection snaps the query to the nearest training point. The points
//! are stored in a kd-tree (the cache format) and searched through
//! buckets whose leaves of at most [`LEAF_POINTS`] points a SIMD kernel
//! scans.

use serde::{Deserialize, Error, Serialize, Value};
use signn::simd::{self, SimdLevel, LEAF_POINTS};

use crate::memo::{LineMemo, Lookup};
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
/// model cache format; the search buckets are derived from them on load.
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

/// Children of an inner bucket: the parts of three median halvings.
const FANOUT: usize = 8;

/// The training points regrouped for the nearest search. Buckets split at
/// the median of their widest axis down to leaves of at most
/// [`LEAF_POINTS`] points; an inner bucket holds the parts of three such
/// halvings (at most [`FANOUT`]) with their tight bounding boxes, so the
/// search orders its children in one pass. The leaves store their points
/// as structure of arrays, contiguous per leaf, for
/// [`simd::leaf_nearest_soa`].
#[derive(Debug, Clone, PartialEq)]
struct Buckets {
    /// The bucket holding every point.
    root: Bucket,
    inner: Vec<Inner>,
    /// The point range `start..end` of each leaf.
    leaves: Vec<(usize, usize)>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    /// The kd-tree node index of each leaf point.
    ids: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Bucket {
    Inner(usize),
    Leaf(usize),
}

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    /// The tight bounding boxes of the children, axis by axis: child `k`'s
    /// points lie in `lo[axis][k]..=hi[axis][k]`.
    lo: [[f64; FANOUT]; 3],
    hi: [[f64; FANOUT]; 3],
    /// Slots from `len` on are unused.
    children: [Bucket; FANOUT],
    len: usize,
}

impl Inner {
    /// The squared distance from `q` to each child's box; NaN for the
    /// unused slots.
    fn box_dist2(&self, q: Point) -> [f64; FANOUT] {
        let mut d2 = [0.0; FANOUT];
        for (k, d2) in d2.iter_mut().enumerate() {
            let corner = |c: &[[f64; FANOUT]; 3]| [c[0][k], c[1][k], c[2][k]];
            *d2 = box_dist2(&[corner(&self.lo), corner(&self.hi)], q);
        }
        d2[self.len..].fill(f64::NAN);
        d2
    }
}

/// The outcome of a bucket search: the minimum squared distance, how many
/// points reach it, the node of the first one found, and a lower bound on
/// the squared distance of every other point.
struct Scan {
    d2: f64,
    ties: usize,
    node: u32,
    /// If asked for: no point but the ones at `d2` is nearer. The least
    /// of the other distances computed and the box distances of the
    /// pruned buckets.
    runner_up: Option<f64>,
}

/// The answer of a nearest search.
struct Nearest {
    /// The minimum squared distance.
    d2: f64,
    /// The node at `d2`; `None` only when no distance is finite.
    node: Option<usize>,
    /// If asked for and one node is at `d2`, a lower bound on the squared
    /// distance of every other node.
    runner_up: Option<f64>,
}

/// The valid input region of a trained transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidRegion {
    tree: KdTree,
    /// The tree's points in search buckets. Derived from the tree when a
    /// region is built or loaded, never serialized.
    buckets: Buckets,
    /// The largest magnitude of each normalized coordinate over the
    /// points, which bounds the rounding of a distance (see
    /// [`ValidRegion::snap_node`]). Derived like `buckets`.
    extent: Point,
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

    /// Derives the search buckets of a tree. Rejects a tree that is not
    /// the preorder layout [`ValidRegion::build`] writes, so the buckets
    /// hold exactly the nodes [`KdTree::search`] reaches from the root.
    fn from_tree(tree: KdTree) -> Result<Self, Error> {
        let n = tree.nodes.len();
        if n == 0 || tree.root != Some(0) {
            return Err(Error::new("valid region: empty tree or root not at node 0"));
        }
        if u32::try_from(n).is_err() {
            return Err(Error::new(format!("valid region: {n} points")));
        }
        let mut parents = vec![0u8; n];
        for (i, node) in tree.nodes.iter().enumerate() {
            if node.axis >= 3 {
                return Err(Error::new(format!(
                    "valid region: node {i} splits axis {}",
                    node.axis
                )));
            }
            for child in [node.left, node.right].into_iter().flatten() {
                if child <= i || child >= n {
                    return Err(Error::new(format!(
                        "valid region: node {i} has child {child} outside preorder"
                    )));
                }
                parents[child] = parents[child].saturating_add(1);
            }
        }
        // Every parent precedes its child, so one parent per node below the
        // root links each node to the root.
        if let Some(i) = (1..n).find(|&i| parents[i] != 1) {
            return Err(Error::new(format!(
                "valid region: node {i} has {} parents",
                parents[i]
            )));
        }
        let buckets = Buckets::build(&tree.nodes);
        let mut extent = [0.0f64; 3];
        for node in &tree.nodes {
            for (e, c) in extent.iter_mut().zip(node.point) {
                *e = e.max(c.abs());
            }
        }
        Ok(Self {
            tree,
            buckets,
            extent,
        })
    }

    /// The node nearest to `q` (normalized space), its squared distance
    /// and, if `runner_up` asks for it, a runner-up bound; no node only
    /// when no distance is finite (a query with a NaN or infinite
    /// coordinate).
    ///
    /// Exact, and the node [`KdTree::search`] finds: the bucket search
    /// computes every distance with the same bits and misses no point at
    /// the minimum, so a minimum reached by one point names that point.
    /// When several points reach it, the reference search breaks the tie.
    fn closest(&self, q: Point, runner_up: bool) -> Nearest {
        let scan = self.buckets.scan(q, simd::active_level(), runner_up);
        if scan.ties == 1 && scan.d2 < f64::INFINITY {
            return Nearest {
                d2: scan.d2,
                node: Some(scan.node as usize),
                runner_up: scan.runner_up,
            };
        }
        let mut best = (f64::INFINITY, f64::INFINITY, None);
        self.tree.search(self.tree.root, q, &mut best);
        Nearest {
            d2: best.0,
            node: best.2,
            runner_up: None,
        }
    }

    fn normalize(&self, q: &TransferQuery) -> Point {
        let s = self.tree.scales;
        [q.t / s[0], q.a_in / s[1], q.a_prev_out / s[2]]
    }

    /// `true` if the query lies inside the valid region.
    #[must_use]
    pub fn contains(&self, query: &TransferQuery) -> bool {
        self.closest(self.normalize(query), false).d2.sqrt() <= self.tree.threshold
    }

    /// The node a query outside the region snaps to, or `None` for a
    /// query inside it, and whether `memo` answered without a search. One
    /// search (or one memo lookup) yields both the membership distance and
    /// the snap target; with or without a memo the answer is the same,
    /// bit for bit.
    ///
    /// A line is the query's (`a_in`, `a_prev_out`) bits: y and z are
    /// fixed and x grows with `t`. For points p and r, the exact
    /// `D(r) − D(p)` of squared distances is linear in x along a line.
    /// The rounded distance of [`dist2`] is within `err` of the exact one,
    /// with `err` < 0.63·[`ValidRegion::margin`] for every point and
    /// every x with |x| ≤ `extent[0]`. A search is *certified* when one
    /// node p is at the minimum and every other point is more than
    /// 4·margin farther: then `D(r) − D(p) > 2.7·margin` there. Between
    /// two certified searches on one line that both name p, linearity
    /// keeps `D(r) − D(p) > 2.7·margin`, so every rounded distance keeps
    /// p the unique minimum and the search would name p with the bits of
    /// `dist2(p, q)`. The memo stores such brackets; a row inside one
    /// recomputes that distance and the threshold test, nothing else.
    /// Rows with a non-finite coordinate bypass the memo.
    ///
    /// Inlined: the batched row loop calls it once per row, and as an
    /// out-of-line call it made a warm c1355 execute ~8% slower.
    ///
    /// # Panics
    ///
    /// Panics on a query with a NaN or infinite coordinate.
    #[inline]
    pub(crate) fn snap_node(
        &self,
        query: &TransferQuery,
        memo: Option<&mut LineMemo>,
    ) -> (Option<usize>, bool) {
        let q = self.normalize(query);
        let Some(memo) = memo.filter(|_| q.iter().all(|c| c.is_finite())) else {
            let nearest = self.closest(q, false);
            return (self.snap_of(nearest.d2, nearest.node), false);
        };
        let key = [query.a_in.to_bits(), query.a_prev_out.to_bits()];
        let gap = match memo.lookup(key, q[0]) {
            Lookup::Hit(node) => {
                let d2 = dist2(self.tree.nodes[node].point, q);
                return (self.snap_of(d2, Some(node)), true);
            }
            Lookup::Miss(gap) => gap,
        };
        let nearest = self.closest(q, q[0].abs() <= self.extent[0]);
        if let (Some(node), Some(runner_up)) = (nearest.node, nearest.runner_up) {
            if runner_up - nearest.d2 > 4.0 * self.margin(q) {
                memo.learn(key, gap, q[0], node);
            }
        }
        (self.snap_of(nearest.d2, nearest.node), false)
    }

    /// The membership test and snap target of a nearest node at squared
    /// distance `d2`.
    fn snap_of(&self, d2: f64, node: Option<usize>) -> Option<usize> {
        if d2.sqrt() <= self.tree.threshold {
            return None;
        }
        Some(node.expect("query coordinates are finite"))
    }

    /// 8·2⁻⁵³ times a bound on any squared distance from a point to `q`'s
    /// line while |x| ≤ `extent[0]` (each axis difference is at most the
    /// point's and the query's magnitudes together), plus a term for
    /// underflow. The five roundings a squared axis gap meets in [`dist2`]
    /// cost under 5.01·2⁻⁵³ of the distance, so this bounds its rounding
    /// with slack.
    fn margin(&self, q: Point) -> f64 {
        let e = self.extent;
        let reach = [2.0 * e[0], e[1] + q[1].abs(), e[2] + q[2].abs()];
        4.0 * f64::EPSILON * (reach[0] * reach[0] + reach[1] * reach[1] + reach[2] * reach[2])
            + f64::MIN_POSITIVE
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
        match self.snap_node(&query, None).0 {
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
        let mut best = (f64::INFINITY, f64::INFINITY, None);
        self.search(self.root, q, &mut best);
        (best.0.sqrt(), best.1.sqrt())
    }

    /// Two-nearest search pruned by the splitting plane alone: the
    /// squared distances and the node of the nearest, the first node in
    /// depth-first order (near child first) at the minimum distance.
    /// Besides the spacing estimate it breaks the ties of
    /// [`ValidRegion::closest`] and is the reference that search is
    /// tested against.
    fn search(&self, node: Option<usize>, q: Point, best: &mut (f64, f64, Option<usize>)) {
        let Some(i) = node else { return };
        let n = &self.nodes[i];
        let d2 = dist2(n.point, q);
        if d2 < best.0 {
            best.1 = best.0;
            best.0 = d2;
            best.2 = Some(i);
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

impl Buckets {
    fn build(nodes: &[KdNode]) -> Self {
        let n = nodes.len();
        let mut buckets = Self {
            root: Bucket::Leaf(0),
            inner: Vec::new(),
            leaves: Vec::new(),
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            zs: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
        };
        let mut ids: Vec<u32> = (0..n as u32).collect();
        buckets.root = buckets.bucket(nodes, &mut ids);
        buckets
    }

    /// Appends the bucket of `ids` and its descendants.
    fn bucket(&mut self, nodes: &[KdNode], ids: &mut [u32]) -> Bucket {
        if ids.len() <= LEAF_POINTS {
            let start = self.ids.len();
            for &id in ids.iter() {
                let [x, y, z] = nodes[id as usize].point;
                self.xs.push(x);
                self.ys.push(y);
                self.zs.push(z);
                self.ids.push(id);
            }
            self.leaves.push((start, self.ids.len()));
            return Bucket::Leaf(self.leaves.len() - 1);
        }
        let mut parts = vec![ids];
        for _ in 0..FANOUT.ilog2() {
            parts = parts
                .into_iter()
                .flat_map(|part| halve(nodes, part))
                .collect();
        }
        let slot = self.inner.len();
        self.inner.push(Inner {
            lo: [[0.0; FANOUT]; 3],
            hi: [[0.0; FANOUT]; 3],
            children: [Bucket::Leaf(0); FANOUT],
            len: parts.len(),
        });
        for (k, part) in parts.into_iter().enumerate() {
            let [lo, hi] = bounds_of(nodes, part);
            let child = self.bucket(nodes, part);
            let inner = &mut self.inner[slot];
            for axis in 0..3 {
                inner.lo[axis][k] = lo[axis];
                inner.hi[axis][k] = hi[axis];
            }
            inner.children[k] = child;
        }
        Bucket::Inner(slot)
    }

    /// Finds the minimum squared distance from `q` and counts the points
    /// at it, scanning leaves at `level`. Visits the children of a bucket
    /// nearest box first, and skips a child only when its box is strictly
    /// farther than the best distance so far, so every point at the
    /// minimum is counted. With `runner_up`, the runner-up bound comes at
    /// no extra visit: a point not scanned lies in a skipped box, whose
    /// distance never exceeds the point's ([`box_dist2`]).
    fn scan(&self, q: Point, level: SimdLevel, runner_up: bool) -> Scan {
        let mut best = Scan {
            d2: f64::INFINITY,
            ties: 0,
            node: 0,
            runner_up: runner_up.then_some(f64::INFINITY),
        };
        self.visit(self.root, q, level, &mut best);
        best
    }

    fn visit(&self, bucket: Bucket, q: Point, level: SimdLevel, best: &mut Scan) {
        match bucket {
            Bucket::Leaf(leaf) => {
                let (start, end) = self.leaves[leaf];
                let (xs, ys, zs) = (
                    &self.xs[start..end],
                    &self.ys[start..end],
                    &self.zs[start..end],
                );
                let runner_up = best.runner_up.is_some();
                let leaf = simd::leaf_nearest_soa(level, xs, ys, zs, q, best.d2, runner_up);
                if leaf.d2 < best.d2 {
                    *best = Scan {
                        d2: leaf.d2,
                        ties: leaf.ties,
                        node: self.ids[start + leaf.index],
                        runner_up: best.runner_up.map(|r| r.min(best.d2).min(leaf.above)),
                    };
                } else {
                    best.ties += leaf.ties;
                    if let Some(r) = &mut best.runner_up {
                        *r = r.min(leaf.d2);
                    }
                }
            }
            Bucket::Inner(inner) => {
                let inner = &self.inner[inner];
                // A visited child's distance becomes NaN, which `<` never
                // picks again.
                let mut d2 = inner.box_dist2(q);
                loop {
                    let (mut next, mut next_d2) = (None, f64::INFINITY);
                    for (k, &d2) in d2.iter().enumerate() {
                        if d2 < next_d2 {
                            (next, next_d2) = (Some(k), d2);
                        }
                    }
                    // The rest are no nearer than `next`.
                    let Some(k) = next.filter(|_| next_d2 <= best.d2) else {
                        if let Some(r) = &mut best.runner_up {
                            *r = r.min(next_d2);
                        }
                        return;
                    };
                    d2[k] = f64::NAN;
                    self.visit(inner.children[k], q, level, best);
                }
            }
        }
    }
}

/// Splits a part at the median of its box's widest axis; a part of at
/// most [`LEAF_POINTS`] points stays whole.
fn halve<'a>(nodes: &[KdNode], ids: &'a mut [u32]) -> Vec<&'a mut [u32]> {
    if ids.len() <= LEAF_POINTS {
        return vec![ids];
    }
    let [lo, hi] = bounds_of(nodes, ids);
    let width = |axis: usize| hi[axis] - lo[axis];
    let axis = (1..3).fold(0, |w, a| if width(a) > width(w) { a } else { w });
    let point = |id: &u32| nodes[*id as usize].point[axis];
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |a, b| point(a).total_cmp(&point(b)));
    let (low, high) = ids.split_at_mut(mid);
    vec![low, high]
}

/// The tight bounding box `[lo, hi]` of the nodes `ids`.
fn bounds_of(nodes: &[KdNode], ids: &[u32]) -> [Point; 2] {
    let mut bounds = [nodes[ids[0] as usize].point; 2];
    for &id in ids {
        for (axis, &c) in nodes[id as usize].point.iter().enumerate() {
            bounds[0][axis] = bounds[0][axis].min(c);
            bounds[1][axis] = bounds[1][axis].max(c);
        }
    }
    bounds
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

    /// The reference search: the squared distance and node of the
    /// nearest point from the two-nearest kd-tree search.
    fn reference(r: &ValidRegion, query: &TransferQuery) -> (f64, Option<usize>) {
        let mut best = (f64::INFINITY, f64::INFINITY, None);
        r.tree.search(r.tree.root, r.normalize(query), &mut best);
        (best.0, best.2)
    }

    /// The reference projection: membership and snap target from the
    /// reference search.
    fn reference_project(r: &ValidRegion, query: TransferQuery) -> TransferQuery {
        let (d2, node) = reference(r, &query);
        if d2.sqrt() <= r.tree.threshold {
            return query;
        }
        let p = r.tree.nodes[node.expect("tree non-empty")].point;
        let s = r.tree.scales;
        q(p[0] * s[0], p[1] * s[1], p[2] * s[2])
    }

    /// The leaf bucket holding kd-tree node `node`.
    fn leaf_of(r: &ValidRegion, node: usize) -> usize {
        let b = &r.buckets;
        let at = b.ids.iter().position(|&id| id as usize == node).unwrap();
        b.leaves
            .iter()
            .position(|&(start, end)| (start..end).contains(&at))
            .unwrap()
    }

    fn bits(q: TransferQuery) -> [u64; 3] {
        [q.t, q.a_in, q.a_prev_out].map(f64::to_bits)
    }

    #[test]
    fn serializes_to_the_cache_format_and_round_trips() {
        // The exact bytes this region (with a duplicate point) serialized
        // to before regions carried search structures: model cache files
        // must not change.
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
        assert_eq!(back, r, "buckets are rebuilt on load");
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
            // An orphan node, and a node with two parents.
            region(&format!("{leaf},{leaf}")),
            region(&format!(
                r#"{{"point":[0,0,0],"axis":0,"left":1,"right":1}},{leaf}"#
            )),
        ] {
            assert!(serde_json::from_str::<ValidRegion>(&bad).is_err(), "{bad}");
        }
        assert!(serde_json::from_str::<ValidRegion>(&region(leaf)).is_ok());
        assert!(serde_json::from_str::<ValidRegion>(&region(&format!(
            r#"{{"point":[0,0,0],"axis":0,"left":null,"right":1}},{leaf}"#
        )))
        .is_ok());
    }

    #[test]
    fn buckets_cover_every_point_once_within_their_boxes() {
        // 500 points: an inner root over 8 leaves of 62 or 63.
        let r = ValidRegion::build(&grid(), 3.0);
        let b = &r.buckets;
        let mut seen = vec![0; r.len()];
        for &(start, end) in &b.leaves {
            assert!((1..=LEAF_POINTS).contains(&(end - start)));
            for i in start..end {
                seen[b.ids[i] as usize] += 1;
                assert_eq!(
                    [b.xs[i], b.ys[i], b.zs[i]],
                    r.tree.nodes[b.ids[i] as usize].point
                );
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
        assert_eq!(
            (b.root, b.inner.len(), b.leaves.len()),
            (Bucket::Inner(0), 1, 8)
        );
        let root = &b.inner[0];
        for (k, child) in root.children.iter().enumerate().take(root.len) {
            let Bucket::Leaf(leaf) = *child else {
                panic!("{child:?}")
            };
            let (start, end) = b.leaves[leaf];
            let [lo, hi] = bounds_of(&r.tree.nodes, &b.ids[start..end]);
            assert_eq!([0, 1, 2].map(|a| root.lo[a][k]), lo);
            assert_eq!([0, 1, 2].map(|a| root.hi[a][k]), hi);
            for i in start..end {
                assert_eq!(root.box_dist2([b.xs[i], b.ys[i], b.zs[i]])[k], 0.0);
            }
        }
    }

    #[test]
    fn a_tie_across_leaves_returns_the_reference_node() {
        // 257 points on the t axis, spread 256, so normalized coordinates
        // are exact and a query halfway between two neighbours ties.
        let pts: Vec<[f64; 3]> = (0..=256).map(|i| [f64::from(i), 0.0, 0.0]).collect();
        let r = ValidRegion::build(&pts, 0.1);
        let mut tied_across_leaves = 0;
        for i in 0..256 {
            let query = q(f64::from(i) + 0.5, 0.0, 0.0);
            let norm = r.normalize(&query);
            let scan = r.buckets.scan(norm, SimdLevel::Scalar, false);
            assert_eq!(scan.ties, 2, "{query:?}");
            let Nearest { d2, node, .. } = r.closest(norm, false);
            assert_eq!(d2.to_bits(), scan.d2.to_bits());
            assert_eq!((d2, node), reference(&r, &query), "{query:?}");
            let pair = [i, i + 1].map(|p| {
                r.tree
                    .nodes
                    .iter()
                    .position(|n| n.point == [f64::from(p) / 256.0, 0.0, 0.0])
            });
            assert!(pair.contains(&node), "{query:?}: {node:?} vs {pair:?}");
            if leaf_of(&r, pair[0].unwrap()) != leaf_of(&r, pair[1].unwrap()) {
                tied_across_leaves += 1;
            }
        }
        assert!(tied_across_leaves >= 3, "{tied_across_leaves}");
    }

    proptest! {
        #[test]
        fn bucket_search_matches_reference_search(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Points on an integer grid, coarse enough that repeated points
            // and equidistant neighbours (tied distances) are common.
            let steps = [4u32, 8, 32][rng.gen_range(0..3usize)];
            let grid = |rng: &mut rand::rngs::StdRng| -> [f64; 3] {
                [0, 1, 2].map(|_| f64::from(rng.gen_range(0..steps)) * 0.5)
            };
            // Up to 400 points fill one inner bucket's leaves; 1,500 nest
            // inner buckets.
            let count = [40, 400, 1500][rng.gen_range(0..3usize)];
            let mut pts: Vec<[f64; 3]> =
                (0..rng.gen_range(1..count)).map(|_| grid(&mut rng)).collect();
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
                let Nearest { d2, node, .. } = r.closest(r.normalize(&query), false);
                let (ref_d2, ref_node) = reference(&r, &query);
                prop_assert_eq!(d2.to_bits(), ref_d2.to_bits(), "{:?}", query);
                prop_assert_eq!(node, ref_node, "{:?}", query);
                // With one point at the minimum, the runner-up bound
                // never exceeds another point's distance, at every level.
                let norm = r.normalize(&query);
                for level in SimdLevel::available() {
                    let scan = r.buckets.scan(norm, level, true);
                    if scan.ties != 1 {
                        continue;
                    }
                    let runner_up = scan.runner_up.expect("asked for");
                    let others = r
                        .tree
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != scan.node as usize)
                        .map(|(_, n)| dist2(n.point, norm))
                        .fold(f64::INFINITY, f64::min);
                    prop_assert!(
                        runner_up <= others,
                        "{:?} at {:?}: runner-up {} over {}",
                        query,
                        level,
                        runner_up,
                        others
                    );
                }
                let projected = r.project(query);
                let expected = reference_project(&r, query);
                prop_assert!(
                    bits(projected) == bits(expected),
                    "{query:?}: bucket search {projected:?} vs reference {expected:?}"
                );
                prop_assert_eq!(
                    r.contains(&query),
                    ref_d2.sqrt() <= r.tree.threshold,
                    "{:?}",
                    query
                );
            }
        }

        #[test]
        fn nearest_matches_brute_force(
            pts in proptest::collection::vec(
                proptest::array::uniform3(-10.0..10.0f64), 1..200),
            probe in proptest::array::uniform3(-15.0..15.0f64),
        ) {
            let r = ValidRegion::build(&pts, 3.0);
            let query = q(probe[0], probe[1], probe[2]);
            let norm = r.normalize(&query);
            let (d, _) = r.tree.two_nearest(norm);
            let d2 = r.closest(norm, false).d2;
            // Brute force in the same normalized space.
            let s = r.tree.scales;
            let brute = pts
                .iter()
                .map(|p| dist2([p[0] / s[0], p[1] / s[1], p[2] / s[2]], norm).sqrt())
                .fold(f64::INFINITY, f64::min);
            prop_assert!((d - brute).abs() < 1e-9, "kd {d} vs brute {brute}");
            prop_assert!((d2.sqrt() - brute).abs() < 1e-9, "bucket {d2} vs brute {brute}");
        }
    }
}
