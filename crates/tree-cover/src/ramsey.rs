//! Ramsey tree covers for general metrics (the \[MN06\] row of Table 1).
//!
//! A *Ramsey* tree cover assigns every point a **home tree** in which its
//! stretch to *every* other point is at most γ — this is what gives the
//! O(1) tree-selection step of Theorem 1.2 and the constant-decision-time
//! routing of Theorem 1.3 in general metrics.
//!
//! Construction (randomized; see DESIGN.md §4 for the substitution note):
//! repeat building hierarchical random ball-carving partitions (CKR-style)
//! of the whole point set into an HST; the points that are *padded* at
//! every scale have stretch `O(ℓ)` to everyone in that HST and adopt it as
//! their home tree; strip them and repeat. With padding parameter
//! `Δ_t/(8ℓ)`, an expected `≈ n^{-1/ℓ}` fraction is padded per round,
//! giving `ζ = Õ(ℓ·n^{1/ℓ})` trees. A star-tree fallback guarantees
//! termination.
//!
//! # Cost
//!
//! One all-pairs scan per cover fixes the exact extent (`δ_min`, `δ_max`,
//! which set every scale) and rejects bad or duplicate distances; every
//! HST attempt — γ doubling makes about 20 per cover at n = 4096 — reuses
//! it. An attempt then costs, per scale, a shuffle and two local steps,
//! each making exactly the decisions of the all-pairs definition:
//!
//! * **Carving in rank order.** Point `x` joins the lowest-ranked point
//!   of its cluster within `radius` (itself if none ranks lower). The
//!   cluster is laid out in rank order once per scale (a counting pass
//!   over the permutation), so the scan for `x` stops at the first point
//!   within `radius` or on reaching `x`'s own rank; that first point *is*
//!   the minimum. A center→slot array replaces the search for the group.
//! * **Padding inside the cluster.** `x` stays padded while no point `y`
//!   of another group lies within `pad_r = Δ/(8γ)`. Only `x`'s own
//!   cluster can hold such a `y`: at the previous scale `2Δ`, `x` passed
//!   the check with a radius `≥ pad_r` (`Δ` is the previous scale halved,
//!   and rounding is monotone), so every point within `pad_r` of `x`
//!   joined `x`'s group there, which is `x`'s cluster now; at the top
//!   scale the cluster is everything. The argument uses only that `dist`
//!   is a fixed function, not the triangle inequality, so it holds for
//!   every [`Metric`]. Groups are compared through a group-id array.
//!
//!   For low-dimensional Euclidean inputs
//!   ([`Metric::euclidean_coords`]) large clusters bucket their points
//!   into cells of side `pad_r`, widened by a relative slack of 10⁻⁹ plus
//!   eight ulps of the coordinate extent. That slack covers the rounding
//!   of both the cell index and `dist`, so every `y` with
//!   `dist(x, y) ≤ pad_r` lies in one of the 3^d cells around `x`'s;
//!   each candidate is still decided by `dist(x, y) ≤ pad_r`.
//!
//! The rng is consumed exactly as by the all-pairs definition (one
//! shuffle and one `gen` per scale), so covers are bit-identical to it —
//! `tests/ramsey_pins.rs` pins them. Attempts that γ doubling rejects are
//! never finished into trees. What remains quadratic is the one extent
//! scan.

use std::time::{Duration, Instant};

use hopspan_metric::Metric;
use hopspan_pipeline::BuildStats;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::cover::{scan_extent, Extent, TreeAssembler};
use crate::{CoverError, DominatingTree, TreeCover};

/// A Ramsey `(O(ℓ), Õ(ℓ·n^{1/ℓ}))`-tree cover with per-point home trees.
///
/// # Examples
///
/// ```
/// use hopspan_metric::gen;
/// use hopspan_tree_cover::RamseyTreeCover;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let m = gen::random_bounded_metric(12, &mut rng);
/// let cover = RamseyTreeCover::new(&m, 2, &mut rng)?;
/// // Every point has a home tree covering all its pairs.
/// assert!(cover.home(5) < cover.tree_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RamseyTreeCover {
    cover: TreeCover,
    home: Vec<usize>,
    ell: usize,
}

impl RamseyTreeCover {
    /// Builds the cover with trade-off parameter `ell ≥ 1` using `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Empty`] for an empty metric,
    /// [`CoverError::InvalidParameter`] for `ell = 0`,
    /// [`CoverError::BadDistance`] for a NaN, infinite or negative
    /// distance and [`CoverError::DuplicatePoints`] for coinciding points.
    pub fn new<M: Metric, R: Rng>(metric: &M, ell: usize, rng: &mut R) -> Result<Self, CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        if ell == 0 {
            return Err(CoverError::InvalidParameter {
                what: "ell must be >= 1",
            });
        }
        let mut carver = Carver::new(metric, scan_extent(metric)?);
        if n == 1 {
            return Ok(RamseyTreeCover::single(ell));
        }
        let mut home = vec![usize::MAX; n];
        let mut trees = Vec::new();
        let mut unassigned: Vec<usize> = (0..n).collect();
        while !unassigned.is_empty() {
            let (hst, padded) = carver.build_hst(ell as f64, rng, &unassigned);
            if padded.is_empty() {
                // Fallback: a star tree homes one point with stretch 1.
                let center = unassigned[0];
                let mut asm = TreeAssembler::new();
                let root = asm.add(center);
                for p in 0..n {
                    let leaf = asm.add(p);
                    asm.attach(leaf, root, metric.dist(center, p).max(f64::MIN_POSITIVE));
                }
                // The center also needs a leaf: it got one in the loop
                // above with weight ~0 (distance to itself clamped to a
                // tiny positive weight keeps domination trivially true).
                let t = asm.finish(root, n);
                home[center] = trees.len();
                trees.push(t);
                unassigned.retain(|&p| p != center);
                continue;
            }
            let idx = trees.len();
            for &p in &padded {
                home[p] = idx;
            }
            trees.push(hst.finish(n));
            unassigned.retain(|&p| home[p] == usize::MAX);
        }
        Ok(RamseyTreeCover {
            cover: TreeCover::new(trees),
            home,
            ell,
        })
    }

    /// The one-tree cover of a single point.
    fn single(ell: usize) -> Self {
        let mut asm = TreeAssembler::new();
        let leaf = asm.add(0);
        RamseyTreeCover {
            cover: TreeCover::new(vec![asm.finish(leaf, 1)]),
            home: vec![0],
            ell,
        }
    }

    /// Consumes the cover wrapper and returns the underlying tree cover.
    pub fn into_cover(self) -> TreeCover {
        self.cover
    }

    /// Builds a Ramsey cover with **at most** `budget ≥ 1` trees — the
    /// second general-metric trade-off of Table 1
    /// (γ = O(n^{1/ℓ}·log^{1-1/ℓ}n) with ζ = ℓ trees): each round doubles
    /// its padding parameter until enough points adopt the round's HST as
    /// their home tree, and the last round pads everyone.
    ///
    /// Returns the cover together with the largest padding parameter γ
    /// used (the realized stretch is ≤ 32γ, reported for experiments).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RamseyTreeCover::new`].
    pub fn with_tree_budget<M: Metric, R: Rng>(
        metric: &M,
        budget: usize,
        rng: &mut R,
    ) -> Result<(Self, f64), CoverError> {
        Self::with_tree_budget_with_stats(metric, budget, rng).map(|(c, gamma, _)| (c, gamma))
    }

    /// Like [`RamseyTreeCover::with_tree_budget`], with the build
    /// telemetry returned alongside: phases `cover/extent` (the all-pairs
    /// scan), `cover/pad` (the padding checks of every HST attempt) and
    /// `cover/carve` (everything else: permutations, ball carving, tree
    /// assembly), and the count `cover/hst_builds` (HSTs built, γ retries
    /// included).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RamseyTreeCover::new`].
    pub fn with_tree_budget_with_stats<M: Metric, R: Rng>(
        metric: &M,
        budget: usize,
        rng: &mut R,
    ) -> Result<(Self, f64, BuildStats), CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        if budget == 0 {
            return Err(CoverError::InvalidParameter {
                what: "budget must be >= 1",
            });
        }
        let started = Instant::now();
        let mut stats = BuildStats::new(1);
        let extent = stats.phase("cover/extent", || scan_extent(metric))?;
        let mut carver = Carver::new(metric, extent);
        if n == 1 {
            return Ok((RamseyTreeCover::single(budget), 1.0, stats));
        }
        let mut home = vec![usize::MAX; n];
        let mut trees = Vec::new();
        let mut unassigned: Vec<usize> = (0..n).collect();
        let mut gamma_max = 1.0f64;
        for round in 0..budget {
            if unassigned.is_empty() {
                break;
            }
            let remaining_rounds = budget - round;
            let u = unassigned.len();
            // Home at least u - u^{(r-1)/r} points this round (everyone in
            // the last round), doubling γ until the padding succeeds.
            let keep_next = if remaining_rounds == 1 {
                0usize
            } else {
                (u as f64)
                    .powf((remaining_rounds - 1) as f64 / remaining_rounds as f64)
                    .floor() as usize
            };
            let needed = u - keep_next.min(u.saturating_sub(1));
            let mut gamma = 1.0f64;
            let (hst, padded) = loop {
                let (hst, padded) = carver.build_hst(gamma, rng, &unassigned);
                if padded.len() >= needed || gamma > 64.0 * n as f64 {
                    break (hst, padded);
                }
                gamma *= 2.0;
            };
            gamma_max = gamma_max.max(gamma);
            let idx = trees.len();
            for &p in &padded {
                home[p] = idx;
            }
            trees.push(hst.finish(n));
            unassigned.retain(|&p| home[p] == usize::MAX);
        }
        debug_assert!(
            unassigned.is_empty(),
            "a large enough padding parameter pads every point"
        );
        let rest = started
            .elapsed()
            .saturating_sub(stats.total_duration() + carver.pad_time);
        stats.record_phase("cover/carve", rest);
        stats.record_phase("cover/pad", carver.pad_time);
        stats.record_count("cover/hst_builds", carver.hst_builds);
        Ok((
            RamseyTreeCover {
                cover: TreeCover::new(trees),
                home,
                ell: budget,
            },
            gamma_max,
            stats,
        ))
    }

    /// The underlying tree cover.
    #[inline]
    pub fn cover(&self) -> &TreeCover {
        &self.cover
    }

    /// The home tree of point `p` — stretch to every other point is
    /// `O(ℓ)` in this tree.
    #[inline]
    pub fn home(&self, p: usize) -> usize {
        self.home[p]
    }

    /// The trade-off parameter ℓ.
    #[inline]
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// Number of trees ζ.
    #[inline]
    pub fn tree_count(&self) -> usize {
        self.cover.len()
    }

    /// Worst stretch realized from each point's home tree (test helper):
    /// `max_{x,y} δ_{T_home(x)}(x, y) / δ_X(x, y)`.
    pub fn measured_home_stretch<M: Metric>(&self, metric: &M) -> f64 {
        let n = metric.len();
        let mut worst: f64 = 1.0;
        for x in 0..n {
            let t = &self.cover.trees()[self.home[x]];
            for y in 0..n {
                if x == y {
                    continue;
                }
                let d = metric.dist(x, y);
                // hopspan:allow(panic-in-lib) -- Ramsey trees are spanning: every tree covers all points
                let td = t.distance(x, y).expect("trees span all points");
                worst = worst.max(td / d);
            }
        }
        worst
    }
}

/// Marks an unset slot in the per-point index arrays.
const UNSET: usize = usize::MAX;

/// Clusters below this size check padding by scanning the cluster; the
/// grid's sort and 3^d cell lookups only pay off above it.
const GRID_MIN_CLUSTER: usize = 256;

/// Highest dimension the padding grid handles (3^d neighbour cells).
const GRID_MAX_DIM: usize = 3;

/// Bits per axis of a packed cell key, and the finest cell count per
/// axis: cells are never narrower than `extent / 2^20`, so indices stay
/// below `2^21` (coarser cells only add candidates).
const CELL_BITS: u32 = 21;
const CELL_MAX: i64 = (1 << CELL_BITS) - 1;
const FINEST_CELLS: f64 = (1u64 << 20) as f64;

/// A cluster of one HST level: the range `start..end` of the layout
/// array holding its points, its tree node and that node's height.
struct Cluster {
    node: usize,
    start: usize,
    end: usize,
    height: f64,
}

impl Cluster {
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Coordinates of a low-dimensional Euclidean input, with the origin
/// (per-axis minimum) and extent (largest offset from it) that size the
/// padding grid's cells.
#[derive(Clone, Copy)]
struct GridFrame<'m> {
    coords: &'m [f64],
    dim: usize,
    origin: [f64; GRID_MAX_DIM],
    extent: f64,
}

impl<'m> GridFrame<'m> {
    fn new<M: Metric>(metric: &'m M) -> Option<Self> {
        let (coords, dim) = metric.euclidean_coords()?;
        if dim == 0 || dim > GRID_MAX_DIM || coords.len() != metric.len() * dim {
            return None;
        }
        let mut origin = [f64::INFINITY; GRID_MAX_DIM];
        for p in coords.chunks_exact(dim) {
            for (o, &c) in origin.iter_mut().zip(p) {
                *o = o.min(c);
            }
        }
        let mut extent: f64 = 0.0;
        for p in coords.chunks_exact(dim) {
            for (o, &c) in origin.iter().zip(p) {
                extent = extent.max(c - o);
            }
        }
        // Outside this range squared coordinate differences near a cell
        // side could leave the normal floating-point range, where `dist`
        // is no longer within a few ulps.
        (1e-100..=1e100).contains(&extent).then_some(GridFrame {
            coords,
            dim,
            origin,
            extent,
        })
    }

    /// Cell side for padding radius `pad_r`: `pad_r` widened by the
    /// rounding slack of `dist` and of the cell index, and never finer
    /// than `extent / 2^20`.
    fn side(&self, pad_r: f64) -> f64 {
        (pad_r * (1.0 + 1e-9) + 8.0 * f64::EPSILON * self.extent).max(self.extent / FINEST_CELLS)
    }

    /// Cell of point `p` along each axis.
    fn cell(&self, p: usize, side: f64) -> [i64; GRID_MAX_DIM] {
        let mut cell = [0i64; GRID_MAX_DIM];
        for a in 0..self.dim {
            let off = self.coords[p * self.dim + a] - self.origin[a];
            cell[a] = ((off / side).floor() as i64).clamp(0, CELL_MAX);
        }
        cell
    }

    fn key(cell: &[i64; GRID_MAX_DIM]) -> u64 {
        cell.iter().enumerate().fold(0u64, |k, (a, &c)| {
            k | ((c as u64) << (CELL_BITS * a as u32))
        })
    }
}

/// The state one cover shares across its HST attempts: the metric, its
/// extent, the optional padding grid, and the telemetry.
struct Carver<'m, M> {
    metric: &'m M,
    extent: Extent,
    grid: Option<GridFrame<'m>>,
    pad_time: Duration,
    hst_builds: u64,
}

/// An HST attempt, assembled but not yet finished into a tree: attempts
/// that γ doubling rejects never pay for the tree's LCA structure.
struct Hst {
    asm: TreeAssembler,
    root: usize,
}

impl Hst {
    fn finish(self, n: usize) -> DominatingTree {
        self.asm.finish(self.root, n)
    }
}

impl<'m, M: Metric> Carver<'m, M> {
    fn new(metric: &'m M, extent: Extent) -> Self {
        Carver {
            metric,
            extent,
            grid: GridFrame::new(metric),
            pad_time: Duration::ZERO,
            hst_builds: 0,
        }
    }

    /// Builds one HST over **all** points via top-down random ball
    /// carving, and returns it with the list of `candidates` that were
    /// padded at every scale.
    fn build_hst<R: Rng>(
        &mut self,
        gamma: f64,
        rng: &mut R,
        candidates: &[usize],
    ) -> (Hst, Vec<usize>) {
        self.hst_builds += 1;
        let metric = self.metric;
        let n = metric.len();
        let mut asm = TreeAssembler::new();
        // Leaf vertex `p` carries point `p`.
        for p in 0..n {
            asm.add(p);
        }
        let mut padded = vec![false; n];
        for &c in candidates {
            padded[c] = true;
        }
        // Top cluster: all points; height Δ₀ = dmax. Each scale's
        // clusters own disjoint ranges of `layout`.
        let root_node = asm.add(0);
        let mut layout: Vec<usize> = (0..n).collect();
        let mut clusters = vec![Cluster {
            node: root_node,
            start: 0,
            end: n,
            height: self.extent.dmax,
        }];
        let mut next = Vec::new();
        let mut perm = vec![0usize; n];
        let mut rank = vec![0usize; n];
        let mut cluster_of = vec![UNSET; n];
        let mut by_rank = vec![0usize; n];
        let mut cursor = Vec::new();
        let mut slot_of = vec![0usize; n];
        let mut slot_of_center = vec![UNSET; n];
        let mut centers = Vec::new();
        let mut bounds = Vec::new();
        let mut group_of = vec![UNSET; n];
        let mut scratch = vec![0usize; n];
        let mut delta = self.extent.dmax;
        while delta > self.extent.dmin / 2.0 && clusters.iter().any(|c| c.len() > 1) {
            delta /= 2.0;
            // One global permutation and radius per scale (CKR).
            for (i, p) in perm.iter_mut().enumerate() {
                *p = i;
            }
            perm.shuffle(rng);
            for (r, &p) in perm.iter().enumerate() {
                rank[p] = r;
            }
            let radius = delta * (0.25 + 0.25 * rng.gen::<f64>());

            // Lay every cluster out in rank order (`by_rank` mirrors the
            // ranges of `layout`).
            cursor.clear();
            for (ci, cl) in clusters.iter().enumerate() {
                cursor.push(cl.start);
                for &p in &layout[cl.start..cl.end] {
                    cluster_of[p] = ci;
                }
            }
            for &p in &perm {
                let ci = cluster_of[p];
                if ci != UNSET {
                    by_rank[cursor[ci]] = p;
                    cursor[ci] += 1;
                }
            }
            next.clear();
            for cl in &clusters {
                if cl.len() == 1 {
                    // Attach the leaf directly under the cluster node.
                    let p = layout[cl.start];
                    asm.attach(p, cl.node, cl.height);
                    cluster_of[p] = UNSET;
                    continue;
                }
                // Each point joins the lowest-ranked center within
                // radius; groups are numbered by first appearance.
                centers.clear();
                let by_rank = &by_rank[cl.start..cl.end];
                for &x in &layout[cl.start..cl.end] {
                    let center = by_rank
                        .iter()
                        .take_while(|&&c| rank[c] < rank[x])
                        .find(|&&c| metric.dist(x, c) <= radius)
                        .map_or(x, |&c| c);
                    if slot_of_center[center] == UNSET {
                        slot_of_center[center] = centers.len();
                        centers.push(center);
                    }
                    slot_of[x] = slot_of_center[center];
                }
                // Stable regroup of the range: groups in slot order,
                // points in their previous order.
                bounds.clear();
                bounds.resize(centers.len() + 1, 0);
                for &x in &layout[cl.start..cl.end] {
                    bounds[slot_of[x] + 1] += 1;
                }
                bounds[0] = cl.start;
                for s in 0..centers.len() {
                    bounds[s + 1] += bounds[s];
                }
                for &x in &layout[cl.start..cl.end] {
                    let s = slot_of[x];
                    scratch[bounds[s]] = x;
                    bounds[s] += 1;
                }
                layout[cl.start..cl.end].copy_from_slice(&scratch[cl.start..cl.end]);
                let mut start = cl.start;
                for (s, &c) in centers.iter().enumerate() {
                    slot_of_center[c] = UNSET;
                    let node = asm.add(c);
                    asm.attach(node, cl.node, cl.height - delta);
                    let end = bounds[s];
                    for &x in &layout[start..end] {
                        group_of[x] = next.len();
                    }
                    next.push(Cluster {
                        node,
                        start,
                        end,
                        height: delta,
                    });
                    start = end;
                }
            }

            // Padding check for candidate points: the ball of radius
            // Δ/(8ℓ) must stay within the point's own group.
            let started = Instant::now();
            let pad_r = delta / (8.0 * gamma);
            for cl in clusters.iter().filter(|c| c.len() > 1) {
                let members = &layout[cl.start..cl.end];
                if !members.iter().any(|&x| padded[x]) {
                    continue;
                }
                match self.grid {
                    Some(grid) if members.len() >= GRID_MIN_CLUSTER => {
                        pad_with_grid(metric, &grid, members, &group_of, &mut padded, pad_r);
                    }
                    _ => pad_in_cluster(metric, members, &group_of, &mut padded, pad_r),
                }
            }
            self.pad_time += started.elapsed();
            std::mem::swap(&mut clusters, &mut next);
        }
        // Attach remaining singleton clusters' leaves.
        for cl in &clusters {
            for &p in &layout[cl.start..cl.end] {
                if asm.parent[p].is_none() {
                    asm.attach(p, cl.node, cl.height);
                }
            }
        }
        let out: Vec<usize> = candidates.iter().copied().filter(|&p| padded[p]).collect();
        (
            Hst {
                asm,
                root: root_node,
            },
            out,
        )
    }
}

/// Whether `y` breaks `x`'s padding: another group, and not farther than
/// `pad_r` (written so that a NaN distance breaks it too).
#[inline]
fn breaks_padding<M: Metric>(
    metric: &M,
    group_of: &[usize],
    x: usize,
    y: usize,
    pad_r: f64,
) -> bool {
    group_of[y] != group_of[x] && {
        let far = metric.dist(x, y) > pad_r;
        !far
    }
}

/// Padding check by scanning the cluster: exact because a point still
/// padded has its whole `pad_r`-ball inside its cluster (module docs).
fn pad_in_cluster<M: Metric>(
    metric: &M,
    members: &[usize],
    group_of: &[usize],
    padded: &mut [bool],
    pad_r: f64,
) {
    for &x in members {
        if padded[x]
            && members
                .iter()
                .any(|&y| breaks_padding(metric, group_of, x, y, pad_r))
        {
            padded[x] = false;
        }
    }
}

/// Padding check through a grid over the cluster: only the 3^d cells
/// around `x` can hold a point within `pad_r` (module docs).
fn pad_with_grid<M: Metric>(
    metric: &M,
    grid: &GridFrame<'_>,
    members: &[usize],
    group_of: &[usize],
    padded: &mut [bool],
    pad_r: f64,
) {
    let side = grid.side(pad_r);
    let mut cells: Vec<(u64, usize)> = members
        .iter()
        .map(|&p| (GridFrame::key(&grid.cell(p, side)), p))
        .collect();
    cells.sort_unstable();
    let neighbours = 3usize.pow(grid.dim as u32);
    for &x in members {
        if !padded[x] {
            continue;
        }
        let home = grid.cell(x, side);
        'cells: for code in 0..neighbours {
            let mut cell = home;
            let mut rest = code;
            for c in cell.iter_mut().take(grid.dim) {
                *c += (rest % 3) as i64 - 1;
                rest /= 3;
            }
            if cell.iter().any(|&c| !(0..=CELL_MAX).contains(&c)) {
                continue;
            }
            let key = GridFrame::key(&cell);
            let lo = cells.partition_point(|e| e.0 < key);
            for &(k, y) in &cells[lo..] {
                if k != key {
                    break;
                }
                if breaks_padding(metric, group_of, x, y, pad_r) {
                    padded[x] = false;
                    break 'cells;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::gen;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(20260706)
    }

    #[test]
    fn homes_cover_everyone() {
        let m = gen::random_bounded_metric(24, &mut rng());
        let rc = RamseyTreeCover::new(&m, 2, &mut rng()).unwrap();
        for p in 0..24 {
            assert!(rc.home(p) < rc.tree_count());
        }
        rc.cover().validate(&m).unwrap();
    }

    #[test]
    fn home_stretch_bounded() {
        let m = gen::random_bounded_metric(20, &mut rng());
        for ell in [1usize, 2, 3] {
            let rc = RamseyTreeCover::new(&m, ell, &mut rng()).unwrap();
            let s = rc.measured_home_stretch(&m);
            // Guarantee is O(ℓ) with constant ~16; measured is far below
            // on bounded random metrics.
            assert!(
                s <= 32.0 * ell as f64,
                "home stretch {s} too large for ell={ell}"
            );
        }
    }

    #[test]
    fn graph_metric_input() {
        let m = gen::random_graph_metric(18, 12, &mut rng());
        let rc = RamseyTreeCover::new(&m, 2, &mut rng()).unwrap();
        rc.cover().validate(&m).unwrap();
        assert!(rc.measured_home_stretch(&m).is_finite());
    }

    #[test]
    fn larger_ell_fewer_trees() {
        // A line metric has genuine distance spread, so padding is hard
        // for small ℓ (bounded random metrics have aspect ratio 2 and
        // everything is padded in one round).
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..48).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let t1 = RamseyTreeCover::new(&m, 1, &mut rng())
            .unwrap()
            .tree_count();
        let t3 = RamseyTreeCover::new(&m, 3, &mut rng())
            .unwrap()
            .tree_count();
        // ζ = Õ(ℓ·n^{1/ℓ}): ℓ = 1 needs many trees, ℓ = 3 far fewer.
        assert!(t1 > 1, "ell=1 should need several trees, got {t1}");
        assert!(
            t3 <= t1,
            "expected fewer trees for larger ell: {t3} vs {t1}"
        );
    }

    #[test]
    fn singletons_and_pairs() {
        let m = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0]]);
        let rc = RamseyTreeCover::new(&m, 2, &mut rng()).unwrap();
        assert_eq!(rc.tree_count(), 1);
        let m2 = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0], vec![2.0]]);
        let rc2 = RamseyTreeCover::new(&m2, 2, &mut rng()).unwrap();
        assert!(rc2.measured_home_stretch(&m2) < 16.0);
    }

    #[test]
    fn tree_budget_respected() {
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..48).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        for budget in [1usize, 2, 4] {
            let (rc, gamma) = RamseyTreeCover::with_tree_budget(&m, budget, &mut rng()).unwrap();
            assert!(
                rc.tree_count() <= budget,
                "ζ {} > budget {budget}",
                rc.tree_count()
            );
            assert!(gamma >= 1.0);
            // Everyone is homed and the measured stretch respects 32γ.
            let s = rc.measured_home_stretch(&m);
            assert!(
                s <= 32.0 * gamma + 1e-9,
                "stretch {s} vs 32γ = {}",
                32.0 * gamma
            );
            rc.cover().validate(&m).unwrap();
        }
    }

    #[test]
    fn tree_budget_tradeoff_direction() {
        // Fewer trees ⇒ the construction must accept a larger γ.
        let m = hopspan_metric::EuclideanSpace::from_points(
            &(0..64).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        );
        let (_, g1) = RamseyTreeCover::with_tree_budget(&m, 1, &mut rng()).unwrap();
        let (_, g4) = RamseyTreeCover::with_tree_budget(&m, 4, &mut rng()).unwrap();
        assert!(
            g4 <= g1,
            "more trees should not need a larger γ: {g4} vs {g1}"
        );
    }

    #[test]
    fn tree_budget_singleton() {
        let m = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0]]);
        let (rc, _) = RamseyTreeCover::with_tree_budget(&m, 3, &mut rng()).unwrap();
        assert_eq!(rc.tree_count(), 1);
    }

    #[test]
    fn rejects_bad_input() {
        let m = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0], vec![0.0]]);
        assert!(matches!(
            RamseyTreeCover::new(&m, 2, &mut rng()),
            Err(CoverError::DuplicatePoints { .. })
        ));
        let m2 = hopspan_metric::EuclideanSpace::from_points(&[vec![0.0], vec![1.0]]);
        assert!(RamseyTreeCover::new(&m2, 0, &mut rng()).is_err());
        assert!(RamseyTreeCover::with_tree_budget(&m2, 0, &mut rng()).is_err());
    }

    /// A raw 4-point matrix with no validation, `d(1, 2) = d(2, 1) = bad`.
    struct Raw(Vec<Vec<f64>>);

    impl Metric for Raw {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn dist(&self, i: usize, j: usize) -> f64 {
            self.0[i][j]
        }
    }

    fn four_points_with(bad: f64) -> Raw {
        let mut d = vec![vec![1.0; 4]; 4];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        d[1][2] = bad;
        d[2][1] = bad;
        Raw(d)
    }

    /// Regression: an infinite distance made `with_tree_budget` loop
    /// forever, a NaN was accepted, and a negative one was reported as
    /// duplicate points. All three are bad distances now.
    #[test]
    fn bad_distances_are_rejected_typed() {
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            let m = four_points_with(bad);
            let is_bad = |e: CoverError| matches!(e, CoverError::BadDistance { i: 1, j: 2, .. });
            assert!(is_bad(RamseyTreeCover::new(&m, 2, &mut rng()).unwrap_err()));
            assert!(is_bad(
                RamseyTreeCover::with_tree_budget(&m, 3, &mut rng()).unwrap_err()
            ));
        }
    }

    #[test]
    fn stats_name_every_phase() {
        let m = gen::uniform_points(300, 2, &mut rng());
        let (rc, gamma, stats) =
            RamseyTreeCover::with_tree_budget_with_stats(&m, 3, &mut rng()).unwrap();
        let (plain, plain_gamma) = RamseyTreeCover::with_tree_budget(&m, 3, &mut rng()).unwrap();
        assert_eq!(gamma.to_bits(), plain_gamma.to_bits());
        assert_eq!(rc.tree_count(), plain.tree_count());
        for phase in ["cover/extent", "cover/carve", "cover/pad"] {
            assert!(stats.phase_duration(phase).is_some(), "{phase} missing");
        }
        let builds = stats.count("cover/hst_builds").unwrap();
        assert!(builds >= rc.tree_count() as u64, "{builds} HST builds");
    }

    /// The grid and the in-cluster scan decide padding identically,
    /// lattice ties and cell-boundary coordinates included.
    #[test]
    fn grid_padding_matches_cluster_scan() {
        use std::f64::consts::FRAC_1_SQRT_2;
        let side = 24usize;
        let lattice: Vec<Vec<f64>> = (0..side * side)
            .map(|i| vec![(i % side) as f64 * 0.5, (i / side) as f64 * 0.5])
            .collect();
        let m = hopspan_metric::EuclideanSpace::from_points(&lattice);
        let grid = GridFrame::new(&m).expect("2-D input gets a grid");
        let members: Vec<usize> = (0..side * side).collect();
        // Groups: 3×3 blocks of the lattice.
        let group_of: Vec<usize> = (0..side * side)
            .map(|i| (i % side) / 3 + 100 * ((i / side) / 3))
            .collect();
        for pad_r in [0.25, 0.5, 0.5 + 1e-12, FRAC_1_SQRT_2, 1.0, 1.5, 3.0] {
            let mut scan = vec![true; side * side];
            pad_in_cluster(&m, &members, &group_of, &mut scan, pad_r);
            let mut gridded = vec![true; side * side];
            pad_with_grid(&m, &grid, &members, &group_of, &mut gridded, pad_r);
            assert_eq!(scan, gridded, "pad_r = {pad_r}");
        }
    }
}
