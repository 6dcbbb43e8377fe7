//! The Robust Tree Cover Theorem for doubling metrics (paper Theorem 4.1,
//! §4.2 Step 2, with the §4.3 merging rule).
//!
//! For every slot `j < σ₃` and residue `p < L` (`L = ⌈log 1/ε⌉`), a tree
//! `T_{j,p}` is grown bottom-up through the levels `i ≡ p (mod L)`: for
//! every pair `(x, y)` of the `j`-th pairing set of 𝒞_i, the trees of `x`
//! and `y` and all trees holding a lower-net point near either are merged
//! under a fresh internal node; additionally (§4.3) every net point `z ∈
//! N_i` absorbs the trees holding lower-net points near `z`, which keeps
//! the invariant that every tree of forest `F_i` contains a point of
//! `N_i`. Internal nodes are *associated* with a net point that is always
//! one of their descendant leaves — the robustness property (Definition
//! 4.1(2)) that the fault-tolerant constructions of §4 rely on.

use std::collections::HashMap;

use hopspan_metric::Metric;
use hopspan_pipeline::BuildStats;

use crate::cover::{scan_extent, Extent, TreeAssembler};
use crate::nets::{exp2, NetHierarchy};
use crate::pairing::PairingCover;
use crate::{CoverError, DominatingTree, TreeCover};

/// A robust `(1+O(ε), ε^{-O(d)})`-tree cover for doubling metrics.
///
/// # Examples
///
/// ```
/// use hopspan_metric::EuclideanSpace;
/// use hopspan_tree_cover::RobustTreeCover;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let line = EuclideanSpace::from_points(&[vec![0.0], vec![1.0], vec![2.0], vec![4.0]]);
/// let cover = RobustTreeCover::new(&line, 0.25)?;
/// // Some tree approximates every pairwise distance within 1 + O(ε).
/// let (_, d) = cover.cover().best_tree(0, 3).expect("pair covered");
/// assert!(d >= 4.0 && d <= 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RobustTreeCover {
    cover: TreeCover,
    nets: NetHierarchy,
    pairing: PairingCover,
    eps: f64,
    period: usize,
    slots: usize,
}

/// Union-find over points, whose roots carry the current tree-node id.
struct Forest {
    dsu: Vec<usize>,
    node_of_root: Vec<usize>,
}

impl Forest {
    fn new(leaf_nodes: &[usize]) -> Self {
        Forest {
            dsu: (0..leaf_nodes.len()).collect(),
            node_of_root: leaf_nodes.to_vec(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.dsu[r] != r {
            r = self.dsu[r];
        }
        let mut c = x;
        while self.dsu[c] != r {
            let next = self.dsu[c];
            self.dsu[c] = r;
            c = next;
        }
        r
    }

    /// The current tree node of the tree containing point `x`.
    fn node_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.node_of_root[r]
    }

    /// Merges the trees of `points` under `new_node`; the DSU root of the
    /// merged class gets `new_node` as its tree node.
    fn union_under(&mut self, points: &[usize], new_node: usize) {
        let mut iter = points.iter();
        let Some(&first) = iter.next() else {
            // An empty merge is a no-op rather than a panic.
            return;
        };
        let mut root = self.find(first);
        for &p in iter {
            let r = self.find(p);
            if r != root {
                self.dsu[r] = root;
                root = self.find(first);
            }
        }
        self.node_of_root[root] = new_node;
    }
}

impl RobustTreeCover {
    /// Builds the robust tree cover with parameter `eps ∈ (0, 1]`.
    ///
    /// The construction parameter is used exactly as in §4.2 (separation
    /// `(3/ε)2^i`, pairing radius `2^i/ε`, period `L = ⌈log 1/ε⌉`); the
    /// worst-case stretch guarantee is `1 + O(ε)` and
    /// [`RobustTreeCover::cover`]`.measured_stretch` reports the realized
    /// value.
    ///
    /// # Errors
    ///
    /// Returns a [`CoverError`] for empty/duplicate inputs or `eps`
    /// outside `(0, 1]`.
    pub fn new<M: Metric + Sync>(metric: &M, eps: f64) -> Result<Self, CoverError> {
        Self::new_with_stats(metric, eps, None).map(|(c, _)| c)
    }

    /// Like [`RobustTreeCover::new`], with explicit control over the
    /// per-tree worker count (`None` = automatic, see
    /// [`hopspan_pipeline::resolve_workers`]) and the per-phase build
    /// telemetry returned alongside the cover.
    ///
    /// # Errors
    ///
    /// Returns a [`CoverError`] for empty/duplicate inputs or `eps`
    /// outside `(0, 1]`.
    pub fn new_with_stats<M: Metric + Sync>(
        metric: &M,
        eps: f64,
        workers: Option<usize>,
    ) -> Result<(Self, BuildStats), CoverError> {
        if eps <= 0.0 || eps.is_nan() || eps > 1.0 {
            return Err(CoverError::InvalidParameter {
                what: "eps must be in (0, 1]",
            });
        }
        let n = metric.len();
        // Period L = ⌈log 1/ε⌉ + 2: the two extra levels shrink lower-
        // forest diameters by an extra factor 4, which closes the Lemma
        // 4.3 diameter induction for every ε ≤ 5/8 instead of only ε ≤
        // 1/8 (D_i ≤ (1/ε+4)2^i + 2(2·2^i + 2D_{i'}) with D_{i'} ≤
        // (1/ε+24)·ε·2^i/4 gives D_i ≤ (1/ε+9+24ε)2^i ≤ (1/ε+24)2^i).
        let period = (1.0 / eps).log2().ceil().max(1.0) as usize + 2;
        // Scale range: the pairing rule needs every level of equation (2),
        // down to ⌊log₂(4ε·δ_min)⌋; the merge invariant ("every tree holds
        // a current-net point") additionally needs the lowest *processed*
        // level's companion nets to contain every point, i.e. scales below
        // ⌊log₂ δ_min⌋. `period` extra levels below serve as companions.
        let workers = hopspan_pipeline::resolve_workers(workers);
        let mut stats = BuildStats::new(workers);
        // A zero-distance pair would send the scale computation below to
        // log₂(0) = -∞; the scan rejects it, and bad distances, typed.
        let Extent { dmin, dmax } = stats.phase("scan", || scan_extent(metric))?;
        let nets = stats.phase("nets", || {
            if n <= 1 || !dmin.is_finite() {
                NetHierarchy::new_scanned(metric, 0, 0)
            } else {
                let low_main =
                    ((4.0 * eps * dmin).log2().floor() as i32).min(dmin.log2().floor() as i32 - 1);
                let high = ((2.0 * eps * dmax).log2().ceil() as i32 + 1).max(low_main);
                NetHierarchy::new_scanned(metric, low_main - period as i32, high)
            }
        })?;
        let pairing = stats.phase("pairing", || PairingCover::new(metric, &nets, eps));
        let slots = pairing.max_sets();
        let levels = nets.levels().len();

        // Precompute once, for every level l ≥ period and every net point
        // z of level l, the lower-net points of level l - period within
        // 4·2^i of z (used both by the pair rule and the §4.3 rule).
        // The merge radius must reach any tree of the lower forest that
        // holds a point within the covering radius 2·2^i: such a tree has
        // diameter ≤ (1/ε + 24)·2^{i'} (the Lemma 4.3 induction, with our
        // constants), so r = 2·2^i + (1/ε + 24)·2^{i'} suffices; the
        // induction closes for ε ≤ 1/8 and degrades gracefully above.
        let near = stats.phase("near-sets", || {
            let mut near: Vec<HashMap<usize, Vec<usize>>> = vec![HashMap::new(); levels];
            for l in period..levels {
                let r = 2.0 * exp2(nets.levels()[l].scale_exp)
                    + (1.0 / eps + 24.0) * exp2(nets.levels()[l - period].scale_exp);
                let lower = &nets.levels()[l - period].points;
                let map = &mut near[l];
                for &z in &nets.levels()[l].points {
                    let list: Vec<usize> = lower
                        .iter()
                        .copied()
                        .filter(|&w| metric.dist(z, w) <= r)
                        .collect();
                    map.insert(z, list);
                }
            }
            near
        });

        // The σ₃·L trees are independent; build them on the shared
        // worker pipeline (order-preserving, so the cover is identical
        // for every worker count).
        let jobs: Vec<(usize, usize)> = (0..slots.max(1))
            .flat_map(|j| (0..period).map(move |p| (j, p)))
            .collect();
        let build = std::time::Instant::now();
        let trees: Vec<DominatingTree> =
            hopspan_pipeline::parallel_map(workers, &jobs, |_, &(j, p)| {
                Self::build_tree(metric, &nets, &pairing, &near, n, j, p, period)
            });
        stats.record_phase("trees", build.elapsed());
        stats.tree_count = trees.len();
        Ok((
            RobustTreeCover {
                cover: TreeCover::new(trees),
                nets,
                pairing,
                eps,
                period,
                slots: slots.max(1),
            },
            stats,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn build_tree<M: Metric>(
        metric: &M,
        nets: &NetHierarchy,
        pairing: &PairingCover,
        near: &[HashMap<usize, Vec<usize>>],
        n: usize,
        slot: usize,
        residue: usize,
        period: usize,
    ) -> DominatingTree {
        let mut asm = TreeAssembler::new();
        // Leaves in 1-to-1 correspondence with points (Def. 4.1(1)).
        let leaves: Vec<usize> = (0..n).map(|p| asm.add(p)).collect();
        let mut forest = Forest::new(&leaves);
        let levels = nets.levels().len();
        // Helper: merge the current trees of `pts` under a node for `anchor`.
        let merge = |asm: &mut TreeAssembler, forest: &mut Forest, pts: &[usize], anchor: usize| {
            let mut nodes: Vec<usize> = Vec::with_capacity(pts.len());
            for &p in pts {
                let nd = forest.node_of(p);
                if !nodes.contains(&nd) {
                    nodes.push(nd);
                }
            }
            if nodes.len() <= 1 {
                return;
            }
            let v = asm.add(anchor);
            for nd in nodes {
                let w = metric.dist(anchor, asm.point_of[nd]);
                asm.attach(nd, v, w);
            }
            forest.union_under(pts, v);
        };
        for l in period..levels {
            if (l - period) % period != residue % period {
                continue;
            }
            // Pair rule: the slot-th set of 𝒞_i.
            let sets = pairing.level(l);
            if let Some(set) = sets.get(slot) {
                for &(x, y) in &set.pairs {
                    let mut pts: Vec<usize> = vec![x, y];
                    pts.extend(near[l][&x].iter().copied());
                    if x != y {
                        pts.extend(near[l][&y].iter().copied());
                    }
                    merge(&mut asm, &mut forest, &pts, x);
                }
            }
            // §4.3 rule: every net point of N_i absorbs the nearby trees
            // of the lower net, keeping every tree anchored at N_i.
            for &z in &nets.levels()[l].points {
                let mut pts: Vec<usize> = vec![z];
                pts.extend(near[l][&z].iter().copied());
                merge(&mut asm, &mut forest, &pts, z);
            }
        }
        // Final merge of whatever forest remains.
        let mut roots: Vec<usize> = Vec::new();
        let mut root_pts: Vec<usize> = Vec::new();
        for pnt in 0..n {
            let nd = forest.node_of(pnt);
            if !roots.contains(&nd) {
                roots.push(nd);
                root_pts.push(pnt);
            }
        }
        let root = if roots.len() == 1 {
            roots[0]
        } else {
            let anchor = asm.point_of[roots[0]];
            let v = asm.add(anchor);
            for &nd in &roots {
                let w = metric.dist(anchor, asm.point_of[nd]);
                asm.attach(nd, v, w);
            }
            forest.union_under(&root_pts, v);
            v
        };
        asm.finish(root, n)
    }

    /// Consumes the cover wrapper and returns the underlying tree cover.
    pub fn into_cover(self) -> TreeCover {
        self.cover
    }

    /// The underlying (1+O(ε), ζ)-tree cover.
    #[inline]
    pub fn cover(&self) -> &TreeCover {
        &self.cover
    }

    /// The number of trees ζ = σ₃ · L.
    #[inline]
    pub fn tree_count(&self) -> usize {
        self.cover.len()
    }

    /// The construction parameter ε.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The level period `L = ⌈log 1/ε⌉`.
    #[inline]
    pub fn period(&self) -> usize {
        self.period
    }

    /// The slot count σ₃ (trees per residue).
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The net hierarchy the cover was built from.
    #[inline]
    pub fn nets(&self) -> &NetHierarchy {
        &self.nets
    }

    /// The pairing covers the cover was built from.
    #[inline]
    pub fn pairing(&self) -> &PairingCover {
        &self.pairing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::{gen, EuclideanSpace, Metric};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_cover<M: Metric + Sync>(m: &M, eps: f64, stretch_budget: f64) -> RobustTreeCover {
        let rc = RobustTreeCover::new(m, eps).unwrap();
        rc.cover().validate(m).unwrap();
        let s = rc.cover().measured_stretch(m);
        assert!(
            s <= stretch_budget,
            "measured stretch {s} > budget {stretch_budget} (eps={eps})"
        );
        rc
    }

    #[test]
    fn line_small() {
        let m = EuclideanSpace::from_points(&(0..16).map(|i| vec![i as f64]).collect::<Vec<_>>());
        check_cover(&m, 0.5, 1.0 + 1e-9);
    }

    #[test]
    fn line_tighter_eps() {
        let m = EuclideanSpace::from_points(&(0..16).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let loose = RobustTreeCover::new(&m, 1.0).unwrap();
        let tight = RobustTreeCover::new(&m, 0.25).unwrap();
        let sl = loose.cover().measured_stretch(&m);
        let st = tight.cover().measured_stretch(&m);
        assert!(
            st <= sl + 1e-9,
            "smaller eps should not hurt stretch: {st} vs {sl}"
        );
        assert!(st <= 1.0 + 1e-9, "eps=0.25 line stretch {st}");
    }

    #[test]
    fn uniform_2d() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let m = gen::uniform_points(40, 2, &mut rng);
        // The 1+O(ε) constant is large (paper regime is ε ≤ 1/12);
        // measured ≈ 5.4 at ε = 0.5 and ≈ 1.8 at ε = 0.25 on this seed.
        check_cover(&m, 0.5, 8.0);
        check_cover(&m, 0.25, 2.5);
    }

    #[test]
    fn clustered_2d() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let m = gen::clustered_points(30, 2, 3, 0.02, &mut rng);
        check_cover(&m, 0.5, 4.0);
    }

    #[test]
    fn exponential_spread() {
        let m = gen::exponential_line(10);
        check_cover(&m, 0.5, 3.0);
    }

    #[test]
    fn tree_count_independent_of_n() {
        let small =
            EuclideanSpace::from_points(&(0..16).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let big = EuclideanSpace::from_points(&(0..80).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let cs = RobustTreeCover::new(&small, 0.5).unwrap().tree_count();
        let cb = RobustTreeCover::new(&big, 0.5).unwrap().tree_count();
        assert!(cb <= 2 * cs + 8, "ζ grew with n: {cs} -> {cb}");
    }

    #[test]
    fn internal_anchor_is_descendant_leaf() {
        // The robustness precondition: every internal vertex's associated
        // point is one of its descendant leaves.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = gen::uniform_points(24, 2, &mut rng);
        let rc = RobustTreeCover::new(&m, 0.5).unwrap();
        for t in rc.cover().trees() {
            for v in 0..t.tree().len() {
                if t.tree().child_count(v) > 0 {
                    let anchor = t.point_of(v);
                    let ok = t
                        .descendant_leaves(v)
                        .iter()
                        .any(|&leaf| t.point_of(leaf) == anchor);
                    assert!(ok, "anchor of internal vertex {v} not a descendant leaf");
                }
            }
        }
    }

    #[test]
    fn single_point_and_two_points() {
        let one = EuclideanSpace::from_points(&[vec![0.0, 0.0]]);
        let rc = RobustTreeCover::new(&one, 0.5).unwrap();
        assert!(rc.tree_count() >= 1);
        let two = EuclideanSpace::from_points(&[vec![0.0], vec![1.0]]);
        let rc = RobustTreeCover::new(&two, 0.5).unwrap();
        assert!(rc.cover().measured_stretch(&two) >= 1.0);
    }

    #[test]
    fn rejects_bad_eps() {
        let m = EuclideanSpace::from_points(&[vec![0.0], vec![1.0]]);
        assert!(RobustTreeCover::new(&m, 0.0).is_err());
        assert!(RobustTreeCover::new(&m, 1.5).is_err());
    }
}
