//! Hierarchical `2^i`-nets (paper §4.2, Step 0).
//!
//! An `r`-net of `(X, δ_X)` is `N ⊆ X` with (a) pairwise distances `> r`
//! (packing) and (b) every point within `r` of some net point (covering).
//! The hierarchy fixes nested nets `N_i ⊇ N_{i+1}` where `N_i` is a
//! `2^i`-net, for all scales `i` in a range wide enough for both the
//! pairing covers and the pair-level equation (2) of the paper.

use hopspan_metric::Metric;

use crate::cover::{scan_extent, Extent};
use crate::CoverError;

/// One level of the hierarchy.
#[derive(Debug, Clone)]
pub struct NetLevel {
    /// The net radius is `2^scale_exp`.
    pub scale_exp: i32,
    /// Net points (subset of `0..n`), in greedy selection order.
    pub points: Vec<usize>,
}

/// A hierarchy of nested `2^i`-nets.
#[derive(Debug, Clone)]
pub struct NetHierarchy {
    levels: Vec<NetLevel>,
    /// For each level and each point of X, the index (into
    /// `levels[l].points`) of a net point within `2^i` (its "net parent").
    nearest_net: Vec<Vec<usize>>,
    n: usize,
}

impl NetHierarchy {
    /// Builds nested nets for every scale in `[low_exp, high_exp]`
    /// (inclusive). Levels are greedy: each is a maximal independent
    /// subset of the previous level at the new radius, which yields both
    /// the packing and covering properties.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::Empty`] for an empty metric,
    /// [`CoverError::DuplicatePoints`] if two points coincide,
    /// [`CoverError::BadDistance`] for a NaN, infinite or negative
    /// distance, and [`CoverError::InvalidParameter`] for a reversed
    /// range.
    pub fn new<M: Metric>(metric: &M, low_exp: i32, high_exp: i32) -> Result<Self, CoverError> {
        // The input check every cover shares: a bad distance (a NaN
        // would poison every radius comparison) wins over a zero pair.
        scan_extent(metric)?;
        Self::new_scanned(metric, low_exp, high_exp)
    }

    /// [`NetHierarchy::new`] for a metric whose [`scan_extent`] the
    /// caller has already run: checks only emptiness and the scale
    /// range.
    pub(crate) fn new_scanned<M: Metric>(
        metric: &M,
        low_exp: i32,
        high_exp: i32,
    ) -> Result<Self, CoverError> {
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        if low_exp > high_exp {
            return Err(CoverError::InvalidParameter {
                what: "low_exp > high_exp",
            });
        }
        let mut levels: Vec<NetLevel> = Vec::new();
        let mut nearest_net: Vec<Vec<usize>> = Vec::new();
        let mut prev: Vec<usize> = (0..n).collect();
        for e in low_exp..=high_exp {
            let r = exp2(e);
            // Greedy subset of the previous net with pairwise distance > r.
            let mut keep: Vec<usize> = Vec::new();
            for &p in &prev {
                if keep.iter().all(|&q| metric.dist(p, q) > r) {
                    keep.push(p);
                }
            }
            // Net parent per point of X: the closest net point. Nested
            // greedy nets cover X within radius 2^e·(1 + 1/2 + …) < 2^{e+1}
            // (follow the chain of killers downward); the constructions
            // built on this hierarchy use the covering radius 2·2^e, which
            // the paper's O(·) constants absorb.
            let mut near = Vec::with_capacity(n);
            for x in 0..n {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (idx, &q) in keep.iter().enumerate() {
                    let d = metric.dist(x, q);
                    if d < best_d {
                        best_d = d;
                        best = idx;
                    }
                }
                near.push(best);
            }
            nearest_net.push(near);
            levels.push(NetLevel {
                scale_exp: e,
                points: keep.clone(),
            });
            prev = keep;
        }
        Ok(NetHierarchy {
            levels,
            nearest_net,
            n,
        })
    }

    /// Convenience: builds the range of scales needed for an ε-pairing
    /// cover of the whole metric: from `⌊log₂(4ε·δ_min)⌋ - extra_low` up
    /// to `⌈log₂(2ε·δ_max)⌉ + 1`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`NetHierarchy::new`].
    pub fn for_epsilon<M: Metric>(
        metric: &M,
        eps: f64,
        extra_low: i32,
    ) -> Result<Self, CoverError> {
        if eps <= 0.0 || eps.is_nan() || eps > 1.0 {
            return Err(CoverError::InvalidParameter {
                what: "eps must be in (0, 1]",
            });
        }
        let n = metric.len();
        if n == 0 {
            return Err(CoverError::Empty);
        }
        let Extent { dmin, dmax } = scan_extent(metric)?;
        if n == 1 {
            // Single point: one trivial level.
            return NetHierarchy::new_scanned(metric, 0, 0);
        }
        let low = (4.0 * eps * dmin).log2().floor() as i32 - extra_low;
        let high = (2.0 * eps * dmax).log2().ceil() as i32 + 1;
        NetHierarchy::new_scanned(metric, low.min(high), high)
    }

    /// Number of points in the underlying metric.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.n
    }

    /// The levels, ascending by scale.
    #[inline]
    pub fn levels(&self) -> &[NetLevel] {
        &self.levels
    }

    /// Index of the level with scale exponent `e`, if present.
    pub fn level_index(&self, e: i32) -> Option<usize> {
        let first = self.levels.first()?.scale_exp;
        let off = e.checked_sub(first)?;
        if off < 0 || off as usize >= self.levels.len() {
            None
        } else {
            Some(off as usize)
        }
    }

    /// The closest net point of level `l` to point `x` (a "net parent").
    pub fn nearest_net_point(&self, l: usize, x: usize) -> usize {
        self.levels[l].points[self.nearest_net[l][x]]
    }
}

/// `2^e` for possibly negative `e`.
pub(crate) fn exp2(e: i32) -> f64 {
    (e as f64).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopspan_metric::EuclideanSpace;

    fn line(n: usize) -> EuclideanSpace {
        EuclideanSpace::from_points(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn packing_and_covering() {
        let m = line(32);
        let h = NetHierarchy::new(&m, -1, 6).unwrap();
        for (l, lvl) in h.levels().iter().enumerate() {
            let r = exp2(lvl.scale_exp);
            // Packing: pairwise > r.
            for (a, &p) in lvl.points.iter().enumerate() {
                for &q in &lvl.points[a + 1..] {
                    assert!(m.dist(p, q) > r, "packing violated at level {l}");
                }
            }
            // Covering: nested greedy nets cover within radius
            // 2^i·(1 + 1/2 + 1/4 + …) < 2^{i+1} (the killer chain).
            for x in 0..m.len() {
                let p = h.nearest_net_point(l, x);
                assert!(
                    m.dist(x, p) <= 2.0 * r + 1e-9,
                    "covering violated: level {l}, x={x}, dist={}",
                    m.dist(x, p)
                );
            }
        }
    }

    #[test]
    fn nesting() {
        let m = line(20);
        let h = NetHierarchy::new(&m, 0, 5).unwrap();
        for w in h.levels().windows(2) {
            for p in &w[1].points {
                assert!(w[0].points.contains(p), "nets must be nested");
            }
        }
        // Top level has a single point for scale >= diameter.
        assert_eq!(h.levels().last().unwrap().points.len(), 1);
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        let dup = EuclideanSpace::from_points(&[vec![1.0], vec![1.0]]);
        assert!(matches!(
            NetHierarchy::new(&dup, 0, 1),
            Err(CoverError::DuplicatePoints { .. })
        ));
    }

    #[test]
    fn for_epsilon_covers_needed_scales() {
        let m = line(16);
        let h = NetHierarchy::for_epsilon(&m, 0.5, 3).unwrap();
        // Lowest level must be a net where every point is its own net
        // point (scale below min distance).
        assert_eq!(h.levels()[0].points.len(), 16);
        assert!(h.level_index(h.levels()[0].scale_exp).unwrap() == 0);
        assert!(h.level_index(999).is_none());
    }

    #[test]
    fn single_point() {
        let m = line(1);
        let h = NetHierarchy::for_epsilon(&m, 0.5, 2).unwrap();
        assert_eq!(h.levels().len(), 1);
        assert_eq!(h.levels()[0].points, vec![0]);
    }

    #[test]
    fn rejects_non_finite_and_negative_distances() {
        /// `d(0, 2)` is the bad value. `d(0, 1)` comes first in
        /// row-major order; at 0 it is a duplicate pair, which must not
        /// mask the bad distance.
        struct Bad(f64, f64);
        impl hopspan_metric::Metric for Bad {
            fn len(&self) -> usize {
                3
            }
            fn dist(&self, i: usize, j: usize) -> f64 {
                match (i.min(j), i.max(j)) {
                    _ if i == j => 0.0,
                    (0, 1) => self.1,
                    (0, 2) => self.0,
                    _ => 1.0,
                }
            }
        }
        fn rejected<T>(r: Result<T, CoverError>) -> bool {
            matches!(r, Err(CoverError::BadDistance { i: 0, j: 2, .. }))
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            for d01 in [1.0, 0.0] {
                let m = Bad(bad, d01);
                // `for_epsilon` must reject before its exponent arithmetic
                // (an ∞ diameter would overflow the i32 scale range).
                assert!(rejected(NetHierarchy::for_epsilon(&m, 0.5, 2)));
                assert!(rejected(NetHierarchy::new(&m, 0, 1)));
                // The covers run the same input check.
                let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
                assert!(rejected(crate::RamseyTreeCover::new(&m, 2, &mut rng)));
                assert!(rejected(crate::RobustTreeCover::new(&m, 0.5)));
            }
        }
    }
}
