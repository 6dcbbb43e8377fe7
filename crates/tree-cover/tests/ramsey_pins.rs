//! Bit-identity pins for the Ramsey tree cover.
//!
//! Each pin is the FNV-1a digest of everything a cover decides: the home
//! tree of every point, the padding parameter γ of the budgeted variant,
//! and every tree's parent, edge-weight and point arrays. The pins were
//! captured from the original all-pairs implementation of the carving and
//! padding, so any drift here means the cover made a different decision,
//! not merely an equally good one.
//!
//! To regenerate after an *intentional* change to the construction, run
//! with `HOPSPAN_GOLDEN_PRINT=1` and copy the printed table:
//!
//! ```text
//! HOPSPAN_GOLDEN_PRINT=1 cargo test -p hopspan-tree-cover --test ramsey_pins -- --nocapture
//! ```

use hopspan_metric::{gen, EuclideanSpace, GraphMetric, Metric};
use hopspan_tree_cover::RamseyTreeCover;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a, 64-bit, fed through [`Digest::word`].
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a cover: homes, γ, then per tree its vertex count and, per
/// vertex, parent (`u64::MAX` for the root), edge weight bits and point.
fn cover_digest(rc: &RamseyTreeCover, n: usize, gamma: f64) -> u64 {
    let mut d = Digest::new();
    for p in 0..n {
        d.word(rc.home(p) as u64);
    }
    d.word(gamma.to_bits());
    d.word(rc.tree_count() as u64);
    for t in rc.cover().trees() {
        let tree = t.tree();
        d.word(tree.len() as u64);
        for v in 0..tree.len() {
            d.word(tree.parent(v).map_or(u64::MAX, |p| p as u64));
            d.word(tree.parent_weight(v).to_bits());
            d.word(t.point_of(v) as u64);
        }
    }
    d.0
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// `side × side` integer lattice points in the plane: many tied
/// distances, and coordinates that land exactly on grid-cell boundaries.
fn lattice(side: usize) -> EuclideanSpace {
    let coords = (0..side * side)
        .flat_map(|i| [(i % side) as f64, (i / side) as f64])
        .collect();
    EuclideanSpace::new(coords, 2)
}

/// Digests of `new` (ℓ = `ell`) and `with_tree_budget` (`budget`) on `m`.
fn digests<M: Metric>(m: &M, ell: usize, budget: usize, seed: u64) -> (u64, u64) {
    let n = m.len();
    let rc = RamseyTreeCover::new(m, ell, &mut rng(seed)).expect("cover builds");
    let plain = cover_digest(&rc, n, 0.0);
    let (rc, gamma) =
        RamseyTreeCover::with_tree_budget(m, budget, &mut rng(seed ^ 1)).expect("cover builds");
    (plain, cover_digest(&rc, n, gamma))
}

/// `(input, new, with_tree_budget)` pins.
const PINS: [(&str, u64, u64); 6] = [
    (
        "uniform-2d-1024",
        0xde2c_79e4_d9bc_1ec6,
        0xbe92_b51f_83eb_3bcb,
    ),
    (
        "uniform-3d-512",
        0xf9d5_2059_71cd_4afb,
        0xb1d3_19df_7ab0_082f,
    ),
    (
        "uniform-6d-256",
        0xbff5_94f9_4201_696a,
        0x4c60_bf05_198d_b498,
    ),
    ("matrix-160", 0x382f_5dfb_f3b9_7a00, 0xb028_1273_e5b4_e169),
    (
        "graph-grid-12x12",
        0x3625_65f2_b817_6136,
        0x32cf_c8e0_d72f_4995,
    ),
    (
        "lattice-24x24",
        0xfd15_7466_d3b8_d691,
        0xa797_ab51_1fa4_02fc,
    ),
];

#[test]
fn ramsey_covers_match_pinned_digests() {
    let uniform2 = gen::uniform_points(1024, 2, &mut rng(11));
    let uniform3 = gen::uniform_points(512, 3, &mut rng(12));
    let uniform6 = gen::uniform_points(256, 6, &mut rng(13));
    let matrix = gen::random_graph_metric(160, 80, &mut rng(14));
    let graph =
        GraphMetric::new(&gen::weighted_grid_graph(12, 12, &mut rng(15))).expect("grid connects");
    let lat = lattice(24);
    let got = [
        ("uniform-2d-1024", digests(&uniform2, 3, 12, 21)),
        ("uniform-3d-512", digests(&uniform3, 3, 8, 22)),
        ("uniform-6d-256", digests(&uniform6, 2, 6, 23)),
        ("matrix-160", digests(&matrix, 2, 4, 24)),
        ("graph-grid-12x12", digests(&graph, 2, 5, 25)),
        ("lattice-24x24", digests(&lat, 2, 12, 26)),
    ];
    if std::env::var("HOPSPAN_GOLDEN_PRINT").is_ok() {
        for (name, (plain, budget)) in &got {
            println!("    (\"{name}\", {plain:#018x}, {budget:#018x}),");
        }
    }
    let got: Vec<(&str, u64, u64)> = got.iter().map(|&(s, (a, b))| (s, a, b)).collect();
    assert_eq!(got, PINS.to_vec(), "Ramsey cover drifted from its pins");
}
