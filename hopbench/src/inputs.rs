//! Seeded inputs. Every workload derives its points and request
//! sequences from the `--seed` argument through separate rng streams,
//! so the same seed always yields the same inputs.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use hopspan_metric::{gen, EuclideanSpace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Rng stream ids, one per input a workload draws.
pub mod stream {
    /// The point set.
    pub const POINTS: u64 = 1;
    /// Set-up probe pairs.
    pub const SETUP: u64 = 3;
    /// Query pairs; connection `i` of load phase `j` uses
    /// `QUERIES + i + 2 * j`.
    pub const QUERIES: u64 = 16;
    /// Points inserted under churn, numbered like [`QUERIES`].
    pub const INSERTS: u64 = 32;
    /// In-process replays of the traced run (`REPLAY + i` for the
    /// `i`-th replay).
    pub const REPLAY: u64 = 64;
}

/// The rng of stream `stream` for `seed`.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// The rng seed of every static navigator build. It is a setting of
/// the program, like `DynConfig`'s default seed, not a workload input,
/// so it stays fixed while `--seed` varies the points.
pub const BUILD_SEED: u64 = hopspan_dynamic::DEFAULT_SEED;

/// Points of the static navigator of `serve-query` and `build-snapshot`.
pub const STATIC_N: usize = 4096;
/// Ramsey tree budget of every static navigator build.
pub const BUDGET: usize = 12;
/// Hop bound of every static navigator build.
pub const K: usize = 3;

/// Point set `set` of `seed`: `n` uniform points of the unit square.
/// Runs that build several navigators draw a fresh set for each, so a
/// run's medians do not hang on one draw of the points.
pub fn uniform_points(n: usize, seed: u64, set: u64) -> EuclideanSpace {
    gen::uniform_points(n, 2, &mut rng(seed, stream::POINTS + (set << 8)))
}

/// A uniform pair of distinct ids below `n`.
pub fn pair(rng: &mut ChaCha8Rng, n: usize) -> (u32, u32) {
    let u = rng.gen_range(0..n);
    let mut v = rng.gen_range(0..n - 1);
    if v >= u {
        v += 1;
    }
    (u as u32, v as u32)
}

/// Writes points one per line, coordinates separated by spaces, in the
/// shortest form that reads back to the same `f64`.
pub fn write_points(path: &Path, space: &EuclideanSpace) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    for i in 0..hopspan_metric::Metric::len(space) {
        let line: Vec<String> = space.point(i).iter().map(f64::to_string).collect();
        writeln!(w, "{}", line.join(" ")).map_err(|e| format!("write points: {e}"))?;
    }
    w.flush().map_err(|e| format!("write points: {e}"))
}

/// Reads points written by [`write_points`].
pub fn read_points(path: &Path) -> Result<Vec<Vec<f64>>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    BufReader::new(file)
        .lines()
        .map(|line| {
            let line = line.map_err(|e| format!("read points: {e}"))?;
            line.split_whitespace()
                .map(|c| {
                    c.parse::<f64>()
                        .map_err(|e| format!("bad coordinate {c:?}: {e}"))
                })
                .collect()
        })
        .collect()
}
