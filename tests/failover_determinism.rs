//! Cross-process determinism of the resilience layer: failover
//! targets and the retry backoff schedule must be bit-identical for
//! any `HOPSPAN_WORKERS` setting and across process runs. Failover
//! re-routing is a pure function of the health configuration (FNV-1a
//! rehash over healthy shards — no clocks, no `DefaultHasher`), and
//! the backoff schedule is a seeded PCG-32 stream, so a failure script
//! replayed on another machine must produce the same dispatch tables,
//! the same sleep schedule and the same served answers.
//!
//! Same harness as `serve_determinism.rs`: the parent re-executes its
//! own binary with `HOPSPAN_DETERMINISM_CHILD` set and compares FNV-1a
//! hashes printed on marker lines by children pinned to
//! `HOPSPAN_WORKERS ∈ {1, 4, 16}`.

use std::process::Command;
use std::time::Duration;

use hopspan::metric::gen;
use hopspan::serve::{
    retry_backoff, BackendParams, Op, QueryOutcome, ServeConfig, ShardHealth, ShardedNavigator,
};
use hopspan::store::fnv1a;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHILD_ENV: &str = "HOPSPAN_DETERMINISM_CHILD";
const HASH_MARKER: &str = "HOPSPAN_FAILOVER_HASH=";

const N: usize = 64;

/// The scripted failure configurations the dispatch table is pinned
/// under: which of the 4 shards are `Down`.
const OUTAGE_SCRIPTS: [&[usize]; 5] = [&[], &[1], &[2], &[0, 3], &[1, 2]];

/// Canonical serialization of (a) the failover dispatch table for
/// every point under every scripted outage, (b) the deterministic
/// retry backoff schedule, and (c) served outcomes through a live
/// engine with one shard down.
fn serialize_outcomes() -> String {
    let mut out = String::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E4E_DE7F);
    let points = gen::uniform_points(N, 2, &mut rng);
    let mk = || {
        ShardedNavigator::replicated(
            &points,
            &BackendParams::default(),
            ServeConfig {
                shards: 4,
                workers_per_shard: 2,
                max_batch: 8,
                batch_deadline: Duration::from_micros(50),
                queue_depth: 32,
                ..ServeConfig::default()
            },
        )
        .expect("seeded engine starts")
    };

    // (a) Dispatch tables: pure functions of (op, health config).
    for (script_id, downs) in OUTAGE_SCRIPTS.iter().enumerate() {
        let engine = mk();
        for &d in downs.iter() {
            engine.set_health(d, ShardHealth::Down);
        }
        for u in 0..N as u32 {
            let op = Op::FindPath {
                u,
                v: (u + 1) % N as u32,
            };
            out.push_str(&format!(
                "T {script_id} {u} {} {}\n",
                engine.shard_for(&op),
                engine.dispatch_for(&op)
            ));
        }
    }

    // (b) Backoff schedules: pure functions of (seed, key, attempt).
    for seed in [0x5eed_0b0fu64, 0xD15E_A5E5] {
        for key in [0u64, (3u64 << 32) | 7, (1u64 << 32) | 63, u64::MAX] {
            for attempt in 1..=6u32 {
                out.push_str(&format!(
                    "B {seed:016x} {key:016x} {attempt} {}\n",
                    retry_backoff(seed, key, attempt).as_nanos()
                ));
            }
        }
    }

    // (c) Live served answers with shard 1 down: every re-routed query
    // must land on the same replica and answer the same path.
    let engine = mk();
    engine.set_health(1, ShardHealth::Down);
    let mut path = Vec::new();
    for u in 0..N as u32 {
        for v in ((u + 1)..N as u32).step_by(9) {
            let op = Op::FindPath { u, v };
            match engine.call(op, &mut path) {
                Ok(QueryOutcome::Full) => {
                    out.push_str(&format!(
                        "F {u} {v} {} {path:?}\n",
                        engine.dispatch_for(&op)
                    ));
                }
                Ok(QueryOutcome::Degraded {
                    reason,
                    achieved_stretch,
                }) => {
                    out.push_str(&format!(
                        "D {u} {v} {path:?} {reason:?} {:016x}\n",
                        achieved_stretch.to_bits()
                    ));
                }
                Ok(QueryOutcome::Stats) | Ok(QueryOutcome::Mutation { .. }) => {
                    out.push_str("unreachable\n")
                }
                Err(e) => out.push_str(&format!("E {u} {v} {e}\n")),
            }
        }
    }
    out
}

#[test]
fn failover_targets_and_retry_schedules_are_stable_across_processes() {
    let serialized = serialize_outcomes();
    let local_hash = fnv1a(serialized.as_bytes());

    if std::env::var(CHILD_ENV).is_ok() {
        println!("{HASH_MARKER}{local_hash:016x}");
        return;
    }

    assert!(
        serialized.lines().any(|l| l.starts_with('F')),
        "the fixture must exercise full served answers:\n{serialized}"
    );
    // The scripted outages must actually re-route something.
    assert!(
        serialized.lines().any(|l| {
            let mut it = l.split_whitespace();
            it.next() == Some("T") && {
                let cols: Vec<_> = it.collect();
                cols.len() == 4 && cols[2] != cols[3]
            }
        }),
        "no dispatch table entry failed over:\n{serialized}"
    );

    let exe = std::env::current_exe().expect("test binary path");
    for workers in [1usize, 4, 16] {
        let output = Command::new(&exe)
            .args([
                "failover_targets_and_retry_schedules_are_stable_across_processes",
                "--exact",
                "--nocapture",
            ])
            .env(CHILD_ENV, "1")
            .env(hopspan::pipeline::WORKERS_ENV, workers.to_string())
            .output()
            .expect("re-exec the test binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "child with {workers} workers failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let child_hash = extract(&stdout, HASH_MARKER)
            .unwrap_or_else(|| panic!("no hash marker in child output:\n{stdout}"));
        assert_eq!(
            child_hash,
            format!("{local_hash:016x}"),
            "failover dispatch or retry schedule differs between this \
             process and a child with HOPSPAN_WORKERS={workers}; \
             serialization:\n{serialized}"
        );
    }
}

/// Finds `marker` anywhere in the output and returns the token after
/// it (libtest may prefix the line).
fn extract(stdout: &str, marker: &str) -> Option<String> {
    let at = stdout.find(marker)? + marker.len();
    let rest = &stdout[at..];
    let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}
