//! The child roles: the processes the benchmark spawns. Each reports
//! through `KEY field…` lines on stdout and, when it serves, stays up
//! until its stdin says `quit` or closes.

use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hopspan_core::MetricNavigator;
use hopspan_dynamic::DynConfig;
use hopspan_metric::EuclideanSpace;
use hopspan_serve::{ServeConfig, Server, ShardedNavigator};
use hopspan_store as store;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hopbench::inputs::{self, BUDGET, K, STATIC_N};
use hopbench::proc::{peak_rss_mib, Child};
use hopbench::stats::Samples;

use crate::Ctx;

/// Runs child role `args[0]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let role = args.first().map(String::as_str).unwrap_or("");
    let opt = |name: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("child {role}: missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        opt(name)?
            .parse()
            .map_err(|e| format!("child {role}: {name}: {e}"))
    };
    match role {
        "build" => build(
            Path::new(&opt("--points")?),
            Path::new(&opt("--snapshot")?),
            num("--queries")? as usize,
            num("--query-seed")?,
        ),
        "boot" => boot(
            Path::new(&opt("--snapshot")?),
            num("--u")? as usize,
            num("--v")? as usize,
        ),
        "serve-static" => serve_static(Path::new(&opt("--snapshot")?)),
        "serve-dynamic" => serve_dynamic(Path::new(&opt("--points")?)),
        other => Err(format!("unknown child role {other:?}")),
    }
}

fn say(line: String) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    // A closed pipe means the parent is gone; the child then finishes
    // its work and exits on its own.
    let _sent = writeln!(out, "{line}").and_then(|()| out.flush());
}

fn path_csv(path: &[usize]) -> String {
    let ids: Vec<String> = path.iter().map(usize::to_string).collect();
    ids.join(",")
}

/// Spawns the `build` role on point set `set` of the run's seed: it
/// builds the static navigator, writes it to `snapshot`, reads it back
/// and then times `queries` verified queries drawn from `query_seed`.
pub fn spawn_build(
    ctx: &Ctx,
    set: u64,
    snapshot: &Path,
    queries: usize,
    query_seed: u64,
) -> Result<Child, String> {
    let points = ctx.work.join(format!("points-{set}.txt"));
    inputs::write_points(&points, &inputs::uniform_points(STATIC_N, ctx.seed, set))?;
    Child::spawn(
        "build",
        &[
            "--points".into(),
            points.display().to_string(),
            "--snapshot".into(),
            snapshot.display().to_string(),
            "--queries".into(),
            queries.to_string(),
            "--query-seed".into(),
            query_seed.to_string(),
        ],
    )
}

/// Points → built navigator → written snapshot → read, decoded and
/// verified navigator → verified answers, timing each step.
fn build(points: &Path, snapshot: &Path, queries: usize, query_seed: u64) -> Result<(), String> {
    let space = EuclideanSpace::from_points(&inputs::read_points(points)?);
    let t = Instant::now();
    let (nav, _gamma) = MetricNavigator::general_budgeted(
        &space,
        BUDGET,
        K,
        &mut ChaCha8Rng::seed_from_u64(inputs::BUILD_SEED),
    )
    .map_err(|e| format!("build: {e}"))?;
    let build_ns = t.elapsed().as_nanos();
    let hx = store::hx_hash(&nav);
    say(format!("BUILT {build_ns} {hx}"));

    store::write_snapshot_file(snapshot, &space, &nav, None).map_err(|e| format!("{e}"))?;
    say("WRITTEN".to_string());

    let t = Instant::now();
    let (decoded, _digest) = store::read_snapshot_file(snapshot).map_err(|e| format!("{e}"))?;
    let booted = decoded.navigator;
    let hx_booted = store::hx_hash(&booted);
    say(format!("BOOTED {} {hx_booted}", t.elapsed().as_nanos()));

    // Every answer of the booted navigator must equal the built one's.
    let n = hopspan_metric::Metric::len(&space);
    let mut rng = ChaCha8Rng::seed_from_u64(query_seed);
    let (mut got, mut want) = (Vec::with_capacity(K + 1), Vec::with_capacity(K + 1));
    let mut check = |(u, v): (u32, u32), got: &[usize], answered: bool| {
        answered
            && nav
                .find_path_into(u as usize, v as usize, &mut want)
                .is_ok()
            && got == want.as_slice()
            && got.len() <= K + 1
    };
    // The first verified answer makes the fresh points navigable.
    let (u, v) = inputs::pair(&mut rng, n);
    let answered = booted
        .find_path_into(u as usize, v as usize, &mut got)
        .is_ok();
    let ok = check((u, v), &got, answered);
    say(format!("FIRST {} {u} {v} {}", u8::from(ok), path_csv(&got)));

    // The timed answers come in one pass and are checked in a second,
    // so the built navigator the check walks stays out of the timed
    // loop's caches.
    let pairs: Vec<(u32, u32)> = (0..queries).map(|_| inputs::pair(&mut rng, n)).collect();
    let mut answers = Vec::with_capacity(queries * (K + 1));
    let mut ends = Vec::with_capacity(queries);
    let mut samples = Samples::with_capacity(queries);
    for &(u, v) in &pairs {
        let t = Instant::now();
        let r = booted.find_path_into(u as usize, v as usize, &mut got);
        samples.push(t.elapsed().as_nanos() as u64);
        answers.extend_from_slice(&got);
        ends.push((answers.len(), r.is_ok()));
    }
    let (mut failed, mut start) = (0u64, 0);
    for (&pair, &(end, answered)) in pairs.iter().zip(&ends) {
        failed += u64::from(!check(pair, &answers[start..end], answered));
        start = end;
    }
    say(format!(
        "QUERIES {} {failed} {} {} {}",
        samples.len(),
        samples.quantile_ns(0.5).unwrap_or(0),
        samples.quantile_ns(0.9).unwrap_or(0),
        samples.mean_ns()
    ));
    say(format!("RSS {}", peak_rss_mib("/proc/self/status")?));
    Ok(())
}

/// Cold start from a snapshot: read, decode and hash, then answer one
/// query.
fn boot(snapshot: &Path, u: usize, v: usize) -> Result<(), String> {
    let t = Instant::now();
    let (decoded, _digest) = store::read_snapshot_file(snapshot).map_err(|e| format!("{e}"))?;
    let hx = store::hx_hash(&decoded.navigator);
    say(format!("BOOTED {} {hx}", t.elapsed().as_nanos()));
    let path = decoded
        .navigator
        .find_path(u, v)
        .map_err(|e| format!("boot probe: {e}"))?;
    say(format!("FIRST {u} {v} {}", path_csv(&path)));
    Ok(())
}

/// Blocks until stdin says `quit` or closes, answering `settle` with
/// `on_settle`.
fn serve_until_quit(mut on_settle: impl FnMut()) {
    for line in std::io::stdin().lock().lines() {
        match line.as_deref().map(str::trim) {
            Ok("settle") => on_settle(),
            Ok("quit") | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// The static server: boots the snapshot and serves it over TCP.
fn serve_static(snapshot: &Path) -> Result<(), String> {
    let engine = ShardedNavigator::shared_from_snapshot(snapshot, ServeConfig::default())
        .map_err(|e| format!("boot: {e}"))?;
    let handle = Server::start(Arc::new(engine), "127.0.0.1:0").map_err(|e| format!("{e}"))?;
    say(format!("LISTEN {}", handle.local_addr()));
    serve_until_quit(|| {});
    handle.shutdown();
    Ok(())
}

/// The dynamic server: builds the first epoch and serves it over TCP;
/// `settle` drains every accepted mutation into a published epoch and
/// reports it.
fn serve_dynamic(points: &Path) -> Result<(), String> {
    let points = inputs::read_points(points)?;
    let t = Instant::now();
    let engine = ShardedNavigator::dynamic(&points, DynConfig::default(), ServeConfig::default())
        .map_err(|e| format!("build: {e}"))?;
    let build_ns = t.elapsed().as_nanos();
    let nav = engine
        .dynamic_handle()
        .ok_or("dynamic engine without a navigator")?;
    let handle = Server::start(Arc::new(engine), "127.0.0.1:0").map_err(|e| format!("{e}"))?;
    say(format!("LISTEN {} {build_ns}", handle.local_addr()));
    serve_until_quit(|| {
        let info = nav.flush();
        let rebuild_ns: Vec<String> = nav
            .drain_rebuild_nanos()
            .iter()
            .map(u64::to_string)
            .collect();
        say(format!(
            "SETTLED {} {} {} {} {} {} {}",
            info.id,
            info.hx,
            info.published_points,
            info.tree_count,
            info.reused_trees,
            nav.counters().rebuilds,
            if rebuild_ns.is_empty() {
                "-".to_string()
            } else {
                rebuild_ns.join(",")
            }
        ));
    });
    handle.shutdown();
    Ok(())
}
