//! `build-snapshot`: points → `MetricNavigator::general_budgeted` →
//! `HSNP` encode and write → read, decode and `hx_hash` verify, in a
//! child process per iteration, then a cold boot of the written
//! snapshot in a fresh process. No serve layer is involved.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hopspan_core::MetricNavigator;
use hopspan_store as store;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hopbench::inputs::{self, stream, BUDGET, K, STATIC_N as N};
use hopbench::layers;
use hopbench::proc::{field, Child};
use hopbench::report::Report;
use hopbench::stats::{mean, median, Samples};
use hopbench::trace::Tracer;

use crate::serve_query::{traced_build, traced_navigation, traced_store, write_spans};
use crate::{child, Ctx};

/// Timed queries on the booted navigator per iteration.
const QUERIES: usize = 200_000;
/// Iterations a run makes at least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 5;

/// `hx_hash` of the navigator built on point set 0 of a seed, pinned
/// when the benchmark was defined. A build that drifts from its pin
/// has changed the structure it builds, which no optimisation may do.
const PINS: &[(u64, u64)] = &[
    (0, 0xefc74954d6402069),
    (1, 0x9e637ee2ff8d768d),
    (2, 0x1d45c08b64c57c27),
    (3, 0x69d6302c8e31bdff),
    (4, 0xfb51c88bdfe4bf6e),
    (5, 0xf7dfdbc485f468d0),
    (6, 0xe4418369cffbb999),
    (7, 0x9e5381aa4c032bbe),
    (8, 0x1a4b0b74f1a9bfa0),
    (9, 0x26cb2ba3dfdbf416),
    (10, 0xc6a800b93c23ec0d),
    (11, 0xd5358980af93e59a),
    (12, 0xf2ca3cb6f38bb398),
    (13, 0x136805747d0a32b5),
    (14, 0xf5875fd9ba2464e6),
    (15, 0x7ccc0591dafdcf0c),
    (16, 0x19743feb442fd94e),
    (17, 0x3bff3de61e77a0bb),
    (18, 0xa23feb2c61d7d9ae),
    (19, 0xfb7bdc2d412b1887),
    (20, 0x4b5d5323876de8e8),
];

/// The pinned `hx_hash` of point set `set` of `seed`, if any.
fn pin(seed: u64, set: u64) -> Option<u64> {
    PINS.iter()
        .find(|&&(s, _)| s == seed && set == 0)
        .map(|&(_, h)| h)
}

/// One pipeline iteration's figures.
struct Iteration {
    build_s: f64,
    visible_s: f64,
    setup_s: f64,
    p50_us: f64,
    p90_us: f64,
    qps: f64,
    rss_mb: f64,
}

/// Builds, writes and boots point set `set`, then cold-boots it.
fn iterate(ctx: &Ctx, report: &mut Report, set: u64, query_seed: u64) -> Result<Iteration, String> {
    let snapshot = ctx.work.join(format!("build-snapshot-{set}.hsnp"));
    let mut b = child::spawn_build(ctx, set, &snapshot, QUERIES, query_seed)?;
    let (_, built) = b.expect("BUILT")?;
    let (_, booted) = b.expect("BOOTED")?;
    let (first_at, first) = b.expect("FIRST")?;
    let visible_s = (first_at - b.spawned).as_secs_f64();
    let (_, queries) = b.expect("QUERIES")?;
    let (_, rss) = b.expect("RSS")?;
    b.finish()?;

    let hx_built: u64 = field(&built, 1)?;
    let hx_booted: u64 = field(&booted, 1)?;
    let pinned = pin(ctx.seed, set).unwrap_or(hx_built);
    report.check(
        format!(
            "point set {set}: built {hx_built:#x}, decoded {hx_booted:#x} and pinned {pinned:#x} \
             hx_hash agree"
        ),
        hx_built == hx_booted && hx_built == pinned,
    );
    report.note(format!("point set {set} hx_hash {hx_built:#018x}"));
    report.check(
        "first answer of the booted navigator equals the built one's",
        first[0] == "1",
    );
    let count: u64 = field(&queries, 0)?;
    let failed: u64 = field(&queries, 1)?;
    report.attempted += count + 1;
    report.failed += failed + u64::from(first[0] != "1");

    // Cold boot of the written snapshot in a fresh process.
    let mut c = Child::spawn(
        "boot",
        &[
            "--snapshot".into(),
            snapshot.display().to_string(),
            "--u".into(),
            first[1].clone(),
            "--v".into(),
            first[2].clone(),
        ],
    )?;
    let (_, cold) = c.expect("BOOTED")?;
    let (answered_at, answer) = c.expect("FIRST")?;
    let setup_s = (answered_at - c.spawned).as_secs_f64();
    c.finish()?;
    let hx_cold: u64 = field(&cold, 1)?;
    let same_answer = answer.get(2) == first.get(3);
    report.check(
        format!("point set {set}: cold boot hx_hash {hx_cold:#x} equals the build's"),
        hx_cold == hx_built,
    );
    report.attempted += 1;
    report.failed += u64::from(!same_answer);

    Ok(Iteration {
        build_s: field::<f64>(&built, 0)? / 1e9,
        visible_s,
        setup_s,
        p50_us: field::<f64>(&queries, 2)? / 1e3,
        p90_us: field::<f64>(&queries, 3)? / 1e3,
        qps: 1e9 / field::<f64>(&queries, 4)?,
        rss_mb: field(&rss, 0)?,
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut qrng = inputs::rng(ctx.seed, stream::QUERIES);
    let start = Instant::now();
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut its = Vec::new();
    let mut last = Duration::ZERO;
    // Start another iteration only while it should end within the window.
    while its.len() < MIN_ITERATIONS || start.elapsed() + last <= window {
        let t = Instant::now();
        its.push(iterate(ctx, &mut report, its.len() as u64, qrng.gen())?);
        last = t.elapsed();
    }
    let m = |f: fn(&Iteration) -> f64| median(&its.iter().map(f).collect::<Vec<_>>());
    report.note(format!(
        "{} iterations, one point set each, of {QUERIES} timed queries",
        its.len()
    ));
    let each = |f: fn(&Iteration) -> f64| -> Vec<String> {
        its.iter().map(|i| format!("{:.4}", f(i))).collect()
    };
    report.note(format!(
        "build_s per iteration: {}",
        each(|i| i.build_s).join(" ")
    ));
    report.note(format!(
        "setup_s per iteration: {}",
        each(|i| i.setup_s).join(" ")
    ));
    report.note(format!(
        "p50_us per iteration: {}",
        each(|i| i.p50_us).join(" ")
    ));
    // The tail and the throughput are printed, not gated; the README
    // says why.
    report.note(format!(
        "in-process queries: p90 {:.4} us, {:.0} queries/s (medians over iterations)",
        m(|i| i.p90_us),
        m(|i| i.qps)
    ));
    report.metric("setup_s", m(|i| i.setup_s), "s");
    report.metric("p50_us", m(|i| i.p50_us), "us");
    report.metric("build_s", m(|i| i.build_s), "s");
    report.metric("visible_p50_ms", m(|i| i.visible_s) * 1e3, "ms");
    // Each point set's peak is a property of the set, not noise, so the
    // mean, not the median, summarizes the iterations.
    report.metric(
        "rss_mb",
        mean(&its.iter().map(|i| i.rss_mb).collect::<Vec<_>>()),
        "MiB",
    );
    Ok(report)
}

/// The traced run: per-layer metrics of `build-snapshot`.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let points = inputs::uniform_points(N, ctx.seed, 0);
    let seed = inputs::BUILD_SEED;
    let nav = traced_build(&mut t, &mut values, &points, BUDGET, K, seed)?;
    let snapshot = ctx.work.join("build-snapshot.hsnp");
    let decoded = traced_store(&mut t, &mut values, &points, &nav, &snapshot)?;

    // The traced build runs the same two steps as `general_budgeted`;
    // both must produce the same structure.
    let (plain, _gamma) =
        MetricNavigator::general_budgeted(&points, BUDGET, K, &mut ChaCha8Rng::seed_from_u64(seed))
            .map_err(|e| format!("build: {e}"))?;
    let hx = store::hx_hash(&nav);
    let mut agree = hx == store::hx_hash(&plain) && hx == store::hx_hash(&decoded);
    if let Some(pin) = pin(ctx.seed, 0) {
        agree &= hx == pin;
    }
    report.check("traced, untraced, decoded and pinned hx_hash agree", agree);

    // Query latency on the decoded navigator, untraced then traced.
    const REPLAYED: usize = 20_000;
    let mut untraced = Samples::with_capacity(REPLAYED);
    let mut rng = inputs::rng(ctx.seed, stream::REPLAY);
    let mut path = Vec::with_capacity(K + 1);
    for _ in 0..REPLAYED {
        let (u, v) = inputs::pair(&mut rng, N);
        let t0 = Instant::now();
        let r = decoded.find_path_into(u as usize, v as usize, &mut path);
        untraced.push(t0.elapsed().as_nanos() as u64);
        report.attempted += 1;
        report.failed += u64::from(r.is_err() || path.len() > K + 1);
    }
    traced_navigation(
        &mut t,
        &mut values,
        &decoded,
        inputs::rng(ctx.seed, stream::REPLAY),
        REPLAYED,
    )?;
    report.attempted += REPLAYED as u64;
    let spans = t.take();
    let untraced_p50 = untraced.quantile_us(0.5);
    let mut traced_q = Samples::default();
    for s in spans.iter().filter(|s| s.name == "navigation.find_path") {
        traced_q.push(s.duration());
    }
    let traced_p50 = traced_q.quantile_us(0.5);
    values.insert("trace.untraced_p50_us", untraced_p50);
    values.insert("trace.traced_p50_us", traced_p50);
    values.insert("trace.overhead_us", traced_p50 - untraced_p50);
    values.insert("trace.spans", spans.len() as f64);
    write_spans(ctx, "build-snapshot", &spans, &mut report)?;
    layers::emit(&mut report, &values);
    Ok(report)
}
