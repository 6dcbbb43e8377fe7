//! `serve-churn`: a dynamic engine in a separate server process under
//! open-loop load over two connections: `FindPath` between seed ids at
//! a fixed rate, and `INSERT`/`REMOVE` beside it. Inserts add fresh
//! points; removes retire only points this run inserted and saw become
//! navigable, so seed queries always stay in contract. Latency is timed
//! from each request's intended send time.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hopspan_core::MetricNavigator;
use hopspan_dynamic::DynConfig;
use hopspan_metric::EuclideanSpace;
use hopspan_serve::wire::{self, Response};
use hopspan_serve::{Op, QueryOutcome, ServeConfig, ServeError, ShardedNavigator};
use hopspan_store as store;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use hopbench::client::{Client, FrameBuf};
use hopbench::inputs::{self, stream};
use hopbench::layers;
use hopbench::openloop::{Lateness, LatenessLimit, Schedule};
use hopbench::poll::wait_readable;
use hopbench::proc::{field, Child};
use hopbench::report::Report;
use hopbench::stats::{median, Samples};
use hopbench::trace::{self, Span, Tracer};

use crate::serve_query::{self_p50, traced_build, traced_navigation, write_spans};
use crate::Ctx;

/// Seed points of the engine.
const N: usize = 2048;
/// `FindPath` rate of each connection (two connections: 1,000/s).
const FIND_PERIOD: Duration = Duration::from_millis(2);
/// Mutation rate of each connection (two connections: 20/s).
const MUTATION_PERIOD: Duration = Duration::from_millis(100);
/// How often a connection probes its oldest insert that is not yet
/// navigable.
const PROBE_PERIOD: Duration = Duration::from_millis(8);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// After the window, how long replies and pending inserts may take.
const DRAIN: Duration = Duration::from_secs(10);
/// The generator must stay within this lateness, or the run did not
/// offer the load it claims and is invalid.
const LATENESS_LIMIT: LatenessLimit = LatenessLimit {
    p99_ns: 10_000_000,
    max_ns: 250_000_000,
};

fn k() -> usize {
    DynConfig::default().k
}

/// A request in flight.
#[derive(Debug, Clone, Copy)]
enum Sent {
    Find { u: u32, v: u32 },
    Probe { id: u32, v: u32 },
    Insert { coords: [f64; 2] },
    Remove { id: u32 },
}

/// An insert waiting to become navigable.
#[derive(Debug)]
struct Pending {
    id: u32,
    due_ns: u64,
    epoch: u64,
    probing: bool,
}

/// What one connection did.
#[derive(Debug, Default)]
struct ConnOut {
    find: Samples,
    mutation: Samples,
    visible: Samples,
    lateness: Lateness,
    sent: u64,
    failed: u64,
    /// Probes answered "not yet navigable", as expected before a swap.
    early_probes: u64,
    skipped_removes: u64,
    /// Inserts still not navigable when the window closed.
    unresolved_inserts: u64,
    /// Replies to `FindPath` requests due within the window.
    finds_in_window: u64,
    /// When the last of those replies arrived, in ns after the start.
    last_find_ns: u64,
    inserted: Vec<(u32, [f64; 2])>,
    removed: Vec<u32>,
    staleness: u64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

impl ConnOut {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

/// One open-loop connection.
struct Conn<'a> {
    stream: TcpStream,
    frames: FrameBuf,
    buf: Vec<u8>,
    next_id: u64,
    inflight: HashMap<u64, (Sent, u64)>,
    pending: VecDeque<Pending>,
    navigable: VecDeque<u32>,
    max_epoch: u64,
    start: Instant,
    window_ns: u64,
    rng: ChaCha8Rng,
    ins_rng: ChaCha8Rng,
    tracer: Option<&'a mut Tracer>,
    spans_open: HashMap<u64, usize>,
    out: ConnOut,
}

impl Conn<'_> {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn send(&mut self, what: Sent, due_ns: u64) -> Result<(), String> {
        let op = match what {
            Sent::Find { u, v } => Op::FindPath { u, v },
            Sent::Probe { id, v } => Op::FindPath { u: id, v },
            Sent::Insert { coords } => Op::insert(&coords).map_err(|e| format!("{e}"))?,
            Sent::Remove { id } => Op::Remove { id },
        };
        let id = self.next_id;
        self.next_id += 1;
        self.buf.clear();
        if let Some(t) = self.tracer.as_deref_mut() {
            let root = t.open("request", None, id);
            t.span("wire.encode_request", Some(root), id, || {
                wire::encode_request_into(id, &op, &mut self.buf)
            });
            self.spans_open.insert(id, root);
        } else {
            wire::encode_request_into(id, &op, &mut self.buf);
        }
        use std::io::Write;
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        self.out.lateness.record(due_ns, self.now_ns());
        self.inflight.insert(id, (what, due_ns));
        self.out.sent += 1;
        Ok(())
    }

    /// Waits for replies until `until_ns` or until something arrives,
    /// and handles what arrived.
    fn receive(&mut self, until_ns: u64) -> Result<(), String> {
        let wait = Duration::from_nanos(until_ns.saturating_sub(self.now_ns()));
        let readable = wait_readable(&self.stream, wait).map_err(|e| format!("ppoll: {e}"))?;
        if !readable || !self.frames.fill(&mut self.stream)? {
            return Ok(());
        }
        let mut bodies = Vec::new();
        while let Some(body) = self.frames.next_frame()? {
            bodies.push(body.to_vec());
        }
        for body in bodies {
            let at = self.now_ns();
            self.reply(&body, at);
        }
        Ok(())
    }

    fn reply(&mut self, body: &[u8], at: u64) {
        let decoded = match self.tracer.as_deref_mut() {
            Some(t) => {
                let rid = wire::request_id_best_effort(body);
                let parent = self.spans_open.get(&rid).copied();
                let r = t.span("wire.decode_response", parent, rid, || decode(body));
                if let Some(root) = self.spans_open.remove(&rid) {
                    t.close(root);
                }
                r
            }
            None => decode(body),
        };
        let (rid, reply) = match decoded {
            Ok(r) => r,
            Err(e) => return self.out.fail(e),
        };
        let Some((what, due)) = self.inflight.remove(&rid) else {
            return self.out.fail(format!("reply for unknown request {rid}"));
        };
        let latency = at.saturating_sub(due);
        if let Response::Path { epoch, .. } | Response::Mutation { epoch, .. } = reply {
            if matches!(what, Sent::Find { .. }) {
                self.out.staleness = self.out.staleness.max(self.max_epoch.saturating_sub(epoch));
            }
            self.max_epoch = self.max_epoch.max(epoch);
        }
        match (what, reply) {
            (Sent::Find { u, v }, Response::Path { outcome, path, .. }) => {
                if let Err(e) = check_path(outcome, &path, u, v) {
                    return self.out.fail(e);
                }
                self.out.find.push(latency);
                self.out.finds_in_window += 1;
                self.out.last_find_ns = self.out.last_find_ns.max(at);
            }
            (
                Sent::Probe { id, v },
                Response::Path {
                    outcome,
                    path,
                    epoch,
                },
            ) => {
                if let Err(e) = check_path(outcome, &path, id, v) {
                    return self.out.fail(e);
                }
                let Some(i) = self.pending.iter().position(|p| p.id == id) else {
                    return;
                };
                let p = self.pending.remove(i).expect("index from position");
                self.out.visible.push(at.saturating_sub(p.due_ns));
                self.navigable.push_back(id);
                // Inserts committed before the answering epoch are likely
                // navigable too: probe them now rather than a tick apart,
                // so their samples are not delayed.
                self.probe_ready(epoch, at);
            }
            (Sent::Probe { id, .. }, Response::Error(ServeError::BadEndpoint { point }))
                if point == id =>
            {
                self.out.early_probes += 1;
                if let Some(p) = self.pending.iter_mut().find(|p| p.id == id) {
                    p.probing = false;
                }
            }
            (Sent::Insert { coords }, Response::Mutation { id, epoch }) => {
                self.out.mutation.push(latency);
                self.out.inserted.push((id, coords));
                self.pending.push_back(Pending {
                    id,
                    due_ns: due,
                    epoch,
                    probing: false,
                });
            }
            (Sent::Remove { id }, Response::Mutation { id: got, .. }) if got == id => {
                self.out.mutation.push(latency);
                self.out.removed.push(id);
            }
            (what, reply) => self.out.fail(format!("{what:?} answered {reply:?}")),
        }
    }

    /// Probes every pending insert committed before `epoch`.
    fn probe_ready(&mut self, epoch: u64, at: u64) {
        let ready: Vec<u32> = self
            .pending
            .iter()
            .filter(|p| p.epoch < epoch && !p.probing)
            .map(|p| p.id)
            .collect();
        for id in ready {
            self.probe(id, at);
        }
    }

    fn probe(&mut self, id: u32, due: u64) {
        let v = self.rng.gen_range(0..N as u32);
        if let Some(p) = self.pending.iter_mut().find(|p| p.id == id) {
            p.probing = true;
        }
        if let Err(e) = self.send(Sent::Probe { id, v }, due) {
            self.out.fail(e);
        }
    }

    fn run(mut self, offset: Duration) -> ConnOut {
        let find = Schedule {
            offset_ns: offset.as_nanos() as u64,
            period_ns: FIND_PERIOD.as_nanos() as u64,
        };
        let mutate = Schedule {
            offset_ns: find.offset_ns + MUTATION_PERIOD.as_nanos() as u64 / 4,
            period_ns: MUTATION_PERIOD.as_nanos() as u64,
        };
        let probe = Schedule {
            offset_ns: find.offset_ns,
            period_ns: PROBE_PERIOD.as_nanos() as u64,
        };
        let (mut fi, mut mi, mut pi) = (0u64, 0u64, 0u64);
        let drain_ns = self.window_ns + DRAIN.as_nanos() as u64;
        loop {
            let now = self.now_ns();
            if now >= self.window_ns {
                // No new requests after the window; wait for the replies
                // still due. Inserts not yet navigable stay unsampled:
                // with no further mutations the engine schedules no
                // rebuild to publish them.
                if self.inflight.is_empty() {
                    break;
                }
                if now >= drain_ns {
                    let lost = self.inflight.len();
                    self.out.failed += lost as u64;
                    self.out
                        .first_error
                        .get_or_insert(format!("{lost} replies missing after the drain"));
                    break;
                }
                if let Err(e) = self.receive(drain_ns) {
                    self.out.fail(e);
                    break;
                }
                continue;
            }
            let (next_find, next_mut, next_probe) = (find.due(fi), mutate.due(mi), probe.due(pi));
            let due = next_find.min(next_mut).min(next_probe);
            if due > now {
                if let Err(e) = self.receive(due.min(self.window_ns)) {
                    self.out.fail(e);
                    break;
                }
                continue;
            }
            let sent = if due == next_find {
                fi += 1;
                let (u, v) = inputs::pair(&mut self.rng, N);
                self.send(Sent::Find { u, v }, due)
            } else if due == next_mut {
                mi += 1;
                if mi % 2 == 1 {
                    let coords = [self.ins_rng.gen::<f64>(), self.ins_rng.gen::<f64>()];
                    self.send(Sent::Insert { coords }, due)
                } else if let Some(id) = self.navigable.pop_front() {
                    self.send(Sent::Remove { id }, due)
                } else {
                    self.out.skipped_removes += 1;
                    Ok(())
                }
            } else {
                pi += 1;
                let oldest = self.pending.front().filter(|p| !p.probing).map(|p| p.id);
                if let Some(id) = oldest {
                    self.probe(id, due);
                }
                Ok(())
            };
            if let Err(e) = sent {
                self.out.fail(e);
                break;
            }
        }
        self.out.unresolved_inserts = self.pending.len() as u64;
        if let Some(t) = self.tracer.take() {
            self.out.spans = t.take();
        }
        self.out
    }
}

fn decode(body: &[u8]) -> Result<(u64, Response), String> {
    let frame = wire::decode_frame(body).map_err(|e| format!("reply frame: {e}"))?;
    let r = wire::decode_response(&frame).map_err(|e| format!("reply payload: {e}"))?;
    Ok((frame.request_id, r))
}

/// A served path must run from `u` to `v` in at most k hops.
fn check_path(outcome: QueryOutcome, path: &[u32], u: u32, v: u32) -> Result<(), String> {
    let ok = outcome == QueryOutcome::Full
        && path.first() == Some(&u)
        && path.last() == Some(&v)
        && path.len() <= k() + 1;
    if ok {
        Ok(())
    } else {
        Err(format!("FindPath({u}, {v}) served {outcome:?} {path:?}"))
    }
}

/// Starts a dynamic server and waits for its first verified answer.
/// Returns the server, its connection, the set-up time and the
/// server's initial build time.
fn start_server(
    points: &std::path::Path,
    probe: (u32, u32),
) -> Result<(Child, Client, f64, f64), String> {
    let mut server = Child::spawn(
        "serve-dynamic",
        &["--points".into(), points.display().to_string()],
    )?;
    let (_, listen) = server.expect("LISTEN")?;
    let mut client = Client::connect(&listen[0])?;
    let reply = client.call(&Op::FindPath {
        u: probe.0,
        v: probe.1,
    })?;
    match &reply {
        Response::Path { outcome, path, .. } => check_path(*outcome, path, probe.0, probe.1)?,
        other => return Err(format!("set-up probe answered {other:?}")),
    }
    let setup = server.spawned.elapsed().as_secs_f64();
    Ok((server, client, setup, field::<f64>(&listen, 1)? / 1e9))
}

/// What a churn run measured, with what the server reported.
struct Churn {
    /// Per load phase, both connections' figures.
    phases: Vec<[ConnOut; 2]>,
    setups: Vec<f64>,
    builds: Vec<f64>,
    stats: hopspan_serve::MetricsSnapshot,
    /// The server's `SETTLED` report.
    settled: Vec<String>,
    settled_hx: u64,
    /// The live points at the end, in id order.
    live: EuclideanSpace,
    rss_mb: f64,
}

/// Drives both connections open loop for `window`, starting now.
fn load(
    ctx: &Ctx,
    streams: [TcpStream; 2],
    window: Duration,
    phase: u64,
    tracers: [Option<&mut Tracer>; 2],
) -> [ConnOut; 2] {
    let start = Instant::now();
    let mut conns = streams
        .into_iter()
        .zip(tracers)
        .zip(0u64..)
        .map(|((stream, tracer), i)| Conn {
            stream,
            frames: FrameBuf::default(),
            buf: Vec::with_capacity(128),
            next_id: 1,
            inflight: HashMap::new(),
            pending: VecDeque::new(),
            navigable: VecDeque::new(),
            max_epoch: 0,
            start,
            window_ns: window.as_nanos() as u64,
            rng: inputs::rng(ctx.seed, stream::QUERIES + i + 2 * phase),
            ins_rng: inputs::rng(ctx.seed, stream::INSERTS + i + 2 * phase),
            tracer,
            spans_open: HashMap::new(),
            out: ConnOut::default(),
        });
    let (a, b) = (
        conns.next().expect("two connections"),
        conns.next().expect("two connections"),
    );
    // The generator is this thread plus one more, one per connection.
    std::thread::scope(|s| {
        let other = s.spawn(move || b.run(FIND_PERIOD / 2));
        let mine = a.run(Duration::ZERO);
        [mine, other.join().expect("load thread does not panic")]
    })
}

/// Sets up [`SETUPS`] servers and drives the last one open loop for
/// what is left of `window` after the set-ups, but at least half of it
/// (a second time with spans when traced), then checks its counters and
/// settles its epoch.
fn churn(
    ctx: &Ctx,
    report: &mut Report,
    space: &EuclideanSpace,
    window: Duration,
    tracers: Option<[&mut Tracer; 2]>,
) -> Result<Churn, String> {
    let points = ctx.work.join("points.txt");
    inputs::write_points(&points, space)?;
    let started = Instant::now();
    let mut probe_rng = inputs::rng(ctx.seed, stream::SETUP);
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut last: Option<(Child, Client)> = None;
    for _ in 0..SETUPS {
        let (server, client, setup, build) =
            start_server(&points, inputs::pair(&mut probe_rng, N))?;
        setups.push(setup);
        builds.push(build);
        report.attempted += 1;
        if let Some((mut old, c)) = last.replace((server, client)) {
            drop(c);
            old.send("quit")?;
            old.finish()?;
        }
    }
    let (mut server, c0) = last.ok_or("no set-up ran")?;
    let window = window.saturating_sub(started.elapsed()).max(window / 2);
    let addr = c0.peer_addr()?;
    let c1 = Client::connect(&addr)?;
    let mut phases = vec![load(
        ctx,
        [c0.into_stream(), c1.into_stream()],
        window,
        0,
        [None, None],
    )];
    if let Some([t0, t1]) = tracers {
        // Opened like the untraced connections, so the two phases
        // differ only in tracing.
        let connect = || Client::connect(&addr).map(Client::into_stream);
        phases.push(load(
            ctx,
            [connect()?, connect()?],
            window,
            1,
            [Some(t0), Some(t1)],
        ));
    }

    // The set-up probe reached this server too.
    let mut requests = 1;
    let mut early = 0;
    let mut live: BTreeMap<u32, Vec<f64>> = (0..N)
        .map(|i| (i as u32, space.point(i).to_vec()))
        .collect();
    for o in phases.iter().flatten() {
        report.attempted += o.sent;
        report.failed += o.failed;
        requests += o.sent;
        early += o.early_probes;
        if let Some(e) = &o.first_error {
            report.note(format!("first failure: {e}"));
        }
        let mut late = o.lateness.clone();
        report.check(
            format!(
                "generator lateness p99 {:.3} ms, max {:.3} ms within {:.0} ms, {:.0} ms",
                late.p99_ns() as f64 / 1e6,
                late.max_ns() as f64 / 1e6,
                LATENESS_LIMIT.p99_ns as f64 / 1e6,
                LATENESS_LIMIT.max_ns as f64 / 1e6
            ),
            late.within(LATENESS_LIMIT),
        );
        for (id, c) in &o.inserted {
            live.insert(*id, c.to_vec());
        }
    }
    for o in phases.iter().flatten() {
        for id in &o.removed {
            live.remove(id);
        }
    }
    let mut stats_client = Client::connect(&addr)?;
    let stats = stats_client.stats()?;
    drop(stats_client);
    report.check(
        format!(
            "server completed {} requests, client sent {requests}",
            stats.completed
        ),
        stats.completed == requests,
    );
    report.check(
        format!(
            "server shed {} is 0 and its {} errors are the {early} probes of not yet navigable inserts",
            stats.shed, stats.errors
        ),
        stats.shed == 0 && stats.errors == early,
    );
    let rss_mb = server.peak_rss_mib()?;
    server.send("settle")?;
    let (_, settled) = server.expect("SETTLED")?;
    server.send("quit")?;
    server.finish()?;
    let settled_hx: u64 = field(&settled, 1)?;
    let published: usize = field(&settled, 2)?;
    report.check(
        format!(
            "settled epoch navigates {published} points, the client counts {}",
            live.len()
        ),
        published == live.len(),
    );
    Ok(Churn {
        phases,
        setups,
        builds,
        stats,
        settled,
        settled_hx,
        live: EuclideanSpace::from_points(&live.into_values().collect::<Vec<_>>()),
        rss_mb,
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let space = inputs::uniform_points(N, ctx.seed, 0);
    let window = Duration::from_secs_f64(ctx.seconds);
    let c = churn(ctx, &mut report, &space, window, None)?;
    // The settled epoch must equal a from-scratch build over the live
    // points, which the client tracked on its own.
    let cfg = DynConfig::default();
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(cfg.seed);
    let (scratch, _) = MetricNavigator::general_budgeted(&c.live, cfg.tree_budget, cfg.k, &mut rng)
        .map_err(|e| format!("from-scratch build: {e}"))?;
    let scratch_hx = store::hx_hash(&scratch);
    report.check(
        format!(
            "settled epoch hx_hash {:#x} equals the from-scratch build's {scratch_hx:#x}",
            c.settled_hx
        ),
        c.settled_hx == scratch_hx,
    );
    let (mut find, mut mutation, mut visible) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut lateness = Lateness::default();
    let (mut finds, mut skipped, mut unresolved, mut last) = (0, 0, 0, 0);
    for o in &c.phases[0] {
        find.extend(&o.find);
        mutation.extend(&o.mutation);
        visible.extend(&o.visible);
        lateness.merge(&o.lateness);
        finds += o.finds_in_window;
        last = last.max(o.last_find_ns);
        skipped += o.skipped_removes;
        unresolved += o.unresolved_inserts;
    }
    report.note(format!(
        "FindPath latency from intended send: {}",
        find.summary_us()
    ));
    report.note(format!(
        "INSERT/REMOVE round trip: {}",
        mutation.summary_us()
    ));
    report.note(format!(
        "mutation_p50_us {:.2}; insert to navigable: {}; not navigable by the window's end: {unresolved}; \
         removes skipped for want of a navigable insert: {skipped}",
        mutation.quantile_us(0.5),
        visible.summary_us()
    ));
    report.note(format!(
        "generator lateness over {} sends: p99 {:.3} ms, max {:.3} ms",
        lateness.sends(),
        lateness.p99_ns() as f64 / 1e6,
        lateness.max_ns() as f64 / 1e6
    ));
    report.note(format!(
        "settled epoch: {:?}",
        &c.settled[..6.min(c.settled.len())]
    ));
    report.note(format!(
        "server batches {} carrying {} jobs",
        c.stats.batches, c.stats.batched_jobs
    ));
    // The tail and the throughput are printed, not gated; the README
    // says why. Answers over the time from the window's
    // start to the last answer: a server that falls behind stretches
    // the denominator.
    report.note(format!(
        "FindPath p90 {:.2} us; {:.2} answers/s",
        find.quantile_us(0.9),
        finds as f64 / (last as f64 / 1e9)
    ));
    report.metric("setup_s", median(&c.setups), "s");
    report.metric("p50_us", find.quantile_us(0.5), "us");
    // The served navigator is rebuilt epoch after epoch during the
    // window; those builds, not the set-ups' first ones, are what churn
    // waits on.
    let rebuilds = rebuild_seconds(&c.settled);
    report.note(format!(
        "{} epoch rebuilds, median {:.4} s; first builds at set-up {:.4?} s",
        rebuilds.len(),
        median(&rebuilds),
        c.builds
    ));
    report.check(
        "the engine rebuilt at least one epoch",
        !rebuilds.is_empty(),
    );
    report.metric("build_s", median(&rebuilds), "s");
    report.metric("visible_p50_ms", visible.quantile_us(0.5) / 1e3, "ms");
    report.metric("rss_mb", c.rss_mb, "MiB");
    Ok(report)
}

/// The traced run: per-layer metrics of `serve-churn`.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let origin = Instant::now();
    let space = inputs::uniform_points(N, ctx.seed, 0);
    let window = Duration::from_secs_f64(ctx.seconds * 0.3);
    let (mut t0, mut t1) = (Tracer::new(origin), Tracer::new(origin));
    let mut c = churn(ctx, &mut report, &space, window, Some([&mut t0, &mut t1]))?;
    let traced_phase = c.phases.pop().ok_or("traced phase missing")?;
    let [mut untraced, mut traced_find, mut mutation] = [(); 3].map(|()| Samples::default());
    let mut staleness = 0;
    for o in &c.phases[0] {
        untraced.extend(&o.find);
        mutation.extend(&o.mutation);
        staleness = staleness.max(o.staleness);
    }
    let mut spans = Vec::new();
    for o in traced_phase {
        traced_find.extend(&o.find);
        staleness = staleness.max(o.staleness);
        trace::append(&mut spans, o.spans);
    }
    values.insert("batch.batches", c.stats.batches as f64);
    values.insert(
        "batch.mean_size",
        c.stats.batched_jobs as f64 / c.stats.batches.max(1) as f64,
    );
    values.insert("shard.shed", c.stats.shed as f64);
    values.insert("shard.errors", c.stats.errors as f64);

    // What the server's dynamic engine reported when it settled.
    let s = &c.settled;
    let trees: f64 = field(s, 3)?;
    let reused: f64 = field(s, 4)?;
    values.insert("dynamic.rebuild_ms", median(&rebuild_seconds(s)) * 1e3);
    values.insert("dynamic.rebuilds", field(s, 5)?);
    values.insert("dynamic.tree_count", trees);
    values.insert("dynamic.reused_trees", reused);
    values.insert("dynamic.reuse_ratio", reused / trees.max(1.0));
    values.insert("dynamic.staleness_epochs", staleness as f64);
    values.insert("dynamic.mutation_rtt_us", mutation.quantile_us(0.5));

    // The dynamic and shard layers in process: one engine with the
    // server's configuration, mutated and queried through its public
    // functions.
    let cfg = DynConfig::default();
    let seeds: Vec<Vec<f64>> = (0..N).map(|i| space.point(i).to_vec()).collect();
    let engine = ShardedNavigator::dynamic(&seeds, cfg, ServeConfig::default())
        .map_err(|e| format!("{e}"))?;
    let nav = engine
        .dynamic_handle()
        .ok_or("dynamic engine without a navigator")?;
    let mut t = Tracer::new(origin);
    let mut rng = inputs::rng(ctx.seed, stream::REPLAY);
    let mut inserted = VecDeque::new();
    for i in 0..200u64 {
        if i % 2 == 0 {
            let p = [rng.gen::<f64>(), rng.gen::<f64>()];
            let (id, _) = t
                .span("dynamic.insert", None, i, || nav.insert(&p))
                .map_err(|e| format!("insert: {e}"))?;
            inserted.push_back(id);
        } else if let Some(id) = inserted.pop_front() {
            t.span("dynamic.remove", None, i, || nav.remove(id))
                .map_err(|e| format!("remove: {e}"))?;
        }
        report.attempted += 1;
    }
    let until = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.1);
    let mut out = Vec::new();
    let mut i = 0;
    while Instant::now() < until {
        let (u, v) = inputs::pair(&mut rng, N);
        i += 1;
        let r = t.span("shard.call", None, i, || {
            engine.call(Op::FindPath { u, v }, &mut out)
        });
        report.attempted += 1;
        if let Err(e) = r
            .map_err(|e| format!("{e}"))
            .and_then(|o| check_path(o, &to_u32(&out), u, v))
        {
            report.failed += 1;
            report.note(format!("in-process call failed: {e}"));
        }
    }
    traced_navigation(
        &mut t,
        &mut values,
        &nav.published_navigator(),
        inputs::rng(ctx.seed, stream::REPLAY + 1),
        20_000,
    )?;
    drop(engine);
    drop(nav);
    trace::append(&mut spans, t.take());

    // The witness: a from-scratch build over the live points, traced
    // through the cover and spanner layers, equals the settled epoch.
    let mut t = Tracer::new(origin);
    let scratch = traced_build(
        &mut t,
        &mut values,
        &c.live,
        cfg.tree_budget,
        cfg.k,
        cfg.seed,
    )?;
    let scratch_hx = store::hx_hash(&scratch);
    report.check(
        format!(
            "settled epoch hx_hash {:#x} equals the from-scratch build's {scratch_hx:#x}",
            c.settled_hx
        ),
        c.settled_hx == scratch_hx,
    );
    trace::append(&mut spans, t.take());

    let by_name = trace::self_times_by_name(&spans);
    let p = |name: &str| self_p50(&by_name, name);
    let untraced_p50 = untraced.quantile_us(0.5);
    let traced_p50 = traced_find.quantile_us(0.5);
    let call_us = p("shard.call") / 1e3;
    values.insert("wire.encode_request_ns", p("wire.encode_request"));
    values.insert("wire.decode_response_ns", p("wire.decode_response"));
    values.insert("shard.call_us", call_us);
    values.insert(
        "shard.queue_wait_us",
        call_us - values["navigation.find_path_ns"] / 1e3,
    );
    values.insert("dynamic.insert_us", p("dynamic.insert") / 1e3);
    values.insert("dynamic.remove_us", p("dynamic.remove") / 1e3);
    values.insert("trace.untraced_p50_us", untraced_p50);
    values.insert("trace.traced_p50_us", traced_p50);
    values.insert("trace.overhead_us", traced_p50 - untraced_p50);
    values.insert("trace.spans", spans.len() as f64);
    write_spans(ctx, "serve-churn", &spans, &mut report)?;
    layers::emit(&mut report, &values);
    Ok(report)
}

/// The epoch rebuild times of a `SETTLED` report, in seconds.
fn rebuild_seconds(settled: &[String]) -> Vec<f64> {
    settled
        .get(6)
        .map(|csv| {
            csv.split(',')
                .filter_map(|x| x.parse::<f64>().ok())
                .map(|ns| ns / 1e9)
                .collect()
        })
        .unwrap_or_default()
}

fn to_u32(path: &[usize]) -> Vec<u32> {
    path.iter().map(|&p| p as u32).collect()
}
