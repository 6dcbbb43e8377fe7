//! The hopspan benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hopbench/Cargo.toml -- \
//!     --workload <serve-query|serve-churn|build-snapshot> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it replays the workload through
//! the layers' public functions with spans and reports the per-layer
//! table. The last line of standard output is the JSON result.

mod build_snapshot;
mod child;
mod serve_churn;
mod serve_query;

use std::path::PathBuf;
use std::time::Duration;

use hopbench::proc::CHILD_FLAG;
use hopbench::report::Report;

/// A run is abandoned after this long, so it always ends within the
/// three minutes a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Parameters of one run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

fn parse(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let get = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok((get("--workload")?.to_string(), seed, seconds, trace))
}

fn run(args: &[String]) -> Result<Report, String> {
    let (workload, seed, seconds, trace) = parse(args)?;
    let out = PathBuf::from(".hopbench");
    let work = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        work,
        out,
    };
    let result = match (workload.as_str(), trace) {
        ("serve-query", false) => serve_query::run(&ctx),
        ("serve-query", true) => serve_query::traced(&ctx),
        ("serve-churn", false) => serve_churn::run(&ctx),
        ("serve-churn", true) => serve_churn::traced(&ctx),
        ("build-snapshot", false) => build_snapshot::run(&ctx),
        ("build-snapshot", true) => build_snapshot::traced(&ctx),
        (other, _) => Err(format!("unknown workload {other:?}")),
    };
    // The scratch directory holds only this run's inputs and snapshots.
    let _cleaned = std::fs::remove_dir_all(&ctx.work);
    result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(CHILD_FLAG) {
        if let Err(e) = child::run(&args[1..]) {
            eprintln!("hopbench child: {e}");
            std::process::exit(2);
        }
        return;
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("hopbench: run exceeded {WATCHDOG:?}; abandoned");
        // Exiting closes the children's stdin, which stops them.
        std::process::exit(3);
    });
    match run(&args) {
        Ok(report) => {
            print!("{}", report.render());
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("hopbench: {e}");
            std::process::exit(2);
        }
    }
}
