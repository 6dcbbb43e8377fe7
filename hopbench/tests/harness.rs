//! Tests of the benchmark harness itself: quantile selection, the
//! resolution of recorded latencies, lateness accounting and span
//! self-time arithmetic.

use std::time::Instant;

use hopbench::openloop::{Lateness, LatenessLimit, Schedule};
use hopbench::stats::{beyond, highest_reportable, median, nearest_rank, Samples, MIN_BEYOND};
use hopbench::trace::{self, Span};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&sorted, 0.5), Some(50));
    assert_eq!(nearest_rank(&sorted, 0.9), Some(90));
    assert_eq!(nearest_rank(&sorted, 0.99), Some(99));
    assert_eq!(nearest_rank(&sorted, 1.0), Some(100));
    assert_eq!(nearest_rank(&sorted, 0.0), Some(1));
    assert_eq!(nearest_rank(&[7], 0.5), Some(7));
    assert_eq!(nearest_rank(&[], 0.5), None);
    // Between ranks the quantile rounds up: 2 of 3 samples lie at or
    // below the 0.5-quantile.
    assert_eq!(nearest_rank(&[10, 20, 30], 0.5), Some(20));
    assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.5), Some(20));
}

#[test]
fn recorded_quantiles_are_exact_samples_at_any_scale() {
    // A power-of-two histogram reports 2^k bucket bounds; exact samples
    // must report the order statistic itself, so a 1.9x change in the
    // median is reported as exactly that.
    for scale in [1u64, 3, 1_000, 123_457, 1 << 40] {
        let mut s = Samples::default();
        for v in (1..=1000u64).rev() {
            s.push(v * scale);
        }
        assert_eq!(s.quantile_ns(0.5), Some(500 * scale));
        assert_eq!(s.quantile_ns(0.9), Some(900 * scale));
        let mut slower = Samples::default();
        for v in 1..=1000u64 {
            slower.push(v * scale * 19 / 10);
        }
        let ratio = slower.quantile_ns(0.5).unwrap() as f64 / s.quantile_ns(0.5).unwrap() as f64;
        assert!((ratio - 1.9).abs() < 1e-9, "ratio {ratio}");
    }
}

#[test]
fn samples_merge_and_resort() {
    let mut a = Samples::default();
    let mut b = Samples::default();
    for v in [5, 1, 9] {
        a.push(v);
    }
    assert_eq!(a.quantile_ns(1.0), Some(9));
    for v in [3, 7] {
        b.push(v);
    }
    a.extend(&b);
    assert_eq!(a.len(), 5);
    assert_eq!(a.quantile_ns(0.5), Some(5));
    assert_eq!(a.quantile_us(1.0), 0.009);
    assert!((a.mean_ns() - 5.0).abs() < 1e-12);
}

#[test]
fn the_reported_tail_has_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(beyond(1000, 0.999), 1);
    assert_eq!(highest_reportable(1000), Some(0.99));
    assert_eq!(highest_reportable(999), Some(0.9));
    assert_eq!(highest_reportable(10_000), Some(0.999));
    assert_eq!(highest_reportable(19), None);
    assert_eq!(highest_reportable(20), Some(0.5));
    for n in [20, 100, 1000, 5000, 65_536, 1_000_000] {
        let q = highest_reportable(n).unwrap();
        assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
    }
    let mut s = Samples::default();
    for v in 1..=1000 {
        s.push(v * 1000);
    }
    assert_eq!(s.summary_us(), "n=1000 p50=500.00us p99=990.00us");
}

#[test]
fn median_of_measurements() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn lateness_counts_how_far_sends_trailed_their_schedule() {
    let sched = Schedule {
        offset_ns: 1_000,
        period_ns: 2_000,
    };
    assert_eq!(sched.due(0), 1_000);
    assert_eq!(sched.due(3), 7_000);
    let mut late = Lateness::default();
    // On time, early (counts as on time), and 500 ns and 40 us late.
    late.record(sched.due(0), 1_000);
    late.record(sched.due(1), 2_900);
    late.record(sched.due(2), 5_500);
    late.record(sched.due(3), 47_000);
    assert_eq!(late.sends(), 4);
    assert_eq!(late.max_ns(), 40_000);
    assert_eq!(late.p99_ns(), 40_000);
    let loose = LatenessLimit {
        p99_ns: 50_000,
        max_ns: 50_000,
    };
    let tight = LatenessLimit {
        p99_ns: 50_000,
        max_ns: 10_000,
    };
    assert!(late.within(loose));
    assert!(!late.within(tight));

    // A second generator thread's record folds in.
    let mut other = Lateness::default();
    other.record(0, 90_000);
    late.merge(&other);
    assert_eq!(late.sends(), 5);
    assert_eq!(late.max_ns(), 90_000);
    assert!(!late.within(loose));
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // request [0, 100)
    //   encode [10, 20)
    //   socket [15, 70)   overlaps encode by 5
    //     server [30, 40)
    //   decode [90, 120)  runs past the parent's end
    let spans = vec![
        span("request", 0, 100, None),
        span("encode", 10, 20, Some(0)),
        span("socket", 15, 70, Some(0)),
        span("server", 30, 40, Some(2)),
        span("decode", 90, 120, Some(0)),
    ];
    let st = trace::self_times(&spans);
    // Children cover [10, 70) and [90, 100) of the request: 70.
    assert_eq!(st, vec![30, 10, 45, 10, 30]);
    let by_name = trace::self_times_by_name(&spans);
    assert_eq!(by_name["socket"], vec![45]);

    // A child covering its parent entirely leaves no self time, and
    // duplicate children count once.
    let spans = vec![
        span("call", 5, 15, None),
        span("inner", 0, 20, Some(0)),
        span("inner", 0, 20, Some(0)),
    ];
    assert_eq!(trace::self_times(&spans), vec![0, 20, 20]);
}

#[test]
fn appended_spans_keep_their_parents() {
    let mut all = vec![span("a", 0, 10, None)];
    let more = vec![span("b", 0, 10, None), span("c", 2, 4, Some(0))];
    trace::append(&mut all, more);
    assert_eq!(all[2].parent, Some(1));
    assert_eq!(trace::self_times(&all), vec![10, 8, 2]);
}

#[test]
fn tracer_nests_spans_on_one_clock() {
    let mut t = trace::Tracer::new(Instant::now());
    let root = t.open("root", None, 7);
    let inner = t.span("inner", Some(root), 7, || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        42
    });
    t.close(root);
    assert_eq!(inner, 42);
    let spans = t.take();
    assert_eq!(spans.len(), 2);
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    assert!(spans[1].duration() >= 2_000_000);
    let st = trace::self_times(&spans);
    assert_eq!(st[0], spans[0].duration() - spans[1].duration());
}

#[test]
fn benchmark_json_declares_exactly_the_traced_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json sits at the repository root")
        .split_whitespace()
        .collect();
    let per_layer = json
        .split_once("\"per_layer\":[")
        .expect("BENCHMARK.json has per_layer")
        .1;
    for l in hopbench::layers::CATALOGUE {
        let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", l.name, l.unit);
        assert!(per_layer.contains(&entry), "{entry} missing");
    }
    assert_eq!(
        per_layer.matches("\"name\":").count(),
        hopbench::layers::CATALOGUE.len()
    );
}
