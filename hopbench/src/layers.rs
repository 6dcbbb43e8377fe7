//! The per-layer metrics of the traced run, with the layer each one
//! measures and the end-to-end metric it should move. Every traced run
//! reports every entry; a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

use crate::report::Report;

/// One per-layer metric.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Module the metric measures.
    pub layer: &'static str,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        layer,
        moves,
    }
}

// `p50_us` on serve-churn sits at the 2 ms per-connection send period
// while `Server::start` leaves Nagle's algorithm on for accepted
// sockets: each reply waits for the client's next segment. Until the
// server sets TCP_NODELAY, a shard, batch or dynamic-query change of
// up to about 1.7 ms cannot move it, so no entry names it.
const WIRE: &str = "p50_us on serve-query; nothing on build-snapshot";
const SHARD: &str = "p50_us on serve-query";
const QUERY: &str =
    "p50_us on serve-query (predicted share < 0.1% while the serve layer dominates)";
const STORE: &str = "setup_s on serve-query and build-snapshot";
const COVER: &str = "build_s on build-snapshot; build_s, visible_p50_ms on serve-churn";
const BUILD: &str = "build_s on build-snapshot";
const DYNAMIC: &str = "visible_p50_ms, build_s on serve-churn";
const TRACE: &str = "none: tracing cost of the workload's p50_us";

/// Every per-layer metric, in report order.
pub const CATALOGUE: &[Layer] = &[
    l("wire.encode_request_ns", "ns", "serve::wire", WIRE),
    l("wire.decode_request_ns", "ns", "serve::wire", WIRE),
    l("wire.encode_response_ns", "ns", "serve::wire", WIRE),
    l("wire.decode_response_ns", "ns", "serve::wire", WIRE),
    l("wire.request_bytes", "B", "serve::wire", WIRE),
    l("wire.response_bytes", "B", "serve::wire", WIRE),
    l("shard.call_us", "us", "serve::shard", SHARD),
    l("shard.queue_wait_us", "us", "serve::batch", SHARD),
    l("batch.mean_size", "count", "serve::batch", SHARD),
    l("batch.batches", "count", "serve::batch", SHARD),
    l("shard.shed", "count", "serve::shard", SHARD),
    l("shard.errors", "count", "serve::shard", SHARD),
    l(
        "server.transport_us",
        "us",
        "serve::server",
        "p50_us on serve-query",
    ),
    l(
        "server.stats_rtt_us",
        "us",
        "serve::server",
        "p50_us on serve-query",
    ),
    l(
        "server.reconcile_pct",
        "%",
        "serve::server",
        "none: gap between server.transport_us and server.stats_rtt_us",
    ),
    l("navigation.select_tree_ns", "ns", "core::navigation", QUERY),
    l("navigation.find_path_ns", "ns", "core::navigation", QUERY),
    l("navigation.hops_mean", "count", "core::navigation", QUERY),
    l("store.encode_ms", "ms", "store", STORE),
    l("store.write_ms", "ms", "store", STORE),
    l("store.read_ms", "ms", "store", STORE),
    l("store.decode_ms", "ms", "store", STORE),
    l("store.hx_hash_ms", "ms", "store", STORE),
    l("store.snapshot_bytes", "B", "store", STORE),
    l("cover.ramsey_s", "s", "tree-cover::ramsey", COVER),
    l("cover.trees", "count", "tree-cover::ramsey", COVER),
    l("cover.gamma", "ratio", "tree-cover::ramsey", COVER),
    l(
        "navigation.spanners_s",
        "s",
        "core::navigation + tree-spanner",
        BUILD,
    ),
    l("navigation.materialize_s", "s", "core::navigation", BUILD),
    l(
        "navigation.spanner_edges",
        "count",
        "core::navigation",
        BUILD,
    ),
    l("pipeline.workers", "count", "pipeline", BUILD),
    l("dynamic.insert_us", "us", "dynamic", DYNAMIC),
    l("dynamic.remove_us", "us", "dynamic", DYNAMIC),
    l("dynamic.mutation_rtt_us", "us", "dynamic + serve", DYNAMIC),
    l("dynamic.rebuild_ms", "ms", "dynamic", DYNAMIC),
    l("dynamic.rebuilds", "count", "dynamic", DYNAMIC),
    l("dynamic.reuse_ratio", "ratio", "dynamic", DYNAMIC),
    l("dynamic.reused_trees", "count", "dynamic", DYNAMIC),
    l("dynamic.tree_count", "count", "dynamic", DYNAMIC),
    l("dynamic.staleness_epochs", "count", "dynamic", DYNAMIC),
    l("trace.untraced_p50_us", "us", "benchmark", TRACE),
    l("trace.traced_p50_us", "us", "benchmark", TRACE),
    l("trace.overhead_us", "us", "benchmark", TRACE),
    l("trace.spans", "count", "benchmark", TRACE),
];

/// Adds every catalogue metric to `report`, 0 where `values` has none,
/// with the layer it measures and what it should move.
pub fn emit(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for name in values.keys() {
        debug_assert!(
            CATALOGUE.iter().any(|l| l.name == *name),
            "{name} is not in the catalogue"
        );
    }
    for l in CATALOGUE {
        let v = values.get(l.name).copied().unwrap_or(0.0);
        report.metric_with(
            l.name,
            v,
            l.unit,
            format!("{:<32} moves: {}", l.layer, l.moves),
        );
    }
}
