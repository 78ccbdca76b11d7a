//! End-to-end and per-layer benchmark of the psketch service stack.
//!
//! One run executes one closed-loop workload against the public
//! surfaces (`Server` and `Client` over loopback, `Router` over
//! in-process shards, `Wal`), checks every answer against an in-process
//! oracle, and prints its metrics. See `README.md` beside this crate.

pub mod env;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

use std::fmt::Write as _;
use trace::Span;
use workloads::Ledger;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Samples per window for medians and for 99th percentiles.
use stats::{MEDIAN_WINDOW, P99_WINDOW};

/// A windowed quantile the run must support, or an error naming the
/// shortfall.
fn windowed(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let window = if q > 0.5 { P99_WINDOW } else { MEDIAN_WINDOW };
    stats::windowed(samples, window, q).ok_or_else(|| {
        format!(
            "{what}: {} samples do not fill one window of {window} for the {}th percentile",
            samples.len(),
            q * 100.0
        )
    })
}

/// The median of a handful of whole-phase samples.
fn median(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::median(samples).ok_or_else(|| format!("{what}: no samples"))
}

/// The end-to-end metrics of an untraced run. Latency metrics are
/// windowed quantiles (see [`stats::windowed`]); the sample count
/// printed is the pooled one.
///
/// # Errors
///
/// A metric without the samples its quantile needs.
pub fn end_to_end(ledger: &Ledger) -> Result<Vec<Metric>, String> {
    let l = ledger;
    // One submitter is a closed loop, so its rate is taken from the
    // median acknowledgement time, not from completed-over-elapsed.
    let batch_s = windowed(&l.batch_ms, 0.5, "ingest_subs_per_s")? / 1e3;
    Ok(vec![
        metric(
            "setup_s",
            median(&l.setup_s, "setup_s")?,
            "s",
            l.setup_s.len(),
        ),
        metric(
            "query_p50_ms",
            windowed(&l.query_ms, 0.5, "query_p50_ms")?,
            "ms",
            l.query_ms.len(),
        ),
        metric(
            "query_p99_ms",
            windowed(&l.query_ms, 0.99, "query_p99_ms")?,
            "ms",
            l.query_ms.len(),
        ),
        metric(
            "dense_p50_ms",
            windowed(&l.dense_ms, 0.5, "dense_p50_ms")?,
            "ms",
            l.dense_ms.len(),
        ),
        metric(
            "sparse_p50_ms",
            windowed(&l.sparse_ms, 0.5, "sparse_p50_ms")?,
            "ms",
            l.sparse_ms.len(),
        ),
        metric(
            "ingest_subs_per_s",
            l.batch_size as f64 / batch_s,
            "1/s",
            l.batch_ms.len(),
        ),
        metric(
            "recovery_s",
            median(&l.recovery_s, "recovery_s")?,
            "s",
            l.recovery_s.len(),
        ),
        metric(
            "disk_bytes_per_record",
            l.disk.0 / l.disk.1.max(1.0),
            "bytes",
            l.disk.1 as usize,
        ),
        metric("peak_rss_mb", env::peak_rss_mb(), "MiB", 1),
    ])
}

/// Durations (µs) of the selected spans.
fn us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.ns / 1e3).collect()
}

/// Summed duration (ns), summed work and count of the selected spans.
fn sum<'a>(spans: impl Iterator<Item = &'a Span>) -> (f64, f64, usize) {
    spans.fold((0.0, 0.0, 0), |(ns, work, n), s| {
        (ns + s.ns, work + s.work, n + 1)
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median or the top supported percentile at most `q`, `0` for none.
fn tail(samples: &[f64], q: f64) -> f64 {
    let q = stats::highest_supported_quantile(samples.len()).map_or(0.5, |top| top.min(q));
    stats::quantile(samples, q).unwrap_or(0.0)
}

/// The per-layer metrics of a traced run.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn per_layer(ledger: &Ledger, lanes: usize) -> Vec<Metric> {
    let tr = &ledger.tracer;
    let spans = tr.spans();
    let counts = &ledger.counts;
    let mut out = Vec::new();
    let mut push = |name, value, unit, samples| out.push(metric(name, value, unit, samples));

    // Children per span, for residues and per-request maxima.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let queries = tr.select(trace::ROOT, &["query"], false).count();
    let per_query = |x: f64| ratio(x, queries as f64);

    let (ns, _, n) = sum(tr.select("core.sketcher", &[], true));
    push(
        "core.sketcher.us_per_user",
        ratio(ns / 1e3, counts.users_sketched as f64),
        "us",
        n,
    );

    for (name, tag) in [
        ("core.estimator.sparse_ns_per_term_record", "sparse"),
        ("core.estimator.dense_ns_per_term_record", "dense"),
    ] {
        let (ns, work, n) = sum(tr.select("core.estimator", &[tag], false));
        push(name, ratio(ns, work), "ns", n);
    }
    // Term-records evaluated per answer, summed over every shard of a
    // fan-out.
    let term_records: f64 = tr
        .select("core.estimator", &[], false)
        .map(|s| s.work)
        .sum();
    let outputs: f64 = tr
        .select(trace::ROOT, &["query"], false)
        .map(|s| s.work)
        .sum();
    push(
        "core.estimator.records_per_answer",
        ratio(term_records, outputs),
        "count",
        queries,
    );
    push("core.estimator.lane_width", lanes as f64, "count", 1);

    let exec = us(tr.select("queries.engine", &[], false));
    push(
        "queries.engine.exec_us_p50",
        tail(&exec, 0.5),
        "us",
        exec.len(),
    );
    push(
        "queries.engine.exec_us_p99",
        tail(&exec, 0.99),
        "us",
        exec.len(),
    );
    push(
        "queries.engine.memo_reuse_ratio",
        ratio(
            counts.terms_reused as f64,
            (counts.terms_reused + counts.terms_scanned) as f64,
        ),
        "ratio",
        (counts.terms_reused + counts.terms_scanned) as usize,
    );
    let compile = us(tr.select("queries.plan", &[], false));
    push(
        "queries.plan.compile_us",
        tail(&compile, 0.5),
        "us",
        compile.len(),
    );
    let (_, terms, n) = sum(tr.select("queries.plan", &[], false));
    push(
        "queries.plan.terms_per_query",
        ratio(terms, n as f64),
        "count",
        n,
    );

    let rpc = us(tr.select("server.client", &["plan", "partial"], false));
    push("server.client.rpc_us_p50", tail(&rpc, 0.5), "us", rpc.len());
    push(
        "server.client.rpc_us_p99",
        tail(&rpc, 0.99),
        "us",
        rpc.len(),
    );
    push(
        "server.client.errors",
        ledger.client_errors as f64,
        "count",
        1,
    );
    let (ns, bytes, _) = sum(tr.select("server.wire", &["query"], false));
    push("server.wire.codec_us", per_query(ns / 1e3), "us", queries);
    push(
        "server.wire.bytes_per_query",
        per_query(bytes),
        "bytes",
        queries,
    );
    // Transport: each on-path RPC span minus its on-path children.
    let transport: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.layer == "server.client" && !s.setup && !s.off_path)
        .filter(|(_, s)| s.tag == "plan" || s.tag == "partial")
        .map(|(i, s)| {
            let inner: f64 = children[i]
                .iter()
                .map(|&c| &spans[c])
                .filter(|c| !c.off_path)
                .map(|c| c.ns)
                .sum();
            (s.ns - inner) / 1e3
        })
        .collect();
    push(
        "server.transport_us",
        tail(&transport, 0.5),
        "us",
        transport.len(),
    );

    // Router: its span, and the shard RPCs it waited for.
    let mut exec_us = Vec::new();
    let mut slowest = Vec::new();
    let mut overhead = Vec::new();
    let mut skew = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.layer != "cluster.router" || s.setup || s.tag != "plan" {
            continue;
        }
        let shard_ns: Vec<f64> = children[i]
            .iter()
            .map(|&c| &spans[c])
            .filter(|c| c.layer == "server.client")
            .map(|c| c.ns)
            .collect();
        let max = shard_ns.iter().copied().fold(0.0, f64::max);
        let min = shard_ns.iter().copied().fold(f64::INFINITY, f64::min);
        exec_us.push(s.ns / 1e3);
        slowest.push(max / 1e3);
        overhead.push((s.ns - max) / 1e3);
        skew.push(ratio(max, min));
    }
    push(
        "cluster.router.exec_us",
        tail(&exec_us, 0.5),
        "us",
        exec_us.len(),
    );
    push(
        "cluster.router.shard_rpc_max_us",
        tail(&slowest, 0.5),
        "us",
        slowest.len(),
    );
    push(
        "cluster.router.overhead_us",
        tail(&overhead, 0.5),
        "us",
        overhead.len(),
    );
    push(
        "cluster.router.shard_skew",
        tail(&skew, 0.5),
        "ratio",
        skew.len(),
    );
    push(
        "cluster.router.errors",
        ledger.router_errors as f64,
        "count",
        1,
    );

    // Ingest side: set-up ingest counts too (it is the ingest phase of
    // `scan-heavy` and `cluster-small`).
    let (ns, subs, batches) = sum(tr.select("protocol.coordinator", &[], true));
    push(
        "protocol.coordinator.accept_us_per_batch",
        ratio(ns / 1e3, batches as f64),
        "us",
        batches,
    );
    let (ns, bytes, n) = sum(tr.select("server.wire", &["submit-decode"], true));
    push(
        "server.wire.submit_decode_us_per_batch",
        ratio(ns / 1e3, n as f64),
        "us",
        n,
    );
    push(
        "server.wire.submit_bytes_per_sub",
        ratio(bytes, subs),
        "bytes",
        n,
    );
    let append = us(tr.select("server.wal", &["append"], true));
    push(
        "server.wal.append_fsync_us_p50",
        tail(&append, 0.5),
        "us",
        append.len(),
    );
    push(
        "server.wal.append_fsync_us_p99",
        tail(&append, 0.99),
        "us",
        append.len(),
    );
    let compact = us(tr.select("server.wal", &["compact"], true));
    push(
        "server.wal.compactions",
        compact.len() as f64,
        "count",
        compact.len(),
    );
    push(
        "server.wal.compact_ms",
        stats::mean(&compact) / 1e3,
        "ms",
        compact.len(),
    );
    let replay = us(tr.select("server.wal", &["replay"], true));
    push(
        "server.wal.replay_ms",
        stats::mean(&replay) / 1e3,
        "ms",
        replay.len(),
    );
    push(
        "server.wal.bytes_per_record",
        ratio(counts.wal_disk.0, counts.wal_disk.1),
        "bytes",
        1,
    );
    push("server.wal.errors", counts.wal_errors as f64, "count", 1);

    let (ns, bytes, n) = sum(tr.select("core.database", &[], false));
    push("core.database.republish_us", per_query(ns / 1e3), "us", n);
    push(
        "core.database.republish_bytes_per_query",
        per_query(bytes),
        "bytes",
        n,
    );

    // Self-time shares of the measured phase.
    let selfs = ledger.tracer.self_times();
    let total: f64 = selfs.values().sum();
    for (name, layer) in [
        ("core.estimator.self_frac", "core.estimator"),
        ("core.database.self_frac", "core.database"),
        ("queries.engine.self_frac", "queries.engine"),
        ("queries.plan.self_frac", "queries.plan"),
        ("server.wire.self_frac", "server.wire"),
        ("server.transport.self_frac", "server.transport"),
        ("server.wal.self_frac", "server.wal"),
        ("protocol.coordinator.self_frac", "protocol.coordinator"),
        ("cluster.router.self_frac", "cluster.router"),
    ] {
        push(
            name,
            ratio(selfs.get(layer).copied().unwrap_or(0.0), total),
            "frac",
            1,
        );
    }
    push(
        "trace.unattributed_frac",
        ratio(
            selfs.get(trace::UNATTRIBUTED).copied().unwrap_or(0.0),
            total,
        ),
        "frac",
        queries,
    );

    // Tracing overhead: per catalog plan, traced against untraced RPC
    // medians from the same interleaved run.
    let (mut traced, mut plain, mut n) = (0.0, 0.0, 0);
    for (untraced, with) in &ledger.by_plan {
        if let (Some(u), Some(t)) = (stats::median(untraced), stats::median(with)) {
            plain += u;
            traced += t;
            n += untraced.len() + with.len();
        }
    }
    push("trace.overhead_frac", ratio(traced, plain) - 1.0, "frac", n);
    push(
        "trace.replay_errors",
        counts.replay_errors as f64,
        "count",
        1,
    );
    out
}

/// The result line: `correct`, `attempted`, `failed` and
/// every metric with its unit.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_expected_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[metric("a_ms", 1.25, "ms", 3), metric("b", 7.0, "count", 1)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
    }
}
