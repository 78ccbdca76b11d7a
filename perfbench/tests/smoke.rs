//! Tiny-size smoke of every workload, untraced and traced: each must
//! finish in seconds, answer correctly, fail no operation and produce
//! exactly the metrics `BENCHMARK.json` names.

use perfbench::workloads::{self, Options, Sizes, Workload};
use perfbench::{end_to_end, per_layer};
use std::path::PathBuf;

fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(workload),
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name())),
        threads: 2,
    };
    let ledger = workloads::run(&opts).expect("the workload runs");
    assert!(ledger.mismatches.is_empty(), "{:?}", ledger.mismatches);
    assert_eq!(ledger.failed, 0, "{:?}", ledger.errors);
    assert!(ledger.query_ms.len() >= 1000);
    let names: Vec<String> = if trace {
        per_layer(&ledger, psketch_prf::lanes::probe_lane_width())
            .iter()
            .map(|m| m.name.to_string())
            .collect()
    } else {
        let metrics = end_to_end(&ledger).expect("every percentile is supported");
        assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
        metrics.iter().map(|m| m.name.to_string()).collect()
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(names, want);
}

#[test]
fn scan_heavy() {
    smoke(Workload::ScanHeavy, false);
    smoke(Workload::ScanHeavy, true);
}

#[test]
fn ingest_mixed() {
    smoke(Workload::IngestMixed, false);
    smoke(Workload::IngestMixed, true);
}

#[test]
fn cluster_small() {
    smoke(Workload::ClusterSmall, false);
    smoke(Workload::ClusterSmall, true);
}
