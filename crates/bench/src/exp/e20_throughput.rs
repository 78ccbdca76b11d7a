//! E20 — analyst read-path throughput: scalar vs batched Algorithm 2,
//! and the grouped multi-value scan against per-term scans.
//!
//! The paper's mechanism is built for population scale, so the analyst
//! pipeline must sustain shard scans over millions of sketches. This
//! experiment measures queries/second of the pre-refactor scalar path
//! (one input encoding and allocation per record) against the columnar
//! batched pipeline (snapshot + template splicing + batch PRF).
//!
//! It then sweeps k = 1..8 at 8 192 and 278 528 records a subset: one
//! `count_terms` call over all `2^k` value terms of a subset (one scan:
//! each record block's `(id, key)` state computed once, one final PRF
//! block per value) against `2^k` single-term `count_terms` calls (the
//! fastest alternative: one lane scan per term). The counts must be
//! equal; full mode asserts grouped ≥ 0.95× per-term at every k, quick
//! mode (the CI smoke) ≥ 0.8×.
//!
//! Besides the printed tables it emits `BENCH_throughput.json` (its
//! only writer) in the working directory so the numbers accumulate a
//! performance trajectory across revisions.

use crate::common::{bench_header, Config};
use crate::report::{f, Table};
use psketch_core::{
    BitString, BitSubset, ConjunctiveEstimator, ConjunctiveQuery, Profile, SketchDb, Sketcher,
    UserId,
};
use std::time::Instant;

const EXP: u64 = 20;

/// Repetitions for one timing sample (the shard scan is measured
/// `reps` times and the best rate is reported, minimizing scheduler
/// noise).
fn best_rate(reps: u64, records: usize, mut scan: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            scan();
            records as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Runs E20.
///
/// # Panics
///
/// Panics if any batched or grouped count diverges, if a sweep cell
/// falls below the grouped/per-term floor, or if
/// `BENCH_throughput.json` cannot be written.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(1_000_000);
    let k = 8usize;
    let params = cfg.params(0.3, 10, EXP);
    let sketcher = Sketcher::new(params);
    let subset = BitSubset::range(0, k as u32);
    let db = SketchDb::new();
    let mut rng = cfg.rng(EXP, 0);
    for i in 0..m as u64 {
        let profile = Profile::from_bits(&vec![i % 3 == 0; k]);
        let sketch = sketcher
            .sketch(UserId(i), &profile, &subset, &mut rng)
            .expect("sketching at ell=10 cannot exhaust");
        db.insert(subset.clone(), UserId(i), sketch);
    }

    let estimator = ConjunctiveEstimator::new(params);
    let query = ConjunctiveQuery::new(subset.clone(), BitString::from_bits(&vec![true; k]))
        .expect("widths match");
    // Publish the snapshot once so neither contender pays it.
    let warm = estimator.estimate(&db, &query).expect("database populated");
    let reps = cfg.reps(5);

    let scalar_rate = best_rate(reps, m, || {
        let e = estimator.estimate_scalar(&db, &query).expect("populated");
        assert_eq!(e.raw.to_bits(), warm.raw.to_bits(), "scalar diverged");
    });
    let batched_rate = best_rate(reps, m, || {
        let e = estimator.estimate(&db, &query).expect("populated");
        assert_eq!(e.raw.to_bits(), warm.raw.to_bits(), "batched diverged");
    });

    let sweep = k_sweep(cfg, &estimator, &sketcher);

    let speedup = batched_rate / scalar_rate;
    let mut t = Table::new(
        format!("E20 — Algorithm 2 throughput at M = {m} (k = {k}, p = 0.3)"),
        &["path", "records/s", "queries/s (1 conj.)", "speedup"],
    );
    t.row(vec![
        "scalar (per-record encode)".into(),
        f(scalar_rate, 0),
        f(scalar_rate / m as f64, 2),
        "1.00x".into(),
    ]);
    t.row(vec![
        "batched (columnar + template)".into(),
        f(batched_rate, 0),
        f(batched_rate / m as f64, 2),
        format!("{speedup:.2}x"),
    ]);

    let mut sweep_table = Table::new(
        "E20 — one grouped scan over all 2^k values vs 2^k single-term scans".to_string(),
        &[
            "records",
            "k",
            "values",
            "grouped (ms)",
            "per-term (ms)",
            "speedup",
        ],
    );
    for row in &sweep {
        sweep_table.row(vec![
            row.records.to_string(),
            row.k.to_string(),
            (1usize << row.k).to_string(),
            f(row.grouped_ms, 3),
            f(row.per_term_ms, 3),
            format!("{:.2}x", row.speedup()),
        ]);
    }
    sweep_table.note(format!(
        "counts asserted equal; grouped asserted >= {}x per-term at every k",
        speed_floor(cfg)
    ));
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "{{\"records\": {}, \"k\": {}, \"grouped_ms\": {:.4}, \
                 \"per_term_ms\": {:.4}, \"speedup\": {:.3}}}",
                r.records,
                r.k,
                r.grouped_ms,
                r.per_term_ms,
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  {},\n  \"records\": {m},\n  \"width\": {k},\n  \"p\": 0.3,\n  \
         \"scalar_records_per_sec\": {scalar_rate:.1},\n  \"batched_records_per_sec\": {batched_rate:.1},\n  \
         \"batched_speedup\": {speedup:.3},\n  \"scalar_queries_per_sec\": {:.3},\n  \
         \"batched_queries_per_sec\": {:.3},\n  \
         \"k_sweep\": [\n    {}\n  ]\n}}\n",
        bench_header("e20_throughput"),
        scalar_rate / m as f64,
        batched_rate / m as f64,
        sweep_json.join(",\n    "),
    );
    if cfg.quick {
        // Quick mode runs tiny populations; don't clobber the committed
        // full-scale trajectory numbers.
        t.note("quick mode: BENCH_throughput.json not written");
    } else {
        std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
        t.note("wrote BENCH_throughput.json");
    }

    vec![t, sweep_table]
}

/// The grouped/per-term speed ratio every sweep cell must reach: 0.95
/// in full mode, 0.8 in quick mode (smoke sizes are noisier; a
/// regression like a lanes-across-values tally shows up as a multiple).
fn speed_floor(cfg: &Config) -> f64 {
    if cfg.quick {
        0.8
    } else {
        0.95
    }
}

/// One cell of the k-sweep.
struct SweepRow {
    records: usize,
    k: usize,
    grouped_ms: f64,
    per_term_ms: f64,
}

impl SweepRow {
    fn speedup(&self) -> f64 {
        self.per_term_ms / self.grouped_ms.max(1e-12)
    }
}

/// Wall time of one run of `run`, in milliseconds.
fn time_ms(run: impl FnOnce()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64() * 1e3
}

/// The k = 1..8 sweep at 8 192 and 278 528 records a subset (scaled
/// down in quick mode): grouped `count_terms` over all `2^k` terms vs
/// `2^k` single-term calls, counts asserted equal and the speed floor
/// asserted per cell.
fn k_sweep(cfg: &Config, estimator: &ConjunctiveEstimator, sketcher: &Sketcher) -> Vec<SweepRow> {
    let reps = if cfg.quick { 15 } else { cfg.reps(7) };
    let floor = speed_floor(cfg);
    let mut rows = Vec::new();
    for (size, records) in [8_192usize, 278_528].into_iter().enumerate() {
        let records = cfg.m(records);
        let db = SketchDb::new();
        let subsets: Vec<BitSubset> = (1..=8).map(|k| BitSubset::range(0, k)).collect();
        let mut rng = cfg.rng(EXP, 1 + size as u64);
        for i in 0..records as u64 {
            let bits: Vec<bool> = (0..8).map(|b| (i >> b) % 3 == 0).collect();
            let profile = Profile::from_bits(&bits);
            for subset in &subsets {
                let sketch = sketcher
                    .sketch(UserId(i), &profile, subset, &mut rng)
                    .expect("sketching at ell=10 cannot exhaust");
                db.insert(subset.clone(), UserId(i), sketch);
            }
        }
        for subset in &subsets {
            let k = subset.len();
            let terms: Vec<ConjunctiveQuery> = (0..1u64 << k)
                .map(|v| ConjunctiveQuery::new(subset.clone(), BitString::from_u64(v, k)))
                .collect::<Result<_, _>>()
                .expect("widths match");
            let grouped = estimator.count_terms(&db, &terms).expect("populated");
            let per_term: Vec<(u64, u64)> = terms
                .iter()
                .map(|t| {
                    estimator
                        .count_terms(&db, std::slice::from_ref(t))
                        .expect("populated")[0]
                })
                .collect();
            assert_eq!(
                grouped, per_term,
                "k = {k}: grouped counts diverged from per-term"
            );
            // Alternate the two sides rep by rep so a slow spell of the
            // host (a core taken away for a while) hits both alike; each
            // side reports its best run.
            let (mut grouped_ms, mut per_term_ms) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..reps {
                grouped_ms = grouped_ms.min(time_ms(|| {
                    let _ = estimator.count_terms(&db, &terms);
                }));
                per_term_ms = per_term_ms.min(time_ms(|| {
                    for t in &terms {
                        let _ = estimator.count_terms(&db, std::slice::from_ref(t));
                    }
                }));
            }
            let row = SweepRow {
                records,
                k,
                grouped_ms,
                per_term_ms,
            };
            assert!(
                row.speedup() >= floor,
                "k = {k} at {records} records: grouped scan ran {:.2}x per-term (floor {floor}x)",
                row.speedup()
            );
            rows.push(row);
        }
    }
    rows
}
