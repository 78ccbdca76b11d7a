//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, last on standard
//! output, one JSON line: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Run it from the repository root; WAL stores and the trace file go
//! under `.perfbench/` there.

use perfbench::workloads::{self, Options, Sizes, Workload};
use perfbench::{end_to_end, env, per_layer, result_line};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <scan-heavy|ingest-mixed|cluster-small> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {value} is not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value} is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes: Sizes::full(workload),
        dir: PathBuf::from(".perfbench"),
        threads: env::nproc().min(2),
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lanes = psketch_prf::lanes::probe_lane_width();
    println!(
        "env workload={} seed={} seconds={} trace={} nproc={} load_threads={} lanes={} rev={} source={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env::nproc(),
        opts.threads,
        lanes,
        env::git_rev(),
        env::source_hash(Path::new(".")),
    );
    let ledger = match workloads::run(&opts) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "pool users={} shards={} subsets={} batch={}",
        opts.sizes.users, opts.sizes.shards, ledger.subsets, opts.sizes.batch
    );
    let metrics = if opts.trace {
        let path = opts.dir.join(format!(
            "trace-{}-seed{}.tsv",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = ledger.tracer.write(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "trace {} spans written to {}",
            ledger.tracer.spans().len(),
            path.display()
        );
        per_layer(&ledger, lanes)
    } else {
        match end_to_end(&ledger) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };
    for m in &metrics {
        println!(
            "metric {} {} {} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    // Printed, not gated: the append-and-fdatasync tail follows the
    // shared disk from run to run far more than the bounds allow.
    if let Some(p99) = perfbench::stats::windowed(&ledger.batch_ms, 1000, 0.99) {
        println!(
            "info ingest_batch_p99_ms {p99} ms samples={}",
            ledger.batch_ms.len()
        );
    }
    println!(
        "ops attempted={} failed={} ops_failed_frac={}",
        ledger.attempted,
        ledger.failed,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for e in &ledger.errors {
        println!("failed op: {e}");
    }
    for m in &ledger.mismatches {
        println!("oracle mismatch: {m}");
    }
    // A wrong answer is reported through `correct`; the exit code only
    // says whether a result was produced.
    let correct = ledger.mismatches.is_empty();
    println!(
        "{}",
        result_line(correct, ledger.attempted, ledger.failed, &metrics)
    );
    ExitCode::SUCCESS
}
