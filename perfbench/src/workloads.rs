//! The three closed-loop workloads and what they share: the analyst
//! loop, the ingest loop, restarts, the oracle checks and the traced
//! replays.

use crate::trace::{Tracer, ROOT};
use crate::world::{self, Design, Oracle, Query, Schedule};
use psketch_cluster::{Router, RouterConfig, ShardMap};
use psketch_core::{BitSubset, ConjunctiveEstimator, SketchDb};
use psketch_protocol::{Announcement, Coordinator, CoordinatorStats, ShardIdentity, Submission};
use psketch_queries::{LinearAnswer, QueryEngine, TermPlan};
use psketch_server::wire::{PlanAnswerWire, Request, Response};
use psketch_server::{Client, Server, ServerConfig, Wal, WalConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One server, a pool far larger than L2, reads only after set-up.
    ScanHeavy,
    /// One server, WAL on, a submitter beside an analyst.
    IngestMixed,
    /// Two shards in L2 behind a router, term-heavy plans.
    ClusterSmall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::ScanHeavy, Self::IngestMixed, Self::ClusterSmall];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ScanHeavy => "scan-heavy",
            Self::IngestMixed => "ingest-mixed",
            Self::ClusterSmall => "cluster-small",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn design(self) -> Design {
        match self {
            Self::ScanHeavy => world::scan_design(),
            Self::IngestMixed => world::ingest_design(),
            Self::ClusterSmall => world::cluster_design(),
        }
    }
}

/// Wall time of one `ingest-mixed` round on a 2-vCPU host, for turning
/// `--seconds` into a round count.
pub const INGEST_ROUND_SECONDS: f64 = 5.0;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Users in the pool (per round).
    pub users: usize,
    /// Submissions per acknowledged batch.
    pub batch: usize,
    /// Rounds per run; each sets the pool up from nothing, so
    /// `setup_s` is the median of one sample a round. `scan-heavy` and
    /// `cluster-small` run exactly this many, sharing `--seconds` of
    /// analyst time between them. An `ingest-mixed` round is a fixed
    /// amount of work of about [`INGEST_ROUND_SECONDS`]; it runs at
    /// least this many, and one more for each such share of
    /// `--seconds` beyond them.
    pub rounds: usize,
    /// Restarts from the WAL per round.
    pub restarts: usize,
    /// Queries a run must time at least (1000 supports p99).
    pub min_queries: usize,
    /// Ingest batches a run must time at least.
    pub min_batches: usize,
    /// `WalConfig::compact_threshold_bytes` of every server.
    pub compact_bytes: u64,
    /// Shard servers (`cluster-small`; 1 otherwise).
    pub shards: usize,
    /// `ingest-mixed`: plans the analyst runs per acknowledged batch.
    pub reads_per_batch: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full(workload: Workload) -> Self {
        match workload {
            // 2^18 + 2^14 users: every subset column holds more than
            // the 2^18 records above which the estimator splits a scan
            // across threads, at 16 B a record ≈ 4.3 MiB a column
            // against a 2 MiB L2.
            Workload::ScanHeavy => Self {
                users: (1 << 18) + (1 << 14),
                batch: 250,
                rounds: 4,
                restarts: 2,
                min_queries: 1000,
                min_batches: 1000,
                compact_bytes: 6 << 20,
                shards: 1,
                reads_per_batch: 0,
            },
            // 3 · 2^17 users × 5 subsets ≈ 2M records a round (6 MiB
            // columns), so each restart replays well over 0.1 s.
            Workload::IngestMixed => Self {
                users: 3 << 17,
                batch: 1000,
                rounds: 3,
                restarts: 2,
                min_queries: 1000,
                min_batches: 1000,
                compact_bytes: 6 << 20,
                shards: 1,
                reads_per_batch: 2,
            },
            // 8192 users a shard × 13 subsets × 16 B ≈ 1.6 MiB: inside
            // L2 and far below the parallel-scan threshold.
            Workload::ClusterSmall => Self {
                users: 2 * 8192,
                batch: 8,
                // Its short requests follow the host's wake-up latency,
                // which shifts from one stretch of seconds to the next;
                // more, shorter rounds sample more of those stretches.
                rounds: 8,
                restarts: 2,
                min_queries: 1000,
                min_batches: 1000,
                compact_bytes: 128 << 10,
                shards: 2,
                reads_per_batch: 0,
            },
        }
    }

    /// Sizes for a smoke test that finishes in seconds.
    #[must_use]
    pub fn tiny(workload: Workload) -> Self {
        Self {
            users: 1100,
            batch: 1,
            rounds: 1,
            restarts: 1,
            compact_bytes: 16 << 10,
            ..Self::full(workload)
        }
    }
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time, in seconds (runs also meet the sample minimums).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Work amounts.
    pub sizes: Sizes,
    /// Directory for WAL stores and the trace file.
    pub dir: PathBuf,
    /// Threads that run Algorithm 1 during set-up (≤ nproc).
    pub threads: usize,
}

/// Everything a run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Set-up wall times (s).
    pub setup_s: Vec<f64>,
    /// Analyst RPC wall times (ms), every query.
    pub query_ms: Vec<f64>,
    /// Dense-family query times (ms).
    pub dense_ms: Vec<f64>,
    /// Sparse-family query times (ms).
    pub sparse_ms: Vec<f64>,
    /// Submissions per ingest batch.
    pub batch_size: usize,
    /// Subsets every user sketches.
    pub subsets: usize,
    /// Batch acknowledgement times (ms).
    pub batch_ms: Vec<f64>,
    /// Restart-to-first-correct-answer times (s).
    pub recovery_s: Vec<f64>,
    /// Bytes of `wal.log` + `snapshot.bin` and the records they hold.
    pub disk: (f64, f64),
    /// Operations attempted (queries, batches, restarts).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// RPC failures seen by `Client` calls.
    pub client_errors: u64,
    /// Failures seen by `Router` calls.
    pub router_errors: u64,
    /// Oracle mismatches (fail the run).
    pub mismatches: Vec<String>,
    /// The first failed operations' errors.
    pub errors: Vec<String>,
    /// Per catalog entry: RPC times (ms) of untraced and traced queries
    /// of the traced run.
    pub by_plan: Vec<(Vec<f64>, Vec<f64>)>,
    /// Traced mode: the spans.
    pub tracer: Tracer,
    /// Traced mode: layer counters that are not durations.
    pub counts: Counts,
}

/// Traced-mode counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Engine terms reused (memo + plan dedup) over the replays.
    pub terms_reused: u64,
    /// Engine terms scanned over the replays.
    pub terms_scanned: u64,
    /// Failed calls on the scratch WAL.
    pub wal_errors: u64,
    /// Users sketched in the traced set-up.
    pub users_sketched: u64,
    /// Bytes of the scratch WAL store and the records it holds.
    pub wal_disk: (f64, f64),
    /// Replays whose call failed.
    pub replay_errors: u64,
}

impl Ledger {
    /// Whether the run holds the queries its metrics need: the minimum
    /// count, and a full median window of each family class.
    fn enough_queries(&self, sizes: &Sizes) -> bool {
        let window = crate::stats::MEDIAN_WINDOW;
        self.query_ms.len() >= sizes.min_queries
            && self.dense_ms.len() >= window
            && self.sparse_ms.len() >= window
    }

    fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    fn fail(&mut self, router: bool, what: String) {
        self.failed += 1;
        if router {
            self.router_errors += 1;
        } else {
            self.client_errors += 1;
        }
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: Ledger) {
        self.query_ms.extend(other.query_ms);
        self.dense_ms.extend(other.dense_ms);
        self.sparse_ms.extend(other.sparse_ms);
        self.batch_ms.extend(other.batch_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.client_errors += other.client_errors;
        self.router_errors += other.router_errors;
        for m in other.mismatches {
            self.mismatch(m);
        }
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        if self.by_plan.len() < other.by_plan.len() {
            self.by_plan.resize(other.by_plan.len(), Default::default());
        }
        for (mine, theirs) in self.by_plan.iter_mut().zip(other.by_plan) {
            mine.0.extend(theirs.0);
            mine.1.extend(theirs.1);
        }
        self.tracer.absorb(other.tracer);
        self.counts.terms_reused += other.counts.terms_reused;
        self.counts.terms_scanned += other.counts.terms_scanned;
        self.counts.wal_errors += other.counts.wal_errors;
        self.counts.replay_errors += other.counts.replay_errors;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one workload and returns its ledger.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (a server that cannot
/// start, a store that cannot be created).
pub fn run(opts: &Options) -> Result<Ledger, String> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;
    // Warm-up kept out of every timing: the lane probe.
    let _ = psketch_prf::lanes::probe_lane_width();
    let design = opts.workload.design();
    let mut ledger = Ledger {
        by_plan: vec![Default::default(); design.catalog.len()],
        batch_size: opts.sizes.batch,
        ..Ledger::default()
    };
    match opts.workload {
        Workload::ScanHeavy | Workload::ClusterSmall => pooled(opts, &design, &mut ledger)?,
        Workload::IngestMixed => ingest_mixed(opts, &design, &mut ledger)?,
    }
    Ok(ledger)
}

fn wal_config(dir: &Path, sizes: &Sizes) -> WalConfig {
    let mut config = WalConfig::new(dir);
    config.compact_threshold_bytes = sizes.compact_bytes;
    config
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}

fn store_bytes(dir: &Path) -> f64 {
    ["wal.log", "snapshot.bin"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()) as f64)
        .sum()
}

/// The servers of a workload: one, or one per shard.
struct Nodes {
    servers: Vec<Server>,
    dirs: Vec<PathBuf>,
}

impl Nodes {
    fn start(ann: &Announcement, dirs: &[PathBuf], sizes: &Sizes) -> Result<Self, String> {
        let shards = dirs.len() as u32;
        let servers = dirs
            .iter()
            .enumerate()
            .map(|(i, dir)| {
                Server::start(
                    "127.0.0.1:0",
                    ann.clone(),
                    ServerConfig {
                        wal: Some(wal_config(dir, sizes)),
                        shard: (shards > 1).then_some(ShardIdentity {
                            shard_id: i as u32,
                            shard_count: shards,
                        }),
                        ..ServerConfig::default()
                    },
                )
                .map_err(|e| format!("server start: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            servers,
            dirs: dirs.to_vec(),
        })
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(Server::local_addr).collect()
    }

    fn router(&self) -> Result<Router, String> {
        let map = ShardMap::new(1, self.addrs().iter().map(ToString::to_string))
            .map_err(|e| format!("shard map: {e}"))?;
        Router::new(
            map,
            RouterConfig {
                timeout: TIMEOUT,
                ..RouterConfig::default()
            },
        )
        .map_err(|e| format!("router: {e}"))
    }

    /// Stops every node, in parallel (each stop waits out its workers'
    /// poll tick).
    fn shutdown(self) {
        std::thread::scope(|scope| {
            for server in self.servers {
                scope.spawn(move || server.shutdown());
            }
        });
    }

    fn disk(&self) -> f64 {
        self.dirs.iter().map(|d| store_bytes(d)).sum()
    }

    fn stats(&self) -> Result<CoordinatorStats, String> {
        let per_node = self
            .addrs()
            .into_iter()
            .map(|addr| {
                Client::connect(addr, TIMEOUT)
                    .and_then(|mut c| c.stats())
                    .map_err(|e| format!("stats: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CoordinatorStats::merged(&per_node))
    }
}

/// Where analyst queries go.
trait Target {
    fn execute(&mut self, plan: &TermPlan) -> Result<Vec<LinearAnswer>, String>;
    /// Whether this target is a router (errors count as router errors).
    fn is_router(&self) -> bool;
    /// Re-establishes the session after a failure.
    fn reconnect(&mut self) -> bool;
}

struct ClientTarget {
    addr: SocketAddr,
    client: Client,
}

impl ClientTarget {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let client = Client::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        Ok(Self { addr, client })
    }
}

impl Target for ClientTarget {
    fn execute(&mut self, plan: &TermPlan) -> Result<Vec<LinearAnswer>, String> {
        self.client.execute_plan(plan).map_err(|e| e.to_string())
    }

    fn is_router(&self) -> bool {
        false
    }

    fn reconnect(&mut self) -> bool {
        match Client::connect(self.addr, TIMEOUT) {
            Ok(client) => {
                self.client = client;
                true
            }
            Err(_) => false,
        }
    }
}

impl Target for Router {
    fn execute(&mut self, plan: &TermPlan) -> Result<Vec<LinearAnswer>, String> {
        let answer = self.execute_plan(plan).map_err(|e| e.to_string())?;
        if answer.coverage.is_complete() {
            Ok(answer.outputs)
        } else {
            Err(format!("degraded answer: {:?}", answer.coverage))
        }
    }

    fn is_router(&self) -> bool {
        true
    }

    fn reconnect(&mut self) -> bool {
        // Shard workers reconnect (with backoff) on their own.
        true
    }
}

/// Checks every catalog plan against the oracle, and the merged node
/// stats against `stats`.
fn verify_all(
    target: &mut dyn Target,
    nodes: &Nodes,
    catalog: &[Query],
    oracle: &Oracle,
    stats: &CoordinatorStats,
    when: &str,
    ledger: &mut Ledger,
) {
    for (i, query) in catalog.iter().enumerate() {
        match target.execute(&query.plan) {
            Ok(answers) if oracle.matches(i, &answers) => {}
            Ok(answers) => ledger.mismatch(format!(
                "{when}: {} #{i}: {}",
                query.family,
                oracle.difference(i, &answers)
            )),
            Err(e) => ledger.mismatch(format!("{when}: {} #{i} failed: {e}", query.family)),
        }
    }
    // Every acknowledged record must be in the pool, subset by subset.
    let want = oracle.coordinator().pool();
    for subset in want.subsets() {
        let got: usize = nodes
            .servers
            .iter()
            .map(|s| s.coordinator().pool().count(&subset))
            .sum();
        if got != want.count(&subset) {
            ledger.mismatch(format!(
                "{when}: subset {subset:?} holds {got} records, expected {}",
                want.count(&subset)
            ));
        }
    }
    match nodes.stats() {
        Ok(got) if got == *stats => {}
        Ok(got) => ledger.mismatch(format!("{when}: stats {got:?}, expected {stats:?}")),
        Err(e) => ledger.mismatch(format!("{when}: {e}")),
    }
}

/// The traced run's lower-layer replays of one request.
struct Replayer<'a> {
    engine: QueryEngine,
    estimator: ConjunctiveEstimator,
    /// Per node: the pool the engine and estimator replays read, the
    /// pool the snapshot replays read, and a client for the per-node
    /// `partial_term_counts` replay.
    nodes: Vec<(&'a SketchDb, &'a SketchDb, Client)>,
    /// Last published column seen per (node, subset): a new address
    /// means the snapshot republished (cloned) the column.
    published: HashMap<(usize, BitSubset), usize>,
}

impl<'a> Replayer<'a> {
    fn new(
        ann: &Announcement,
        nodes: Vec<(&'a SketchDb, &'a SketchDb, SocketAddr)>,
    ) -> Result<Self, String> {
        let params = ann.validate().map_err(|e| e.to_string())?;
        let nodes = nodes
            .into_iter()
            .map(|(pool, db, addr)| {
                Client::connect(addr, TIMEOUT)
                    .map(|c| (pool, db, c))
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            engine: QueryEngine::new(params),
            estimator: ConjunctiveEstimator::new(params),
            nodes,
            published: HashMap::new(),
        })
    }

    /// `core.database`: one snapshot per subset the plan reads, on
    /// node `i`'s snapshot pool. Returns (time, republished bytes).
    fn snapshots(&mut self, i: usize, plan: &TermPlan) -> (Duration, f64) {
        let db = self.nodes[i].1;
        let mut took = Duration::ZERO;
        let mut bytes = 0.0;
        for subset in plan.required_subsets() {
            let started = Instant::now();
            let snap = db.snapshot(&subset);
            took += started.elapsed();
            if let Ok(snap) = snap {
                let addr = snap.ids().as_ptr() as usize;
                let before = self.published.insert((i, subset), addr);
                if before.is_some_and(|b| b != addr) {
                    bytes += (snap.len() * 16) as f64;
                }
            }
        }
        (took, bytes)
    }

    /// `core.estimator`: each subset group of the plan counted on its
    /// own, tagged dense or sparse by the estimator's grouping rule.
    fn estimator_groups(
        &self,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        i: usize,
        plan: &TermPlan,
        off: bool,
    ) {
        let pool = self.nodes[i].0;
        for (subset, terms) in world::subset_groups(plan) {
            let n = pool.count(&subset) as f64;
            let started = Instant::now();
            let counts = self.estimator.count_terms_partial(pool, &terms);
            let took = started.elapsed();
            std::hint::black_box(counts);
            let tag = if world::dense_group(subset.len(), terms.len()) {
                "dense"
            } else {
                "sparse"
            };
            tr.push(
                req,
                "core.estimator",
                tag,
                Some(parent),
                took,
                n * terms.len() as f64,
                off,
            );
        }
    }

    /// Replays a single-server plan request under `rpc` (the real
    /// `Client::execute_plan` span).
    fn single(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        rpc: usize,
        plan: &TermPlan,
        answers: &[LinearAnswer],
        counts: &mut Counts,
    ) {
        let started = Instant::now();
        let frame = Request::Plan {
            plan: plan.clone(),
            nonce: 1,
            profile: false,
        }
        .encode();
        let decoded = Request::decode(&frame);
        let reply = Response::PlanAnswers(
            answers.iter().cloned().map(PlanAnswerWire::from).collect(),
            None,
        )
        .encode();
        let back = Response::decode(&reply);
        let took = started.elapsed();
        counts.replay_errors += u64::from(decoded.is_err() || back.is_err());
        let bytes = (frame.len() + reply.len() + 8) as f64;
        tr.push(req, "server.wire", "query", Some(rpc), took, bytes, false);

        let (took, republished) = self.snapshots(0, plan);
        tr.push(
            req,
            "core.database",
            "",
            Some(rpc),
            took,
            republished,
            false,
        );

        let pool = self.nodes[0].0;
        let before = self.engine.stats();
        let started = Instant::now();
        let result = self.engine.execute_plan(pool, plan);
        let took = started.elapsed();
        counts.replay_errors += u64::from(result.is_err());
        let after = self.engine.stats();
        counts.terms_reused += after.terms_reused - before.terms_reused;
        counts.terms_scanned += after.terms_scanned - before.terms_scanned;
        let engine = tr.push(req, "queries.engine", "", Some(rpc), took, 0.0, false);
        self.estimator_groups(tr, req, engine, 0, plan, false);
    }

    /// Replays a routed plan request under `routed` (the real
    /// `Router::execute_plan` span): every shard's
    /// `partial_term_counts`, and below the slowest shard — the one the
    /// fan-out waits for — its codec, snapshot, engine and estimator.
    fn sharded(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        routed: usize,
        plan: &TermPlan,
        counts: &mut Counts,
    ) {
        let terms = plan.terms().to_vec();
        let mut rpc = Vec::new();
        for node in &mut self.nodes {
            let started = Instant::now();
            let result = node.2.partial_term_counts(&terms);
            rpc.push((started.elapsed(), result.ok()));
        }
        let slowest = (0..rpc.len()).max_by_key(|&i| rpc[i].0).unwrap_or(0);
        for (i, (took, result)) in rpc.into_iter().enumerate() {
            let off = i != slowest;
            let span = tr.push(
                req,
                "server.client",
                "partial",
                Some(routed),
                took,
                0.0,
                off,
            );

            let started = Instant::now();
            let frame = Request::PartialTermCounts {
                terms: terms.clone(),
                nonce: 1,
                profile: false,
            }
            .encode();
            let decoded = Request::decode(&frame);
            let reply = Response::PartialTermCounts(result.unwrap_or_default(), None).encode();
            let back = Response::decode(&reply);
            let took = started.elapsed();
            counts.replay_errors += u64::from(decoded.is_err() || back.is_err());
            let bytes = (frame.len() + reply.len() + 8) as f64;
            tr.push(req, "server.wire", "query", Some(span), took, bytes, off);

            let (took, republished) = self.snapshots(i, plan);
            tr.push(req, "core.database", "", Some(span), took, republished, off);

            let pool = self.nodes[i].0;
            let before = self.engine.stats();
            let started = Instant::now();
            let counted = self.engine.count_terms_partial(pool, &terms);
            let took = started.elapsed();
            std::hint::black_box(counted);
            let after = self.engine.stats();
            counts.terms_reused += after.terms_reused - before.terms_reused;
            counts.terms_scanned += after.terms_scanned - before.terms_scanned;
            let engine = tr.push(req, "queries.engine", "", Some(span), took, 0.0, off);
            self.estimator_groups(tr, req, engine, i, plan, off);
        }
    }
}

/// The closed-loop analyst: sends the scheduled catalog plans one at a
/// time while `more(ledger)` holds, timing each RPC. With an
/// oracle every answer is checked; with a replayer every other request
/// is traced.
#[allow(clippy::too_many_arguments)]
fn analyst(
    target: &mut dyn Target,
    catalog: &[Query],
    schedule: &mut Schedule,
    more: &dyn Fn(&Ledger) -> bool,
    oracle: Option<&Oracle>,
    mut replay: Option<&mut Replayer<'_>>,
    ledger: &mut Ledger,
) {
    let mut done = 0usize;
    while more(ledger) {
        let i = schedule.next_index();
        let query = &catalog[i];
        let traced = replay.is_some() && done % 2 == 1;
        done += 1;
        ledger.attempted += 1;
        let started = Instant::now();
        let (plan, compile) = if traced {
            let plan = (query.compile)();
            (plan, started.elapsed())
        } else {
            (query.plan.clone(), Duration::ZERO)
        };
        let sent = Instant::now();
        let result = target.execute(&plan);
        let rpc = sent.elapsed();
        let root = started.elapsed();
        let answers = match result {
            Ok(answers) => answers,
            Err(e) => {
                ledger.fail(target.is_router(), format!("{}: {e}", query.family));
                if !target.reconnect() {
                    return;
                }
                continue;
            }
        };
        if let Some(oracle) = oracle {
            if !oracle.matches(i, &answers) {
                ledger.mismatch(format!(
                    "{} #{i}: {}",
                    query.family,
                    oracle.difference(i, &answers)
                ));
            }
        }
        let took = ms(rpc);
        if let Some(replay) = replay.as_deref_mut() {
            let slot = &mut ledger.by_plan[i];
            if traced {
                slot.1.push(took);
                let tr = &mut ledger.tracer;
                let req = tr.request();
                let outputs = plan.outputs().len() as f64;
                let root = tr.push(req, ROOT, "query", None, root, outputs, false);
                tr.push(
                    req,
                    "queries.plan",
                    "",
                    Some(root),
                    compile,
                    plan.terms().len() as f64,
                    false,
                );
                if target.is_router() {
                    let span = tr.push(req, "cluster.router", "plan", Some(root), rpc, 0.0, false);
                    replay.sharded(tr, req, span, &plan, &mut ledger.counts);
                } else {
                    let span = tr.push(req, "server.client", "plan", Some(root), rpc, 0.0, false);
                    replay.single(tr, req, span, &plan, &answers, &mut ledger.counts);
                }
            } else {
                slot.0.push(took);
            }
        }
        ledger.query_ms.push(took);
        if query.dense {
            ledger.dense_ms.push(took);
        } else {
            ledger.sparse_ms.push(took);
        }
    }
}

/// Traced-mode ingest replays: the batch's codec, an `accept_batch` on
/// a mirror coordinator, and `record_batch` (plus compaction when due)
/// on a scratch WAL beside the server's, mirroring what the server did.
struct IngestMirror {
    wal: Option<Wal>,
    config: WalConfig,
}

impl IngestMirror {
    fn new(
        ann: &Announcement,
        dir: &Path,
        sizes: &Sizes,
        counts: &mut Counts,
    ) -> Result<Self, String> {
        fresh_dir(dir)?;
        let mut config = wal_config(dir, sizes);
        config.compact_threshold_bytes *= sizes.shards as u64;
        let (mut wal, _) = Wal::open(&config).map_err(|e| format!("scratch wal: {e}"))?;
        if wal.record_announcement(ann).is_err() {
            counts.wal_errors += 1;
        }
        Ok(Self {
            wal: Some(wal),
            config,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn batch(
        &mut self,
        coordinator: &Coordinator,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        batch: &[Submission],
        counts: &mut Counts,
    ) {
        let started = Instant::now();
        let frame = Request::SubmitBatch(batch.to_vec()).encode();
        let encode = started.elapsed();
        let started = Instant::now();
        let decoded = Request::decode(&frame);
        let decode = started.elapsed();
        let started = Instant::now();
        let reply = Response::SubmitAck {
            accepted: batch.len() as u64,
            rejected: 0,
        }
        .encode();
        let back = Response::decode(&reply);
        let ack = started.elapsed();
        counts.replay_errors += u64::from(decoded.is_err() || back.is_err());
        tr.push(
            req,
            "server.wire",
            "submit-decode",
            Some(parent),
            decode,
            (frame.len() + 4) as f64,
            false,
        );
        tr.push(
            req,
            "server.wire",
            "submit-encode",
            Some(parent),
            encode + ack,
            0.0,
            false,
        );

        if let Some(wal) = self.wal.as_mut() {
            let started = Instant::now();
            if wal.record_batch(batch).is_err() {
                counts.wal_errors += 1;
            }
            tr.push(
                req,
                "server.wal",
                "append",
                Some(parent),
                started.elapsed(),
                0.0,
                false,
            );
        }
        let started = Instant::now();
        let outcome = coordinator.accept_batch(batch);
        let took = started.elapsed();
        tr.push(
            req,
            "protocol.coordinator",
            "",
            Some(parent),
            took,
            outcome.accepted as f64,
            false,
        );
        if let Some(wal) = self.wal.as_mut() {
            if wal.should_compact() {
                let started = Instant::now();
                if wal.compact(coordinator).is_err() {
                    counts.wal_errors += 1;
                }
                tr.push(
                    req,
                    "server.wal",
                    "compact",
                    Some(parent),
                    started.elapsed(),
                    0.0,
                    false,
                );
            }
        }
    }

    /// Reopens the scratch store (a replay) and records its size.
    fn finish(&mut self, coordinator: &Coordinator, tr: &mut Tracer, counts: &mut Counts) {
        drop(self.wal.take());
        let req = tr.request();
        let started = Instant::now();
        match Wal::open(&self.config) {
            Ok((wal, _)) => {
                let took = started.elapsed();
                tr.push(req, "server.wal", "replay", None, took, 0.0, true);
                self.wal = Some(wal);
            }
            Err(_) => counts.wal_errors += 1,
        }
        counts.wal_disk.0 += store_bytes(&self.config.dir);
        counts.wal_disk.1 += coordinator.stats().records as f64;
    }
}

/// Sends `subs` in fixed batches through `send`, timing each
/// acknowledgement and reporting each finished batch to `pace`.
fn ingest(
    subs: &[Submission],
    sizes: &Sizes,
    send: &mut dyn FnMut(&[Submission]) -> Result<u64, String>,
    is_router: bool,
    mut mirror: Option<(&mut IngestMirror, &Coordinator)>,
    pace: Option<&Pace>,
    ledger: &mut Ledger,
) {
    for (b, batch) in subs.chunks(sizes.batch).enumerate() {
        if let Some(pace) = pace {
            pace.before_batch(b);
        }
        ledger.attempted += 1;
        let sent = Instant::now();
        let result = send(batch);
        let took = sent.elapsed();
        if let Err(e) = result {
            ledger.fail(is_router, format!("batch: {e}"));
        }
        ledger.batch_ms.push(ms(took));
        if let Some(pace) = pace {
            pace.batch_done();
        }
        if let Some((mirror, coordinator)) = mirror.as_mut() {
            let tr = &mut ledger.tracer;
            let req = tr.request();
            let root = tr.push(req, ROOT, "batch", None, took, batch.len() as f64, false);
            let (layer, tag) = if is_router {
                ("cluster.router", "submit")
            } else {
                ("server.client", "submit")
            };
            let span = tr.push(req, layer, tag, Some(root), took, 0.0, false);
            mirror.batch(coordinator, tr, req, span, batch, &mut ledger.counts);
        }
    }
}

fn submit_via_client(client: &mut Client) -> impl FnMut(&[Submission]) -> Result<u64, String> + '_ {
    move |batch| {
        let ack = client.submit_batch(batch).map_err(|e| e.to_string())?;
        if ack.rejected > 0 {
            return Err(format!("{} submissions rejected", ack.rejected));
        }
        Ok(ack.accepted)
    }
}

fn submit_via_router(router: &mut Router) -> impl FnMut(&[Submission]) -> Result<u64, String> + '_ {
    move |batch| {
        let report = router.submit_batch(batch).map_err(|e| e.to_string())?;
        if !report.fully_ingested() || report.rejected > 0 {
            return Err(format!("partial ingest: {report:?}"));
        }
        Ok(report.accepted)
    }
}

/// Records the sketching units of a traced set-up.
fn trace_sketching(ledger: &mut Ledger, units: &[Duration], users: usize) {
    let per_unit = users.div_ceil(units.len().max(1)) as f64;
    let tr = &mut ledger.tracer;
    for took in units {
        let req = tr.request();
        tr.push(req, "core.sketcher", "", None, *took, per_unit, true);
    }
    ledger.counts.users_sketched = users as u64;
}

fn node_dirs(opts: &Options, tag: &str) -> Vec<PathBuf> {
    (0..opts.sizes.shards)
        .map(|i| {
            opts.dir
                .join(format!("{}-{tag}-node{i}", opts.workload.name()))
        })
        .collect()
}

/// `scan-heavy` and `cluster-small`: rounds that each set a pool up
/// from nothing, run the analyst against it for their share of the
/// measured time, then restart from the WAL. Spreading the set-ups and
/// restarts over the run keeps a slow spell of the host out of most of
/// their samples.
fn pooled(opts: &Options, design: &Design, ledger: &mut Ledger) -> Result<(), String> {
    let sizes = &opts.sizes;
    let routed = opts.workload == Workload::ClusterSmall;
    let ann = world::announcement(opts.seed, 12, sizes.users, &design.catalog);
    ledger.subsets = ann.subsets.len();
    let slice = opts.seconds / sizes.rounds as f64;
    let mut oracle: Option<(Oracle, CoordinatorStats)> = None;
    for round in 0..sizes.rounds {
        let last = round + 1 == sizes.rounds;
        let traced = opts.trace && round == 0;
        ledger.tracer.in_setup = true;
        let started = Instant::now();
        let (subs, units) =
            world::sketch_users(&design.model, &ann, sizes.users, opts.seed, opts.threads);
        let dirs = node_dirs(opts, &format!("round{}", round % 2));
        for dir in &dirs {
            fresh_dir(dir)?;
        }
        let mut nodes = Nodes::start(&ann, &dirs, sizes)?;
        let mut mirror = if traced {
            let scratch =
                IngestMirror::new(&ann, &opts.dir.join("mirror"), sizes, &mut ledger.counts)?;
            Some((scratch, Coordinator::new(ann.clone())))
        } else {
            None
        };
        if routed {
            let mut router = nodes.router()?;
            let mut send = submit_via_router(&mut router);
            let mirror = mirror.as_mut().map(|(m, c)| (m, &*c));
            ingest(&subs, sizes, &mut send, true, mirror, None, ledger);
        } else {
            let mut client =
                Client::connect(nodes.addrs()[0], TIMEOUT).map_err(|e| format!("connect: {e}"))?;
            let mut send = submit_via_client(&mut client);
            let mirror = mirror.as_mut().map(|(m, c)| (m, &*c));
            ingest(&subs, sizes, &mut send, false, mirror, None, ledger);
        }
        // Warm-up: the first snapshot publish of every subset.
        let mut warm = target_for(&nodes, routed)?;
        for query in &design.catalog {
            let _ = warm.execute(&query.plan);
        }
        drop(warm);
        ledger.setup_s.push(started.elapsed().as_secs_f64());
        if traced {
            trace_sketching(ledger, &units, sizes.users);
            if let Some((m, c)) = mirror.as_mut() {
                m.finish(c, &mut ledger.tracer, &mut ledger.counts);
            }
        }
        ledger.tracer.in_setup = false;
        let (oracle, expected) = oracle.get_or_insert_with(|| {
            let oracle = Oracle::new(&ann, &subs, &design.catalog);
            let expected = oracle.coordinator().stats();
            (oracle, expected)
        });
        drop(subs);
        ledger.disk.0 += nodes.disk();
        ledger.disk.1 += expected.records as f64;
        {
            let mut target = target_for(&nodes, routed)?;
            verify_all(
                target.as_mut(),
                &nodes,
                &design.catalog,
                oracle,
                expected,
                &format!("round {round} after set-up"),
                ledger,
            );
            let mut replayer = if opts.trace {
                let views = nodes
                    .servers
                    .iter()
                    .map(|s| {
                        (
                            s.coordinator().pool(),
                            s.coordinator().pool(),
                            s.local_addr(),
                        )
                    })
                    .collect();
                Some(Replayer::new(&ann, views)?)
            } else {
                None
            };
            let mut schedule = Schedule::new(opts.seed, 1 + round as u64, design.catalog.len());
            let phase = Instant::now();
            let more = |l: &Ledger| {
                phase.elapsed().as_secs_f64() < slice || last && !l.enough_queries(sizes)
            };
            analyst(
                target.as_mut(),
                &design.catalog,
                &mut schedule,
                &more,
                Some(oracle),
                replayer.as_mut(),
                ledger,
            );
        }
        for restart in 0..sizes.restarts {
            nodes = restart_nodes(
                nodes,
                &ann,
                sizes,
                routed,
                &design.catalog,
                oracle,
                expected,
                ledger,
                &format!("round {round} restart {restart}"),
            )?;
        }
        nodes.shutdown();
    }
    Ok(())
}

fn target_for(nodes: &Nodes, routed: bool) -> Result<Box<dyn Target>, String> {
    Ok(if routed {
        Box::new(nodes.router()?)
    } else {
        Box::new(ClientTarget::connect(nodes.addrs()[0])?)
    })
}

/// Stops every node and starts it again from its WAL, timing
/// `Server::start` to the first answer that matches the oracle, then
/// checks every plan and the stats.
#[allow(clippy::too_many_arguments)]
fn restart_nodes(
    nodes: Nodes,
    ann: &Announcement,
    sizes: &Sizes,
    routed: bool,
    catalog: &[Query],
    oracle: &Oracle,
    expected: &CoordinatorStats,
    ledger: &mut Ledger,
    when: &str,
) -> Result<Nodes, String> {
    let dirs = nodes.dirs.clone();
    nodes.shutdown();
    ledger.attempted += 1;
    let started = Instant::now();
    let nodes = match Nodes::start(ann, &dirs, sizes) {
        Ok(nodes) => nodes,
        Err(e) => {
            ledger.fail(false, format!("{when}: {e}"));
            return Err(format!("{when}: {e}"));
        }
    };
    let mut target = target_for(&nodes, routed)?;
    match target.execute(&catalog[0].plan) {
        Ok(answers) if oracle.matches(0, &answers) => {
            ledger.recovery_s.push(started.elapsed().as_secs_f64());
        }
        Ok(answers) => ledger.mismatch(format!(
            "{when}: first answer: {}",
            oracle.difference(0, &answers)
        )),
        Err(e) => ledger.fail(routed, format!("{when}: first query: {e}")),
    }
    verify_all(
        target.as_mut(),
        &nodes,
        catalog,
        oracle,
        expected,
        when,
        ledger,
    );
    Ok(nodes)
}

/// Paces the `ingest-mixed` submitter and analyst to each other. After
/// each acknowledged batch the analyst runs `reads` plans: its `q`-th
/// plan waits until batch `q / reads` is finished, and batch `b` waits
/// until the plans after batch `b - 2` are done. The submitter is thus
/// at most one batch ahead, its next batch runs beside the analyst's
/// reads, and every round reads the same number of times after each
/// write whatever the two threads' relative speed: the share of reads
/// that republish a column does not drift from run to run.
#[derive(Debug)]
pub struct Pace {
    reads: usize,
    state: Mutex<PaceState>,
    moved: Condvar,
}

#[derive(Debug, Default)]
struct PaceState {
    batches: usize,
    reads: usize,
    /// A side has stopped; the other then runs unpaced.
    stopped: bool,
}

impl Pace {
    /// A pace of `reads` plans per batch.
    #[must_use]
    pub fn new(reads: usize) -> Self {
        Self {
            reads: reads.max(1),
            state: Mutex::default(),
            moved: Condvar::new(),
        }
    }

    fn wait_until(&self, ready: impl Fn(&PaceState) -> bool) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !(state.stopped || ready(&state)) {
            state = self
                .moved
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn update(&self, f: impl FnOnce(&mut PaceState)) {
        f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.moved.notify_all();
    }

    /// Blocks until batch `b` (0-based) may be sent.
    pub fn before_batch(&self, b: usize) {
        let need = b.saturating_sub(1) * self.reads;
        self.wait_until(|s| s.reads >= need);
    }

    /// One more batch finished (acknowledged or failed).
    pub fn batch_done(&self) {
        self.update(|s| s.batches += 1);
    }

    /// Blocks until plan `q` (0-based) may be sent.
    pub fn before_read(&self, q: usize) {
        let need = q / self.reads + 1;
        self.wait_until(|s| s.batches >= need);
    }

    /// `reads` plans are finished.
    pub fn reads_done(&self, reads: usize) {
        self.update(|s| s.reads = reads);
    }

    /// A side has stopped.
    pub fn stop(&self) {
        self.update(|s| s.stopped = true);
    }
}

/// `ingest-mixed`: rounds of one server ingesting a fixed sequence of
/// batches beside a paced closed-loop analyst, each round followed by
/// restarts from the WAL, until the measured time is used.
fn ingest_mixed(opts: &Options, design: &Design, ledger: &mut Ledger) -> Result<(), String> {
    let sizes = &opts.sizes;
    let ann = world::announcement(opts.seed, 13, sizes.users, &design.catalog);
    ledger.subsets = ann.subsets.len();
    let batches = sizes.users.div_ceil(sizes.batch.max(1));
    let reads = batches * sizes.reads_per_batch;
    let mut oracle: Option<(Oracle, CoordinatorStats)> = None;
    // The round count follows from `--seconds`, never from the clock,
    // so every run of the same options does the same work.
    let rounds = sizes
        .rounds
        .max((opts.seconds / INGEST_ROUND_SECONDS).round() as usize);
    let mut round = 0usize;
    while round < rounds
        || !ledger.enough_queries(sizes)
        || ledger.batch_ms.len() < sizes.min_batches
    {
        // Set-up: the round's submissions (the same every round, from
        // the seed) and a server on a fresh store.
        let setup = Instant::now();
        let (subs, units) =
            world::sketch_users(&design.model, &ann, sizes.users, opts.seed, opts.threads);
        let dirs = node_dirs(opts, &format!("round{}", round % 2));
        fresh_dir(&dirs[0])?;
        let nodes = Nodes::start(&ann, &dirs, sizes)?;
        ledger.setup_s.push(setup.elapsed().as_secs_f64());
        if opts.trace && round == 0 {
            ledger.tracer.in_setup = true;
            trace_sketching(ledger, &units, sizes.users);
            ledger.tracer.in_setup = false;
        }
        let (oracle, expected) = oracle.get_or_insert_with(|| {
            let oracle = Oracle::new(&ann, &subs, &design.catalog);
            let expected = oracle.coordinator().stats();
            (oracle, expected)
        });
        let addr = nodes.addrs()[0];
        let mut mirror = if opts.trace {
            Some(IngestMirror::new(
                &ann,
                &opts.dir.join("mirror"),
                sizes,
                &mut ledger.counts,
            )?)
        } else {
            None
        };
        let mirror_coordinator = opts.trace.then(|| Coordinator::new(ann.clone()));
        let pace = Pace::new(sizes.reads_per_batch);
        let mut submitter = Ledger::default();
        let mut reader = Ledger {
            by_plan: vec![Default::default(); design.catalog.len()],
            ..Ledger::default()
        };
        let server_pool = nodes.servers[0].coordinator().pool();
        let mirror_pool = mirror_coordinator.as_ref().map(Coordinator::pool);
        std::thread::scope(|scope| -> Result<(), String> {
            let writer = scope.spawn(|| -> Result<(), String> {
                let mut client =
                    Client::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"));
                let result = match client.as_mut() {
                    Ok(client) => {
                        let mut send = submit_via_client(client);
                        let mirror = mirror.as_mut().zip(mirror_coordinator.as_ref());
                        ingest(
                            &subs,
                            sizes,
                            &mut send,
                            false,
                            mirror,
                            Some(&pace),
                            &mut submitter,
                        );
                        Ok(())
                    }
                    Err(e) => Err(e.clone()),
                };
                pace.stop();
                result
            });
            let mut replayer = match mirror_pool {
                Some(db) => Some(Replayer::new(&ann, vec![(server_pool, db, addr)])?),
                None => None,
            };
            let mut target = ClientTarget::connect(addr)?;
            let mut schedule = Schedule::new(opts.seed, 2 + round as u64, design.catalog.len());
            // Plans over an empty pool fail by design, so the first
            // read waits for the first batch like every other.
            let more = |l: &Ledger| {
                let q = l.attempted as usize;
                pace.reads_done(q);
                if q >= reads {
                    return false;
                }
                pace.before_read(q);
                true
            };
            analyst(
                &mut target,
                &design.catalog,
                &mut schedule,
                &more,
                None,
                replayer.as_mut(),
                &mut reader,
            );
            pace.stop();
            writer
                .join()
                .map_err(|_| "submitter panicked".to_string())??;
            Ok(())
        })?;
        drop(subs);
        ledger.absorb(submitter);
        ledger.absorb(reader);
        if let (Some(m), Some(c)) = (mirror.as_mut(), mirror_coordinator.as_ref()) {
            m.finish(c, &mut ledger.tracer, &mut ledger.counts);
        }
        let mut nodes = nodes;
        {
            let mut target = target_for(&nodes, false)?;
            verify_all(
                target.as_mut(),
                &nodes,
                &design.catalog,
                oracle,
                expected,
                &format!("round {round} after ingest"),
                ledger,
            );
        }
        ledger.disk.0 += nodes.disk();
        ledger.disk.1 += expected.records as f64;
        for restart in 0..sizes.restarts {
            nodes = restart_nodes(
                nodes,
                &ann,
                sizes,
                false,
                &design.catalog,
                oracle,
                expected,
                ledger,
                &format!("round {round} restart {restart}"),
            )?;
        }
        nodes.shutdown();
        round += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Pace;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The analyst never reads ahead of its batch, and the submitter is
    /// never more than one batch ahead of the analyst's reads.
    #[test]
    fn pace_keeps_reads_and_batches_in_step() {
        let pace = Pace::new(2);
        let batches = AtomicUsize::new(0);
        let reads = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for b in 0..50 {
                    pace.before_batch(b);
                    // ord: test bookkeeping; the pace's mutex orders it
                    assert!(reads.load(Ordering::SeqCst) >= b.saturating_sub(1) * 2);
                    batches.fetch_add(1, Ordering::SeqCst);
                    pace.batch_done();
                }
            });
            for q in 0..100 {
                pace.reads_done(q);
                pace.before_read(q);
                // ord: test bookkeeping; the pace's mutex orders it
                assert!(batches.load(Ordering::SeqCst) > q / 2);
                reads.fetch_add(1, Ordering::SeqCst);
            }
            pace.stop();
        });
    }
}
