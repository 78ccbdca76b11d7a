//! The traced run's spans, kept in memory and written when the run
//! ends.
//!
//! Every call the benchmark makes into a layer's public function is a
//! span: the layer's name, its duration, the span that caused it and a
//! request id shared by every span of one request. A request is timed
//! through its real RPC, then replayed through each lower layer's
//! entry point; those replays are recorded as children of the RPC span,
//! so the tree is a logical nesting, not a time-interval one.
//!
//! Self time of a span is its duration minus its children's. Two
//! layers have no call of their own and are named by that residue: the
//! self time of a `server.client` RPC span is `server.transport`
//! (socket, queue and dispatch time left after the codec and engine
//! replays), and the self time of the root `bench.request` span is the
//! `unattributed` row. Self times therefore add up to the request's
//! wall time exactly. Replays that are not on the request's blocking
//! path (the other shards of a parallel fan-out, the WAL replay of the
//! scratch store) are marked `off_path`: they give their layer's
//! metrics but take no part in the self-time sums.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The root span of every request.
pub const ROOT: &str = "bench.request";
/// Self-time name of the root span.
pub const UNATTRIBUTED: &str = "unattributed";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request this span belongs to.
    pub req: u64,
    /// Layer (module) name.
    pub layer: &'static str,
    /// Sub-kind within the layer (`dense`, `submit`, …), or `""`.
    pub tag: &'static str,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Duration in nanoseconds.
    pub ns: f64,
    /// A work count for the layer's rate metrics (records, bytes, …).
    pub work: f64,
    /// Not on the request's blocking path.
    pub off_path: bool,
    /// Recorded during set-up rather than the measured phase.
    pub setup: bool,
}

/// An in-memory span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    next_req: u64,
    /// Set while set-up runs; marks the spans recorded meanwhile.
    pub in_setup: bool,
}

impl Tracer {
    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Records a span and returns its index (for children).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        req: u64,
        layer: &'static str,
        tag: &'static str,
        parent: Option<usize>,
        took: Duration,
        work: f64,
        off_path: bool,
    ) -> usize {
        self.spans.push(Span {
            req,
            layer,
            tag,
            parent,
            ns: took.as_nanos() as f64,
            work,
            off_path,
            setup: self.in_setup,
        });
        self.spans.len() - 1
    }

    /// Moves another tracer's spans in (a second load thread's),
    /// re-basing its parent links and request ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let req_base = self.next_req;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.req += req_base;
            s
        }));
        self.next_req += other.next_req;
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of one layer with one of `tags` (any tag when empty),
    /// from the measured phase only unless `with_setup`.
    pub fn select<'a>(
        &'a self,
        layer: &'a str,
        tags: &'a [&'a str],
        with_setup: bool,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| {
            s.layer == layer
                && (tags.is_empty() || tags.contains(&s.tag))
                && (with_setup || !s.setup)
        })
    }

    /// Self time (ns) per layer over the measured phase: each on-path
    /// span's duration minus its on-path children's, with the residues
    /// named as described in the module docs. The values add up to the
    /// summed duration of the measured-phase roots.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.off_path) {
                child_ns[p] += s.ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if s.off_path || s.setup {
                continue;
            }
            let name = match s.layer {
                ROOT => UNATTRIBUTED,
                "server.client" => "server.transport",
                layer => layer,
            };
            *out.entry(name).or_default() += s.ns - children;
        }
        out
    }

    /// Writes every span as tab-separated text: request, span index,
    /// parent, layer, tag, ns, work, off-path, set-up.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("req\tspan\tparent\tlayer\ttag\tns\twork\toff_path\tsetup\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.layer, s.tag, s.ns, s.work, s.off_path, s.setup
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// One analyst request: compile 5, RPC 90 holding codec 10,
    /// snapshot 1 and an engine replay of 60 of which the estimator took
    /// 50; the request root took 100.
    fn request(t: &mut Tracer) {
        let req = t.request();
        let span =
            |t: &mut Tracer, layer, parent, n| t.push(req, layer, "", parent, us(n), 0.0, false);
        let root = span(t, ROOT, None, 100);
        span(t, "queries.plan", Some(root), 5);
        let rpc = span(t, "server.client", Some(root), 90);
        span(t, "server.wire", Some(rpc), 10);
        span(t, "core.database", Some(rpc), 1);
        let engine = span(t, "queries.engine", Some(rpc), 60);
        span(t, "core.estimator", Some(engine), 50);
        // An off-path replay: counted for its own layer, not in sums.
        t.push(req, "cluster.router", "", Some(rpc), us(70), 0.0, true);
    }

    #[test]
    fn self_times_and_residuals_add_up_to_the_request() {
        let mut t = Tracer::default();
        request(&mut t);
        let selfs = t.self_times();
        let get = |k: &str| selfs.get(k).copied().unwrap_or(f64::NAN) / 1e3;
        assert_eq!(get("queries.plan"), 5.0);
        assert_eq!(get("server.wire"), 10.0);
        assert_eq!(get("core.database"), 1.0);
        assert_eq!(get("queries.engine"), 10.0);
        assert_eq!(get("core.estimator"), 50.0);
        // Transport: RPC wall minus codec, snapshot and engine.
        assert_eq!(get("server.transport"), 19.0);
        // Unattributed: root minus compile and RPC.
        assert_eq!(get(UNATTRIBUTED), 5.0);
        assert!(!selfs.contains_key("cluster.router"));
        let total: f64 = selfs.values().sum();
        assert_eq!(total / 1e3, 100.0);
    }

    #[test]
    fn setup_spans_stay_out_of_the_measured_phase() {
        let mut t = Tracer {
            in_setup: true,
            ..Tracer::default()
        };
        request(&mut t);
        t.in_setup = false;
        assert!(t.self_times().is_empty());
        assert_eq!(t.select("server.client", &[], false).count(), 0);
        assert_eq!(t.select("server.client", &[], true).count(), 1);
        request(&mut t);
        let measured: Vec<f64> = t
            .select("server.client", &[], false)
            .map(|s| s.ns)
            .collect();
        assert_eq!(measured, vec![90_000.0]);
        assert_eq!(t.select("server.client", &["plan"], true).count(), 0);
    }

    #[test]
    fn absorbing_rebases_parents_and_requests() {
        let mut a = Tracer::default();
        request(&mut a);
        let mut b = Tracer::default();
        request(&mut b);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(spans[9].parent, Some(8));
        assert_eq!(spans[8].req, 2);
        let total: f64 = a.self_times().values().sum();
        assert_eq!(total / 1e3, 200.0);
    }
}
