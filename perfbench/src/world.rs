//! Inputs: the synthetic population, the announcement, the users'
//! Algorithm 1 submissions and the analyst's query catalog — all made
//! from the run's seed — plus the in-process answer oracle.

use psketch_core::{BitSubset, ConjunctiveQuery, IntField};
use psketch_data::demographics::FieldDistribution;
use psketch_data::DemographicsModel;
use psketch_prf::{GlobalKey, Prg};
use psketch_protocol::{Announcement, AnnouncementBuilder, Coordinator, Submission, UserAgent};
use psketch_queries as q;
use psketch_queries::{LinearAnswer, LinearQuery, QueryEngine, TermPlan};
use std::time::{Duration, Instant};

/// The bias every workload's announcement uses.
const P: f64 = 0.3;

/// Work units Algorithm 1 is split into. Each unit has its own PRG
/// stream, so the submissions depend on the seed alone, never on how
/// many threads run the units.
const SKETCH_UNITS: u64 = 8;

/// One analyst query: its family, whether the estimator answers it with
/// the dense one-pass tally, and the compiler call that builds it.
pub struct Query {
    /// Family name (`conjunction`, `histogram`, …).
    pub family: &'static str,
    /// Whether the family is a dense one (histogram, contingency table).
    pub dense: bool,
    /// The `*_plan` compiler call, re-run in traced mode to time
    /// `queries.plan`.
    pub compile: Box<dyn Fn() -> TermPlan + Send + Sync>,
    /// The compiled plan.
    pub plan: TermPlan,
}

impl Query {
    fn new(
        family: &'static str,
        dense: bool,
        compile: impl Fn() -> TermPlan + Send + Sync + 'static,
    ) -> Self {
        let plan = compile();
        Self {
            family,
            dense,
            compile: Box::new(compile),
            plan,
        }
    }
}

/// How the estimator treats one subset group of a plan's terms: the
/// current `count_terms` rule answers a group with the one-pass tally
/// when it holds more than half of the subset's `2^k` values.
#[must_use]
pub fn dense_group(width: usize, terms: usize) -> bool {
    width <= 16 && terms as u64 > (1u64 << width) / 2
}

/// A plan's terms grouped by subset, in first-appearance order (the
/// order `count_terms` visits them).
#[must_use]
pub fn subset_groups(plan: &TermPlan) -> Vec<(BitSubset, Vec<ConjunctiveQuery>)> {
    let mut groups: Vec<(BitSubset, Vec<ConjunctiveQuery>)> = Vec::new();
    for term in plan.terms() {
        match groups.iter_mut().find(|(s, _)| s == term.subset()) {
            Some((_, terms)) => terms.push(term.clone()),
            None => groups.push((term.subset().clone(), vec![term.clone()])),
        }
    }
    groups
}

fn point(field: IntField, value: u64) -> q::Constraint {
    q::Constraint::new(field.subset(), field.full_value(value)).expect("widths match")
}

fn cell(field: IntField, value: u64) -> ConjunctiveQuery {
    ConjunctiveQuery::new(field.subset(), field.full_value(value)).expect("widths match")
}

/// The full contingency table of two categorical attributes: one output
/// per cell, every cell a term over the union subset.
fn contingency_table(a: q::CategoricalAttribute, b: q::CategoricalAttribute) -> TermPlan {
    let mut cells = Vec::new();
    for la in 0..a.levels() {
        for lb in 0..b.levels() {
            let cell = q::contingency_plan(&a, la, &b, lb);
            let mut lq = LinearQuery::new(format!("cell({la},{lb})"));
            lq.push(1.0, cell.terms()[0].clone());
            cells.push(lq);
        }
    }
    TermPlan::from_queries("contingency table", &cells)
}

/// A population model plus the catalog the analyst draws from.
pub struct Design {
    /// The population generator (psketch-data).
    pub model: DemographicsModel,
    /// Every query the analyst may send.
    pub catalog: Vec<Query>,
}

/// `scan-heavy`: sparse families (conjunction, mean, interval, DNF)
/// beside dense ones (histograms over a 2- and a 3-bit attribute, and a
/// contingency table over a 3-bit union).
#[must_use]
pub fn scan_design() -> Design {
    let mut model = DemographicsModel::new();
    let a = model.field("a", 2, FieldDistribution::Uniform { lo: 0, hi: 3 });
    let b = model.field("b", 3, FieldDistribution::Bell);
    let c = model.field("c", 1, FieldDistribution::Uniform { lo: 0, hi: 1 });
    let mut catalog = Vec::new();
    for v in 0..4 {
        catalog.push(Query::new("conjunction", false, move || {
            q::conjunction_plan(&[point(a, v)]).expect("satisfiable")
        }));
        catalog.push(Query::new("conjunction", false, move || {
            q::conjunction_plan(&[point(a, v), point(c, 1)]).expect("satisfiable")
        }));
    }
    catalog.push(Query::new("mean", false, move || q::mean_plan(&a)));
    catalog.push(Query::new("interval", false, move || {
        q::range_plan(&a, 1, 2)
    }));
    catalog.push(Query::new("dnf", false, move || {
        q::dnf_plan(&[cell(a, 3), cell(c, 1)]).expect("non-empty")
    }));
    catalog.push(Query::new("dnf", false, move || {
        q::dnf_plan(&[cell(a, 0), cell(c, 0)]).expect("non-empty")
    }));
    catalog.push(Query::new("histogram", true, move || {
        q::histogram_plan(&q::CategoricalAttribute::new(a, 4))
    }));
    catalog.push(Query::new("histogram", true, move || {
        q::histogram_plan(&q::CategoricalAttribute::new(b, 6))
    }));
    catalog.push(Query::new("contingency", true, move || {
        contingency_table(
            q::CategoricalAttribute::new(a, 4),
            q::CategoricalAttribute::new(c, 2),
        )
    }));
    Design { model, catalog }
}

/// `ingest-mixed`: small sparse plans, plus one small histogram so the
/// dense metric exists on this workload too.
#[must_use]
pub fn ingest_design() -> Design {
    let mut model = DemographicsModel::new();
    let a = model.field("a", 2, FieldDistribution::Uniform { lo: 0, hi: 3 });
    let c = model.field("c", 1, FieldDistribution::Uniform { lo: 0, hi: 1 });
    let mut catalog = Vec::new();
    for v in 0..4 {
        catalog.push(Query::new("conjunction", false, move || {
            q::conjunction_plan(&[point(a, v)]).expect("satisfiable")
        }));
    }
    catalog.push(Query::new("mean", false, move || q::mean_plan(&a)));
    catalog.push(Query::new("interval", false, move || {
        q::range_plan(&a, 1, 2)
    }));
    catalog.push(Query::new("dnf", false, move || {
        q::dnf_plan(&[cell(a, 3), cell(c, 1)]).expect("non-empty")
    }));
    catalog.push(Query::new("histogram", true, move || {
        q::histogram_plan(&q::CategoricalAttribute::new(a, 4))
    }));
    Design { model, catalog }
}

/// `cluster-small`: term-heavy plans (sum-lt, moment, product, tree,
/// DNF) plus histograms.
#[must_use]
pub fn cluster_design() -> Design {
    let mut model = DemographicsModel::new();
    let a = model.field("a", 2, FieldDistribution::Uniform { lo: 0, hi: 3 });
    let b = model.field("b", 2, FieldDistribution::Bell);
    let c = model.field("c", 1, FieldDistribution::Uniform { lo: 0, hi: 1 });
    let mut catalog = Vec::new();
    for r in 1..=2 {
        catalog.push(Query::new("sum-lt", false, move || {
            q::sum_lt_plan(&a, &b, r)
        }));
    }
    catalog.push(Query::new("moment", false, move || q::moment_plan(&a, 2)));
    catalog.push(Query::new("moment", false, move || q::moment_plan(&b, 3)));
    catalog.push(Query::new("product", false, move || {
        q::inner_product_plan(&a, &b)
    }));
    catalog.push(Query::new("tree", false, move || {
        use q::DecisionTree as T;
        T::split(
            a.bit_position(1),
            T::split(b.bit_position(1), T::Leaf(true), T::Leaf(false)),
            T::split(b.bit_position(2), T::Leaf(false), T::Leaf(true)),
        )
        .to_plan()
    }));
    catalog.push(Query::new("dnf", false, move || {
        q::dnf_plan(&[cell(a, 3), cell(c, 1)]).expect("non-empty")
    }));
    catalog.push(Query::new("histogram", true, move || {
        q::histogram_plan(&q::CategoricalAttribute::new(a, 4))
    }));
    catalog.push(Query::new("histogram", true, move || {
        q::histogram_plan(&q::CategoricalAttribute::new(b, 4))
    }));
    Design { model, catalog }
}

/// The announcement: every subset some catalog plan needs.
#[must_use]
pub fn announcement(seed: u64, database_id: u64, users: usize, catalog: &[Query]) -> Announcement {
    let mut subsets: Vec<BitSubset> = catalog
        .iter()
        .flat_map(|query| query.plan.required_subsets())
        .collect();
    subsets.sort();
    subsets.dedup();
    AnnouncementBuilder::new(database_id, P, users as u64, 1e-6)
        .global_key(*GlobalKey::from_seed(seed ^ database_id).as_bytes())
        .subsets(subsets)
        .build()
        .expect("catalog subsets form a valid announcement")
}

/// Submissions of `users` users drawn from `model`, each produced by
/// `UserAgent::participate` (Algorithm 1). Returns the submissions (in
/// user order) and the time each work unit spent sketching.
///
/// # Panics
///
/// Panics if a user cannot participate (impossible at these
/// parameters: the budget is unlimited).
#[must_use]
pub fn sketch_users(
    model: &DemographicsModel,
    ann: &Announcement,
    users: usize,
    seed: u64,
    threads: usize,
) -> (Vec<Submission>, Vec<Duration>) {
    let key = GlobalKey::from_seed(seed);
    let population = model.generate(users, &mut Prg::from_key_and_stream(&key, u64::MAX));
    let profiles: Vec<_> = population.iter().collect();
    let unit_len = users.div_ceil(SKETCH_UNITS as usize).max(1);
    let units: Vec<(u64, &[_])> = (0..).zip(profiles.chunks(unit_len)).collect();
    let mut results: Vec<(u64, Vec<Submission>, Duration)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let units = &units;
                scope.spawn(move || {
                    units
                        .iter()
                        .skip(t)
                        .step_by(threads.max(1))
                        .map(|(unit, chunk)| {
                            let mut rng = Prg::from_key_and_stream(&key, *unit);
                            let started = Instant::now();
                            let subs = chunk
                                .iter()
                                .map(|(id, profile)| {
                                    UserAgent::new(*id, (*profile).clone(), ann.p, f64::MAX)
                                        .participate(ann, &mut rng)
                                        .expect("an unlimited budget always participates")
                                })
                                .collect();
                            (*unit, subs, started.elapsed())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            results.extend(handle.join().expect("sketching thread panicked"));
        }
    });
    results.sort_by_key(|(unit, _, _)| *unit);
    let times = results.iter().map(|(_, _, t)| *t).collect();
    let subs = results.into_iter().flat_map(|(_, subs, _)| subs).collect();
    (subs, times)
}

/// The answer oracle: an in-process coordinator fed the same
/// submissions, queried through `QueryEngine::execute_plan`.
pub struct Oracle {
    coordinator: Coordinator,
    answers: Vec<Vec<u64>>,
}

impl Oracle {
    /// Builds the oracle over `subs` and answers every catalog plan.
    ///
    /// # Panics
    ///
    /// Panics if the announcement is invalid or a plan cannot execute
    /// over the full pool (a catalog bug).
    #[must_use]
    pub fn new(ann: &Announcement, subs: &[Submission], catalog: &[Query]) -> Self {
        let coordinator = Coordinator::new(ann.clone());
        coordinator.accept_batch(subs);
        let engine = QueryEngine::new(ann.validate().expect("valid announcement"));
        let answers = catalog
            .iter()
            .map(|query| {
                bits(
                    &engine
                        .execute_plan(coordinator.pool(), &query.plan)
                        .expect("oracle executes every catalog plan"),
                )
            })
            .collect();
        Self {
            coordinator,
            answers,
        }
    }

    /// The oracle's coordinator (its stats are the expected server
    /// stats).
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Whether `answers` are bit-identical to the oracle's answers to
    /// catalog entry `index`.
    #[must_use]
    pub fn matches(&self, index: usize, answers: &[LinearAnswer]) -> bool {
        self.answers
            .get(index)
            .is_some_and(|want| *want == bits(answers))
    }

    /// The first field where `answers` differ from entry `index`'s
    /// oracle answers, for the mismatch report.
    #[must_use]
    pub fn difference(&self, index: usize, answers: &[LinearAnswer]) -> String {
        let want = self.answers.get(index).map_or(&[][..], Vec::as_slice);
        let got = bits(answers);
        if want.len() != got.len() {
            return format!("{} answer fields, expected {}", got.len(), want.len());
        }
        let fields = ["value", "queries_used", "min_sample_size"];
        match want.iter().zip(&got).position(|(w, g)| w != g) {
            Some(i) if i % 3 == 0 => format!(
                "output {} value {} (expected {})",
                i / 3,
                f64::from_bits(got[i]),
                f64::from_bits(want[i])
            ),
            Some(i) => format!(
                "output {} {} {} (expected {})",
                i / 3,
                fields[i % 3],
                got[i],
                want[i]
            ),
            None => "no difference".to_string(),
        }
    }
}

/// Every field of every answer, as raw bits.
fn bits(answers: &[LinearAnswer]) -> Vec<u64> {
    answers
        .iter()
        .flat_map(|a| {
            [
                a.value.to_bits(),
                a.queries_used as u64,
                a.min_sample_size as u64,
            ]
        })
        .collect()
}

/// A seeded closed-loop query order over a catalog: blocks that hold
/// every catalog entry once, each block shuffled by the seed. Every
/// entry has the same weight, and the mix is exact in every block, so a
/// seed changes the order of queries, never their proportions.
pub struct Schedule {
    rng: Prg,
    block: Vec<usize>,
    next: usize,
}

impl Schedule {
    /// A schedule over a catalog of `entries` plans.
    #[must_use]
    pub fn new(seed: u64, stream: u64, entries: usize) -> Self {
        Self {
            rng: Prg::from_key_and_stream(&GlobalKey::from_seed(seed), stream),
            block: (0..entries).collect(),
            next: entries,
        }
    }

    /// The next catalog index.
    pub fn next_index(&mut self) -> usize {
        use rand::Rng;
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each family's dense flag must match how the estimator groups its
    /// terms: a sparse family with a dense group (or the reverse) would
    /// put its latency in the wrong metric.
    #[test]
    fn family_density_matches_the_estimator_rule() {
        for design in [scan_design(), ingest_design(), cluster_design()] {
            for query in &design.catalog {
                let groups = subset_groups(&query.plan);
                let dense: Vec<bool> = groups
                    .iter()
                    .map(|(s, terms)| dense_group(s.len(), terms.len()))
                    .collect();
                if query.dense {
                    assert!(
                        dense.iter().all(|&d| d),
                        "{} has a sparse group",
                        query.family
                    );
                } else {
                    assert!(
                        dense.iter().all(|&d| !d),
                        "{} has a dense group",
                        query.family
                    );
                }
            }
        }
    }

    #[test]
    fn compile_reproduces_the_catalog_plan() {
        for query in scan_design().catalog {
            assert_eq!((query.compile)(), query.plan);
        }
    }

    #[test]
    fn sketching_depends_on_the_seed_not_the_thread_count() {
        let design = ingest_design();
        let ann = announcement(5, 1, 300, &design.catalog);
        let (one, _) = sketch_users(&design.model, &ann, 300, 5, 1);
        let (two, times) = sketch_users(&design.model, &ann, 300, 5, 2);
        assert_eq!(one, two);
        assert_eq!(times.len(), SKETCH_UNITS as usize);
        let (other, _) = sketch_users(&design.model, &ann, 300, 6, 2);
        assert_ne!(one, other);
    }

    #[test]
    fn schedule_is_seeded_with_an_exact_mix() {
        let entries = scan_design().catalog.len();
        let draw = |seed| {
            let mut s = Schedule::new(seed, 0, entries);
            (0..entries * 10)
                .map(|_| s.next_index())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        for chunk in draw(3).chunks(entries) {
            let mut seen = chunk.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..entries).collect::<Vec<_>>());
        }
    }
}
