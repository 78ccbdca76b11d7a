//! The analyst-side collection of published sketches.
//!
//! Once users publish sketches they become public; the analyst aggregates
//! them per attribute subset. [`SketchDb`] is that aggregation, stored
//! **columnar**: each subset owns a shard holding the user-id column and
//! the sketch-key column as plain `Vec<u64>`s, which is the layout the
//! batched Algorithm 2 scan consumes directly.
//!
//! Reads and writes are decoupled snapshot-style: writers append into a
//! shard's pending columns under a short mutex, while queries obtain an
//! [`Arc`]-shared [`SubsetSnapshot`] of the columns. Taking a snapshot is
//! an `Arc` clone whenever the shard is unchanged since the last snapshot;
//! after new appends the next snapshot re-publishes the columns once
//! (amortized over all subsequent queries). Queries therefore never
//! deep-clone records, and ingestion never blocks readers holding a
//! snapshot.

use crate::params::Error;
use crate::profile::{BitSubset, UserId};
use crate::sketcher::Sketch;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One published record: a user and the sketch they released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchRecord {
    /// The publishing user.
    pub id: UserId,
    /// The published sketch.
    pub sketch: Sketch,
}

/// The two columns of a shard, in insertion order.
#[derive(Debug, Default, Clone)]
struct Columns {
    ids: Vec<u64>,
    keys: Vec<u64>,
}

impl Columns {
    fn push(&mut self, id: UserId, sketch: Sketch) {
        self.ids.push(id.0);
        self.keys.push(sketch.key);
    }

    fn len(&self) -> usize {
        self.ids.len()
    }
}

/// One subset's columnar shard: pending (write-side) columns plus the
/// last published snapshot.
#[derive(Debug, Default)]
struct Shard {
    pending: Mutex<Columns>,
    published: RwLock<Arc<Columns>>,
    stale: AtomicBool,
}

impl Shard {
    fn append(&self, id: UserId, sketch: Sketch) {
        self.pending.lock().push(id, sketch);
        // ord: release pairs with the acquire load in `snapshot`, which
        // must observe the pending rows pushed above
        self.stale.store(true, Ordering::Release);
    }

    fn append_batch(&self, records: impl IntoIterator<Item = SketchRecord>) {
        let mut pending = self.pending.lock();
        for rec in records {
            pending.push(rec.id, rec.sketch);
        }
        drop(pending);
        // ord: release pairs with the acquire load in `snapshot`
        self.stale.store(true, Ordering::Release);
    }

    fn len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Publishes the pending columns if they changed, then hands out the
    /// current snapshot (an `Arc` clone).
    ///
    /// `stale` is cleared only inside the `pending` critical section and
    /// only *after* the new columns are published. A caller that reads
    /// `stale == false` therefore finds every row appended before that
    /// clear in the published columns — which a WAL compaction relies on
    /// when it encodes a snapshot and then truncates the log.
    fn snapshot(&self) -> Arc<Columns> {
        // ord: acquire sees the rows behind a writer's release store
        if self.stale.load(Ordering::Acquire) {
            // Clone *and* publish while holding the pending mutex:
            // appends and competing publishers serialize on it, so a
            // slow publisher can never overwrite a newer snapshot with
            // stale columns (published contents only ever grow).
            let pending = self.pending.lock();
            // ord: relaxed re-check under the mutex, which orders it
            // after any publisher that cleared the flag before us
            if self.stale.load(Ordering::Relaxed) {
                *self.published.write() = Arc::new(pending.clone());
                // ord: release pairs with the acquire load above: a
                // reader that sees the clear sees the published columns
                self.stale.store(false, Ordering::Release);
            }
        }
        self.published.read().clone()
    }
}

/// An immutable, cheaply cloneable view of one subset's columns.
///
/// Holding a snapshot pins the column memory; concurrent appends publish
/// new snapshots without disturbing existing ones.
#[derive(Debug, Clone)]
pub struct SubsetSnapshot {
    columns: Arc<Columns>,
}

impl SubsetSnapshot {
    /// The user-id column, in insertion order.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.columns.ids
    }

    /// The sketch-key column, aligned with [`SubsetSnapshot::ids`].
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.columns.keys
    }

    /// Number of records in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the snapshot holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.ids.is_empty()
    }

    /// Row-oriented iteration for code that wants records; the columns
    /// themselves are the primary interface.
    pub fn records(&self) -> impl Iterator<Item = SketchRecord> + '_ {
        self.columns
            .ids
            .iter()
            .zip(&self.columns.keys)
            .map(|(&id, &key)| SketchRecord {
                id: UserId(id),
                sketch: Sketch { key },
            })
    }
}

/// A database of published sketches, grouped by sketched subset.
#[derive(Debug, Default)]
pub struct SketchDb {
    shards: RwLock<HashMap<BitSubset, Arc<Shard>>>,
}

impl SketchDb {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, subset: &BitSubset) -> Option<Arc<Shard>> {
        self.shards.read().get(subset).cloned()
    }

    fn shard_or_insert(&self, subset: BitSubset) -> Arc<Shard> {
        if let Some(shard) = self.shard(&subset) {
            return shard;
        }
        Arc::clone(self.shards.write().entry(subset).or_default())
    }

    /// Records a published sketch for `(id, subset)`.
    pub fn insert(&self, subset: BitSubset, id: UserId, sketch: Sketch) {
        self.shard_or_insert(subset).append(id, sketch);
    }

    /// Records many sketches for the same subset at once, appending
    /// directly into the subset's columns.
    pub fn insert_batch(&self, subset: BitSubset, records: impl IntoIterator<Item = SketchRecord>) {
        self.shard_or_insert(subset).append_batch(records);
    }

    /// Appends pre-built columns to a subset's shard without going
    /// through per-record pushes — the restore path for snapshot files,
    /// which store each shard as exactly these two columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns have different lengths (a corrupt snapshot
    /// must not silently misalign ids and keys).
    pub fn insert_columns(&self, subset: BitSubset, ids: Vec<u64>, keys: Vec<u64>) {
        assert_eq!(
            ids.len(),
            keys.len(),
            "id and key columns must be the same length"
        );
        let shard = self.shard_or_insert(subset);
        let mut pending = shard.pending.lock();
        if pending.len() == 0 {
            pending.ids = ids;
            pending.keys = keys;
        } else {
            pending.ids.extend_from_slice(&ids);
            pending.keys.extend_from_slice(&keys);
        }
        drop(pending);
        // ord: release pairs with the acquire load in `snapshot`
        shard.stale.store(true, Ordering::Release);
    }

    /// Rebuilds a database from per-subset columns (e.g. a decoded
    /// snapshot file).
    ///
    /// # Panics
    ///
    /// As [`SketchDb::insert_columns`] on misaligned columns.
    #[must_use]
    pub fn from_columns(shards: impl IntoIterator<Item = (BitSubset, Vec<u64>, Vec<u64>)>) -> Self {
        let db = Self::new();
        for (subset, ids, keys) in shards {
            db.insert_columns(subset, ids, keys);
        }
        db
    }

    /// Returns a columnar snapshot of the records for `subset`.
    ///
    /// This is the read path of Algorithm 2: an `Arc` clone when the
    /// shard is unchanged since the previous snapshot, one column
    /// republish right after writes.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSubset`] if nothing was published for `subset`.
    pub fn snapshot(&self, subset: &BitSubset) -> Result<SubsetSnapshot, Error> {
        self.shard(subset)
            .map(|shard| SubsetSnapshot {
                columns: shard.snapshot(),
            })
            .ok_or_else(|| Error::UnknownSubset {
                subset: format!("{subset:?}"),
            })
    }

    /// Returns a row-oriented copy of the records for `subset`.
    ///
    /// Compatibility/inspection helper: this materializes a fresh `Vec`
    /// on every call. Query paths use [`SketchDb::snapshot`] instead.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSubset`] if nothing was published for `subset`.
    pub fn records(&self, subset: &BitSubset) -> Result<Vec<SketchRecord>, Error> {
        Ok(self.snapshot(subset)?.records().collect())
    }

    /// Number of sketches recorded for `subset` (0 if unknown).
    #[must_use]
    pub fn count(&self, subset: &BitSubset) -> usize {
        self.shard(subset).map_or(0, |shard| shard.len())
    }

    /// All subsets with at least one shard, in unspecified order.
    #[must_use]
    pub fn subsets(&self) -> Vec<BitSubset> {
        self.shards.read().keys().cloned().collect()
    }

    /// Total number of records across all subsets.
    #[must_use]
    pub fn total_records(&self) -> usize {
        self.shards.read().values().map(|shard| shard.len()).sum()
    }

    /// Whether the database holds no shards at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subset(positions: &[u32]) -> BitSubset {
        BitSubset::new(positions.to_vec()).unwrap()
    }

    #[test]
    fn insert_and_retrieve() {
        let db = SketchDb::new();
        let b = subset(&[0, 1]);
        db.insert(b.clone(), UserId(1), Sketch { key: 3 });
        db.insert(b.clone(), UserId(2), Sketch { key: 5 });
        let records = db.records(&b).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, UserId(1));
        assert_eq!(records[1].sketch.key, 5);
    }

    #[test]
    fn unknown_subset_is_an_error() {
        let db = SketchDb::new();
        assert!(matches!(
            db.records(&subset(&[7])),
            Err(Error::UnknownSubset { .. })
        ));
        assert!(matches!(
            db.snapshot(&subset(&[7])),
            Err(Error::UnknownSubset { .. })
        ));
        assert_eq!(db.count(&subset(&[7])), 0);
    }

    #[test]
    fn batch_insert_and_counts() {
        let db = SketchDb::new();
        let b = subset(&[2]);
        db.insert_batch(
            b.clone(),
            (0..10).map(|i| SketchRecord {
                id: UserId(i),
                sketch: Sketch { key: i },
            }),
        );
        assert_eq!(db.count(&b), 10);
        assert_eq!(db.total_records(), 10);
        assert!(!db.is_empty());
    }

    #[test]
    fn from_columns_rebuilds_identically() {
        let db = SketchDb::new();
        let b = subset(&[0, 2]);
        for i in 0..20u64 {
            db.insert(b.clone(), UserId(i), Sketch { key: i % 7 });
        }
        let snap = db.snapshot(&b).unwrap();
        let rebuilt =
            SketchDb::from_columns([(b.clone(), snap.ids().to_vec(), snap.keys().to_vec())]);
        let rsnap = rebuilt.snapshot(&b).unwrap();
        assert_eq!(rsnap.ids(), snap.ids());
        assert_eq!(rsnap.keys(), snap.keys());
        // Restored shards keep accepting appends.
        rebuilt.insert(b.clone(), UserId(99), Sketch { key: 1 });
        assert_eq!(rebuilt.count(&b), 21);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn misaligned_columns_panic() {
        let db = SketchDb::new();
        db.insert_columns(subset(&[0]), vec![1, 2], vec![3]);
    }

    #[test]
    fn subsets_lists_all_keys() {
        let db = SketchDb::new();
        db.insert(subset(&[0]), UserId(0), Sketch { key: 0 });
        db.insert(subset(&[1]), UserId(0), Sketch { key: 0 });
        let mut subs = db.subsets();
        subs.sort();
        assert_eq!(subs, vec![subset(&[0]), subset(&[1])]);
    }

    #[test]
    fn snapshot_exposes_columns_in_insertion_order() {
        let db = SketchDb::new();
        let b = subset(&[0]);
        for i in 0..5u64 {
            db.insert(b.clone(), UserId(10 + i), Sketch { key: i * 2 });
        }
        let snap = db.snapshot(&b).unwrap();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.ids(), &[10, 11, 12, 13, 14]);
        assert_eq!(snap.keys(), &[0, 2, 4, 6, 8]);
        let rows: Vec<SketchRecord> = snap.records().collect();
        assert_eq!(rows[3].id, UserId(13));
        assert_eq!(rows[3].sketch.key, 6);
    }

    #[test]
    fn unchanged_shard_snapshots_share_columns() {
        let db = SketchDb::new();
        let b = subset(&[0]);
        db.insert(b.clone(), UserId(1), Sketch { key: 1 });
        let a = db.snapshot(&b).unwrap();
        let c = db.snapshot(&b).unwrap();
        // Same Arc: no copying happened for the second snapshot.
        assert!(Arc::ptr_eq(&a.columns, &c.columns));
    }

    #[test]
    fn snapshots_are_stable_under_later_writes() {
        let db = SketchDb::new();
        let b = subset(&[0]);
        db.insert(b.clone(), UserId(1), Sketch { key: 1 });
        let before = db.snapshot(&b).unwrap();
        db.insert(b.clone(), UserId(2), Sketch { key: 2 });
        let after = db.snapshot(&b).unwrap();
        assert_eq!(before.len(), 1);
        assert_eq!(after.len(), 2);
        assert_eq!(before.ids(), &[1]);
        assert_eq!(after.ids(), &[1, 2]);
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let db = Arc::new(SketchDb::new());
        let b = subset(&[0]);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        db.insert(b.clone(), UserId(t * 1000 + i), Sketch { key: i });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.count(&b), 800);
        assert_eq!(db.snapshot(&b).unwrap().len(), 800);
    }

    #[test]
    fn snapshot_during_a_racing_republish_sees_every_appended_row() {
        // A republish is in flight (its publisher waits on the pending
        // mutex, held here) when a second caller — a WAL compaction, say
        // — takes a snapshot. The second caller must not be handed the
        // older published columns: it waits for the publish instead.
        // The sleeps only let each reader reach its wait before the mutex
        // is released; the assertions hold under every interleaving, and
        // code that clears `stale` before taking the mutex fails them.
        let db = Arc::new(SketchDb::new());
        let b = subset(&[0]);
        db.insert(b.clone(), UserId(1), Sketch { key: 1 });
        let _ = db.snapshot(&b).unwrap();
        db.insert(b.clone(), UserId(2), Sketch { key: 2 });
        let shard = db.shard(&b).unwrap();
        let held = shard.pending.lock();
        let spawn_reader = || {
            let db = Arc::clone(&db);
            let b = b.clone();
            std::thread::spawn(move || db.snapshot(&b).unwrap().len())
        };
        let publisher = spawn_reader();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let second = spawn_reader();
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(held);
        assert_eq!(publisher.join().unwrap(), 2);
        assert_eq!(second.join().unwrap(), 2, "handed pre-append columns");
    }

    #[test]
    fn concurrent_reads_during_writes() {
        let db = Arc::new(SketchDb::new());
        let b = subset(&[3]);
        db.insert(b.clone(), UserId(0), Sketch { key: 0 });
        let writer = {
            let db = Arc::clone(&db);
            let b = b.clone();
            std::thread::spawn(move || {
                for i in 1..2000u64 {
                    db.insert(b.clone(), UserId(i), Sketch { key: i % 16 });
                }
            })
        };
        // Readers observe monotonically growing, internally consistent
        // snapshots while the writer runs.
        let mut last = 0;
        for _ in 0..200 {
            let snap = db.snapshot(&b).unwrap();
            assert_eq!(snap.ids().len(), snap.keys().len());
            assert!(snap.len() >= last);
            last = snap.len();
        }
        writer.join().unwrap();
        assert_eq!(db.snapshot(&b).unwrap().len(), 2000);
    }
}
