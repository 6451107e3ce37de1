//! Durable storage for the knowledge base: a canonical event codec, an
//! append-only CRC-framed write-ahead log, and atomic snapshots with log
//! compaction.
//!
//! A durable knowledge-base directory holds two files:
//!
//! - `snapshot.bin` — the last checkpoint ([`snapshot`]); may be absent if
//!   the log has never compacted.
//! - `wal.log` — every [`DeltaEvent`](crate::DeltaEvent) applied since the
//!   snapshot, one CRC-framed record each ([`wal`]).
//!
//! **Checkpoint cadence.** [`DurableStore`] counts the records in the log
//! since the last checkpoint; the knowledge base compacts (snapshot, then
//! log reset) on the first event after that count has reached the journal
//! window's capacity. So a snapshot is written once per `capacity` events
//! — the write cost of an edit is one append, amortised, however old the
//! journal — and the log holds at most the last `capacity` events, every
//! one of them still inside the in-memory window (log ⊆ retained window).
//!
//! **Recovery** ([`KnowledgeBase::open`](crate::KnowledgeBase::open)) loads
//! the snapshot (if any), then replays the WAL's whole records, skipping any
//! with `seq <=` the snapshot version — the overlap a crash between
//! "snapshot renamed" and "log truncated" can leave behind. Each replayed
//! record goes through the same `DeltaJournal::record` that prunes the live
//! window, so recovery costs the snapshot plus at most `capacity` row-level
//! replays, and the recovered catalog, journal window, watermarks, and
//! lineage are byte-identical to the pre-crash in-memory state as of the
//! last fsynced record — incremental sessions resume O(change).
//!
//! **Single writer.** A WAL directory belongs to one live `KnowledgeBase`
//! at a time. Reopening a directory restores the persisted lineage;
//! opening it while another instance still appends to the same lineage
//! would let the two histories diverge under one identity. Cloned bases
//! therefore drop the durable handle (and take a fresh lineage), exactly
//! like the journal's clone semantics.

pub mod codec;
pub mod snapshot;
pub mod wal;

pub use codec::{RecordRef, RelationRef, StoredRelation, WalRecord};
pub use snapshot::{Snapshot, SnapshotRef};
pub use wal::Wal;

use std::path::{Path, PathBuf};

use vada_common::Result;

/// File name of the write-ahead log inside a durable KB directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durable KB directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The store-side handle: the directory, the open log, and how many
/// records the log holds since the last checkpoint — the count the
/// checkpoint cadence is measured in.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
    log_records: usize,
}

impl DurableStore {
    /// Initialise a durable directory with a fresh (empty) log, writing
    /// `snap` as its base snapshot first so the directory is complete at
    /// every instant.
    pub fn create(dir: impl Into<PathBuf>, snap: &SnapshotRef<'_>) -> Result<DurableStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        snapshot::write_snapshot(&dir, SNAPSHOT_FILE, snap)?;
        let wal = Wal::create(dir.join(WAL_FILE))?;
        Ok(DurableStore { dir, wal, log_records: 0 })
    }

    /// Open an existing durable directory: the snapshot (if any) plus the
    /// log's surviving records.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(DurableStore, Option<Snapshot>, Vec<WalRecord>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let snap = snapshot::read_snapshot(&dir, SNAPSHOT_FILE)?;
        let (wal, records) = Wal::open(dir.join(WAL_FILE))?;
        // every record physically in the log counts, including the overlap
        // an interrupted compaction leaves: the next event then simply
        // finishes that compaction
        let log_records = records.len();
        Ok((DurableStore { dir, wal, log_records }, snap, records))
    }

    /// Append (and fsync) one record, returning the framed byte count.
    pub fn append(&mut self, record: RecordRef<'_>) -> Result<u64> {
        let bytes = self.wal.append(record)?;
        self.log_records += 1;
        Ok(bytes)
    }

    /// Records in the log since the last checkpoint.
    pub fn log_records(&self) -> usize {
        self.log_records
    }

    /// Compact: write `snap` as the new checkpoint (atomic rename), then
    /// reset the log to empty. A crash between the two steps leaves the
    /// new snapshot plus the old log — replay skips every record at or
    /// below the snapshot version, so the overlap is harmless.
    pub fn compact(&mut self, snap: &SnapshotRef<'_>) -> Result<()> {
        snapshot::write_snapshot(&self.dir, SNAPSHOT_FILE, snap)?;
        self.wal = Wal::create(self.dir.join(WAL_FILE))?;
        self.log_records = 0;
        Ok(())
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RelationKind;
    use crate::delta::{DeltaChange, DeltaEvent};
    use vada_common::{tuple, Relation, Schema};

    /// `snapshot.bin` and `wal.log` exactly as the encoders wrote them
    /// before they took borrows (owned `Snapshot` / `WalRecord`, frame
    /// assembled from a separate payload buffer, bytewise CRC). Format
    /// version 2 (header byte 7): metadata events carry no detail string.
    /// Nothing else in these bytes moved with it.
    const GOLDEN_SNAPSHOT: &[&str] = &[
        "56414441534e500233d74bf009000000000000000300000000000000020000000000000000100000",
        "00000000020000000900000072656c6174696f6e7309000000000000000600000074617267657401",
        "000000000000000100000009000000000000000900000072656c6174696f6e730001000000730100",
        "00000100000004010000007901000000000100000073010000000100000061030000007374720200",
        "00000100000004010000007801000000040100000079",
    ];
    const GOLDEN_WAL: &[&str] = &[
        "5641444157414c024a000000cc8431ae07000000000000000900000072656c6174696f6e73010100",
        "00007301000100000073010000000100000061030000007374720200000001000000040100000078",
        "010000000401000000793600000072431ce708000000000000000900000072656c6174696f6e7302",
        "0100000073010000000100000004010000007801000000000000000000000000",
    ];

    fn unhex(chunks: &[&str]) -> Vec<u8> {
        let hex = chunks.concat();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The on-disk format did not move: today's encoders reproduce the
    /// golden files byte for byte, and the golden files (what any earlier
    /// build left on disk) decode to the same state.
    #[test]
    fn on_disk_bytes_are_unchanged() {
        let rel = Relation::from_tuples(
            Schema::all_str("s", &["a"]),
            vec![tuple!["x"], tuple!["y"]],
        )
        .unwrap();
        let snap = Snapshot {
            version: 9,
            lineage: 3,
            pruned_through: 2,
            capacity: 4096,
            aspect_versions: vec![("relations".into(), 9), ("target".into(), 1)],
            events: vec![DeltaEvent {
                seq: 9,
                aspect: "relations",
                change: DeltaChange::RowsAppended {
                    relation: "s".into(),
                    rows: vec![tuple!["y"]],
                },
            }],
            relations: vec![StoredRelation::capture(RelationKind::Source, &rel)],
        };
        let records = vec![
            WalRecord {
                event: DeltaEvent {
                    seq: 7,
                    aspect: "relations",
                    change: DeltaChange::RelationAdded { relation: "s".into() },
                },
                payload: Some(StoredRelation::capture(RelationKind::Source, &rel)),
            },
            WalRecord {
                event: DeltaEvent {
                    seq: 8,
                    aspect: "relations",
                    change: DeltaChange::RowsRemoved {
                        relation: "s".into(),
                        rows: vec![tuple!["x"]],
                        positions: vec![0],
                    },
                },
                payload: None,
            },
        ];

        let dir = std::env::temp_dir().join(format!("vada-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DurableStore::create(&dir, &snap.view()).unwrap();
        for r in &records {
            store.append(r.view()).unwrap();
        }
        assert_eq!(store.log_records(), 2);
        drop(store);
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), unhex(GOLDEN_SNAPSHOT));
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), unhex(GOLDEN_WAL));

        std::fs::write(dir.join(SNAPSHOT_FILE), unhex(GOLDEN_SNAPSHOT)).unwrap();
        std::fs::write(dir.join(WAL_FILE), unhex(GOLDEN_WAL)).unwrap();
        let (store, read_snap, read_records) = DurableStore::open(&dir).unwrap();
        assert_eq!(read_snap, Some(snap));
        assert_eq!(read_records, records);
        assert_eq!(store.log_records(), 2, "a reopened log counts its surviving records");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
