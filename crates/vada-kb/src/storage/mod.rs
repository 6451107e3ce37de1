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
//! **Recovery** ([`KnowledgeBase::open`](crate::KnowledgeBase::open)) loads
//! the snapshot (if any), then replays the WAL's whole records, skipping any
//! with `seq <=` the snapshot version — the overlap a crash between
//! "snapshot renamed" and "log truncated" can leave behind. The recovered
//! catalog, journal window, watermarks, and lineage are byte-identical to
//! the pre-crash in-memory state as of the last fsynced record, so
//! incremental sessions resume O(change).
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

pub use codec::{StoredRelation, WalRecord};
pub use snapshot::Snapshot;
pub use wal::Wal;

use std::path::{Path, PathBuf};

use vada_common::Result;

/// File name of the write-ahead log inside a durable KB directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durable KB directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The store-side handle: the directory plus the open log.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
}

impl DurableStore {
    /// Initialise a durable directory with a fresh (empty) log, writing
    /// `snap` as its base snapshot first so the directory is complete at
    /// every instant.
    pub fn create(dir: impl Into<PathBuf>, snap: &Snapshot) -> Result<DurableStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        snapshot::write_snapshot(&dir, SNAPSHOT_FILE, snap)?;
        let wal = Wal::create(dir.join(WAL_FILE))?;
        Ok(DurableStore { dir, wal })
    }

    /// Open an existing durable directory: the snapshot (if any) plus the
    /// log's surviving records.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(DurableStore, Option<Snapshot>, Vec<WalRecord>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let snap = snapshot::read_snapshot(&dir, SNAPSHOT_FILE)?;
        let (wal, records) = Wal::open(dir.join(WAL_FILE))?;
        Ok((DurableStore { dir, wal }, snap, records))
    }

    /// Append (and fsync) one record, returning the framed byte count.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        self.wal.append(record)
    }

    /// Compact: write `snap` as the new checkpoint (atomic rename), then
    /// reset the log to empty. A crash between the two steps leaves the
    /// new snapshot plus the old log — replay skips every record at or
    /// below the snapshot version, so the overlap is harmless.
    pub fn compact(&mut self, snap: &Snapshot) -> Result<()> {
        snapshot::write_snapshot(&self.dir, SNAPSHOT_FILE, snap)?;
        self.wal = Wal::create(self.dir.join(WAL_FILE))?;
        Ok(())
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
