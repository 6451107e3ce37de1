//! Snapshots: a whole-catalog checkpoint that lets the WAL be compacted.
//!
//! A snapshot captures everything replay needs to reconstruct the
//! *extensional* knowledge base byte-identically: the catalog (every
//! relation with its kind, schema, and rows), the version counter,
//! per-aspect versions, and the delta journal's full retained window plus
//! watermarks and lineage — so `KnowledgeBase::since` answers identically
//! before and after a reopen. Derived metadata (matches, mappings, CFDs,
//! feedback, …) is deliberately out of scope: it is re-derived by running
//! the wrangling pipeline over the recovered catalog.
//!
//! File layout: magic `b"VADASNP"` + format version, a `u32` CRC-32 of the
//! body, then the body. The file is written to a temp sibling and atomically
//! renamed over the old snapshot, so a crash mid-write leaves the previous
//! snapshot intact — there is never a moment with no valid snapshot on
//! disk once one has been written.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use vada_common::codec::{put_str, put_u32, put_u64, Reader, FORMAT_VERSION};
use vada_common::{Result, VadaError};

use super::codec::{
    decode_event, decode_stored_relation, encode_event, encode_stored_relation, static_aspect,
    RelationRef, StoredRelation,
};
use super::wal::crc32;
use crate::delta::DeltaEvent;

const MAGIC: &[u8; 7] = b"VADASNP";

/// Everything a reopen restores before replaying the WAL.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The KB version (== the journal's `last_seq`) at capture time.
    pub version: u64,
    /// The journal lineage to restore, so consumer watermarks taken before
    /// the crash keep resolving against the reopened base.
    pub lineage: u64,
    /// The journal's pruned-through watermark.
    pub pruned_through: u64,
    /// The journal's retention capacity.
    pub capacity: u64,
    /// Per-aspect versions, sorted by aspect.
    pub aspect_versions: Vec<(String, u64)>,
    /// The journal's retained event window, oldest first.
    pub events: Vec<DeltaEvent>,
    /// Every catalog relation.
    pub relations: Vec<StoredRelation>,
}

impl Snapshot {
    /// The borrowed form the encoder takes.
    pub fn view(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            version: self.version,
            lineage: self.lineage,
            pruned_through: self.pruned_through,
            capacity: self.capacity,
            aspect_versions: self.aspect_versions.iter().map(|(a, v)| (a.as_str(), *v)).collect(),
            events: self.events.iter().collect(),
            relations: self.relations.iter().map(StoredRelation::view).collect(),
        }
    }
}

/// A checkpoint to write, borrowed from the live knowledge base: no tuple
/// and no journal event is copied on the way to the encoder. Field for
/// field the [`Snapshot`] that reading it back yields.
#[derive(Debug, Clone)]
pub struct SnapshotRef<'a> {
    /// The KB version at capture time.
    pub version: u64,
    /// The journal lineage.
    pub lineage: u64,
    /// The journal's pruned-through watermark.
    pub pruned_through: u64,
    /// The journal's retention capacity.
    pub capacity: u64,
    /// Per-aspect versions, sorted by aspect.
    pub aspect_versions: Vec<(&'a str, u64)>,
    /// The journal's retained event window, oldest first.
    pub events: Vec<&'a DeltaEvent>,
    /// Every catalog relation.
    pub relations: Vec<RelationRef<'a>>,
}

fn encode_body(snap: &SnapshotRef<'_>, out: &mut Vec<u8>) {
    put_u64(out, snap.version);
    put_u64(out, snap.lineage);
    put_u64(out, snap.pruned_through);
    put_u64(out, snap.capacity);
    put_u32(out, snap.aspect_versions.len() as u32);
    for (aspect, v) in &snap.aspect_versions {
        put_str(out, aspect);
        put_u64(out, *v);
    }
    put_u32(out, snap.events.len() as u32);
    for e in &snap.events {
        encode_event(e.seq, e.aspect, &e.change, out);
    }
    put_u32(out, snap.relations.len() as u32);
    for rel in &snap.relations {
        encode_stored_relation(*rel, out);
    }
}

fn decode_body(body: &[u8]) -> Result<Snapshot> {
    let mut r = Reader::new(body);
    let version = r.u64()?;
    let lineage = r.u64()?;
    let pruned_through = r.u64()?;
    let capacity = r.u64()?;
    let n = r.u32()? as usize;
    let mut aspect_versions = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        // validate against the aspect table now: a bad aspect surfaced at
        // decode time names the file, not a later panic deep in the store
        let aspect = static_aspect(r.str()?)?.to_string();
        aspect_versions.push((aspect, r.u64()?));
    }
    let n = r.u32()? as usize;
    let mut events = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        events.push(decode_event(&mut r)?);
    }
    let n = r.u32()? as usize;
    let mut relations = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        relations.push(decode_stored_relation(&mut r)?);
    }
    r.expect_done()?;
    Ok(Snapshot {
        version,
        lineage,
        pruned_through,
        capacity,
        aspect_versions,
        events,
        relations,
    })
}

/// Write `snap` to `<dir>/<file>` atomically (temp + rename), fsyncing the
/// file and its directory entry.
pub fn write_snapshot(dir: &Path, file: &str, snap: &SnapshotRef<'_>) -> Result<()> {
    // the body is encoded straight behind the header, whose CRC field is a
    // placeholder until the body is complete
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.push(FORMAT_VERSION);
    bytes.extend_from_slice(&[0u8; 4]);
    encode_body(snap, &mut bytes);
    let crc = crc32(&bytes[12..]);
    bytes[8..12].copy_from_slice(&crc.to_le_bytes());

    let tmp = dir.join(format!("{file}.tmp"));
    let path = dir.join(file);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Read the snapshot at `<dir>/<file>`, or `None` if absent. Corruption
/// (bad magic, bad CRC, undecodable body) is an error: unlike a WAL tail,
/// a snapshot is written atomically, so a damaged one means the storage
/// medium lied and silently starting empty would lose acknowledged data.
pub fn read_snapshot(dir: &Path, file: &str) -> Result<Option<Snapshot>> {
    let path = dir.join(file);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 12 || bytes[..7] != MAGIC[..] {
        return Err(VadaError::Storage(format!(
            "{}: not a VADA snapshot",
            path.display()
        )));
    }
    if bytes[7] != FORMAT_VERSION {
        return Err(VadaError::Storage(format!(
            "{}: unsupported snapshot format version {}",
            path.display(),
            bytes[7]
        )));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != crc {
        return Err(VadaError::Storage(format!(
            "{}: snapshot checksum mismatch",
            path.display()
        )));
    }
    decode_body(body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RelationKind;
    use crate::delta::DeltaChange;
    use vada_common::{tuple, Relation, Schema};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vada-snap-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Snapshot {
        let rel = Relation::from_tuples(
            Schema::all_str("s", &["a"]),
            vec![tuple!["x"], tuple!["y"]],
        )
        .unwrap();
        Snapshot {
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
        }
    }

    #[test]
    fn round_trips() {
        let dir = tmpdir("rt");
        let snap = sample();
        write_snapshot(&dir, "snapshot.bin", &snap.view()).unwrap();
        let back = read_snapshot(&dir, "snapshot.bin").unwrap().unwrap();
        assert_eq!(back, snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_is_none() {
        let dir = tmpdir("none");
        assert_eq!(read_snapshot(&dir, "snapshot.bin").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_an_error_not_empty() {
        let dir = tmpdir("bad");
        write_snapshot(&dir, "snapshot.bin", &sample().view()).unwrap();
        let mut bytes = std::fs::read(dir.join("snapshot.bin")).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(dir.join("snapshot.bin"), &bytes).unwrap();
        assert_eq!(
            read_snapshot(&dir, "snapshot.bin").unwrap_err().kind(),
            "storage"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
