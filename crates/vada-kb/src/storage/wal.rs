//! The append-only write-ahead log.
//!
//! File layout: an 8-byte header (`b"VADAWAL"` + the codec
//! [`FORMAT_VERSION`](vada_common::codec::FORMAT_VERSION)), then records,
//! each framed as
//!
//! ```text
//! u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload bytes
//! ```
//!
//! **Durability contract.** [`Wal::append`] writes the frame and fsyncs
//! before returning: once a mutation is applied in memory, its record is on
//! disk. A crash can therefore only ever lose (or tear) the *suffix* the
//! process had not finished writing.
//!
//! **Torn tails.** On open the log is scanned record by record. A short
//! frame, a short payload, or a CRC mismatch at the tail is exactly what an
//! interrupted write leaves behind: the file is truncated back to the last
//! whole record and the open succeeds — a torn tail is detected and
//! discarded, never misread as data. A record that frames and checksums
//! correctly but fails to *decode* is different: the bytes were written
//! intact, so the file is from an incompatible or corrupt producer, and the
//! open fails with [`VadaError::Storage`] rather than silently dropping
//! acknowledged history.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vada_common::codec::FORMAT_VERSION;
use vada_common::{Result, VadaError};

use super::codec::{decode_record, encode_record, RecordRef, WalRecord};

const MAGIC: &[u8; 7] = b"VADAWAL";
const HEADER_LEN: u64 = 8;
/// Cap on a single record payload (64 MiB). [`Wal::append`] refuses a
/// larger record before writing a byte, so on open a length field beyond
/// the cap can only be garbage and is treated like any other torn tail:
/// truncate. (Unit tests lower the cap so the refusal is testable without
/// a 64 MiB allocation.)
#[cfg(not(test))]
const MAX_RECORD_LEN: u32 = 64 << 20;
#[cfg(test)]
const MAX_RECORD_LEN: u32 = 64 << 10;

/// Slice-by-8 lookup tables for CRC-32 (IEEE 802.3, the zlib polynomial):
/// `CRC_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib polynomial), eight bytes per step. Guards
/// both WAL frames and snapshot bodies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An open write-ahead log, positioned at its end for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

fn header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..7].copy_from_slice(MAGIC);
    h[7] = FORMAT_VERSION;
    h
}

fn sync_parent_dir(path: &Path) {
    // Persist the directory entry itself (new or renamed file). Best
    // effort: not every platform lets a directory be fsynced.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl Wal {
    /// Create (or truncate to empty) the log at `path` and fsync it.
    pub fn create(path: impl Into<PathBuf>) -> Result<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&header())?;
        file.sync_data()?;
        sync_parent_dir(&path);
        Ok(Wal { file, path })
    }

    /// Open the log at `path`, replaying its records. A missing file is
    /// created empty. Returns the log (positioned for appending) and every
    /// whole record, in write order; a torn tail is truncated away.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Wal, Vec<WalRecord>)> {
        let path = path.into();
        if !path.exists() {
            return Ok((Wal::create(path)?, Vec::new()));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < HEADER_LEN as usize {
            // even the header is torn: an interrupted create — start over
            drop(file);
            return Ok((Wal::create(path)?, Vec::new()));
        }
        if bytes[..7] != MAGIC[..] {
            return Err(VadaError::Storage(format!(
                "{}: not a VADA write-ahead log",
                path.display()
            )));
        }
        if bytes[7] != FORMAT_VERSION {
            return Err(VadaError::Storage(format!(
                "{}: unsupported WAL format version {}",
                path.display(),
                bytes[7]
            )));
        }

        let mut records = Vec::new();
        let mut offset = HEADER_LEN as usize; // end of the last whole record
        let mut pos = offset;
        let mut last_seq = 0u64;
        loop {
            if bytes.len() - pos < 8 {
                break; // torn or absent frame header
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            if len > MAX_RECORD_LEN || bytes.len() - pos - 8 < len as usize {
                break; // implausible length or torn payload
            }
            let payload = &bytes[pos + 8..pos + 8 + len as usize];
            if crc32(payload) != crc {
                break; // torn mid-payload (overwritten garbage)
            }
            // the frame is intact: a decode failure now is corruption, not
            // a torn tail — refuse rather than drop acknowledged records
            let record = decode_record(payload).map_err(|e| {
                VadaError::Storage(format!(
                    "{}: record at offset {pos} is framed correctly but undecodable: {}",
                    path.display(),
                    e.message()
                ))
            })?;
            if record.event.seq <= last_seq {
                return Err(VadaError::Storage(format!(
                    "{}: record at offset {pos} breaks sequence monotonicity ({} after {})",
                    path.display(),
                    record.event.seq,
                    last_seq
                )));
            }
            last_seq = record.event.seq;
            records.push(record);
            pos += 8 + len as usize;
            offset = pos;
        }

        if offset < bytes.len() {
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((Wal { file, path }, records))
    }

    /// Append one record: frame, write, fsync. After this returns the
    /// record will survive a crash. Returns the framed byte count — the
    /// observability layer's `wal.bytes` currency.
    ///
    /// A record whose payload exceeds the 64 MiB frame cap is refused with
    /// [`VadaError::Storage`] before a byte is written: [`Wal::open`] reads
    /// such a length as a torn tail, so writing it would lose the record
    /// and everything appended after it on the next open.
    pub fn append(&mut self, record: RecordRef<'_>) -> Result<u64> {
        // the payload is encoded straight behind a placeholder frame
        // header, which is patched once length and CRC are known
        let mut frame = vec![0u8; 8];
        encode_record(record, &mut frame);
        let len = frame.len() - 8;
        if len > MAX_RECORD_LEN as usize {
            return Err(VadaError::Storage(format!(
                "{}: record {} is {len} bytes, over the {MAX_RECORD_LEN}-byte frame cap",
                self.path.display(),
                record.seq
            )));
        }
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(frame.len() as u64)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaChange, DeltaEvent};
    use vada_common::tuple;

    /// A log file directly under the temp dir, so removing it at the end
    /// of a test leaves nothing behind.
    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vada-wal-test-{}-{name}.log", std::process::id()))
    }

    fn rec(seq: u64, n: usize) -> WalRecord {
        WalRecord {
            event: DeltaEvent {
                seq,
                aspect: "relations",
                change: DeltaChange::RowsAppended {
                    relation: "r".into(),
                    rows: (0..n).map(|i| tuple![i as i64, "payload"]).collect(),
                },
            },
            payload: None,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_reopen() {
        let path = tmp("append");
        let mut wal = Wal::create(&path).unwrap();
        for s in 1..=5 {
            wal.append(rec(s, s as usize).view()).unwrap();
        }
        drop(wal);
        let (_wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], rec(5, 5));
        std::fs::remove_file(&path).unwrap();
    }

    /// A record over the frame cap is refused before a byte is written:
    /// accepted, it would read as a torn tail on the next open and take
    /// every later record with it.
    #[test]
    fn oversized_record_is_refused_and_the_log_survives() {
        let path = tmp("oversized");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(rec(1, 1).view()).unwrap();
        wal.append(rec(2, 2).view()).unwrap();
        let before = std::fs::read(&path).unwrap();

        let oversized = WalRecord {
            event: DeltaEvent {
                seq: 3,
                aspect: "relations",
                change: DeltaChange::RowsAppended {
                    relation: "r".into(),
                    rows: vec![tuple!["x".repeat(MAX_RECORD_LEN as usize)]],
                },
            },
            payload: None,
        };
        let err = wal.append(oversized.view()).unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert_eq!(std::fs::read(&path).unwrap(), before, "a refused append writes nothing");

        // the log is still appendable, and a reopen keeps every record
        wal.append(rec(3, 1).view()).unwrap();
        drop(wal);
        let (_wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![rec(1, 1), rec(2, 2), rec(3, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_recovers_a_prefix() {
        let path = tmp("trunc");
        let mut wal = Wal::create(&path).unwrap();
        let originals: Vec<WalRecord> = (1..=4).map(|s| rec(s, s as usize)).collect();
        for r in &originals {
            wal.append(r.view()).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_w, records) = Wal::open(&path).unwrap();
            assert!(
                originals.starts_with(&records),
                "cut at {cut}: recovered records must be a prefix"
            );
            // reopening after truncation is idempotent: the file now ends
            // at the last whole record
            let healed = std::fs::read(&path).unwrap();
            let (_w2, again) = Wal::open(&path).unwrap();
            assert_eq!(records, again);
            assert_eq!(std::fs::read(&path).unwrap(), healed);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_with_valid_frame_is_rejected() {
        let path = tmp("corrupt");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(rec(1, 1).view()).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a payload byte and fix the CRC so the frame still verifies
        let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let crc = crc32(&bytes[16..16 + len]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert_eq!(err.kind(), "storage");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_byte_without_crc_fix_truncates() {
        let path = tmp("flip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(rec(1, 1).view()).unwrap();
        wal.append(rec(2, 1).view()).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // tear the second record's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_w, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![rec(1, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAWAL!garbage").unwrap();
        assert_eq!(Wal::open(&path).unwrap_err().kind(), "storage");
        std::fs::remove_file(&path).unwrap();
    }
}
