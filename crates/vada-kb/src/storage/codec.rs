//! Encoding of the knowledge-base event vocabulary — [`DeltaChange`],
//! [`DeltaEvent`], schemas, relation kinds — on top of the canonical value
//! codec in [`vada_common::codec`]. These are the payloads the WAL frames
//! and the snapshot body are assembled from.

use vada_common::codec::{
    decode_tuples, encode_tuples, put_str, put_u32, put_u64, put_u8, Reader,
};
use vada_common::{AttrType, Relation, Result, Schema, VadaError};

use crate::catalog::RelationKind;
use crate::delta::{DeltaChange, DeltaEvent};

/// Map a decoded aspect string back to the `&'static str` the journal
/// carries. The journal compares aspects by value but stores them as
/// static strings; replay must produce the *same* statics so a reopened
/// journal is indistinguishable from the uninterrupted one.
pub fn static_aspect(s: &str) -> Result<&'static str> {
    const ASPECTS: &[&str] = &[
        "relations",
        "result",
        "intermediates",
        "target",
        "matches",
        "mappings",
        "selection",
        "cfds",
        "quality",
        "feedback",
        "user_context",
        "data_context",
        "staged",
    ];
    ASPECTS
        .iter()
        .find(|a| **a == s)
        .copied()
        .ok_or_else(|| VadaError::Storage(format!("unknown journal aspect `{s}`")))
}

// ---------------------------------------------------------------------
// schemas & relation kinds
// ---------------------------------------------------------------------

/// Append a schema: name, then `(attr name, type tag)` pairs.
pub fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    put_str(out, &schema.name);
    put_u32(out, schema.attributes().len() as u32);
    for a in schema.attributes() {
        put_str(out, &a.name);
        put_str(out, a.ty.name());
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let name = r.str()?.to_string();
    let n = r.u32()? as usize;
    let mut attrs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let attr = r.str()?.to_string();
        let ty = AttrType::parse(r.str()?)?;
        attrs.push((attr, ty));
    }
    Schema::new(name, attrs)
}

const KIND_SOURCE: u8 = 0;
const KIND_CONTEXT: u8 = 1;
const KIND_RESULT: u8 = 2;
const KIND_INTERMEDIATE: u8 = 3;

/// Append a relation kind tag.
pub fn encode_kind(kind: RelationKind, out: &mut Vec<u8>) {
    put_u8(
        out,
        match kind {
            RelationKind::Source => KIND_SOURCE,
            RelationKind::Context => KIND_CONTEXT,
            RelationKind::Result => KIND_RESULT,
            RelationKind::Intermediate => KIND_INTERMEDIATE,
        },
    );
}

/// Decode a relation kind tag.
pub fn decode_kind(r: &mut Reader<'_>) -> Result<RelationKind> {
    match r.u8()? {
        KIND_SOURCE => Ok(RelationKind::Source),
        KIND_CONTEXT => Ok(RelationKind::Context),
        KIND_RESULT => Ok(RelationKind::Result),
        KIND_INTERMEDIATE => Ok(RelationKind::Intermediate),
        other => Err(VadaError::Storage(format!("unknown relation kind tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// stored relations
// ---------------------------------------------------------------------

/// A full relation as persisted: its catalog kind, schema, and rows.
/// Carried by WAL records whose [`DeltaChange`] does not name its rows
/// (`RelationAdded` / `RelationReplaced`) and by every snapshot entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRelation {
    /// The catalog role of the relation.
    pub kind: RelationKind,
    /// Schema (which carries the relation name).
    pub schema: Schema,
    /// All rows, in catalog order.
    pub rows: Vec<vada_common::Tuple>,
}

impl StoredRelation {
    /// Capture a catalog entry.
    pub fn capture(kind: RelationKind, rel: &Relation) -> StoredRelation {
        StoredRelation {
            kind,
            schema: rel.schema().clone(),
            rows: rel.tuples().to_vec(),
        }
    }

    /// The borrowed form the encoder takes.
    pub fn view(&self) -> RelationRef<'_> {
        RelationRef { kind: self.kind, schema: &self.schema, rows: &self.rows }
    }

    /// Rebuild the relation.
    pub fn into_relation(self) -> Result<(RelationKind, Relation)> {
        Ok((self.kind, Relation::from_tuples(self.schema, self.rows)?))
    }
}

/// A relation to persist, borrowed: the encoders write checkpoints and
/// records straight from the catalog, and [`StoredRelation`] is only what
/// decoding hands back.
#[derive(Debug, Clone, Copy)]
pub struct RelationRef<'a> {
    /// The catalog role of the relation.
    pub kind: RelationKind,
    /// Schema (which carries the relation name).
    pub schema: &'a Schema,
    /// All rows, in catalog order.
    pub rows: &'a [vada_common::Tuple],
}

impl<'a> RelationRef<'a> {
    /// Borrow a catalog entry.
    pub fn of(kind: RelationKind, rel: &'a Relation) -> RelationRef<'a> {
        RelationRef { kind, schema: rel.schema(), rows: rel.tuples() }
    }
}

/// Append a stored relation.
pub fn encode_stored_relation(rel: RelationRef<'_>, out: &mut Vec<u8>) {
    encode_kind(rel.kind, out);
    encode_schema(rel.schema, out);
    encode_tuples(rel.rows, out);
}

/// Decode a stored relation.
pub fn decode_stored_relation(r: &mut Reader<'_>) -> Result<StoredRelation> {
    let kind = decode_kind(r)?;
    let schema = decode_schema(r)?;
    let rows = decode_tuples(r)?;
    Ok(StoredRelation { kind, schema, rows })
}

// ---------------------------------------------------------------------
// delta changes & events
// ---------------------------------------------------------------------

const CHANGE_ROWS_APPENDED: u8 = 0;
const CHANGE_RELATION_ADDED: u8 = 1;
const CHANGE_ROWS_REMOVED: u8 = 2;
const CHANGE_ROWS_REPLACED: u8 = 3;
const CHANGE_RELATION_REPLACED: u8 = 4;
const CHANGE_RELATION_REMOVED: u8 = 5;
const CHANGE_ASPECT_CHANGED: u8 = 6;
const CHANGE_ROWS_INSERTED: u8 = 7;

fn put_positions(out: &mut Vec<u8>, positions: &[usize]) {
    put_u32(out, positions.len() as u32);
    for p in positions {
        put_u64(out, *p as u64);
    }
}

fn read_positions(r: &mut Reader<'_>) -> Result<Vec<usize>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        out.push(r.u64()? as usize);
    }
    Ok(out)
}

/// Append one delta change.
pub fn encode_change(change: &DeltaChange, out: &mut Vec<u8>) {
    match change {
        DeltaChange::RowsAppended { relation, rows } => {
            put_u8(out, CHANGE_ROWS_APPENDED);
            put_str(out, relation);
            encode_tuples(rows, out);
        }
        DeltaChange::RelationAdded { relation } => {
            put_u8(out, CHANGE_RELATION_ADDED);
            put_str(out, relation);
        }
        DeltaChange::RowsRemoved { relation, rows, positions } => {
            put_u8(out, CHANGE_ROWS_REMOVED);
            put_str(out, relation);
            encode_tuples(rows, out);
            put_positions(out, positions);
        }
        DeltaChange::RowsReplaced { relation, removed, added, positions, tail } => {
            put_u8(out, CHANGE_ROWS_REPLACED);
            put_str(out, relation);
            encode_tuples(removed, out);
            encode_tuples(added, out);
            put_positions(out, positions);
            put_u8(out, *tail as u8);
        }
        DeltaChange::RowsInserted { relation, rows, positions } => {
            put_u8(out, CHANGE_ROWS_INSERTED);
            put_str(out, relation);
            encode_tuples(rows, out);
            put_positions(out, positions);
        }
        DeltaChange::RelationReplaced { relation } => {
            put_u8(out, CHANGE_RELATION_REPLACED);
            put_str(out, relation);
        }
        DeltaChange::RelationRemoved { relation } => {
            put_u8(out, CHANGE_RELATION_REMOVED);
            put_str(out, relation);
        }
        DeltaChange::AspectChanged => put_u8(out, CHANGE_ASPECT_CHANGED),
    }
}

/// Decode one delta change.
pub fn decode_change(r: &mut Reader<'_>) -> Result<DeltaChange> {
    match r.u8()? {
        CHANGE_ROWS_APPENDED => Ok(DeltaChange::RowsAppended {
            relation: r.str()?.to_string(),
            rows: decode_tuples(r)?,
        }),
        CHANGE_RELATION_ADDED => Ok(DeltaChange::RelationAdded { relation: r.str()?.to_string() }),
        CHANGE_ROWS_REMOVED => Ok(DeltaChange::RowsRemoved {
            relation: r.str()?.to_string(),
            rows: decode_tuples(r)?,
            positions: read_positions(r)?,
        }),
        CHANGE_ROWS_REPLACED => Ok(DeltaChange::RowsReplaced {
            relation: r.str()?.to_string(),
            removed: decode_tuples(r)?,
            added: decode_tuples(r)?,
            positions: read_positions(r)?,
            tail: match r.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(VadaError::Storage(format!("invalid tail byte {other}")));
                }
            },
        }),
        CHANGE_ROWS_INSERTED => Ok(DeltaChange::RowsInserted {
            relation: r.str()?.to_string(),
            rows: decode_tuples(r)?,
            positions: read_positions(r)?,
        }),
        CHANGE_RELATION_REPLACED => {
            Ok(DeltaChange::RelationReplaced { relation: r.str()?.to_string() })
        }
        CHANGE_RELATION_REMOVED => {
            Ok(DeltaChange::RelationRemoved { relation: r.str()?.to_string() })
        }
        CHANGE_ASPECT_CHANGED => Ok(DeltaChange::AspectChanged),
        other => Err(VadaError::Storage(format!("unknown delta-change tag {other}"))),
    }
}

/// Append one journal event, given as its parts (a [`DeltaEvent`] in the
/// snapshot's window, a not-yet-journalled mutation in a WAL record).
pub fn encode_event(seq: u64, aspect: &str, change: &DeltaChange, out: &mut Vec<u8>) {
    put_u64(out, seq);
    put_str(out, aspect);
    encode_change(change, out);
}

/// Decode one journal event (the aspect is mapped back to its static).
pub fn decode_event(r: &mut Reader<'_>) -> Result<DeltaEvent> {
    let seq = r.u64()?;
    let aspect = static_aspect(r.str()?)?;
    let change = decode_change(r)?;
    Ok(DeltaEvent { seq, aspect, change })
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

/// One write-ahead-log record: the journal event, plus — for events whose
/// change does not carry its rows (`RelationAdded`, `RelationReplaced`) —
/// the full new relation, so replay never needs state the log does not
/// hold.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The journalled event.
    pub event: DeltaEvent,
    /// The full relation for relation-level changes; `None` otherwise.
    pub payload: Option<StoredRelation>,
}

impl WalRecord {
    /// The borrowed form the encoder takes.
    pub fn view(&self) -> RecordRef<'_> {
        RecordRef {
            seq: self.event.seq,
            aspect: self.event.aspect,
            change: &self.event.change,
            payload: self.payload.as_ref().map(StoredRelation::view),
        }
    }
}

/// A WAL record to append, borrowed from the mutation in flight — the
/// write path never builds an owned [`WalRecord`].
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// The sequence number (= KB version) the mutation produces.
    pub seq: u64,
    /// The aspect the mutation bumps.
    pub aspect: &'a str,
    /// What changes.
    pub change: &'a DeltaChange,
    /// The full relation for relation-level changes; `None` otherwise.
    pub payload: Option<RelationRef<'a>>,
}

/// Encode a WAL record payload (the frame — length + CRC — is the WAL's
/// job, not the codec's).
pub fn encode_record(rec: RecordRef<'_>, out: &mut Vec<u8>) {
    encode_event(rec.seq, rec.aspect, rec.change, out);
    match rec.payload {
        None => put_u8(out, 0),
        Some(rel) => {
            put_u8(out, 1);
            encode_stored_relation(rel, out);
        }
    }
}

/// Decode a WAL record payload; the whole buffer must be consumed.
pub fn decode_record(buf: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(buf);
    let event = decode_event(&mut r)?;
    let payload = match r.u8()? {
        0 => None,
        1 => Some(decode_stored_relation(&mut r)?),
        other => return Err(VadaError::Storage(format!("invalid payload flag {other}"))),
    };
    r.expect_done()?;
    Ok(WalRecord { event, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;

    fn round_trip(change: DeltaChange) {
        let rec = WalRecord {
            event: DeltaEvent { seq: 42, aspect: "relations", change },
            payload: None,
        };
        let mut buf = Vec::new();
        encode_record(rec.view(), &mut buf);
        assert_eq!(decode_record(&buf).unwrap(), rec);
    }

    #[test]
    fn every_change_variant_round_trips() {
        round_trip(DeltaChange::RowsAppended {
            relation: "r".into(),
            rows: vec![tuple![1, "x"], tuple![2, "y"]],
        });
        round_trip(DeltaChange::RelationAdded { relation: "r".into() });
        round_trip(DeltaChange::RowsRemoved {
            relation: "r".into(),
            rows: vec![tuple![1]],
            positions: vec![3],
        });
        round_trip(DeltaChange::RowsReplaced {
            relation: "r".into(),
            removed: vec![tuple![1]],
            added: vec![tuple![2]],
            positions: vec![0],
            tail: true,
        });
        round_trip(DeltaChange::RowsInserted {
            relation: "r".into(),
            rows: vec![tuple![1, "x"], tuple![3, "z"]],
            positions: vec![0, 4],
        });
        round_trip(DeltaChange::RelationReplaced { relation: "r".into() });
        round_trip(DeltaChange::RelationRemoved { relation: "r".into() });
        round_trip(DeltaChange::AspectChanged);
    }

    #[test]
    fn payload_round_trips() {
        let rel = Relation::from_tuples(
            Schema::all_str("s", &["a", "b"]),
            vec![tuple!["1", "2"]],
        )
        .unwrap();
        let rec = WalRecord {
            event: DeltaEvent {
                seq: 7,
                aspect: "relations",
                change: DeltaChange::RelationAdded { relation: "s".into() },
            },
            payload: Some(StoredRelation::capture(RelationKind::Source, &rel)),
        };
        let mut buf = Vec::new();
        encode_record(rec.view(), &mut buf);
        let back = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
        let (kind, rebuilt) = back.payload.unwrap().into_relation().unwrap();
        assert_eq!(kind, RelationKind::Source);
        assert_eq!(rebuilt.tuples(), rel.tuples());
        assert_eq!(rebuilt.schema(), rel.schema());
    }

    #[test]
    fn unknown_aspect_rejected() {
        assert!(static_aspect("not-an-aspect").is_err());
        // every aspect the store can touch maps to its static
        for a in ["relations", "staged", "data_context", "selection"] {
            assert_eq!(static_aspect(a).unwrap(), a);
        }
    }
}
