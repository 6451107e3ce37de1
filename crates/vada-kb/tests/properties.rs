//! Property-based tests for the knowledge-base storage subsystem: the
//! event codec is the identity over every [`DeltaChange`] variant filled
//! with adversarial values, snapshots round-trip whole states, and the
//! write-ahead log recovers a strict prefix of its records from *any*
//! byte-level truncation — a torn tail is detected and discarded, never
//! misread.

use proptest::prelude::*;

use vada_common::{Schema, Tuple, Value};
use vada_kb::catalog::RelationKind;
use vada_kb::storage::codec::{decode_record, encode_record};
use vada_kb::storage::snapshot::{read_snapshot, write_snapshot};
use vada_kb::storage::wal::crc32;
use vada_kb::storage::{Snapshot, StoredRelation, Wal, WalRecord};
use vada_kb::{DeltaChange, DeltaEvent};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::str("embedded\nnewline and \0 nul")),
        "[a-zA-Z0-9 £,.\"-]{0,10}".prop_map(Value::str),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 1..4).prop_map(Tuple::new)
}

fn arb_rows() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(arb_tuple(), 0..5)
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_]{0,8}".prop_map(|s| s)
}

fn arb_positions() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 0..5)
}

/// Every [`DeltaChange`] variant, with adversarial contents.
fn arb_change() -> impl Strategy<Value = DeltaChange> {
    prop_oneof![
        (arb_name(), arb_rows())
            .prop_map(|(relation, rows)| DeltaChange::RowsAppended { relation, rows }),
        arb_name().prop_map(|relation| DeltaChange::RelationAdded { relation }),
        (arb_name(), arb_rows(), arb_positions()).prop_map(|(relation, rows, positions)| {
            DeltaChange::RowsRemoved { relation, rows, positions }
        }),
        (arb_name(), arb_rows(), arb_rows(), arb_positions(), any::<bool>()).prop_map(
            |(relation, removed, added, positions, tail)| DeltaChange::RowsReplaced {
                relation,
                removed,
                added,
                positions,
                tail,
            }
        ),
        (arb_name(), arb_rows(), arb_positions()).prop_map(|(relation, rows, positions)| {
            DeltaChange::RowsInserted { relation, rows, positions }
        }),
        arb_name().prop_map(|relation| DeltaChange::RelationReplaced { relation }),
        arb_name().prop_map(|relation| DeltaChange::RelationRemoved { relation }),
        arb_name().prop_map(|_| DeltaChange::AspectChanged),
    ]
}

const ASPECTS: &[&str] = &[
    "relations", "result", "intermediates", "target", "matches", "mappings", "selection",
    "cfds", "quality", "feedback", "user_context", "data_context", "staged",
];

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        1u64..u64::MAX / 2,
        0usize..ASPECTS.len(),
        arb_change(),
        proptest::collection::vec(arb_tuple(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(seq, aspect, change, rows, with_payload)| {
            // payload rows through a uniform one-column Null-able schema:
            // StoredRelation round-trips are pinned on *typed* relations in
            // the snapshot test below; here the payload just has to survive
            let payload = with_payload.then(|| StoredRelation {
                kind: RelationKind::Source,
                schema: Schema::all_str("payload", &["a", "b", "c"]),
                rows,
            });
            WalRecord {
                event: DeltaEvent { seq, aspect: ASPECTS[aspect], change },
                payload,
            }
        })
}

/// The byte-at-a-time CRC-32 the log and snapshots were first written
/// with — the oracle the sliced implementation must agree with, or every
/// file on disk stops verifying.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

fn scratch(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vada-kb-prop-{}-{name}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    /// The slice-by-8 CRC equals the bytewise reference on every length
    /// 0–64 (no chunk, a remainder only, whole chunks, chunks + every
    /// remainder) at every alignment of the slice within its buffer.
    #[test]
    fn sliced_crc_matches_the_bytewise_reference(
        words in proptest::collection::vec(any::<u64>(), 9..10),
    ) {
        let buf: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {} len {}", offset, len);
            }
        }
    }

    /// decode∘encode is the identity over every change variant — the
    /// WAL's and the snapshot's shared foundation.
    #[test]
    fn every_change_variant_round_trips(record in arb_record()) {
        let mut bytes = Vec::new();
        encode_record(record.view(), &mut bytes);
        prop_assert_eq!(decode_record(&bytes).unwrap(), record);
    }

    /// Any byte-level truncation of a WAL recovers a strict prefix of the
    /// appended records, and re-opening the healed file is idempotent.
    #[test]
    fn wal_truncation_always_recovers_a_prefix(
        records in proptest::collection::vec(arb_record(), 1..5),
        cut_frac in 0.0f64..1.0,
        case in 0u64..u64::MAX,
    ) {
        // seqs must be strictly increasing for the log to accept them
        let mut records = records;
        for (i, r) in records.iter_mut().enumerate() {
            r.event.seq = (i as u64) + 1;
        }
        let dir = scratch("wal", case);
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        for r in &records {
            wal.append(r.view()).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_w, recovered) = Wal::open(&path).unwrap();
        prop_assert!(records.starts_with(&recovered), "recovered set must be a prefix");
        // idempotence: the healed file reopens to the same records
        let (_w2, again) = Wal::open(&path).unwrap();
        prop_assert_eq!(recovered, again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshots round-trip whole states — journal window, watermarks,
    /// aspect versions, typed relations — byte-identically.
    #[test]
    fn snapshots_round_trip(
        version in 0u64..10_000,
        lineage in 0u64..10_000,
        pruned in 0u64..100,
        rows in proptest::collection::vec(("[a-z ]{0,8}", any::<i64>()), 0..6),
        changes in proptest::collection::vec(arb_change(), 0..4),
        case in 0u64..u64::MAX,
    ) {
        let schema = Schema::new(
            "typed",
            [("s", vada_common::AttrType::Str), ("i", vada_common::AttrType::Int)],
        ).unwrap();
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(s, i)| Tuple::new(vec![Value::str(s), Value::Int(*i)]))
            .collect();
        let rel = vada_common::Relation::from_tuples(schema, tuples).unwrap();
        let events: Vec<DeltaEvent> = changes
            .into_iter()
            .enumerate()
            .map(|(i, change)| DeltaEvent {
                seq: pruned + 1 + i as u64,
                aspect: ASPECTS[i % ASPECTS.len()],
                change,
            })
            .collect();
        let snap = Snapshot {
            version,
            lineage,
            pruned_through: pruned,
            capacity: 4096,
            aspect_versions: vec![("relations".into(), version), ("staged".into(), 1)],
            events,
            relations: vec![StoredRelation::capture(RelationKind::Context, &rel)],
        };
        let dir = scratch("snap", case);
        write_snapshot(&dir, "snapshot.bin", &snap.view()).unwrap();
        prop_assert_eq!(read_snapshot(&dir, "snapshot.bin").unwrap().unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
