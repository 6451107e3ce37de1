//! Canonical, versioned binary encoding for [`Value`]s and [`Tuple`]s —
//! the serialization boundary the durable knowledge base (WAL records,
//! snapshots) and any future wire transport share.
//!
//! Design rules:
//!
//! - **Canonical**: one byte string per logical value. Floats are encoded
//!   by bit pattern *after* [`Value::canonical_f64`] (all NaN payloads
//!   unified, `-0.0` folded into `+0.0`), so two values that compare equal
//!   under the total [`Value`] order encode identically, and
//!   encode∘decode∘encode is byte-stable.
//! - **Total**: every value round-trips — embedded NUL bytes, newlines,
//!   max-magnitude integers, infinities — because fields are length- or
//!   tag-delimited, never sentinel-delimited.
//! - **Versioned**: containers that persist these bytes (the WAL, the
//!   snapshot) carry [`FORMAT_VERSION`] in their headers; the encoding
//!   itself never changes shape silently. Decoders reject unknown tags
//!   with [`VadaError::Storage`] instead of guessing.
//!
//! The primitive readers/writers (`put_*`, [`Reader`]) are public so that
//! higher layers (e.g. `vada-kb`'s delta-event codec) compose record
//! formats from the same primitives rather than inventing parallel ones.

use crate::error::{Result, VadaError};
use crate::tuple::Tuple;
use crate::value::Value;

/// Version of the value/tuple encoding, and of the journal-event records the
/// knowledge base composes from it. Bump on any change to either byte
/// layout; persistent containers store it in their headers and refuse
/// versions they do not understand.
pub const FORMAT_VERSION: u8 = 2;

// ---------------------------------------------------------------------
// primitive writers
// ---------------------------------------------------------------------

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed (`u32`) byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

// ---------------------------------------------------------------------
// primitive reader
// ---------------------------------------------------------------------

/// A bounds-checked cursor over an encoded buffer. Every read either
/// yields the decoded primitive or a [`VadaError::Storage`] — a short
/// buffer can never panic or silently yield garbage.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Error if any bytes remain — catches trailing garbage after a
    /// supposedly complete record.
    pub fn expect_done(&self) -> Result<()> {
        if self.is_done() {
            Ok(())
        } else {
            Err(VadaError::Storage(format!(
                "codec: {} trailing bytes after record",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(VadaError::Storage(format!(
                "codec: unexpected end of input (need {n}, have {})",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| VadaError::Storage(format!("codec: invalid utf-8 string: {e}")))
    }
}

// ---------------------------------------------------------------------
// values & tuples
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Append the canonical encoding of one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => put_u8(out, TAG_NULL),
        Value::Bool(b) => {
            put_u8(out, TAG_BOOL);
            put_u8(out, *b as u8);
        }
        Value::Int(i) => {
            put_u8(out, TAG_INT);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, TAG_FLOAT);
            // bit pattern, canonicalized: -0.0 folds into +0.0, every NaN
            // payload unifies — so values equal under the total Value
            // order encode byte-identically
            put_u64(out, Value::canonical_f64(*f));
        }
        Value::Str(s) => {
            put_u8(out, TAG_STR);
            put_str(out, s);
        }
    }
}

/// Decode one value.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(VadaError::Storage(format!("codec: invalid bool byte {other}"))),
        },
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(r.u64()?))),
        TAG_STR => Ok(Value::str(r.str()?)),
        other => Err(VadaError::Storage(format!("codec: unknown value tag {other}"))),
    }
}

/// Append the canonical encoding of one tuple (arity-prefixed).
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    put_u32(out, t.arity() as u32);
    for v in t.iter() {
        encode_value(v, out);
    }
}

/// Decode one tuple.
pub fn decode_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    decode_tuple_with(r, &mut Vec::new())
}

/// Decode one tuple through `values`, a buffer reused across tuples.
fn decode_tuple_with(r: &mut Reader<'_>, values: &mut Vec<Value>) -> Result<Tuple> {
    let arity = r.u32()? as usize;
    values.clear();
    values.reserve(arity.min(1024));
    for _ in 0..arity {
        values.push(decode_value(r)?);
    }
    Ok(Tuple::from_drain(values))
}

/// Append a count-prefixed sequence of tuples.
pub fn encode_tuples(ts: &[Tuple], out: &mut Vec<u8>) {
    put_u32(out, ts.len() as u32);
    for t in ts {
        encode_tuple(t, out);
    }
}

/// Decode a count-prefixed sequence of tuples.
pub fn decode_tuples(r: &mut Reader<'_>) -> Result<Vec<Tuple>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(65_536));
    let mut values = Vec::new();
    for _ in 0..n {
        out.push(decode_tuple_with(r, &mut values)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn round_trip_value(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_value(&mut r).unwrap();
        r.expect_done().unwrap();
        back
    }

    #[test]
    fn every_variant_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("line\nbreak\0nul,comma\"quote"),
        ] {
            assert_eq!(round_trip_value(&v), v, "{v:?}");
        }
    }

    #[test]
    fn floats_canonicalize_on_encode() {
        // -0.0 and +0.0 (equal under the total order) encode identically
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&Value::Float(0.0), &mut a);
        encode_value(&Value::Float(-0.0), &mut b);
        assert_eq!(a, b);
        // NaN round-trips to the canonical NaN, which is Value-equal
        let back = round_trip_value(&Value::Float(f64::NAN));
        assert_eq!(back, Value::Float(f64::NAN));
        // and re-encoding the decoded value is byte-stable
        let mut again = Vec::new();
        encode_value(&back, &mut again);
        let mut first = Vec::new();
        encode_value(&Value::Float(f64::NAN), &mut first);
        assert_eq!(again, first);
    }

    #[test]
    fn tuples_round_trip() {
        let t = tuple![1, "x", 2.5, true];
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_tuple(&mut r).unwrap(), t);
        assert!(r.is_done());
    }

    #[test]
    fn short_buffers_error_never_panic() {
        let mut buf = Vec::new();
        encode_tuple(&tuple![1, "abc"], &mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_tuple(&mut r).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut r = Reader::new(&[99]);
        let e = decode_value(&mut r).unwrap_err();
        assert_eq!(e.kind(), "storage");
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(7), &mut buf);
        buf.push(0);
        let mut r = Reader::new(&buf);
        decode_value(&mut r).unwrap();
        assert!(r.expect_done().is_err());
    }
}
