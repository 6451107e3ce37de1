//! A small, dependency-free CSV reader/writer (RFC-4180 quoting).
//!
//! Web-extraction output and open-government data arrive as CSV in the demo
//! scenario; this module is deliberately minimal — comma separator, `"`
//! quoting with doubled-quote escapes, and `\n`/`\r\n` row terminators.

use crate::error::{guard_stage, Result, VadaError};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Parse CSV text into rows of string fields.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;
    // Whether the current (last) field was explicitly opened by a quote.
    // `field` alone can't tell `""` (a present-but-empty field) apart from
    // "nothing on this line", so the final flush needs this bit to keep a
    // trailing `""` without a newline from being dropped.
    let mut field_started = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                        field_started = true;
                    } else {
                        return Err(VadaError::Csv(
                            "quote in the middle of an unquoted field".into(),
                        ));
                    }
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    field_started = false;
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    field_started = false;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(VadaError::Csv("unterminated quoted field".into()));
    }
    if saw_any && (field_started || !field.is_empty() || !row.is_empty()) {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Escape a field for CSV output.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialise rows of string fields to CSV text.
pub fn serialize<S: AsRef<str>>(rows: &[Vec<S>]) -> String {
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row.iter().map(|f| escape(f.as_ref())).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Read CSV text (first row = header) into a [`Relation`], parsing each cell
/// according to the schema's attribute types. The header must match the
/// schema's attribute names (order included). Rows are typed in file order,
/// so the first bad row is the one reported; a panic while typing surfaces
/// as an error naming the `csv/ingest` stage.
pub fn read_relation(text: &str, schema: Schema) -> Result<Relation> {
    relation_from_rows(parse(text)?, schema)
}

/// [`read_relation`] over rows already [`parse`]d, header row first: for a
/// caller that read the header to build `schema`, so the text is parsed
/// once. Same checks, same errors.
pub fn relation_from_rows(rows: Vec<Vec<String>>, schema: Schema) -> Result<Relation> {
    let body = split_body(rows, &schema)?;
    let tuples = guard_stage("csv/ingest", || {
        let mut values = Vec::with_capacity(schema.arity());
        body.iter()
            .enumerate()
            .map(|(line_no, row)| typed_tuple(line_no, row, &schema, &mut values))
            .collect::<Result<Vec<_>>>()
    })?;
    Relation::from_tuples(schema, tuples)
}

/// Split parsed CSV rows into header + body, validating the header
/// against the schema's attribute names (order included).
fn split_body(rows: Vec<Vec<String>>, schema: &Schema) -> Result<Vec<Vec<String>>> {
    let mut it = rows.into_iter();
    let header = it
        .next()
        .ok_or_else(|| VadaError::Csv("empty csv: missing header".into()))?;
    let expected = schema.attr_names();
    if header.len() != expected.len()
        || header.iter().zip(&expected).any(|(h, e)| h.trim() != *e)
    {
        return Err(VadaError::Csv(format!(
            "header {:?} does not match schema attributes {:?}",
            header, expected
        )));
    }
    Ok(it.collect())
}

/// Type one body row (`line_no` is the 0-based body index) into a tuple,
/// through `values`, a buffer reused across rows. A cell that does not
/// parse as its attribute's type is reported with its row and column.
fn typed_tuple(
    line_no: usize,
    row: &[String],
    schema: &Schema,
    values: &mut Vec<Value>,
) -> Result<Tuple> {
    if row.len() != schema.arity() {
        return Err(VadaError::Csv(format!(
            "row {} has {} fields, expected {}",
            line_no + 2,
            row.len(),
            schema.arity()
        )));
    }
    values.clear();
    for (i, cell) in row.iter().enumerate() {
        let attr = schema.attr(i);
        let value = Value::parse_as(cell, attr.ty).map_err(|e| {
            VadaError::Type(format!(
                "row {}, column `{}`: {}",
                line_no + 2,
                attr.name,
                e.message()
            ))
        })?;
        values.push(value);
    }
    Ok(Tuple::from_drain(values))
}

/// Write a [`Relation`] to CSV text (header row included).
pub fn write_relation(rel: &Relation) -> String {
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(rel.len() + 1);
    rows.push(
        rel.schema()
            .attr_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for t in rel.iter() {
        rows.push(t.iter().map(|v| v.to_string()).collect());
    }
    serialize(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    #[test]
    fn parses_plain_rows() {
        let rows = parse("a,b\n1,2\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn parses_quotes_and_embedded_commas() {
        let rows = parse("\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(rows, vec![vec!["x,y".to_string(), "he said \"hi\"".to_string()]]);
    }

    #[test]
    fn parses_crlf_and_missing_final_newline() {
        let rows = parse("a,b\r\nc,d").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["c", "d"]);
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let rows = parse("\"line1\nline2\",x\n").unwrap();
        assert_eq!(rows[0][0], "line1\nline2");
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse("\"oops").is_err());
    }

    #[test]
    fn final_quoted_empty_field_without_newline_kept() {
        // regression: the final flush used to drop a last line that is a
        // single quoted empty field with no trailing newline
        assert_eq!(parse("\"\"").unwrap(), vec![vec![String::new()]]);
        // consistent with the trailing-newline spelling of the same data
        assert_eq!(parse("\"\"\n").unwrap(), parse("\"\"").unwrap());
        // and as the last row of a larger file
        assert_eq!(
            parse("a,b\n\"\"").unwrap(),
            vec![vec!["a".to_string(), "b".to_string()], vec![String::new()]]
        );
        // a quoted-empty final *cell* after a comma was already kept; pin it
        assert_eq!(
            parse("x,\"\"").unwrap(),
            vec![vec!["x".to_string(), String::new()]]
        );
    }

    #[test]
    fn final_quoted_empty_field_round_trips() {
        // serialize always emits a trailing newline, so the round trip goes
        // through the newline spelling — both spellings must agree
        let data = vec![vec!["x".to_string()], vec![String::new()]];
        assert_eq!(parse(&serialize(&data)).unwrap(), data);
        let quoted = "x\n\"\"";
        assert_eq!(parse(quoted).unwrap(), vec![vec!["x".to_string()], vec![String::new()]]);
    }

    #[test]
    fn round_trip() {
        let data = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["quote\"inside".to_string(), "multi\nline".to_string()],
        ];
        let text = serialize(&data);
        assert_eq!(parse(&text).unwrap(), data);
    }

    #[test]
    fn relation_round_trip() {
        let schema = Schema::new(
            "p",
            [("price", AttrType::Int), ("street", AttrType::Str)],
        )
        .unwrap();
        let text = "price,street\n250000,12 High St\n,\"Flat 2, Low Rd\"\n";
        let rel = read_relation(text, schema).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.tuples()[1][0].is_null());
        assert_eq!(rel.tuples()[1][1], Value::str("Flat 2, Low Rd"));
        let back = write_relation(&rel);
        let rel2 = read_relation(&back, rel.schema().clone()).unwrap();
        assert_eq!(rel2.tuples(), rel.tuples());
    }

    #[test]
    fn header_mismatch_rejected() {
        let schema = Schema::all_str("p", &["a", "b"]);
        assert!(read_relation("a,c\n1,2\n", schema).is_err());
    }

    #[test]
    fn ragged_row_rejected() {
        let schema = Schema::all_str("p", &["a", "b"]);
        assert!(read_relation("a,b\n1\n", schema).is_err());
    }

    #[test]
    fn ingest_reports_the_first_bad_row() {
        let schema = Schema::new("p", [("n", AttrType::Int)]).unwrap();
        let mut text = String::from("n\n");
        for i in 0..200 {
            text.push_str(&format!("{i}\n"));
        }
        let mut bad = text.clone();
        bad.insert_str("n\n0\n1\n2\n".len(), "oops,extra\n");
        let err = read_relation(&bad, schema).unwrap_err();
        assert!(err.message().contains("row 5"), "{err}");
    }

    #[test]
    fn bad_cell_names_its_row_and_column() {
        let schema = Schema::new(
            "p",
            [("street", AttrType::Str), ("price", AttrType::Int), ("area", AttrType::Float)],
        )
        .unwrap();
        let mut text = String::from("street,price,area\n");
        for i in 0..50 {
            text.push_str(&format!("{i} high st,{},{i}.5\n", 100_000 + i));
        }
        // two bad cells: the one earlier in file order is reported
        text.push_str("x,abc,2.5\n");
        text.push_str("y,7,not a float\n");
        let err = read_relation(&text, schema).unwrap_err();
        assert_eq!(err.kind(), "type", "{err}");
        assert_eq!(err.message(), "row 52, column `price`: cannot parse `abc` as int");
    }
}
