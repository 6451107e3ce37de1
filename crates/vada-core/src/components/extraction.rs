//! The extraction transducer: turns staged raw documents (CSV text, as
//! web extraction or an open-data download would deliver) into source
//! relations. This is the Extraction activity of the lifecycle — in the
//! paper it is DIADEM behind a transducer interface; here it is a CSV
//! ingester with header-driven schema inference (every column `str`,
//! wrangling handles typing later).

use vada_common::{csv, Result, Schema, VadaError};
use vada_kb::KnowledgeBase;

use crate::transducer::{Activity, RunOutcome, Transducer};

/// Ingest staged CSV documents as source relations.
#[derive(Debug, Default)]
pub struct CsvIngestion;

impl Transducer for CsvIngestion {
    fn name(&self) -> &str {
        "csv_ingestion"
    }

    fn activity(&self) -> Activity {
        Activity::Extraction
    }

    fn input_dependency(&self) -> &str {
        "staged_document(_)"
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["staged"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let names: Vec<String> = kb
            .staged_documents()
            .map(|(n, _)| n.to_string())
            .collect();
        let mut rows = 0usize;
        let mut ingested = Vec::new();
        for name in names {
            let text = kb
                .unstage_document(&name)
                .expect("listed documents exist");
            let parsed = csv::parse(&text)?;
            let header = parsed.first().ok_or_else(|| {
                VadaError::Csv(format!("staged document `{name}` is empty"))
            })?;
            let schema = Schema::all_str(
                &name,
                &header.iter().map(|h| h.trim()).collect::<Vec<_>>(),
            );
            let rel = csv::relation_from_rows(parsed, schema)?;
            rows += rel.len();
            kb.register_source(rel);
            ingested.push(name);
        }
        Ok(RunOutcome::new(
            format!("ingested {} document(s), {rows} rows: {}", ingested.len(), ingested.join(", ")),
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::Value;

    #[test]
    fn ingests_staged_documents_as_sources() {
        let mut kb = KnowledgeBase::new();
        let mut t = CsvIngestion;
        assert!(!t.ready(&kb).unwrap());
        kb.stage_document(
            "rightmove",
            "price,street\n250000,12 high st\n£99,\"3 mill, lane\"\n",
        );
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 2);
        let rel = kb.relation("rightmove").unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.tuples()[1][1], Value::str("3 mill, lane"));
        // consumed
        assert!(!t.ready(&kb).unwrap());
    }

    #[test]
    fn empty_document_is_an_error() {
        let mut kb = KnowledgeBase::new();
        kb.stage_document("broken", "");
        assert!(CsvIngestion.run(&mut kb).is_err());
    }

    #[test]
    fn multiple_documents_in_one_run() {
        let mut kb = KnowledgeBase::new();
        kb.stage_document("a", "x\n1\n");
        kb.stage_document("b", "y\n2\n3\n");
        let out = CsvIngestion.run(&mut kb).unwrap();
        assert_eq!(out.writes, 3);
        assert!(kb.relation("a").is_ok());
        assert!(kb.relation("b").is_ok());
    }
}
