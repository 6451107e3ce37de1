//! The transducer registry: the default fleet and the catalogue used to
//! regenerate the paper's Table 1.

use crate::components::{
    CfdLearning, CsvIngestion, DataFusion, DuplicateDetection, FeedbackRepair, InstanceMatching,
    MappingEvaluation, MappingExecution, MappingGeneration, MappingQuality, MappingSelection,
    ResultRepair, SchemaMatching, SourceProfiling,
};
use crate::components::mapping::SharedStore;
use crate::transducer::Transducer;

/// The default transducer fleet covering the full wrangling lifecycle.
/// The architecture is extensible — callers can append their own
/// transducers to the returned vector. The two mapping transducers share
/// one result store: mapping quality materialises every candidate into it,
/// and mapping execution takes the selected one back out.
pub fn default_transducers() -> Vec<Box<dyn Transducer>> {
    let store = SharedStore::default();
    vec![
        Box::new(CsvIngestion),
        Box::new(FeedbackRepair::default()),
        Box::new(MappingEvaluation::default()),
        Box::new(SchemaMatching::default()),
        Box::new(InstanceMatching::default()),
        Box::new(MappingGeneration::default()),
        Box::new(CfdLearning::default()),
        Box::new(SourceProfiling::default()),
        Box::new(MappingQuality::with_store(store.clone())),
        Box::new(MappingSelection),
        Box::new(MappingExecution::with_store(store)),
        Box::new(ResultRepair::default()),
        Box::new(DuplicateDetection::default()),
        Box::new(DataFusion::default()),
    ]
}

/// A row of the transducer catalogue (the paper's Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    /// Activity tag.
    pub activity: String,
    /// Transducer name.
    pub transducer: String,
    /// Declarative input dependency.
    pub input_dependency: String,
}

/// Introspects a transducer fleet into the dependency catalogue.
#[derive(Debug, Default)]
pub struct TransducerCatalog;

impl TransducerCatalog {
    /// Catalogue rows for a fleet, in activity order.
    pub fn rows(transducers: &[Box<dyn Transducer>]) -> Vec<CatalogRow> {
        let mut rows: Vec<CatalogRow> = transducers
            .iter()
            .map(|t| CatalogRow {
                activity: t.activity().tag().to_string(),
                transducer: t.name().to_string(),
                input_dependency: t.input_dependency().to_string(),
            })
            .collect();
        rows.sort_by(|a, b| a.activity.cmp(&b.activity).then(a.transducer.cmp(&b.transducer)));
        rows
    }

    /// Render the catalogue as an aligned text table (Table 1 reproduction).
    pub fn render(transducers: &[Box<dyn Transducer>]) -> String {
        let rows = Self::rows(transducers);
        let w_act = rows.iter().map(|r| r.activity.len()).max().unwrap_or(8).max("Activity".len());
        let w_name = rows
            .iter()
            .map(|r| r.transducer.len())
            .max()
            .unwrap_or(10)
            .max("Transducer".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<w_act$}  {:<w_name$}  Input Dependencies (Datalog over the KB)\n",
            "Activity", "Transducer"
        ));
        out.push_str(&"-".repeat(w_act + w_name + 44));
        out.push('\n');
        for r in rows {
            out.push_str(&format!(
                "{:<w_act$}  {:<w_name$}  {}\n",
                r.activity, r.transducer, r.input_dependency
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fleet_covers_all_activities() {
        let fleet = default_transducers();
        let activities: std::collections::BTreeSet<String> = fleet
            .iter()
            .map(|t| t.activity().tag().to_string())
            .collect();
        for expected in [
            "extraction", "feedback", "matching", "mapping", "quality", "selection",
            "execution", "repair", "fusion",
        ] {
            assert!(activities.contains(expected), "missing activity {expected}");
        }
        assert_eq!(fleet.len(), 14);
    }

    #[test]
    fn names_are_unique() {
        let fleet = default_transducers();
        let names: std::collections::HashSet<&str> = fleet.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), fleet.len());
    }

    #[test]
    fn catalogue_renders_table1() {
        let fleet = default_transducers();
        let table = TransducerCatalog::render(&fleet);
        assert!(table.contains("schema_matching"));
        assert!(table.contains("instance_matching"));
        assert!(table.contains("cfd_learning"));
        assert!(table.contains("mapping_selection"));
        // the paper's Table 1 rows map onto these dependencies
        assert!(table.contains("has_instances"));
        assert!(table.contains(r#"quality("mapping""#));
    }
}
