//! Typed metadata records exchanged between wrangling components.
//!
//! Each record type mirrors itself into Datalog facts (see
//! [`crate::store::KnowledgeBase`]) so that transducer input dependencies
//! can query them; the typed form is what component code consumes.

use vada_common::Value;

/// The kind of data-context relation (paper §2.2): reference data covers
/// the domain authoritatively, master data enumerates the entities the user
/// cares about, example data is an incomplete sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextKind {
    /// Complete, authoritative domain data (e.g. the full postcode list).
    Reference,
    /// The complete list of entities of interest to the user.
    Master,
    /// A sample of entities with no completeness guarantee.
    Example,
}

impl ContextKind {
    /// Stable lower-case tag used in Datalog facts.
    pub fn tag(&self) -> &'static str {
        match self {
            ContextKind::Reference => "reference",
            ContextKind::Master => "master",
            ContextKind::Example => "example",
        }
    }

    /// Parse a tag produced by [`ContextKind::tag`].
    pub fn parse(s: &str) -> Option<ContextKind> {
        match s {
            "reference" => Some(ContextKind::Reference),
            "master" => Some(ContextKind::Master),
            "example" => Some(ContextKind::Example),
            _ => None,
        }
    }
}

/// An attribute correspondence produced by a matching transducer
/// (paper Table 1, Matching activity).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchDef {
    /// Unique match id.
    pub id: String,
    /// Source relation name.
    pub src_rel: String,
    /// Source attribute name.
    pub src_attr: String,
    /// Target attribute name (target relation is implicit — one target
    /// schema per wrangle, as in the demo scenario).
    pub tgt_attr: String,
    /// Confidence score in `[0, 1]`.
    pub score: f64,
    /// Which matcher produced it (`schema` / `instance` / `combined`).
    pub matcher: String,
}

/// A candidate schema mapping: a Vadalog program that populates the target
/// relation from source relations (paper §2, Vadalog's mapping role).
#[derive(Debug, Clone, PartialEq)]
pub struct MappingDef {
    /// Unique mapping id.
    pub id: String,
    /// Target relation the mapping populates.
    pub target: String,
    /// The Vadalog rules (parseable by `vada-datalog`).
    pub rules: String,
    /// Source relations the mapping reads.
    pub sources: Vec<String>,
    /// Ids of the matches the mapping was generated from.
    pub matches_used: Vec<String>,
    /// A union's per-source blocks, in order: `rules` is exactly their
    /// concatenation, and the union's answer is theirs, concatenated with
    /// repeated facts dropped. Empty for a mapping that is not a union.
    pub parts: Vec<MappingPart>,
}

/// One block of a union mapping: the rules one primary source contributes
/// (with its augmentations) and the relations they read. A part is itself
/// a complete mapping of the union's target — the stand-alone candidate of
/// the same structure — and derives the same target facts, in the same
/// order, inside the union as on its own.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingPart {
    /// The part's rules, verbatim as they appear in the union's `rules`.
    pub rules: String,
    /// Source relations the part reads.
    pub sources: Vec<String>,
}

/// A conditional functional dependency `relation: (lhs, patterns) → (rhs,
/// pattern)` learned from data-context relations (paper §2.3, CFD Learning).
///
/// A `None` pattern is a wildcard (`_`), i.e. a variable-CFD position; a
/// `Some(v)` pattern is a constant-CFD position.
#[derive(Debug, Clone, PartialEq)]
pub struct CfdRule {
    /// CFD id: the learner makes it the rule's content, its
    /// [`display`](CfdRule::display), so a rule learned twice keeps its id.
    pub id: String,
    /// Relation the dependency was learned on (a context relation); it is
    /// *checked* on any relation containing the named attributes.
    pub relation: String,
    /// Left-hand side: `(attribute, pattern)` pairs.
    pub lhs: Vec<(String, Option<Value>)>,
    /// Right-hand side attribute and pattern.
    pub rhs: (String, Option<Value>),
    /// Support: number of training tuples matching the LHS patterns.
    pub support: usize,
}

impl CfdRule {
    /// Human-readable rendering, e.g. `address: [postcode] -> city`.
    pub fn display(&self) -> String {
        let lhs: Vec<String> = self
            .lhs
            .iter()
            .map(|(a, p)| match p {
                Some(v) => format!("{a}={v}"),
                None => a.clone(),
            })
            .collect();
        let rhs = match &self.rhs.1 {
            Some(v) => format!("{}={v}", self.rhs.0),
            None => self.rhs.0.clone(),
        };
        format!("{}: [{}] -> {}", self.relation, lhs.join(", "), rhs)
    }
}

/// What a feedback annotation refers to (paper §2.3: "feedback can be at
/// the tuple level or the attribute level").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FeedbackTarget {
    /// A whole result tuple, identified by its row index in the result
    /// relation.
    Tuple {
        /// Result relation name.
        relation: String,
        /// Row index.
        row: usize,
    },
    /// One attribute value of a result tuple.
    Attribute {
        /// Result relation name.
        relation: String,
        /// Row index.
        row: usize,
        /// Attribute name.
        attr: String,
    },
}

/// The user's verdict on the annotated element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The value/tuple is correct.
    Correct,
    /// The value/tuple is incorrect.
    Incorrect,
}

impl Verdict {
    /// Stable tag used in Datalog facts.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Correct => "correct",
            Verdict::Incorrect => "incorrect",
        }
    }
}

/// A feedback annotation asserted into the knowledge base.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackRecord {
    /// Unique feedback id.
    pub id: String,
    /// What is annotated.
    pub target: FeedbackTarget,
    /// The verdict.
    pub verdict: Verdict,
}

/// A durable, value-level consequence of feedback: a veto on a cell value
/// (or a whole row) identified by key-attribute values rather than a row
/// index, so it survives result re-materialisation when mappings are
/// re-selected or re-executed.
#[derive(Debug, Clone, PartialEq)]
pub struct CellVeto {
    /// Key attribute/value pairs identifying the logical row.
    pub key: Vec<(String, Value)>,
    /// The vetoed attribute; `None` vetoes the whole row.
    pub attr: Option<String>,
    /// The specific vetoed value; `None` vetoes any value of the attribute.
    pub value: Option<Value>,
}

/// A quality metric value attached to an entity (source, mapping, result
/// attribute...).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityFact {
    /// Entity kind: `source` / `mapping` / `result` / `attribute`.
    pub entity_kind: String,
    /// Entity identifier (relation name, mapping id, `rel.attr`, ...).
    pub entity: String,
    /// Metric name: `completeness` / `accuracy` / `consistency` / ...
    pub metric: String,
    /// Criterion qualifier, e.g. the attribute a completeness refers to.
    pub criterion: String,
    /// The value in `[0, 1]`.
    pub value: f64,
}

/// One pairwise-comparison statement of the user context (paper Fig. 2(d)),
/// e.g. *"completeness of crimerank is very strongly more important than
/// accuracy of type"*. Criteria are `metric(scope)` strings; the strength
/// vocabulary maps to the Saaty 1–9 scale in `vada-context`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseStatement {
    /// The more important criterion, e.g. `completeness(crimerank)`.
    pub more_important: String,
    /// The less important criterion, e.g. `accuracy(type)`.
    pub less_important: String,
    /// Strength vocabulary: `equally`, `moderately`, `strongly`,
    /// `very strongly`, `extremely`.
    pub strength: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_kind_round_trip() {
        for k in [ContextKind::Reference, ContextKind::Master, ContextKind::Example] {
            assert_eq!(ContextKind::parse(k.tag()), Some(k));
        }
        assert_eq!(ContextKind::parse("nope"), None);
    }

    #[test]
    fn cfd_display() {
        let cfd = CfdRule {
            id: "c0".into(),
            relation: "address".into(),
            lhs: vec![("postcode".into(), None), ("kind".into(), Some(Value::str("flat")))],
            rhs: ("city".into(), None),
            support: 10,
        };
        assert_eq!(cfd.display(), "address: [postcode, kind=flat] -> city");
    }

    #[test]
    fn verdict_tags() {
        assert_eq!(Verdict::Correct.tag(), "correct");
        assert_eq!(Verdict::Incorrect.tag(), "incorrect");
    }
}
