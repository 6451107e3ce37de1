//! # vada-datalog
//!
//! A from-scratch Datalog± reasoner in the style of Vadalog, the language the
//! VADA architecture (SIGMOD '17) uses for three jobs:
//!
//! 1. **Transducer dependencies** — each wrangling component declares the
//!    data it needs as a Datalog query over the knowledge base.
//! 2. **Orchestration** — the network transducer reasons over component
//!    readiness facts.
//! 3. **Schema mappings** — source-to-target mappings are Datalog rules that
//!    this engine executes to populate the target schema.
//!
//! ## Language
//!
//! ```text
//! % facts
//! parent("ann", "bob").
//! % recursion
//! ancestor(X, Y) :- parent(X, Y).
//! ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
//! % stratified negation, comparisons, arithmetic
//! affordable(S, P) :- listing(S, P), P < 300000, not blacklisted(S).
//! vat(S, T) :- listing(S, P), T = P * 12 / 10.
//! % aggregation (non-recursive)
//! avg_price(PC, avg(P)) :- property(PC, P).
//! % existential head variables (Datalog±): Z is invented via a skolem term
//! has_owner(X, Z) :- property_of_interest(X).
//! ```
//!
//! ## Evaluation
//!
//! Programs are stratified (negation and aggregation must not occur in a
//! recursive cycle), then each stratum runs to fixpoint with **semi-naive**
//! evaluation. Existential head variables are skolemised deterministically;
//! a depth guard bounds skolem nesting so that non-warded programs fail fast
//! instead of diverging (Vadalog guarantees termination via wardedness; we
//! approximate the guarantee with the guard and document the difference in
//! DESIGN.md).

mod analysis;
pub mod ast;
pub mod builtins;
pub mod engine;
pub mod incremental;
mod index;
pub mod lexer;
pub mod magic;
pub mod parser;
pub mod skolem;

pub use ast::{Atom, CmpOp, Expr, HeadTerm, Literal, Program, Rule, Term};
pub use engine::{Database, Engine, EngineConfig};
pub use incremental::{DeltaMode, DeltaOutcome, IncrementalSession};
pub use magic::Demand;
pub use parser::parse_program;

use vada_common::Result;

/// Parse and evaluate `source` against an initial fact database, returning
/// the resulting database (input facts plus everything derived).
///
/// Convenience entry point for one-shot use; long-lived callers should keep
/// an [`Engine`] around.
pub fn eval(source: &str, input: Database) -> Result<Database> {
    let program = parse_program(source)?;
    Engine::new(EngineConfig::default()).run(&program, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_eval_transitive_closure() {
        let db = eval(
            r#"
            edge(1, 2). edge(2, 3). edge(3, 4).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            "#,
            Database::new(),
        )
        .unwrap();
        assert_eq!(db.facts("tc").len(), 6);
    }
}
