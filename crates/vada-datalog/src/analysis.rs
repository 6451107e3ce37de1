//! Program analysis: predicate dependency graph and stratification.
//!
//! Negation and aggregation must be *stratified*: a predicate may not depend
//! on its own negation/aggregate through any cycle. We compute stratum
//! numbers with the classic fixpoint algorithm (Ullman): positive
//! dependencies require `stratum(head) >= stratum(body)`, negative and
//! aggregate dependencies require `stratum(head) >= stratum(body) + 1`; if a
//! stratum number exceeds the predicate count the program is rejected.

use std::collections::{BTreeMap, BTreeSet};

use vada_common::{Result, VadaError};

use crate::ast::Program;

/// The result of stratifying a program.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Stratum number per predicate.
    pub pred_stratum: BTreeMap<String, usize>,
    /// Rule indices grouped by stratum, ascending.
    pub strata_rules: Vec<Vec<usize>>,
    /// Number of strata.
    pub stratum_count: usize,
}

impl Stratification {
    /// The stratum of `pred` (predicates never mentioned default to 0).
    #[cfg(test)]
    pub fn stratum_of(&self, pred: &str) -> usize {
        self.pred_stratum.get(pred).copied().unwrap_or(0)
    }

    /// Head predicates that are recursive within `stratum` — i.e. appear in
    /// a positive body literal of some rule of the same stratum.
    #[cfg(test)]
    pub fn recursive_preds(&self, program: &Program, stratum: usize) -> BTreeSet<String> {
        let mut heads: BTreeSet<&str> = BTreeSet::new();
        for &ri in &self.strata_rules[stratum] {
            heads.insert(program.rules[ri].head_pred.as_str());
        }
        let mut rec = BTreeSet::new();
        for &ri in &self.strata_rules[stratum] {
            for p in program.rules[ri].positive_preds() {
                if heads.contains(p) {
                    rec.insert(p.to_string());
                }
            }
        }
        rec
    }

    /// Which rules of `stratum` re-fire in its semi-naive loop (aligned
    /// with `strata_rules[stratum]`), and the predicates they read
    /// positively — the only heads whose new facts feed the delta. A rule
    /// *settles* in the initial pass, and never re-fires, when every head it
    /// reads positively that this stratum defines is defined only by
    /// settled rules earlier in pass order: its initial evaluation saw
    /// those inputs complete, so a delta pass could only re-derive facts it
    /// already has. Aggregate rules read lower strata only, so they settle.
    pub(crate) fn refiring(&self, program: &Program, stratum: usize) -> (Vec<bool>, BTreeSet<String>) {
        let rules = &self.strata_rules[stratum];
        let mut refires: Vec<bool> = Vec::with_capacity(rules.len());
        for &ri in rules {
            // a rule not yet seen, or one that re-fires, leaves `p` open
            let complete = |p: &str| {
                let defines = rules.iter().map(|&rj| program.rules[rj].head_pred == p);
                defines.enumerate().all(|(j, d)| !d || refires.get(j) == Some(&false))
            };
            let settles = program.rules[ri].positive_preds().all(complete);
            refires.push(!settles);
        }
        let read = (rules.iter().zip(&refires))
            .filter(|&(_, &r)| r)
            .flat_map(|(&ri, _)| program.rules[ri].positive_preds().map(str::to_string))
            .collect();
        (refires, read)
    }
}

/// Stratify `program`, or fail with [`VadaError::Program`] if negation or
/// aggregation occurs through recursion.
pub fn stratify(program: &Program) -> Result<Stratification> {
    let preds: Vec<&str> = program.all_predicates().into_iter().collect();
    let n = preds.len().max(1);
    let mut stratum: BTreeMap<String, usize> =
        preds.iter().map(|p| (p.to_string(), 0)).collect();

    // fixpoint
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if rule.is_fact() {
                continue;
            }
            let head = stratum.get(&rule.head_pred).copied().unwrap_or(0);
            let mut need = head;
            let aggregated = rule.has_aggregate();
            for p in rule.positive_preds() {
                let s = stratum.get(p).copied().unwrap_or(0);
                // aggregate rules must see their full input: treat positive
                // deps of aggregate rules like negative deps
                need = need.max(if aggregated { s + 1 } else { s });
            }
            for p in rule.negative_preds() {
                let s = stratum.get(p).copied().unwrap_or(0);
                need = need.max(s + 1);
            }
            if need > head {
                if need > n {
                    return Err(VadaError::Program(format!(
                        "program is not stratifiable: predicate `{}` depends on its own negation or aggregate (via rule `{rule}`)",
                        rule.head_pred
                    )));
                }
                stratum.insert(rule.head_pred.clone(), need);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let stratum_count = stratum.values().copied().max().unwrap_or(0) + 1;
    let mut strata_rules: Vec<Vec<usize>> = vec![Vec::new(); stratum_count];
    for (i, rule) in program.rules.iter().enumerate() {
        if rule.is_fact() {
            continue;
        }
        let s = stratum.get(&rule.head_pred).copied().unwrap_or(0);
        strata_rules[s].push(i);
    }

    Ok(Stratification { pred_stratum: stratum, strata_rules, stratum_count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn positive_recursion_single_stratum() {
        let p = parse_program(
            "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_of("tc"), 0);
        assert_eq!(s.stratum_count, 1);
        assert!(s.recursive_preds(&p, 0).contains("tc"));
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let p = parse_program(
            r#"
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            unreachable(X, Y) :- node(X), node(Y), not reach(X, Y).
            "#,
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_of("reach"), 0);
        assert_eq!(s.stratum_of("unreachable"), 1);
    }

    #[test]
    fn unstratifiable_rejected() {
        let p = parse_program(
            "p(X) :- q(X), not r(X). r(X) :- q(X), not p(X).",
        )
        .unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.to_string().contains("not stratifiable"));
    }

    #[test]
    fn aggregates_act_like_negation() {
        let p = parse_program(
            r#"
            total(G, sum(P)) :- item(G, P).
            big(G) :- total(G, T), T > 100.
            "#,
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert!(s.stratum_of("total") > s.stratum_of("item"));
        assert!(s.stratum_of("big") >= s.stratum_of("total"));
    }

    #[test]
    fn recursive_aggregate_rejected() {
        let p = parse_program("t(X, count(Y)) :- t(Y, X).").unwrap();
        assert!(stratify(&p).is_err());
    }

    #[test]
    fn facts_do_not_affect_strata() {
        let p = parse_program("p(1). q(X) :- p(X).").unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_count, 1);
        assert_eq!(s.strata_rules[0].len(), 1);
    }
}
