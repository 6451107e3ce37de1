//! Abstract syntax for Datalog± programs.
//!
//! Variables are rule-local: after parsing, every rule's variables are
//! numbered densely from 0 so the engine can use flat binding arrays.

use std::collections::BTreeSet;
use std::fmt;

use vada_common::Value;

/// A rule-local variable index (dense, assigned by the parser per rule).
pub type VarId = usize;

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Variable, with its source-level name kept for display.
    Var(VarId, String),
    /// Constant value.
    Const(Value),
}

impl Term {
    /// The variable id, if this is a variable.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Term::Var(v, _) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(_, name) => write!(f, "{name}"),
            Term::Const(Value::Str(s)) => write!(f, "{s:?}"),
            // `Value`'s own rendering of null is the empty string, which
            // does not parse back
            Term::Const(Value::Null) => write!(f, "null"),
            Term::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Arithmetic expression used in comparison/assignment literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A leaf term.
    Term(Term),
    /// Binary arithmetic.
    BinOp(ArithOp, Box<Expr>, Box<Expr>),
    /// A call of the built-in `district` function
    /// ([`builtins::district`](crate::builtins::district)).
    District(Box<Expr>),
}

impl Expr {
    /// Collect variable ids occurring in the expression.
    pub fn vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Expr::Term(Term::Var(v, _)) => {
                out.insert(*v);
            }
            Expr::Term(Term::Const(_)) => {}
            Expr::BinOp(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
            Expr::District(a) => a.vars(out),
        }
    }

    /// True if the expression is a bare variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Expr::Term(Term::Var(v, _)) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::BinOp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::District(a) => write!(f, "district({a})"),
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition (numeric) / concatenation (strings).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float semantics unless both ints divide evenly).
    Div,
    /// Remainder.
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        })
    }
}

/// Comparison operators for builtin literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=` — unification: if one side is an unbound variable it is assigned.
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A predicate atom `pred(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Collect variable ids occurring in the atom.
    pub fn vars(&self, out: &mut BTreeSet<VarId>) {
        for t in &self.terms {
            if let Term::Var(v, _) = t {
                out.insert(*v);
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// Positive atom.
    Pos(Atom),
    /// Negated atom (`not p(...)`). Requires stratification and all its
    /// variables bound by positive literals (safety).
    Neg(Atom),
    /// Comparison / assignment between expressions.
    Cmp(CmpOp, Expr, Expr),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
        }
    }
}

/// Aggregate functions usable in rule heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of (distinct group-contributing) bindings.
    Count,
    /// Sum of a numeric variable.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        })
    }
}

/// A head argument: a plain term or an aggregate over a body variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HeadTerm {
    /// Plain term (variable or constant).
    Term(Term),
    /// Aggregate `func(Var)` computed per group of the plain head terms.
    Agg(AggFunc, VarId, String),
}

impl fmt::Display for HeadTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadTerm::Term(t) => write!(f, "{t}"),
            HeadTerm::Agg(func, _, name) => write!(f, "{func}({name})"),
        }
    }
}

/// A rule `head :- body.` A rule with an empty body and all-constant head is
/// a fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Head predicate name.
    pub head_pred: String,
    /// Head arguments.
    pub head_terms: Vec<HeadTerm>,
    /// Body literals, in source order.
    pub body: Vec<Literal>,
    /// Number of distinct variables in the rule (ids are `0..var_count`).
    pub var_count: usize,
    /// Display names of variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
}

impl Rule {
    /// Whether this rule is a ground fact.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
            && self
                .head_terms
                .iter()
                .all(|t| matches!(t, HeadTerm::Term(Term::Const(_))))
    }

    /// Variables bound by positive body literals.
    pub fn positive_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        for lit in &self.body {
            if let Literal::Pos(a) = lit {
                a.vars(&mut out);
            }
        }
        out
    }

    /// Head variables that appear nowhere in the body — these are
    /// *existential* and will be skolemised by the engine.
    pub fn existential_vars(&self) -> BTreeSet<VarId> {
        let mut body_vars = BTreeSet::new();
        for lit in &self.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => a.vars(&mut body_vars),
                Literal::Cmp(_, l, r) => {
                    l.vars(&mut body_vars);
                    r.vars(&mut body_vars);
                }
            }
        }
        let mut out = BTreeSet::new();
        for t in &self.head_terms {
            if let HeadTerm::Term(Term::Var(v, _)) = t {
                if !body_vars.contains(v) {
                    out.insert(*v);
                }
            }
        }
        out
    }

    /// Whether the head uses any aggregate.
    pub fn has_aggregate(&self) -> bool {
        self.head_terms
            .iter()
            .any(|t| matches!(t, HeadTerm::Agg(..)))
    }

    /// Predicates of positive body literals.
    pub fn positive_preds(&self) -> impl Iterator<Item = &str> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a.pred.as_str()),
            _ => None,
        })
    }

    /// Predicates of negative body literals.
    pub fn negative_preds(&self) -> impl Iterator<Item = &str> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a.pred.as_str()),
            _ => None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head_pred)?;
        for (i, t) in self.head_terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A parsed program: rules (facts included) in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// All rules, facts included.
    pub rules: Vec<Rule>,
}

impl Program {
    /// All predicates mentioned anywhere.
    pub fn all_predicates(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            out.insert(r.head_pred.as_str());
            for l in &r.body {
                match l {
                    Literal::Pos(a) | Literal::Neg(a) => {
                        out.insert(a.pred.as_str());
                    }
                    Literal::Cmp(..) => {}
                }
            }
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(id: usize, name: &str) -> Term {
        Term::Var(id, name.into())
    }

    #[test]
    fn existential_vars_detected() {
        // p(X, Z) :- q(X).
        let rule = Rule {
            head_pred: "p".into(),
            head_terms: vec![
                HeadTerm::Term(var(0, "X")),
                HeadTerm::Term(var(1, "Z")),
            ],
            body: vec![Literal::Pos(Atom { pred: "q".into(), terms: vec![var(0, "X")] })],
            var_count: 2,
            var_names: vec!["X".into(), "Z".into()],
        };
        assert_eq!(rule.existential_vars().into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn fact_detection() {
        let fact = Rule {
            head_pred: "p".into(),
            head_terms: vec![HeadTerm::Term(Term::Const(Value::Int(1)))],
            body: vec![],
            var_count: 0,
            var_names: vec![],
        };
        assert!(fact.is_fact());
    }

    #[test]
    fn display_round_readable() {
        let rule = Rule {
            head_pred: "tc".into(),
            head_terms: vec![
                HeadTerm::Term(var(0, "X")),
                HeadTerm::Term(var(1, "Z")),
            ],
            body: vec![
                Literal::Pos(Atom {
                    pred: "tc".into(),
                    terms: vec![var(0, "X"), var(2, "Y")],
                }),
                Literal::Pos(Atom {
                    pred: "edge".into(),
                    terms: vec![var(2, "Y"), var(1, "Z")],
                }),
            ],
            var_count: 3,
            var_names: vec!["X".into(), "Z".into(), "Y".into()],
        };
        assert_eq!(rule.to_string(), "tc(X, Z) :- tc(X, Y), edge(Y, Z).");
    }
}
