//! Recursive-descent parser producing [`Program`]s and stand-alone queries.

use std::collections::HashMap;

use vada_common::{Result, VadaError, Value};

use crate::ast::{
    AggFunc, ArithOp, Atom, CmpOp, Expr, HeadTerm, Literal, Program, Rule, Term,
};
use crate::lexer::{lex, Token, TokenKind};

/// Parse a full program (facts, rules).
pub fn parse_program(source: &str) -> Result<Program> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let mut rules = Vec::new();
    while !p.at_eof() {
        rules.push(p.rule()?);
    }
    Ok(Program { rules })
}

/// Parse a stand-alone conjunctive query — a rule body such as
/// `match(S, T, Score), Score >= 0.5` — into a rule with head predicate
/// `__query` whose head variables are the body's variables in order of first
/// occurrence. Transducer input dependencies are expressed this way.
pub fn parse_query(source: &str) -> Result<Rule> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let body = p.body()?;
    // optional trailing dot
    if p.peek_kind() == &TokenKind::Dot {
        p.advance();
    }
    p.expect_eof()?;
    // head variables: order of first occurrence in the body
    let mut head_terms = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut ordered: Vec<(usize, String)> = p.vars.iter().map(|(n, i)| (*i, n.clone())).collect();
    ordered.sort();
    for (id, name) in ordered {
        if name != "_" && seen.insert(id) {
            head_terms.push(HeadTerm::Term(Term::Var(id, name)));
        }
    }
    Ok(Rule {
        head_pred: "__query".into(),
        head_terms,
        body,
        var_count: p.next_var,
        var_names: p.var_names.clone(),
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    vars: HashMap<String, usize>,
    var_names: Vec<String>,
    next_var: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0, vars: HashMap::new(), var_names: Vec::new(), next_var: 0 }
    }

    fn reset_rule_scope(&mut self) {
        self.vars.clear();
        self.var_names.clear();
        self.next_var = 0;
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn err_here(&self, msg: &str) -> VadaError {
        let t = self.peek();
        VadaError::Parse(format!("{}:{}: {msg}, found {}", t.line, t.col, t.kind))
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.peek_kind() == &kind {
            Ok(self.advance())
        } else {
            Err(self.err_here(&format!("expected {kind}")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err_here("expected end of input"))
        }
    }

    fn var_id(&mut self, name: &str) -> usize {
        if name == "_" {
            // every wildcard is a fresh variable
            let id = self.next_var;
            self.next_var += 1;
            self.var_names.push("_".into());
            return id;
        }
        if let Some(&id) = self.vars.get(name) {
            return id;
        }
        let id = self.next_var;
        self.next_var += 1;
        self.vars.insert(name.to_string(), id);
        self.var_names.push(name.to_string());
        id
    }

    /// rule := head ( ":-" body )? "."
    fn rule(&mut self) -> Result<Rule> {
        self.reset_rule_scope();
        let (head_pred, head_terms) = self.head()?;
        let body = if self.peek_kind() == &TokenKind::Implies {
            self.advance();
            self.body()?
        } else {
            Vec::new()
        };
        self.expect(TokenKind::Dot)?;
        let rule = Rule {
            head_pred,
            head_terms,
            body,
            var_count: self.next_var,
            var_names: self.var_names.clone(),
        };
        self.check_safety(&rule)?;
        Ok(rule)
    }

    /// Safety: every variable in a negated atom or in the RHS of a
    /// comparison must be bindable, and non-existential head variables must
    /// appear in a positive literal or be assignable via `=`. We use a
    /// permissive but principled rule: a variable is *bindable* if it occurs
    /// in a positive atom or on either side of an `=` whose other side is
    /// bindable (transitively). Negations and non-`=` comparisons require all
    /// their variables bindable.
    fn check_safety(&self, rule: &Rule) -> Result<()> {
        use std::collections::BTreeSet;
        let mut bound: BTreeSet<usize> = rule.positive_vars();
        // propagate through `=` assignments until fixpoint
        loop {
            let mut changed = false;
            for lit in &rule.body {
                if let Literal::Cmp(CmpOp::Eq, l, r) = lit {
                    let mut lv = BTreeSet::new();
                    let mut rv = BTreeSet::new();
                    l.vars(&mut lv);
                    r.vars(&mut rv);
                    if rv.iter().all(|v| bound.contains(v)) {
                        for v in &lv {
                            changed |= bound.insert(*v);
                        }
                    }
                    if lv.iter().all(|v| bound.contains(v)) {
                        for v in &rv {
                            changed |= bound.insert(*v);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for lit in &rule.body {
            match lit {
                Literal::Neg(a) => {
                    let mut vs = BTreeSet::new();
                    a.vars(&mut vs);
                    for v in vs {
                        if !bound.contains(&v) {
                            return Err(VadaError::Program(format!(
                                "unsafe rule `{rule}`: variable `{}` in negated atom is not bound by a positive literal",
                                rule.var_names[v]
                            )));
                        }
                    }
                }
                Literal::Cmp(op, l, r) if *op != CmpOp::Eq => {
                    let mut vs = BTreeSet::new();
                    l.vars(&mut vs);
                    r.vars(&mut vs);
                    for v in vs {
                        if !bound.contains(&v) {
                            return Err(VadaError::Program(format!(
                                "unsafe rule `{rule}`: variable `{}` in comparison is not bound",
                                rule.var_names[v]
                            )));
                        }
                    }
                }
                _ => {}
            }
        }
        // aggregate variables must be bound
        for ht in &rule.head_terms {
            if let HeadTerm::Agg(_, v, name) = ht {
                if !bound.contains(v) {
                    return Err(VadaError::Program(format!(
                        "unsafe rule `{rule}`: aggregated variable `{name}` is not bound"
                    )));
                }
            }
        }
        Ok(())
    }

    /// head := ident ( "(" headterm ("," headterm)* ")" )?
    fn head(&mut self) -> Result<(String, Vec<HeadTerm>)> {
        let pred = match self.advance() {
            Token { kind: TokenKind::Ident(s), .. } => s,
            t => {
                return Err(VadaError::Parse(format!(
                    "{}:{}: expected predicate name, found {}",
                    t.line, t.col, t.kind
                )))
            }
        };
        let mut terms = Vec::new();
        if self.peek_kind() == &TokenKind::LParen {
            self.advance();
            loop {
                terms.push(self.head_term()?);
                match self.peek_kind() {
                    TokenKind::Comma => {
                        self.advance();
                    }
                    TokenKind::RParen => {
                        self.advance();
                        break;
                    }
                    _ => return Err(self.err_here("expected `,` or `)` in head")),
                }
            }
        }
        Ok((pred, terms))
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }

    fn head_term(&mut self) -> Result<HeadTerm> {
        // aggregate: aggname "(" Var ")"
        if let TokenKind::Ident(name) = self.peek_kind() {
            if let Some(func) = Self::agg_func(name) {
                if self.peek2_kind() == &TokenKind::LParen {
                    self.advance(); // func name
                    self.advance(); // (
                    let var_tok = self.advance();
                    let vname = match var_tok.kind {
                        TokenKind::Variable(v) => v,
                        k => {
                            return Err(VadaError::Parse(format!(
                                "{}:{}: aggregate argument must be a variable, found {k}",
                                var_tok.line, var_tok.col
                            )))
                        }
                    };
                    self.expect(TokenKind::RParen)?;
                    let id = self.var_id(&vname);
                    return Ok(HeadTerm::Agg(func, id, vname));
                }
            }
        }
        Ok(HeadTerm::Term(self.term()?))
    }

    /// body := literal ("," literal)*
    fn body(&mut self) -> Result<Vec<Literal>> {
        let mut lits = vec![self.literal()?];
        while self.peek_kind() == &TokenKind::Comma {
            self.advance();
            lits.push(self.literal()?);
        }
        Ok(lits)
    }

    fn literal(&mut self) -> Result<Literal> {
        if self.peek_kind() == &TokenKind::Not {
            self.advance();
            let atom = self.atom()?;
            return Ok(Literal::Neg(atom));
        }
        // an atom starts with Ident followed by `(` or a 0-ary ident at a
        // literal boundary; everything else is an expression comparison.
        if matches!(self.peek_kind(), TokenKind::Ident(_)) {
            let next_is_cmp = matches!(
                self.peek2_kind(),
                TokenKind::Eq
                    | TokenKind::Ne
                    | TokenKind::Lt
                    | TokenKind::Le
                    | TokenKind::Gt
                    | TokenKind::Ge
                    | TokenKind::Plus
                    | TokenKind::Minus
                    | TokenKind::Star
                    | TokenKind::Slash
                    | TokenKind::Percent
            );
            if !next_is_cmp {
                return Ok(Literal::Pos(self.atom()?));
            }
        }
        // comparison literal
        let lhs = self.expr()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Err(self.err_here("expected comparison operator")),
        };
        self.advance();
        let rhs = self.expr()?;
        Ok(Literal::Cmp(op, lhs, rhs))
    }

    fn atom(&mut self) -> Result<Atom> {
        let pred = match self.advance() {
            Token { kind: TokenKind::Ident(s), .. } => s,
            t => {
                return Err(VadaError::Parse(format!(
                    "{}:{}: expected predicate name, found {}",
                    t.line, t.col, t.kind
                )))
            }
        };
        let mut terms = Vec::new();
        if self.peek_kind() == &TokenKind::LParen {
            self.advance();
            if self.peek_kind() == &TokenKind::RParen {
                self.advance();
            } else {
                loop {
                    terms.push(self.term()?);
                    match self.peek_kind() {
                        TokenKind::Comma => {
                            self.advance();
                        }
                        TokenKind::RParen => {
                            self.advance();
                            break;
                        }
                        _ => return Err(self.err_here("expected `,` or `)` in atom")),
                    }
                }
            }
        }
        Ok(Atom { pred, terms })
    }

    fn term(&mut self) -> Result<Term> {
        match self.advance() {
            Token { kind: TokenKind::Variable(v), .. } => {
                let id = self.var_id(&v);
                Ok(Term::Var(id, v))
            }
            Token { kind: TokenKind::Int(i), .. } => Ok(Term::Const(Value::Int(i))),
            Token { kind: TokenKind::Float(f), .. } => Ok(Term::Const(Value::Float(f))),
            Token { kind: TokenKind::Str(s), .. } => Ok(Term::Const(Value::str(s))),
            Token { kind: TokenKind::Minus, .. } => match self.advance() {
                Token { kind: TokenKind::Int(i), .. } => Ok(Term::Const(Value::Int(-i))),
                Token { kind: TokenKind::Float(f), .. } => Ok(Term::Const(Value::Float(-f))),
                t => Err(VadaError::Parse(format!(
                    "{}:{}: expected number after `-`, found {}",
                    t.line, t.col, t.kind
                ))),
            },
            Token { kind: TokenKind::Ident(s), .. } => match s.as_str() {
                "true" => Ok(Term::Const(Value::Bool(true))),
                "false" => Ok(Term::Const(Value::Bool(false))),
                "null" => Ok(Term::Const(Value::Null)),
                // lowercase identifiers are symbolic string constants
                _ => Ok(Term::Const(Value::str(s))),
            },
            t => Err(VadaError::Parse(format!(
                "{}:{}: expected term, found {}",
                t.line, t.col, t.kind
            ))),
        }
    }

    /// expr := mul (("+"|"-") mul)*
    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// mul := primary (("*"|"/"|"mod") primary)*
    fn mul(&mut self) -> Result<Expr> {
        let mut lhs = self.primary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                TokenKind::Percent => ArithOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.primary()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// primary := "(" expr ")" | "district" "(" expr ")" | term
    ///
    /// `district` is the one built-in function; any other name followed by
    /// `(` is an error, and a bare `district` is a string constant.
    fn primary(&mut self) -> Result<Expr> {
        if self.peek_kind() == &TokenKind::LParen {
            self.advance();
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            return Ok(e);
        }
        if let TokenKind::Ident(name) = self.peek_kind() {
            if self.peek2_kind() == &TokenKind::LParen {
                if name != "district" {
                    return Err(self.err_here(&format!("unknown function `{name}`")));
                }
                self.advance();
                self.advance();
                let arg = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(Expr::District(Box::new(arg)));
            }
        }
        Ok(Expr::Term(self.term()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Literal;

    #[test]
    fn parses_facts_and_rules() {
        let p = parse_program(
            r#"
            parent("ann", "bob").
            parent("bob", "carol").
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert!(p.rules[0].is_fact());
        assert!(!p.rules[2].is_fact());
        assert_eq!(p.rules[3].var_count, 3);
    }

    #[test]
    fn parses_negation_and_comparison() {
        let p = parse_program("adult(X) :- person(X, A), A >= 18, not minor(X).").unwrap();
        let r = &p.rules[0];
        assert_eq!(r.body.len(), 3);
        assert!(matches!(r.body[1], Literal::Cmp(CmpOp::Ge, _, _)));
        assert!(matches!(r.body[2], Literal::Neg(_)));
    }

    #[test]
    fn parses_arithmetic_assignment() {
        let p = parse_program("vat(S, T) :- listing(S, P), T = P * 12 / 10.").unwrap();
        assert!(matches!(p.rules[0].body[1], Literal::Cmp(CmpOp::Eq, _, _)));
    }

    #[test]
    fn parses_the_district_call() {
        let src = "d(S, D) :- listing(S, PC), D = district(PC), D != \"\".";
        let p = parse_program(src).unwrap();
        let Literal::Cmp(CmpOp::Eq, _, rhs) = &p.rules[0].body[1] else { panic!("{p}") };
        assert_eq!(rhs, &Expr::District(Box::new(Expr::Term(Term::Var(2, "PC".into())))));
        assert_eq!(p.to_string(), format!("{src}\n"));
        // a bare `district` stays a string constant
        let p = parse_program("d(S) :- listing(S, K), K = district.").unwrap();
        let Literal::Cmp(_, _, rhs) = &p.rules[0].body[1] else { panic!("{p}") };
        assert_eq!(rhs, &Expr::Term(Term::Const(Value::str("district"))));
        // no other function exists
        for src in ["d(S, D) :- listing(S, PC), D = city(PC).", "d(D) :- D = 1 + upper(\"x\")."] {
            let err = parse_program(src).unwrap_err();
            assert!(matches!(err, VadaError::Parse(_)), "{src}: {err}");
            assert!(err.to_string().contains("unknown function"), "{err}");
        }
    }

    #[test]
    fn parses_aggregates() {
        let p = parse_program("avg_price(PC, avg(P)) :- property(PC, P).").unwrap();
        assert!(p.rules[0].has_aggregate());
    }

    #[test]
    fn parses_zero_ary_atoms() {
        let p = parse_program("ready :- sources_loaded, not blocked.").unwrap();
        assert_eq!(p.rules[0].head_pred, "ready");
        assert_eq!(p.rules[0].body.len(), 2);
    }

    #[test]
    fn symbolic_constants_are_strings() {
        let p = parse_program("p(foo, Bar) :- q(Bar).").unwrap();
        assert_eq!(
            p.rules[0].head_terms[0],
            HeadTerm::Term(Term::Const(Value::str("foo")))
        );
    }

    #[test]
    fn negative_numbers() {
        let p = parse_program("p(-3). q(X) :- r(X), X > -1.5.").unwrap();
        assert!(p.rules[0].is_fact());
    }

    #[test]
    fn wildcards_are_fresh() {
        let p = parse_program("p(X) :- q(X, _, _).").unwrap();
        assert_eq!(p.rules[0].var_count, 3);
    }

    #[test]
    fn unsafe_negation_rejected() {
        let err = parse_program("p(X) :- q(X), not r(Y).").unwrap_err();
        assert!(err.to_string().contains("unsafe"));
    }

    #[test]
    fn unsafe_comparison_rejected() {
        assert!(parse_program("p(X) :- q(X), Y > 3.").is_err());
    }

    #[test]
    fn assignment_binds_vars_for_safety() {
        // Y is bound via Y = X + 1, so the comparison on Y is safe
        assert!(parse_program("p(Y) :- q(X), Y = X + 1, Y > 3.").is_ok());
    }

    #[test]
    fn existential_head_allowed() {
        let p = parse_program("owner(X, Z) :- property(X).").unwrap();
        assert_eq!(p.rules[0].existential_vars().len(), 1);
    }

    #[test]
    fn parse_query_collects_head_vars() {
        let q = parse_query("matched(S, T, Score), Score >= 0.5").unwrap();
        assert_eq!(q.head_pred, "__query");
        assert_eq!(q.head_terms.len(), 3);
        assert_eq!(q.body.len(), 2);
    }

    #[test]
    fn parse_error_positions() {
        let err = parse_program("p(X :- q(X).").unwrap_err();
        assert!(err.to_string().contains("1:"), "{err}");
    }

    #[test]
    fn display_round_trip_reparses() {
        let src = r#"tc(X, Z) :- tc(X, Y), edge(Y, Z), not removed(X, Z), X != Z."#;
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2);
    }
}
