//! Evaluation of arithmetic expressions, comparison built-ins and the one
//! built-in function, `district`.
//!
//! `district(X)` is the postcode→district transformation the paper's
//! mapping generation joins the data context through: the outward code of a
//! postcode-shaped string, null for any other value. It is written in
//! expression position, usually as an assignment:
//!
//! ```text
//! crime(S, C) :- listing(S, PC), D = district(PC), D != null, deprivation(D, C).
//! ```
//!
//! `=` treats null as equal to null, so a rule that joins on the district
//! guards it with `D != null`: a value that is no postcode must not meet a
//! null key.

use vada_common::{Result, VadaError, Value};

use crate::ast::{ArithOp, CmpOp, Expr, Term};

/// A (partial) variable binding: `binding[var_id]` is `Some` once bound.
pub type Binding = Vec<Option<Value>>;

/// Resolve a term under a binding. Unbound variables yield `None`.
pub fn resolve(term: &Term, binding: &Binding) -> Option<Value> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Var(id, _) => binding.get(*id).and_then(|v| v.clone()),
    }
}

/// Evaluate an expression under a binding. All variables must be bound.
pub fn eval_expr(expr: &Expr, binding: &Binding) -> Result<Value> {
    match expr {
        Expr::Term(t) => resolve(t, binding).ok_or_else(|| {
            VadaError::Eval(format!("unbound variable in expression `{expr}`"))
        }),
        Expr::BinOp(op, a, b) => {
            let va = eval_expr(a, binding)?;
            let vb = eval_expr(b, binding)?;
            apply_arith(*op, &va, &vb)
        }
        Expr::District(a) => Ok(district(&eval_expr(a, binding)?)),
    }
}

/// The built-in `district(X)`: the outward code of a postcode-shaped
/// string, e.g. `M13` for `M13 9PL`. A string is postcode-shaped when it
/// contains a space and its first whitespace-separated word — the outward
/// code — has both an ASCII letter and an ASCII digit. Any other value,
/// null included, yields null.
pub fn district(v: &Value) -> Value {
    let outward =
        v.as_str().filter(|s| s.contains(' ')).and_then(|s| s.split_whitespace().next());
    match outward {
        Some(o)
            if o.chars().any(|c| c.is_ascii_alphabetic())
                && o.chars().any(|c| c.is_ascii_digit()) =>
        {
            Value::str(o)
        }
        _ => Value::Null,
    }
}

/// Apply a binary arithmetic operator. Nulls propagate (null op x = null).
/// `+` concatenates strings.
pub fn apply_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if op == ArithOp::Add {
        if let (Value::Str(x), Value::Str(y)) = (a, b) {
            return Ok(Value::str(format!("{x}{y}")));
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            ArithOp::Add => Ok(Value::Int(x.wrapping_add(*y))),
            ArithOp::Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            ArithOp::Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            ArithOp::Div => {
                if *y == 0 {
                    Err(VadaError::Eval("division by zero".into()))
                } else if x % y == 0 {
                    Ok(Value::Int(x / y))
                } else {
                    Ok(Value::Float(*x as f64 / *y as f64))
                }
            }
            ArithOp::Mod => {
                if *y == 0 {
                    Err(VadaError::Eval("modulo by zero".into()))
                } else {
                    Ok(Value::Int(x.rem_euclid(*y)))
                }
            }
        },
        _ => {
            let (x, y) = match (a.numeric(), b.numeric()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(VadaError::Eval(format!(
                        "arithmetic on non-numeric values `{a}` {op} `{b}`"
                    )))
                }
            };
            let r = match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y == 0.0 {
                        return Err(VadaError::Eval("division by zero".into()));
                    }
                    x / y
                }
                ArithOp::Mod => {
                    if y == 0.0 {
                        return Err(VadaError::Eval("modulo by zero".into()));
                    }
                    x.rem_euclid(y)
                }
            };
            Ok(Value::Float(r))
        }
    }
}

/// Apply a comparison to two fully evaluated values.
///
/// Comparisons against null follow SQL-ish semantics: any ordering
/// comparison involving null is false; `=`/`!=` treat null as a regular
/// (syntactic) value so metadata predicates can test for missing fields.
pub fn apply_cmp(op: CmpOp, a: &Value, b: &Value) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        _ => {
            if a.is_null() || b.is_null() {
                return false;
            }
            let ord = a.cmp(b);
            match op {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn arith_int_preserving() {
        assert_eq!(apply_arith(ArithOp::Add, &int(2), &int(3)).unwrap(), int(5));
        assert_eq!(apply_arith(ArithOp::Div, &int(6), &int(3)).unwrap(), int(2));
        assert_eq!(
            apply_arith(ArithOp::Div, &int(7), &int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(apply_arith(ArithOp::Mod, &int(-7), &int(3)).unwrap(), int(2));
    }

    #[test]
    fn arith_mixed_promotes() {
        assert_eq!(
            apply_arith(ArithOp::Mul, &int(2), &Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn string_concat() {
        assert_eq!(
            apply_arith(ArithOp::Add, &Value::str("ab"), &Value::str("cd")).unwrap(),
            Value::str("abcd")
        );
    }

    #[test]
    fn null_propagates() {
        assert_eq!(
            apply_arith(ArithOp::Add, &Value::Null, &int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(apply_arith(ArithOp::Div, &int(1), &int(0)).is_err());
        assert!(apply_arith(ArithOp::Mod, &Value::Float(1.0), &Value::Float(0.0)).is_err());
    }

    #[test]
    fn cmp_null_semantics() {
        assert!(!apply_cmp(CmpOp::Lt, &Value::Null, &int(3)));
        assert!(!apply_cmp(CmpOp::Ge, &int(3), &Value::Null));
        assert!(apply_cmp(CmpOp::Eq, &Value::Null, &Value::Null));
        assert!(apply_cmp(CmpOp::Ne, &Value::Null, &int(1)));
    }

    #[test]
    fn cmp_ordering() {
        assert!(apply_cmp(CmpOp::Lt, &int(1), &int(2)));
        assert!(apply_cmp(CmpOp::Le, &int(2), &Value::Float(2.0)));
        assert!(apply_cmp(CmpOp::Gt, &Value::str("b"), &Value::str("a")));
    }

    #[test]
    fn district_shapes() {
        let d = |v: Value| district(&v);
        assert_eq!(d(Value::str("M13 9PL")), Value::str("M13"));
        assert_eq!(d(Value::str("EH8 9AB")), Value::str("EH8"));
        // the space test looks at the whole string, the outward code at
        // its first word
        assert_eq!(d(Value::str(" SW1A  2AA")), Value::str("SW1A"));
        assert_eq!(d(Value::str("M1 ")), Value::str("M1"));
        for not_a_postcode in [
            Value::str("hello world"),
            Value::str("123 456"),
            Value::str("M1"),
            Value::str("M1\t1AA"),
            Value::str(""),
            Value::str(" "),
            Value::Int(1),
            Value::Null,
        ] {
            assert_eq!(d(not_a_postcode.clone()), Value::Null, "{not_a_postcode:?}");
        }
        // in an expression, the argument is evaluated first
        let call = Expr::District(Box::new(Expr::Term(Term::Var(0, "PC".into()))));
        let binding = vec![Some(Value::str("OX1 2JD"))];
        assert_eq!(eval_expr(&call, &binding).unwrap(), Value::str("OX1"));
        assert_eq!(call.to_string(), "district(PC)");
    }

    #[test]
    fn eval_expr_with_binding() {
        // X * 2 + 1 with X = 4
        let e = Expr::BinOp(
            ArithOp::Add,
            Box::new(Expr::BinOp(
                ArithOp::Mul,
                Box::new(Expr::Term(Term::Var(0, "X".into()))),
                Box::new(Expr::Term(Term::Const(int(2)))),
            )),
            Box::new(Expr::Term(Term::Const(int(1)))),
        );
        let binding = vec![Some(int(4))];
        assert_eq!(eval_expr(&e, &binding).unwrap(), int(9));
        assert!(eval_expr(&e, &vec![None]).is_err());
    }
}
