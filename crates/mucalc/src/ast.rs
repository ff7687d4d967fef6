//! Abstract syntax of the fixed-point calculus.
//!
//! A *formula* denotes a Boolean relation over the typed variables in scope.
//! The calculus is first-order logic over finite domains, plus relation
//! application; least fixed points enter through the *equation system*
//! (see `system.rs`), matching §3 of the paper.

use crate::types::Type;
use std::fmt;

/// A term: a (possibly field-projected) variable reference or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// `x` or `x.f.g` — a variable with an access path.
    Var { name: String, path: Vec<String> },
    /// An unsigned integer constant (for `range` comparisons).
    Int(u64),
}

impl Term {
    /// A whole-variable reference.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var { name: name.into(), path: Vec::new() }
    }

    /// A field projection `name.field` (single segment).
    pub fn field(name: impl Into<String>, field: impl Into<String>) -> Term {
        Term::Var { name: name.into(), path: vec![field.into()] }
    }

    /// A projection with an arbitrary path.
    pub fn path(name: impl Into<String>, path: Vec<String>) -> Term {
        Term::Var { name: name.into(), path }
    }

    /// An integer constant.
    pub fn int(v: u64) -> Term {
        Term::Int(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var { name, path } => {
                write!(f, "{name}")?;
                for seg in path {
                    write!(f, ".{seg}")?;
                }
                Ok(())
            }
            Term::Int(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operators on terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Bitwise equality (defined for any pair of equal-shaped terms).
    Eq,
    /// Negated equality.
    Ne,
    /// Strictly-less-than on `range` values.
    Lt,
    /// Less-or-equal on `range` values.
    Le,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
        };
        write!(f, "{s}")
    }
}

/// A formula of the calculus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// `true` / `false`.
    Const(bool),
    /// A Boolean-typed term used as an atom (a `bool` variable or a single
    /// bit field).
    Atom(Term),
    /// Term comparison.
    Cmp(Term, CmpOp, Term),
    /// Relation application `R(t₁, …, tₙ)`.
    App(String, Vec<Term>),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction of all operands (`true` when empty).
    And(Vec<Formula>),
    /// Disjunction of all operands (`false` when empty).
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Biconditional.
    Iff(Box<Formula>, Box<Formula>),
    /// `exists x₁: T₁, …. φ`
    Exists(Vec<(String, Type)>, Box<Formula>),
    /// `forall x₁: T₁, …. φ`
    Forall(Vec<(String, Type)>, Box<Formula>),
}

impl Formula {
    /// The constant `true`.
    pub fn tt() -> Formula {
        Formula::Const(true)
    }

    /// The constant `false`.
    pub fn ff() -> Formula {
        Formula::Const(false)
    }

    /// `t₁ = t₂`
    pub fn eq(a: Term, b: Term) -> Formula {
        Formula::Cmp(a, CmpOp::Eq, b)
    }

    /// `t₁ != t₂`
    pub fn ne(a: Term, b: Term) -> Formula {
        Formula::Cmp(a, CmpOp::Ne, b)
    }

    /// `t₁ < t₂`
    pub fn lt(a: Term, b: Term) -> Formula {
        Formula::Cmp(a, CmpOp::Lt, b)
    }

    /// `t₁ <= t₂`
    pub fn le(a: Term, b: Term) -> Formula {
        Formula::Cmp(a, CmpOp::Le, b)
    }

    /// Relation application.
    pub fn app(name: impl Into<String>, args: Vec<Term>) -> Formula {
        Formula::App(name.into(), args)
    }

    /// Negation (with double-negation collapse).
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::Not(inner) => *inner,
            Formula::Const(b) => Formula::Const(!b),
            other => Formula::Not(Box::new(other)),
        }
    }

    /// N-ary conjunction, flattening nested `And`s and dropping `true`s.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::Const(true) => {}
                Formula::Const(false) => return Formula::ff(),
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::tt(),
            1 => flat.pop().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// N-ary disjunction, flattening nested `Or`s and dropping `false`s.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::Const(false) => {}
                Formula::Const(true) => return Formula::tt(),
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::ff(),
            1 => flat.pop().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Existential quantification (no-op for an empty binder list).
    pub fn exists(binders: Vec<(String, Type)>, body: Formula) -> Formula {
        if binders.is_empty() {
            body
        } else {
            Formula::Exists(binders, Box::new(body))
        }
    }

    /// Universal quantification (no-op for an empty binder list).
    pub fn forall(binders: Vec<(String, Type)>, body: Formula) -> Formula {
        if binders.is_empty() {
            body
        } else {
            Formula::Forall(binders, Box::new(body))
        }
    }

    /// Collects the names of all relations applied anywhere in the formula.
    pub fn relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |f| {
            if let Formula::App(name, _) = f {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Does relation `name` occur under an odd number of negations?
    ///
    /// Implications and biconditionals count as the usual derived forms.
    /// A `true` answer means the equation is *not positive* in `name`, so
    /// Tarski's theorem does not apply and only the operational semantics
    /// (§3 of the paper) gives the equation meaning.
    pub fn occurs_negatively(&self, name: &str) -> bool {
        self.polarity_scan(name, false).1
    }

    /// Does relation `name` occur under an even number of negations?
    pub fn occurs_positively(&self, name: &str) -> bool {
        self.polarity_scan(name, false).0
    }

    /// Returns (occurs positively, occurs negatively) for `name`, starting
    /// from the given negation context.
    fn polarity_scan(&self, name: &str, negated: bool) -> (bool, bool) {
        let merge = |a: (bool, bool), b: (bool, bool)| (a.0 || b.0, a.1 || b.1);
        match self {
            Formula::Const(_) | Formula::Atom(_) | Formula::Cmp(..) => (false, false),
            Formula::App(n, _) => {
                if n == name {
                    if negated {
                        (false, true)
                    } else {
                        (true, false)
                    }
                } else {
                    (false, false)
                }
            }
            Formula::Not(f) => f.polarity_scan(name, !negated),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().map(|f| f.polarity_scan(name, negated)).fold((false, false), merge)
            }
            Formula::Implies(a, b) => {
                merge(a.polarity_scan(name, !negated), b.polarity_scan(name, negated))
            }
            Formula::Iff(a, b) => {
                // Both polarities on both sides.
                let la = a.polarity_scan(name, negated);
                let lna = a.polarity_scan(name, !negated);
                let lb = b.polarity_scan(name, negated);
                let lnb = b.polarity_scan(name, !negated);
                merge(merge(la, lna), merge(lb, lnb))
            }
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.polarity_scan(name, negated),
        }
    }

    /// The top-level conjuncts: the operands of an `And`, or the formula
    /// itself.
    pub(crate) fn conjuncts(&self) -> &[Formula] {
        match self {
            Formula::And(gs) => gs,
            other => std::slice::from_ref(other),
        }
    }

    /// Visits `self` and every subformula, in preorder.
    pub(crate) fn walk(&self, visit: &mut impl FnMut(&Formula)) {
        visit(self);
        match self {
            Formula::Const(_) | Formula::Atom(_) | Formula::Cmp(..) | Formula::App(..) => {}
            Formula::Not(f) => f.walk(visit),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.walk(visit);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.walk(visit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_simplify() {
        assert_eq!(Formula::and(vec![]), Formula::tt());
        assert_eq!(Formula::or(vec![]), Formula::ff());
        assert_eq!(Formula::and(vec![Formula::tt(), Formula::ff()]), Formula::ff());
        assert_eq!(Formula::or(vec![Formula::ff(), Formula::tt()]), Formula::tt());
        assert_eq!(Formula::not(Formula::not(Formula::tt())), Formula::tt());
        // Flattening
        let a = Formula::app("R", vec![]);
        let b = Formula::app("S", vec![]);
        let c = Formula::app("T", vec![]);
        let nested = Formula::and(vec![a.clone(), Formula::and(vec![b.clone(), c.clone()])]);
        assert_eq!(nested, Formula::And(vec![a, b, c]));
    }

    #[test]
    fn relations_collected() {
        let f = Formula::or(vec![
            Formula::app("Init", vec![Term::var("s")]),
            Formula::exists(
                vec![("t".into(), Type::named("Conf"))],
                Formula::and(vec![
                    Formula::app("Reach", vec![Term::var("t")]),
                    Formula::app("Trans", vec![Term::var("t"), Term::var("s")]),
                ]),
            ),
        ]);
        assert_eq!(f.relations(), vec!["Init".to_string(), "Reach".into(), "Trans".into()]);
    }

    #[test]
    fn polarity_detection() {
        let pos = Formula::app("R", vec![]);
        assert!(pos.occurs_positively("R"));
        assert!(!pos.occurs_negatively("R"));

        let neg = Formula::not(Formula::app("R", vec![]));
        assert!(!neg.occurs_positively("R"));
        assert!(neg.occurs_negatively("R"));

        // R in the antecedent of an implication is negative.
        let imp = Formula::Implies(
            Box::new(Formula::app("R", vec![])),
            Box::new(Formula::app("S", vec![])),
        );
        assert!(imp.occurs_negatively("R"));
        assert!(imp.occurs_positively("S"));

        // The EFopt `Relevant` pattern: R(1,·) ∧ ¬R(0,·) is both.
        let mixed = Formula::and(vec![
            Formula::app("R", vec![Term::int(1)]),
            Formula::not(Formula::app("R", vec![Term::int(0)])),
        ]);
        assert!(mixed.occurs_positively("R"));
        assert!(mixed.occurs_negatively("R"));
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::field("s", "pc").to_string(), "s.pc");
        assert_eq!(Term::int(3).to_string(), "3");
        assert_eq!(Term::path("s", vec!["a".into(), "b".into()]).to_string(), "s.a.b");
    }
}
