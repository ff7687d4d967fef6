//! Equation systems: named relations defined by mutually recursive
//! fixed-point equations over input relations.
//!
//! A [`System`] is the unit the solver works on. It corresponds to one
//! "MUCKE file" in the paper's architecture (Figure 1): type declarations,
//! *input* relations (the program templates — `ProgramInt`, `IntoCall`, …),
//! *fixpoint* relations (`mu bool Reachable(Conf s) (...)`) and Boolean
//! *queries*.

use crate::ast::{CmpOp, Formula, Term};
use crate::types::{Type, TypeError, TypeTable};
use std::collections::BTreeMap;
use std::fmt;

/// How a relation gets its interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationKind {
    /// Supplied from outside (a compiled program template).
    Input,
    /// Defined by a least-fixed-point equation.
    Fixpoint,
}

/// A named relation: parameters plus (for fixpoint relations) a body.
#[derive(Debug, Clone)]
pub struct RelationDef {
    /// Relation name, unique in the system.
    pub name: String,
    /// Formal parameters in order.
    pub params: Vec<(String, Type)>,
    /// Input vs fixpoint.
    pub kind: RelationKind,
    /// The defining equation body (fixpoint relations only).
    pub body: Option<Formula>,
}

/// A named closed Boolean query over the system's relations.
#[derive(Debug, Clone)]
pub struct Query {
    /// Query name.
    pub name: String,
    /// A closed formula (all variables bound by quantifiers).
    pub body: Formula,
}

/// Errors detected while building or checking a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// Relation declared twice.
    DuplicateRelation(String),
    /// Application of an undeclared relation.
    UnknownRelation(String),
    /// Wrong number of arguments in an application.
    Arity { relation: String, expected: usize, got: usize },
    /// Reference to a variable not in scope.
    UnboundVariable(String),
    /// Type mismatch with a human-readable explanation.
    Type(String),
    /// Underlying type-table error.
    Types(TypeError),
    /// A fixpoint relation has no body / an input relation has one.
    BadBody(String),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::DuplicateRelation(n) => write!(f, "relation `{n}` declared twice"),
            SystemError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            SystemError::Arity { relation, expected, got } => {
                write!(f, "`{relation}` expects {expected} arguments, got {got}")
            }
            SystemError::UnboundVariable(n) => write!(f, "unbound variable `{n}`"),
            SystemError::Type(msg) => write!(f, "type error: {msg}"),
            SystemError::Types(e) => write!(f, "type error: {e}"),
            SystemError::BadBody(n) => write!(f, "relation `{n}` has an inconsistent body"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<TypeError> for SystemError {
    fn from(e: TypeError) -> Self {
        SystemError::Types(e)
    }
}

/// A checked equation system, ready for the solver.
#[derive(Debug, Clone)]
pub struct System {
    pub(crate) types: TypeTable,
    pub(crate) relations: Vec<RelationDef>,
    pub(crate) by_name: BTreeMap<String, usize>,
    pub(crate) queries: Vec<Query>,
}

impl System {
    /// Starts building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The type table.
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// All relations in declaration order.
    pub fn relations(&self) -> &[RelationDef] {
        &self.relations
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&RelationDef> {
        self.by_name.get(name).map(|&i| &self.relations[i])
    }

    /// The declaration index of relation `name`: its position in
    /// [`System::relations`], and the one relation id the solver keys
    /// every relation table by.
    pub fn relation_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// All queries in declaration order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Looks up a query by name.
    pub fn query(&self, name: &str) -> Option<&Query> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// Is the equation for `name` positive in every fixpoint relation it
    /// applies (so Tarski's theorem guarantees a least fixed point)?
    ///
    /// Non-positive systems are still *evaluable* — the operational
    /// semantics of §3 gives them meaning (the optimized entry-forward
    /// algorithm depends on this) — but convergence is then a property of
    /// the specific equations, not a theorem.
    pub fn is_positive(&self, name: &str) -> bool {
        let Some(rel) = self.relation(name) else { return true };
        let Some(body) = &rel.body else { return true };
        self.relations
            .iter()
            .filter(|r| r.kind == RelationKind::Fixpoint)
            .all(|r| !body.occurs_negatively(&r.name))
    }
}

/// Incremental builder for [`System`]; validates on [`SystemBuilder::build`].
#[derive(Debug, Default)]
pub struct SystemBuilder {
    types: TypeTable,
    relations: Vec<RelationDef>,
    queries: Vec<Query>,
}

impl SystemBuilder {
    /// Declares a named type.
    ///
    /// # Errors
    ///
    /// See [`TypeTable::declare`].
    pub fn declare_type(
        &mut self,
        name: impl Into<String>,
        ty: Type,
    ) -> Result<&mut Self, SystemError> {
        self.types.declare(name, ty)?;
        Ok(self)
    }

    /// Declares an input relation (interpretation supplied to the solver).
    pub fn input(&mut self, name: impl Into<String>, params: Vec<(String, Type)>) -> &mut Self {
        self.relations.push(RelationDef {
            name: name.into(),
            params,
            kind: RelationKind::Input,
            body: None,
        });
        self
    }

    /// Defines a fixpoint relation by its equation body.
    pub fn define(
        &mut self,
        name: impl Into<String>,
        params: Vec<(String, Type)>,
        body: Formula,
    ) -> &mut Self {
        self.relations.push(RelationDef {
            name: name.into(),
            params,
            kind: RelationKind::Fixpoint,
            body: Some(body),
        });
        self
    }

    /// Adds a closed Boolean query.
    pub fn query(&mut self, name: impl Into<String>, body: Formula) -> &mut Self {
        self.queries.push(Query { name: name.into(), body });
        self
    }

    /// Validates everything and produces the checked [`System`].
    ///
    /// # Errors
    ///
    /// Returns the first scope, arity or type error found.
    pub fn build(self) -> Result<System, SystemError> {
        let mut by_name = BTreeMap::new();
        for (i, rel) in self.relations.iter().enumerate() {
            if by_name.insert(rel.name.clone(), i).is_some() {
                return Err(SystemError::DuplicateRelation(rel.name.clone()));
            }
            match (rel.kind, &rel.body) {
                (RelationKind::Input, None) | (RelationKind::Fixpoint, Some(_)) => {}
                _ => return Err(SystemError::BadBody(rel.name.clone())),
            }
        }
        let sys =
            System { types: self.types, relations: self.relations, by_name, queries: self.queries };
        // Scope/type check every body and query.
        for rel in &sys.relations {
            if let Some(body) = &rel.body {
                let mut env: Vec<(String, Type)> = rel.params.clone();
                check_formula(&sys, body, &mut env)?;
            }
        }
        for q in &sys.queries {
            let mut env = Vec::new();
            check_formula(&sys, &q.body, &mut env)?;
        }
        Ok(sys)
    }
}

/// The type of a term in the environment, if well-formed.
fn term_type(
    sys: &System,
    term: &Term,
    env: &[(String, Type)],
) -> Result<Option<Type>, SystemError> {
    match term {
        Term::Int(_) => Ok(None),
        Term::Var { name, path } => {
            let (_, ty) = env
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .ok_or_else(|| SystemError::UnboundVariable(name.clone()))?;
            Ok(Some(sys.types.project(ty, path)?))
        }
    }
}

fn check_formula(
    sys: &System,
    f: &Formula,
    env: &mut Vec<(String, Type)>,
) -> Result<(), SystemError> {
    match f {
        Formula::Const(_) => Ok(()),
        Formula::Atom(t) => {
            let ty = term_type(sys, t, env)?
                .ok_or_else(|| SystemError::Type(format!("integer `{t}` used as an atom")))?;
            let leaves = sys.types.flatten(&ty)?;
            if leaves.len() == 1 && leaves[0].width == 1 && leaves[0].bound.is_none() {
                Ok(())
            } else {
                Err(SystemError::Type(format!("atom `{t}` is not a single bit")))
            }
        }
        Formula::Cmp(a, op, b) => {
            let ta = term_type(sys, a, env)?;
            let tb = term_type(sys, b, env)?;
            match (ta, tb) {
                (None, None) => Err(SystemError::Type(format!(
                    "cannot compare two integer literals `{a}` and `{b}`"
                ))),
                (Some(ty), None) | (None, Some(ty)) => {
                    let leaves = sys.types.flatten(&ty)?;
                    if leaves.len() != 1 {
                        return Err(SystemError::Type(format!(
                            "integer comparison on a non-scalar term in `{a} {op} {b}`"
                        )));
                    }
                    Ok(())
                }
                (Some(ta), Some(tb)) => {
                    if !sys.types.same(&ta, &tb) {
                        return Err(SystemError::Type(format!(
                            "comparison `{a} {op} {b}` between incompatible types `{ta}` and `{tb}`"
                        )));
                    }
                    if matches!(op, CmpOp::Lt | CmpOp::Le) {
                        let leaves = sys.types.flatten(&ta)?;
                        if leaves.len() != 1 {
                            return Err(SystemError::Type(format!(
                                "ordered comparison `{a} {op} {b}` on a non-scalar type"
                            )));
                        }
                    }
                    Ok(())
                }
            }
        }
        Formula::App(name, args) => {
            let rel =
                sys.relation(name).ok_or_else(|| SystemError::UnknownRelation(name.clone()))?;
            if rel.params.len() != args.len() {
                return Err(SystemError::Arity {
                    relation: name.clone(),
                    expected: rel.params.len(),
                    got: args.len(),
                });
            }
            for (arg, (pname, pty)) in args.iter().zip(&rel.params) {
                match term_type(sys, arg, env)? {
                    Some(aty) => {
                        if !sys.types.same(&aty, pty) {
                            return Err(SystemError::Type(format!(
                                "argument `{arg}` of `{name}` has type `{aty}`, \
                                 parameter `{pname}` expects `{pty}`"
                            )));
                        }
                    }
                    None => {
                        // Integer literal argument: parameter must be scalar.
                        let leaves = sys.types.flatten(pty)?;
                        if leaves.len() != 1 {
                            return Err(SystemError::Type(format!(
                                "integer argument `{arg}` for non-scalar parameter `{pname}` of `{name}`"
                            )));
                        }
                    }
                }
            }
            Ok(())
        }
        Formula::Not(g) => check_formula(sys, g, env),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                check_formula(sys, g, env)?;
            }
            Ok(())
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            check_formula(sys, a, env)?;
            check_formula(sys, b, env)
        }
        Formula::Exists(binders, g) | Formula::Forall(binders, g) => {
            for (name, ty) in binders {
                // Validate the type exists/flattens.
                sys.types.flatten(ty)?;
                env.push((name.clone(), ty.clone()));
            }
            let r = check_formula(sys, g, env);
            for _ in binders {
                env.pop();
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reach_system() -> SystemBuilder {
        let mut b = System::builder();
        b.declare_type("State", Type::Bits(3)).unwrap();
        b.input("Init", vec![("s".into(), Type::named("State"))]);
        b.input(
            "Trans",
            vec![("s".into(), Type::named("State")), ("t".into(), Type::named("State"))],
        );
        b.define(
            "Reach",
            vec![("u".into(), Type::named("State"))],
            Formula::or(vec![
                Formula::app("Init", vec![Term::var("u")]),
                Formula::exists(
                    vec![("x".into(), Type::named("State"))],
                    Formula::and(vec![
                        Formula::app("Reach", vec![Term::var("x")]),
                        Formula::app("Trans", vec![Term::var("x"), Term::var("u")]),
                    ]),
                ),
            ]),
        );
        b
    }

    #[test]
    fn build_reach_ok() {
        let sys = reach_system().build().unwrap();
        assert_eq!(sys.relations().len(), 3);
        assert!(sys.is_positive("Reach"));
        assert_eq!(sys.relation("Reach").unwrap().kind, RelationKind::Fixpoint);
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut b = System::builder();
        b.declare_type("S", Type::Bool).unwrap();
        b.define(
            "R",
            vec![("x".into(), Type::named("S"))],
            Formula::app("Missing", vec![Term::var("x")]),
        );
        assert_eq!(b.build().unwrap_err(), SystemError::UnknownRelation("Missing".into()));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = System::builder();
        b.declare_type("S", Type::Bool).unwrap();
        b.input("I", vec![("x".into(), Type::named("S"))]);
        b.define(
            "R",
            vec![("x".into(), Type::named("S"))],
            Formula::app("I", vec![Term::var("x"), Term::var("x")]),
        );
        assert!(matches!(b.build().unwrap_err(), SystemError::Arity { .. }));
    }

    #[test]
    fn unbound_variable_rejected() {
        let mut b = System::builder();
        b.declare_type("S", Type::Bool).unwrap();
        b.input("I", vec![("x".into(), Type::named("S"))]);
        b.define(
            "R",
            vec![("x".into(), Type::named("S"))],
            Formula::app("I", vec![Term::var("y")]),
        );
        assert_eq!(b.build().unwrap_err(), SystemError::UnboundVariable("y".into()));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = System::builder();
        b.declare_type("A", Type::Bits(2)).unwrap();
        b.declare_type("B", Type::Bits(3)).unwrap();
        b.input("I", vec![("x".into(), Type::named("A"))]);
        b.define(
            "R",
            vec![("y".into(), Type::named("B"))],
            Formula::app("I", vec![Term::var("y")]),
        );
        assert!(matches!(b.build().unwrap_err(), SystemError::Type(_)));
    }

    #[test]
    fn non_positive_detected() {
        let mut b = System::builder();
        b.declare_type("S", Type::Bool).unwrap();
        b.define(
            "R",
            vec![("x".into(), Type::named("S"))],
            Formula::not(Formula::app("R", vec![Term::var("x")])),
        );
        let sys = b.build().unwrap();
        assert!(!sys.is_positive("R"));
    }

    #[test]
    fn field_projection_checked() {
        let mut b = System::builder();
        b.declare_type("PC", Type::Range(5)).unwrap();
        b.declare_type(
            "Conf",
            Type::Struct(vec![("pc".into(), Type::named("PC")), ("b".into(), Type::Bool)]),
        )
        .unwrap();
        b.input("AtPc", vec![("p".into(), Type::named("PC"))]);
        b.define(
            "R",
            vec![("s".into(), Type::named("Conf"))],
            Formula::and(vec![
                Formula::app("AtPc", vec![Term::field("s", "pc")]),
                Formula::Atom(Term::field("s", "b")),
            ]),
        );
        assert!(b.build().is_ok());
    }

    #[test]
    fn bad_projection_rejected() {
        let mut b = System::builder();
        b.declare_type("Conf", Type::Struct(vec![("b".into(), Type::Bool)])).unwrap();
        b.define(
            "R",
            vec![("s".into(), Type::named("Conf"))],
            Formula::Atom(Term::field("s", "nope")),
        );
        assert!(matches!(b.build().unwrap_err(), SystemError::Types(_)));
    }

    #[test]
    fn ordered_cmp_requires_scalar() {
        let mut b = System::builder();
        b.declare_type("K", Type::Range(4)).unwrap();
        b.declare_type(
            "Pair",
            Type::Struct(vec![("a".into(), Type::named("K")), ("b".into(), Type::named("K"))]),
        )
        .unwrap();
        b.define(
            "R",
            vec![("p".into(), Type::named("Pair"))],
            Formula::lt(Term::var("p"), Term::var("p")),
        );
        assert!(matches!(b.build().unwrap_err(), SystemError::Type(_)));
    }
}
