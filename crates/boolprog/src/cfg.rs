//! Control-flow graph lowering.
//!
//! The CFG is the interface every engine (the Getafix fixed-point
//! algorithms, the Bebop-style worklist, the pushdown-system baselines and
//! the explicit-state oracle) consumes. Lowering also performs all semantic
//! checks: name resolution, arity checks, label resolution, and the
//! structural restrictions §2 imposes (`main` exists, is not called, a
//! `return` in `f^{h,k}` returns exactly `k` values).
//!
//! # Program points
//!
//! Program counters are dense `u32`s, unique across the whole program; each
//! statement gets the pc *before* it executes, each procedure gets one
//! `exit` pc ("after the last line", per §4's Exit template), and a single
//! distinguished `error` pc serves as the target of failed `assert`s.
//!
//! # Variable initialization
//!
//! All variables start `false`: globals at program start and callee locals
//! at procedure entry (parameters are set from the call arguments). The
//! paper leaves initial valuations unconstrained; pinning them keeps every
//! engine and the explicit oracle pointwise comparable (see DESIGN.md).
//! Workloads that need nondeterministic initial state assign `*` up front.

use crate::ast::{Expr, Program, Stmt, StmtKind};
use std::collections::BTreeMap;
use std::fmt;

/// A program counter (dense, program-wide).
pub type Pc = u32;

/// A procedure index into [`Cfg::procs`].
pub type ProcId = usize;

/// A resolved variable reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarRef {
    /// Index into the global variable vector.
    Global(usize),
    /// Index into the current procedure's local vector (parameters first).
    Local(usize),
}

/// An expression with resolved variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LExpr {
    /// Constant.
    Const(bool),
    /// Nondeterministic bit.
    Nondet,
    /// Resolved variable.
    Var(VarRef),
    /// Negation.
    Not(Box<LExpr>),
    /// Conjunction.
    And(Box<LExpr>, Box<LExpr>),
    /// Disjunction.
    Or(Box<LExpr>, Box<LExpr>),
    /// Biconditional.
    Eq(Box<LExpr>, Box<LExpr>),
    /// Exclusive or.
    Ne(Box<LExpr>, Box<LExpr>),
    /// Bebop's constrained choice.
    Schoose(Box<LExpr>, Box<LExpr>),
}

impl LExpr {
    /// The set of values the expression can take in the given state:
    /// `(can_be_true, can_be_false)`.
    pub fn value_set(&self, read: &impl Fn(VarRef) -> bool) -> (bool, bool) {
        match self {
            LExpr::Const(b) => (*b, !*b),
            LExpr::Nondet => (true, true),
            LExpr::Var(v) => {
                let b = read(*v);
                (b, !b)
            }
            LExpr::Not(e) => {
                let (t, f) = e.value_set(read);
                (f, t)
            }
            LExpr::And(a, b) => {
                let (at, af) = a.value_set(read);
                let (bt, bf) = b.value_set(read);
                (at && bt, af || bf)
            }
            LExpr::Or(a, b) => {
                let (at, af) = a.value_set(read);
                let (bt, bf) = b.value_set(read);
                (at || bt, af && bf)
            }
            LExpr::Eq(a, b) => {
                let (at, af) = a.value_set(read);
                let (bt, bf) = b.value_set(read);
                (at && bt || af && bf, at && bf || af && bt)
            }
            LExpr::Ne(a, b) => {
                let (at, af) = a.value_set(read);
                let (bt, bf) = b.value_set(read);
                (at && bf || af && bt, at && bt || af && bf)
            }
            LExpr::Schoose(pos, neg) => {
                // T when pos; F when !pos & neg; otherwise free.
                let (pt, pf) = pos.value_set(read);
                let (nt, nf) = neg.value_set(read);
                let can_true = pt || (pf && nf);
                let can_false = pf && (nt || nf);
                (can_true, can_false)
            }
        }
    }

    /// All variables read by the expression.
    pub fn vars(&self) -> Vec<VarRef> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<VarRef>) {
        match self {
            LExpr::Const(_) | LExpr::Nondet => {}
            LExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            LExpr::Not(e) => e.collect(out),
            LExpr::And(a, b)
            | LExpr::Or(a, b)
            | LExpr::Eq(a, b)
            | LExpr::Ne(a, b)
            | LExpr::Schoose(a, b) => {
                a.collect(out);
                b.collect(out);
            }
        }
    }
}

/// An outgoing CFG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edge {
    /// An intra-procedural step: feasible when `guard` can be true;
    /// executes the parallel `assigns` (unassigned variables keep their
    /// values).
    Internal {
        /// Destination pc (same procedure).
        to: Pc,
        /// Feasibility condition.
        guard: LExpr,
        /// Parallel assignment.
        assigns: Vec<(VarRef, LExpr)>,
    },
    /// A procedure call. Control moves to the callee's entry; on return it
    /// resumes at `ret_to` with `rets` assigned from the callee's return
    /// expressions.
    Call {
        /// The called procedure.
        callee: ProcId,
        /// Actual arguments (evaluated in the caller).
        args: Vec<LExpr>,
        /// Caller variables receiving the return values.
        rets: Vec<VarRef>,
        /// The pc after the call (same procedure as the call).
        ret_to: Pc,
    },
}

/// An exit point of a procedure: a `return` statement or the implicit exit
/// after the last statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitPoint {
    /// The exit pc.
    pub pc: Pc,
    /// Return-value expressions (evaluated in the exiting state); empty for
    /// `k = 0` procedures.
    pub ret_exprs: Vec<LExpr>,
}

/// A lowered procedure.
#[derive(Debug, Clone)]
pub struct ProcCfg {
    /// Procedure name.
    pub name: String,
    /// Dense id (index into [`Cfg::procs`]).
    pub id: ProcId,
    /// Number of formal parameters (a prefix of the locals).
    pub params: usize,
    /// Number of return values.
    pub returns: usize,
    /// Local variable names, parameters first.
    pub locals: Vec<String>,
    /// Entry pc.
    pub entry: Pc,
    /// Pcs of this procedure, contiguous: `pc_range.0 .. pc_range.1`.
    pub pc_range: (Pc, Pc),
    /// Outgoing edges per pc.
    pub edges: BTreeMap<Pc, Vec<Edge>>,
    /// Exit points.
    pub exits: Vec<ExitPoint>,
    /// The sink pc failed `assert`s in this procedure jump to, if any.
    pub error_pc: Option<Pc>,
}

impl ProcCfg {
    /// Number of local variables (including parameters).
    pub fn n_locals(&self) -> usize {
        self.locals.len()
    }

    /// Does `pc` belong to this procedure?
    pub fn contains(&self, pc: Pc) -> bool {
        self.pc_range.0 <= pc && pc < self.pc_range.1
    }

    /// Is `pc` one of this procedure's exit points?
    pub fn is_exit(&self, pc: Pc) -> bool {
        self.exits.iter().any(|e| e.pc == pc)
    }
}

/// The lowered program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Global variable names.
    pub globals: Vec<String>,
    /// Lowered procedures; `procs[main]` is the entry procedure.
    pub procs: Vec<ProcCfg>,
    /// Index of `main`.
    pub main: ProcId,
    /// Total number of pcs (dense `0..pc_count`).
    pub pc_count: u32,
    /// Label → pc map (reachability targets).
    pub labels: BTreeMap<String, Pc>,
    /// pc → 1-based source line, for statements whose AST carried one
    /// (parsed programs; programmatically built ASTs leave this empty).
    pub lines: BTreeMap<Pc, u32>,
}

impl Cfg {
    /// The pcs failed `assert`s jump to, across all procedures.
    pub fn assert_sinks(&self) -> Vec<Pc> {
        self.procs.iter().filter_map(|p| p.error_pc).collect()
    }
}

/// A semantic error found during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BuildError {}

impl Cfg {
    /// Lowers (and checks) a program.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for: duplicate declarations, unknown
    /// variables or procedures, call arity or return-count mismatches,
    /// duplicate or unresolved labels, a missing `main`, calls to `main`,
    /// or a `return` with values in a `k = 0` context.
    pub fn build(program: &Program) -> Result<Cfg, BuildError> {
        Builder::new(program)?.lower()
    }

    /// The procedure owning `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn proc_of(&self, pc: Pc) -> &ProcCfg {
        self.procs
            .iter()
            .find(|p| p.contains(pc))
            .unwrap_or_else(|| panic!("pc {pc} belongs to no procedure"))
    }

    /// Looks up a procedure by name.
    pub fn proc_by_name(&self, name: &str) -> Option<&ProcCfg> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// The pc a reachability label names, if declared.
    pub fn label(&self, name: &str) -> Option<Pc> {
        self.labels.get(name).copied()
    }

    /// The 1-based source line of the statement at `pc`, if known.
    pub fn line_of(&self, pc: Pc) -> Option<u32> {
        self.lines.get(&pc).copied()
    }

    /// Widest local frame across procedures.
    pub fn max_locals(&self) -> usize {
        self.procs.iter().map(|p| p.n_locals()).max().unwrap_or(0)
    }

    /// Checks that every valuation packs into one 64-bit
    /// [`Bits`](crate::Bits) word: at most 64 globals, and at most 64
    /// locals in every procedure. Every concrete engine (the explicit
    /// oracles, the replayers, the witness extractor) calls this before it
    /// packs a valuation.
    ///
    /// # Errors
    ///
    /// A message naming the global count, or the first procedure whose
    /// locals do not fit.
    pub fn check_frame_width(&self) -> Result<(), String> {
        if self.globals.len() > 64 {
            return Err(format!("{} globals exceed the 64-bit frame", self.globals.len()));
        }
        match self.procs.iter().find(|p| p.n_locals() > 64) {
            Some(p) => Err(format!(
                "procedure `{}` has {} locals, more than the 64-bit frame holds",
                p.name,
                p.n_locals()
            )),
            None => Ok(()),
        }
    }
}

struct Builder<'a> {
    program: &'a Program,
    proc_ids: BTreeMap<String, ProcId>,
    next_pc: Pc,
    labels: BTreeMap<String, Pc>,
    lines: BTreeMap<Pc, u32>,
    /// Error sink of the procedure currently being lowered.
    current_error_pc: Option<Pc>,
}

struct ProcLowering<'a> {
    globals: &'a BTreeMap<String, usize>,
    locals: BTreeMap<String, usize>,
    edges: BTreeMap<Pc, Vec<Edge>>,
    exits: Vec<ExitPoint>,
    /// goto fixups: (source pc, label).
    gotos: Vec<(Pc, String)>,
    returns: usize,
    proc_name: String,
}

impl<'a> Builder<'a> {
    fn new(program: &'a Program) -> Result<Builder<'a>, BuildError> {
        let mut proc_ids = BTreeMap::new();
        for (i, p) in program.procs.iter().enumerate() {
            if proc_ids.insert(p.name.clone(), i).is_some() {
                return Err(BuildError(format!("procedure `{}` declared twice", p.name)));
            }
        }
        if !proc_ids.contains_key("main") {
            return Err(BuildError("program has no `main` procedure".into()));
        }
        Ok(Builder {
            program,
            proc_ids,
            next_pc: 0,
            labels: BTreeMap::new(),
            lines: BTreeMap::new(),
            current_error_pc: None,
        })
    }

    fn fresh_pc(&mut self) -> Pc {
        let pc = self.next_pc;
        self.next_pc += 1;
        pc
    }

    fn lower(mut self) -> Result<Cfg, BuildError> {
        let mut globals = BTreeMap::new();
        for (i, g) in self.program.globals.iter().enumerate() {
            if globals.insert(g.clone(), i).is_some() {
                return Err(BuildError(format!("global `{g}` declared twice")));
            }
        }
        let main_has_params = self.program.proc("main").map(|p| !p.params.is_empty());
        if main_has_params == Some(true) {
            return Err(BuildError("`main` must not take parameters".into()));
        }

        let mut procs = Vec::new();
        for (id, p) in self.program.procs.iter().enumerate() {
            let mut locals = BTreeMap::new();
            for (i, l) in p.params.iter().chain(&p.locals).enumerate() {
                if globals.contains_key(l) {
                    return Err(BuildError(format!(
                        "`{l}` in `{}` shadows a global (globals and locals must be disjoint)",
                        p.name
                    )));
                }
                if locals.insert(l.clone(), i).is_some() {
                    return Err(BuildError(format!("local `{l}` declared twice in `{}`", p.name)));
                }
            }
            let mut pl = ProcLowering {
                globals: &globals,
                locals,
                edges: BTreeMap::new(),
                exits: Vec::new(),
                gotos: Vec::new(),
                returns: p.returns,
                proc_name: p.name.clone(),
            };
            let start_pc = self.next_pc;
            // Per-procedure error sink for failed asserts, allocated inside
            // this procedure's pc range so `proc_of` works on it.
            self.current_error_pc = if contains_assert(&p.body) {
                let pc = self.fresh_pc();
                if self.labels.insert(format!("__assert_fail_{}", p.name), pc).is_some() {
                    return Err(BuildError(format!(
                        "label `__assert_fail_{}` declared twice",
                        p.name
                    )));
                }
                Some(pc)
            } else {
                None
            };
            // Implicit exit pc ("after the last line"). Lower the body with
            // that as the fall-through continuation.
            let exit_pc = self.fresh_pc();
            let entry = self.lower_block(&mut pl, &p.body, exit_pc)?;
            if p.returns > 0 {
                // The implicit exit is only legal for k = 0 procedures; if
                // it is reachable the program is malformed — but
                // reachability is semantic, so accept it structurally and
                // let it carry no return values only when k = 0.
                pl.exits.push(ExitPoint {
                    pc: exit_pc,
                    ret_exprs: vec![LExpr::Const(false); p.returns],
                });
            } else {
                pl.exits.push(ExitPoint { pc: exit_pc, ret_exprs: Vec::new() });
            }
            // Resolve gotos.
            for (src, label) in std::mem::take(&mut pl.gotos) {
                let Some(&target) = self.labels.get(&label) else {
                    return Err(BuildError(format!(
                        "goto to unknown label `{label}` in `{}`",
                        p.name
                    )));
                };
                pl.edges.entry(src).or_default().push(Edge::Internal {
                    to: target,
                    guard: LExpr::Const(true),
                    assigns: Vec::new(),
                });
            }
            let end_pc = self.next_pc;
            let locals_vec: Vec<String> = p.params.iter().chain(&p.locals).cloned().collect();
            procs.push(ProcCfg {
                name: p.name.clone(),
                id,
                params: p.params.len(),
                returns: p.returns,
                locals: locals_vec,
                entry,
                pc_range: (start_pc, end_pc),
                edges: pl.edges,
                exits: pl.exits,
                error_pc: self.current_error_pc,
            });
        }

        // `main` must not be called.
        for p in &procs {
            for edges in p.edges.values() {
                for e in edges {
                    if let Edge::Call { callee, .. } = e {
                        if *callee == self.proc_ids["main"] {
                            return Err(BuildError("`main` must not be called".into()));
                        }
                    }
                }
            }
        }

        Ok(Cfg {
            globals: self.program.globals.clone(),
            main: self.proc_ids["main"],
            procs,
            pc_count: self.next_pc,
            labels: self.labels,
            lines: self.lines,
        })
    }

    /// Lowers a statement block; returns its entry pc. `follow` is where
    /// control continues after the block.
    fn lower_block(
        &mut self,
        pl: &mut ProcLowering<'_>,
        stmts: &[Stmt],
        follow: Pc,
    ) -> Result<Pc, BuildError> {
        if stmts.is_empty() {
            return Ok(follow);
        }
        // Allocate a pc per statement up front so labels and sequencing can
        // refer forward.
        let pcs: Vec<Pc> = stmts.iter().map(|_| self.fresh_pc()).collect();
        for (i, s) in stmts.iter().enumerate() {
            if let Some(line) = s.line {
                self.lines.insert(pcs[i], line);
            }
            if let Some(label) = &s.label {
                if self.labels.insert(label.clone(), pcs[i]).is_some() {
                    return Err(BuildError(format!("label `{label}` declared twice")));
                }
            }
        }
        for (i, s) in stmts.iter().enumerate() {
            let here = pcs[i];
            let next = if i + 1 < stmts.len() { pcs[i + 1] } else { follow };
            self.lower_stmt(pl, s, here, next)?;
        }
        Ok(pcs[0])
    }

    fn lower_stmt(
        &mut self,
        pl: &mut ProcLowering<'_>,
        stmt: &Stmt,
        here: Pc,
        next: Pc,
    ) -> Result<(), BuildError> {
        match &stmt.kind {
            StmtKind::Skip => {
                pl.push_internal(here, next, LExpr::Const(true), Vec::new());
                Ok(())
            }
            StmtKind::Assign { targets, exprs } => {
                if targets.len() != exprs.len() {
                    return Err(BuildError(format!(
                        "assignment arity mismatch in `{}`: {} targets, {} expressions",
                        pl.proc_name,
                        targets.len(),
                        exprs.len()
                    )));
                }
                let mut assigns = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for (t, e) in targets.iter().zip(exprs) {
                    let tv = pl.resolve(t)?;
                    if !seen.insert(tv) {
                        return Err(BuildError(format!(
                            "variable `{t}` assigned twice in one parallel assignment"
                        )));
                    }
                    assigns.push((tv, pl.lower_expr(e)?));
                }
                pl.push_internal(here, next, LExpr::Const(true), assigns);
                Ok(())
            }
            StmtKind::CallAssign { targets, callee, args } => {
                self.lower_call(pl, here, next, callee, args, targets)
            }
            StmtKind::Call { callee, args } => self.lower_call(pl, here, next, callee, args, &[]),
            StmtKind::Return(exprs) => {
                if exprs.len() != pl.returns {
                    return Err(BuildError(format!(
                        "`{}` returns {} values but a return statement has {}",
                        pl.proc_name,
                        pl.returns,
                        exprs.len()
                    )));
                }
                let ret_exprs =
                    exprs.iter().map(|e| pl.lower_expr(e)).collect::<Result<Vec<_>, _>>()?;
                pl.exits.push(ExitPoint { pc: here, ret_exprs });
                Ok(())
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                let c = pl.lower_expr(cond)?;
                let then_entry = self.lower_block(pl, then_branch, next)?;
                let else_entry = self.lower_block(pl, else_branch, next)?;
                pl.push_internal(here, then_entry, c.clone(), Vec::new());
                pl.push_internal(here, else_entry, LExpr::Not(Box::new(c)), Vec::new());
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let c = pl.lower_expr(cond)?;
                let body_entry = self.lower_block(pl, body, here)?;
                pl.push_internal(here, body_entry, c.clone(), Vec::new());
                pl.push_internal(here, next, LExpr::Not(Box::new(c)), Vec::new());
                Ok(())
            }
            StmtKind::Assert(e) => {
                let c = pl.lower_expr(e)?;
                let err = self.current_error_pc.expect("error pc allocated when asserts exist");
                pl.push_internal(here, next, c.clone(), Vec::new());
                pl.push_internal(here, err, LExpr::Not(Box::new(c)), Vec::new());
                Ok(())
            }
            StmtKind::Assume(e) => {
                let c = pl.lower_expr(e)?;
                pl.push_internal(here, next, c, Vec::new());
                Ok(())
            }
            StmtKind::Goto(label) => {
                pl.gotos.push((here, label.clone()));
                Ok(())
            }
            StmtKind::Dead(vars) => {
                // Havoc: the dead variables take arbitrary values. This is
                // the `iterative`-vs-`schoose` modelling point from the
                // Terminator rows of Figure 2; here the CFG gets the direct
                // havoc edge, and the two modelings are produced by the
                // workload generator instead.
                let mut assigns = Vec::new();
                for v in vars {
                    assigns.push((pl.resolve(v)?, LExpr::Nondet));
                }
                pl.push_internal(here, next, LExpr::Const(true), assigns);
                Ok(())
            }
        }
    }

    fn lower_call(
        &mut self,
        pl: &mut ProcLowering<'_>,
        here: Pc,
        next: Pc,
        callee: &str,
        args: &[Expr],
        targets: &[String],
    ) -> Result<(), BuildError> {
        let Some(&callee_id) = self.proc_ids.get(callee) else {
            return Err(BuildError(format!("call to unknown procedure `{callee}`")));
        };
        let cp = &self.program.procs[callee_id];
        if cp.params.len() != args.len() {
            return Err(BuildError(format!(
                "`{callee}` takes {} parameters, called with {}",
                cp.params.len(),
                args.len()
            )));
        }
        if cp.returns != targets.len() {
            return Err(BuildError(format!(
                "`{callee}` returns {} values, {} targets given",
                cp.returns,
                targets.len()
            )));
        }
        let largs = args.iter().map(|e| pl.lower_expr(e)).collect::<Result<Vec<_>, _>>()?;
        let mut rets = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for t in targets {
            let tv = pl.resolve(t)?;
            if !seen.insert(tv) {
                return Err(BuildError(format!("`{t}` receives two return values")));
            }
            rets.push(tv);
        }
        pl.edges.entry(here).or_default().push(Edge::Call {
            callee: callee_id,
            args: largs,
            rets,
            ret_to: next,
        });
        Ok(())
    }
}

impl ProcLowering<'_> {
    fn resolve(&self, name: &str) -> Result<VarRef, BuildError> {
        if let Some(&i) = self.locals.get(name) {
            return Ok(VarRef::Local(i));
        }
        if let Some(&i) = self.globals.get(name) {
            return Ok(VarRef::Global(i));
        }
        Err(BuildError(format!("unknown variable `{name}` in `{}`", self.proc_name)))
    }

    fn lower_expr(&self, e: &Expr) -> Result<LExpr, BuildError> {
        Ok(match e {
            Expr::Const(b) => LExpr::Const(*b),
            Expr::Nondet => LExpr::Nondet,
            Expr::Var(v) => LExpr::Var(self.resolve(v)?),
            Expr::Not(a) => LExpr::Not(Box::new(self.lower_expr(a)?)),
            Expr::And(a, b) => {
                LExpr::And(Box::new(self.lower_expr(a)?), Box::new(self.lower_expr(b)?))
            }
            Expr::Or(a, b) => {
                LExpr::Or(Box::new(self.lower_expr(a)?), Box::new(self.lower_expr(b)?))
            }
            Expr::Eq(a, b) => {
                LExpr::Eq(Box::new(self.lower_expr(a)?), Box::new(self.lower_expr(b)?))
            }
            Expr::Ne(a, b) => {
                LExpr::Ne(Box::new(self.lower_expr(a)?), Box::new(self.lower_expr(b)?))
            }
            Expr::Schoose(a, b) => {
                LExpr::Schoose(Box::new(self.lower_expr(a)?), Box::new(self.lower_expr(b)?))
            }
        })
    }

    fn push_internal(&mut self, from: Pc, to: Pc, guard: LExpr, assigns: Vec<(VarRef, LExpr)>) {
        self.edges.entry(from).or_default().push(Edge::Internal { to, guard, assigns });
    }
}

fn contains_assert(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match &s.kind {
        StmtKind::Assert(_) => true,
        StmtKind::If { then_branch, else_branch, .. } => {
            contains_assert(then_branch) || contains_assert(else_branch)
        }
        StmtKind::While { body, .. } => contains_assert(body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn build(src: &str) -> Cfg {
        Cfg::build(&parse_program(src).unwrap()).unwrap()
    }

    fn build_err(src: &str) -> BuildError {
        Cfg::build(&parse_program(src).unwrap()).unwrap_err()
    }

    #[test]
    fn straight_line_lowering() {
        let cfg = build(
            r#"
            decl g;
            main() begin
              decl x;
              x := T;
              g := x;
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        assert_eq!(main.params, 0);
        assert_eq!(main.locals, vec!["x"]);
        // entry -> assign -> assign -> exit
        let mut pc = main.entry;
        for _ in 0..2 {
            let edges = &main.edges[&pc];
            assert_eq!(edges.len(), 1);
            let Edge::Internal { to, assigns, .. } = &edges[0] else { panic!() };
            assert_eq!(assigns.len(), 1);
            pc = *to;
        }
        assert!(main.is_exit(pc));
    }

    #[test]
    fn if_creates_two_guarded_edges() {
        let cfg = build(
            r#"
            main() begin
              decl x;
              if (x) then
                skip;
              else
                x := F;
              fi;
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        let edges = &main.edges[&main.entry];
        assert_eq!(edges.len(), 2);
        let guards: Vec<_> = edges
            .iter()
            .map(|e| match e {
                Edge::Internal { guard, .. } => guard.clone(),
                _ => panic!(),
            })
            .collect();
        assert!(guards.contains(&LExpr::Var(VarRef::Local(0))));
        assert!(guards.contains(&LExpr::Not(Box::new(LExpr::Var(VarRef::Local(0))))));
    }

    #[test]
    fn while_loops_back() {
        let cfg = build(
            r#"
            main() begin
              decl x;
              while (x) do
                x := *;
              od;
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        let head = main.entry;
        let edges = &main.edges[&head];
        let body_entry = edges
            .iter()
            .find_map(|e| match e {
                Edge::Internal { to, guard, .. } if *guard == LExpr::Var(VarRef::Local(0)) => {
                    Some(*to)
                }
                _ => None,
            })
            .expect("loop-enter edge");
        // Body assign loops back to head.
        let body_edges = &main.edges[&body_entry];
        let Edge::Internal { to, .. } = &body_edges[0] else { panic!() };
        assert_eq!(*to, head);
    }

    #[test]
    fn call_edge_and_returns() {
        let cfg = build(
            r#"
            decl g;
            main() begin
              decl x, y;
              x, y := f(g, T);
            end
            f(a, b) returns 2 begin
              return a & b, a | b;
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        let edges = &main.edges[&main.entry];
        let Edge::Call { callee, args, rets, .. } = &edges[0] else { panic!() };
        let f = &cfg.procs[*callee];
        assert_eq!(f.name, "f");
        assert_eq!(args.len(), 2);
        assert_eq!(rets, &vec![VarRef::Local(0), VarRef::Local(1)]);
        // f has an explicit return exit plus the implicit one.
        assert_eq!(f.exits.len(), 2);
        assert_eq!(f.exits[0].ret_exprs.len(), 2);
    }

    #[test]
    fn assert_targets_error_pc() {
        let cfg = build(
            r#"
            decl g;
            main() begin
              assert (g);
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        let err = main.error_pc.expect("error pc");
        assert!(main.contains(err), "error sink inside the procedure's pc range");
        let edges = &main.edges[&main.entry];
        assert!(edges.iter().any(|e| matches!(e, Edge::Internal { to, .. } if *to == err)));
        assert_eq!(cfg.label("__assert_fail_main"), Some(err));
        assert_eq!(cfg.assert_sinks(), vec![err]);
    }

    #[test]
    fn goto_resolution() {
        let cfg = build(
            r#"
            main() begin
              decl x;
              goto L;
              x := F;
              L: x := T;
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        let target = cfg.label("L").unwrap();
        let edges = &main.edges[&main.entry];
        let Edge::Internal { to, .. } = &edges[0] else { panic!() };
        assert_eq!(*to, target);
    }

    #[test]
    fn lines_flow_from_parser_and_at_line_into_the_cfg() {
        // Parsed statements carry positions into the pc → line map…
        let cfg = build(
            r#"decl g;
main() begin
  g := T;
  HIT: skip;
end"#,
        );
        let hit = cfg.label("HIT").unwrap();
        assert_eq!(cfg.line_of(hit), Some(4));
        assert_eq!(cfg.line_of(cfg.procs[cfg.main].entry), Some(3));
        // …and programmatically built ASTs can pin lines via `at_line`.
        use crate::ast::{Proc, Program};
        let program = Program {
            globals: vec![],
            procs: vec![Proc {
                name: "main".into(),
                params: vec![],
                returns: 0,
                locals: vec![],
                body: vec![crate::ast::Stmt::labeled("L", StmtKind::Skip).at_line(42)],
            }],
        };
        let cfg = Cfg::build(&program).unwrap();
        assert_eq!(cfg.line_of(cfg.label("L").unwrap()), Some(42));
    }

    #[test]
    fn dead_is_havoc() {
        let cfg = build(
            r#"
            main() begin
              decl x, y;
              dead x, y;
            end
            "#,
        );
        let main = &cfg.procs[cfg.main];
        let Edge::Internal { assigns, .. } = &main.edges[&main.entry][0] else { panic!() };
        assert_eq!(
            assigns,
            &vec![(VarRef::Local(0), LExpr::Nondet), (VarRef::Local(1), LExpr::Nondet)]
        );
    }

    #[test]
    fn errors_detected() {
        assert!(build_err("f() begin skip; end").0.contains("main"));
        assert!(build_err("main() begin call f(T); end f(a, b) begin skip; end")
            .0
            .contains("parameters"));
        assert!(build_err("main() begin decl x; x := g; end").0.contains("unknown variable"));
        assert!(build_err("decl g; main() begin decl g; skip; end").0.contains("shadows"));
        assert!(build_err("main() begin return T; end").0.contains("returns 0"));
        assert!(build_err("main() begin goto X; end").0.contains("unknown label"));
        assert!(build_err("main() begin call main(); end").0.contains("must not be called"));
        // The parser now rejects duplicate labels up front; the builder
        // keeps its own check for programmatically built ASTs.
        use crate::ast::Proc;
        let program = Program {
            globals: vec![],
            procs: vec![Proc {
                name: "main".into(),
                params: vec![],
                returns: 0,
                locals: vec![],
                body: vec![
                    crate::ast::Stmt::labeled("L", StmtKind::Skip),
                    crate::ast::Stmt::labeled("L", StmtKind::Skip),
                ],
            }],
        };
        assert!(Cfg::build(&program).unwrap_err().0.contains("twice"));
        assert!(build_err("main() begin decl x; x, x := T, F; end").0.contains("twice"));
    }

    #[test]
    fn value_set_semantics() {
        // schoose[pos, neg]
        let read_false = |_: VarRef| false;
        let sc = LExpr::Schoose(Box::new(LExpr::Const(true)), Box::new(LExpr::Const(false)));
        assert_eq!(sc.value_set(&read_false), (true, false));
        let sc = LExpr::Schoose(Box::new(LExpr::Const(false)), Box::new(LExpr::Const(true)));
        assert_eq!(sc.value_set(&read_false), (false, true));
        let sc = LExpr::Schoose(Box::new(LExpr::Const(false)), Box::new(LExpr::Const(false)));
        assert_eq!(sc.value_set(&read_false), (true, true));
        // nondet propagates
        let e = LExpr::And(Box::new(LExpr::Nondet), Box::new(LExpr::Const(true)));
        assert_eq!(e.value_set(&read_false), (true, true));
        let e = LExpr::Eq(Box::new(LExpr::Nondet), Box::new(LExpr::Nondet));
        assert_eq!(e.value_set(&read_false), (true, true));
    }

    #[test]
    fn pc_ranges_are_disjoint_and_dense() {
        let cfg = build(
            r#"
            main() begin
              call f();
            end
            f() begin
              skip;
            end
            "#,
        );
        let mut covered = vec![false; cfg.pc_count as usize];
        for p in &cfg.procs {
            for pc in p.pc_range.0..p.pc_range.1 {
                assert!(!covered[pc as usize], "pc {pc} covered twice");
                covered[pc as usize] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "all pcs covered");
    }
}
