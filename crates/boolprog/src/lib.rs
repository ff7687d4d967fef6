//! Recursive Boolean programs: the input language of the Getafix
//! reproduction (§2 and §5 of the paper).
//!
//! The crate provides:
//!
//! * the AST ([`Program`], [`Proc`], [`Stmt`], [`Expr`]) for the paper's
//!   grammar plus the benchmark-suite extensions (`assert`, `assume`,
//!   `goto`/labels, `dead`, `schoose`);
//! * a parser ([`parse_program`], [`parse_concurrent`]) and a
//!   pretty-printer that round-trip;
//! * CFG lowering with full semantic checking ([`Cfg::build`]);
//! * an explicit-state summary-based reachability oracle
//!   ([`explicit_reachable`]) used for differential testing of every
//!   symbolic engine in the workspace;
//! * pre-solve static analysis ([`analysis`]): call-graph dead-procedure
//!   detection, constant propagation, interprocedural faint-variable
//!   liveness, dataflow lints, and a verdict-preserving program slicer
//!   ([`analysis::slice`]) that shrinks the BDD encoding.
//!
//! # Example
//!
//! ```
//! use getafix_boolprog::{parse_program, Cfg, explicit_reachable_label};
//!
//! let program = parse_program(r#"
//!     decl g;
//!     main() begin
//!       decl x;
//!       x := *;
//!       g := check(x);
//!       if (g) then HIT: skip; fi;
//!     end
//!     check(a) returns 1 begin
//!       return !a;
//!     end
//! "#)?;
//! let cfg = Cfg::build(&program)?;
//! let result = explicit_reachable_label(&cfg, "HIT", 100_000)?.expect("label exists");
//! assert!(result.reachable);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
mod ast;
mod bits;
mod cfg;
mod interp;
mod parse;
mod replay;

pub use analysis::{AnalysisOptions, Slice, SliceStats};
pub use ast::{ConcProgram, Expr, Proc, Program, ProgramMetadata, Stmt, StmtKind};
pub use bits::{admits, enumerate_choices, frame_mask, next_states, read_var, write_var, Bits};
pub use cfg::{BuildError, Cfg, Edge, ExitPoint, LExpr, Pc, ProcCfg, ProcId, VarRef};
pub use interp::{explicit_reachable, explicit_reachable_label, ExplicitError, ExplicitResult};
pub use parse::{parse_concurrent, parse_program, ParseError};
pub use replay::{replay, replay_step, Frame, ReplayError, ReplayStep};
