//! Explicit-state summary-based reachability: the ground-truth oracle.
//!
//! This is the classical Sharir–Pnueli / Reps–Horwitz–Sagiv functional
//! summary algorithm run over *explicit* states (bit vectors in `u64`s)
//! instead of BDDs. It is sound and complete for recursive Boolean programs
//! — the same problem the symbolic engines solve — and being a separate,
//! far simpler code path it serves as the differential-testing oracle for
//! all of them.
//!
//! Intended for small programs (the regression suite); the `max_states`
//! limit turns state explosion into an error instead of a hang.

use crate::bits::{enumerate_choices, next_states, read_var, write_var, Bits};
use crate::cfg::{Cfg, Edge, Pc, ProcId, VarRef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Errors from the explicit engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplicitError {
    /// More than 64 globals or locals in one frame.
    TooManyVariables(String),
    /// The `max_states` limit was hit.
    StateLimit(usize),
}

impl fmt::Display for ExplicitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplicitError::TooManyVariables(msg) => write!(f, "{msg}"),
            ExplicitError::StateLimit(n) => write!(f, "explicit state limit {n} exceeded"),
        }
    }
}

impl std::error::Error for ExplicitError {}

/// Result of an explicit reachability run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitResult {
    /// Was any target pc reached?
    pub reachable: bool,
    /// Number of distinct path edges explored.
    pub path_edges: usize,
}

/// A state inside a procedure: (pc, globals, locals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct State {
    pc: Pc,
    globals: Bits,
    locals: Bits,
}

/// Entry key for summaries: the state at procedure entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct EntryKey {
    proc: ProcId,
    globals: Bits,
    locals: Bits,
}

/// A pending return target: who to resume when a summary appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CallerCtx {
    caller: ProcId,
    caller_entry_globals: Bits,
    caller_entry_locals: Bits,
    /// Caller locals at the call site (for the frame condition).
    locals_at_call: Bits,
    ret_to: Pc,
}

/// Explicit reachability of any pc in `targets`, starting from `main` with
/// all variables false.
///
/// # Errors
///
/// Returns [`ExplicitError::TooManyVariables`] when a frame exceeds 64 bits
/// and [`ExplicitError::StateLimit`] when exploration exceeds `max_states`
/// path edges.
pub fn explicit_reachable(
    cfg: &Cfg,
    targets: &[Pc],
    max_states: usize,
) -> Result<ExplicitResult, ExplicitError> {
    cfg.check_frame_width().map_err(ExplicitError::TooManyVariables)?;
    let target_set: BTreeSet<Pc> = targets.iter().copied().collect();

    // Path edges per procedure: entry -> set of states.
    let mut path: BTreeMap<EntryKey, BTreeSet<State>> = BTreeMap::new();
    // Summaries: entry -> exit states (at exit pcs, with their ret exprs).
    let mut summaries: BTreeMap<EntryKey, BTreeSet<State>> = BTreeMap::new();
    // Callers waiting on an entry.
    let mut callers: BTreeMap<EntryKey, Vec<(CallerCtx, Vec<VarRef>)>> = BTreeMap::new();

    let mut work: VecDeque<(EntryKey, State)> = VecDeque::new();
    let mut edges_seen = 0usize;

    let main = &cfg.procs[cfg.main];
    let seed_entry = EntryKey { proc: cfg.main, globals: 0, locals: 0 };
    let seed_state = State { pc: main.entry, globals: 0, locals: 0 };
    path.entry(seed_entry).or_default().insert(seed_state);
    work.push_back((seed_entry, seed_state));

    let mut reachable = false;

    macro_rules! push_edge {
        ($entry:expr, $state:expr) => {{
            let entry = $entry;
            let state = $state;
            if path.entry(entry).or_default().insert(state) {
                edges_seen += 1;
                if edges_seen > max_states {
                    return Err(ExplicitError::StateLimit(max_states));
                }
                if target_set.contains(&state.pc) {
                    reachable = true;
                }
                work.push_back((entry, state));
            }
        }};
    }

    // Seed target check (entry state itself).
    if target_set.contains(&seed_state.pc) {
        reachable = true;
    }

    while let Some((entry, state)) = work.pop_front() {
        if reachable {
            break;
        }
        let proc = &cfg.procs[entry.proc];

        // Exit handling: record a summary and resume waiting callers.
        if proc.is_exit(state.pc) {
            let is_new = summaries.entry(entry).or_default().insert(state);
            if is_new {
                let waiting = callers.get(&entry).cloned().unwrap_or_default();
                for (ctx, rets) in waiting {
                    for resumed in apply_return(cfg, entry.proc, state, &ctx, &rets) {
                        let centry = EntryKey {
                            proc: ctx.caller,
                            globals: ctx.caller_entry_globals,
                            locals: ctx.caller_entry_locals,
                        };
                        push_edge!(centry, resumed);
                    }
                }
            }
        }

        let Some(out_edges) = proc.edges.get(&state.pc) else { continue };
        for edge in out_edges {
            match edge {
                Edge::Internal { to, guard, assigns } => {
                    let read = |v: VarRef| read_var(state.globals, state.locals, v);
                    let (can_true, _) = guard.value_set(&read);
                    if !can_true {
                        continue;
                    }
                    for (g2, l2) in next_states(state.globals, state.locals, assigns) {
                        push_edge!(entry, State { pc: *to, globals: g2, locals: l2 });
                    }
                }
                Edge::Call { callee, args, rets, ret_to } => {
                    let read = |v: VarRef| read_var(state.globals, state.locals, v);
                    // Each argument independently ranges over its value set.
                    let arg_sets: Vec<(bool, bool)> =
                        args.iter().map(|a| a.value_set(&read)).collect();
                    for arg_vals in enumerate_choices(&arg_sets) {
                        let mut callee_locals: Bits = 0;
                        for (i, &v) in arg_vals.iter().enumerate() {
                            if v {
                                callee_locals |= 1 << i;
                            }
                        }
                        let centry = EntryKey {
                            proc: *callee,
                            globals: state.globals,
                            locals: callee_locals,
                        };
                        let ctx = CallerCtx {
                            caller: entry.proc,
                            caller_entry_globals: entry.globals,
                            caller_entry_locals: entry.locals,
                            locals_at_call: state.locals,
                            ret_to: *ret_to,
                        };
                        callers.entry(centry).or_default().push((ctx, rets.clone()));
                        // Seed the callee.
                        let callee_cfg = &cfg.procs[*callee];
                        push_edge!(
                            centry,
                            State {
                                pc: callee_cfg.entry,
                                globals: state.globals,
                                locals: callee_locals
                            }
                        );
                        // Apply any summaries already computed.
                        if let Some(sums) = summaries.get(&centry) {
                            let sums: Vec<State> = sums.iter().copied().collect();
                            for exit_state in sums {
                                for resumed in apply_return(cfg, *callee, exit_state, &ctx, rets) {
                                    push_edge!(entry, resumed);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(ExplicitResult { reachable, path_edges: edges_seen })
}

/// Reachability of a named label; `None` when the label does not exist.
///
/// # Errors
///
/// See [`explicit_reachable`].
pub fn explicit_reachable_label(
    cfg: &Cfg,
    label: &str,
    max_states: usize,
) -> Result<Option<ExplicitResult>, ExplicitError> {
    match cfg.label(label) {
        Some(pc) => explicit_reachable(cfg, &[pc], max_states).map(Some),
        None => Ok(None),
    }
}

/// States the caller resumes in when `callee` exits in `exit_state`.
fn apply_return(
    cfg: &Cfg,
    callee: ProcId,
    exit_state: State,
    ctx: &CallerCtx,
    rets: &[VarRef],
) -> Vec<State> {
    let proc = &cfg.procs[callee];
    let exit = proc.exits.iter().find(|e| e.pc == exit_state.pc).expect("exit state at an exit pc");
    let read = |v: VarRef| read_var(exit_state.globals, exit_state.locals, v);
    let sets: Vec<(bool, bool)> = exit.ret_exprs.iter().map(|e| e.value_set(&read)).collect();
    enumerate_choices(&sets)
        .into_iter()
        .map(|vals| {
            let mut g2 = exit_state.globals;
            let mut l2 = ctx.locals_at_call;
            for (target, v) in rets.iter().zip(vals) {
                write_var(&mut g2, &mut l2, *target, v);
            }
            State { pc: ctx.ret_to, globals: g2, locals: l2 }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn reach(src: &str, label: &str) -> bool {
        let cfg = Cfg::build(&parse_program(src).unwrap()).unwrap();
        explicit_reachable_label(&cfg, label, 1_000_000).unwrap().expect("label exists").reachable
    }

    #[test]
    fn straight_line_reachable() {
        assert!(reach(
            r#"
            decl g;
            main() begin
              g := T;
              if (g) then HIT: skip; fi;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn contradictory_guard_unreachable() {
        assert!(!reach(
            r#"
            decl g;
            main() begin
              g := F;
              if (g) then HIT: skip; fi;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn nondet_reaches_both_branches() {
        let src = r#"
            main() begin
              decl x;
              x := *;
              if (x) then A: skip; else B: skip; fi;
            end
        "#;
        assert!(reach(src, "A"));
        assert!(reach(src, "B"));
    }

    #[test]
    fn call_and_return_values() {
        assert!(reach(
            r#"
            decl g;
            main() begin
              decl x;
              x := id(T);
              if (x) then HIT: skip; fi;
            end
            id(a) returns 1 begin
              return a;
            end
            "#,
            "HIT"
        ));
        assert!(!reach(
            r#"
            decl g;
            main() begin
              decl x;
              x := id(F);
              if (x) then HIT: skip; fi;
            end
            id(a) returns 1 begin
              return a;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn recursion_terminates_and_answers() {
        // Recursive procedure flipping a bit: even depths reach, the
        // summary algorithm must terminate despite unbounded recursion.
        assert!(reach(
            r#"
            decl g;
            main() begin
              call rec();
              if (g) then HIT: skip; fi;
            end
            rec() begin
              if (*) then
                g := !g;
                call rec();
              fi;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn globals_propagate_through_calls() {
        assert!(reach(
            r#"
            decl g;
            main() begin
              call set();
              if (g) then HIT: skip; fi;
            end
            set() begin
              g := T;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn locals_restored_after_call() {
        // The callee cannot clobber caller locals.
        assert!(!reach(
            r#"
            main() begin
              decl x;
              x := F;
              call other();
              if (x) then HIT: skip; fi;
            end
            other() begin
              decl x;
              x := T;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn assume_blocks() {
        assert!(!reach(
            r#"
            main() begin
              decl x;
              x := F;
              assume (x);
              HIT: skip;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn assert_failure_reaches_sink() {
        let src = r#"
            decl g;
            main() begin
              g := *;
              assert (g);
            end
        "#;
        let cfg = Cfg::build(&parse_program(src).unwrap()).unwrap();
        let sinks = cfg.assert_sinks();
        let r = explicit_reachable(&cfg, &sinks, 10_000).unwrap();
        assert!(r.reachable);
    }

    #[test]
    fn schoose_constrained() {
        // schoose [F, T] is always F.
        assert!(!reach(
            r#"
            main() begin
              decl x;
              x := schoose [F, T];
              if (x) then HIT: skip; fi;
            end
            "#,
            "HIT"
        ));
        // schoose [F, F] is free.
        assert!(reach(
            r#"
            main() begin
              decl x;
              x := schoose [F, F];
              if (x) then HIT: skip; fi;
            end
            "#,
            "HIT"
        ));
    }

    #[test]
    fn state_limit_enforced() {
        let src = r#"
            main() begin
              decl a, b, c, d;
              while (*) do
                a, b, c, d := *, *, *, *;
              od;
            end
        "#;
        let cfg = Cfg::build(&parse_program(src).unwrap()).unwrap();
        let err = explicit_reachable(&cfg, &[9999], 3).unwrap_err();
        assert!(matches!(err, ExplicitError::StateLimit(3)));
    }

    #[test]
    fn unbounded_recursion_with_local_counter() {
        // Each frame gets fresh locals; the summary algorithm handles the
        // unbounded stack without diverging.
        assert!(reach(
            r#"
            decl g;
            main() begin
              call f(F);
              if (g) then HIT: skip; fi;
            end
            f(depth) begin
              if (!depth) then
                call f(T);
              else
                g := T;
              fi;
            end
            "#,
            "HIT"
        ));
    }
}
