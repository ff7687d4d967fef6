//! Concrete trace replay: the validation oracle for extracted witnesses.
//!
//! A witness extractor (see the `getafix-witness` crate) turns solved
//! summary BDDs into a claimed error path. This module *re-executes* that
//! path in the concrete small-step semantics of §2 — stack and all — and
//! accepts it only if every step is a legal transition and the final pc is
//! a target. Replay is deliberately independent of every symbolic engine:
//! it shares no BDD code, so a trace that replays is evidence against bugs
//! in the solver, the encoding *and* the extractor at once.
//!
//! Nondeterminism (`*`, `schoose`) means a program state can have several
//! successors; a [`ReplayStep`] therefore records the chosen *post-state*
//! (pc plus the resulting global/local valuations), and replay checks the
//! choice is within the expression's value set rather than recomputing it.

use crate::bits::{admits, frame_mask, read_var, write_var, Bits};
use crate::cfg::{Cfg, Edge, LExpr, Pc, ProcId, VarRef};
use std::fmt;

/// One step of a concrete interprocedural trace, recording the post-state.
///
/// `globals` is the shared valuation after the step; `locals` is the
/// valuation of the *then-current* frame after the step (the callee frame
/// for a `Call`, the caller frame for a `Return`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStep {
    /// An intra-procedural edge to `to`.
    Internal {
        /// Destination pc.
        to: Pc,
        /// Globals after the parallel assignment.
        globals: Bits,
        /// Current-frame locals after the parallel assignment.
        locals: Bits,
    },
    /// A call: control enters the callee at `entry`.
    Call {
        /// The callee's entry pc.
        entry: Pc,
        /// Globals at entry (calls do not change globals).
        globals: Bits,
        /// The callee frame's locals (parameters from the arguments, the
        /// rest `false`).
        locals: Bits,
    },
    /// A return from the current frame's exit point back to `ret_to`.
    Return {
        /// The caller pc control resumes at.
        ret_to: Pc,
        /// Globals after return-value assignment.
        globals: Bits,
        /// Caller locals after return-value assignment.
        locals: Bits,
    },
}

/// Why a replay was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending step (`steps.len()` for end-of-trace
    /// failures such as "final pc is not a target").
    pub step: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay step {}: {}", self.step, self.message)
    }
}

impl std::error::Error for ReplayError {}

/// One frame of a concrete call stack.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Frame {
    /// The procedure the frame executes.
    pub proc: ProcId,
    /// The frame's current pc.
    pub pc: Pc,
    /// The frame's locals.
    pub locals: Bits,
    /// Return-value targets in the caller and the pc it resumes at,
    /// captured at the call; `None` for a program's or a thread's initial
    /// frame.
    pub on_return: Option<(Vec<VarRef>, Pc)>,
}

/// Replays `steps` from the initial configuration (main entry, all
/// variables `false`) and checks that the final pc is in `targets`.
///
/// # Errors
///
/// Returns a [`ReplayError`] naming the first step [`replay_step`] rejects,
/// or an end-of-trace failure (final pc not a target). Programs whose
/// frames do not fit 64 bits ([`Cfg::check_frame_width`]) are rejected up
/// front.
pub fn replay(cfg: &Cfg, steps: &[ReplayStep], targets: &[Pc]) -> Result<(), ReplayError> {
    cfg.check_frame_width().map_err(|message| ReplayError { step: 0, message })?;
    let mut globals: Bits = 0;
    let entry = cfg.procs[cfg.main].entry;
    let mut stack = vec![Frame { proc: cfg.main, pc: entry, locals: 0, on_return: None }];
    for (i, step) in steps.iter().enumerate() {
        replay_step(cfg, &mut globals, &mut stack, step)
            .map_err(|message| ReplayError { step: i, message })?;
    }
    let final_pc = stack.last().expect("a return never pops the initial frame").pc;
    if targets.contains(&final_pc) {
        Ok(())
    } else {
        Err(ReplayError {
            step: steps.len(),
            message: format!("final pc {final_pc} is not a target"),
        })
    }
}

/// Checks that `step` is a legal concrete transition of the top frame of
/// `stack` under `globals`, and applies it: a matching CFG edge, a guard
/// that admits `true`, chosen values inside their expressions' value sets,
/// unassigned frame bits unchanged and no bit outside the frame set. The
/// frame must fit 64 bits ([`Cfg::check_frame_width`]).
///
/// This is the one step checker of the workspace: sequential [`replay`]
/// and the concurrent guided replayer both call it, on the one stack that
/// moves.
///
/// # Errors
///
/// A message naming the disagreement; `globals` and `stack` are unchanged
/// then.
pub fn replay_step(
    cfg: &Cfg,
    globals: &mut Bits,
    stack: &mut Vec<Frame>,
    step: &ReplayStep,
) -> Result<(), String> {
    let Some(top) = stack.last() else { return Err("the stack is empty".into()) };
    let proc = &cfg.procs[top.proc];
    let edges = proc.edges.get(&top.pc).map(Vec::as_slice).unwrap_or(&[]);
    let n_globals = cfg.globals.len();
    match *step {
        ReplayStep::Internal { to, globals: g2, locals: l2 } => {
            let legal = edges.iter().any(|e| {
                let Edge::Internal { to: eto, guard, assigns } = e else { return false };
                *eto == to
                    && admits(guard, *globals, top.locals, true)
                    && check_assign(
                        assigns.iter().map(|(v, e)| (v, e)),
                        (*globals, top.locals),
                        top.locals,
                        (g2, l2),
                        (n_globals, proc.n_locals()),
                    )
                    .is_ok()
            });
            if !legal {
                return Err(format!(
                    "no internal edge {} -> {to} of `{}` admits globals={g2:#b} locals={l2:#b}",
                    top.pc, proc.name
                ));
            }
            *globals = g2;
            let top = stack.last_mut().expect("checked non-empty");
            top.pc = to;
            top.locals = l2;
        }
        ReplayStep::Call { entry, globals: g2, locals: l2 } => {
            let call = edges.iter().find_map(|e| {
                let Edge::Call { callee, args, rets, ret_to } = e else { return None };
                // Calls leave the globals alone; non-parameter callee
                // locals start false.
                let legal = cfg.procs[*callee].entry == entry
                    && g2 == *globals
                    && l2 & !frame_mask(args.len()) == 0
                    && args
                        .iter()
                        .enumerate()
                        .all(|(j, arg)| admits(arg, *globals, top.locals, (l2 >> j) & 1 == 1));
                legal.then(|| Frame {
                    proc: *callee,
                    pc: entry,
                    locals: l2,
                    on_return: Some((rets.clone(), *ret_to)),
                })
            });
            let Some(frame) = call else {
                return Err(format!(
                    "no call edge at pc {} of `{}` enters {entry} with locals={l2:#b}",
                    top.pc, proc.name
                ));
            };
            stack.push(frame);
        }
        ReplayStep::Return { ret_to, globals: g2, locals: l2 } => {
            let Some((rets, saved_ret_to)) = &top.on_return else {
                return Err("return from an initial frame".into());
            };
            if *saved_ret_to != ret_to {
                return Err(format!(
                    "return resumes at {ret_to}, the call expected {saved_ret_to}"
                ));
            }
            let Some(exit) = proc.exits.iter().find(|e| e.pc == top.pc) else {
                return Err(format!("pc {} is not an exit of `{}`", top.pc, proc.name));
            };
            let [.., caller, _] = stack.as_slice() else {
                return Err("a return frame records a caller, but no frame lies below it".into());
            };
            check_assign(
                rets.iter().zip(&exit.ret_exprs),
                (*globals, top.locals),
                caller.locals,
                (g2, l2),
                (n_globals, cfg.procs[caller.proc].n_locals()),
            )
            .map_err(|m| format!("return to {ret_to}: {m}"))?;
            stack.pop();
            *globals = g2;
            let top = stack.last_mut().expect("the caller frame");
            top.pc = ret_to;
            top.locals = l2;
        }
    }
    Ok(())
}

/// Checks the claimed post-state `post` (globals, locals) of a parallel
/// assignment evaluated in `pre`: every assigned variable holds a value
/// its expression admits, every unassigned bit equals the pre-state's
/// globals or `frame_locals` (the locals of the frame the assignment
/// writes), and no bit outside the `widths` (globals, locals) is set.
fn check_assign<'a>(
    assigns: impl Iterator<Item = (&'a VarRef, &'a LExpr)>,
    pre: (Bits, Bits),
    frame_locals: Bits,
    post: (Bits, Bits),
    widths: (usize, usize),
) -> Result<(), String> {
    let (mut assigned_g, mut assigned_l): (Bits, Bits) = (0, 0);
    for (&v, expr) in assigns {
        let new = read_var(post.0, post.1, v);
        if !admits(expr, pre.0, pre.1, new) {
            return Err(format!("value {new} for {v:?} not admitted by its expression"));
        }
        write_var(&mut assigned_g, &mut assigned_l, v, true);
    }
    let (gmask, lmask) = (frame_mask(widths.0), frame_mask(widths.1));
    if (post.1 ^ frame_locals) & lmask & !assigned_l != 0 {
        return Err("unassigned locals clobbered".into());
    }
    if (post.0 ^ pre.0) & gmask & !assigned_g != 0 {
        return Err("unassigned globals changed".into());
    }
    if post.0 & !gmask != 0 || post.1 & !lmask != 0 {
        return Err("out-of-frame bits set".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn build(src: &str) -> Cfg {
        Cfg::build(&parse_program(src).unwrap()).unwrap()
    }

    /// A hand-written trace through a call with a return value.
    #[test]
    fn call_return_trace_replays() {
        let cfg = build(
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
        );
        let target = cfg.label("HIT").unwrap();
        let main = &cfg.procs[cfg.main];
        let id = cfg.proc_by_name("id").unwrap();
        let Edge::Call { ret_to, .. } = &main.edges[&main.entry][0] else { panic!("call edge") };
        let ret_exit = id.exits[0].pc;
        let _ = ret_exit;
        let steps = vec![
            // call id(T): callee locals a = T.
            ReplayStep::Call { entry: id.entry, globals: 0, locals: 1 },
            // return a (= T) into x.
            ReplayStep::Return { ret_to: *ret_to, globals: 0, locals: 1 },
            // if (x) then -> HIT
            ReplayStep::Internal { to: target, globals: 0, locals: 1 },
        ];
        replay(&cfg, &steps, &[target]).unwrap();
    }

    #[test]
    fn wrong_choice_is_rejected() {
        let cfg = build(
            r#"
            decl g;
            main() begin
              g := F;
              if (g) then HIT: skip; fi;
            end
            "#,
        );
        let target = cfg.label("HIT").unwrap();
        let main = &cfg.procs[cfg.main];
        let Edge::Internal { to, .. } = &main.edges[&main.entry][0] else { panic!() };
        // Claim g := F produced g = T: not admitted.
        let steps = vec![ReplayStep::Internal { to: *to, globals: 1, locals: 0 }];
        let err = replay(&cfg, &steps, &[target]).unwrap_err();
        assert_eq!(err.step, 0, "{err}");
    }

    #[test]
    fn missing_target_is_rejected() {
        let cfg = build(
            r#"
            main() begin
              HIT: skip;
            end
            "#,
        );
        let target = cfg.label("HIT").unwrap();
        // Empty trace: initial pc *is* HIT (first statement).
        assert_eq!(cfg.procs[cfg.main].entry, target);
        replay(&cfg, &[], &[target]).unwrap();
        // But not some other pc.
        let err = replay(&cfg, &[], &[target + 1]).unwrap_err();
        assert!(err.message.contains("not a target"), "{err}");
    }

    #[test]
    fn caller_locals_must_be_preserved() {
        let cfg = build(
            r#"
            main() begin
              decl x;
              x := T;
              call noop();
              HIT: skip;
            end
            noop() begin
              skip;
            end
            "#,
        );
        let target = cfg.label("HIT").unwrap();
        let main = &cfg.procs[cfg.main];
        let noop = cfg.proc_by_name("noop").unwrap();
        // Find the pcs: entry --x:=T--> call_pc --call--> ...
        let Edge::Internal { to: call_pc, .. } = &main.edges[&main.entry][0] else { panic!() };
        let Edge::Call { ret_to, .. } = &main.edges[call_pc][0] else { panic!() };
        let noop_exit = noop.exits[0].pc;
        let good = vec![
            ReplayStep::Internal { to: *call_pc, globals: 0, locals: 1 },
            ReplayStep::Call { entry: noop.entry, globals: 0, locals: 0 },
            // noop entry -> skip -> exit
            ReplayStep::Internal {
                to: match &noop.edges[&noop.entry][0] {
                    Edge::Internal { to, .. } => *to,
                    _ => panic!(),
                },
                globals: 0,
                locals: 0,
            },
            ReplayStep::Return { ret_to: *ret_to, globals: 0, locals: 1 },
        ];
        let _ = noop_exit;
        replay(&cfg, &good, &[target]).unwrap();
        // Same trace, but the return claims x flipped to F.
        let mut bad = good;
        let last = bad.len() - 1;
        bad[last] = ReplayStep::Return { ret_to: *ret_to, globals: 0, locals: 0 };
        let err = replay(&cfg, &bad, &[target]).unwrap_err();
        assert!(err.message.contains("clobbered"), "{err}");
    }
}
