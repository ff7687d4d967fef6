//! The saturation engines: eager forward summaries (post*) and backward
//! reachability (pre*), hand-written over the raw variable space.

use crate::space::Space;
use getafix_bdd::Bdd;
use getafix_boolprog::{Cfg, Pc};
use getafix_core::eq_consts;
use std::fmt;
use std::time::{Duration, Instant};

/// Errors from the PDS engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdsError {
    /// Saturation failed to stabilize within the round bound.
    Diverged(usize),
}

impl fmt::Display for PdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdsError::Diverged(n) => write!(f, "saturation exceeded {n} rounds"),
        }
    }
}

impl std::error::Error for PdsError {}

/// Verdict and statistics of a PDS run.
#[derive(Debug, Clone)]
pub struct PdsResult {
    /// Is a target pc reachable?
    pub reachable: bool,
    /// Node count of the final summary (post*) or backward (pre*) set.
    pub set_nodes: usize,
    /// Saturation rounds.
    pub iterations: usize,
    /// Wall-clock time of the whole run (encoding + saturation).
    pub time: Duration,
}

const MAX_ROUNDS: usize = 1_000_000;

/// Summaries of every procedure from **every** entry valuation — the eager
/// exploration both engines share. The result lives over
/// `(l0, g0, pc1, l1, g1)`.
fn eager_summaries(sp: &mut Space, cfg: &Cfg) -> Result<(Bdd, usize), PdsError> {
    // Seed: each procedure's entry, any valuation, entry = current, local
    // frame zeroed above the procedure's width.
    let mut seed = Bdd::FALSE;
    for proc in &cfg.procs {
        let entry = u64::from(proc.entry);
        let b = eq_consts(&mut sp.m, &[(&sp.pc[1], entry), (&sp.l[1][proc.n_locals()..], 0)]);
        seed = sp.m.or(seed, b);
    }
    let (el, eg) = (sp.eq_l(0, 1), sp.eq_g(0, 1));
    seed = sp.m.and(seed, el);
    seed = sp.m.and(seed, eg);

    let cube_cur = sp.cube_parts(&[1], &[1], &[1]);
    let mut s = seed;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(PdsError::Diverged(MAX_ROUNDS));
        }
        // Internal image: ∃(pc1,l1,g1). S ∧ Int, then (2) → (1).
        let int_rel = sp.int_rel;
        let img = sp.m.and_exists(s, int_rel, cube_cur);
        let int_img = sp.rename_blocks(img, &[(2, 1)]);

        // Return image.
        let ret_img = return_image(sp, s, s);

        let mut next = sp.m.or(s, int_img);
        next = sp.m.or(next, ret_img);
        next = sp.m.or(next, seed);
        if next == s {
            break;
        }
        s = next;
    }
    Ok((s, rounds))
}

/// One application of the call-return composition: callers from `callers`,
/// callee summaries from `summaries`; result in caller summary space.
fn return_image(sp: &mut Space, callers: Bdd, summaries: Bdd) -> Bdd {
    // Callee summaries moved out of the caller's blocks:
    // entry (l0,g0) → (l4,g4); current (pc1,l1,g1) → (pc2,l2,g2).
    let callee = sp.rename_parts(summaries, &[(1, 2)], &[(0, 4), (1, 2)], &[(0, 4), (1, 2)]);
    // Args: callee entry locals (as l4) from the caller state; the callee
    // entry pc is dropped (the call site determines the callee, and
    // ret_rel re-ties call site to exit).
    let call_args = {
        let cube = sp.cube_parts(&[2], &[], &[]);
        let cr = sp.call_rel;
        let dropped = sp.m.exists(cr, cube);
        sp.rename_parts(dropped, &[], &[(2, 4)], &[])
    };
    // Callee entry globals = caller current globals.
    let link_g = sp.eq_g(4, 1);
    // Return-site pc: skip_rel over (pc1, pc3).
    let skip = {
        let sk = sp.skip_rel;
        sp.rename_parts(sk, &[(2, 3)], &[], &[])
    };

    let mut conj = sp.m.and(callers, callee);
    conj = sp.m.and(conj, call_args);
    conj = sp.m.and(conj, link_g);
    let ret_rel = sp.ret_rel;
    conj = sp.m.and(conj, ret_rel);
    conj = sp.m.and(conj, skip);

    // Quantify everything but (l0, g0) entry and the post-return state
    // (pc3, l3, g3); then move 3 → 1.
    let cube = sp.cube_parts(&[1, 2], &[1, 2, 4], &[1, 2, 4]);
    let projected = sp.m.exists(conj, cube);
    sp.rename_blocks(projected, &[(3, 1)])
}

/// Reachable entry configurations `(pc1, l1, g1)`, given the summary set.
fn entry_reach(sp: &mut Space, summaries: Bdd) -> Result<(Bdd, usize), PdsError> {
    let init = sp.init;
    let mut er = init;
    // Relations used each round.
    // proc_entry over (pc1, pc3): entry pc of the summary's procedure.
    let pe = {
        let p = sp.proc_entry;
        sp.rename_parts(p, &[(2, 3)], &[], &[])
    };
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(PdsError::Diverged(MAX_ROUNDS));
        }
        // ER of the summary's own entry: (pc3, l0, g0).
        let er_entry = sp.rename_parts(er, &[(1, 3)], &[(1, 0)], &[(1, 0)]);
        let mut conj = sp.m.and(summaries, er_entry);
        conj = sp.m.and(conj, pe);
        let call_rel = sp.call_rel;
        conj = sp.m.and(conj, call_rel);
        // Result: callee entry (pc2, l2) with globals g1.
        let cube = sp.cube_parts(&[1, 3], &[0, 1], &[0]);
        let img = sp.m.exists(conj, cube);
        let new_entries = sp.rename_parts(img, &[(2, 1)], &[(2, 1)], &[]);
        let mut next = sp.m.or(er, new_entries);
        next = sp.m.or(next, init);
        if next == er {
            break;
        }
        er = next;
    }
    Ok((er, rounds))
}

/// Forward saturation (MOPED 1 stand-in): eager summaries for every
/// procedure, then a reachable-entries filter for the verdict.
///
/// # Errors
///
/// Returns [`PdsError::Diverged`] if saturation exceeds the round bound.
pub fn poststar(cfg: &Cfg, targets: &[Pc]) -> Result<PdsResult, PdsError> {
    let t0 = Instant::now();
    let mut sp = Space::build(cfg, targets);
    let (summaries, it1) = eager_summaries(&mut sp, cfg)?;
    let (er, it2) = entry_reach(&mut sp, summaries)?;
    // Verdict: a summary at a target pc whose entry is reachable.
    let pe = {
        let p = sp.proc_entry;
        sp.rename_parts(p, &[(2, 3)], &[], &[])
    };
    let er_entry = sp.rename_parts(er, &[(1, 3)], &[(1, 0)], &[(1, 0)]);
    let tg = sp.targets;
    let mut hit = sp.m.and(summaries, tg);
    hit = sp.m.and(hit, pe);
    hit = sp.m.and(hit, er_entry);
    Ok(PdsResult {
        reachable: !hit.is_false(),
        set_nodes: sp.m.node_count(summaries),
        iterations: it1 + it2,
        time: t0.elapsed(),
    })
}

/// Backward saturation (MOPED 2 stand-in): the set of frame configurations
/// that can reach a target, stepping backward and skipping calls through
/// the eager summaries; verdict by membership of the initial configuration.
///
/// # Errors
///
/// Returns [`PdsError::Diverged`] if saturation exceeds the round bound.
pub fn prestar(cfg: &Cfg, targets: &[Pc]) -> Result<PdsResult, PdsError> {
    let t0 = Instant::now();
    let mut sp = Space::build(cfg, targets);
    let (summaries, it1) = eager_summaries(&mut sp, cfg)?;

    // W over (pc1, l1, g1): can reach a target in this frame or deeper.
    let mut w = sp.targets;
    let mut rounds = 0usize;
    // Pre-rename static relations.
    let skip = {
        let sk = sp.skip_rel;
        sp.rename_parts(sk, &[(2, 3)], &[], &[])
    };
    let call_args = {
        let cube = sp.cube_parts(&[2], &[], &[]);
        let cr = sp.call_rel;
        let dropped = sp.m.exists(cr, cube);
        sp.rename_parts(dropped, &[], &[(2, 4)], &[])
    };
    let callee_sum = sp.rename_parts(summaries, &[(1, 2)], &[(0, 4), (1, 2)], &[(0, 4), (1, 2)]);
    let link_g = sp.eq_g(4, 1);
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(PdsError::Diverged(MAX_ROUNDS));
        }
        // Backward internal: ∃(pc2,l2,g2). Int ∧ W[1→2].
        let w2 = sp.rename_blocks(w, &[(1, 2)]);
        let cube2 = sp.cube_parts(&[2], &[2], &[2]);
        let int_rel = sp.int_rel;
        let back_int = sp.m.and_exists(int_rel, w2, cube2);

        // Backward into a call: the callee's entry state is in W.
        let w_entry = sp.rename_blocks(w, &[(1, 2)]);
        let geq = sp.eq_g(2, 1);
        let callee_w = sp.m.and(w_entry, geq);
        let call_rel = sp.call_rel;
        let back_call = sp.m.and_exists(call_rel, callee_w, cube2);

        // Backward across a call: the post-return state is in W.
        let w_after = sp.rename_blocks(w, &[(1, 3)]);
        let mut conj = sp.m.and(callee_sum, call_args);
        conj = sp.m.and(conj, link_g);
        let ret_rel = sp.ret_rel;
        conj = sp.m.and(conj, ret_rel);
        conj = sp.m.and(conj, skip);
        conj = sp.m.and(conj, w_after);
        let cube = sp.cube_parts(&[2, 3], &[2, 3, 4], &[2, 3, 4]);
        let back_skip = sp.m.exists(conj, cube);

        let mut next = sp.m.or(w, back_int);
        next = sp.m.or(next, back_call);
        next = sp.m.or(next, back_skip);
        if next == w {
            break;
        }
        w = next;
    }

    let init = sp.init;
    let hit = sp.m.and(init, w);
    Ok(PdsResult {
        reachable: !hit.is_false(),
        set_nodes: sp.m.node_count(w),
        iterations: it1 + rounds,
        time: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use getafix_boolprog::{explicit_reachable, parse_program, Cfg};

    fn both_agree_with_oracle(src: &str, label: &str) {
        let cfg = Cfg::build(&parse_program(src).unwrap()).unwrap();
        let pc = cfg.label(label).unwrap();
        let oracle = explicit_reachable(&cfg, &[pc], 5_000_000).unwrap().reachable;
        let fwd = poststar(&cfg, &[pc]).unwrap();
        assert_eq!(fwd.reachable, oracle, "poststar vs oracle\n{src}");
        let bwd = prestar(&cfg, &[pc]).unwrap();
        assert_eq!(bwd.reachable, oracle, "prestar vs oracle\n{src}");
    }

    #[test]
    fn straight_line() {
        both_agree_with_oracle(
            r#"
            decl g;
            main() begin
              g := T;
              if (g) then HIT: skip; fi;
            end
            "#,
            "HIT",
        );
        both_agree_with_oracle(
            r#"
            decl g;
            main() begin
              g := F;
              if (g) then HIT: skip; fi;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn calls_and_returns() {
        both_agree_with_oracle(
            r#"
            decl g;
            main() begin
              decl x;
              x := f(T);
              if (x) then HIT: skip; fi;
            end
            f(a) returns 1 begin
              return !a;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn recursion() {
        both_agree_with_oracle(
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
            "HIT",
        );
    }

    #[test]
    fn unreachable_callee_summary_is_explored_eagerly() {
        // `never` is never called; the eager engines still summarize it —
        // that is the point of the §4.1-vs-§4.2 contrast. The verdict must
        // still be correct.
        both_agree_with_oracle(
            r#"
            decl g;
            main() begin
              g := F;
              if (g) then HIT: skip; fi;
            end
            never() begin
              g := T;
            end
            "#,
            "HIT",
        );
    }

    /// The wide-frame programs: 70 globals, or 70 locals in `main`. A
    /// constant's bits past 63 read 0, so the zeroed blocks stay in range.
    #[test]
    fn frames_wider_than_64_variables() {
        let names = |p: &str| (0..70).map(|i| format!("{p}{i}")).collect::<Vec<_>>().join(", ");
        let wide_globals = format!(
            "decl {};\nmain() begin\n  g69 := T;\n  if (!g5) then HIT: skip; fi;\nend\n",
            names("g")
        );
        let wide_locals = format!(
            "main() begin\n  decl {};\n  l69 := T;\n  if (!l5) then HIT: skip; fi;\nend\n",
            names("l")
        );
        for src in [wide_globals, wide_locals] {
            let cfg = Cfg::build(&parse_program(&src).unwrap()).unwrap();
            let pc = cfg.label("HIT").unwrap();
            assert!(poststar(&cfg, &[pc]).unwrap().reachable, "poststar\n{src}");
            assert!(prestar(&cfg, &[pc]).unwrap().reachable, "prestar\n{src}");
        }
    }

    #[test]
    fn target_inside_callee() {
        both_agree_with_oracle(
            r#"
            decl g;
            main() begin
              call f(T);
            end
            f(a) begin
              if (a) then HIT: skip; fi;
            end
            "#,
            "HIT",
        );
    }

    #[test]
    fn target_unreachable_inside_callee() {
        both_agree_with_oracle(
            r#"
            decl g;
            main() begin
              call f(F);
            end
            f(a) begin
              if (a) then HIT: skip; fi;
            end
            "#,
            "HIT",
        );
    }
}
