//! Symbolic pushdown-system baselines, in the spirit of MOPED.
//!
//! The paper's evaluation (Figure 2) compares GETAFIX against MOPED's
//! forward and backward engines. This crate reimplements both as
//! *hand-coded* BDD algorithms — the low-level style the paper argues
//! against writing by hand:
//!
//! * [`poststar`] — forward saturation ("MOPED 1"). Like Moped's forward
//!   automaton construction, it grows procedure summaries from **every**
//!   entry (the eager exploration of the saturation approach) and then
//!   filters through reachable entries.
//! * [`prestar`] — backward saturation ("MOPED 2"). Computes the set of
//!   frame configurations that can reach the target, stepping backward
//!   through internal edges and skipping calls via the eagerly computed
//!   summaries. Backward search "can discover unreachable states" (§related
//!   work) — the inefficiency these baselines exhibit on some suites.
//!
//! Both engines share a private symbolic encoding over raw variable blocks
//! (`mod space`); there is no fixed-point calculus here, only manual image
//! computation, renaming and quantification — several hundred lines where
//! the formula in `getafix-core` is forty.
//!
//! The transfer relations are built from the same block builders as the
//! formula encoder's templates: `can_value`, `assign_bit` and `eq_except`
//! from `getafix_core`, with the `eq_const`, `eq_consts`, `eq_vars` and
//! `lt_const` it re-exports from `getafix_mucalc` (whose constants read
//! bits past 63 as 0, so frames wider than 64 variables encode). Only the
//! builders are shared; the variable space, the relations and both
//! saturation algorithms stay hand-coded here.

mod engine;
mod space;

pub use engine::{poststar, prestar, PdsError, PdsResult};
