//! Resource governance: deadlines, node budgets and cooperative
//! cancellation.
//!
//! A solve can blow up in time (fixpoint rounds over exploding BDDs) or
//! space (arena growth) long before [`crate::SolveOptions::max_iterations`]
//! trips. [`ResourceLimits`] bounds both, and its [`CancelToken`] lets
//! *anything* — a deadline check, a SIGINT handler, a caller holding a
//! clone of the limits — stop every cooperating loop at its next poll
//! point. The same value governs a whole run: the solve, witness
//! extraction and the explicit engines each take it, and every loop that
//! takes it polls it with [`ResourceLimits::poll`].
//!
//! Poll points are cheap by construction: one atomic load per
//! re-evaluation / search expansion / onion-peel step, a clock read only
//! when a deadline is actually configured. When a limit trips the solver
//! returns a structured [`crate::SolveError::LimitExceeded`] carrying the
//! partial [`crate::SolveStats`] collected so far — callers get
//! diagnostics (peak arena bytes, re-evaluation counts, GC history)
//! instead of a hang, an OOM kill, or a `^C` abort.

use std::fmt;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which resource bound tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// The wall-clock deadline passed ([`ResourceLimits::deadline`]).
    Deadline,
    /// The BDD arena exceeded the node budget even after a forced
    /// collection ([`ResourceLimits::node_budget`]).
    NodeBudget,
    /// An external cancellation — SIGINT, or a caller-side
    /// [`CancelToken::cancel`].
    Interrupted,
}

impl LimitKind {
    const fn code(self) -> u8 {
        match self {
            LimitKind::Deadline => 1,
            LimitKind::NodeBudget => 2,
            LimitKind::Interrupted => 3,
        }
    }

    const fn from_code(code: u8) -> Option<LimitKind> {
        match code {
            1 => Some(LimitKind::Deadline),
            2 => Some(LimitKind::NodeBudget),
            3 => Some(LimitKind::Interrupted),
            _ => None,
        }
    }
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitKind::Deadline => write!(f, "deadline"),
            LimitKind::NodeBudget => write!(f, "node-budget"),
            LimitKind::Interrupted => write!(f, "interrupted"),
        }
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    /// 0 = live; otherwise a [`LimitKind::code`]. First cancel wins.
    state: AtomicU8,
}

/// A shared, lock-free cancellation flag.
///
/// Cloning shares the flag: the CLI keeps one clone of the limits for its
/// `--stats` line and hands others to the solve, witness extraction and
/// the explicit engines, and the SIGINT handler flips the same flag. The
/// first [`CancelToken::cancel`] wins; later calls are no-ops, so the
/// *reason* a run stopped is stable however many holders trip.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// Requests cancellation with the given reason. Returns `true` if this
    /// call was the first to cancel (its reason sticks), `false` if the
    /// token was already cancelled.
    pub fn cancel(&self, kind: LimitKind) -> bool {
        self.inner
            .state
            .compare_exchange(0, kind.code(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The cancellation reason, if any. One relaxed-ish atomic load —
    /// cheap enough to poll per re-evaluation.
    pub fn cancelled(&self) -> Option<LimitKind> {
        LimitKind::from_code(self.inner.state.load(Ordering::Acquire))
    }
}

/// Resource bounds for a run, all optional and off by default: the one
/// limits value the solve, witness extraction and the explicit engines
/// take.
///
/// The deadline is an absolute [`Instant`], so cloning the limits (as the
/// CLI does to carry them from the solve into witness extraction) keeps
/// one shared wall-clock cutoff rather than restarting the timer. The
/// cancel token is likewise shared by clone.
#[derive(Debug, Clone, Default)]
pub struct ResourceLimits {
    /// Absolute wall-clock cutoff. Checked at every poll point (only when
    /// set — no clock reads otherwise).
    pub deadline: Option<Instant>,
    /// Max BDD arena size in *nodes*. On pressure the solver first forces
    /// a collection (dropping computed caches and dead intermediates) and
    /// only surfaces [`LimitKind::NodeBudget`] if the live set itself
    /// exceeds the budget.
    pub node_budget: Option<usize>,
    /// Shared cancellation flag.
    pub cancel: CancelToken,
}

impl ResourceLimits {
    /// Are any bounds configured (deadline or node budget)? An unlimited
    /// run with a live token still polls, so SIGINT works, but reports
    /// `limits: none` in stats.
    pub fn any_configured(&self) -> bool {
        self.deadline.is_some() || self.node_budget.is_some()
    }

    /// Sets a relative timeout: the deadline becomes `now + timeout`.
    pub fn with_timeout(mut self, timeout: Duration) -> ResourceLimits {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets the node budget.
    pub fn with_node_budget(mut self, nodes: usize) -> ResourceLimits {
        self.node_budget = Some(nodes);
        self
    }

    /// One poll: token first (cancellation by any holder), then deadline.
    pub fn poll(&self) -> Result<(), LimitKind> {
        if let Some(kind) = self.cancel.cancelled() {
            return Err(kind);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel.cancel(LimitKind::Deadline);
                // Re-read: another holder may have cancelled for a
                // different reason first; its reason sticks.
                return Err(self.cancel.cancelled().unwrap_or(LimitKind::Deadline));
            }
        }
        Ok(())
    }
}

/// The structured payload of [`crate::SolveError::LimitExceeded`]: which
/// bound tripped plus the partial statistics collected up to that point
/// (peak arena bytes, re-evaluation counts, GC history — the diagnostics
/// a caller needs to choose a bigger budget or a smaller problem).
///
/// Equality compares the *kind only*: two reports of the same trip are
/// "the same error" even if their partial counters differ, which keeps
/// `Result<_, SolveError>` comparisons in differential tests meaningful.
#[derive(Debug, Clone)]
pub struct LimitReport {
    /// Which bound tripped.
    pub kind: LimitKind,
    /// Statistics up to the trip — real work done, not a placeholder.
    pub partial: crate::SolveStats,
}

impl PartialEq for LimitReport {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Eq for LimitReport {}

impl fmt::Display for LimitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource limit exceeded ({}) after {} re-evaluations, peak arena {} bytes",
            self.kind,
            self.partial.total_reevaluations(),
            self.partial.peak_arena_bytes
        )
    }
}

/// The process-wide token slot the SIGINT handler flips. A raw atomic
/// pointer to a leaked `Arc` clone: signal handlers may only touch
/// async-signal-safe state, which rules out locks and allocation.
static SIGINT_TOKEN: AtomicUsize = AtomicUsize::new(0);

/// Routes SIGINT (Ctrl-C) to `token`: the first interrupt cancels the
/// token with [`LimitKind::Interrupted`], so an in-flight solve unwinds
/// cooperatively and the CLI can print partial stats before exiting.
/// A second SIGINT falls back to the default disposition (process kill),
/// so a wedged solve can still be stopped.
///
/// Installing again replaces the routed token. Unix-only; a no-op
/// elsewhere.
pub fn install_sigint_cancel(token: &CancelToken) {
    #[cfg(unix)]
    {
        // Leak one Arc clone per install; the handler reads the pointer
        // without touching the refcount. Installs are once-per-process in
        // practice (CLI startup), so the leak is bounded and intentional.
        let leaked: *const TokenInner = Arc::into_raw(Arc::clone(&token.inner));
        let prev = SIGINT_TOKEN.swap(leaked as usize, Ordering::AcqRel);
        if prev != 0 {
            // SAFETY: `prev` is a pointer produced by `Arc::into_raw` in a
            // previous install on this same slot, swapped out exactly once
            // here, so reconstructing (and dropping) the Arc is sound.
            drop(unsafe { Arc::from_raw(prev as *const TokenInner) });
        }

        extern "C" fn on_sigint(_sig: i32) {
            let ptr = SIGINT_TOKEN.load(Ordering::Acquire) as *const TokenInner;
            if !ptr.is_null() {
                // SAFETY: the pointer was leaked via `Arc::into_raw` and is
                // never freed while installed (the swap above only drops
                // *replaced* pointers, after the new one is published), so
                // it stays valid for the life of the handler. Only atomics
                // are touched — async-signal-safe.
                let inner = unsafe { &*ptr };
                let _ = inner.state.compare_exchange(
                    0,
                    LimitKind::Interrupted.code(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                // Restore the default disposition so a second Ctrl-C kills
                // a solve that is not reaching its poll points.
                // SAFETY: signal(2) with SIG_DFL is async-signal-safe.
                unsafe { signal(SIGINT, SIG_DFL) };
            }
        }

        const SIGINT: i32 = 2;
        const SIG_DFL: usize = 0;
        extern "C" {
            /// signal(2) from the C runtime std already links against.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: installing an extern "C" fn as a signal handler via
        // signal(2); the handler only performs async-signal-safe atomic
        // operations (see its body).
        unsafe { signal(SIGINT, on_sigint as *const () as usize) };
    }
    #[cfg(not(unix))]
    {
        let _ = token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::default();
        assert_eq!(t.cancelled(), None);
        assert!(t.cancel(LimitKind::Deadline));
        assert!(!t.cancel(LimitKind::Interrupted));
        assert_eq!(t.cancelled(), Some(LimitKind::Deadline));
    }

    #[test]
    fn clone_shares_state() {
        let limits = ResourceLimits::default();
        let clone = limits.clone();
        assert!(clone.poll().is_ok());
        // A cancel through one clone is seen by the other.
        assert!(clone.cancel.cancel(LimitKind::Interrupted));
        assert_eq!(limits.poll(), Err(LimitKind::Interrupted));
        assert_eq!(limits.cancel.cancelled(), Some(LimitKind::Interrupted));
    }

    #[test]
    fn deadline_in_past_trips() {
        let limits = ResourceLimits { deadline: Some(Instant::now()), ..ResourceLimits::default() };
        assert_eq!(limits.poll(), Err(LimitKind::Deadline));
    }

    #[test]
    fn unconfigured_limits_poll_ok() {
        let limits = ResourceLimits::default();
        assert!(!limits.any_configured());
        assert!(limits.poll().is_ok());
    }

    #[test]
    fn report_equality_is_kind_only() {
        let mut a = LimitReport { kind: LimitKind::Deadline, partial: Default::default() };
        let b = LimitReport { kind: LimitKind::Deadline, partial: Default::default() };
        a.partial.gcs = 7;
        assert_eq!(a, b);
        let c = LimitReport { kind: LimitKind::Interrupted, partial: Default::default() };
        assert_ne!(a, c);
    }
}
