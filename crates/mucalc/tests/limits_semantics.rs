//! Resource-governance semantics on the public solver API: budgets trip
//! into structured errors with partial statistics, and generous limits
//! leave results bit-identical to an ungoverned solve.

use getafix_mucalc::{
    eq_const, parse_system, LimitKind, ResourceLimits, SolveError, SolveOptions, Solver,
};

/// Two independent reachability fixpoints under a conjunction.
const DIAMOND: &str = r#"
    type S = bits 3;
    input Init(s: S);
    input Edge(s: S, t: S);
    mu Fwd(u: S) := Init(u) | (exists x: S. Fwd(x) & Edge(x, u));
    mu Bwd(u: S) := Init(u) | (exists x: S. Bwd(x) & Edge(u, x));
    mu Both(u: S) := Fwd(u) & Bwd(u);
    query any := exists u: S. Both(u);
"#;

/// Builds the diamond over a 0→1→…→7 chain starting at 0.
fn seeded(options: SolveOptions) -> Solver {
    let system = parse_system(DIAMOND).expect("diamond parses");
    let mut solver = Solver::with_options(system, options).expect("solver builds");
    let init = {
        let vars = solver.alloc().formal("Init", 0).all_vars();
        let m = solver.manager();
        eq_const(m, &vars, 0)
    };
    solver.set_input("Init", init).expect("Init is an input");
    let chain = {
        let s = solver.alloc().formal("Edge", 0).all_vars();
        let t = solver.alloc().formal("Edge", 1).all_vars();
        let m = solver.manager();
        let mut acc = m.constant(false);
        for v in 0u64..7 {
            let a = eq_const(m, &s, v);
            let b = eq_const(m, &t, v + 1);
            let edge = m.and(a, b);
            acc = m.or(acc, edge);
        }
        acc
    };
    solver.set_input("Edge", chain).expect("Edge is an input");
    solver
}

/// A node budget smaller than the live set trips `NodeBudget` even
/// after the degradation ladder (forced collection, computed-cache
/// drop, one retry) has run — the chain's transition relation alone
/// needs more than ten live nodes.
#[test]
fn tiny_node_budget_trips_after_forced_gc() {
    let limits = ResourceLimits::default().with_node_budget(10);
    let options = SolveOptions { limits, ..SolveOptions::new() };
    let mut solver = seeded(options);
    match solver.eval_query("any") {
        Err(SolveError::LimitExceeded(report)) => {
            assert_eq!(report.kind, LimitKind::NodeBudget);
            // The forced collection ran before the solver gave up.
            assert!(report.partial.gcs >= 1, "gcs = {}", report.partial.gcs);
        }
        other => panic!("expected a node-budget trip, got {other:?}"),
    }
}

/// Generous limits are invisible: verdict, per-state interpretation and
/// re-evaluation counts are bit-identical to an ungoverned solve.
#[test]
fn generous_limits_leave_results_bit_identical() {
    let baseline = {
        let mut solver = seeded(SolveOptions::new());
        let verdict = solver.eval_query("any").expect("ungoverned solve succeeds");
        let states = membership(&mut solver);
        (verdict, states, solver.stats().total_reevaluations())
    };
    let limits = ResourceLimits::default()
        .with_node_budget(1 << 24)
        .with_timeout(std::time::Duration::from_secs(600));
    let options = SolveOptions { limits, ..SolveOptions::new() };
    let mut solver = seeded(options);
    let verdict = solver.eval_query("any").expect("governed solve succeeds");
    assert_eq!(verdict, baseline.0, "verdict");
    assert_eq!(membership(&mut solver), baseline.1, "interpretation");
    assert_eq!(solver.stats().total_reevaluations(), baseline.2, "re-evaluation counts");
}

/// `Both`'s interpretation as an explicit membership vector.
fn membership(solver: &mut Solver) -> Vec<bool> {
    let both = solver.evaluate("Both").expect("Both evaluates");
    let vars = solver.alloc().formal("Both", 0).all_vars();
    let m = solver.manager();
    (0u64..8)
        .map(|v| {
            let point = eq_const(m, &vars, v);
            !m.and(both, point).is_false()
        })
        .collect()
}
