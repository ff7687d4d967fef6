//! The worklist engine's acceptance criterion, checked on the Figure 2
//! workload families: same verdicts as the round-robin reference, never
//! more relation re-evaluations, and *strictly fewer* wherever the system
//! has more than one stratum (the `simple` algorithm's `Summary` /
//! `EntryReach` split, and the concurrent `Reach` / `ReachCanon` split).

use getafix_bench::{compare_strategies, regression_cases, terminator_cases};
use getafix_boolprog::Cfg;
use getafix_conc::{check_merged_with, merge};
use getafix_core::{check_reachability_with, Algorithm};
use getafix_mucalc::{SolveOptions, SolveStats, Strategy};
use getafix_workloads::{adder_err_label, bluetooth, driver, DriverSpec};

/// A small cross-section of the fig2 corpus: a few regression programs of
/// each polarity plus one SLAM-shaped driver.
fn sample_cases() -> Vec<getafix_bench::SeqCase> {
    let (pos, neg) = regression_cases();
    let mut cases: Vec<_> =
        pos.into_iter().step_by(24).chain(neg.into_iter().step_by(24)).collect();
    let d = driver(
        "strategy-driver",
        DriverSpec { handlers: 3, globals: 2, locals: 3, filler: 2, positive: false, seed: 7 },
    );
    cases.push(getafix_bench::SeqCase {
        name: d.name,
        program: d.program,
        label: d.label,
        expect: d.expect_reachable,
    });
    cases.extend(terminator_cases(2).into_iter().take(2));
    cases
}

#[test]
fn worklist_never_exceeds_round_robin() {
    let cases = sample_cases();
    for algo in Algorithm::ALL {
        let cmp = compare_strategies(&cases, algo);
        assert!(
            cmp.verdict_mismatches.is_empty(),
            "{algo}: verdict mismatches on {:?}",
            cmp.verdict_mismatches
        );
        assert!(
            cmp.worklist <= cmp.round_robin,
            "{algo}: worklist did MORE work ({} > {})",
            cmp.worklist,
            cmp.round_robin
        );
    }
}

#[test]
fn worklist_strictly_reduces_on_stratified_systems() {
    // The `simple` algorithm has two strata (`Summary`, then `EntryReach`
    // reading it); round-robin re-derives the full `Summary` fixpoint
    // inside every `EntryReach` round, the worklist engine solves it once.
    let cases = sample_cases();
    let cmp = compare_strategies(&cases, Algorithm::SummarySimple);
    assert!(cmp.verdict_mismatches.is_empty(), "{:?}", cmp.verdict_mismatches);
    assert!(
        cmp.worklist < cmp.round_robin,
        "expected a strict re-evaluation reduction, got {} vs {}",
        cmp.worklist,
        cmp.round_robin
    );
}

#[test]
fn worklist_strictly_reduces_on_the_conc_engine() {
    // Figure 3 workload: `ReachCanon` (tuple counting) is a separate
    // stratum over `Reach`; the worklist strategy reads the memoized
    // `Reach` instead of re-deriving its fixpoint.
    let conc = bluetooth(1, 1);
    let merged = merge(&conc).expect("merge");
    let targets = vec![merged.cfg.label(&adder_err_label(0)).expect("ERR label")];
    let rr =
        check_merged_with(&merged, &targets, 2, SolveOptions::with_strategy(Strategy::RoundRobin))
            .expect("round-robin");
    let wl =
        check_merged_with(&merged, &targets, 2, SolveOptions::with_strategy(Strategy::Worklist))
            .expect("worklist");
    assert_eq!(rr.reachable, wl.reachable);
    assert_eq!(rr.reach_tuples, wl.reach_tuples);
    assert_eq!(rr.reach_nodes, wl.reach_nodes);
    assert!(
        wl.stats.total_reevaluations() < rr.stats.total_reevaluations(),
        "expected strict reduction, got {} vs {}",
        wl.stats.total_reevaluations(),
        rr.stats.total_reevaluations()
    );
}

#[test]
fn ef_opt_ordered_schedule_strictly_reduces() {
    // The EF-opt system is one non-monotone component fitting the §4.3
    // frontier pattern: the worklist engine runs it on the ordered
    // change-driven schedule — identical answers (it reproduces the
    // reference rounds exactly), strictly less recompilation (the nested
    // reference re-derives `Relevant`/`New1`/`New2` from scratch inside
    // every round). This is the fig2 regression guard: a scheduler change
    // that loses the reduction fails CI here.
    let cases = sample_cases();
    let cmp = compare_strategies(&cases, Algorithm::EntryForwardOpt);
    assert!(cmp.verdict_mismatches.is_empty(), "{:?}", cmp.verdict_mismatches);
    assert!(
        cmp.worklist < cmp.round_robin,
        "expected the ordered schedule to strictly reduce ef-opt re-evaluations, \
         got {} vs {}",
        cmp.worklist,
        cmp.round_robin
    );
}

/// The worklist engine's exact work on one solve: total re-evaluations,
/// ordered re-evaluations, and the sums over all disjuncts of
/// recompilations and nodes built.
fn exact_work(stats: &SolveStats) -> [u64; 4] {
    [
        stats.total_reevaluations() as u64,
        stats.ordered_reevaluations as u64,
        stats.disjuncts.values().map(|d| d.recompilations as u64).sum(),
        stats.disjuncts.values().map(|d| d.nodes_built).sum(),
    ]
}

#[test]
fn worklist_work_is_pinned_exactly() {
    // A refactor of the engine that keeps every schedule's sequence of
    // BDD operations keeps these four counters bit for bit; one that
    // recompiles an extra disjunct per re-evaluation, or re-evaluates a
    // member nothing changed for, moves at least one of them.
    let expected: [(Algorithm, [u64; 4]); 4] = [
        (Algorithm::SummarySimple, [333, 0, 572, 15_205]),
        (Algorithm::EntryForwardNaive, [332, 0, 1_340, 12_658]),
        (Algorithm::EntryForward, [332, 0, 1_340, 12_658]),
        (Algorithm::EntryForwardOpt, [1_491, 1_491, 2_328, 39_149]),
    ];
    let cases = sample_cases();
    for (algo, want) in expected {
        let mut got = [0u64; 4];
        for case in &cases {
            let cfg = Cfg::build(&case.program).expect("cfg");
            let pc = cfg.label(&case.label).expect("label");
            let r = check_reachability_with(
                &cfg,
                &[pc],
                algo,
                SolveOptions::with_strategy(Strategy::Worklist),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            for (g, w) in got.iter_mut().zip(exact_work(&r.stats)) {
                *g += w;
            }
        }
        assert_eq!(got, want, "{algo}: [reevals, ordered reevals, recompilations, nodes built]");
    }

    let merged = merge(&bluetooth(1, 1)).expect("merge");
    let targets = vec![merged.cfg.label(&adder_err_label(0)).expect("ERR label")];
    let wl =
        check_merged_with(&merged, &targets, 2, SolveOptions::with_strategy(Strategy::Worklist))
            .expect("worklist");
    assert_eq!(
        exact_work(&wl.stats),
        [17, 0, 82, 8_771],
        "bluetooth(1, 1) at 2 switches: [reevals, ordered reevals, recompilations, nodes built]"
    );
}
