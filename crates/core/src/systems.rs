//! The reachability algorithms of §4, *written as fixed-point formulae* —
//! the heart of the paper. Each function returns a [`System`] whose input
//! relations are the templates `encode.rs` installs; solving the system's
//! `reach` query answers the reachability question.
//!
//! Three algorithms, in increasing sophistication:
//!
//! * [`system_simple`] — the classical summary algorithm (§4.1): seeds
//!   *every* entry of every procedure, reachable or not;
//! * [`system_ef`] — the entry-forward algorithm (§4.2), in both the naive
//!   form (one big conjunction in the return clause) and the *split* form
//!   the appendix gives, which rearranges the return clause so the two
//!   summary sets are each first shrunk by small relations before their
//!   conjunction — the rewrite §4.2 motivates with BDD-size arguments;
//! * [`system_efopt`] — the optimized entry-forward algorithm (§4.3), with
//!   the frontier bit `fr`, the pc-projected `Relevant` set (a
//!   **non-monotone** equation — only the operational semantics of §3 gives
//!   it meaning), and the `New1`/`New2` helper fixpoints that close internal
//!   transitions eagerly but discover calls/returns one round at a time.

use getafix_boolprog::Cfg;
use getafix_mucalc::{Formula, System, SystemBuilder, SystemError, Term, Type};

/// Conf field names (shared with `encode.rs`).
const FIELDS: [&str; 5] = ["pc", "cl", "cg", "ecl", "ecg"];

fn conf_type() -> Type {
    Type::Struct(
        FIELDS
            .iter()
            .map(|&f| {
                let ty = match f {
                    "pc" => Type::named("PC"),
                    "cl" | "ecl" => Type::named("Local"),
                    _ => Type::named("Global"),
                };
                (f.to_string(), ty)
            })
            .collect(),
    )
}

/// Declares the shared types and input-relation signatures used by every
/// algorithm (sequential and concurrent — `getafix-conc` builds on this).
pub fn base_builder(cfg: &Cfg) -> Result<SystemBuilder, SystemError> {
    let mut b = System::builder();
    b.declare_type("PC", Type::Range(cfg.pc_count.max(1) as u64))?;
    b.declare_type("Local", Type::Bits(cfg.max_locals().max(1) as u32))?;
    b.declare_type("Global", Type::Bits(cfg.globals.len().max(1) as u32))?;
    b.declare_type("Conf", conf_type())?;
    let pc = || Type::named("PC");
    let local = || Type::named("Local");
    let global = || Type::named("Global");
    let conf = || Type::named("Conf");
    b.input("Init", vec![("s".into(), conf())]);
    b.input("EntryOf", vec![("p".into(), pc())]);
    b.input("ExitOf", vec![("p".into(), pc())]);
    b.input("Target", vec![("p".into(), pc())]);
    b.input(
        "ProgramInt",
        vec![
            ("from".into(), pc()),
            ("to".into(), pc()),
            ("l".into(), local()),
            ("l2".into(), local()),
            ("g".into(), global()),
            ("g2".into(), global()),
        ],
    );
    b.input(
        "ProgramCall",
        vec![
            ("call".into(), pc()),
            ("entry".into(), pc()),
            ("cl".into(), local()),
            ("el".into(), local()),
            ("g".into(), global()),
        ],
    );
    b.input("SkipCall", vec![("call".into(), pc()), ("ret".into(), pc())]);
    b.input("ProcEntry", vec![("p".into(), pc()), ("e".into(), pc())]);
    b.input(
        "SetReturn1",
        vec![("call".into(), pc()), ("lcall".into(), local()), ("lret".into(), local())],
    );
    b.input(
        "SetReturn2",
        vec![
            ("call".into(), pc()),
            ("exit".into(), pc()),
            ("ucl".into(), local()),
            ("scl".into(), local()),
            ("ucg".into(), global()),
            ("scg".into(), global()),
        ],
    );
    Ok(b)
}

// Shorthand constructors.
fn v(name: &str) -> Term {
    Term::var(name)
}

fn fld(name: &str, f: &str) -> Term {
    Term::field(name, f)
}

fn app(name: &str, args: Vec<Term>) -> Formula {
    Formula::app(name, args)
}

fn eq(a: Term, b: Term) -> Formula {
    Formula::eq(a, b)
}

fn conf() -> Type {
    Type::named("Conf")
}

/// `x`'s entry fields match `s`'s ("the entry state does not change").
fn same_entry(x: &str, s: &str) -> Formula {
    Formula::and(vec![eq(fld(x, "ecl"), fld(s, "ecl")), eq(fld(x, "ecg"), fld(s, "ecg"))])
}

/// Internal-step clause: `∃t. R(t) ∧ t,s same entry ∧ ProgramInt(t → s)`.
fn clause_internal(rel: &str, rel_args: impl Fn(&str) -> Vec<Term>) -> Formula {
    Formula::exists(
        vec![("t".into(), conf())],
        Formula::and(vec![
            app(rel, rel_args("t")),
            same_entry("t", "s"),
            app(
                "ProgramInt",
                vec![
                    fld("t", "pc"),
                    fld("s", "pc"),
                    fld("t", "cl"),
                    fld("s", "cl"),
                    fld("t", "cg"),
                    fld("s", "cg"),
                ],
            ),
        ]),
    )
}

/// Call clause: `s` is a freshly-entered procedure configuration discovered
/// from a reachable caller `t`. `guard` restricts the caller (used by EFopt
/// to require a relevant call site).
fn clause_call(rel: &str, rel_args: impl Fn(&str) -> Vec<Term>, guard: Option<Formula>) -> Formula {
    let mut caller = vec![
        app(rel, rel_args("t")),
        eq(fld("t", "cg"), fld("s", "cg")),
        app(
            "ProgramCall",
            vec![fld("t", "pc"), fld("s", "pc"), fld("t", "cl"), fld("s", "cl"), fld("s", "cg")],
        ),
    ];
    if let Some(g) = guard {
        caller.push(g);
    }
    Formula::and(vec![
        app("EntryOf", vec![fld("s", "pc")]),
        eq(fld("s", "ecl"), fld("s", "cl")),
        eq(fld("s", "ecg"), fld("s", "cg")),
        Formula::exists(vec![("t".into(), conf())], Formula::and(caller)),
    ])
}

/// The *naive* return clause of §4.2: both summary sets conjoined inside a
/// single quantifier block — the BDD-product bottleneck the paper rewrites
/// away.
fn clause_return_naive(
    rel: &str,
    rel_args: impl Fn(&str) -> Vec<Term>,
    relevance: Option<Formula>,
) -> Formula {
    let mut parts = vec![
        app(rel, rel_args("t")),
        app(rel, rel_args("u")),
        same_entry("t", "s"),
        app("SkipCall", vec![fld("t", "pc"), fld("s", "pc")]),
        // The callee's entry is induced by the call site.
        Formula::exists(
            vec![("epc".into(), Type::named("PC"))],
            app(
                "ProgramCall",
                vec![fld("t", "pc"), v("epc"), fld("t", "cl"), fld("u", "ecl"), fld("t", "cg")],
            ),
        ),
        eq(fld("u", "ecg"), fld("t", "cg")),
        app("ExitOf", vec![fld("u", "pc")]),
        app("SetReturn1", vec![fld("t", "pc"), fld("t", "cl"), fld("s", "cl")]),
        app(
            "SetReturn2",
            vec![
                fld("t", "pc"),
                fld("u", "pc"),
                fld("u", "cl"),
                fld("s", "cl"),
                fld("u", "cg"),
                fld("s", "cg"),
            ],
        ),
    ];
    if let Some(g) = relevance {
        parts.push(g);
    }
    Formula::exists(vec![("t".into(), conf()), ("u".into(), conf())], Formula::and(parts))
}

/// The *split* return clause from the appendix: extract `tpc`, `tcg`,
/// `uecl`, quantify the caller and the callee summary separately, and only
/// then conjoin the two (now much smaller) sets.
fn clause_return_split(
    rel: &str,
    rel_args: impl Fn(&str) -> Vec<Term>,
    relevance: Option<Formula>,
) -> Formula {
    let caller_part = Formula::exists(
        vec![("t".into(), conf())],
        Formula::and(vec![
            app(rel, rel_args("t")),
            eq(fld("t", "pc"), v("tpc")),
            eq(fld("t", "cg"), v("tcg")),
            same_entry("t", "s"),
            app("SkipCall", vec![fld("t", "pc"), fld("s", "pc")]),
            app("SetReturn1", vec![fld("t", "pc"), fld("t", "cl"), fld("s", "cl")]),
            Formula::exists(
                vec![("epc".into(), Type::named("PC"))],
                app(
                    "ProgramCall",
                    vec![fld("t", "pc"), v("epc"), fld("t", "cl"), v("uecl"), fld("t", "cg")],
                ),
            ),
        ]),
    );
    let mut callee_parts = vec![
        app(rel, rel_args("u")),
        eq(fld("u", "ecl"), v("uecl")),
        eq(fld("u", "ecg"), v("tcg")),
        app("ExitOf", vec![fld("u", "pc")]),
        app(
            "SetReturn2",
            vec![
                v("tpc"),
                fld("u", "pc"),
                fld("u", "cl"),
                fld("s", "cl"),
                fld("u", "cg"),
                fld("s", "cg"),
            ],
        ),
    ];
    if let Some(g) = relevance {
        callee_parts.push(g);
    }
    let callee_part = Formula::exists(vec![("u".into(), conf())], Formula::and(callee_parts));
    Formula::exists(
        vec![
            ("tpc".into(), Type::named("PC")),
            ("tcg".into(), Type::named("Global")),
            ("uecl".into(), Type::named("Local")),
        ],
        Formula::and(vec![caller_part, callee_part]),
    )
}

/// The reachability query shared by all systems: a target pc occurs in the
/// computed relation.
fn reach_query(rel: &str, args: Vec<Term>) -> Formula {
    Formula::exists(
        vec![("s".into(), conf())],
        Formula::and(vec![app(rel, args), app("Target", vec![fld("s", "pc")])]),
    )
}

/// §4.1 — the simple summary algorithm. `Summary` seeds **all** entries of
/// all procedures (with every entry valuation), so it explores unreachable
/// parts of the state space; the query then filters through `EntryReach`,
/// an auxiliary fixpoint computing which entry configurations are actually
/// reachable from `Init`.
///
/// # Errors
///
/// Propagates [`SystemError`]s (none expected for a well-formed CFG).
pub fn system_simple(cfg: &Cfg) -> Result<System, SystemError> {
    let mut b = base_builder(cfg)?;
    let args = |x: &str| vec![v(x)];
    // Summary(s): s ranges over summaries of every procedure, entry
    // unconstrained (the all-entries seeding of §4.1).
    b.define(
        "Summary",
        vec![("s".into(), conf())],
        Formula::or(vec![
            // Every entry of every procedure, any valuation.
            Formula::and(vec![
                app("EntryOf", vec![fld("s", "pc")]),
                eq(fld("s", "cl"), fld("s", "ecl")),
                eq(fld("s", "cg"), fld("s", "ecg")),
            ]),
            clause_internal("Summary", args),
            clause_return_naive("Summary", args, None),
        ]),
    );
    // EntryReach(p, l, g): the entry configuration (pc = p, locals = l,
    // globals = g) is reachable from Init, chaining call edges through the
    // (eagerly computed) summaries. A summary's own entry pc is recovered
    // through the ProcEntry template (pc ↦ entry pc of its procedure).
    let entry_params = vec![
        ("p".to_string(), Type::named("PC")),
        ("l".to_string(), Type::named("Local")),
        ("g".to_string(), Type::named("Global")),
    ];
    b.define(
        "EntryReach",
        entry_params,
        Formula::or(vec![
            Formula::exists(
                vec![("s".into(), conf())],
                Formula::and(vec![
                    app("Init", vec![v("s")]),
                    eq(fld("s", "pc"), v("p")),
                    eq(fld("s", "cl"), v("l")),
                    eq(fld("s", "cg"), v("g")),
                ]),
            ),
            Formula::and(vec![
                app("EntryOf", vec![v("p")]),
                Formula::exists(
                    vec![("t".into(), conf()), ("te".into(), Type::named("PC"))],
                    Formula::and(vec![
                        app("Summary", vec![v("t")]),
                        app("ProcEntry", vec![fld("t", "pc"), v("te")]),
                        app("EntryReach", vec![v("te"), fld("t", "ecl"), fld("t", "ecg")]),
                        eq(fld("t", "cg"), v("g")),
                        app(
                            "ProgramCall",
                            vec![fld("t", "pc"), v("p"), fld("t", "cl"), v("l"), v("g")],
                        ),
                    ]),
                ),
            ]),
        ]),
    );
    b.query(
        "reach",
        Formula::exists(
            vec![("s".into(), conf()), ("te".into(), Type::named("PC"))],
            Formula::and(vec![
                app("Summary", vec![v("s")]),
                app("Target", vec![fld("s", "pc")]),
                app("ProcEntry", vec![fld("s", "pc"), v("te")]),
                app("EntryReach", vec![v("te"), fld("s", "ecl"), fld("s", "ecg")]),
            ]),
        ),
    );
    b.build()
}

/// §4.2 — the entry-forward algorithm.
///
/// With `split_return = true` this is the appendix formula (the tuned form
/// used in the evaluation); with `false` it is the direct transcription
/// whose return clause conjoins two full summary sets (the E7 ablation).
///
/// # Errors
///
/// Propagates [`SystemError`]s (none expected for a well-formed CFG).
pub fn system_ef(cfg: &Cfg, split_return: bool) -> Result<System, SystemError> {
    build_ef(cfg, split_return, true)
}

/// The entry-forward system *without* the early-termination disjunct: the
/// fixpoint of `Reachable` is then exactly the entry-annotated reachable
/// set. (With early termination, the relation saturates to the whole
/// `Conf` domain the moment a target is found — correct for the Boolean
/// verdict, useless as a provenance structure.)
///
/// # Errors
///
/// Propagates [`SystemError`]s (none expected for a well-formed CFG).
pub fn system_ef_trace(cfg: &Cfg, split_return: bool) -> Result<System, SystemError> {
    build_ef(cfg, split_return, false)
}

fn build_ef(cfg: &Cfg, split_return: bool, early_exit: bool) -> Result<System, SystemError> {
    let mut b = base_builder(cfg)?;
    let args = |x: &str| vec![v(x)];
    let ret_clause = if split_return {
        clause_return_split("Reachable", args, None)
    } else {
        clause_return_naive("Reachable", args, None)
    };
    let mut clauses = Vec::new();
    if early_exit {
        // Early termination (appendix): once a target is reachable the
        // relation saturates and the iteration stops immediately.
        clauses.push(Formula::exists(
            vec![("t".into(), conf())],
            Formula::and(vec![app("Target", vec![fld("t", "pc")]), app("Reachable", vec![v("t")])]),
        ));
    }
    clauses.extend([
        app("Init", vec![v("s")]),
        clause_internal("Reachable", args),
        clause_call("Reachable", args, None),
        ret_clause,
    ]);
    b.define("Reachable", vec![("s".into(), conf())], Formula::or(clauses));
    b.query("reach", reach_query("Reachable", vec![v("s")]));
    b.build()
}

/// §4.3 — the optimized entry-forward algorithm, with the frontier bit and
/// the `Relevant` pc projection. `Relevant` reads the *complement* of
/// `SummaryEFopt(0, ·)`, making the system non-monotone; evaluation is
/// meaningful (and terminating) under the §3 operational semantics.
///
/// # Errors
///
/// Propagates [`SystemError`]s (none expected for a well-formed CFG).
pub fn system_efopt(cfg: &Cfg) -> Result<System, SystemError> {
    let mut b = base_builder(cfg)?;
    b.declare_type("Fr", Type::Range(2))?;
    let args1 = |x: &str| vec![Term::int(1), v(x)];

    b.define(
        "SummaryEFopt",
        vec![("fr".into(), Type::named("Fr")), ("s".into(), conf())],
        Formula::or(vec![
            // [1] initial configurations, marked fresh.
            Formula::and(vec![eq(v("fr"), Term::int(1)), app("Init", vec![v("s")])]),
            // [2] every (1, s) also enters as (0, s) and persists as (1, s).
            app("SummaryEFopt", vec![Term::int(1), v("s")]),
            // [3] newly discovered configurations, marked fresh.
            Formula::and(vec![
                eq(v("fr"), Term::int(1)),
                Formula::or(vec![app("New1", vec![v("s")]), app("New2", vec![v("s")])]),
            ]),
        ]),
    );

    // [4] the pc projection of the tuples discovered last round. The
    // negation makes this non-monotone in SummaryEFopt.
    b.define(
        "Relevant",
        vec![("p".into(), Type::named("PC"))],
        Formula::exists(
            vec![("s".into(), conf())],
            Formula::and(vec![
                app("SummaryEFopt", vec![Term::int(1), v("s")]),
                Formula::not(app("SummaryEFopt", vec![Term::int(0), v("s")])),
                eq(fld("s", "pc"), v("p")),
            ]),
        ),
    );

    // [5-6] image-closure of the relevant set under internal transitions.
    b.define(
        "New1",
        vec![("s".into(), conf())],
        Formula::or(vec![
            Formula::and(vec![
                app("SummaryEFopt", vec![Term::int(1), v("s")]),
                app("Relevant", vec![fld("s", "pc")]),
            ]),
            clause_internal("New1", |x| vec![v(x)]),
        ]),
    );

    // [7-11] one round of calls and returns from relevant configurations.
    b.define(
        "New2",
        vec![("s".into(), conf())],
        Formula::or(vec![
            // [7] calls from relevant call sites.
            clause_call("SummaryEFopt", args1, Some(app("Relevant", vec![fld("t", "pc")]))),
            // [8-11] returns where the caller or the exit is relevant —
            // requiring both would miss pairs discovered in different
            // rounds (the paper's clause-11 subtlety).
            clause_return_split(
                "SummaryEFopt",
                args1,
                Some(Formula::or(vec![
                    app("Relevant", vec![v("tpc")]),
                    app("Relevant", vec![fld("u", "pc")]),
                ])),
            ),
        ]),
    );

    b.query("reach", reach_query("SummaryEFopt", vec![Term::int(1), v("s")]));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use getafix_boolprog::parse_program;

    fn cfg() -> Cfg {
        Cfg::build(
            &parse_program(
                r#"
                decl g;
                main() begin
                  decl x;
                  x := *;
                  g := f(x);
                  if (g) then HIT: skip; fi;
                end
                f(a) returns 1 begin
                  return !a;
                end
                "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn systems_build_and_typecheck() {
        let cfg = cfg();
        let simple = system_simple(&cfg).unwrap();
        assert!(simple.relation("Summary").is_some());
        let ef = system_ef(&cfg, true).unwrap();
        assert!(ef.relation("Reachable").is_some());
        let ef_naive = system_ef(&cfg, false).unwrap();
        assert!(ef_naive.relation("Reachable").is_some());
        let efopt = system_efopt(&cfg).unwrap();
        assert!(efopt.relation("SummaryEFopt").is_some());
        assert!(efopt.relation("Relevant").is_some());
    }

    #[test]
    fn ef_is_positive_but_efopt_is_not() {
        let cfg = cfg();
        let ef = system_ef(&cfg, true).unwrap();
        assert!(ef.is_positive("Reachable"), "EF is a plain least fixpoint");
        let efopt = system_efopt(&cfg).unwrap();
        assert!(
            !efopt.is_positive("Relevant"),
            "Relevant reads a complement — the non-monotone operator §4.3 needs"
        );
    }

    #[test]
    fn systems_pretty_print_one_page() {
        // The paper's headline: each algorithm is a page of formulae.
        let cfg = cfg();
        let ef = system_ef(&cfg, true).unwrap();
        let text = ef.to_string();
        assert!(text.lines().count() < 80, "EF fits on a page:\n{text}");
        let efopt = system_efopt(&cfg).unwrap();
        assert!(efopt.to_string().lines().count() < 120);
    }
}
