//! Static relation-dependency analysis of an equation system.
//!
//! The worklist solver (`worklist.rs`) schedules evaluation from the
//! *dependency graph* of the system's fixpoint relations: relation `R`
//! depends on `S` when `S` is applied somewhere in `R`'s defining body.
//! This module extracts that graph, contracts it to strongly connected
//! components (Tarjan), and orders the components topologically so that a
//! component is only solved after everything it reads from is already
//! fixed — the "dependency-ordered iteration over equation systems" of
//! Kuncak–Leino, lifted from boolean equations to first-order relations.
//!
//! Relations are numbered by their [`System`] declaration index
//! ([`System::relation_id`]), the one relation id the whole solver keys
//! its tables by; input relations simply have no edges and no component.
//! The numbering preserves the declaration order of the fixpoint
//! relations, and Tarjan visits roots and successors in ascending id, so
//! the components, their member order and every [`DepGraph::ordered_plan`]
//! depend only on that relative order.
//!
//! Each SCC is additionally classified:
//!
//! * **recursive** — more than one member, or a self-application; a
//!   non-recursive component needs exactly one evaluation pass;
//! * **monotone** — no member's body applies another member under an odd
//!   number of negations. Monotone recursive components have a least fixed
//!   point by Tarski–Knaster, so *any* fair chaotic iteration converges to
//!   it; non-monotone components (the §4.3 `Relevant` pattern) only have
//!   the paper's §3 operational semantics and must be iterated in the exact
//!   nested order that semantics prescribes.

use crate::system::{RelationKind, System};
use std::collections::{BTreeMap, BTreeSet};

/// One strongly connected component of the relation-dependency graph.
#[derive(Debug, Clone)]
pub struct Scc {
    /// Member relation ids, ascending.
    pub members: Vec<usize>,
    /// Does any member depend on a member (including itself)?
    pub recursive: bool,
    /// Is every intra-component application positive?
    pub monotone: bool,
    /// Fixpoint relations outside the component that members apply.
    pub external_deps: Vec<usize>,
}

/// The evaluation plan of a non-monotone component that fits the §4.3
/// **frontier pattern** (see [`DepGraph::ordered_plan`]): one *anchor*
/// relation plays the role of the frozen outer fixpoint, and the remaining
/// members — which form a DAG modulo self-loops once the anchor is removed
/// — are re-derived from it in dependency-rank order each round. Iterating
/// on this plan reproduces the §3 nested semantics round for round while
/// letting the engine skip every recompilation whose inputs did not
/// change.
#[derive(Debug, Clone)]
pub struct OrderedPlan {
    /// The anchor relation (the evaluation root; its value is the frozen
    /// environment of each round).
    pub anchor: usize,
    /// Non-anchor members in dependency order (dependencies first): the
    /// rank order one round of the schedule evaluates them in.
    pub ranks: Vec<usize>,
    /// `self_recursive[i]`: does `ranks[i]` apply itself (and therefore
    /// need an inner fixpoint from `⊥` each round)?
    pub self_recursive: Vec<bool>,
}

/// The relation-dependency graph of a [`System`], with its condensation.
/// Every index is a relation id ([`System::relation_id`]).
#[derive(Debug)]
pub struct DepGraph {
    /// `deps[i]`: ids of the fixpoint relations applied in the body of `i`
    /// (empty for an input relation).
    deps: Vec<BTreeSet<usize>>,
    /// `negative[i]`: the subset of `deps[i]` occurring under an odd number
    /// of negations in the body of `i`.
    negative: Vec<BTreeSet<usize>>,
    /// Components in topological order: every dependency of a component
    /// lives in an earlier (or the same) component.
    sccs: Vec<Scc>,
    /// Relation id → index of its component in `sccs` (`None` for inputs).
    scc_of: Vec<Option<usize>>,
}

impl DepGraph {
    /// Extracts the dependency graph of `system`'s fixpoint relations.
    pub fn build(system: &System) -> DepGraph {
        let relations = system.relations();
        let n = relations.len();
        let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut negative: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (i, rel) in relations.iter().enumerate() {
            let Some(body) = &rel.body else { continue };
            for applied in body.relations() {
                let j = system
                    .relation_id(&applied)
                    .expect("checked system applies declared relations");
                if relations[j].kind == RelationKind::Fixpoint {
                    deps[i].insert(j);
                    if body.occurs_negatively(&applied) {
                        negative[i].insert(j);
                    }
                }
            }
        }

        let fixpoints = (0..n).filter(|&i| relations[i].kind == RelationKind::Fixpoint);
        let (sccs_members, scc_of) = tarjan(fixpoints, &deps);
        let sccs = sccs_members
            .into_iter()
            .map(|members| {
                let mset: BTreeSet<usize> = members.iter().copied().collect();
                let recursive = members.len() > 1 || members.iter().any(|&i| deps[i].contains(&i));
                let monotone =
                    members.iter().all(|&i| negative[i].intersection(&mset).next().is_none());
                let mut external: BTreeSet<usize> = BTreeSet::new();
                for &i in &members {
                    external.extend(deps[i].difference(&mset).copied());
                }
                Scc { members, recursive, monotone, external_deps: external.into_iter().collect() }
            })
            .collect();

        DepGraph { deps, negative, sccs, scc_of }
    }

    /// Direct fixpoint dependencies of relation `i`.
    pub fn deps(&self, i: usize) -> &BTreeSet<usize> {
        &self.deps[i]
    }

    /// The subset of `deps(i)` applied under an odd number of negations.
    pub fn negative_deps(&self, i: usize) -> &BTreeSet<usize> {
        &self.negative[i]
    }

    /// The components in topological order (dependencies first).
    pub fn sccs(&self) -> &[Scc] {
        &self.sccs
    }

    /// The component index of fixpoint relation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is an input relation: inputs belong to no component.
    pub fn scc_of(&self, i: usize) -> usize {
        self.scc_of[i].expect("input relations belong to no component")
    }

    /// Classifies component `scc` as an instance of the §4.3 **frontier
    /// pattern** anchored at `anchor` (which must be a member): the
    /// component minus the anchor must be acyclic apart from self-loops.
    /// Under that shape, each §3 round of `Evaluate(anchor)` derives every
    /// other member as a *function of the frozen anchor value* — single
    /// compilations for DAG members, an inner fixpoint from `⊥` for
    /// self-recursive ones — so an ordered change-driven schedule
    /// reproduces the nested reference semantics exactly (the argument
    /// does not depend on edge polarities at all; negative edges are
    /// simply reads of already-fixed values).
    ///
    /// Returns the plan (non-anchor members topologically sorted,
    /// dependencies first), or `None` when two non-anchor members are
    /// mutually recursive — then only the nested semantics applies.
    pub fn ordered_plan(&self, scc: usize, anchor: usize) -> Option<OrderedPlan> {
        let members = &self.sccs[scc].members;
        if !members.contains(&anchor) {
            return None;
        }
        let rest: Vec<usize> = members.iter().copied().filter(|&m| m != anchor).collect();
        let in_rest: BTreeSet<usize> = rest.iter().copied().collect();
        // Kahn's algorithm over intra-component edges, anchor and
        // self-loops removed.
        let mut indegree: BTreeMap<usize, usize> = rest.iter().map(|&m| (m, 0)).collect();
        for &m in &rest {
            for &d in &self.deps[m] {
                if d != m && in_rest.contains(&d) {
                    *indegree.get_mut(&m).expect("member") += 1;
                }
            }
        }
        let mut ready: Vec<usize> = rest.iter().copied().filter(|m| indegree[m] == 0).collect();
        let mut ranks = Vec::with_capacity(rest.len());
        while let Some(m) = ready.pop() {
            ranks.push(m);
            for &n in &rest {
                if n != m && self.deps[n].contains(&m) {
                    let e = indegree.get_mut(&n).expect("member");
                    *e -= 1;
                    if *e == 0 {
                        ready.push(n);
                    }
                }
            }
        }
        if ranks.len() != rest.len() {
            return None; // a cycle among non-anchor members
        }
        let self_recursive = ranks.iter().map(|&m| self.deps[m].contains(&m)).collect();
        Some(OrderedPlan { anchor, ranks, self_recursive })
    }

    /// All relation indices transitively needed to evaluate `root`
    /// (including `root` itself).
    pub fn transitive_deps(&self, root: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if seen.insert(i) {
                stack.extend(self.deps[i].iter().copied());
            }
        }
        seen
    }
}

/// Iterative Tarjan SCC over the nodes reachable from `roots`, visited in
/// the order given. Edges point from a relation to its dependencies, so
/// components are emitted dependencies-first — already the evaluation
/// order the solver wants.
fn tarjan(
    roots: impl Iterator<Item = usize>,
    deps: &[BTreeSet<usize>],
) -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
    const UNSET: usize = usize::MAX;
    let n = deps.len();
    let mut indexes = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![None; n];

    // Explicit DFS frames: (node, iterator position over deps).
    for start in roots {
        if indexes[start] != UNSET {
            continue;
        }
        let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succs: Vec<usize> = deps[start].iter().copied().collect();
        indexes[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, succs, 0));

        while let Some(&mut (v, ref succs, ref mut pos)) = frames.last_mut() {
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if indexes[w] == UNSET {
                    indexes[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    let wsuccs: Vec<usize> = deps[w].iter().copied().collect();
                    frames.push((w, wsuccs, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(indexes[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == indexes[v] {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack nonempty");
                        on_stack[w] = false;
                        scc_of[w] = Some(sccs.len());
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members.sort_unstable();
                    sccs.push(members);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_system;

    fn graph(src: &str) -> (System, DepGraph) {
        let sys = parse_system(src).unwrap();
        let g = DepGraph::build(&sys);
        (sys, g)
    }

    fn names<'s>(sys: &'s System, ids: &[usize]) -> Vec<&'s str> {
        ids.iter().map(|&i| sys.relations()[i].name.as_str()).collect()
    }

    #[test]
    fn single_self_recursive_relation() {
        let (sys, g) = graph(
            r#"
            type S = range 4;
            input Init(s: S);
            input Trans(s: S, t: S);
            mu Reach(u: S) :=
                Init(u) | (exists x: S. Reach(x) & Trans(x, u));
            "#,
        );
        assert_eq!(g.sccs().len(), 1);
        assert_eq!(names(&sys, &g.sccs()[0].members), vec!["Reach"]);
        let scc = &g.sccs()[0];
        assert!(scc.recursive && scc.monotone);
        assert!(scc.external_deps.is_empty());
    }

    #[test]
    fn stratified_chain_is_topologically_ordered() {
        let (sys, g) = graph(
            r#"
            type S = range 4;
            input I(s: S);
            mu A(s: S) := I(s) | A(s);
            mu B(s: S) := A(s);
            mu C(s: S) := B(s) | C(s);
            "#,
        );
        assert_eq!(g.sccs().len(), 3);
        // Dependencies first: A's component before B's before C's.
        let id = |name: &str| sys.relation_id(name).unwrap();
        let pos = |name: &str| g.scc_of(id(name));
        assert!(pos("A") < pos("B"));
        assert!(pos("B") < pos("C"));
        // B is non-recursive; A and C are.
        assert!(!g.sccs()[pos("B")].recursive);
        assert!(g.sccs()[pos("A")].recursive);
        // C's component reads B from outside.
        assert_eq!(g.sccs()[pos("C")].external_deps, vec![id("B")]);
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        let (_, g) = graph(
            r#"
            type N = range 4;
            input Zero(n: N);
            input Succ(n: N, m: N);
            mu Even(n: N) := Zero(n) | (exists m: N. Odd(m) & Succ(m, n));
            mu Odd(n: N) := exists m: N. Even(m) & Succ(m, n);
            "#,
        );
        assert_eq!(g.sccs().len(), 1);
        let scc = &g.sccs()[0];
        assert_eq!(scc.members.len(), 2);
        assert!(scc.recursive && scc.monotone);
    }

    #[test]
    fn negative_intra_component_edge_is_nonmonotone() {
        let (sys, g) = graph(
            r#"
            type Fr = range 2;
            type S = range 4;
            input Init(s: S);
            mu R(fr: Fr, s: S) := (fr = 1 & Init(s)) | R(1, s) | (fr = 1 & Frontier(s));
            mu Frontier(s: S) := R(1, s) & !R(0, s);
            "#,
        );
        assert_eq!(g.sccs().len(), 1, "R and Frontier are mutually recursive");
        assert!(!g.sccs()[0].monotone);
        let r = sys.relation_id("Frontier").unwrap();
        assert_eq!(g.negative_deps(r).len(), 1);
    }

    #[test]
    fn negation_outside_the_component_keeps_monotonicity() {
        let (sys, g) = graph(
            r#"
            type S = range 4;
            input I(s: S);
            mu Base(s: S) := I(s) | Base(s);
            mu Up(s: S) := (Base(s) & !Dead(s)) | Up(s);
            mu Dead(s: S) := Base(s);
            "#,
        );
        let up = g.scc_of(sys.relation_id("Up").unwrap());
        assert!(g.sccs()[up].monotone, "negation of an earlier stratum is fine");
        let dead = g.scc_of(sys.relation_id("Dead").unwrap());
        assert!(dead < up);
    }

    #[test]
    fn frontier_pattern_is_classified_and_ranked() {
        // The ef-opt shape: anchor R; Frontier/New form a DAG (New reads
        // Frontier) with a self-loop on New.
        let (sys, g) = graph(
            r#"
            type Fr = range 2;
            type S = range 4;
            input Init(s: S);
            input Edge(s: S, t: S);
            mu R(fr: Fr, s: S) := (fr = 1 & Init(s)) | R(1, s) | (fr = 1 & New(s));
            mu Frontier(s: S) := R(1, s) & !R(0, s);
            mu New(s: S) :=
                Frontier(s) | (exists x: S. New(x) & Edge(x, s));
            "#,
        );
        assert_eq!(g.sccs().len(), 1);
        assert!(!g.sccs()[0].monotone);
        let r = sys.relation_id("R").unwrap();
        let plan = g.ordered_plan(0, r).expect("frontier pattern anchored at R");
        assert_eq!(plan.anchor, r);
        // Dependencies first: Frontier before New.
        assert_eq!(names(&sys, &plan.ranks), vec!["Frontier", "New"]);
        assert_eq!(plan.self_recursive, vec![false, true]);
        // Anchored at Frontier the rest (R ↔ New through each other's
        // bodies? R reads New, New reads Frontier only) is still a DAG:
        // R → New is the only edge, so a plan exists there too.
        let f = sys.relation_id("Frontier").unwrap();
        let plan_f = g.ordered_plan(0, f).expect("anchored at Frontier");
        assert_eq!(names(&sys, &plan_f.ranks), vec!["New", "R"]);
    }

    #[test]
    fn mutually_recursive_satellites_defeat_the_pattern() {
        // Removing the anchor leaves A ↔ B mutually recursive: no ordered
        // plan, the nested reference semantics is the only meaning.
        let (sys, g) = graph(
            r#"
            type S = range 4;
            input I(s: S);
            mu Anchor(s: S) := I(s) | A(s) | (Anchor(s) & !B(s));
            mu A(s: S) := B(s) | Anchor(s);
            mu B(s: S) := A(s);
            "#,
        );
        assert_eq!(g.sccs().len(), 1);
        let anchor = sys.relation_id("Anchor").unwrap();
        assert!(g.ordered_plan(0, anchor).is_none());
        // A non-member anchor is rejected outright.
        assert!(g.ordered_plan(0, 99).is_none());
    }

    #[test]
    fn transitive_deps_cover_the_cone() {
        let (sys, g) = graph(
            r#"
            type S = range 4;
            input I(s: S);
            mu A(s: S) := I(s) | A(s);
            mu B(s: S) := A(s);
            mu C(s: S) := B(s);
            mu Unrelated(s: S) := I(s);
            "#,
        );
        let cone = g.transitive_deps(sys.relation_id("C").unwrap());
        assert_eq!(cone.len(), 3);
        assert!(!cone.contains(&sys.relation_id("Unrelated").unwrap()));
    }
}
