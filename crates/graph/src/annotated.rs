//! Condition-annotated transitive closure — the paper's Definition 3.
//!
//! Given `a1 → a2 →_T a3 → a4`, the paper writes the closure of `a1` as
//! `{a2, a3(T@a2), a4(T@a2)}`: activities reached through a conditional
//! constraint carry the guard annotation, and the annotation propagates to
//! everything downstream of the guard.
//!
//! We generalize this soundly to multiple paths: the annotation of a
//! reachable node is the **set of minimal guard-sets** over all paths from
//! the source (a monotone DNF). A path with no guards contributes the empty
//! guard-set, which absorbs every other term ("reachable unconditionally").
//! Two closures are *the same* (Definition 3's note) iff they reach the same
//! nodes with identical minimal DNFs.
//!
//! The guard type `G` is abstract; the DSCL crate instantiates it with
//! `(guard activity, branch value)` pairs.

use crate::digraph::{DiGraph, EdgeId, NodeId};
use crate::topo::{topo_sort, CycleError};
use std::collections::BTreeMap;

/// A conjunction of guards, kept sorted and deduplicated.
pub type GuardSet<G> = Vec<G>;

/// A monotone DNF over guards: the set of *minimal* guard-sets under
/// inclusion. Canonically sorted, so `Eq` is semantic equality (and
/// `Hash` is consistent with it — required by [`crate::intern::DnfPool`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Dnf<G> {
    terms: Vec<GuardSet<G>>,
}

impl<G: Ord + Clone> Dnf<G> {
    /// The DNF with no terms (unreachable / identity for union).
    pub fn empty() -> Self {
        Dnf { terms: Vec::new() }
    }

    /// The DNF containing only the unconditional term `{}` ("always").
    pub fn always() -> Self {
        Dnf {
            terms: vec![Vec::new()],
        }
    }

    /// A DNF with a single conjunction term.
    pub fn term(mut gs: GuardSet<G>) -> Self {
        gs.sort();
        gs.dedup();
        Dnf { terms: vec![gs] }
    }

    /// True if no term exists.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// True if the unconditional term `{}` is present (and, by minimality,
    /// is the only term).
    pub fn is_always(&self) -> bool {
        self.terms.first().is_some_and(Vec::is_empty)
    }

    /// The minimal terms, each sorted, in canonical order.
    pub fn terms(&self) -> &[GuardSet<G>] {
        &self.terms
    }

    /// Adds a term; returns true if coverage grew. Maintains minimality:
    /// a term subsumed by an existing subset is dropped, and existing
    /// supersets of the new term are removed.
    pub fn insert(&mut self, mut gs: GuardSet<G>) -> bool {
        gs.sort();
        gs.dedup();
        if self.terms.iter().any(|t| is_subset(t, &gs)) {
            return false;
        }
        self.terms.retain(|t| !is_subset(&gs, t));
        let pos = self.terms.binary_search(&gs).unwrap_err();
        self.terms.insert(pos, gs);
        true
    }

    /// Union with another DNF; returns true if coverage grew.
    pub fn union_with(&mut self, other: &Dnf<G>) -> bool {
        let mut changed = false;
        for t in &other.terms {
            changed |= self.insert(t.clone());
        }
        changed
    }

    /// Every term of `self`, each extended with `extra`, inserted into
    /// `target`; returns true if `target`'s coverage grew. This is the
    /// "walk one more (possibly guarded) edge" composition step.
    pub fn compose_into(&self, extra: Option<&G>, target: &mut Dnf<G>) -> bool {
        let mut changed = false;
        for t in &self.terms {
            let mut gs = t.clone();
            if let Some(g) = extra {
                gs.push(g.clone());
            }
            changed |= target.insert(gs);
        }
        changed
    }
}

/// Sorted-slice subset test.
fn is_subset<G: Ord>(small: &[G], big: &[G]) -> bool {
    let mut i = 0;
    for b in big {
        if i == small.len() {
            return true;
        }
        match small[i].cmp(b) {
            std::cmp::Ordering::Equal => i += 1,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Greater => {}
        }
    }
    i == small.len()
}

/// One closure row: target node index → annotation DNF.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Row<G> {
    entries: BTreeMap<u32, Dnf<G>>,
}

impl<G: Ord + Clone> Row<G> {
    /// Empty row.
    pub fn new() -> Self {
        Row {
            entries: BTreeMap::new(),
        }
    }

    /// The annotation with which `n` is reached, if reachable.
    pub fn get(&self, n: NodeId) -> Option<&Dnf<G>> {
        self.entries.get(&n.0)
    }

    /// True if `n` is reachable (under any condition).
    pub fn reaches(&self, n: NodeId) -> bool {
        self.entries.contains_key(&n.0)
    }

    /// Number of reachable targets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(target, dnf)` in ascending target order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Dnf<G>)> {
        self.entries.iter().map(|(&i, d)| (NodeId(i), d))
    }

    fn entry(&mut self, n: NodeId) -> &mut Dnf<G> {
        self.entries.entry(n.0).or_insert_with(Dnf::empty)
    }

    /// Adds one guard-set term to the annotation of `n`; returns true if
    /// coverage grew.
    pub fn add_term(&mut self, n: NodeId, term: GuardSet<G>) -> bool {
        self.entry(n).insert(term)
    }

    /// Folds `dnf ⊗ extra` into the annotation of `n`; returns true if
    /// coverage grew.
    pub fn compose_from(&mut self, n: NodeId, dnf: &Dnf<G>, extra: Option<&G>) -> bool {
        dnf.compose_into(extra, self.entry(n))
    }

    /// Definition 4's per-activity test, annotation-exact: every target of
    /// `self` is a target of `other` **with the same minimal DNF**.
    pub fn covered_by(&self, other: &Row<G>) -> bool
    where
        G: PartialEq,
    {
        self.entries
            .iter()
            .all(|(i, d)| other.entries.get(i) == Some(d))
    }
}

/// Extracts the closure-relevant view of an edge: `(target, guard)` where
/// `guard` is `None` for unconditional constraints.
pub trait GuardFn<E, G> {
    /// The guard carried by edge `e` with weight `w`, if conditional.
    fn guard(&self, e: EdgeId, w: &E) -> Option<G>;
}

impl<E, G, F: Fn(EdgeId, &E) -> Option<G>> GuardFn<E, G> for F {
    fn guard(&self, e: EdgeId, w: &E) -> Option<G> {
        self(e, w)
    }
}

/// Composes the row of `n` from its out-edges and the rows of its
/// successors: `row(n) = ⋃_{n →g m} ({m: g} ∪ g ⊗ row(m))`.
///
/// `row_of(m)` must already be the finished row of `m` (reverse topological
/// processing guarantees this on DAGs). Returns the freshly built row.
pub fn compose_row<N, E, G: Ord + Clone>(
    g: &DiGraph<N, E>,
    n: NodeId,
    guard_of: &impl GuardFn<E, G>,
    mut row_of: impl FnMut(NodeId) -> Row<G>,
) -> Row<G> {
    let mut row = Row::new();
    for e in g.out_edges(n) {
        let (_, m) = g.endpoints(e);
        let guard = guard_of.guard(e, g.edge_weight(e));
        // Direct edge n -> m.
        row.entry(m).insert(match &guard {
            Some(gu) => vec![gu.clone()],
            None => Vec::new(),
        });
        // Everything m reaches, with the edge guard appended.
        let mrow = row_of(m);
        for (t, dnf) in mrow.iter() {
            dnf.compose_into(guard.as_ref(), row.entry(t));
        }
    }
    row
}

/// The full condition-annotated transitive closure (all rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnnotatedClosure<G> {
    rows: Vec<Row<G>>,
}

impl<G: Ord + Clone> AnnotatedClosure<G> {
    /// The row for `n`.
    pub fn row(&self, n: NodeId) -> &Row<G> {
        &self.rows[n.index()]
    }

    /// All rows indexed by node index (tombstone slots hold empty rows).
    pub fn rows(&self) -> &[Row<G>] {
        &self.rows
    }

    /// Consumes the closure, yielding the rows.
    pub fn into_rows(self) -> Vec<Row<G>> {
        self.rows
    }
}

/// Computes the annotated closure of a **DAG** in one reverse-topological
/// pass. Returns the cycle error untouched for cyclic inputs — the callers
/// (optimizer, validator) treat cycles as specification conflicts and
/// report them separately.
pub fn annotated_closure<N, E, G: Ord + Clone>(
    g: &DiGraph<N, E>,
    guard_of: &impl GuardFn<E, G>,
) -> Result<AnnotatedClosure<G>, CycleError> {
    let order = topo_sort(g)?;
    let mut rows: Vec<Row<G>> = vec![Row::new(); g.node_bound()];
    for &n in order.iter().rev() {
        let row = compose_row(g, n, guard_of, |m| rows[m.index()].clone());
        rows[n.index()] = row;
    }
    Ok(AnnotatedClosure { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    type G = (u32, bool); // (guard node raw id, branch value)

    fn guard_of() -> impl Fn(EdgeId, &Option<G>) -> Option<G> {
        |_, w: &Option<G>| *w
    }

    /// The paper's running example: a1 → a2 →_T a3 → a4.
    #[test]
    fn paper_definition3_example() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a1 = g.add_node(());
        let a2 = g.add_node(());
        let a3 = g.add_node(());
        let a4 = g.add_node(());
        g.add_edge(a1, a2, None);
        g.add_edge(a2, a3, Some((a2.0, true)));
        g.add_edge(a3, a4, None);
        let c = annotated_closure(&g, &guard_of()).unwrap();
        let r = c.row(a1);
        // a1+ = {a2, a3(T@a2), a4(T@a2)}
        assert_eq!(r.len(), 3);
        assert!(r.get(a2).unwrap().is_always());
        assert_eq!(r.get(a3).unwrap().terms(), &[vec![(a2.0, true)]]);
        assert_eq!(r.get(a4).unwrap().terms(), &[vec![(a2.0, true)]]);
        // a2+ = {a3(T@a2), a4(T@a2)} — the annotation note applies from the
        // conditional edge onward.
        let r2 = c.row(a2);
        assert_eq!(r2.get(a4).unwrap().terms(), &[vec![(a2.0, true)]]);
    }

    #[test]
    fn unconditional_path_absorbs_conditional() {
        // a → b (direct) and a →_T c → b: b is reachable unconditionally.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, None);
        g.add_edge(a, c, Some((a.0, true)));
        g.add_edge(c, b, None);
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        assert!(cl.row(a).get(b).unwrap().is_always());
        assert_eq!(cl.row(a).get(c).unwrap().terms(), &[vec![(a.0, true)]]);
    }

    #[test]
    fn alternative_guards_kept_as_separate_terms() {
        // a →_T b and a →_F c →(unconditionally) b ... both guarded paths
        // to d: d carries two minimal one-guard terms.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(a, c, Some((a.0, false)));
        g.add_edge(b, d, None);
        g.add_edge(c, d, None);
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        let dnf = cl.row(a).get(d).unwrap();
        assert_eq!(dnf.terms().len(), 2);
        assert_eq!(
            dnf.terms(),
            &[vec![(a.0, false)], vec![(a.0, true)]],
            "canonical order"
        );
    }

    #[test]
    fn nested_guards_accumulate() {
        // a →_T b →_F c: c annotated with both guards.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(b, c, Some((b.0, false)));
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        assert_eq!(
            cl.row(a).get(c).unwrap().terms(),
            &[vec![(a.0, true), (b.0, false)]]
        );
    }

    #[test]
    fn dnf_minimality() {
        let mut d: Dnf<u32> = Dnf::empty();
        assert!(d.insert(vec![1, 2]));
        assert!(d.insert(vec![3]));
        assert!(!d.insert(vec![1, 2, 3]), "superset of an existing term is subsumed");
        assert!(d.insert(vec![1]), "subset replaces wider term");
        assert_eq!(d.terms(), &[vec![1], vec![3]]);
        assert!(!d.insert(vec![1]));
        assert!(d.insert(vec![]), "always absorbs everything");
        assert!(d.is_always());
        assert_eq!(d.terms().len(), 1);
    }

    #[test]
    fn dnf_union() {
        let mut a: Dnf<u32> = Dnf::term(vec![1]);
        let b: Dnf<u32> = Dnf::term(vec![2]);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.terms().len(), 2);
    }

    #[test]
    fn row_cover_is_annotation_exact() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(b, c, None);
        let cl = annotated_closure(&g, &guard_of()).unwrap();

        // Same graph but with the guard dropped: rows differ.
        let mut g2: DiGraph<(), Option<G>> = DiGraph::new();
        let a2 = g2.add_node(());
        let b2 = g2.add_node(());
        let c2 = g2.add_node(());
        g2.add_edge(a2, b2, None);
        g2.add_edge(b2, c2, None);
        let cl2 = annotated_closure(&g2, &guard_of()).unwrap();

        assert!(cl.row(a).covered_by(cl.row(a)));
        assert!(
            !cl.row(a).covered_by(cl2.row(a2)),
            "conditional vs unconditional annotations are not the same"
        );
    }

    #[test]
    fn cycle_is_reported() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, None);
        g.add_edge(b, a, None);
        assert!(annotated_closure(&g, &guard_of()).is_err());
    }

    #[test]
    fn compose_row_matches_full_closure() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(b, c, None);
        g.add_edge(a, c, Some((a.0, false)));
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        let rebuilt = compose_row(&g, a, &guard_of(), |m| cl.row(m).clone());
        assert_eq!(&rebuilt, cl.row(a));
    }
}
