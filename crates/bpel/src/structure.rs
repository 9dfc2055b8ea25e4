//! Series-parallel structure recovery: turning a minimal constraint DAG
//! back into nested `sequence`/`flow` constructs where the shape allows,
//! with the irreducible remainder expressed as explicit links.
//!
//! This closes the loop between the two paradigms the paper relates (§5:
//! "our work can be regarded as an intermediate representation for both
//! paradigms"): dependencies → optimization → and, when the result happens
//! to be series-parallel, ordinary structured BPEL again.
//!
//! Algorithm: iterative reduction over a block graph —
//!
//! * **series**: `u → v` with `out(u) = {v}` and `in(v) = {u}` merges into
//!   a sequence block;
//! * **parallel**: two blocks with identical predecessor *and* successor
//!   sets merge into a flow block.
//!
//! A fully series-parallel DAG reduces to a single block; anything left
//! over (N-shapes, cross-branch synchronization like the Purchasing
//! process's `recShip_si → invPurchase_si`) is emitted as `flow` links.
//! Conditional constraints never participate in reduction — they remain
//! links with their transition conditions.

use dscweaver_dscl::{ActivityState, ConstraintSet, Relation};
use dscweaver_graph::{DiGraph, NodeId};
use dscweaver_model::{Activity, Construct, Link, Process};
use std::collections::BTreeSet;

/// The outcome of recovery.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// The structured part (a single construct covering every activity).
    pub root: Construct,
    /// Constraints that did not fit the series-parallel skeleton, as
    /// links (to be attached to the enclosing flow).
    pub links: Vec<Link>,
    /// True if the whole constraint set reduced to pure structure (no
    /// links needed).
    pub fully_structured: bool,
}

#[derive(Clone, Debug)]
enum Block {
    Leaf(String),
    Seq(Vec<Block>),
    Par(Vec<Block>),
}

impl Block {
    fn into_construct(self, lookup: &dyn Fn(&str) -> Activity) -> Construct {
        match self {
            Block::Leaf(name) => Construct::Act(lookup(&name)),
            Block::Seq(items) => Construct::Sequence(
                items.into_iter().map(|b| b.into_construct(lookup)).collect(),
            ),
            Block::Par(items) => Construct::flow(
                items.into_iter().map(|b| b.into_construct(lookup)).collect(),
            ),
        }
    }

    fn first_activity(&self) -> &str {
        match self {
            Block::Leaf(n) => n,
            Block::Seq(v) | Block::Par(v) => v[0].first_activity(),
        }
    }
}

/// Recovers structure from a (desugared, service-free) constraint set.
/// Activity kinds are looked up in `process` when available.
pub fn recover_structure(cs: &ConstraintSet, process: Option<&Process>) -> Recovered {
    // Block graph: start with one leaf per activity; unconditional
    // F→S constraints are candidate structure edges, everything else is a
    // link from the outset.
    let mut g: DiGraph<Block, ()> = DiGraph::new();
    let mut node_of: std::collections::HashMap<&str, NodeId> = std::collections::HashMap::new();
    for a in &cs.activities {
        node_of.insert(a, g.add_node(Block::Leaf(a.to_string())));
    }
    let mut links: Vec<Link> = Vec::new();
    let mut link_n = 0;
    for r in cs.happen_befores() {
        let Relation::HappenBefore { from, to, cond, .. } = r else {
            unreachable!("filtered")
        };
        let structural = cond.is_none()
            && from.state == ActivityState::Finish
            && to.state == ActivityState::Start;
        if structural {
            let (u, v) = (node_of[from.activity.as_str()], node_of[to.activity.as_str()]);
            if !g.has_edge(u, v) {
                g.add_edge(u, v, ());
            }
        } else {
            links.push(Link {
                name: format!("x{link_n}"),
                from: from.activity.to_string(),
                to: to.activity.to_string(),
                condition: cond.as_ref().map(|c| c.value.to_string()),
            });
            link_n += 1;
        }
    }

    // Reduce to fixpoint.
    loop {
        let mut changed = false;

        // Series.
        let nodes: Vec<NodeId> = g.node_ids().collect();
        for &u in &nodes {
            if !g.contains_node(u) {
                continue;
            }
            let succs: Vec<NodeId> = {
                let mut s: Vec<NodeId> = g.successors(u).collect();
                s.sort();
                s.dedup();
                s
            };
            if succs.len() != 1 {
                continue;
            }
            let v = succs[0];
            if v == u {
                continue;
            }
            let preds_v: BTreeSet<NodeId> = g.predecessors(v).collect();
            if preds_v.len() != 1 {
                continue;
            }
            // Merge u;v.
            let bu = g.weight(u).clone();
            let bv = g.weight(v).clone();
            let merged = match (bu, bv) {
                (Block::Seq(mut a), Block::Seq(b)) => {
                    a.extend(b);
                    Block::Seq(a)
                }
                (Block::Seq(mut a), b) => {
                    a.push(b);
                    Block::Seq(a)
                }
                (a, Block::Seq(mut b)) => {
                    b.insert(0, a);
                    Block::Seq(b)
                }
                (a, b) => Block::Seq(vec![a, b]),
            };
            let preds_u: Vec<NodeId> = {
                let mut p: Vec<NodeId> = g.predecessors(u).collect();
                p.sort();
                p.dedup();
                p
            };
            let succs_v: Vec<NodeId> = {
                let mut s: Vec<NodeId> = g.successors(v).collect();
                s.sort();
                s.dedup();
                s
            };
            let m = g.add_node(merged);
            for p in preds_u {
                g.add_edge(p, m, ());
            }
            for s in succs_v {
                g.add_edge(m, s, ());
            }
            g.remove_node(u);
            g.remove_node(v);
            changed = true;
        }

        // Parallel: group live nodes by (preds, succs).
        let mut groups: std::collections::HashMap<(Vec<NodeId>, Vec<NodeId>), Vec<NodeId>> =
            std::collections::HashMap::new();
        for n in g.node_ids() {
            let mut p: Vec<NodeId> = g.predecessors(n).collect();
            p.sort();
            p.dedup();
            let mut s: Vec<NodeId> = g.successors(n).collect();
            s.sort();
            s.dedup();
            groups.entry((p, s)).or_default().push(n);
        }
        for ((preds, succs), members) in groups {
            if members.len() < 2 {
                continue;
            }
            if !members.iter().all(|&m| g.contains_node(m)) {
                continue;
            }
            let mut branches = Vec::new();
            for &m in &members {
                match g.weight(m).clone() {
                    Block::Par(inner) => branches.extend(inner),
                    b => branches.push(b),
                }
            }
            let merged = g.add_node(Block::Par(branches));
            for p in &preds {
                g.add_edge(*p, merged, ());
            }
            for s in &succs {
                g.add_edge(merged, *s, ());
            }
            for m in members {
                g.remove_node(m);
            }
            changed = true;
        }

        if !changed {
            break;
        }
    }

    let lookup: Box<dyn Fn(&str) -> Activity> = match process {
        Some(p) => Box::new(move |name: &str| {
            p.activity(name)
                .cloned()
                .unwrap_or_else(|| Activity::assign(name))
        }),
        None => Box::new(|name: &str| Activity::assign(name)),
    };

    let remaining: Vec<NodeId> = g.node_ids().collect();
    if remaining.len() == 1 && g.edge_count() == 0 {
        let root = g.weight(remaining[0]).clone().into_construct(&*lookup);
        let fully = links.is_empty();
        return Recovered {
            root,
            links: links.clone(),
            fully_structured: fully,
        };
    }

    // Irreducible remainder: every remaining block becomes a flow branch,
    // every remaining edge a link between block representatives. Links
    // must connect concrete activities, so use each block's boundary
    // activities. For precision we emit the remaining edges against the blocks'
    // first activities of source-exit/target-entry; a simpler sound choice
    // is to fall back to per-activity links for remaining edges.
    let mut branches = Vec::new();
    for n in &remaining {
        branches.push(g.weight(*n).clone());
    }
    for e in g.edge_ids().collect::<Vec<_>>() {
        let (u, v) = g.endpoints(e);
        links.push(Link {
            name: format!("x{link_n}"),
            from: exit_activity(g.weight(u)).to_string(),
            to: entry_activity(g.weight(v)).to_string(),
            condition: None,
        });
        link_n += 1;
    }
    let root = Construct::Flow {
        branches: branches
            .into_iter()
            .map(|b| b.into_construct(&*lookup))
            .collect(),
        links: links.clone(),
    };
    Recovered {
        root,
        links,
        fully_structured: false,
    }
}

fn entry_activity(b: &Block) -> &str {
    match b {
        Block::Leaf(n) => n,
        Block::Seq(v) => entry_activity(&v[0]),
        Block::Par(v) => v[0].first_activity(),
    }
}

fn exit_activity(b: &Block) -> &str {
    match b {
        Block::Leaf(n) => n,
        Block::Seq(v) => exit_activity(v.last().expect("non-empty seq")),
        Block::Par(v) => v[0].first_activity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Origin, StateRef};

    fn cs_with(acts: &[&str], edges: &[(&str, &str)]) -> ConstraintSet {
        let mut cs = ConstraintSet::new("s");
        for a in acts {
            cs.add_activity(*a);
        }
        for (f, t) in edges {
            cs.push(Relation::before(
                StateRef::finish(*f),
                StateRef::start(*t),
                Origin::Data,
            ));
        }
        cs
    }

    fn names(c: &Construct) -> Vec<String> {
        c.activities().iter().map(|a| a.name.clone()).collect()
    }

    #[test]
    fn chain_recovers_to_sequence() {
        let cs = cs_with(&["a", "b", "c"], &[("a", "b"), ("b", "c")]);
        let r = recover_structure(&cs, None);
        assert!(r.fully_structured);
        assert!(matches!(r.root, Construct::Sequence(ref v) if v.len() == 3));
        assert_eq!(names(&r.root), vec!["a", "b", "c"]);
    }

    #[test]
    fn diamond_recovers_to_seq_flow_seq() {
        let cs = cs_with(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        );
        let r = recover_structure(&cs, None);
        assert!(r.fully_structured, "{:?}", r.root);
        let Construct::Sequence(items) = &r.root else {
            panic!("expected sequence, got {:?}", r.root);
        };
        assert_eq!(items.len(), 3);
        assert!(matches!(items[1], Construct::Flow { ref branches, .. } if branches.len() == 2));
    }

    #[test]
    fn independent_activities_become_flow() {
        let cs = cs_with(&["a", "b", "c"], &[]);
        let r = recover_structure(&cs, None);
        assert!(matches!(r.root, Construct::Flow { ref branches, .. } if branches.len() == 3));
    }

    #[test]
    fn n_shape_falls_back_to_links() {
        // a→c, a→d, b→d: not series-parallel.
        let cs = cs_with(&["a", "b", "c", "d"], &[("a", "c"), ("a", "d"), ("b", "d")]);
        let r = recover_structure(&cs, None);
        assert!(!r.fully_structured);
        assert!(!r.links.is_empty());
        // Every activity still present exactly once.
        let mut all = names(&r.root);
        all.sort();
        assert_eq!(all, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn conditional_edges_stay_links() {
        let mut cs = cs_with(&["g", "x"], &[]);
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            dscweaver_dscl::Condition::new("g", "T"),
            Origin::Control,
        ));
        let r = recover_structure(&cs, None);
        assert!(!r.fully_structured);
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.links[0].condition.as_deref(), Some("T"));
    }

    #[test]
    fn state_granular_constraints_stay_links() {
        let mut cs = cs_with(&["a", "b"], &[]);
        cs.push(Relation::before(
            StateRef::start("a"),
            StateRef::finish("b"),
            Origin::Cooperation,
        ));
        let r = recover_structure(&cs, None);
        assert_eq!(r.links.len(), 1);
    }

    #[test]
    fn nested_series_parallel() {
        // a → (b→c ∥ d) → e
        let cs = cs_with(
            &["a", "b", "c", "d", "e"],
            &[("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e")],
        );
        let r = recover_structure(&cs, None);
        assert!(r.fully_structured, "{:?}", r.root);
        let mut all = names(&r.root);
        all.sort();
        assert_eq!(all, vec!["a", "b", "c", "d", "e"]);
    }
}
