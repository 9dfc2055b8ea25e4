//! The integer numbering a weave runs on.
//!
//! A [`ConstraintSet`] names everything by [`Name`]. The weave numbers it
//! once and runs execution conditions, translation and minimization on
//! the ids; the output sets clone the set's shared [`Name`]s back.
//!
//! * **Names** — activities in declaration order (the set's sorted
//!   order, so id order is name byte order), then services, then, only
//!   when a relation names something undeclared, those names in order of
//!   first mention.
//! * **Nodes** — activity `i` owns the state nodes `3i + s` (`s` = 0, 1, 2
//!   for `S`, `R`, `F`); service `j` is node `3A + j`. This is the node
//!   numbering of [`SyncGraph::build`](dscweaver_dscl::SyncGraph::build).
//! * **Guards** — declared domains in key order, each value numbered by
//!   first occurrence in its domain; undeclared guards and values get the
//!   next ids. A [`Guard`] is a `(guard id, value id)` pair.
//!
//! Numbering never fails. Anything [`ConstraintSet::validate`] would
//! report — an undeclared name, guard or value, or a name declared both
//! as an activity and as a service — sets [`Numbering::has_problems`], and
//! the caller that needs the error list asks `validate` for it.

use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Name, Origin, Relation, StateRef};
use dscweaver_graph::{DiGraph, FxHashMap, NodeId};
use std::collections::hash_map::Entry;

/// A branch condition on ids: `(guard id, value id)`.
pub(crate) type Guard = (u32, u32);

/// A relation endpoint: name id and state.
pub(crate) type End = (u32, ActivityState);

/// The three DSCL relation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Before,
    Together,
    Exclusive,
}

/// One relation of the set, on ids. Exclusive relations carry no
/// condition.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdRel {
    pub kind: Kind,
    pub from: End,
    pub to: End,
    pub cond: Option<Guard>,
    pub origin: Origin,
}

/// A constraint set numbered once (see the module docs).
pub(crate) struct Numbering<'a> {
    names: Vec<&'a Name>,
    acts: u32,
    services: u32,
    ids: FxHashMap<&'a str, u32>,
    /// Activities that are also declared as services.
    ambiguous: Vec<u32>,
    guards: Vec<&'a Name>,
    guard_ids: FxHashMap<&'a str, u32>,
    /// Per guard, its value names by value id.
    values: Vec<Vec<&'a Name>>,
    /// Per guard, its declared domain as value ids (`None`: undeclared).
    domains: Vec<Option<Vec<u32>>>,
    /// Every relation of the set, in relation order.
    pub rels: Vec<IdRel>,
    problems: bool,
}

impl<'a> Numbering<'a> {
    /// Numbers `cs` in one pass over its declarations and relations.
    pub fn new(cs: &'a ConstraintSet) -> Numbering<'a> {
        let mut names: Vec<&'a Name> = Vec::with_capacity(cs.activities.len() + cs.services.len());
        let mut ids = FxHashMap::default();
        ids.reserve(cs.activities.len() + cs.services.len());
        for a in &cs.activities {
            ids.insert(a.as_str(), names.len() as u32);
            names.push(a);
        }
        let mut ambiguous = Vec::new();
        for s in &cs.services {
            let id = names.len() as u32;
            names.push(s);
            match ids.entry(s.as_str()) {
                Entry::Vacant(v) => {
                    v.insert(id);
                }
                Entry::Occupied(o) => ambiguous.push(*o.get()),
            }
        }
        let mut num = Numbering {
            acts: cs.activities.len() as u32,
            services: cs.services.len() as u32,
            problems: !ambiguous.is_empty(),
            names,
            ids,
            ambiguous,
            guards: Vec::with_capacity(cs.domains.len()),
            guard_ids: FxHashMap::default(),
            values: Vec::with_capacity(cs.domains.len()),
            domains: Vec::with_capacity(cs.domains.len()),
            rels: Vec::with_capacity(cs.relations.len()),
        };
        for (g, dom) in &cs.domains {
            num.guard_ids.insert(g.as_str(), num.guards.len() as u32);
            num.guards.push(g);
            let mut vals: Vec<&'a Name> = Vec::with_capacity(dom.len());
            let dom_ids = dom
                .iter()
                .map(|v| match vals.iter().position(|&x| x == v) {
                    Some(i) => i as u32,
                    None => {
                        vals.push(v);
                        vals.len() as u32 - 1
                    }
                })
                .collect();
            num.values.push(vals);
            num.domains.push(Some(dom_ids));
        }
        for r in &cs.relations {
            let (kind, a, b, cond, origin) = match r {
                Relation::HappenBefore {
                    from,
                    to,
                    cond,
                    origin,
                } => (Kind::Before, from, to, cond.as_ref(), *origin),
                Relation::HappenTogether { a, b, cond, origin } => {
                    (Kind::Together, a, b, cond.as_ref(), *origin)
                }
                Relation::Exclusive { a, b, origin } => (Kind::Exclusive, a, b, None, *origin),
            };
            let from = (num.name_id(&a.activity), a.state);
            let to = (num.name_id(&b.activity), b.state);
            let cond = cond.map(|c| {
                let (g, v, known) = num.guard_id(c);
                num.problems |= !known;
                (g, v)
            });
            num.rels.push(IdRel {
                kind,
                from,
                to,
                cond,
                origin,
            });
        }
        num
    }

    /// True if [`ConstraintSet::validate`] reports anything for the set.
    pub fn has_problems(&self) -> bool {
        self.problems
    }

    /// The id of `name`, numbering it as undeclared on first mention.
    fn name_id(&mut self, name: &'a Name) -> u32 {
        if let Some(&id) = self.ids.get(name.as_str()) {
            return id;
        }
        self.problems = true;
        let id = self.names.len() as u32;
        self.names.push(name);
        self.ids.insert(name.as_str(), id);
        id
    }

    /// The ids of `c`, numbering an undeclared guard or value on first
    /// mention. The flag is false when `validate` would reject `c`.
    fn guard_id(&mut self, c: &'a Condition) -> (u32, u32, bool) {
        let g = match self.guard_ids.get(c.on.as_str()) {
            Some(&g) => g,
            None => {
                let g = self.guards.len() as u32;
                self.guard_ids.insert(c.on.as_str(), g);
                self.guards.push(&c.on);
                self.values.push(Vec::new());
                self.domains.push(None);
                g
            }
        };
        let vals = &mut self.values[g as usize];
        let v = match vals.iter().position(|&x| *x == c.value) {
            Some(v) => v as u32,
            None => {
                vals.push(&c.value);
                vals.len() as u32 - 1
            }
        };
        let known = self.domains[g as usize]
            .as_ref()
            .is_some_and(|dom| dom.contains(&v));
        (g, v, known)
    }

    /// `c` on this numbering's ids, numbering what it does not know yet.
    pub fn guard(&mut self, c: &'a Condition) -> Guard {
        let (g, v, _) = self.guard_id(c);
        (g, v)
    }

    /// Declared activities.
    pub fn acts(&self) -> usize {
        self.acts as usize
    }

    /// Nodes of the synchronization graph: three per activity, one per
    /// service.
    pub fn node_count(&self) -> usize {
        3 * self.acts as usize + self.services as usize
    }

    /// Per guard id, the declared domain as value ids.
    pub fn domains(&self) -> &[Option<Vec<u32>>] {
        &self.domains
    }

    /// Names numbered so far (declared and undeclared).
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// The name behind a name id.
    pub fn name(&self, id: u32) -> &'a Name {
        self.names[id as usize]
    }

    /// The activity id of `name`, if it is a declared activity.
    pub fn activity(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied().filter(|&id| id < self.acts)
    }

    /// True if the name is a declared service
    /// ([`ConstraintSet::is_external`]).
    pub fn is_external(&self, id: u32) -> bool {
        (self.acts..self.acts + self.services).contains(&id) || self.ambiguous.contains(&id)
    }

    /// The graph node of an endpoint; `None` for an undeclared name.
    pub fn node(&self, (id, state): End) -> Option<u32> {
        if id < self.acts {
            Some(3 * id + state as u32)
        } else if id < self.acts + self.services {
            Some(2 * self.acts + id)
        } else {
            None
        }
    }

    /// True for an activity's state node (false for a service node).
    pub fn is_state(&self, node: u32) -> bool {
        node < 3 * self.acts
    }

    /// The state reference of an activity's state node.
    pub fn state_ref(&self, node: u32) -> StateRef {
        StateRef {
            activity: self.names[(node / 3) as usize].clone(),
            state: ActivityState::ALL[(node % 3) as usize],
        }
    }

    /// The display label of a node, as `SyncNode::label` renders it.
    pub fn label(&self, node: u32) -> String {
        if self.is_state(node) {
            self.state_ref(node).to_string()
        } else {
            self.names[(node - 2 * self.acts) as usize].to_string()
        }
    }

    /// The condition behind a guard.
    pub fn condition(&self, (g, v): Guard) -> Condition {
        Condition {
            on: self.guards[g as usize].clone(),
            value: self.values[g as usize][v as usize].clone(),
        }
    }

    /// The guard and value names behind a guard, for ordering by bytes.
    pub fn condition_key(&self, (g, v): Guard) -> (&'a str, &'a str) {
        (
            self.guards[g as usize].as_str(),
            self.values[g as usize][v as usize].as_str(),
        )
    }

    /// The synchronization graph on this numbering: the same nodes and
    /// edges, in the same order, as
    /// [`SyncGraph::build`](dscweaver_dscl::SyncGraph::build), with no
    /// strings.
    pub fn graph(&self) -> IdGraph {
        let acts = self.acts as usize;
        let mut g = DiGraph::with_capacity(self.node_count(), 2 * acts + self.rels.len());
        for _ in 0..acts {
            let s = g.add_node(());
            let r = g.add_node(());
            let f = g.add_node(());
            g.add_edge(s, r, None);
            g.add_edge(r, f, None);
        }
        for _ in 0..self.services {
            g.add_node(());
        }
        let mut rel = Vec::with_capacity(self.rels.len());
        for (i, r) in self.rels.iter().enumerate() {
            if r.kind != Kind::Before {
                continue;
            }
            let (Some(f), Some(t)) = (self.node(r.from), self.node(r.to)) else {
                continue; // undeclared endpoint: validation reports it
            };
            g.add_edge(NodeId(f), NodeId(t), r.cond);
            rel.push(i as u32);
        }
        IdGraph {
            g,
            lifecycle: 2 * acts,
            rel,
        }
    }
}

/// The synchronization graph of a [`Numbering`]: edge weights are the
/// constraint guards.
pub(crate) struct IdGraph {
    pub g: DiGraph<(), Option<Guard>>,
    /// Edges `0..lifecycle` are the implicit `S → R → F` edges.
    pub lifecycle: usize,
    /// Per constraint edge (edge index − `lifecycle`), its relation index.
    pub rel: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::sync_graph::SyncGraph;

    fn sample() -> ConstraintSet {
        let mut cs = ConstraintSet::new("n");
        for a in ["b", "a", "if_x"] {
            cs.add_activity(a);
        }
        cs.add_service("Svc");
        cs.add_domain("if_x", vec!["T".into(), "F".into(), "T".into()]);
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            dscweaver_dscl::Origin::Data,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("if_x"),
            StateRef::start("Svc"),
            Condition::new("if_x", "F"),
            dscweaver_dscl::Origin::Control,
        ));
        cs
    }

    #[test]
    fn nodes_and_edges_match_the_sync_graph() {
        let cs = sample();
        let num = Numbering::new(&cs);
        assert!(!num.has_problems());
        let ig = num.graph();
        let sg = SyncGraph::build(&cs);
        assert_eq!(ig.g.node_bound(), sg.graph.node_bound());
        let got: Vec<_> = ig.g.edges().map(|(e, f, t, _)| (e, f, t)).collect();
        let want: Vec<_> = sg.graph.edges().map(|(e, f, t, _)| (e, f, t)).collect();
        assert_eq!(got, want);
        for n in sg.graph.node_ids() {
            assert_eq!(num.label(n.0), sg.graph.weight(n).label());
        }
        assert_eq!(ig.rel, vec![0, 1]);
    }

    #[test]
    fn duplicate_domain_values_share_an_id() {
        let cs = sample();
        let num = Numbering::new(&cs);
        assert_eq!(num.domains()[0], Some(vec![0, 1, 0]));
        assert_eq!(num.rels[1].cond, Some((0, 1)));
        assert_eq!(num.condition((0, 1)), Condition::new("if_x", "F"));
    }

    #[test]
    fn problems_are_what_validate_reports() {
        let mut cs = sample();
        assert!(!Numbering::new(&cs).has_problems());
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("ghost"),
            dscweaver_dscl::Origin::Data,
        ));
        assert!(Numbering::new(&cs).has_problems());
        let mut cs = sample();
        cs.push(Relation::before_if(
            StateRef::finish("a"),
            StateRef::start("b"),
            Condition::new("if_x", "MAYBE"),
            dscweaver_dscl::Origin::Control,
        ));
        assert!(Numbering::new(&cs).has_problems());
        let mut cs = sample();
        cs.add_service("a");
        let num = Numbering::new(&cs);
        assert!(num.has_problems());
        assert!(num.is_external(num.activity("a").unwrap()));
    }
}
