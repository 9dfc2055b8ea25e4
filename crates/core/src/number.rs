//! The integer numbering a weave runs on.
//!
//! A [`ConstraintSet`] names everything by [`Name`]. The weave numbers it
//! once — [`merge`](crate::merge::merge()) hands out each id together with the
//! name it makes — and runs execution conditions, translation and
//! minimization on the ids; the output sets clone the set's shared
//! [`Name`]s back. A [`Numbering`] owns its tables as `Name` clones, so a
//! re-weave session keeps its last ASC numbering for the next diff.
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
//!
//! [`Numberer`] is the one transient name map behind every numbering:
//! the merge, [`Numbering::new`] and [`resolve`](crate::resolve::resolve)
//! all number through it, so the id rules live in one place.

use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Name, Origin, Relation, StateRef};
use dscweaver_graph::{DiGraph, FxHashMap, NodeId};

/// A branch condition on ids: `(guard id, value id)`.
pub(crate) type Guard = (u32, u32);

/// A relation endpoint: name id and state.
pub(crate) type End = (u32, ActivityState);

/// The three DSCL relation kinds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Kind {
    /// `HappenBefore`.
    Before,
    /// `HappenTogether` (sugar, desugared before the executors run).
    Together,
    /// `Exclusive`.
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

/// No id yet.
const NONE: u32 = u32::MAX;

/// A constraint set numbered once (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct Numbering {
    names: Vec<Name>,
    acts: u32,
    services: u32,
    /// Activities that are also declared as services.
    ambiguous: Vec<u32>,
    guards: Vec<Name>,
    /// Per guard, its activity id ([`NONE`]: the guard is no activity).
    guard_act: Vec<u32>,
    /// Per guard, its value names by value id.
    values: Vec<Vec<Name>>,
    /// Per guard, its declared domain as value ids (`None`: undeclared).
    domains: Vec<Option<Vec<u32>>>,
    /// Guards with a declared domain: ids `0..declared`.
    declared: u32,
    /// Every relation of the set, in relation order.
    pub rels: Vec<IdRel>,
    problems: bool,
}

/// What the transient map knows of one string: its name id and its guard
/// id, either [`NONE`].
#[derive(Clone, Copy)]
struct Slot {
    id: u32,
    guard: u32,
}

/// A [`Numbering`] under construction, with the one transient map from
/// string to ids that builds it. Declarations come first — activities in
/// sorted order, then services, then domains in key order — and
/// relations after; each call makes a name only on first mention.
pub(crate) struct Numberer<'a> {
    map: FxHashMap<&'a str, Slot>,
    num: Numbering,
}

impl<'a> Numberer<'a> {
    /// An empty numbering sized for `names` strings and `rels` relations.
    pub fn with_capacity(names: usize, rels: usize) -> Numberer<'a> {
        let mut map = FxHashMap::default();
        map.reserve(names);
        Numberer {
            map,
            num: Numbering {
                names: Vec::with_capacity(names),
                rels: Vec::with_capacity(rels),
                ..Numbering::default()
            },
        }
    }

    fn slot(&mut self, s: &'a str) -> &mut Slot {
        self.map.entry(s).or_insert(Slot {
            id: NONE,
            guard: NONE,
        })
    }

    /// Declares the next activity (in sorted order, before any service).
    pub fn activity(&mut self, s: &'a str, name: impl FnOnce() -> Name) -> &Name {
        let id = self.num.names.len() as u32;
        self.slot(s).id = id;
        self.num.acts += 1;
        self.num.names.push(name());
        &self.num.names[id as usize]
    }

    /// Declares the next service. A service named like an activity gets
    /// its own id, while the name keeps resolving to the activity.
    pub fn service(&mut self, s: &'a str, name: impl FnOnce() -> Name) -> &Name {
        let id = self.num.names.len() as u32;
        let slot = self.slot(s);
        if slot.id == NONE {
            slot.id = id;
        } else {
            let act = slot.id;
            self.num.ambiguous.push(act);
            self.num.problems = true;
        }
        self.num.services += 1;
        self.num.names.push(name());
        &self.num.names[id as usize]
    }

    /// A new guard named `s` (declared or not); an activity's guard
    /// shares the activity's name.
    fn new_guard(
        &mut self,
        s: &'a str,
        name: impl FnOnce() -> Name,
        domain: Option<Vec<u32>>,
    ) -> u32 {
        let g = self.num.guards.len() as u32;
        let slot = self.slot(s);
        slot.guard = g;
        let id = slot.id;
        let act = if id < self.num.acts { id } else { NONE };
        let name = match act {
            NONE => name(),
            a => self.num.names[a as usize].clone(),
        };
        self.num.guards.push(name);
        self.num.guard_act.push(act);
        self.num.values.push(Vec::new());
        self.num.domains.push(domain);
        g
    }

    /// Declares the next guard domain (in key order, before any
    /// relation); its values follow through [`Numberer::domain_value`].
    pub fn domain(&mut self, s: &'a str, name: impl FnOnce() -> Name) -> (u32, &Name) {
        let g = self.new_guard(s, name, Some(Vec::new()));
        self.num.declared += 1;
        (g, &self.num.guards[g as usize])
    }

    /// The value id of `v` in guard `g`, numbering it on first mention.
    fn value(&mut self, g: u32, v: &str, name: impl FnOnce() -> Name) -> u32 {
        let vals = &mut self.num.values[g as usize];
        match vals.iter().position(|x| x.as_str() == v) {
            Some(i) => i as u32,
            None => {
                vals.push(name());
                vals.len() as u32 - 1
            }
        }
    }

    /// Appends `v` to guard `g`'s declared domain.
    pub fn domain_value(&mut self, g: u32, v: &str, name: impl FnOnce() -> Name) -> &Name {
        let id = self.value(g, v, name);
        self.num.domains[g as usize]
            .as_mut()
            .expect("a declared domain")
            .push(id);
        &self.num.values[g as usize][id as usize]
    }

    /// The id of endpoint name `s`, numbering it as undeclared on first
    /// mention.
    pub fn endpoint(&mut self, s: &'a str, name: impl FnOnce() -> Name) -> (u32, &Name) {
        let next = self.num.names.len() as u32;
        let slot = self.slot(s);
        let id = if slot.id == NONE {
            slot.id = next;
            self.num.names.push(name());
            self.num.problems = true;
            next
        } else {
            slot.id
        };
        (id, &self.num.names[id as usize])
    }

    /// The ids of the condition `on = v`, numbering an undeclared guard
    /// or value on first mention. The flag is false when `validate` would
    /// reject the condition.
    pub fn condition(
        &mut self,
        on: &'a str,
        on_name: impl FnOnce() -> Name,
        v: &str,
        v_name: impl FnOnce() -> Name,
    ) -> (Guard, bool) {
        let g = match self.map.get(on).map_or(NONE, |slot| slot.guard) {
            NONE => self.new_guard(on, on_name, None),
            g => g,
        };
        let v = self.value(g, v, v_name);
        let known = self.num.domains[g as usize]
            .as_ref()
            .is_some_and(|dom| dom.contains(&v));
        ((g, v), known)
    }

    /// Records the next relation.
    pub fn push(&mut self, rel: IdRel) {
        self.num.rels.push(rel);
    }

    /// Flags a condition `validate` would reject.
    pub fn problem(&mut self) {
        self.num.problems = true;
    }

    /// The guard and value names behind a guard.
    pub fn condition_names(&self, (g, v): Guard) -> (&Name, &Name) {
        (
            &self.num.guards[g as usize],
            &self.num.values[g as usize][v as usize],
        )
    }

    /// The activity id of `s`, if it names a declared activity.
    pub fn activity_id(&self, s: &str) -> Option<u32> {
        self.map
            .get(s)
            .map(|slot| slot.id)
            .filter(|&id| id < self.num.acts)
    }

    /// The numbering so far.
    pub fn numbering(&self) -> &Numbering {
        &self.num
    }

    /// Numbers every declaration and relation of `cs`.
    pub fn of_set(cs: &'a ConstraintSet) -> Numberer<'a> {
        let mut b =
            Numberer::with_capacity(cs.activities.len() + cs.services.len(), cs.relations.len());
        for a in &cs.activities {
            b.activity(a, || a.clone());
        }
        for s in &cs.services {
            b.service(s, || s.clone());
        }
        for (g, dom) in &cs.domains {
            let (g, _) = b.domain(g, || g.clone());
            for v in dom {
                b.domain_value(g, v, || v.clone());
            }
        }
        for r in &cs.relations {
            let (kind, a, b_, cond, origin) = match r {
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
            let from = (b.endpoint(&a.activity, || a.activity.clone()).0, a.state);
            let to = (b.endpoint(&b_.activity, || b_.activity.clone()).0, b_.state);
            let cond = cond.map(|c| {
                let (g, known) = b.condition(&c.on, || c.on.clone(), &c.value, || c.value.clone());
                if !known {
                    b.problem();
                }
                g
            });
            b.push(IdRel {
                kind,
                from,
                to,
                cond,
                origin,
            });
        }
        b
    }

    /// The finished numbering; the map is dropped.
    pub fn finish(self) -> Numbering {
        self.num
    }
}

impl Numbering {
    /// Numbers `cs` in one pass over its declarations and relations.
    pub fn new(cs: &ConstraintSet) -> Numbering {
        Numberer::of_set(cs).finish()
    }

    /// True if [`ConstraintSet::validate`] reports anything for the set.
    pub fn has_problems(&self) -> bool {
        self.problems
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

    /// Guards with a declared domain: ids `0..declared_guards()`, in
    /// domain key order.
    pub fn declared_guards(&self) -> usize {
        self.declared as usize
    }

    /// Guards numbered (declared and undeclared).
    pub fn guard_count(&self) -> usize {
        self.guards.len()
    }

    /// A guard's name.
    pub fn guard_name(&self, g: u32) -> &Name {
        &self.guards[g as usize]
    }

    /// A guard's activity id, when the guard is a declared activity.
    pub fn guard_activity(&self, g: u32) -> Option<u32> {
        Some(self.guard_act[g as usize]).filter(|&a| a != NONE)
    }

    /// Guard `g`'s value names by value id.
    pub fn values(&self, g: u32) -> &[Name] {
        &self.values[g as usize]
    }

    /// Names numbered so far (declared and undeclared).
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Every name by id.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// The name table, moved out.
    pub fn into_names(self) -> Vec<Name> {
        self.names
    }

    /// The name behind a name id.
    pub fn name(&self, id: u32) -> &Name {
        &self.names[id as usize]
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
        self.end_ref((node / 3, ActivityState::ALL[(node % 3) as usize]))
    }

    /// The state reference of an endpoint.
    pub fn end_ref(&self, (id, state): End) -> StateRef {
        StateRef {
            activity: self.names[id as usize].clone(),
            state,
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
    pub fn condition_key(&self, (g, v): Guard) -> (&str, &str) {
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
        assert_eq!(num.guard_activity(0), Some(2));
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
        let b = Numberer::of_set(&cs);
        let a = b.activity_id("a").unwrap();
        let num = b.finish();
        assert!(num.has_problems());
        assert!(num.is_external(a));
    }
}
