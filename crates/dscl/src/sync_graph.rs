//! Materialization of a [`ConstraintSet`] as a directed graph over
//! activity-*states* and service nodes — the structure every algorithm in
//! the optimizer works on.
//!
//! Internal activities contribute three nodes (`S`, `R`, `F`) connected by
//! implicit *lifecycle* edges `S → R → F` (these are facts of execution,
//! not constraints: the optimizer may never remove them, but transitive
//! reasoning flows through them). External service nodes (the paper's
//! `Purchase_1`, `Ship_d`, ...) contribute a single node each — a remote
//! port has no observable life cycle from the process's point of view.

use crate::constraint::ConstraintSet;
use crate::name::Name;
use crate::relation::{Origin, Relation};
use crate::state::{ActivityState, Condition, StateRef};
use dscweaver_graph::{DiGraph, EdgeId, FxHashMap, NodeId};

/// A node of the synchronization graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SyncNode {
    /// One life-cycle state of an internal activity.
    State(StateRef),
    /// An external service node.
    Service(Name),
}

impl SyncNode {
    /// The display name (`F(a)` or the service name).
    pub fn label(&self) -> String {
        match self {
            SyncNode::State(s) => s.to_string(),
            SyncNode::Service(s) => s.to_string(),
        }
    }

    /// The activity name if this is a state node.
    pub fn activity(&self) -> Option<&str> {
        match self {
            SyncNode::State(s) => Some(&s.activity),
            SyncNode::Service(_) => None,
        }
    }
}

/// Why an edge exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Implicit `S → R → F` life-cycle edge; never removable.
    Lifecycle,
    /// A HappenBefore constraint; the payload is the index of the relation
    /// in the originating [`ConstraintSet::relations`].
    Constraint(usize),
}

/// Edge payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncEdge {
    /// Branch condition, if conditional.
    pub cond: Option<Condition>,
    /// Dependency dimension that induced the constraint.
    pub origin: Origin,
    /// Lifecycle vs constraint.
    pub kind: EdgeKind,
}

impl SyncEdge {
    /// True for implicit life-cycle edges.
    pub fn is_lifecycle(&self) -> bool {
        matches!(self.kind, EdgeKind::Lifecycle)
    }
}

/// The materialized synchronization graph.
#[derive(Clone, Debug)]
pub struct SyncGraph {
    /// The underlying graph.
    pub graph: DiGraph<SyncNode, SyncEdge>,
    // One entry per activity with its `[S, R, F]` node ids: resolving a
    // `StateRef` is a single borrowed-`&str` hash lookup plus an index,
    // with no per-lookup allocation (`build` resolves two endpoints per
    // relation, so this is on the hot path of every pipeline run).
    state_idx: FxHashMap<Name, [NodeId; 3]>,
    service_idx: FxHashMap<Name, NodeId>,
}

impl SyncGraph {
    /// Builds the graph for `cs`. HappenTogether sugar must already be
    /// desugared (sugar relations are skipped with a debug assertion);
    /// Exclusive relations are runtime-only and contribute no edges.
    pub fn build(cs: &ConstraintSet) -> SyncGraph {
        let mut graph: DiGraph<SyncNode, SyncEdge> = DiGraph::with_capacity(
            cs.activities.len() * 3 + cs.services.len(),
            cs.activities.len() * 2 + cs.relations.len(),
        );
        let mut state_idx = FxHashMap::default();
        let mut service_idx = FxHashMap::default();

        for a in &cs.activities {
            let ids = ActivityState::ALL.map(|st| {
                graph.add_node(SyncNode::State(StateRef {
                    activity: a.clone(),
                    state: st,
                }))
            });
            for w in ids.windows(2) {
                graph.add_edge(
                    w[0],
                    w[1],
                    SyncEdge {
                        cond: None,
                        origin: Origin::Other,
                        kind: EdgeKind::Lifecycle,
                    },
                );
            }
            state_idx.insert(a.clone(), ids);
        }
        for s in &cs.services {
            let n = graph.add_node(SyncNode::Service(s.clone()));
            service_idx.insert(s.clone(), n);
        }

        let mut sg = SyncGraph {
            graph,
            state_idx,
            service_idx,
        };
        for (i, r) in cs.relations.iter().enumerate() {
            match r {
                Relation::HappenBefore { from, to, cond, origin } => {
                    let (Some(f), Some(t)) = (sg.resolve(from), sg.resolve(to)) else {
                        continue; // undeclared endpoint: validation reports it
                    };
                    sg.graph.add_edge(
                        f,
                        t,
                        SyncEdge {
                            cond: cond.clone(),
                            origin: *origin,
                            kind: EdgeKind::Constraint(i),
                        },
                    );
                }
                Relation::HappenTogether { .. } => {
                    debug_assert!(false, "desugar HappenTogether before building the graph");
                }
                Relation::Exclusive { .. } => {}
            }
        }
        sg
    }

    /// Resolves a state reference: state node for internal activities, the
    /// single service node for external ones (the state letter is
    /// meaningless on services and ignored).
    pub fn resolve(&self, s: &StateRef) -> Option<NodeId> {
        self.state_idx
            .get(s.activity.as_str())
            .map(|ids| ids[s.state as usize])
            .or_else(|| self.service_idx.get(s.activity.as_str()).copied())
    }

    /// The node for an internal activity's state.
    pub fn state_node(&self, activity: &str, state: ActivityState) -> Option<NodeId> {
        self.state_idx.get(activity).map(|ids| ids[state as usize])
    }

    /// The node for an external service.
    pub fn service_node(&self, service: &str) -> Option<NodeId> {
        self.service_idx.get(service).copied()
    }

    /// Iterates over service nodes.
    pub fn service_nodes(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.service_idx.iter().map(|(s, &n)| (s.as_str(), n))
    }

    /// Constraint edges only (no lifecycle), as `(edge, relation index)`.
    pub fn constraint_edges(&self) -> impl Iterator<Item = (EdgeId, usize)> + '_ {
        self.graph.edge_ids().filter_map(|e| {
            match self.graph.edge_weight(e).kind {
                EdgeKind::Constraint(i) => Some((e, i)),
                EdgeKind::Lifecycle => None,
            }
        })
    }

    /// The guard-extraction view used with
    /// [`dscweaver_graph::annotated_closure`]: conditional constraint edges
    /// carry their [`Condition`] as the guard.
    pub fn guard_of(_e: EdgeId, w: &SyncEdge) -> Option<Condition> {
        w.cond.clone()
    }

    /// Projects constraint edges to activity granularity:
    /// `(from_activity_or_service, to_activity_or_service, cond, origin)`.
    pub fn activity_edges(&self) -> Vec<(Name, Name, Option<Condition>, Origin)> {
        let mut out = Vec::new();
        for (e, _) in self.constraint_edges() {
            let (f, t) = self.graph.endpoints(e);
            let w = self.graph.edge_weight(e);
            let fname = match self.graph.weight(f) {
                SyncNode::State(s) => s.activity.clone(),
                SyncNode::Service(s) => s.clone(),
            };
            let tname = match self.graph.weight(t) {
                SyncNode::State(s) => s.activity.clone(),
                SyncNode::Service(s) => s.clone(),
            };
            out.push((fname, tname, w.cond.clone(), w.origin));
        }
        out
    }

    /// Rebuilds a [`ConstraintSet`] keeping only the relations whose
    /// indices are in `keep` (plus all non-HappenBefore relations, which
    /// the optimizer never touches). Node declarations and domains carry
    /// over unchanged.
    pub fn subset(cs: &ConstraintSet, keep: &dyn Fn(usize) -> bool) -> ConstraintSet {
        // Clone the declarations but not the relations `cs.clone()` would
        // bring along only to be overwritten — on large sets the relations
        // are by far the heaviest part.
        let mut out = ConstraintSet::new(cs.name.clone());
        out.activities = cs.activities.clone();
        out.services = cs.services.clone();
        out.domains = cs.domains.clone();
        out.relations = cs
            .relations
            .iter()
            .enumerate()
            .filter(|(i, r)| !r.is_happen_before() || keep(*i))
            .map(|(_, r)| r.clone())
            .collect();
        out
    }

    /// A deterministic, sorted textual listing of the constraint edges —
    /// how the `repro` harness prints Figures 7, 8 and 9.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self
            .constraint_edges()
            .map(|(e, _)| {
                let (f, t) = self.graph.endpoints(e);
                let w = self.graph.edge_weight(e);
                let cond = w
                    .cond
                    .as_ref()
                    .map(|c| format!("[{c}]"))
                    .unwrap_or_default();
                format!(
                    "{} ->{} {}  ({})",
                    self.graph.weight(f).label(),
                    cond,
                    self.graph.weight(t).label(),
                    w.origin
                )
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn sample() -> ConstraintSet {
        let mut cs = ConstraintSet::new("g");
        for a in ["a", "b", "if_x"] {
            cs.add_activity(a);
        }
        cs.add_service("Svc_1");
        cs.add_domain("if_x", vec!["T".into(), "F".into()]);
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("if_x"),
            StateRef::start("b"),
            Condition::new("if_x", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("Svc_1"),
            Origin::Service,
        ));
        cs
    }

    #[test]
    fn lifecycle_edges_created() {
        let sg = SyncGraph::build(&sample());
        // 3 activities × 3 states + 1 service node.
        assert_eq!(sg.graph.node_count(), 10);
        // 3 activities × 2 lifecycle edges + 3 constraints.
        assert_eq!(sg.graph.edge_count(), 9);
        let s = sg.state_node("a", ActivityState::Start).unwrap();
        let r = sg.state_node("a", ActivityState::Run).unwrap();
        let f = sg.state_node("a", ActivityState::Finish).unwrap();
        assert!(sg.graph.has_edge(s, r));
        assert!(sg.graph.has_edge(r, f));
        assert!(sg.graph.edge_weight(sg.graph.find_edge(s, r).unwrap()).is_lifecycle());
    }

    #[test]
    fn constraints_connect_states_and_services() {
        let sg = SyncGraph::build(&sample());
        let fa = sg.state_node("a", ActivityState::Finish).unwrap();
        let sb = sg.state_node("b", ActivityState::Start).unwrap();
        let svc = sg.service_node("Svc_1").unwrap();
        assert!(sg.graph.has_edge(fa, sb));
        assert!(sg.graph.has_edge(fa, svc));
        assert_eq!(sg.constraint_edges().count(), 3);
    }

    #[test]
    fn resolve_service_ignores_state_letter() {
        let sg = SyncGraph::build(&sample());
        assert_eq!(
            sg.resolve(&StateRef::start("Svc_1")),
            sg.resolve(&StateRef::finish("Svc_1"))
        );
    }

    #[test]
    fn activity_projection() {
        let sg = SyncGraph::build(&sample());
        let edges = sg.activity_edges();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().any(
            |(f, t, c, o)| f == "if_x" && t == "b" && c.is_some() && *o == Origin::Control
        ));
    }

    #[test]
    fn subset_keeps_declarations() {
        let cs = sample();
        let kept = SyncGraph::subset(&cs, &|i| i != 1);
        assert_eq!(kept.constraint_count(), 2);
        assert_eq!(kept.activities, cs.activities);
        assert_eq!(kept.domains, cs.domains);
    }

    #[test]
    fn render_is_sorted_and_labeled() {
        let sg = SyncGraph::build(&sample());
        let text = sg.render();
        assert!(text.contains("F(a) -> S(b)  (data)"));
        assert!(text.contains("F(if_x) ->[if_x=T] S(b)  (control)"));
        assert!(text.contains("F(a) -> Svc_1  (service)"));
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}

impl SyncGraph {
    /// Renders the constraint graph in Graphviz DOT syntax: state nodes as
    /// ellipses, service nodes as boxes, lifecycle edges dotted gray,
    /// constraints styled by dimension (data dashed, control labeled with
    /// the branch condition, translated bold).
    pub fn to_dot(&self, name: &str) -> String {
        dscweaver_graph::to_dot(
            &self.graph,
            name,
            |_, w| {
                let mut s = dscweaver_graph::NodeStyle::label(w.label());
                if matches!(w, SyncNode::Service(_)) {
                    s.shape = "box".into();
                    s.style = "filled".into();
                    s.fillcolor = "#eeeeee".into();
                }
                s
            },
            |_, w| {
                let mut s = dscweaver_graph::EdgeStyle::default();
                if let Some(c) = &w.cond {
                    s.label = c.to_string();
                }
                match w.kind {
                    EdgeKind::Lifecycle => {
                        s.style = "dotted".into();
                        s.color = "#aaaaaa".into();
                    }
                    EdgeKind::Constraint(_) => match w.origin {
                        Origin::Data => s.style = "dashed".into(),
                        Origin::Translated => s.style = "bold".into(),
                        _ => {}
                    },
                }
                s
            },
        )
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::relation::Relation;
    use crate::state::StateRef;

    #[test]
    fn dot_renders_styles() {
        let mut cs = ConstraintSet::new("d");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.add_service("Svc");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("b"),
            StateRef::start("Svc"),
            Origin::Service,
        ));
        let dot = SyncGraph::build(&cs).to_dot("demo");
        assert!(dot.contains("digraph \"demo\""));
        assert!(dot.contains("shape=box"), "service node boxed");
        assert!(dot.contains("style=\"dotted\""), "lifecycle edges dotted");
        assert!(dot.contains("style=\"dashed\""), "data edges dashed");
    }
}
