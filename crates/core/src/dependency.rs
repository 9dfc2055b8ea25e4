//! The paper's §3 contribution: a systematic categorization of
//! synchronization dependencies into four dimensions — **data**, **control**,
//! **service** and **cooperation** — each modeling synchronization from its
//! own point of view:
//!
//! * *data* and *control* describe constraints **within** the process and
//!   are extractable from design products (dataflow diagrams, PDGs, UML);
//! * *service* describes constraints **between the process and remote
//!   services, and within remote services** (port orderings, asynchronous
//!   callbacks) — found in WSCL-style service descriptions;
//! * *cooperation* describes analyst-supplied business constraints that
//!   none of the other dimensions capture (§3.2's "invoice only after
//!   production" example).

use dscweaver_dscl::{ActivityState, StateRef};
use std::collections::{BTreeMap, BTreeSet};

/// The four dependency dimensions (§3). `Control` carries the branch value
/// subscript of the paper's `→_T` / `→_F` arrows (`None` for the
/// unconditional control dependency the paper writes as a bare `→`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DependencyKind {
    /// Definition-use data dependency (`→_d`).
    Data,
    /// Control dependency (`→_c` with an optional branch value).
    Control {
        /// The branch value (case label) under which the target executes,
        /// or `None` for an unconditional control dependency.
        value: Option<String>,
    },
    /// Service dependency (`→_s`).
    Service,
    /// Cooperation dependency (`→_o`).
    Cooperation,
}

impl DependencyKind {
    /// The paper's arrow for this dimension (`→_d`, `→_T`, ...).
    pub fn arrow(&self) -> String {
        match self {
            DependencyKind::Data => "->d".into(),
            DependencyKind::Control { value: Some(v) } => format!("->{v}"),
            DependencyKind::Control { value: None } => "->".into(),
            DependencyKind::Service => "->s".into(),
            DependencyKind::Cooperation => "->o".into(),
        }
    }

    /// The dimension name used as a Table 1 row header.
    pub fn dimension(&self) -> &'static str {
        match self {
            DependencyKind::Data => "data",
            DependencyKind::Control { .. } => "control",
            DependencyKind::Service => "service",
            DependencyKind::Cooperation => "cooperative",
        }
    }
}

/// One endpoint of a dependency: an activity or external service node,
/// optionally pinned to a specific life-cycle state. When `state` is
/// `None`, the §4.2 default applies at merge time: sources synchronize on
/// their *Finish*, targets on their *Start*.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Endpoint {
    /// Activity or service node name.
    pub name: String,
    /// Explicit life-cycle state, for the fine-granularity cooperation
    /// dependencies of §3.2 (`S(collectSurvey) → F(closeOrder)`).
    pub state: Option<ActivityState>,
}

impl Endpoint {
    /// An endpoint with the default state.
    pub fn new(name: impl Into<String>) -> Self {
        Endpoint {
            name: name.into(),
            state: None,
        }
    }

    /// An endpoint pinned to a state.
    pub fn at(name: impl Into<String>, state: ActivityState) -> Self {
        Endpoint {
            name: name.into(),
            state: Some(state),
        }
    }

    /// Resolves to a [`StateRef`] using `default` when unpinned.
    pub fn resolve(&self, default: ActivityState) -> StateRef {
        StateRef {
            activity: self.name.as_str().into(),
            state: self.state.unwrap_or(default),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.state {
            Some(s) => write!(f, "{}({})", s, self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// One dependency: `from →_kind to`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dependency {
    /// The earlier endpoint.
    pub from: Endpoint,
    /// The later endpoint.
    pub to: Endpoint,
    /// The dimension.
    pub kind: DependencyKind,
}

impl Dependency {
    /// A data dependency.
    pub fn data(from: &str, to: &str) -> Self {
        Dependency {
            from: Endpoint::new(from),
            to: Endpoint::new(to),
            kind: DependencyKind::Data,
        }
    }

    /// A control dependency with a branch value.
    pub fn control(from: &str, to: &str, value: &str) -> Self {
        Dependency {
            from: Endpoint::new(from),
            to: Endpoint::new(to),
            kind: DependencyKind::Control {
                value: Some(value.into()),
            },
        }
    }

    /// An unconditional control dependency (the paper's bare
    /// `if_au → replyClient_oi` entry in Table 1).
    pub fn control_unconditional(from: &str, to: &str) -> Self {
        Dependency {
            from: Endpoint::new(from),
            to: Endpoint::new(to),
            kind: DependencyKind::Control { value: None },
        }
    }

    /// A service dependency.
    pub fn service(from: &str, to: &str) -> Self {
        Dependency {
            from: Endpoint::new(from),
            to: Endpoint::new(to),
            kind: DependencyKind::Service,
        }
    }

    /// A cooperation dependency with default states.
    pub fn cooperation(from: &str, to: &str) -> Self {
        Dependency {
            from: Endpoint::new(from),
            to: Endpoint::new(to),
            kind: DependencyKind::Cooperation,
        }
    }

    /// A cooperation dependency between explicit states (fine granularity,
    /// §3.2).
    pub fn cooperation_states(from: StateRef, to: StateRef) -> Self {
        Dependency {
            from: Endpoint::at(from.activity, from.state),
            to: Endpoint::at(to.activity, to.state),
            kind: DependencyKind::Cooperation,
        }
    }
}

impl std::fmt::Display for Dependency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.from, self.kind.arrow(), self.to)
    }
}

/// All dependencies of a process, plus the node declarations needed to
/// merge them (the input to the §4 pipeline).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DependencySet {
    /// Process name (report label).
    pub name: String,
    /// Internal activities (`A`).
    pub activities: BTreeSet<String>,
    /// External service nodes (`S`), in §3.3 naming (`Purchase_1`,
    /// `Purchase_d`, ...).
    pub services: BTreeSet<String>,
    /// Guard activity → its possible branch values (needed to reason about
    /// branch-complete coverage during optimization).
    pub domains: BTreeMap<String, Vec<String>>,
    /// The dependencies.
    pub deps: Vec<Dependency>,
}

impl DependencySet {
    /// An empty set.
    pub fn new(name: impl Into<String>) -> Self {
        DependencySet {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares an internal activity.
    pub fn add_activity(&mut self, name: impl Into<String>) {
        self.activities.insert(name.into());
    }

    /// Declares an external service node.
    pub fn add_service(&mut self, name: impl Into<String>) {
        self.services.insert(name.into());
    }

    /// Declares a guard domain.
    pub fn add_domain(&mut self, guard: impl Into<String>, values: Vec<String>) {
        self.domains.insert(guard.into(), values);
    }

    /// Appends a dependency.
    pub fn push(&mut self, d: Dependency) {
        self.deps.push(d);
    }

    /// Dependencies of one dimension, in insertion order.
    pub fn of_dimension(&self, dim: &str) -> Vec<&Dependency> {
        self.deps
            .iter()
            .filter(|d| d.kind.dimension() == dim)
            .collect()
    }

    /// Counts per dimension, Table-1 style.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for d in &self.deps {
            *out.entry(d.kind.dimension()).or_insert(0) += 1;
        }
        out
    }

    /// Renders the set as the paper's Table 1: one row block per
    /// dimension, dependencies listed with their dimension arrows.
    pub fn render_table1(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Table 1. The {} process dependencies\n",
            self.name
        ));
        out.push_str(&format!("{:-<64}\n", ""));
        for dim in ["data", "control", "cooperative", "service"] {
            let deps = self.of_dimension(dim);
            if deps.is_empty() {
                continue;
            }
            out.push_str(&format!("{dim} ({}):\n", deps.len()));
            for d in deps {
                out.push_str(&format!("    {d}\n"));
            }
        }
        let total = self.deps.len();
        out.push_str(&format!("{:-<64}\ntotal: {total}\n", ""));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrows_match_paper_notation() {
        assert_eq!(Dependency::data("a", "b").to_string(), "a ->d b");
        assert_eq!(Dependency::control("if_au", "x", "T").to_string(), "if_au ->T x");
        assert_eq!(
            Dependency::control_unconditional("if_au", "r").to_string(),
            "if_au -> r"
        );
        assert_eq!(Dependency::service("a", "Credit").to_string(), "a ->s Credit");
        assert_eq!(Dependency::cooperation("a", "b").to_string(), "a ->o b");
    }

    #[test]
    fn state_pinned_cooperation() {
        let d = Dependency::cooperation_states(
            StateRef::start("collectSurvey"),
            StateRef::finish("closeOrder"),
        );
        assert_eq!(d.to_string(), "S(collectSurvey) ->o F(closeOrder)");
        assert_eq!(
            d.from.resolve(ActivityState::Finish),
            StateRef::start("collectSurvey"),
            "explicit state wins over the default"
        );
    }

    #[test]
    fn endpoint_default_resolution() {
        let e = Endpoint::new("a");
        assert_eq!(e.resolve(ActivityState::Finish), StateRef::finish("a"));
        assert_eq!(e.resolve(ActivityState::Start), StateRef::start("a"));
    }

    #[test]
    fn counts_and_dimension_filter() {
        let mut ds = DependencySet::new("t");
        ds.push(Dependency::data("a", "b"));
        ds.push(Dependency::data("b", "c"));
        ds.push(Dependency::control("g", "b", "T"));
        ds.push(Dependency::cooperation("a", "c"));
        let counts = ds.counts();
        assert_eq!(counts["data"], 2);
        assert_eq!(counts["control"], 1);
        assert_eq!(counts["cooperative"], 1);
        assert_eq!(ds.of_dimension("data").len(), 2);
        assert_eq!(ds.of_dimension("service").len(), 0);
    }

    #[test]
    fn table1_rendering() {
        let mut ds = DependencySet::new("Purchasing");
        ds.push(Dependency::data("recClient_po", "invCredit_po"));
        ds.push(Dependency::service("invCredit_po", "Credit"));
        let t = ds.render_table1();
        assert!(t.contains("Table 1. The Purchasing process dependencies"));
        assert!(t.contains("recClient_po ->d invCredit_po"));
        assert!(t.contains("invCredit_po ->s Credit"));
        assert!(t.contains("total: 2"));
    }
}
