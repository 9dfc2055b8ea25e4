//! Process definitions: the sequencing-construct AST the paper argues
//! *against*, kept here faithfully so we can (a) express Figure 2, (b)
//! extract dependencies from it via the PDG crate, and (c) interpret it as
//! the baseline scheduler.

use crate::activity::{Activity, VarName};
use dscweaver_graph::fx::{FxHashMap, FxHashSet};

/// A BPEL-style `flow` link: an explicit cross-branch happen-before edge
/// from activity `from` to activity `to`, optionally guarded by a
/// transition condition label.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Link {
    /// Link name (unique within the flow).
    pub name: String,
    /// Source activity name.
    pub from: String,
    /// Target activity name.
    pub to: String,
    /// Optional transition condition label (`"T"`/`"F"` on branch sources).
    pub condition: Option<String>,
}

/// One case of a `switch`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Case {
    /// Branch value steering into this case (`"T"`, `"F"`, or any label).
    pub label: String,
    /// The case body.
    pub body: Construct,
}

/// The sequencing-construct AST (§1, Figure 2): how mainstream process
/// modeling languages specify synchronization.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Construct {
    /// A leaf activity.
    Act(Activity),
    /// Sequential composition.
    Sequence(Vec<Construct>),
    /// Parallel composition with optional cross-branch links.
    Flow {
        /// Concurrent branches.
        branches: Vec<Construct>,
        /// Cross-branch synchronization links.
        links: Vec<Link>,
    },
    /// Conditional branching; `branch` is the activity that evaluates the
    /// condition (the paper's `if_au`), producing one of the case labels.
    Switch {
        /// The branch-evaluating activity.
        branch: Activity,
        /// Labeled cases.
        cases: Vec<Case>,
    },
    /// Condition-guarded iteration; `cond` re-evaluates before each pass.
    While {
        /// The condition-evaluating activity.
        cond: Activity,
        /// The loop body.
        body: Box<Construct>,
    },
}

impl Construct {
    /// A flow with no links.
    pub fn flow(branches: Vec<Construct>) -> Construct {
        Construct::Flow {
            branches,
            links: Vec::new(),
        }
    }

    /// Depth-first iteration over all activities (including branch/loop
    /// condition evaluators), in syntax order.
    pub fn activities(&self) -> Vec<&Activity> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a Activity>) {
        match self {
            Construct::Act(a) => out.push(a),
            Construct::Sequence(items) => items.iter().for_each(|c| c.collect(out)),
            Construct::Flow { branches, .. } => branches.iter().for_each(|c| c.collect(out)),
            Construct::Switch { branch, cases } => {
                out.push(branch);
                cases.iter().for_each(|c| c.body.collect(out));
            }
            Construct::While { cond, body } => {
                out.push(cond);
                body.collect(out);
            }
        }
    }

    /// Number of activities in the subtree.
    pub fn activity_count(&self) -> usize {
        self.activities().len()
    }

    /// All links declared anywhere in the subtree.
    pub fn links(&self) -> Vec<&Link> {
        let mut out = Vec::new();
        self.collect_links(&mut out);
        out
    }

    fn collect_links<'a>(&'a self, out: &mut Vec<&'a Link>) {
        match self {
            Construct::Act(_) => {}
            Construct::Sequence(items) => items.iter().for_each(|c| c.collect_links(out)),
            Construct::Flow { branches, links } => {
                out.extend(links.iter());
                branches.iter().for_each(|c| c.collect_links(out));
            }
            Construct::Switch { cases, .. } => {
                cases.iter().for_each(|c| c.body.collect_links(out))
            }
            Construct::While { body, .. } => body.collect_links(out),
        }
    }
}

/// A partner service declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServiceDecl {
    /// Service name (`Credit`, `Purchase`, ...).
    pub name: String,
    /// Number of input ports (`Purchase` has 2).
    pub ports: u32,
    /// True if the service calls back asynchronously through a dummy port
    /// `s_d` (§3.3 naming).
    pub asynchronous: bool,
}

/// A complete process definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Process {
    /// Process name.
    pub name: String,
    /// Declared variables.
    pub vars: Vec<VarName>,
    /// Declared partner services.
    pub services: Vec<ServiceDecl>,
    /// The root construct.
    pub root: Construct,
}

/// Validation failures for a process definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// Two activities share a name.
    DuplicateActivity(String),
    /// An activity reads/writes an undeclared variable.
    UndeclaredVariable {
        /// The offending activity.
        activity: String,
        /// The missing variable.
        var: String,
    },
    /// An interaction references an undeclared service/partner (the client
    /// partner `Client` is implicitly declared).
    UndeclaredService {
        /// The offending activity.
        activity: String,
        /// The missing service.
        service: String,
    },
    /// An invoke targets a port the service does not declare.
    BadPort {
        /// The offending activity.
        activity: String,
        /// The service.
        service: String,
        /// The out-of-range port.
        port: u32,
    },
    /// A link endpoint names a non-existent activity.
    DanglingLink {
        /// The link name.
        link: String,
        /// The missing endpoint activity.
        endpoint: String,
    },
    /// A switch has duplicate case labels.
    DuplicateCase {
        /// The branch activity.
        branch: String,
        /// The repeated label.
        label: String,
    },
    /// A switch has no cases.
    EmptySwitch(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::DuplicateActivity(n) => write!(f, "duplicate activity '{n}'"),
            ModelError::UndeclaredVariable { activity, var } => {
                write!(f, "activity '{activity}' uses undeclared variable '{var}'")
            }
            ModelError::UndeclaredService { activity, service } => {
                write!(f, "activity '{activity}' references undeclared service '{service}'")
            }
            ModelError::BadPort {
                activity,
                service,
                port,
            } => write!(
                f,
                "activity '{activity}' invokes port {port} of '{service}' which has fewer ports"
            ),
            ModelError::DanglingLink { link, endpoint } => {
                write!(f, "link '{link}' references missing activity '{endpoint}'")
            }
            ModelError::DuplicateCase { branch, label } => {
                write!(f, "switch '{branch}' has duplicate case label '{label}'")
            }
            ModelError::EmptySwitch(n) => write!(f, "switch '{n}' has no cases"),
        }
    }
}

impl std::error::Error for ModelError {}

impl Process {
    /// Creates a process with implicit `Client` partner.
    pub fn new(name: impl Into<String>, root: Construct) -> Self {
        Process {
            name: name.into(),
            vars: Vec::new(),
            services: Vec::new(),
            root,
        }
    }

    /// All activities in syntax order.
    pub fn activities(&self) -> Vec<&Activity> {
        self.root.activities()
    }

    /// Looks up an activity by name.
    pub fn activity(&self, name: &str) -> Option<&Activity> {
        self.activities().into_iter().find(|a| a.name == name)
    }

    /// Looks up a service declaration by name.
    pub fn service(&self, name: &str) -> Option<&ServiceDecl> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Full structural validation; returns every problem found.
    pub fn validate(&self) -> Vec<ModelError> {
        let mut errors = Vec::new();
        let activities = self.activities();

        // Unique names.
        let mut names = FxHashSet::default();
        names.reserve(activities.len());
        for a in &activities {
            if !names.insert(a.name.as_str()) {
                errors.push(ModelError::DuplicateActivity(a.name.clone()));
            }
        }

        // Variables declared.
        let vars: FxHashSet<&str> = self.vars.iter().map(String::as_str).collect();
        for a in &activities {
            for v in a.reads.iter().chain(&a.writes) {
                if !vars.contains(v.as_str()) {
                    errors.push(ModelError::UndeclaredVariable {
                        activity: a.name.clone(),
                        var: v.clone(),
                    });
                }
            }
        }

        // Services declared; ports in range. `Client` is implicit. The
        // first declaration of a name wins, as in [`Process::service`].
        let mut services: FxHashMap<&str, &ServiceDecl> = FxHashMap::default();
        for s in &self.services {
            services.entry(s.name.as_str()).or_insert(s);
        }
        for a in &activities {
            if let crate::activity::ActivityKind::Invoke { service, port } = &a.kind {
                match services.get(service.as_str()) {
                    None => errors.push(ModelError::UndeclaredService {
                        activity: a.name.clone(),
                        service: service.clone(),
                    }),
                    Some(decl) if *port == 0 || *port > decl.ports => {
                        errors.push(ModelError::BadPort {
                            activity: a.name.clone(),
                            service: service.clone(),
                            port: *port,
                        })
                    }
                    _ => {}
                }
            }
            if let crate::activity::ActivityKind::Receive { from } = &a.kind {
                if from != "Client" && !services.contains_key(from.as_str()) {
                    errors.push(ModelError::UndeclaredService {
                        activity: a.name.clone(),
                        service: from.clone(),
                    });
                }
            }
        }

        // Links resolve; switch cases well-formed.
        for l in self.root.links() {
            for endpoint in [&l.from, &l.to] {
                if !names.contains(endpoint.as_str()) {
                    errors.push(ModelError::DanglingLink {
                        link: l.name.clone(),
                        endpoint: endpoint.clone(),
                    });
                }
            }
        }
        self.check_switches(&self.root, &mut errors);
        errors
    }

    fn check_switches(&self, c: &Construct, errors: &mut Vec<ModelError>) {
        match c {
            Construct::Act(_) => {}
            Construct::Sequence(items) => {
                items.iter().for_each(|i| self.check_switches(i, errors))
            }
            Construct::Flow { branches, .. } => {
                branches.iter().for_each(|i| self.check_switches(i, errors))
            }
            Construct::Switch { branch, cases } => {
                if cases.is_empty() {
                    errors.push(ModelError::EmptySwitch(branch.name.clone()));
                }
                let mut labels = FxHashSet::default();
                for case in cases {
                    if !labels.insert(case.label.as_str()) {
                        errors.push(ModelError::DuplicateCase {
                            branch: branch.name.clone(),
                            label: case.label.clone(),
                        });
                    }
                    self.check_switches(&case.body, errors);
                }
            }
            Construct::While { body, .. } => self.check_switches(body, errors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;

    fn tiny() -> Process {
        let mut p = Process::new(
            "tiny",
            Construct::Sequence(vec![
                Construct::Act(Activity::receive("recClient_po", "Client").writes(&["po"])),
                Construct::Act(Activity::invoke("invCredit_po", "Credit", 1).reads(&["po"])),
            ]),
        );
        p.vars = vec!["po".into()];
        p.services = vec![ServiceDecl {
            name: "Credit".into(),
            ports: 1,
            asynchronous: true,
        }];
        p
    }

    #[test]
    fn valid_process_passes() {
        assert!(tiny().validate().is_empty());
        assert_eq!(tiny().activities().len(), 2);
        assert!(tiny().activity("invCredit_po").is_some());
        assert!(tiny().activity("nope").is_none());
    }

    #[test]
    fn duplicate_names_detected() {
        let mut p = tiny();
        if let Construct::Sequence(items) = &mut p.root {
            items.push(Construct::Act(
                Activity::receive("recClient_po", "Client").writes(&["po"]),
            ));
        }
        assert!(matches!(
            p.validate()[0],
            ModelError::DuplicateActivity(_)
        ));
    }

    #[test]
    fn undeclared_var_and_service_detected() {
        let mut p = tiny();
        p.vars.clear();
        p.services.clear();
        let errs = p.validate();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::UndeclaredVariable { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::UndeclaredService { .. })));
    }

    #[test]
    fn bad_port_detected() {
        let mut p = tiny();
        if let Construct::Sequence(items) = &mut p.root {
            items.push(Construct::Act(
                Activity::invoke("invCredit_x", "Credit", 2).reads(&["po"]),
            ));
        }
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ModelError::BadPort { port: 2, .. })));
    }

    #[test]
    fn dangling_link_detected() {
        let mut p = tiny();
        p.root = Construct::Flow {
            branches: vec![p.root.clone()],
            links: vec![Link {
                name: "l1".into(),
                from: "recClient_po".into(),
                to: "ghost".into(),
                condition: None,
            }],
        };
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ModelError::DanglingLink { .. })));
    }

    #[test]
    fn switch_validation() {
        let mut p = tiny();
        p.vars.push("au".into());
        p.root = Construct::Switch {
            branch: Activity::branch("if_au").reads(&["au"]),
            cases: vec![
                Case {
                    label: "T".into(),
                    body: p.root.clone(),
                },
                Case {
                    label: "T".into(),
                    body: Construct::Act(Activity::assign("noop")),
                },
            ],
        };
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ModelError::DuplicateCase { .. })));
        // Branch activity is included in the activity walk.
        assert!(p.activity("if_au").is_some());
    }

    #[test]
    fn empty_switch_detected() {
        let mut p = tiny();
        p.vars.push("au".into());
        p.root = Construct::Switch {
            branch: Activity::branch("if_au").reads(&["au"]),
            cases: vec![],
        };
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ModelError::EmptySwitch(_))));
    }

    #[test]
    fn links_collected_recursively() {
        let inner = Construct::Flow {
            branches: vec![],
            links: vec![Link {
                name: "l2".into(),
                from: "a".into(),
                to: "b".into(),
                condition: Some("T".into()),
            }],
        };
        let outer = Construct::Flow {
            branches: vec![inner],
            links: vec![Link {
                name: "l1".into(),
                from: "x".into(),
                to: "y".into(),
                condition: None,
            }],
        };
        let names: Vec<&str> = outer.links().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["l1", "l2"]);
    }
}
