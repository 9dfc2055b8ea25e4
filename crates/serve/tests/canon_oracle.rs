//! Pins the one-pass canonicalizer (`serve::canon`) to an independent
//! oracle: the straightforward three-pass implementation it replaced,
//! which clones a normalized tree, binds names into string-keyed maps and
//! clones a renamed tree before rendering.
//!
//! Over the built-in workload processes, seeded random processes and
//! seeded textual variants of both (shuffled declarations, renamed
//! identifiers, comments and whitespace, nested singleton wrappers,
//! repeated reads/writes), the canonical text, hash, every `Renaming`
//! lookup and the reparsed canonical `Process` must match the oracle's.
//! Canonicalization must also be idempotent, and `render_original` must
//! round-trip. The oracle keeps every label verbatim, so the generators
//! use only labels that do not look like canonical names.

use dscweaver_model::{
    parse_process, Activity, ActivityKind, Case, Construct, Link, Process, ServiceDecl,
};
use dscweaver_prng::Rng;
use dscweaver_serve::{canonicalize, content_hash, CanonicalForm, ProcessEntry};
use std::collections::{BTreeMap, HashSet};

// ---------------------------------------------------------------------
// The oracle: normalize → bind names → rename → render.
// ---------------------------------------------------------------------

#[derive(Default)]
struct OracleNames {
    activities: BTreeMap<String, String>,
    variables: BTreeMap<String, String>,
    services: BTreeMap<String, String>,
    links: BTreeMap<String, String>,
    inverse: BTreeMap<String, String>,
}

impl OracleNames {
    fn bind(
        map: &mut BTreeMap<String, String>,
        inverse: &mut BTreeMap<String, String>,
        original: &str,
        prefix: &str,
    ) {
        if map.contains_key(original) {
            return;
        }
        let canonical = format!("{prefix}{}", map.len());
        map.insert(original.to_string(), canonical.clone());
        inverse.insert(canonical, original.to_string());
    }

    /// The replaced `render_original`: a string-keyed lookup per token.
    fn render_original(&self, text: &str) -> String {
        let mut out = String::new();
        let mut token = String::new();
        for c in text.chars().chain(std::iter::once('\0')) {
            let continues = if token.is_empty() {
                c.is_ascii_alphabetic() || c == '_'
            } else {
                c.is_ascii_alphanumeric() || c == '_'
            };
            if continues {
                token.push(c);
                continue;
            }
            if !token.is_empty() {
                out.push_str(self.inverse.get(&token).unwrap_or(&token));
                token.clear();
            }
            if c != '\0' {
                out.push(c);
            }
        }
        out
    }
}

struct Oracle {
    text: String,
    process: Process,
    names: OracleNames,
}

fn normalize(c: &Construct) -> Construct {
    match c {
        Construct::Act(a) => {
            let mut a = a.clone();
            dedupe(&mut a.reads);
            dedupe(&mut a.writes);
            Construct::Act(a)
        }
        Construct::Sequence(items) => {
            let mut flat = Vec::new();
            for item in items {
                match normalize(item) {
                    Construct::Sequence(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            match flat.len() {
                1 => flat.pop().unwrap(),
                _ => Construct::Sequence(flat),
            }
        }
        Construct::Flow { branches, links } => {
            let branches: Vec<Construct> = branches.iter().map(normalize).collect();
            if branches.len() == 1 && links.is_empty() {
                return branches.into_iter().next().unwrap();
            }
            Construct::Flow {
                branches,
                links: links.clone(),
            }
        }
        Construct::Switch { branch, cases } => {
            let mut branch = branch.clone();
            dedupe(&mut branch.reads);
            dedupe(&mut branch.writes);
            Construct::Switch {
                branch,
                cases: cases
                    .iter()
                    .map(|c| Case {
                        label: c.label.clone(),
                        body: normalize(&c.body),
                    })
                    .collect(),
            }
        }
        Construct::While { cond, body } => {
            let mut cond = cond.clone();
            dedupe(&mut cond.reads);
            dedupe(&mut cond.writes);
            Construct::While {
                cond,
                body: Box::new(normalize(body)),
            }
        }
    }
}

fn dedupe(vars: &mut Vec<String>) {
    let mut seen = HashSet::new();
    vars.retain(|v| seen.insert(v.clone()));
}

fn bind_names(c: &Construct, r: &mut OracleNames) {
    let bind_activity = |r: &mut OracleNames, a: &Activity| {
        OracleNames::bind(&mut r.activities, &mut r.inverse, &a.name, "a");
        for v in a.reads.iter().chain(&a.writes) {
            OracleNames::bind(&mut r.variables, &mut r.inverse, v, "v");
        }
        if let Some(partner) = a.kind.partner() {
            if partner != "Client" {
                OracleNames::bind(&mut r.services, &mut r.inverse, partner, "s");
            }
        }
    };
    match c {
        Construct::Act(a) => bind_activity(r, a),
        Construct::Sequence(items) => items.iter().for_each(|i| bind_names(i, r)),
        Construct::Flow { branches, links } => {
            branches.iter().for_each(|b| bind_names(b, r));
            for l in links {
                OracleNames::bind(&mut r.links, &mut r.inverse, &l.name, "l");
            }
        }
        Construct::Switch { branch, cases } => {
            bind_activity(r, branch);
            cases.iter().for_each(|c| bind_names(&c.body, r));
        }
        Construct::While { cond, body } => {
            bind_activity(r, cond);
            bind_names(body, r);
        }
    }
}

fn rename(c: &Construct, r: &OracleNames) -> Construct {
    let map_activity = |a: &Activity| {
        let mut a = a.clone();
        a.name = r.activities[&a.name].clone();
        for v in a.reads.iter_mut().chain(a.writes.iter_mut()) {
            *v = r.variables[v.as_str()].clone();
        }
        match &mut a.kind {
            ActivityKind::Receive { from } if from != "Client" => {
                *from = r.services[from.as_str()].clone();
            }
            ActivityKind::Invoke { service, .. } => {
                *service = r.services[service.as_str()].clone();
            }
            ActivityKind::Reply { to } if to != "Client" => {
                *to = r.services[to.as_str()].clone();
            }
            _ => {}
        }
        a
    };
    match c {
        Construct::Act(a) => Construct::Act(map_activity(a)),
        Construct::Sequence(items) => {
            Construct::Sequence(items.iter().map(|i| rename(i, r)).collect())
        }
        Construct::Flow { branches, links } => Construct::Flow {
            branches: branches.iter().map(|b| rename(b, r)).collect(),
            links: links
                .iter()
                .map(|l| Link {
                    name: r.links[&l.name].clone(),
                    from: r.activities[&l.from].clone(),
                    to: r.activities[&l.to].clone(),
                    condition: l.condition.clone(),
                })
                .collect(),
        },
        Construct::Switch { branch, cases } => Construct::Switch {
            branch: map_activity(branch),
            cases: cases
                .iter()
                .map(|c| Case {
                    label: c.label.clone(),
                    body: rename(&c.body, r),
                })
                .collect(),
        },
        Construct::While { cond, body } => Construct::While {
            cond: map_activity(cond),
            body: Box::new(rename(body, r)),
        },
    }
}

fn render_activity(a: &Activity, out: &mut String) {
    match &a.kind {
        ActivityKind::Receive { from } => out.push_str(&format!("receive {} from {from}", a.name)),
        ActivityKind::Invoke { service, port } => {
            out.push_str(&format!("invoke {} on {service} port {port}", a.name))
        }
        ActivityKind::Reply { to } => out.push_str(&format!("reply {} to {to}", a.name)),
        ActivityKind::Assign => out.push_str(&format!("assign {}", a.name)),
        ActivityKind::Branch => out.push_str(&format!("switch {}", a.name)),
        ActivityKind::Empty => out.push_str(&format!("empty {}", a.name)),
    }
    render_clauses(a, out);
}

fn render_clauses(a: &Activity, out: &mut String) {
    if !a.reads.is_empty() {
        out.push_str(&format!(" reads {}", a.reads.join(",")));
    }
    if !a.writes.is_empty() {
        out.push_str(&format!(" writes {}", a.writes.join(",")));
    }
}

fn render_construct(c: &Construct, out: &mut String) {
    match c {
        Construct::Act(a) => {
            render_activity(a, out);
            out.push(';');
        }
        Construct::Sequence(items) => {
            out.push_str("sequence{");
            items.iter().for_each(|i| render_construct(i, out));
            out.push('}');
        }
        Construct::Flow { branches, links } => {
            out.push_str("flow{");
            branches.iter().for_each(|b| render_construct(b, out));
            for l in links {
                out.push_str(&format!("link {} from {} to {}", l.name, l.from, l.to));
                if let Some(cond) = &l.condition {
                    out.push_str(&format!(" when {cond}"));
                }
                out.push(';');
            }
            out.push('}');
        }
        Construct::Switch { branch, cases } => {
            out.push_str(&format!("switch {}", branch.name));
            render_clauses(branch, out);
            out.push('{');
            for case in cases {
                out.push_str(&format!("case {}{{", case.label));
                render_construct(&case.body, out);
                out.push('}');
            }
            out.push('}');
        }
        Construct::While { cond, body } => {
            out.push_str(&format!("while {}", cond.name));
            render_clauses(cond, out);
            out.push('{');
            render_construct(body, out);
            out.push('}');
        }
    }
}

fn oracle(process: &Process) -> Oracle {
    let root = normalize(&process.root);
    let mut names = OracleNames::default();
    names.inverse.insert("p0".into(), process.name.clone());
    bind_names(&root, &mut names);
    let root = rename(&root, &names);
    let vars: Vec<String> = (0..names.variables.len())
        .map(|i| format!("v{i}"))
        .collect();
    let mut services: Vec<ServiceDecl> = Vec::new();
    for (original, canonical) in &names.services {
        if let Some(decl) = process.service(original) {
            services.push(ServiceDecl {
                name: canonical.clone(),
                ports: decl.ports,
                asynchronous: decl.asynchronous,
            });
        }
    }
    services.sort_by_key(|s| s.name[1..].parse::<usize>().unwrap());
    let mut text = String::from("process p0{");
    if !vars.is_empty() {
        text.push_str(&format!("var {};", vars.join(",")));
    }
    for s in &services {
        text.push_str(&format!("service {}{{ports {}", s.name, s.ports));
        if s.asynchronous {
            text.push_str(" async");
        }
        text.push('}');
    }
    render_construct(&root, &mut text);
    text.push('}');
    Oracle {
        text,
        process: Process {
            name: "p0".into(),
            vars,
            services,
            root,
        },
        names,
    }
}

// ---------------------------------------------------------------------
// Seeded processes and textual variants.
// ---------------------------------------------------------------------

/// Labels the generators use: none looks like a canonical name.
const LABELS: [&str; 4] = ["T", "F", "yes", "No_2"];

/// A random valid process: nested constructs, declared variables read and
/// written with repeats, services with several ports, `Client`
/// interactions, replies to an undeclared partner, and flow links whose
/// endpoints may lie anywhere in the tree (ahead of the flow too).
fn random_process(rng: &mut Rng) -> Process {
    struct Gen<'r> {
        rng: &'r mut Rng,
        next: usize,
        vars: Vec<String>,
        services: Vec<ServiceDecl>,
    }
    impl Gen<'_> {
        fn name(&mut self, prefix: &str) -> String {
            self.next += 1;
            format!("{prefix}{}", self.next)
        }
        fn vars(&mut self) -> Vec<String> {
            let n = self.rng.random_range(3);
            (0..n)
                .map(|_| self.rng.choose(&self.vars).unwrap().clone())
                .collect()
        }
        fn activity(&mut self) -> Activity {
            let name = self.name("act");
            let svc = self.rng.random_range(self.services.len());
            let decl = self.services[svc].clone();
            let mut a = match self.rng.random_range(7) {
                0 => Activity::receive(&name, "Client"),
                1 => Activity::receive(&name, &decl.name),
                2 => Activity::invoke(
                    &name,
                    &decl.name,
                    1 + self.rng.random_range(decl.ports as usize) as u32,
                ),
                3 => Activity::reply(&name, "Client"),
                4 => Activity::reply(&name, "Ghost"),
                5 => Activity::new(name, ActivityKind::Empty),
                _ => Activity::assign(&name),
            };
            a.reads = self.vars();
            a.writes = self.vars();
            a
        }
        fn construct(&mut self, depth: usize) -> Construct {
            let pick = if depth == 0 {
                0
            } else {
                self.rng.random_range(6)
            };
            match pick {
                0 | 1 => Construct::Act(self.activity()),
                2 => {
                    let n = self.rng.random_range(4);
                    Construct::Sequence((0..n).map(|_| self.construct(depth - 1)).collect())
                }
                3 => {
                    let n = 1 + self.rng.random_range(3);
                    let branches = (0..n).map(|_| self.construct(depth - 1)).collect();
                    // Links are added once every activity name is known.
                    Construct::Flow {
                        branches,
                        links: Vec::new(),
                    }
                }
                4 => {
                    let mut branch = Activity::branch(&self.name("gate"));
                    branch.reads = self.vars();
                    let mut labels = LABELS.to_vec();
                    self.rng.shuffle(&mut labels);
                    let n = 1 + self.rng.random_range(labels.len());
                    let cases = labels[..n]
                        .iter()
                        .map(|l| Case {
                            label: l.to_string(),
                            body: self.construct(depth - 1),
                        })
                        .collect();
                    Construct::Switch { branch, cases }
                }
                _ => {
                    let mut cond = Activity::branch(&self.name("loop"));
                    cond.reads = self.vars();
                    Construct::While {
                        cond,
                        body: Box::new(self.construct(depth - 1)),
                    }
                }
            }
        }
        fn add_links(&mut self, c: &mut Construct, names: &[String]) {
            match c {
                Construct::Act(_) => {}
                Construct::Sequence(items) => {
                    items.iter_mut().for_each(|i| self.add_links(i, names))
                }
                Construct::Flow { branches, links } => {
                    branches.iter_mut().for_each(|b| self.add_links(b, names));
                    for _ in 0..self.rng.random_range(3) {
                        let condition = match self.rng.random_range(3) {
                            0 => Some(self.rng.choose(&LABELS).unwrap().to_string()),
                            _ => None,
                        };
                        links.push(Link {
                            name: self.name("lnk"),
                            from: self.rng.choose(names).unwrap().clone(),
                            to: self.rng.choose(names).unwrap().clone(),
                            condition,
                        });
                    }
                }
                Construct::Switch { cases, .. } => cases
                    .iter_mut()
                    .for_each(|c| self.add_links(&mut c.body, names)),
                Construct::While { body, .. } => self.add_links(body, names),
            }
        }
    }
    let mut g = Gen {
        rng,
        next: 0,
        vars: (0..5).map(|i| format!("d{i}")).collect(),
        services: (0..3)
            .map(|i| ServiceDecl {
                name: format!("Svc{i}"),
                ports: 1 + i as u32,
                asynchronous: i % 2 == 0,
            })
            .collect(),
    };
    let mut root = g.construct(4);
    let names: Vec<String> = root.activities().iter().map(|a| a.name.clone()).collect();
    if !names.is_empty() {
        g.add_links(&mut root, &names);
    }
    let process = Process {
        name: g.name("Proc"),
        vars: g.vars.clone(),
        services: g.services.clone(),
        root,
    };
    assert!(process.validate().is_empty(), "{:?}", process.validate());
    process
}

/// Prints `process` as DSL text, varied by `rng` when `vary` is set:
/// identifiers consistently renamed (sometimes to names shaped like
/// canonical ones), declarations shuffled, split and padded with unused
/// ones, comments and odd whitespace between tokens, constructs wrapped in
/// singleton `sequence`/`flow` blocks, and repeated reads/writes.
struct Printer<'r> {
    rng: &'r mut Rng,
    vary: bool,
    names: BTreeMap<String, String>,
    out: String,
}

impl Printer<'_> {
    fn chance(&mut self, percent: usize) -> bool {
        self.vary && self.rng.random_range(100) < percent
    }

    fn gap(&mut self) {
        let gap = if !self.vary {
            " "
        } else {
            match self.rng.random_range(12) {
                0 => "\n  // a comment { with braces };\n",
                1 => " # another comment\n\t",
                2 => "\n\n",
                3 => "\t ",
                _ => " ",
            }
        };
        self.out.push_str(gap);
    }

    fn token(&mut self, t: &str) {
        self.out.push_str(t);
        self.gap();
    }

    /// The variant's name for an identifier (`Client` is never renamed).
    fn ident(&mut self, original: &str) {
        if !self.vary || original == "Client" {
            return self.token(original);
        }
        let fresh = self.names.len();
        let name = match self.names.get(original) {
            Some(name) => name.clone(),
            None => {
                let name = match self.rng.random_range(4) {
                    // Shaped like a canonical name, of another namespace.
                    0 => format!(
                        "{}{fresh}",
                        ["a", "v", "s", "l", "p", "c"][self.rng.random_range(6)]
                    ),
                    1 => format!("Renamed_{fresh}"),
                    2 => format!("_x{fresh}y"),
                    _ => format!("n{fresh}"),
                };
                self.names.insert(original.to_string(), name.clone());
                name
            }
        };
        self.token(&name);
    }

    fn list(&mut self, keyword: &str, vars: &[String]) {
        if vars.is_empty() {
            return;
        }
        self.token(keyword);
        let mut vars = vars.to_vec();
        if self.chance(30) {
            let repeat = vars[self.rng.random_range(vars.len())].clone();
            vars.push(repeat);
        }
        for (i, v) in vars.iter().enumerate() {
            if i > 0 {
                self.token(",");
            }
            self.ident(v);
        }
    }

    fn activity_head(&mut self, a: &Activity) {
        match &a.kind {
            ActivityKind::Receive { from } => {
                self.token("receive");
                self.ident(&a.name);
                self.token("from");
                self.ident(from);
            }
            ActivityKind::Invoke { service, port } => {
                self.token("invoke");
                self.ident(&a.name);
                self.token("on");
                self.ident(service);
                self.token("port");
                self.token(&port.to_string());
            }
            ActivityKind::Reply { to } => {
                self.token("reply");
                self.ident(&a.name);
                self.token("to");
                self.ident(to);
            }
            ActivityKind::Assign => {
                self.token("assign");
                self.ident(&a.name);
            }
            ActivityKind::Empty => {
                self.token("empty");
                self.ident(&a.name);
            }
            ActivityKind::Branch => unreachable!("branches print with their construct"),
        }
    }

    fn clauses(&mut self, a: &Activity) {
        if self.chance(50) {
            self.list("writes", &a.writes);
            self.list("reads", &a.reads);
        } else {
            self.list("reads", &a.reads);
            self.list("writes", &a.writes);
        }
    }

    fn construct(&mut self, c: &Construct) {
        if self.chance(10) {
            let wrapper = if self.chance(50) { "sequence" } else { "flow" };
            self.token(wrapper);
            self.token("{");
            self.construct(c);
            self.token("}");
            return;
        }
        match c {
            Construct::Act(a) => {
                self.activity_head(a);
                self.clauses(a);
                self.token(";");
            }
            Construct::Sequence(items) => {
                self.token("sequence");
                self.token("{");
                let mut i = 0;
                while i < items.len() {
                    // Group a run of items into a nested sequence, which
                    // flattens back into this one.
                    let run = if self.chance(15) {
                        1 + self.rng.random_range(items.len() - i)
                    } else {
                        1
                    };
                    if run > 1 {
                        self.token("sequence");
                        self.token("{");
                        items[i..i + run]
                            .iter()
                            .for_each(|item| self.construct(item));
                        self.token("}");
                    } else {
                        self.construct(&items[i]);
                    }
                    i += run;
                }
                self.token("}");
            }
            Construct::Flow { branches, links } => {
                self.token("flow");
                self.token("{");
                branches.iter().for_each(|b| self.construct(b));
                for l in links {
                    self.token("link");
                    self.ident(&l.name);
                    self.token("from");
                    self.ident(&l.from);
                    self.token("to");
                    self.ident(&l.to);
                    if let Some(cond) = &l.condition {
                        self.token("when");
                        self.token(cond);
                    }
                    self.token(";");
                }
                self.token("}");
            }
            Construct::Switch { branch, cases } => {
                self.token("switch");
                self.ident(&branch.name);
                self.clauses(branch);
                self.token("{");
                for case in cases {
                    self.token("case");
                    self.token(&case.label);
                    self.token("{");
                    self.construct(&case.body);
                    self.token("}");
                }
                self.token("}");
            }
            Construct::While { cond, body } => {
                self.token("while");
                self.ident(&cond.name);
                self.clauses(cond);
                self.token("{");
                self.construct(body);
                self.token("}");
            }
        }
    }

    fn process(mut self, p: &Process) -> String {
        self.token("process");
        self.ident(&p.name);
        self.token("{");
        let mut vars = p.vars.clone();
        let mut services = p.services.clone();
        if self.vary {
            self.rng.shuffle(&mut vars);
            self.rng.shuffle(&mut services);
            vars.push("unused_var".into());
            services.push(ServiceDecl {
                name: "UnusedSvc".into(),
                ports: 3,
                asynchronous: false,
            });
        }
        // One `var` statement per chunk.
        let mut rest = &vars[..];
        while !rest.is_empty() {
            let take = if self.chance(50) {
                1 + self.rng.random_range(rest.len())
            } else {
                rest.len()
            };
            self.token("var");
            for (i, v) in rest[..take].iter().enumerate() {
                if i > 0 {
                    self.token(",");
                }
                self.ident(v);
            }
            self.token(";");
            rest = &rest[take..];
        }
        for s in &services {
            self.token("service");
            self.ident(&s.name);
            self.token("{");
            self.token("ports");
            self.token(&s.ports.to_string());
            if s.asynchronous {
                self.token("async");
            }
            self.token("}");
        }
        self.construct(&p.root);
        self.token("}");
        self.out
    }
}

fn print(p: &Process, rng: &mut Rng, vary: bool) -> String {
    Printer {
        rng,
        vary,
        names: BTreeMap::new(),
        out: String::new(),
    }
    .process(p)
}

fn builtin_processes() -> Vec<Process> {
    vec![
        dscweaver_workloads::purchasing_process(),
        dscweaver_workloads::loan_process(),
        dscweaver_workloads::quotes_process(),
        dscweaver_workloads::deployment_process(),
    ]
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

/// Every canonical name of the oracle, and spellings next to them that
/// must stay verbatim.
fn probe_text(o: &Oracle) -> String {
    let mut probe: Vec<String> = o.names.inverse.keys().cloned().collect();
    probe.extend(["a999", "a01", "p1", "v00", "c0", "x_a0", "a0b", "s"].map(String::from));
    probe.join(" ")
}

/// Asserts that the canonical form of `text` agrees with the oracle in
/// every observable, and returns it.
fn check(text: &str) -> CanonicalForm {
    let form = canonicalize(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let o = oracle(&parse_process(text).unwrap());
    assert_eq!(form.text, o.text, "canonical text of\n{text}");
    assert_eq!(form.hash, content_hash(&o.text));
    assert_eq!(
        form.process().unwrap(),
        o.process,
        "canonical tree of\n{text}"
    );

    let r = &form.renaming;
    assert_eq!(r.len(), o.names.inverse.len());
    for (canonical, original) in &o.names.inverse {
        assert_eq!(
            r.original(canonical),
            Some(original.as_str()),
            "{canonical}"
        );
    }
    for (original, canonical) in &o.names.activities {
        assert_eq!(r.activity(original), Some(canonical.as_str()), "{original}");
    }
    for probe in [form.text.clone(), probe_text(&o)] {
        assert_eq!(r.render_original(&probe), o.names.render_original(&probe));
    }

    // Idempotent, and rendering the canonical text back gives a variant
    // in the tenant's names that canonicalizes to the same form.
    let again = canonicalize(&form.text).unwrap();
    assert_eq!(again.text, form.text);
    let back = canonicalize(&r.render_original(&form.text)).unwrap();
    assert_eq!(back.text, form.text);
    assert_eq!(&back.renaming, r);
    form
}

#[test]
fn builtin_processes_and_their_variants_match_the_oracle() {
    let mut rng = Rng::seed_from_u64(0x0c4e_0001);
    for base in builtin_processes() {
        let plain = check(&print(&base, &mut rng, false));
        for _ in 0..40 {
            let variant = print(&base, &mut rng, true);
            let form = check(&variant);
            assert_eq!(
                form.hash, plain.hash,
                "variant left the canonical class:\n{variant}"
            );
        }
    }
}

#[test]
fn random_processes_and_their_variants_match_the_oracle() {
    let mut rng = Rng::seed_from_u64(0x0c4e_0002);
    for _ in 0..150 {
        let base = random_process(&mut rng);
        let plain = check(&print(&base, &mut rng, false));
        for _ in 0..3 {
            let variant = print(&base, &mut rng, true);
            assert_eq!(check(&variant).hash, plain.hash, "{variant}");
        }
    }
}

#[test]
fn compiled_dscl_renders_back_like_the_oracle() {
    let mut rng = Rng::seed_from_u64(0x0c4e_0003);
    for base in builtin_processes() {
        let text = print(&base, &mut rng, true);
        let form = canonicalize(&text).unwrap();
        let o = oracle(&parse_process(&text).unwrap());
        let entry = ProcessEntry::build_canonical(&form, 1).unwrap();
        assert_eq!(entry.process, o.process);
        let dscl = entry.output.minimal.to_dscl();
        assert_eq!(
            form.renaming.render_original(&dscl),
            o.names.render_original(&dscl)
        );
    }
}
