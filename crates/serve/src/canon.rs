//! Canonicalization: identity by causal structure, not by text.
//!
//! Tenants submitting textual variants of one process — reordered
//! declarations, renamed services or activities, different whitespace or
//! comments — describe the same synchronization structure (exactly the
//! equivalence the paper's Definition-3 closure abstracts over), yet a
//! raw content hash files each variant under its own key and recompiles
//! identical artifacts. This module computes a **canonical form** that is
//! invariant under those mutations.
//!
//! [`canonicalize`] parses the `.proc` text (the lexer already discards
//! whitespace and comments) and validates it, so errors surface with the
//! tenant's own names. Then **one pass** over the parsed tree normalizes,
//! renames and renders at once; no normalized or renamed tree is built:
//!
//! * **normalize** — nested sequences flatten into their parent,
//!   singleton `sequence`/`flow` wrappers unwrap (a `flow` with links
//!   keeps its wrapper even with one branch), and each activity's
//!   `reads`/`writes` lists drop repeats;
//! * **rename** — every identifier namespace is numbered in
//!   first-occurrence order over the depth-first syntax traversal:
//!   activities `a0, a1, …`, variables `v0, v1, …` (reads before writes,
//!   per activity), services and partners `s0, s1, …`, links `l0, l1, …`
//!   and the process `p0`. Activities are numbered by a pre-scan, because
//!   a link may name an activity further down the tree. The implicit
//!   `Client` partner is part of the language and keeps its name.
//!   Declarations are emitted in canonical order, so the declaration order
//!   of the source text is irrelevant; declared but unused variables and
//!   unreferenced service declarations carry no synchronization content
//!   and are dropped;
//! * **labels** — case and link-condition labels are branch values, not
//!   names, and stay verbatim (`T`, `F`, `approved`), with one exception:
//!   a label shaped like a canonical name (`[avslpc]<digits>`, e.g. `a1`)
//!   would be mistaken for one when responses are rendered back, so those
//!   labels are renamed `c0, c1, …` in their sorted order (zero-padded to
//!   one width once there are more than ten). The sorted order of a
//!   switch's labels fixes its DSCL `domain` order and its default branch
//!   value; renaming keeps that order among the renamed labels and against
//!   verbatim labels that start with an upper-case letter or `_`, but not
//!   against verbatim labels that start with a lower-case letter;
//! * **render** — the canonical text is written straight from the tree in
//!   one fixed layout and FNV-1a hashed.
//!
//! The canonical [`Process`] is needed only to compile a cache miss or to
//! re-weave: [`CanonicalForm::process`] parses it from the canonical text,
//! which is a fixed point of canonicalization. A canonical hit never
//! builds it.
//!
//! Two submissions share a canonical hash **iff** their canonical texts
//! are equal, i.e. they are alpha-equivalent modulo the normalizations
//! above — semantically distinct processes render distinct canonical
//! texts and never share an entry. The registry uses the canonical hash
//! as the second-level cache key (the raw-text hash stays in front as a
//! first-level memo), and the [`Renaming`] travels with each request so
//! response bodies are rendered back into the tenant's own names. It holds
//! one vector of original names per namespace, indexed by the canonical
//! number, so rendering `a17` back is an index, not a string-keyed lookup.
//!
//! Every pass here recurses over the construct tree; the parser bounds
//! its depth at [`dscweaver_model::MAX_NESTING`].

use dscweaver_graph::fx::FxHashMap;
use dscweaver_model::{
    parse_process, Activity, ActivityKind, Construct, Link, Process, ServiceDecl,
};
use std::sync::OnceLock;

/// The partner every process may receive from and reply to without
/// declaring it. It keeps its name in the canonical form.
const CLIENT: &str = "Client";

/// True for a case or link-condition label that could be taken for a
/// canonical name: one of the canonical prefixes, then only digits. Such
/// labels are renamed into the `c` namespace.
fn is_label_shaped(label: &str) -> bool {
    match label.as_bytes() {
        [prefix, digits @ ..] => {
            b"avslpc".contains(prefix)
                && !digits.is_empty()
                && digits.iter().all(u8::is_ascii_digit)
        }
        [] => false,
    }
}

/// The digit width of renamed label numbers: wide enough for the largest
/// index, so that their string order is their numeric order.
fn label_width(count: usize) -> usize {
    let mut width = 1;
    let mut top = count.saturating_sub(1) / 10;
    while top > 0 {
        width += 1;
        top /= 10;
    }
    width
}

/// Appends `n` in decimal, zero-padded to `width` digits.
fn push_number(out: &mut String, n: usize, width: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for _ in digits.len() - at..width {
        out.push('0');
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// Appends the canonical name `prefix` + `k`, zero-padded to `width`
/// digits.
fn push_name(out: &mut String, prefix: char, k: usize, width: usize) {
    out.push(prefix);
    push_number(out, k, width);
}

fn canonical_name(prefix: char, k: usize) -> Box<str> {
    let mut name = String::with_capacity(4);
    push_name(&mut name, prefix, k, 1);
    name.into_boxed_str()
}

/// The identifier maps of one canonicalization, kept alongside the cached
/// entry so responses can be rendered in the submitting tenant's original
/// names.
///
/// Each namespace is one vector of original names, indexed by canonical
/// number: the original behind `a17` is `activities[17]`. Canonical names
/// are globally unambiguous across namespaces (`a…` activities, `v…`
/// variables, `s…` services, `l…` links, `c…` renamed labels, `p0` the
/// process), so a canonical name decodes without any string-keyed map.
#[derive(Clone, Debug, Default)]
pub struct Renaming {
    process: Box<str>,
    activities: Vec<Box<str>>,
    variables: Vec<Box<str>>,
    services: Vec<Box<str>>,
    links: Vec<Box<str>>,
    /// The renamed labels, sorted; `labels[k]` is canonically `c<k>`.
    labels: Vec<Box<str>>,
    /// Original activity name → canonical name, built on the first
    /// [`Renaming::activity`] call (only `/v1/simulate` needs it).
    activity_index: OnceLock<FxHashMap<Box<str>, Box<str>>>,
}

impl PartialEq for Renaming {
    fn eq(&self, other: &Renaming) -> bool {
        // The lazily built activity index is derived data.
        self.process == other.process
            && self.activities == other.activities
            && self.variables == other.variables
            && self.services == other.services
            && self.links == other.links
            && self.labels == other.labels
    }
}

impl Eq for Renaming {}

impl Renaming {
    /// The canonical name of an original activity name (branch guards in
    /// `/v1/simulate` oracles go through this), if the activity exists.
    pub fn activity(&self, original: &str) -> Option<&str> {
        self.activity_index
            .get_or_init(|| {
                self.activities
                    .iter()
                    .enumerate()
                    .map(|(k, name)| (name.clone(), canonical_name('a', k)))
                    .collect()
            })
            .get(original)
            .map(|name| &**name)
    }

    /// The canonical spelling of a branch value named in a `/v1/simulate`
    /// oracle. A renamed label maps to its `c<k>` name and any other label
    /// stays verbatim. A value of the renamed shape that is no label of
    /// this submission matches none of its cases, so it maps to the empty
    /// string, which matches no canonical label either.
    pub fn label(&self, value: &str) -> String {
        if !is_label_shaped(value) {
            return value.to_string();
        }
        match self.labels.binary_search_by(|l| (**l).cmp(value)) {
            Ok(k) => {
                let mut name = String::new();
                push_name(&mut name, 'c', k, label_width(self.labels.len()));
                name
            }
            Err(_) => String::new(),
        }
    }

    /// The original name behind a canonical identifier, any namespace.
    pub fn original(&self, canonical: &str) -> Option<&str> {
        self.resolve(canonical).map(|name| self.name(name))
    }

    /// Decodes a canonical identifier into a [`Name`] of this renaming.
    /// Whether it decodes depends only on the namespace sizes and the
    /// label width, which every renaming onto one canonical text shares.
    pub(crate) fn resolve(&self, canonical: &str) -> Option<Name> {
        let (&prefix, digits) = canonical.as_bytes().split_first()?;
        let len = match prefix {
            b'a' => self.activities.len(),
            b'v' => self.variables.len(),
            b's' => self.services.len(),
            b'l' => self.links.len(),
            b'c' => self.labels.len(),
            b'p' => usize::from(!self.process.is_empty()),
            _ => return None,
        };
        // Labels are numbered at one fixed width; every other name is
        // plain decimal, without leading zeros.
        let width_ok = if prefix == b'c' {
            digits.len() == label_width(len)
        } else {
            digits.len() == 1 || digits.first() != Some(&b'0')
        };
        if digits.is_empty() || !width_ok {
            return None;
        }
        let mut k = 0usize;
        for &d in digits {
            if !d.is_ascii_digit() {
                return None;
            }
            k = k.checked_mul(10)?.checked_add(usize::from(d - b'0'))?;
        }
        if k >= len {
            return None;
        }
        Some(Name {
            prefix,
            k: u32::try_from(k).ok()?,
        })
    }

    /// The original behind a name [`Renaming::resolve`] decoded, on this
    /// or any other renaming onto the same canonical text.
    ///
    /// # Panics
    ///
    /// If `name` lies outside this renaming's namespaces.
    pub(crate) fn name(&self, name: Name) -> &str {
        let k = name.k as usize;
        match name.prefix {
            b'a' => &self.activities[k],
            b'v' => &self.variables[k],
            b's' => &self.services[k],
            b'l' => &self.links[k],
            b'c' => &self.labels[k],
            _ => &self.process,
        }
    }

    /// Number of identifiers renamed across all namespaces.
    pub fn len(&self) -> usize {
        usize::from(!self.process.is_empty())
            + self.activities.len()
            + self.variables.len()
            + self.services.len()
            + self.links.len()
            + self.labels.len()
    }

    /// True when no identifiers were renamed (never the case for a valid
    /// process, which has at least a name).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders `text` back into original names: every maximal identifier
    /// token (`[A-Za-z_][A-Za-z0-9_]*`) that is a canonical name of this
    /// renaming is replaced by its original. Canonical names are shaped
    /// `[avslpc]<digits>`, which no DSCL/DSL keyword matches, and no
    /// verbatim label has that shape, so the substitution is exact on any
    /// text rendered from canonical-named artifacts (minimal-set DSCL,
    /// schedule events, …).
    pub fn render_original(&self, text: &str) -> String {
        // Original names are usually longer than canonical ones.
        let mut out = String::with_capacity(2 * text.len());
        let mut copied = 0;
        self.scan(text, |start, end, name| {
            out.push_str(&text[copied..start]);
            out.push_str(self.name(name));
            copied = end;
        });
        out.push_str(&text[copied..]);
        out
    }

    /// Calls `f(start, end, name)`, in text order, for every maximal
    /// identifier token `text[start..end]` that is a canonical name of
    /// this renaming: the tokens [`Renaming::render_original`] replaces.
    pub(crate) fn scan(&self, text: &str, mut f: impl FnMut(usize, usize, Name)) {
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
                i += 1;
                continue;
            }
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if let Some(name) = self.resolve(&text[start..i]) {
                f(start, i, name);
            }
        }
    }
}

/// A canonical name decoded by [`Renaming::resolve`]: its namespace
/// prefix and number. It indexes any renaming onto the same canonical
/// text, so a rendering cut at its names serves every such renaming.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Name {
    prefix: u8,
    k: u32,
}

/// The canonical form of one submitted process text.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// FNV-1a hash of [`CanonicalForm::text`] — the second-level cache key.
    pub hash: u64,
    /// The canonical rendering (fixed layout, canonical names).
    pub text: String,
    /// The per-namespace identifier maps back to the tenant's names.
    pub renaming: Renaming,
}

impl CanonicalForm {
    /// The normalized, canonically renamed process, ready to compile. It
    /// is parsed from [`CanonicalForm::text`], so only the callers that
    /// compile or re-weave pay for building it.
    pub fn process(&self) -> Result<Process, String> {
        parse_process(&self.text).map_err(|e| format!("canonical text does not reparse: {e}"))
    }
}

/// First-occurrence numbering of one identifier namespace.
#[derive(Default)]
struct Interner<'p> {
    index: FxHashMap<&'p str, usize>,
    names: Vec<&'p str>,
}

impl<'p> Interner<'p> {
    fn intern(&mut self, name: &'p str) -> usize {
        let next = self.names.len();
        let names = &mut self.names;
        *self.index.entry(name).or_insert_with(|| {
            names.push(name);
            next
        })
    }

    fn into_originals(self) -> Vec<Box<str>> {
        self.names.into_iter().map(Box::from).collect()
    }
}

/// The state of the one canonicalizing pass over a parsed process.
struct Canon<'p> {
    /// Activity names in depth-first syntax order, which is the order the
    /// render meets them: `activities[k]` is `a<k>`.
    activities: Vec<&'p str>,
    /// How many activities the render has named so far.
    named: usize,
    /// Activity name → number for link endpoints, which may lie further
    /// down the tree. Built only for processes with links.
    endpoints: FxHashMap<&'p str, usize>,
    has_links: bool,
    variables: Interner<'p>,
    services: Interner<'p>,
    links: Interner<'p>,
    /// Label-shaped labels, sorted and deduplicated after the pre-scan.
    labels: Vec<&'p str>,
    label_width: usize,
    /// Per variable number, the last `reads`/`writes` list that emitted
    /// it, so repeats in one list are dropped in linear time.
    var_seen_in: Vec<usize>,
    lists: usize,
    client_invoked: bool,
    /// The rendering of the root construct.
    out: String,
}

/// How many items `c` contributes when flattened into an enclosing
/// sequence, counted only up to 2.
fn flat_len(c: &Construct) -> usize {
    match c {
        Construct::Sequence(items) => {
            let mut n = 0;
            for item in items {
                n += flat_len(item);
                if n >= 2 {
                    break;
                }
            }
            n
        }
        Construct::Flow { branches, links } if branches.len() == 1 && links.is_empty() => {
            flat_len(&branches[0])
        }
        _ => 1,
    }
}

impl<'p> Canon<'p> {
    /// Numbers every activity in depth-first syntax order (the order the
    /// render visits them) and collects the label-shaped labels.
    fn prescan(&mut self, c: &'p Construct) {
        match c {
            Construct::Act(a) => self.activities.push(&a.name),
            Construct::Sequence(items) => items.iter().for_each(|i| self.prescan(i)),
            Construct::Flow { branches, links } => {
                branches.iter().for_each(|b| self.prescan(b));
                self.has_links |= !links.is_empty();
                for cond in links.iter().filter_map(|l| l.condition.as_deref()) {
                    self.note_label(cond);
                }
            }
            Construct::Switch { branch, cases } => {
                self.activities.push(&branch.name);
                for case in cases {
                    self.note_label(&case.label);
                    self.prescan(&case.body);
                }
            }
            Construct::While { cond, body } => {
                self.activities.push(&cond.name);
                self.prescan(body);
            }
        }
    }

    fn note_label(&mut self, label: &'p str) {
        if is_label_shaped(label) {
            self.labels.push(label);
        }
    }

    fn construct(&mut self, c: &'p Construct) {
        match c {
            Construct::Act(a) => {
                self.activity(a);
                self.out.push(';');
            }
            Construct::Sequence(_) if flat_len(c) == 1 => self.flattened(c),
            Construct::Sequence(_) => {
                self.out.push_str("sequence{");
                self.flattened(c);
                self.out.push('}');
            }
            Construct::Flow { branches, links } if branches.len() == 1 && links.is_empty() => {
                self.construct(&branches[0])
            }
            Construct::Flow { branches, links } => {
                self.out.push_str("flow{");
                branches.iter().for_each(|b| self.construct(b));
                links.iter().for_each(|l| self.link(l));
                self.out.push('}');
            }
            Construct::Switch { branch, cases } => {
                self.out.push_str("switch ");
                self.activity_name(&branch.name);
                self.clauses(branch);
                self.out.push('{');
                for case in cases {
                    self.out.push_str("case ");
                    self.label(&case.label);
                    self.out.push('{');
                    self.construct(&case.body);
                    self.out.push('}');
                }
                self.out.push('}');
            }
            Construct::While { cond, body } => {
                self.out.push_str("while ");
                self.activity_name(&cond.name);
                self.clauses(cond);
                self.out.push('{');
                self.construct(body);
                self.out.push('}');
            }
        }
    }

    /// Renders the items `c` contributes to an enclosing sequence.
    fn flattened(&mut self, c: &'p Construct) {
        match c {
            Construct::Sequence(items) => items.iter().for_each(|i| self.flattened(i)),
            Construct::Flow { branches, links } if branches.len() == 1 && links.is_empty() => {
                self.flattened(&branches[0])
            }
            other => self.construct(other),
        }
    }

    /// Names the next activity of the depth-first order.
    fn activity_name(&mut self, name: &str) {
        debug_assert_eq!(
            self.activities[self.named], name,
            "render left the pre-scan order"
        );
        push_name(&mut self.out, 'a', self.named, 1);
        self.named += 1;
    }

    fn endpoint(&mut self, name: &str) {
        push_name(&mut self.out, 'a', self.endpoints[name], 1);
    }

    fn partner(&mut self, partner: &'p str) {
        if partner == CLIENT {
            self.out.push_str(CLIENT);
        } else {
            let k = self.services.intern(partner);
            push_name(&mut self.out, 's', k, 1);
        }
    }

    fn activity(&mut self, a: &'p Activity) {
        match &a.kind {
            ActivityKind::Receive { from } => {
                self.out.push_str("receive ");
                self.activity_name(&a.name);
                self.out.push_str(" from ");
                self.partner(from);
            }
            ActivityKind::Invoke { service, port } => {
                self.out.push_str("invoke ");
                self.activity_name(&a.name);
                self.out.push_str(" on ");
                self.partner(service);
                self.client_invoked |= service == CLIENT;
                self.out.push_str(" port ");
                push_number(&mut self.out, *port as usize, 1);
            }
            ActivityKind::Reply { to } => {
                self.out.push_str("reply ");
                self.activity_name(&a.name);
                self.out.push_str(" to ");
                self.partner(to);
            }
            ActivityKind::Assign => {
                self.out.push_str("assign ");
                self.activity_name(&a.name);
            }
            ActivityKind::Branch => {
                // Rendered by the switch/while wrapper, never as a leaf.
                self.out.push_str("switch ");
                self.activity_name(&a.name);
            }
            ActivityKind::Empty => {
                self.out.push_str("empty ");
                self.activity_name(&a.name);
            }
        }
        self.clauses(a);
    }

    fn clauses(&mut self, a: &'p Activity) {
        self.var_list(" reads ", &a.reads);
        self.var_list(" writes ", &a.writes);
    }

    /// One `reads`/`writes` clause, repeats dropped.
    fn var_list(&mut self, keyword: &str, vars: &'p [String]) {
        if vars.is_empty() {
            return;
        }
        self.lists += 1;
        self.out.push_str(keyword);
        let mut first = true;
        for v in vars {
            let k = self.variables.intern(v);
            if k == self.var_seen_in.len() {
                self.var_seen_in.push(0);
            }
            if self.var_seen_in[k] == self.lists {
                continue;
            }
            self.var_seen_in[k] = self.lists;
            if !first {
                self.out.push(',');
            }
            first = false;
            push_name(&mut self.out, 'v', k, 1);
        }
    }

    fn label(&mut self, label: &str) {
        if is_label_shaped(label) {
            let k = self
                .labels
                .binary_search(&label)
                .expect("pre-scan collected every label");
            push_name(&mut self.out, 'c', k, self.label_width);
        } else {
            self.out.push_str(label);
        }
    }

    fn link(&mut self, l: &'p Link) {
        self.out.push_str("link ");
        let k = self.links.intern(&l.name);
        push_name(&mut self.out, 'l', k, 1);
        self.out.push_str(" from ");
        self.endpoint(&l.from);
        self.out.push_str(" to ");
        self.endpoint(&l.to);
        if let Some(cond) = &l.condition {
            self.out.push_str(" when ");
            self.label(cond);
        }
        self.out.push(';');
    }
}

fn push_service_decl(text: &mut String, decl: &ServiceDecl, name: impl FnOnce(&mut String)) {
    text.push_str("service ");
    name(text);
    text.push_str("{ports ");
    push_number(text, decl.ports as usize, 1);
    if decl.asynchronous {
        text.push_str(" async");
    }
    text.push('}');
}

/// Computes the canonical form of submitted `.proc` text. Parse and
/// validation failures are reported with the tenant's original names.
pub fn canonicalize(text: &str) -> Result<CanonicalForm, String> {
    let process = parse_process(text).map_err(|e| format!("parse error: {e}"))?;
    let problems = process.validate();
    if !problems.is_empty() {
        let msgs: Vec<String> = problems.iter().map(|p| p.to_string()).collect();
        return Err(format!("process does not validate: {}", msgs.join("; ")));
    }
    Ok(canonicalize_process(&process))
}

/// Canonicalizes an already parsed and validated process.
///
/// # Panics
///
/// If a link names an activity the process does not have, which
/// [`Process::validate`] reports.
pub fn canonicalize_process(process: &Process) -> CanonicalForm {
    let mut canon = Canon {
        activities: Vec::new(),
        named: 0,
        endpoints: FxHashMap::default(),
        has_links: false,
        variables: Interner::default(),
        services: Interner::default(),
        links: Interner::default(),
        labels: Vec::new(),
        label_width: 1,
        var_seen_in: Vec::new(),
        lists: 0,
        client_invoked: false,
        out: String::with_capacity(1024),
    };
    canon.prescan(&process.root);
    if canon.has_links {
        canon.endpoints = canon
            .activities
            .iter()
            .enumerate()
            .map(|(k, &a)| (a, k))
            .collect();
    }
    canon.labels.sort_unstable();
    canon.labels.dedup();
    canon.label_width = label_width(canon.labels.len());
    canon.construct(&process.root);

    // Declarations in canonical (first-occurrence) order: the used
    // variables are exactly v0..vN, and referenced service declarations
    // keep their ports/async shape under their canonical names (the first
    // declaration of a name counts, as in validation). Unused variables
    // and unreferenced service declarations are dropped.
    let mut text = String::with_capacity(canon.out.len() + 32);
    text.push_str("process p0{");
    let vars = canon.variables.names.len();
    if vars > 0 {
        text.push_str("var ");
        for k in 0..vars {
            if k > 0 {
                text.push(',');
            }
            push_name(&mut text, 'v', k, 1);
        }
        text.push(';');
    }
    if !canon.services.names.is_empty() || canon.client_invoked {
        let mut decls: FxHashMap<&str, &ServiceDecl> = FxHashMap::default();
        for decl in &process.services {
            decls.entry(decl.name.as_str()).or_insert(decl);
        }
        for (k, name) in canon.services.names.iter().enumerate() {
            if let Some(decl) = decls.get(name) {
                push_service_decl(&mut text, decl, |t| push_name(t, 's', k, 1));
            }
        }
        // An invoke on `Client` needs it declared as a service, and the
        // name stays verbatim.
        if let Some(decl) = decls.get(CLIENT).filter(|_| canon.client_invoked) {
            push_service_decl(&mut text, decl, |t| t.push_str(CLIENT));
        }
    }
    text.push_str(&canon.out);
    text.push('}');

    let renaming = Renaming {
        process: process.name.as_str().into(),
        activities: canon.activities.into_iter().map(Box::from).collect(),
        variables: canon.variables.into_originals(),
        services: canon.services.into_originals(),
        links: canon.links.into_originals(),
        labels: canon.labels.into_iter().map(Box::from).collect(),
        activity_index: OnceLock::new(),
    };
    CanonicalForm {
        hash: crate::registry::content_hash(&text),
        text,
        renaming,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "process Purchasing {\n var po, au; // decls\n service Credit { ports 2 async }\n sequence {\n  receive rec_po from Client writes po;\n  invoke inv_po on Credit port 1 reads po;\n  receive rec_au from Credit writes au;\n  switch if_au reads au {\n   case T { assign ok writes po; }\n   case F { assign no writes po; }\n  }\n }\n}";

    #[test]
    fn whitespace_comments_and_decl_order_do_not_change_the_hash() {
        let spaced = BASE
            .replace('\n', "\n\n  ")
            .replace("var po, au;", "var au , po ; # reordered");
        let a = canonicalize(BASE).unwrap();
        let b = canonicalize(&spaced).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn alpha_renaming_does_not_change_the_hash() {
        // Shield the `port`/`ports` keywords from the `po` identifier
        // rename.
        let renamed = BASE
            .replace("Purchasing", "Proc2")
            .replace("port", "\u{1}")
            .replace("po", "order")
            .replace("au", "approval")
            .replace('\u{1}', "port")
            .replace("Credit", "Bank")
            .replace("if_", "gate_");
        let a = canonicalize(BASE).unwrap();
        let b = canonicalize(&renamed).unwrap();
        assert_eq!(a.text, b.text, "alpha-variants must share a canonical text");
        assert_eq!(a.hash, b.hash);
        // ... but render back to their own names.
        assert_eq!(a.renaming.original("p0"), Some("Purchasing"));
        assert_eq!(b.renaming.original("p0"), Some("Proc2"));
    }

    #[test]
    fn structurally_distinct_processes_do_not_collide() {
        let reordered = BASE.replace(
            "case T { assign ok writes po; }",
            "case T { assign ok writes po; assign ok2 reads au; }",
        );
        let a = canonicalize(BASE).unwrap();
        let b = canonicalize(&reordered).unwrap();
        assert_ne!(a.text, b.text);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn canonical_text_reparses_and_is_a_fixed_point() {
        let a = canonicalize(BASE).unwrap();
        let again = canonicalize(&a.text).unwrap();
        assert_eq!(a.text, again.text, "canonicalization must be idempotent");
        assert_eq!(a.hash, again.hash);
        let process = a.process().unwrap();
        assert!(process.validate().is_empty(), "{:?}", process.validate());
    }

    #[test]
    fn unused_declarations_are_dropped() {
        let noisy = BASE
            .replace("var po, au;", "var po, au, unused_v;")
            .replace(
                "service Credit { ports 2 async }",
                "service Credit { ports 2 async }\n service Ghost { ports 9 }",
            );
        let a = canonicalize(BASE).unwrap();
        let b = canonicalize(&noisy).unwrap();
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn singleton_wrappers_flatten() {
        let wrapped = "process P { var x; sequence { sequence { assign a writes x; } } }";
        let bare = "process P { var x; assign a writes x; }";
        assert_eq!(
            canonicalize(wrapped).unwrap().hash,
            canonicalize(bare).unwrap().hash
        );
    }

    #[test]
    fn render_original_restores_names_tokenwise() {
        let a = canonicalize(BASE).unwrap();
        let rendered = a.renaming.render_original("a0.end < a1.start; v0, s0");
        assert_eq!(rendered, "rec_po.end < inv_po.start; po, Credit");
        // Out-of-range and non-canonical spellings stay verbatim.
        assert_eq!(
            a.renaming.render_original("a99 a01 p1 c0 x_a0"),
            "a99 a01 p1 c0 x_a0"
        );
    }

    #[test]
    fn errors_carry_original_names() {
        let err = canonicalize("process P { var x; assign a writes y; }").unwrap_err();
        assert!(err.contains("'y'"), "{err}");
    }

    #[test]
    fn links_may_name_activities_further_down() {
        let a = canonicalize(
            "process P { var x; sequence { flow { assign a writes x; link l from a to z; } assign z reads x; } }",
        )
        .unwrap();
        assert!(a.text.contains("link l0 from a0 to a1;"), "{}", a.text);
        assert_eq!(a.renaming.original("a1"), Some("z"));
    }

    #[test]
    fn repeated_reads_and_writes_are_dropped_per_list() {
        let a =
            canonicalize("process P { var x, y; assign a reads x, y, x writes x, x; }").unwrap();
        assert!(
            a.text.ends_with("assign a0 reads v0,v1 writes v0;}"),
            "{}",
            a.text
        );
    }

    #[test]
    fn label_shaped_labels_are_renamed_in_sorted_order() {
        let a = canonicalize(
            "process P { var x; switch g reads x { case v0 { assign m writes x; } case T { assign n writes x; } case a1 { assign o writes x; } } }",
        )
        .unwrap();
        // Sorted: a1 < v0, so a1 is c0 and v0 is c1; T stays verbatim.
        assert!(
            a.text.contains("case c1{") && a.text.contains("case c0{"),
            "{}",
            a.text
        );
        assert!(a.text.contains("case T{"), "{}", a.text);
        assert_eq!(a.renaming.original("c0"), Some("a1"));
        assert_eq!(a.renaming.label("v0"), "c1");
        assert_eq!(a.renaming.label("T"), "T");
        assert_eq!(a.renaming.label("c1"), "", "not a label of this process");
        assert_eq!(
            a.renaming.render_original("domain a0 { c0, c1, T }"),
            "domain g { a1, v0, T }"
        );
        assert_eq!(canonicalize(&a.text).unwrap().text, a.text);
    }

    #[test]
    fn many_renamed_labels_keep_their_order_and_fixed_point() {
        let cases: String = (0..12)
            .map(|i| format!("case a{i} {{ assign m{i} writes x; }}"))
            .collect();
        let text = format!("process P {{ var x; switch g reads x {{ {cases} }} }}");
        let a = canonicalize(&text).unwrap();
        // a0 < a1 < a10 < a11 < a2 < ... as strings; padded names keep it.
        assert_eq!(a.renaming.original("c02"), Some("a10"));
        assert_eq!(a.renaming.original("c2"), None);
        assert_eq!(a.renaming.label("a2"), "c04");
        assert_eq!(canonicalize(&a.text).unwrap().text, a.text);
    }

    #[test]
    fn invoking_the_client_keeps_its_declaration() {
        let a = canonicalize(
            "process P { service Client { ports 1 } sequence { receive r from Client; invoke i on Client port 1; } }",
        )
        .unwrap();
        assert_eq!(
            a.text,
            "process p0{service Client{ports 1}sequence{receive a0 from Client;invoke a1 on Client port 1;}}"
        );
        assert_eq!(canonicalize(&a.text).unwrap().text, a.text);
    }
}
