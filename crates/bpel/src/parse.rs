//! Parsing the generated BPEL subset back into a constraint set — the
//! round-trip that proves the emitted code carries exactly the optimized
//! synchronization scheme.

use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver_xml::{parse, ParseError};
use std::collections::HashMap;

/// Errors from BPEL loading.
#[derive(Debug)]
pub enum BpelError {
    /// XML-level failure.
    Xml(ParseError),
    /// Valid XML that is not a flow-style BPEL process.
    Shape(String),
}

impl std::fmt::Display for BpelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpelError::Xml(e) => write!(f, "{e}"),
            BpelError::Shape(m) => write!(f, "malformed BPEL: {m}"),
        }
    }
}

impl std::error::Error for BpelError {}

/// Parses a `<process><flow><links>...` document produced by
/// [`crate::emit::emit`], reconstructing the constraint set (activities,
/// relations with conditions and state granularity; origins are lost in
/// BPEL and come back as [`Origin::Other`]).
pub fn parse_bpel(src: &str) -> Result<ConstraintSet, BpelError> {
    let root = parse(src).map_err(BpelError::Xml)?;
    if root.name != "process" {
        return Err(BpelError::Shape(format!(
            "expected <process>, got <{}>",
            root.name
        )));
    }
    let name = root.get_attr("name").unwrap_or("process").to_string();
    let flow = root
        .first_named("flow")
        .ok_or_else(|| BpelError::Shape("missing <flow>".into()))?;

    let mut cs = ConstraintSet::new(name);
    // Per link: (source activity+state+cond, target activity+state).
    struct LinkEnds {
        source: Option<(String, ActivityState, Option<Condition>)>,
        target: Option<(String, ActivityState)>,
    }
    let mut links: HashMap<String, LinkEnds> = HashMap::new();
    if let Some(decl) = flow.first_named("links") {
        for l in decl.elements_named("link") {
            let n = l
                .require_attr("name")
                .map_err(BpelError::Shape)?
                .to_string();
            links.insert(
                n,
                LinkEnds {
                    source: None,
                    target: None,
                },
            );
        }
    }

    for act in flow.elements() {
        if act.name == "links" {
            continue;
        }
        let aname = act
            .require_attr("name")
            .map_err(BpelError::Shape)?
            .to_string();
        cs.add_activity(aname.clone());
        for st in act.elements() {
            match st.name.as_str() {
                "source" => {
                    let link = st.require_attr("linkName").map_err(BpelError::Shape)?;
                    let state = st
                        .get_attr("dsc:sourceState")
                        .and_then(|s| s.chars().next())
                        .and_then(ActivityState::from_letter)
                        .unwrap_or(ActivityState::Finish);
                    let cond = st
                        .get_attr("transitionCondition")
                        .map(parse_condition)
                        .transpose()?;
                    let ends = links.get_mut(link).ok_or_else(|| {
                        BpelError::Shape(format!("source references undeclared link '{link}'"))
                    })?;
                    if ends.source.is_some() {
                        return Err(BpelError::Shape(format!("link '{link}' has two sources")));
                    }
                    ends.source = Some((aname.clone(), state, cond));
                }
                "target" => {
                    let link = st.require_attr("linkName").map_err(BpelError::Shape)?;
                    let state = st
                        .get_attr("dsc:targetState")
                        .and_then(|s| s.chars().next())
                        .and_then(ActivityState::from_letter)
                        .unwrap_or(ActivityState::Start);
                    let ends = links.get_mut(link).ok_or_else(|| {
                        BpelError::Shape(format!("target references undeclared link '{link}'"))
                    })?;
                    if ends.target.is_some() {
                        return Err(BpelError::Shape(format!("link '{link}' has two targets")));
                    }
                    ends.target = Some((aname.clone(), state));
                }
                _ => {}
            }
        }
    }

    // Links in name order for determinism (l0, l1, ... sort by numeric
    // suffix when possible).
    let mut named: Vec<(String, LinkEnds)> = links.into_iter().collect();
    named.sort_by_key(|(n, _)| {
        n.strip_prefix('l')
            .and_then(|s| s.parse::<u64>().ok())
            .map_or((1, n.clone()), |k| (0, format!("{k:020}")))
    });
    for (n, ends) in named {
        let (Some((sa, ss, cond)), Some((ta, ts))) = (ends.source, ends.target) else {
            return Err(BpelError::Shape(format!("link '{n}' is missing an endpoint")));
        };
        if let Some(c) = &cond {
            // Guard domains are not expressed in BPEL; register the value
            // so validation passes on round-trips.
            let dom = cs.domains.entry(c.on.clone()).or_default();
            if !dom.contains(&c.value) {
                dom.push(c.value.clone());
            }
        }
        cs.push(Relation::HappenBefore {
            from: StateRef {
                activity: sa.into(),
                state: ss,
            },
            to: StateRef {
                activity: ta.into(),
                state: ts,
            },
            cond,
            origin: Origin::Other,
        });
    }
    Ok(cs)
}

/// Parses `bpws:getVariableData('guard') = 'value'`.
fn parse_condition(expr: &str) -> Result<Condition, BpelError> {
    let inner = expr
        .strip_prefix("bpws:getVariableData('")
        .and_then(|s| s.split_once("')"))
        .ok_or_else(|| BpelError::Shape(format!("unsupported transitionCondition '{expr}'")))?;
    let guard = inner.0.to_string();
    let value = inner
        .1
        .trim()
        .strip_prefix("= '")
        .and_then(|s| s.strip_suffix('\''))
        .ok_or_else(|| BpelError::Shape(format!("unsupported transitionCondition '{expr}'")))?;
    Ok(Condition::new(guard, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::emit_string;
    use dscweaver_model::parse_process;

    #[test]
    fn round_trip_preserves_relations() {
        let p = parse_process(
            "process Demo { var po, au; service Credit { ports 1 async }
              sequence {
                receive recClient_po from Client writes po;
                invoke invCredit_po on Credit port 1 reads po;
                switch if_au reads au { case T { assign ok writes au; } case F { assign bad writes au; } }
              } }",
        )
        .unwrap();
        let mut cs = ConstraintSet::new("Demo");
        for a in ["recClient_po", "invCredit_po", "if_au", "ok", "bad"] {
            cs.add_activity(a);
        }
        cs.add_domain("if_au", vec!["T".into()]);
        cs.push(Relation::before(
            StateRef::finish("recClient_po"),
            StateRef::start("invCredit_po"),
            Origin::Data,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("if_au"),
            StateRef::start("ok"),
            Condition::new("if_au", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before(
            StateRef::start("recClient_po"),
            StateRef::finish("bad"),
            Origin::Cooperation,
        ));

        let xml = emit_string(&p, &cs);
        let back = parse_bpel(&xml).unwrap();
        assert_eq!(back.activities, cs.activities);
        assert_eq!(back.constraint_count(), cs.constraint_count());
        // Relations match modulo origin (BPEL does not carry provenance).
        let strip = |c: &ConstraintSet| -> Vec<String> {
            let mut v: Vec<String> = c.happen_befores().map(|r| r.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(strip(&back), strip(&cs));
        assert!(back.validate().is_empty(), "{:?}", back.validate());
    }

    #[test]
    fn condition_expression_parses() {
        let c = parse_condition("bpws:getVariableData('if_au') = 'T'").unwrap();
        assert_eq!(c, Condition::new("if_au", "T"));
        assert!(parse_condition("true()").is_err());
    }

    #[test]
    fn dangling_link_rejected() {
        let xml = r#"<process name="X"><flow><links/><empty name="a"><source linkName="ghost"/></empty></flow></process>"#;
        assert!(matches!(parse_bpel(xml), Err(BpelError::Shape(_))));
    }

    #[test]
    fn link_with_two_sources_rejected() {
        let xml = r#"<process name="X"><flow><links><link name="l0"/></links>
            <empty name="a"><source linkName="l0"/></empty>
            <empty name="b"><source linkName="l0"/></empty>
            <empty name="c"><target linkName="l0"/></empty>
        </flow></process>"#;
        assert!(matches!(parse_bpel(xml), Err(BpelError::Shape(_))));
    }

    #[test]
    fn missing_endpoint_rejected() {
        let xml = r#"<process name="X"><flow><links><link name="l0"/></links>
            <empty name="a"><source linkName="l0"/></empty>
        </flow></process>"#;
        assert!(matches!(parse_bpel(xml), Err(BpelError::Shape(_))));
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(matches!(parse_bpel("<flow/>"), Err(BpelError::Shape(_))));
    }
}
