//! Text syntax for DSCL constraint sets.
//!
//! ```text
//! constraints Purchasing {
//!   activities recClient_po, invCredit_po, if_au, set_oi;
//!   services Credit, Credit_d;
//!   domain if_au { T, F }
//!
//!   data:        F(recClient_po) -> S(invCredit_po);
//!   control:     F(if_au) ->[if_au=F] S(set_oi);
//!   service:     F(invCredit_po) -> S(Credit);
//!   cooperation: S(collectSurvey) -> F(closeOrder);   // overlapping lifetimes
//!   F(a) <-> F(b);                                    // HappenTogether
//!   R(a) >< R(b);                                     // Exclusive
//! }
//! ```
//!
//! The optional `origin:` prefix tags the dependency dimension; untagged
//! relations get [`Origin::Other`]. `//` and `#` start line comments.
//! [`ConstraintSet::to_dscl`] emits exactly this syntax, and
//! `parse(to_dscl(cs)) == cs` (see the round-trip tests).

use crate::constraint::ConstraintSet;
use crate::relation::{Origin, Relation};
use crate::name::Name;
use crate::state::{ActivityState, Condition, StateRef};

/// Parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsclParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
}

impl std::fmt::Display for DsclParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DSCL parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DsclParseError {}

struct P<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> DsclParseError {
        let line = 1 + self.src[..self.pos.min(self.src.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        DsclParseError {
            message: message.into(),
            line,
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
            let rest = &self.src[self.pos.min(self.src.len())..];
            if rest.starts_with(b"//") || rest.starts_with(b"#") {
                while !matches!(self.src.get(self.pos), None | Some(b'\n')) {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos.min(self.src.len())..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), DsclParseError> {
        self.skip_ws();
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn ident(&mut self) -> Result<String, DsclParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.src.get(self.pos) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn ident_list(&mut self) -> Result<Vec<String>, DsclParseError> {
        let mut out = vec![self.ident()?];
        loop {
            self.skip_ws();
            if self.eat(",") {
                out.push(self.ident()?);
            } else {
                return Ok(out);
            }
        }
    }

    /// `S(name)` / `R(name)` / `F(name)`.
    fn state_ref(&mut self) -> Result<StateRef, DsclParseError> {
        self.skip_ws();
        let letter = match self.src.get(self.pos) {
            Some(&b) => b as char,
            None => return Err(self.err("expected a state reference")),
        };
        let state = ActivityState::from_letter(letter)
            .ok_or_else(|| self.err(format!("expected S/R/F, got '{letter}'")))?;
        self.pos += 1;
        self.expect("(")?;
        let activity = self.ident()?;
        self.expect(")")?;
        Ok(StateRef {
            activity: activity.into(),
            state,
        })
    }

    /// `[guard=value]`.
    fn condition(&mut self) -> Result<Condition, DsclParseError> {
        let on = self.ident()?;
        self.expect("=")?;
        let value = self.ident()?;
        self.expect("]")?;
        Ok(Condition::new(on, value))
    }
}

fn origin_from_tag(tag: &str) -> Option<Origin> {
    match tag {
        "data" => Some(Origin::Data),
        "control" => Some(Origin::Control),
        "service" => Some(Origin::Service),
        "cooperation" | "coop" => Some(Origin::Cooperation),
        "translated" => Some(Origin::Translated),
        "coordinator" => Some(Origin::Coordinator),
        "other" => Some(Origin::Other),
        _ => None,
    }
}

/// Parses a `constraints NAME { ... }` document.
pub fn parse_constraints(src: &str) -> Result<ConstraintSet, DsclParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if p.ident()? != "constraints" {
        return Err(p.err("expected 'constraints'"));
    }
    let name = p.ident()?;
    p.expect("{")?;
    let mut cs = ConstraintSet::new(name);

    loop {
        p.skip_ws();
        if p.eat("}") {
            break;
        }
        if p.pos >= p.src.len() {
            return Err(p.err("unterminated constraints block"));
        }
        // Declarations start with a keyword identifier; relations start
        // with a state letter followed by '(' — or an origin tag followed
        // by ':'.
        let save = p.pos;
        let word = p.ident()?;
        p.skip_ws();
        match word.as_str() {
            "activities" => {
                for a in p.ident_list()? {
                    cs.add_activity(a);
                }
                p.expect(";")?;
                continue;
            }
            "services" => {
                for s in p.ident_list()? {
                    cs.add_service(s);
                }
                p.expect(";")?;
                continue;
            }
            "domain" => {
                let guard = p.ident()?;
                p.expect("{")?;
                let values = p.ident_list()?;
                p.expect("}")?;
                cs.add_domain(guard, values.into_iter().map(Name::from).collect());
                continue;
            }
            _ => {}
        }
        // Relation, possibly with an origin tag.
        let origin = if p.eat(":") {
            origin_from_tag(&word)
                .ok_or_else(|| p.err(format!("unknown origin tag '{word}'")))?
        } else {
            p.pos = save; // the word was the start of a state ref
            Origin::Other
        };
        let a = p.state_ref()?;
        p.skip_ws();
        let rel = if p.eat("->") {
            let cond = if p.eat("[") { Some(p.condition()?) } else { None };
            let b = p.state_ref()?;
            Relation::HappenBefore {
                from: a,
                to: b,
                cond,
                origin,
            }
        } else if p.eat("<->") {
            let cond = if p.eat("[") { Some(p.condition()?) } else { None };
            let b = p.state_ref()?;
            Relation::HappenTogether { a, b, cond, origin }
        } else if p.eat("><") {
            let b = p.state_ref()?;
            Relation::Exclusive { a, b, origin }
        } else {
            return Err(p.err("expected '->', '<->' or '><'"));
        };
        p.expect(";")?;
        cs.push(rel);
    }
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing content after constraints block"));
    }
    Ok(cs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
constraints Demo {
  activities a, b, if_x, set_oi;   // internal
  services Credit, Credit_d;
  domain if_x { T, F }

  data:        F(a) -> S(b);
  control:     F(if_x) ->[if_x=F] S(set_oi);
  service:     F(a) -> S(Credit);
  cooperation: S(a) -> F(b);
  F(a) <-> F(b);
  R(a) >< R(b);
}
"#;

    #[test]
    fn parses_all_forms() {
        let cs = parse_constraints(SRC).unwrap();
        assert_eq!(cs.name, "Demo");
        assert_eq!(cs.activities.len(), 4);
        assert_eq!(cs.services.len(), 2);
        assert_eq!(cs.domains["if_x"], vec!["T", "F"]);
        assert_eq!(cs.relations.len(), 6);
        assert_eq!(cs.constraint_count(), 4);
        assert_eq!(cs.exclusives().count(), 1);
        let conditional = cs
            .happen_befores()
            .find(|r| matches!(r, Relation::HappenBefore { cond: Some(_), .. }))
            .unwrap();
        assert_eq!(conditional.origin(), Origin::Control);
    }

    #[test]
    fn round_trip_through_to_dscl() {
        let cs = parse_constraints(SRC).unwrap();
        let text = cs.to_dscl();
        let again = parse_constraints(&text).unwrap();
        assert_eq!(again, cs);
    }

    #[test]
    fn untagged_relation_gets_other() {
        let cs = parse_constraints("constraints X { activities a, b; F(a) -> S(b); }").unwrap();
        assert_eq!(cs.relations[0].origin(), Origin::Other);
    }

    #[test]
    fn bad_origin_tag_rejected() {
        let err =
            parse_constraints("constraints X { activities a, b; bogus: F(a) -> S(b); }")
                .unwrap_err();
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn bad_state_letter_rejected() {
        let err =
            parse_constraints("constraints X { activities a, b; Q(a) -> S(b); }").unwrap_err();
        assert!(err.message.contains("S/R/F") || err.message.contains("'->'"));
    }

    #[test]
    fn line_numbers_reported() {
        let err = parse_constraints("constraints X {\n activities a;\n F(a) -> ;\n}").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn missing_semicolon_rejected() {
        assert!(parse_constraints("constraints X { activities a, b; F(a) -> S(b) }").is_err());
    }

    #[test]
    fn empty_block_ok() {
        let cs = parse_constraints("constraints Empty { }").unwrap();
        assert!(cs.relations.is_empty());
        assert!(cs.activities.is_empty());
    }
}
