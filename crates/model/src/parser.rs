//! A textual DSL for process definitions, so examples and tests can state
//! processes the way the paper's figures do.
//!
//! ```text
//! process Purchasing {
//!   var po, au, si, ss, oi;
//!   service Credit   { ports 1 async }
//!   service Purchase { ports 2 async }
//!
//!   sequence {
//!     receive recClient_po from Client writes po;
//!     invoke invCredit_po on Credit port 1 reads po;
//!     receive recCredit_au from Credit writes au;
//!     switch if_au reads au {
//!       case T {
//!         flow {
//!           sequence { invoke invShip_po on Ship port 1 reads po; }
//!           assign set_x writes oi;
//!         }
//!       }
//!       case F { assign set_oi writes oi; }
//!     }
//!     reply replyClient_oi to Client reads oi;
//!   }
//! }
//! ```
//!
//! `//` and `#` start line comments. Inside `flow { ... }`, each construct
//! is one parallel branch, and `link NAME from A to B [when LABEL];`
//! declares a cross-branch link. Constructs nest at most [`MAX_NESTING`]
//! levels deep, so hostile input is rejected instead of overflowing the
//! stack of the parser or of any later recursive pass over the tree.

use crate::activity::Activity;
use crate::process::{Case, Construct, Link, Process, ServiceDecl};

/// The deepest nesting of constructs (`sequence`, `flow`, `switch`,
/// `while` bodies) a process may have. Deeper input is a [`DslError`].
pub const MAX_NESTING: usize = 256;

/// Parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Description of what went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "process DSL error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(u32),
    LBrace,
    RBrace,
    Semi,
    Comma,
}

struct Lexer;

impl Lexer {
    /// Splits `src` into tokens that borrow their text, each with its
    /// 1-based line. `//` and `#` comment out the rest of a line.
    fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, DslError> {
        let bytes = src.as_bytes();
        let mut out = Vec::with_capacity(src.len() / 4);
        let mut line = 1;
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            let tok = match bytes[i] {
                b'\n' => {
                    line += 1;
                    i += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    i += 1;
                    continue;
                }
                b'#' => {
                    i = skip_line(bytes, i);
                    continue;
                }
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    i = skip_line(bytes, i);
                    continue;
                }
                b'{' => {
                    i += 1;
                    Tok::LBrace
                }
                b'}' => {
                    i += 1;
                    Tok::RBrace
                }
                b';' => {
                    i += 1;
                    Tok::Semi
                }
                b',' => {
                    i += 1;
                    Tok::Comma
                }
                b'0'..=b'9' => {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let digits = &src[start..i];
                    Tok::Num(digits.parse().map_err(|_| DslError {
                        message: format!("bad number '{digits}'"),
                        line,
                    })?)
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    Tok::Ident(&src[start..i])
                }
                _ => {
                    let other = src[start..].chars().next().expect("not at the end");
                    return Err(DslError {
                        message: format!("unexpected character '{other}'"),
                        line,
                    });
                }
            };
            out.push((tok, line));
        }
        Ok(out)
    }
}

/// The index of the line break ending the comment that starts at `i`.
fn skip_line(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| i + n)
}

struct P<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
    depth: usize,
}

impl<'a> P<'a> {
    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |t| t.1)
    }

    fn err(&self, message: impl Into<String>) -> DslError {
        DslError {
            message: message.into(),
            line: self.line(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|t| t.0)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_tok(&mut self, t: Tok<'_>, what: &str) -> Result<(), DslError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(self.err(format!("expected {what}, got {got:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, DslError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(self.err(format!("expected {what}, got {got:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DslError> {
        match self.next() {
            Some(Tok::Ident(got)) if got == kw => Ok(()),
            Some(Tok::Ident(got)) => Err(self.err(format!("expected keyword '{kw}', got '{got}'"))),
            got => Err(self.err(format!("expected keyword '{kw}', got {got:?}"))),
        }
    }

    fn peek_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn ident_list(&mut self) -> Result<Vec<String>, DslError> {
        let mut out = vec![self.ident("identifier")?.to_string()];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.next();
            out.push(self.ident("identifier")?.to_string());
        }
        Ok(out)
    }

    /// `reads a,b` / `writes c` suffixes in either order.
    fn var_clauses(&mut self, a: &mut Activity) -> Result<(), DslError> {
        loop {
            if self.peek_ident("reads") {
                self.next();
                a.reads.extend(self.ident_list()?);
            } else if self.peek_ident("writes") {
                self.next();
                a.writes.extend(self.ident_list()?);
            } else {
                return Ok(());
            }
        }
    }

    fn activity(&mut self) -> Result<Activity, DslError> {
        let kw = self.ident("activity keyword")?;
        let mut act = match kw {
            "receive" => {
                let name = self.ident("activity name")?;
                self.keyword("from")?;
                let from = self.ident("partner name")?;
                Activity::receive(name, from)
            }
            "invoke" => {
                let name = self.ident("activity name")?;
                self.keyword("on")?;
                let service = self.ident("service name")?;
                self.keyword("port")?;
                let port = match self.next() {
                    Some(Tok::Num(n)) => n,
                    got => return Err(self.err(format!("expected port number, got {got:?}"))),
                };
                Activity::invoke(name, service, port)
            }
            "reply" => {
                let name = self.ident("activity name")?;
                self.keyword("to")?;
                let to = self.ident("partner name")?;
                Activity::reply(name, to)
            }
            "assign" => Activity::assign(self.ident("activity name")?),
            "empty" => Activity::new(
                self.ident("activity name")?,
                crate::activity::ActivityKind::Empty,
            ),
            other => return Err(self.err(format!("unknown activity keyword '{other}'"))),
        };
        self.var_clauses(&mut act)?;
        self.expect_tok(Tok::Semi, "';'")?;
        Ok(act)
    }

    /// Parses a body `{ construct* }` into a single construct (implicit
    /// sequence when more than one).
    fn body(&mut self) -> Result<Construct, DslError> {
        self.expect_tok(Tok::LBrace, "'{'")?;
        let mut items = Vec::new();
        while !matches!(self.peek(), Some(Tok::RBrace)) {
            if self.peek().is_none() {
                return Err(self.err("unterminated body"));
            }
            items.push(self.construct()?);
        }
        self.expect_tok(Tok::RBrace, "'}'")?;
        Ok(match items.len() {
            1 => items.pop().expect("len checked"),
            _ => Construct::Sequence(items),
        })
    }

    /// One construct, at most [`MAX_NESTING`] levels deep. Each kind
    /// parses in its own method, which keeps the stack frame of one
    /// nesting level small in unoptimized builds too.
    fn construct(&mut self) -> Result<Construct, DslError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("constructs nest deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let c = match self.peek() {
            Some(Tok::Ident("sequence")) => self.sequence(),
            Some(Tok::Ident("flow")) => self.flow(),
            Some(Tok::Ident("switch")) => self.switch(),
            Some(Tok::Ident("while")) => self.while_loop(),
            _ => self.activity().map(Construct::Act),
        };
        self.depth -= 1;
        c
    }

    fn sequence(&mut self) -> Result<Construct, DslError> {
        self.next();
        self.expect_tok(Tok::LBrace, "'{'")?;
        let mut items = Vec::new();
        while !matches!(self.peek(), Some(Tok::RBrace)) {
            if self.peek().is_none() {
                return Err(self.err("unterminated sequence"));
            }
            items.push(self.construct()?);
        }
        self.expect_tok(Tok::RBrace, "'}'")?;
        Ok(Construct::Sequence(items))
    }

    fn flow(&mut self) -> Result<Construct, DslError> {
        self.next();
        self.expect_tok(Tok::LBrace, "'{'")?;
        let mut branches = Vec::new();
        let mut links = Vec::new();
        while !matches!(self.peek(), Some(Tok::RBrace)) {
            if self.peek().is_none() {
                return Err(self.err("unterminated flow"));
            }
            if self.peek_ident("link") {
                links.push(self.link()?);
            } else {
                branches.push(self.construct()?);
            }
        }
        self.expect_tok(Tok::RBrace, "'}'")?;
        Ok(Construct::Flow { branches, links })
    }

    /// `link NAME from A to B [when LABEL];`
    fn link(&mut self) -> Result<Link, DslError> {
        self.next();
        let name = self.ident("link name")?;
        self.keyword("from")?;
        let from = self.ident("source activity")?;
        self.keyword("to")?;
        let to = self.ident("target activity")?;
        let condition = if self.peek_ident("when") {
            self.next();
            Some(self.ident("condition label")?.to_string())
        } else {
            None
        };
        self.expect_tok(Tok::Semi, "';'")?;
        Ok(Link {
            name: name.to_string(),
            from: from.to_string(),
            to: to.to_string(),
            condition,
        })
    }

    fn switch(&mut self) -> Result<Construct, DslError> {
        self.next();
        let name = self.ident("switch activity name")?;
        let mut branch = Activity::branch(name);
        self.var_clauses(&mut branch)?;
        self.expect_tok(Tok::LBrace, "'{'")?;
        let mut cases = Vec::new();
        while self.peek_ident("case") {
            self.next();
            let label = self.ident("case label")?.to_string();
            let body = self.body()?;
            cases.push(Case { label, body });
        }
        self.expect_tok(Tok::RBrace, "'}'")?;
        Ok(Construct::Switch { branch, cases })
    }

    fn while_loop(&mut self) -> Result<Construct, DslError> {
        self.next();
        let name = self.ident("while condition activity name")?;
        let mut cond = Activity::branch(name);
        self.var_clauses(&mut cond)?;
        let body = self.body()?;
        Ok(Construct::While {
            cond,
            body: Box::new(body),
        })
    }
}

/// Parses a complete `process NAME { ... }` document.
pub fn parse_process(src: &str) -> Result<Process, DslError> {
    let toks = Lexer::lex(src)?;
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
    };
    p.keyword("process")?;
    let name = p.ident("process name")?;
    p.expect_tok(Tok::LBrace, "'{'")?;

    let mut vars = Vec::new();
    let mut services = Vec::new();
    loop {
        if p.peek_ident("var") {
            p.next();
            vars.extend(p.ident_list()?);
            p.expect_tok(Tok::Semi, "';'")?;
        } else if p.peek_ident("service") {
            p.next();
            let sname = p.ident("service name")?;
            p.expect_tok(Tok::LBrace, "'{'")?;
            p.keyword("ports")?;
            let ports = match p.next() {
                Some(Tok::Num(n)) => n,
                got => return Err(p.err(format!("expected port count, got {got:?}"))),
            };
            let asynchronous = if p.peek_ident("async") {
                p.next();
                true
            } else {
                false
            };
            p.expect_tok(Tok::RBrace, "'}'")?;
            services.push(ServiceDecl {
                name: sname.to_string(),
                ports,
                asynchronous,
            });
        } else {
            break;
        }
    }

    let root = p.construct()?;
    p.expect_tok(Tok::RBrace, "'}'")?;
    if p.peek().is_some() {
        return Err(p.err("trailing tokens after process definition"));
    }
    Ok(Process {
        name: name.to_string(),
        vars,
        services,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityKind;

    #[test]
    fn minimal_process() {
        let p = parse_process(
            "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}",
        )
        .unwrap();
        assert_eq!(p.name, "P");
        assert_eq!(p.vars, vec!["x"]);
        assert_eq!(p.activities().len(), 2);
        assert!(p.validate().is_empty());
    }

    #[test]
    fn full_grammar() {
        let src = r#"
process Demo {
  var po, au, oi;            // declarations
  service Credit { ports 1 async }
  service Purchase { ports 2 async }

  sequence {
    receive recClient_po from Client writes po;
    invoke invCredit_po on Credit port 1 reads po;
    receive recCredit_au from Credit writes au;
    switch if_au reads au {
      case T {
        flow {
          invoke invPurchase_po on Purchase port 1 reads po;
          invoke invPurchase_si on Purchase port 2 reads po;
          link l1 from invPurchase_po to invPurchase_si;
        }
      }
      case F { assign set_oi writes oi; }
    }
    reply replyClient_oi to Client reads oi;
  }
}
"#;
        let p = parse_process(src).unwrap();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        assert_eq!(p.services.len(), 2);
        assert_eq!(p.activities().len(), 8);
        let links = p.root.links();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].from, "invPurchase_po");
        let inv = p.activity("invPurchase_si").unwrap();
        assert_eq!(
            inv.kind,
            ActivityKind::Invoke {
                service: "Purchase".into(),
                port: 2
            }
        );
    }

    #[test]
    fn while_loop() {
        let p = parse_process(
            "process L { var n; while check_n reads n { assign dec_n reads n writes n; } }",
        )
        .unwrap();
        assert!(matches!(p.root, Construct::While { .. }));
        assert_eq!(p.activities().len(), 2);
    }

    #[test]
    fn multi_statement_case_becomes_sequence() {
        let p = parse_process(
            "process S { var x; switch c reads x { case T { assign a writes x; assign b writes x; } } }",
        )
        .unwrap();
        if let Construct::Switch { cases, .. } = &p.root {
            assert!(matches!(cases[0].body, Construct::Sequence(ref v) if v.len() == 2));
        } else {
            panic!("expected switch");
        }
    }

    #[test]
    fn conditional_link() {
        let p = parse_process(
            "process F { var x; flow { assign a writes x; assign b reads x; link l from a to b when T; } }",
        )
        .unwrap();
        assert_eq!(p.root.links()[0].condition.as_deref(), Some("T"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_process("process P {\n var x;\n bogus a;\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn missing_semicolon_rejected() {
        assert!(parse_process("process P { var x; assign a writes x }").is_err());
    }

    #[test]
    fn comments_both_styles() {
        let p = parse_process(
            "process P { # hash comment\n var x; // slash comment\n assign a writes x;\n}",
        )
        .unwrap();
        assert_eq!(p.activities().len(), 1);
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_process("process P { var x; assign a writes x; } extra").is_err());
    }

    fn nested(depth: usize) -> String {
        format!(
            "process P {{ {} empty x; {} }}",
            "sequence { ".repeat(depth),
            "} ".repeat(depth)
        )
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // The root construct is one level, so MAX_NESTING - 1 wrappers fit.
        assert!(parse_process(&nested(MAX_NESTING - 1)).is_ok());
        let err = parse_process(&nested(MAX_NESTING)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 100,000 open `sequence {` would overflow any thread stack if the
        // recursion were unbounded; on a 2 MB stack it must be a DslError.
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse_process(&nested(100_000)).map(|_| ()))
            .unwrap();
        let err = handle
            .join()
            .expect("parser must not overflow")
            .unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    #[test]
    fn keyword_errors_name_what_was_found() {
        let err = parse_process("process P { invoke a at S port 1; }").unwrap_err();
        assert_eq!(err.message, "expected keyword 'on', got 'at'");
        let err = parse_process("process P { invoke a ; }").unwrap_err();
        assert_eq!(err.message, "expected keyword 'on', got Some(Semi)");
    }

    #[test]
    fn empty_activity_kind() {
        let p = parse_process("process P { empty noop; }").unwrap();
        assert_eq!(p.activities()[0].kind, ActivityKind::Empty);
    }
}
