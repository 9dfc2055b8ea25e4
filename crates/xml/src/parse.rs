//! A recursive-descent parser for the XML subset used by WSCL documents and
//! generated BPEL: elements, attributes, character data, comments, CDATA,
//! XML declarations and the five predefined entities plus numeric character
//! references. No DTDs, namespaces-as-syntax, or processing instructions
//! beyond skipping `<?...?>`. Elements nest at most [`MAX_NESTING`] deep,
//! so hostile input is an error instead of a stack overflow.

use crate::doc::{Element, Node};

/// Deepest element nesting [`parse`] accepts (the root is level 1);
/// deeper documents are a [`ParseError`].
pub const MAX_NESTING: usize = 256;

/// Parse error with 1-based line/column of the offending byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Elements currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.src[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    /// Decodes `&...;` at the current position.
    fn entity(&mut self) -> Result<char, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.bump(1);
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                break;
            }
            if self.pos - start > 10 {
                return Err(self.err("unterminated entity"));
            }
            self.pos += 1;
        }
        let body = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("non-UTF8 entity"))?
            .to_string();
        self.expect(";")?;
        let c = match body.as_str() {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16)
                    .map_err(|_| self.err(format!("bad char ref '&{body};'")))?;
                char::from_u32(code).ok_or_else(|| self.err("invalid char ref"))?
            }
            _ if body.starts_with('#') => {
                let code: u32 = body[1..]
                    .parse()
                    .map_err(|_| self.err(format!("bad char ref '&{body};'")))?;
                char::from_u32(code).ok_or_else(|| self.err("invalid char ref"))?
            }
            _ => return Err(self.err(format!("unknown entity '&{body};'"))),
        };
        Ok(c)
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.bump(1);
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(b) if b == quote => {
                    self.bump(1);
                    return Ok(out);
                }
                Some(b'&') => out.push(self.entity()?),
                Some(b'<') => return Err(self.err("'<' in attribute value")),
                Some(_) => {
                    // Consume a full UTF-8 code point.
                    let s = &self.src[self.pos..];
                    let ch_len = utf8_len(s[0]);
                    let piece = std::str::from_utf8(&s[..ch_len.min(s.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(piece);
                    self.bump(ch_len);
                }
            }
        }
    }

    /// One element, at most [`MAX_NESTING`] levels deep.
    fn element(&mut self) -> Result<Element, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("elements nest deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let el = self.element_body();
        self.depth -= 1;
        el
    }

    fn element_body(&mut self) -> Result<Element, ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        let mut el = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let k = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let v = self.attr_value()?;
                    el.attrs.push((k, v));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Children until matching close tag.
        loop {
            if self.starts_with("</") {
                self.bump(2);
                let close = self.name()?;
                if close != el.name {
                    return Err(self.err(format!(
                        "mismatched close tag: expected </{}>, got </{close}>",
                        el.name
                    )));
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(el);
            } else if self.starts_with("<!--") {
                self.bump(4);
                let start = self.pos;
                while !self.starts_with("-->") {
                    if self.pos >= self.src.len() {
                        return Err(self.err("unterminated comment"));
                    }
                    self.pos += 1;
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.bump(3);
                el.children.push(Node::Comment(text));
            } else if self.starts_with("<![CDATA[") {
                self.bump(9);
                let start = self.pos;
                while !self.starts_with("]]>") {
                    if self.pos >= self.src.len() {
                        return Err(self.err("unterminated CDATA"));
                    }
                    self.pos += 1;
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.bump(3);
                el.children.push(Node::Text(text));
            } else if self.starts_with("<") {
                let child = self.element()?;
                el.children.push(Node::Element(child));
            } else if self.peek().is_none() {
                return Err(self.err(format!("unterminated element <{}>", el.name)));
            } else {
                // Character data.
                let mut text = String::new();
                loop {
                    match self.peek() {
                        None | Some(b'<') => break,
                        Some(b'&') => text.push(self.entity()?),
                        Some(_) => {
                            let s = &self.src[self.pos..];
                            let ch_len = utf8_len(s[0]);
                            let piece = std::str::from_utf8(&s[..ch_len.min(s.len())])
                                .map_err(|_| self.err("invalid UTF-8"))?;
                            text.push_str(piece);
                            self.bump(ch_len);
                        }
                    }
                }
                if !text.trim().is_empty() {
                    el.children.push(Node::Text(text));
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses a document: optional `<?xml ...?>` declaration, comments, then a
/// single root element.
pub fn parse(src: &str) -> Result<Element, ParseError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    if p.starts_with("<?") {
        while !p.starts_with("?>") {
            if p.pos >= p.src.len() {
                return Err(p.err("unterminated XML declaration"));
            }
            p.pos += 1;
        }
        p.bump(2);
    }
    loop {
        p.skip_ws();
        if p.starts_with("<!--") {
            p.bump(4);
            while !p.starts_with("-->") {
                if p.pos >= p.src.len() {
                    return Err(p.err("unterminated comment"));
                }
                p.pos += 1;
            }
            p.bump(3);
        } else {
            break;
        }
    }
    let root = p.element()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::to_string;

    #[test]
    fn simple_document() {
        let e = parse(r#"<a k="v"><b>text</b><c/></a>"#).unwrap();
        assert_eq!(e.name, "a");
        assert_eq!(e.get_attr("k"), Some("v"));
        assert_eq!(e.elements().count(), 2);
        assert_eq!(e.first_named("b").unwrap().text_content(), "text");
    }

    #[test]
    fn declaration_and_comments() {
        let e = parse("<?xml version=\"1.0\"?>\n<!-- top -->\n<root><!-- in --></root>").unwrap();
        assert_eq!(e.name, "root");
        assert_eq!(e.children.len(), 1);
        assert!(matches!(&e.children[0], Node::Comment(c) if c.trim() == "in"));
    }

    #[test]
    fn entities_decoded() {
        let e = parse(r#"<x a="1 &lt; 2 &quot;q&quot;">&amp;&#65;&#x42;</x>"#).unwrap();
        assert_eq!(e.get_attr("a"), Some("1 < 2 \"q\""));
        assert_eq!(e.text_content(), "&AB");
    }

    #[test]
    fn cdata_passes_through() {
        let e = parse("<x><![CDATA[a < b && c]]></x>").unwrap();
        assert_eq!(e.text_content(), "a < b && c");
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn unterminated_rejected_with_position() {
        let err = parse("<a>\n  <b>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn single_quoted_attrs() {
        let e = parse("<a k='v w'/>").unwrap();
        assert_eq!(e.get_attr("k"), Some("v w"));
    }

    #[test]
    fn namespaced_names() {
        let e = parse(r#"<bpel:flow xmlns:bpel="uri"><bpel:link/></bpel:flow>"#).unwrap();
        assert_eq!(e.name, "bpel:flow");
        assert!(e.first_named("bpel:link").is_some());
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"<flow name="purchasing"><links><link name="l1"/></links><invoke name="invCredit_po">po &amp; au</invoke></flow>"#;
        let e = parse(src).unwrap();
        assert_eq!(to_string(&e), src);
        // And parse(write(parse(x))) is a fixpoint.
        let again = parse(&to_string(&e)).unwrap();
        assert_eq!(again, e);
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let e = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 1);
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 100,000 open `<a>` would overflow any thread stack if the
        // recursion were unbounded; on a 2 MB stack it must be an error.
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&nested(100_000)).map(|_| ()))
            .unwrap();
        let err = handle
            .join()
            .expect("parser must not overflow")
            .unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    #[test]
    fn utf8_content() {
        let e = parse("<a k=\"héllo→\">wörld → done</a>").unwrap();
        assert_eq!(e.get_attr("k"), Some("héllo→"));
        assert_eq!(e.text_content(), "wörld → done");
    }
}
