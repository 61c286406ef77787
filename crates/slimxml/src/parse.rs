//! Recursive-descent XML parser.

use std::error::Error;
use std::fmt;

use crate::{Document, Element, Node};

/// Error produced when XML input is malformed.
///
/// Carries a 1-based line and column pointing at the offending byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    message: String,
    line: usize,
    column: usize,
}

impl ParseXmlError {
    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based source column of the error.
    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml parse error at {}:{}: {}", self.line, self.column, self.message)
    }
}

impl Error for ParseXmlError {}

/// Deepest element nesting [`parse`] accepts (the root element is depth 1).
/// Deeper input is a [`ParseXmlError`] rather than a stack overflow, and no
/// deeper tree is ever built, so recursive passes over a parsed document
/// (writing, comparison, drop, model loading) stay bounded too.
pub const MAX_DEPTH: usize = 256;

/// Parses an XML document from a string.
///
/// Whitespace-only text between elements is discarded; any text node with
/// non-whitespace content is kept verbatim (entities decoded).
///
/// # Errors
///
/// Returns [`ParseXmlError`] on malformed input: mismatched tags, unclosed
/// elements, bad entities, stray content after the root element, elements
/// nested deeper than [`MAX_DEPTH`], and so on.
///
/// ```
/// # use cftcg_slimxml::parse;
/// let err = parse("<a><b></a>").unwrap_err();
/// assert!(err.message().contains("mismatched"));
/// ```
pub fn parse(input: &str) -> Result<Document, ParseXmlError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let has_declaration = p.saw_declaration;
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.error("content after root element"));
    }
    Ok(Document { has_declaration, root })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    saw_declaration: bool,
    /// Elements open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { bytes: input.as_bytes(), pos: 0, saw_declaration: false, depth: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseXmlError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        ParseXmlError { message: message.into(), line, column }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseXmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips the XML declaration if present.
    fn skip_prolog(&mut self) -> Result<(), ParseXmlError> {
        self.skip_whitespace();
        if self.eat("<?xml") {
            self.saw_declaration = true;
            loop {
                if self.eat("?>") {
                    break;
                }
                if self.bump().is_none() {
                    return Err(self.error("unterminated xml declaration"));
                }
            }
        }
        Ok(())
    }

    /// Skips whitespace and comments between top-level constructs.
    fn skip_misc(&mut self) -> Result<(), ParseXmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseXmlError> {
        self.expect("<!--")?;
        loop {
            if self.eat("-->") {
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.error("unterminated comment"));
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseXmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b':';
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        // Safety of from_utf8: we only consumed ASCII bytes.
        Ok(String::from_utf8(self.bytes[start..self.pos].to_vec()).expect("ascii name"))
    }

    fn parse_element(&mut self) -> Result<Element, ParseXmlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("elements nest deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let element = self.parse_element_body();
        self.depth -= 1;
        element
    }

    fn parse_element_body(&mut self) -> Result<Element, ParseXmlError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.parse_children(&mut element)?;
                    return Ok(element);
                }
                Some(_) => {
                    let (key, value) = self.parse_attribute()?;
                    if element.attr(&key).is_some() {
                        return Err(self.error(format!("duplicate attribute `{key}`")));
                    }
                    element.attributes.push((key, value));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }
    }

    fn parse_attribute(&mut self) -> Result<(String, String), ParseXmlError> {
        let key = self.parse_name()?;
        self.skip_whitespace();
        self.expect("=")?;
        self.skip_whitespace();
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        let mut value = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok((key, value));
                }
                Some(b'&') => value.push(self.parse_entity()?),
                Some(b'<') => return Err(self.error("`<` not allowed in attribute value")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' || b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    value.push_str(self.str_slice(start));
                }
                None => return Err(self.error("unterminated attribute value")),
            }
        }
    }

    fn str_slice(&self, start: usize) -> &str {
        std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("")
    }

    fn parse_children(&mut self, parent: &mut Element) -> Result<(), ParseXmlError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error(format!("unclosed element `{}`", parent.name))),
                Some(b'<') => {
                    if self.starts_with("</") {
                        flush_text(&mut text, parent);
                        self.expect("</")?;
                        let name = self.parse_name()?;
                        if name != parent.name {
                            return Err(self.error(format!(
                                "mismatched closing tag: expected `</{}>`, found `</{}>`",
                                parent.name, name
                            )));
                        }
                        self.skip_whitespace();
                        self.expect(">")?;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<![CDATA[") {
                        self.expect("<![CDATA[")?;
                        let start = self.pos;
                        loop {
                            if self.starts_with("]]>") {
                                text.push_str(self.str_slice(start));
                                self.expect("]]>")?;
                                break;
                            }
                            if self.bump().is_none() {
                                return Err(self.error("unterminated CDATA section"));
                            }
                        }
                    } else {
                        flush_text(&mut text, parent);
                        let child = self.parse_element()?;
                        parent.children.push(Node::Element(child));
                    }
                }
                Some(b'&') => text.push(self.parse_entity()?),
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' || b == b'&' {
                            break;
                        }
                        self.pos += 1;
                    }
                    text.push_str(self.str_slice(start));
                }
            }
        }
    }

    fn parse_entity(&mut self) -> Result<char, ParseXmlError> {
        self.expect("&")?;
        if self.eat("#") {
            let radix = if self.eat("x") { 16 } else { 10 };
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b';') {
                self.pos += 1;
            }
            let digits = self.str_slice(start).to_string();
            self.expect(";")?;
            let code = u32::from_str_radix(&digits, radix)
                .map_err(|_| self.error(format!("bad character reference `&#{digits};`")))?;
            return char::from_u32(code)
                .ok_or_else(|| self.error(format!("invalid character code {code}")));
        }
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b';') {
            self.pos += 1;
        }
        let name = self.str_slice(start).to_string();
        self.expect(";")?;
        match name.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "quot" => Ok('"'),
            "apos" => Ok('\''),
            other => Err(self.error(format!("unknown entity `&{other};`"))),
        }
    }
}

fn flush_text(text: &mut String, parent: &mut Element) {
    if !text.trim().is_empty() {
        parent.children.push(Node::Text(std::mem::take(text)));
    } else {
        text.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.root, Element::new("a"));
        assert!(!doc.has_declaration);
    }

    #[test]
    fn parses_declaration() {
        let doc = parse("<?xml version=\"1.0\"?>\n<a/>").unwrap();
        assert!(doc.has_declaration);
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let doc = parse("<a x=\"1\" y='two'/>").unwrap();
        assert_eq!(doc.root.attr("x"), Some("1"));
        assert_eq!(doc.root.attr("y"), Some("two"));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(err.message().contains("duplicate"));
    }

    #[test]
    fn parses_nested_elements() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.root.children_named("b").count(), 2);
        assert!(doc.root.child("b").unwrap().child("c").is_some());
    }

    #[test]
    fn preserves_nonblank_text() {
        let doc = parse("<a>hello <b/>world</a>").unwrap();
        let texts: Vec<_> = doc.root.children.iter().filter_map(Node::as_text).collect();
        assert_eq!(texts, vec!["hello ", "world"]);
    }

    #[test]
    fn drops_whitespace_only_text() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 1);
    }

    #[test]
    fn decodes_entities() {
        let doc = parse("<a v=\"&lt;&gt;&amp;&quot;&apos;\">&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.root.attr("v"), Some("<>&\"'"));
        assert_eq!(doc.root.text(), "AB");
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = parse("<a>&bogus;</a>").unwrap_err();
        assert!(err.message().contains("unknown entity"));
    }

    #[test]
    fn parses_comments_and_cdata() {
        let doc = parse("<!-- top --><a><!-- in --><![CDATA[1 < 2]]></a>").unwrap();
        assert_eq!(doc.root.text(), "1 < 2");
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message().contains("mismatched"));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn rejects_trailing_content() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(err.message().contains("after root"));
    }

    #[test]
    fn rejects_unclosed_element() {
        let err = parse("<a><b>").unwrap_err();
        assert!(err.message().contains("unclosed"));
    }

    #[test]
    fn error_position_is_tracked() {
        let err = parse("<a>\n  <b x=>\n</a>").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.column() > 1);
        let shown = err.to_string();
        assert!(shown.contains("2:"), "{shown}");
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |n: usize| format!("{}{}", "<a x='1'>".repeat(n), "</a>".repeat(n));
        let doc = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(doc.root.name, "a");
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message().contains("deeper than 256"), "{err}");
        assert_eq!(err.column(), 1 + 9 * MAX_DEPTH, "points at the first element too deep");
    }

    #[test]
    fn parses_unicode_text() {
        let doc = parse("<a>héllo → wörld</a>").unwrap();
        assert_eq!(doc.root.text(), "héllo → wörld");
    }
}
