//! A from-scratch XML subset reader and writer.
//!
//! Supports what the Jedule formats need (and a bit more): elements with
//! single- or double-quoted attributes, self-closing tags, text nodes,
//! comments, CDATA sections, processing instructions, a skipped DOCTYPE,
//! and the five predefined entities plus numeric character references.
//! Namespaces are treated as plain name prefixes.
//!
//! Reading is one iterative pull tokenizer with two consumers: [`parse`]
//! builds an [`Element`] tree (color maps, DAX workflows, platform
//! files), and [`crate::jedule_xml::read_schedule`] builds a schedule
//! straight from the tokens, with no tree. The tokenizer borrows tag
//! names and attribute values from the source, copying a value only when
//! an entity decodes. It keeps the open elements on an explicit stack
//! capped at [`MAX_DEPTH`] instead of recursing, and tracks only a byte
//! offset: an error's 1-based line and column are computed from it when
//! the error is built.

use crate::error::{IoError, Pos};
use std::borrow::Cow;

/// A DOM node: element or text.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Element(Element),
    Text(String),
}

/// An XML element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<Node>,
}

impl Element {
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            ..Element::default()
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder: adds a child element.
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: adds a text child.
    pub fn text_child(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Attribute value by name.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attribute value or a format error naming the element.
    pub fn require_attr(&self, name: &str) -> Result<&str, IoError> {
        self.get_attr(name)
            .ok_or_else(|| missing_attr(&self.name, name))
    }

    /// First child element with the given name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// All child elements with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name == name)
    }

    /// All child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Concatenated text content of direct text children.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                s.push_str(t);
            }
        }
        s
    }
}

/// The error for a start tag `<element>` without attribute `attr`.
pub(crate) fn missing_attr(element: &str, attr: &str) -> IoError {
    IoError::format(format!(
        "<{element}> is missing required attribute {attr:?}"
    ))
}

// ---------------------------------------------------------------------------
// Tokenizing
// ---------------------------------------------------------------------------

/// The deepest element nesting either reader accepts: a start tag one
/// level deeper is a parse error at its `<`. Every Jedule, color-map, DAX
/// and platform document is under ten levels deep. The cap keeps hostile
/// input from growing the open-element stack without bound and keeps
/// the recursive drop of an [`Element`] tree shallow. The recursive
/// JSON parser caps array and object nesting at the same depth.
pub const MAX_DEPTH: usize = 1024;

/// One token of a document. Names and undecoded text borrow the source.
#[derive(Debug)]
pub(crate) enum Token<'a> {
    /// A start tag; its attributes are [`Tokenizer::attrs`] until the
    /// next call.
    Start(&'a str),
    /// The end of the innermost open element: its closing tag, or the
    /// token right after the `Start` of a self-closing tag.
    End,
    /// Character data: a run of decoded text or a raw CDATA section.
    Text(Cow<'a, str>),
}

/// An iterative pull tokenizer over a whole document.
///
/// It checks all of the syntax, in document order: one root element,
/// matched closing tags, quoted attributes, terminated comments, CDATA
/// sections, PIs and DOCTYPEs, and decodable entities in attribute
/// values and text. The first violation is the error. The open
/// elements live on an explicit stack capped at [`MAX_DEPTH`], so no
/// input can overflow the call stack. Positions are byte offsets; a line
/// and column are computed only when an error is built.
pub(crate) struct Tokenizer<'a> {
    src: &'a str,
    i: usize,
    /// Names of the open elements, outermost first.
    open: Vec<&'a str>,
    attrs: Vec<(&'a str, Cow<'a, str>)>,
    /// The last token was the `Start` of a self-closing tag.
    end_pending: bool,
    /// The root element has started.
    rooted: bool,
}

impl<'a> Tokenizer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Tokenizer {
            src,
            i: 0,
            open: Vec::new(),
            attrs: Vec::new(),
            end_pending: false,
            rooted: false,
        }
    }

    /// Attributes of the last `Start` token, in document order
    /// (duplicates kept).
    pub(crate) fn attrs(&self) -> &[(&'a str, Cow<'a, str>)] {
        &self.attrs
    }

    /// The next token, or `None` once the root has closed and only
    /// whitespace, comments, PIs and DOCTYPEs follow it.
    pub(crate) fn next(&mut self) -> Result<Option<Token<'a>>, IoError> {
        if self.end_pending {
            self.end_pending = false;
            return Ok(Some(Token::End));
        }
        if self.open.is_empty() {
            self.skip_misc()?;
            if self.rooted {
                if self.i < self.src.len() {
                    return Err(self.error("trailing content after root element", self.i));
                }
                return Ok(None);
            }
            if self.peek() != Some(b'<') {
                return Err(self.error("expected root element", self.i));
            }
            self.rooted = true;
            return self.start_tag().map(Some);
        }
        loop {
            let rest = &self.src.as_bytes()[self.i..];
            match rest {
                [] => {
                    let name = self.open[self.open.len() - 1];
                    return Err(self.error(format!("unclosed element <{name}>"), self.i));
                }
                [b'<', b'/', ..] => return self.end_tag().map(Some),
                _ if rest.starts_with(b"<!--") => {
                    self.i += 4;
                    self.until("-->")?;
                }
                _ if rest.starts_with(b"<![CDATA[") => {
                    self.i += 9;
                    return Ok(Some(Token::Text(Cow::Borrowed(self.until("]]>")?))));
                }
                [b'<', b'?', ..] => {
                    self.i += 2;
                    self.until("?>")?;
                }
                [b'<', ..] => return self.start_tag().map(Some),
                _ => {
                    let at = self.i;
                    self.i = self.src[at..].find('<').map_or(self.src.len(), |n| at + n);
                    let text = decode(&self.src[at..self.i]).map_err(|m| self.error(m, at))?;
                    return Ok(Some(Token::Text(text)));
                }
            }
        }
    }

    /// A start tag at `<`, with its attributes.
    fn start_tag(&mut self) -> Result<Token<'a>, IoError> {
        let lt = self.i;
        self.i += 1;
        let name = self.name()?;
        if self.open.len() >= MAX_DEPTH {
            return Err(self.error(
                format!("element <{name}> nested deeper than {MAX_DEPTH} levels"),
                lt,
            ));
        }
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    self.end_pending = true;
                    return Ok(Token::Start(name));
                }
                Some(b'>') => {
                    self.i += 1;
                    self.open.push(name);
                    return Ok(Token::Start(name));
                }
                Some(_) => {
                    let at = self.i;
                    let attr = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let close = match self.peek() {
                        Some(b'"') => "\"",
                        Some(b'\'') => "'",
                        _ => return Err(self.error("expected quoted attribute value", at)),
                    };
                    self.i += 1;
                    let raw = self.until(close)?;
                    let value = decode(raw).map_err(|m| self.error(m, at))?;
                    self.attrs.push((attr, value));
                }
                None => return Err(self.error("unterminated start tag", self.i)),
            }
        }
    }

    /// A closing tag at `</`, which must name the innermost open element.
    fn end_tag(&mut self) -> Result<Token<'a>, IoError> {
        self.i += 2;
        let at = self.i;
        let name = self.name()?;
        let open = self.open[self.open.len() - 1];
        if name != open {
            return Err(self.error(format!("mismatched closing tag </{name}> for <{open}>"), at));
        }
        self.skip_ws();
        self.expect(">")?;
        self.open.pop();
        Ok(Token::End)
    }

    /// Skips whitespace, comments, processing instructions and DOCTYPE
    /// outside the root element.
    fn skip_misc(&mut self) -> Result<(), IoError> {
        loop {
            self.skip_ws();
            let rest = &self.src.as_bytes()[self.i..];
            if rest.starts_with(b"<!--") {
                self.i += 4;
                self.until("-->")?;
            } else if rest.starts_with(b"<?") {
                self.i += 2;
                self.until("?>")?;
            } else if rest.starts_with(b"<!DOCTYPE") || rest.starts_with(b"<!doctype") {
                // Skip to the matching '>', allowing brackets around an
                // internal subset.
                self.i += 9;
                let mut depth = 0i32;
                loop {
                    let Some(&b) = self.src.as_bytes().get(self.i) else {
                        return Err(self.error("unterminated DOCTYPE", self.i));
                    };
                    self.i += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        b'>' if depth <= 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), IoError> {
        if self.src.as_bytes()[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}"), self.i))
        }
    }

    /// The text up to `delim`, consuming both.
    fn until(&mut self, delim: &str) -> Result<&'a str, IoError> {
        let start = self.i;
        let src = self.src;
        // A one-byte delimiter (an attribute's closing quote) is a char
        // search, which skips the substring searcher's set-up.
        let found = match delim.as_bytes() {
            &[b] => src[start..].find(char::from(b)),
            _ => src[start..].find(delim),
        };
        match found {
            Some(n) => {
                self.i = start + n + delim.len();
                Ok(&src[start..start + n])
            }
            None => Err(self.error(format!("unterminated section, expected {delim:?}"), start)),
        }
    }

    fn name(&mut self) -> Result<&'a str, IoError> {
        let start = self.i;
        let bytes = self.src.as_bytes();
        while bytes
            .get(self.i)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.error("expected a name", start));
        }
        Ok(&self.src[start..self.i])
    }

    /// A syntax error at byte offset `at`, with its 1-based line and
    /// byte column.
    fn error(&self, msg: impl Into<String>, at: usize) -> IoError {
        let before = &self.src.as_bytes()[..at];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |n| n + 1);
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let pos = Pos {
            line: line as u32,
            col: (at - line_start + 1) as u32,
        };
        IoError::xml(msg, pos)
    }
}

/// Decodes the predefined entities and numeric character references,
/// borrowing `raw` when it has none; an error is its message.
fn decode(raw: &str) -> Result<Cow<'_, str>, String> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let ent = &rest[1..end];
        let code = |digits: Result<u32, _>| {
            let v = digits.map_err(|_| format!("bad character reference &{ent};"))?;
            char::from_u32(v).ok_or_else(|| format!("invalid code point &{ent};"))
        };
        out.push(match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                code(u32::from_str_radix(&ent[2..], 16))?
            }
            _ if ent.starts_with('#') => code(ent[1..].parse())?,
            _ => return Err(format!("unknown entity &{ent};")),
        });
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Decodes the predefined entities and numeric character references.
pub fn unescape(raw: &str, at: Pos) -> Result<String, IoError> {
    decode(raw)
        .map(Cow::into_owned)
        .map_err(|msg| IoError::xml(msg, at))
}

/// Escapes text content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes attribute values (double-quote convention).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a document and returns its root element.
///
/// The tree is built from the tokenizer's tokens, so nesting is capped
/// at [`MAX_DEPTH`]. Text is kept per element, concatenated across
/// comments, PIs and CDATA sections, and dropped when it is whitespace
/// only.
pub fn parse(src: &str) -> Result<Element, IoError> {
    let mut tok = Tokenizer::new(src);
    // Open elements, outermost first. Text pends only in the innermost
    // one: a child's start flushes its parent's.
    let mut open: Vec<Element> = Vec::new();
    let mut text = String::new();
    let mut root = None;
    while let Some(token) = tok.next()? {
        match token {
            Token::Start(name) => {
                if let Some(parent) = open.last_mut() {
                    flush_text(parent, &mut text);
                }
                open.push(Element {
                    name: name.to_owned(),
                    attrs: tok
                        .attrs()
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    children: Vec::new(),
                });
            }
            Token::Text(t) => text.push_str(&t),
            Token::End => {
                let mut el = open.pop().expect("the tokenizer balances tags");
                flush_text(&mut el, &mut text);
                match open.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(el)),
                    None => root = Some(el),
                }
            }
        }
    }
    Ok(root.expect("a document that tokenizes has a root"))
}

fn flush_text(el: &mut Element, buf: &mut String) {
    if !buf.trim().is_empty() {
        el.children.push(Node::Text(std::mem::take(buf)));
    } else {
        buf.clear();
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serializes an element as a pretty-printed document with XML prolog.
pub fn write_document(root: &Element) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_element(root, 0, &mut out);
    out
}

/// Serializes one element (no prolog) at the given indent depth.
pub fn write_element(el: &Element, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    out.push('<');
    out.push_str(&el.name);
    for (k, v) in &el.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_attr(v));
        out.push('"');
    }
    if el.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    let only_text = el.children.iter().all(|n| matches!(n, Node::Text(_)));
    if only_text {
        out.push('>');
        for n in &el.children {
            if let Node::Text(t) = n {
                out.push_str(&escape_text(t));
            }
        }
        out.push_str("</");
        out.push_str(&el.name);
        out.push_str(">\n");
        return;
    }
    out.push_str(">\n");
    for n in &el.children {
        match n {
            Node::Element(c) => write_element(c, depth + 1, out),
            Node::Text(t) => {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&escape_text(t));
                out.push('\n');
            }
        }
    }
    out.push_str(&pad);
    out.push_str("</");
    out.push_str(&el.name);
    out.push_str(">\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig1_structure() {
        // The paper's Fig. 1 XML (whitespace in the scan normalized).
        let src = r#"
<node_statistics>
  <node_property name="id" value="1"/>
  <node_property name="type" value="computation"/>
  <node_property name="start_time" value="0.000"/>
  <node_property name="end_time" value="0.310"/>
  <configuration>
    <conf_property name="cluster_id" value="0"/>
    <conf_property name="host_nb" value="8"/>
    <host_lists>
      <hosts start="0" nb="8"/>
    </host_lists>
  </configuration>
</node_statistics>"#;
        let el = parse(src).unwrap();
        assert_eq!(el.name, "node_statistics");
        assert_eq!(el.find_all("node_property").count(), 4);
        let conf = el.find("configuration").unwrap();
        let hosts = conf.find("host_lists").unwrap().find("hosts").unwrap();
        assert_eq!(hosts.get_attr("start"), Some("0"));
        assert_eq!(hosts.get_attr("nb"), Some("8"));
    }

    #[test]
    fn roundtrip_through_writer() {
        let el = Element::new("root")
            .attr("a", "1")
            .child(Element::new("child").attr("x", "y<z&\"q\""))
            .child(Element::new("t").text_child("hello <world> & co"));
        let doc = write_document(&el);
        let back = parse(&doc).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn prolog_comments_doctype_skipped() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE jedule [ <!ELEMENT jedule ANY> ]>
<!-- a comment -->
<jedule><!-- inner --><a/></jedule>"#;
        let el = parse(src).unwrap();
        assert_eq!(el.name, "jedule");
        assert_eq!(el.elements().count(), 1);
    }

    #[test]
    fn cdata_becomes_text() {
        let el = parse("<x><![CDATA[a < b && c]]></x>").unwrap();
        assert_eq!(el.text(), "a < b && c");
    }

    #[test]
    fn entities_decoded() {
        let el = parse(r#"<x a="&lt;&amp;&quot;&#65;&#x42;">&gt;&apos;</x>"#).unwrap();
        assert_eq!(el.get_attr("a"), Some("<&\"AB"));
        assert_eq!(el.text(), ">'");
    }

    #[test]
    fn single_quoted_attributes() {
        let el = parse("<x a='v1' b=\"v2\"/>").unwrap();
        assert_eq!(el.get_attr("a"), Some("v1"));
        assert_eq!(el.get_attr("b"), Some("v2"));
    }

    #[test]
    fn error_positions_reported() {
        let err = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        match err {
            IoError::Xml { pos, .. } => {
                assert_eq!(pos.line, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mismatched_tag_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn unterminated_rejected() {
        for bad in [
            "<a>",
            "<a",
            "<a x=>",
            "<a x='1'",
            "<!-- foo",
            "<a>&unknown;</a>",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let el = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(el.children.len(), 2);
    }

    #[test]
    fn require_attr_errors_helpfully() {
        let el = parse("<hosts start=\"0\"/>").unwrap();
        let err = el.require_attr("nb").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("hosts") && msg.contains("nb"), "{msg}");
    }

    /// `depth` nested `<a>` elements.
    fn nested(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let el = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(el.name, "a");
        // One level deeper fails at the offending start tag, whether it
        // is an open or a self-closing one.
        for src in [
            nested(MAX_DEPTH + 1),
            format!(
                "{}<a/>{}",
                "<a>".repeat(MAX_DEPTH),
                "</a>".repeat(MAX_DEPTH)
            ),
        ] {
            match parse(&src).unwrap_err() {
                IoError::Xml { msg, pos } => {
                    assert!(msg.contains("deeper than 1024"), "{msg}");
                    assert_eq!((pos.line, pos.col), (1, 3 * MAX_DEPTH as u32 + 1));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"<a>".repeat(200_000)).unwrap_err();
        assert!(
            err.to_string().starts_with("parse error at 1:3073:"),
            "{err}"
        );
    }

    #[test]
    fn error_positions_count_bytes_from_the_line_start() {
        let err = parse("<a>\n  <é x=1/>\n</a>").unwrap_err();
        assert_eq!(err.to_string(), "parse error at 2:4: expected a name");
        let err = parse("<a>\r\n <b x=\"é&bad;\"/></a>").unwrap_err();
        assert_eq!(err.to_string(), "parse error at 2:5: unknown entity &bad;");
    }

    #[test]
    fn deep_nesting() {
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let el = parse(&src).unwrap();
        assert_eq!(el.name, "n0");
    }
}
