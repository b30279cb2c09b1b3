//! A practical HTML parser: tags with attributes, text nodes, raw-text
//! elements (`<script>`, `<style>`), comments, void elements, and the
//! tag-soup leniency real phishing pages demand.
//!
//! One lexer, [`tokenize`], feeds both consumers: [`parse_fragment`] builds
//! the DOM from its token stream with a stack of open elements, and
//! [`crate::PageScan`] extracts URLs from the same stream without building
//! a tree, so the two cannot disagree about where a tag or comment starts.
//!
//! The tokenizer is byte-driven: a 256-entry class table
//! (`CLASS`) classifies every byte once (whitespace, tag-name,
//! attribute-delimiter, unquoted-value terminator), scans run over byte
//! slices with a SWAR `find_byte`, and tag names / attribute values stay
//! borrowed spans until a node is materialized. The pre-LUT char-by-char
//! parser is kept verbatim in [`mod@reference`] as the differential oracle;
//! `parse_fragment` must agree with it bit-for-bit on any input.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// A DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element with attributes and children.
    Element {
        /// Lowercased tag name.
        tag: String,
        /// Lowercased attribute names → unquoted values.
        attrs: BTreeMap<String, String>,
        /// Child nodes in document order.
        children: Vec<Node>,
    },
    /// A text run.
    Text(String),
}

impl Node {
    /// Element accessor: `(tag, attrs, children)` or `None` for text.
    pub fn as_element(&self) -> Option<(&str, &BTreeMap<String, String>, &[Node])> {
        match self {
            Node::Element {
                tag,
                attrs,
                children,
            } => Some((tag, attrs, children)),
            Node::Text(_) => None,
        }
    }

    /// Attribute value, for elements.
    pub fn attr(&self, name: &str) -> Option<&str> {
        match self {
            Node::Element { attrs, .. } => attrs.get(name).map(String::as_str),
            Node::Text(_) => None,
        }
    }

    /// Concatenated descendant text.
    ///
    /// Borrows when no concatenation is needed (a text node, or an element
    /// with at most one text-bearing child) — the dominant DOM shape, so
    /// most calls allocate nothing.
    pub fn text_content(&self) -> Cow<'_, str> {
        match self {
            Node::Text(t) => Cow::Borrowed(t),
            Node::Element { children, .. } => match children.len() {
                0 => Cow::Borrowed(""),
                1 => children[0].text_content(),
                _ => {
                    let mut out = String::new();
                    for c in children {
                        out.push_str(&c.text_content());
                    }
                    Cow::Owned(out)
                }
            },
        }
    }
}

/// Elements that never have children.
const VOID_ELEMENTS: &[&str] = &[
    "img", "input", "br", "hr", "meta", "link", "area", "base", "col", "embed", "source", "track",
    "wbr",
];

/// Elements whose content is raw text until the matching close tag.
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

// Byte classes for the lookup-table tokenizer. A byte may carry several
// classes; scans test one mask per byte instead of chained comparisons.
/// ASCII whitespace (space, `\t`, `\n`, form feed, `\r`).
const C_WS: u8 = 1 << 0;
/// Terminates an attribute name: whitespace, `=`, `>`, `/`.
const C_NAME_END: u8 = 1 << 1;
/// Terminates an unquoted attribute value: whitespace, `>`.
const C_UNQUOTED_END: u8 = 1 << 2;
/// Tag-name byte: ASCII alphanumeric or `-`.
const C_TAG_NAME: u8 = 1 << 3;

/// The 256-entry byte class table driving tokenizer state transitions.
static CLASS: [u8; 256] = build_class();

const fn build_class() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        if matches!(b, b' ' | b'\t' | b'\n' | b'\x0C' | b'\r') {
            t[i] |= C_WS | C_NAME_END | C_UNQUOTED_END;
        }
        if matches!(b, b'=' | b'/') {
            t[i] |= C_NAME_END;
        }
        if b == b'>' {
            t[i] |= C_NAME_END | C_UNQUOTED_END;
        }
        if b.is_ascii_alphanumeric() || b == b'-' {
            t[i] |= C_TAG_NAME;
        }
        i += 1;
    }
    t
}

/// First index `>= i` whose byte is NOT in `class` (i.e. end of a run).
#[inline]
fn scan_class_run(bytes: &[u8], mut i: usize, class: u8) -> usize {
    while i < bytes.len() && CLASS[bytes[i] as usize] & class != 0 {
        i += 1;
    }
    i
}

/// First index `>= i` whose byte IS in `class`.
#[inline]
fn scan_to_class(bytes: &[u8], mut i: usize, class: u8) -> usize {
    while i < bytes.len() && CLASS[bytes[i] as usize] & class == 0 {
        i += 1;
    }
    i
}

/// Find the first occurrence of `needle` in `haystack[from..]`, scanning
/// eight bytes per step with a SWAR zero-byte test.
#[inline]
fn find_byte(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let spread = LO.wrapping_mul(needle as u64);
    let mut i = from;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let x = w ^ spread;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    while i < haystack.len() {
        if haystack[i] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Substring search built on [`find_byte`] (first-byte skip loop).
#[inline]
fn find_str(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    let first = match n.first() {
        Some(&b) => b,
        None => return Some(from.min(h.len())),
    };
    let mut i = from;
    while let Some(p) = find_byte(h, first, i) {
        if p + n.len() > h.len() {
            return None;
        }
        if &h[p..p + n.len()] == n {
            return Some(p);
        }
        i = p + 1;
    }
    None
}

/// Case-insensitive search for `</tag` (ASCII `tag`) starting at `from`.
/// Matches anywhere, with no word-boundary requirement — `</scripty>`
/// terminates a `<script>` raw-text run, exactly like the reference
/// parser's lowercase-the-remainder-and-`find` approach.
#[inline]
fn find_close_ci(haystack: &[u8], tag: &str, from: usize) -> Option<usize> {
    let t = tag.as_bytes();
    let mut i = from;
    while let Some(p) = find_byte(haystack, b'<', i) {
        if p + 2 + t.len() <= haystack.len()
            && haystack[p + 1] == b'/'
            && haystack[p + 2..p + 2 + t.len()].eq_ignore_ascii_case(t)
        {
            return Some(p);
        }
        i = p + 1;
    }
    None
}

/// Parse an HTML fragment into a node list. Never fails: unclosed tags are
/// closed at end of input, stray close tags are ignored — the leniency of a
/// real browser.
///
/// A tree builder over [`tokenize`]: open elements sit on a stack, and a
/// close tag pops to the nearest open element with its name (closing every
/// element above it) or is dropped when none matches. Void, self-closing
/// and raw-text elements never go on the stack.
pub fn parse_fragment(input: &str) -> Vec<Node> {
    let mut roots = Vec::new();
    let mut open: Vec<Node> = Vec::new();
    // Tag and attributes of the open tag being read; a raw-text element
    // stays here until its `RawText` (always the very next token) arrives.
    let mut pending: Option<(String, BTreeMap<String, String>)> = None;
    for tok in tokenize(input) {
        match tok {
            Token::Text(text) => append(
                &mut open,
                &mut roots,
                Node::Text(decode_entities(text).into_owned()),
            ),
            Token::Open(name) => pending = Some((name.to_ascii_lowercase(), BTreeMap::new())),
            Token::Attr { name, value } => {
                if let Some((_, attrs)) = &mut pending {
                    let value = decode_entities(value.unwrap_or("")).into_owned();
                    attrs.insert(name.to_ascii_lowercase(), value);
                }
            }
            Token::OpenEnd { self_closing } => {
                let (tag, attrs) = pending.take().expect("OpenEnd ends an Open");
                if RAW_TEXT_ELEMENTS.contains(&tag.as_str()) && !self_closing {
                    pending = Some((tag, attrs));
                    continue;
                }
                let leaf = self_closing || VOID_ELEMENTS.contains(&tag.as_str());
                let el = Node::Element {
                    tag,
                    attrs,
                    children: Vec::new(),
                };
                if leaf {
                    append(&mut open, &mut roots, el);
                } else {
                    open.push(el);
                }
            }
            Token::RawText(body) => {
                let (tag, attrs) = pending.take().expect("RawText follows its OpenEnd");
                let children = if body.trim().is_empty() {
                    Vec::new()
                } else {
                    vec![Node::Text(body.to_string())]
                };
                let el = Node::Element {
                    tag,
                    attrs,
                    children,
                };
                append(&mut open, &mut roots, el);
            }
            Token::Close(name) => {
                let nearest = open.iter().rposition(|el| {
                    el.as_element()
                        .is_some_and(|(tag, _, _)| tag.eq_ignore_ascii_case(name))
                });
                if let Some(depth) = nearest {
                    while open.len() > depth {
                        let el = open.pop().expect("depth < len");
                        append(&mut open, &mut roots, el);
                    }
                }
            }
            Token::Comment(_) | Token::Doctype(_) => {}
        }
    }
    while let Some(el) = open.pop() {
        append(&mut open, &mut roots, el);
    }
    roots
}

/// Append `node` to the innermost open element, or to the fragment roots.
fn append(open: &mut [Node], roots: &mut Vec<Node>, node: Node) {
    match open.last_mut() {
        Some(Node::Element { children, .. }) => children.push(node),
        _ => roots.push(node),
    }
}

/// The entities [`decode_entities`] understands, with their replacements.
const ENTITIES: [(&str, char); 6] = [
    ("&amp;", '&'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&#39;", '\''),
    ("&nbsp;", ' '),
];

/// Decode the handful of entities that matter for URL and text extraction,
/// in one left-to-right pass: a decoded `&` never starts another entity,
/// so `&amp;lt;` decodes to `&lt;`.
///
/// Borrows the input untouched when it contains no `&` — the overwhelmingly
/// common case for attribute values and text runs — so the parser's hot
/// path allocates only when a transformation actually happens.
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match ENTITIES.iter().find(|(name, _)| rest.starts_with(name)) {
            Some((name, ch)) => {
                out.push(*ch);
                rest = &rest[name.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// One event of the zero-copy token stream ([`tokenize`]). Every payload is
/// a raw borrowed span: tag and attribute names keep their wire case (use
/// `eq_ignore_ascii_case` to match), values and text are entity-undecoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// A non-whitespace text run (raw, entities not decoded).
    Text(&'a str),
    /// `<name` — start of an open tag; attribute events follow.
    Open(&'a str),
    /// One attribute inside the current open tag; `value` is `None` for
    /// bare attributes and raw (unquoted span, undecoded) otherwise.
    Attr {
        /// Attribute name, wire case.
        name: &'a str,
        /// Raw value span, if `=` was present.
        value: Option<&'a str>,
    },
    /// End of the current open tag (`>` or `/>`).
    OpenEnd {
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>` — close tag (name trimmed, wire case).
    Close(&'a str),
    /// `<!-- ... -->` interior.
    Comment(&'a str),
    /// `<! ... >` interior (doctype and friends).
    Doctype(&'a str),
    /// Raw text content of a `<script>`/`<style>` element: always the next
    /// token after its `OpenEnd` (possibly empty, never after `/>`). The
    /// close tag that ends it is consumed through its `>` (or to the end of
    /// input) without a `Close` token, so `</scripty>` ends a `<script>`.
    RawText(&'a str),
}

/// Tokenize an HTML fragment as a flat, allocation-free event stream.
///
/// This is the crate's one HTML lexer: the tree builder
/// ([`parse_fragment`]) materializes the DOM from it, and scanners that
/// only need to *look* (URL extraction in [`crate::PageScan`], feature
/// counting) read the spans directly. Iterating it performs no heap
/// allocation at all.
pub fn tokenize(input: &str) -> Tokens<'_> {
    Tokens {
        input,
        pos: 0,
        state: TokState::Data,
    }
}

#[derive(Debug, Clone, Copy)]
enum TokState {
    Data,
    /// Inside an open tag; payload is the span of the tag name.
    InTag {
        name: (usize, usize),
    },
    /// After an open tag of a raw-text element.
    Raw {
        name: (usize, usize),
    },
}

/// Iterator returned by [`tokenize`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    input: &'a str,
    pos: usize,
    state: TokState,
}

impl<'a> Tokens<'a> {
    fn next_data(&mut self) -> Option<Token<'a>> {
        let input = self.input;
        let bytes = input.as_bytes();
        loop {
            if self.pos >= input.len() {
                return None;
            }
            let rest = &input[self.pos..];
            if let Some(after) = rest.strip_prefix("</") {
                if let Some(end) = find_byte(after.as_bytes(), b'>', 0) {
                    let name = after[..end].trim();
                    if !name.is_empty() && name.as_bytes()[0].is_ascii_alphabetic() {
                        self.pos += 2 + end + 1;
                        return Some(Token::Close(name));
                    }
                }
                // malformed close: fall through to the text path
            } else if let Some(after) = rest.strip_prefix("<!--") {
                // The `-->` search starts right after `<!`, so `<!-->` and
                // `<!--->` are empty comments.
                let (body, next) = match find_str(input, "-->", self.pos + 2) {
                    Some(end) => (&input[(self.pos + 4).min(end)..end], end + 3),
                    None => (after, input.len()),
                };
                self.pos = next;
                return Some(Token::Comment(body));
            } else if rest.starts_with("<!") {
                let (body, next) = match find_byte(bytes, b'>', self.pos + 2) {
                    Some(end) => (&input[self.pos + 2..end], end + 1),
                    None => (&input[self.pos + 2..], input.len()),
                };
                self.pos = next;
                return Some(Token::Doctype(body));
            } else if rest.len() > 1
                && rest.as_bytes()[0] == b'<'
                && rest.as_bytes()[1].is_ascii_alphabetic()
            {
                let name_end = scan_class_run(bytes, self.pos + 1, C_TAG_NAME);
                let name = (self.pos + 1, name_end);
                self.pos = name_end;
                self.state = TokState::InTag { name };
                return Some(Token::Open(&input[name.0..name.1]));
            }
            // Text until next '<'; a '<' that opens nothing is one byte of
            // text.
            let end = find_byte(bytes, b'<', self.pos).unwrap_or(input.len());
            let text = &input[self.pos..end.max(self.pos + 1).min(input.len())];
            self.pos += text.len();
            if !text.trim().is_empty() {
                return Some(Token::Text(text));
            }
        }
    }

    fn next_in_tag(&mut self, name: (usize, usize)) -> Option<Token<'a>> {
        let input = self.input;
        let bytes = input.as_bytes();
        self.pos = scan_class_run(bytes, self.pos, C_WS);
        loop {
            let rest = &input[self.pos..];
            if rest.starts_with("/>") {
                self.pos += 2;
                self.state = TokState::Data;
                return Some(Token::OpenEnd { self_closing: true });
            }
            if rest.starts_with('>') || rest.is_empty() {
                if !rest.is_empty() {
                    self.pos += 1;
                }
                let tag = &input[name.0..name.1];
                self.state = if RAW_TEXT_ELEMENTS
                    .iter()
                    .any(|r| tag.eq_ignore_ascii_case(r))
                {
                    TokState::Raw { name }
                } else {
                    TokState::Data
                };
                return Some(Token::OpenEnd {
                    self_closing: false,
                });
            }
            let name_end = scan_to_class(bytes, self.pos, C_NAME_END);
            if name_end == self.pos {
                // stray character; skip it
                self.pos += 1;
                self.pos = scan_class_run(bytes, self.pos, C_WS);
                continue;
            }
            let attr_name = &input[self.pos..name_end];
            self.pos = scan_class_run(bytes, name_end, C_WS);
            let value = if input[self.pos..].starts_with('=') {
                self.pos = scan_class_run(bytes, self.pos + 1, C_WS);
                let rest = &input[self.pos..];
                if rest.starts_with('"') || rest.starts_with('\'') {
                    let quote = rest.as_bytes()[0];
                    let inner = &rest[1..];
                    let end = find_byte(inner.as_bytes(), quote, 0).unwrap_or(inner.len());
                    let v = &inner[..end];
                    self.pos += 1 + end + 1.min(inner.len() - end);
                    Some(v)
                } else {
                    let end = scan_to_class(bytes, self.pos, C_UNQUOTED_END);
                    let v = &input[self.pos..end];
                    self.pos = end;
                    Some(v)
                }
            } else {
                None
            };
            self.pos = scan_class_run(bytes, self.pos, C_WS);
            return Some(Token::Attr {
                name: attr_name,
                value,
            });
        }
    }

    fn next_raw(&mut self, name: (usize, usize)) -> Option<Token<'a>> {
        let input = self.input;
        let tag = &input[name.0..name.1];
        let content_end = find_close_ci(input.as_bytes(), tag, self.pos).unwrap_or(input.len());
        let content = &input[self.pos..content_end];
        self.pos = find_byte(input.as_bytes(), b'>', content_end).map_or(input.len(), |gt| gt + 1);
        self.state = TokState::Data;
        Some(Token::RawText(content))
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        match self.state {
            TokState::Data => self.next_data(),
            TokState::InTag { name } => self.next_in_tag(name),
            TokState::Raw { name } => self.next_raw(name),
        }
    }
}

/// The pre-LUT char-by-char parser, kept verbatim as the differential
/// oracle for `parse_fragment`. Do not improve it — its value is
/// behavioural identity with the historical implementation.
#[doc(hidden)]
pub mod reference {
    use super::{decode_entities, Node, RAW_TEXT_ELEMENTS, VOID_ELEMENTS};
    use std::collections::BTreeMap;

    /// The original `parse_fragment`.
    pub fn parse_fragment(input: &str) -> Vec<Node> {
        let mut parser = OracleParser { input, pos: 0 };
        parser.parse_nodes(&[])
    }

    struct OracleParser<'a> {
        input: &'a str,
        pos: usize,
    }

    impl<'a> OracleParser<'a> {
        fn rest(&self) -> &'a str {
            &self.input[self.pos..]
        }

        fn starts_with(&self, s: &str) -> bool {
            self.rest().starts_with(s)
        }

        fn parse_nodes(&mut self, stop_tags: &[&str]) -> Vec<Node> {
            let mut nodes = Vec::new();
            loop {
                if self.pos >= self.input.len() {
                    return nodes;
                }
                if self.starts_with("</") {
                    let save = self.pos;
                    if let Some(name) = self.peek_close_tag() {
                        if stop_tags.contains(&name.as_str()) {
                            self.pos = save;
                            return nodes;
                        }
                        self.consume_close_tag();
                        continue;
                    }
                }
                if self.starts_with("<!--") {
                    if let Some(end) = self.rest().find("-->") {
                        self.pos += end + 3;
                    } else {
                        self.pos = self.input.len();
                    }
                    continue;
                }
                if self.starts_with("<!") {
                    match self.rest().find('>') {
                        Some(end) => self.pos += end + 1,
                        None => self.pos = self.input.len(),
                    }
                    continue;
                }
                if self.starts_with("<") && self.rest().len() > 1 {
                    let after = self.rest().as_bytes()[1];
                    if after.is_ascii_alphabetic() {
                        nodes.push(self.parse_element(stop_tags));
                        continue;
                    }
                }
                let end = self
                    .rest()
                    .find('<')
                    .map(|i| self.pos + i)
                    .unwrap_or(self.input.len());
                let text = &self.input[self.pos..end.max(self.pos + 1).min(self.input.len())];
                self.pos += text.len();
                if !text.trim().is_empty() {
                    nodes.push(Node::Text(decode_entities(text).into_owned()));
                }
            }
        }

        fn peek_close_tag(&self) -> Option<String> {
            let rest = self.rest().strip_prefix("</")?;
            let end = rest.find('>')?;
            let name = rest[..end].trim().to_ascii_lowercase();
            if name.is_empty() || !name.bytes().next().unwrap().is_ascii_alphabetic() {
                None
            } else {
                Some(name)
            }
        }

        fn consume_close_tag(&mut self) {
            if let Some(end) = self.rest().find('>') {
                self.pos += end + 1;
            } else {
                self.pos = self.input.len();
            }
        }

        fn parse_element(&mut self, stop_tags: &[&str]) -> Node {
            self.pos += 1;
            let rest = self.rest();
            let name_len = rest
                .bytes()
                .position(|b| !(b.is_ascii_alphanumeric() || b == b'-'))
                .unwrap_or(rest.len());
            let tag = rest[..name_len].to_ascii_lowercase();
            self.pos += name_len;

            let (attrs, self_closed) = self.parse_attrs();

            if self_closed || VOID_ELEMENTS.contains(&tag.as_str()) {
                return Node::Element {
                    tag,
                    attrs,
                    children: Vec::new(),
                };
            }

            if RAW_TEXT_ELEMENTS.contains(&tag.as_str()) {
                let close = format!("</{tag}");
                let content_start = self.pos;
                let content_end = self
                    .rest()
                    .to_ascii_lowercase()
                    .find(&close)
                    .map(|i| content_start + i)
                    .unwrap_or(self.input.len());
                let content = self.input[content_start..content_end].to_string();
                self.pos = content_end;
                self.consume_close_tag();
                let children = if content.trim().is_empty() {
                    Vec::new()
                } else {
                    vec![Node::Text(content)]
                };
                return Node::Element {
                    tag,
                    attrs,
                    children,
                };
            }

            let mut inner_stops: Vec<&str> = stop_tags.to_vec();
            let tag_owned = tag.clone();
            inner_stops.push(&tag_owned);
            let children = self.parse_nodes(&inner_stops);
            if let Some(name) = self.peek_close_tag() {
                if name == tag {
                    self.consume_close_tag();
                }
            }
            Node::Element {
                tag,
                attrs,
                children,
            }
        }

        fn parse_attrs(&mut self) -> (BTreeMap<String, String>, bool) {
            let mut attrs = BTreeMap::new();
            loop {
                while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
                    self.pos += 1;
                }
                if self.starts_with("/>") {
                    self.pos += 2;
                    return (attrs, true);
                }
                if self.starts_with(">") {
                    self.pos += 1;
                    return (attrs, false);
                }
                if self.pos >= self.input.len() {
                    return (attrs, false);
                }
                let rest = self.rest();
                let name_len = rest
                    .bytes()
                    .position(|b| b.is_ascii_whitespace() || b == b'=' || b == b'>' || b == b'/')
                    .unwrap_or(rest.len());
                if name_len == 0 {
                    self.pos += 1;
                    continue;
                }
                let name = rest[..name_len].to_ascii_lowercase();
                self.pos += name_len;
                while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
                    self.pos += 1;
                }
                let value = if self.starts_with("=") {
                    self.pos += 1;
                    while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
                        self.pos += 1;
                    }
                    let rest = self.rest();
                    if rest.starts_with('"') || rest.starts_with('\'') {
                        let quote = rest.as_bytes()[0] as char;
                        let inner = &rest[1..];
                        let end = inner.find(quote).unwrap_or(inner.len());
                        let v = inner[..end].to_string();
                        self.pos += 1 + end + 1.min(inner.len() - end);
                        v
                    } else {
                        let end = rest
                            .bytes()
                            .position(|b| b.is_ascii_whitespace() || b == b'>')
                            .unwrap_or(rest.len());
                        let v = rest[..end].to_string();
                        self.pos += end;
                        v
                    }
                } else {
                    String::new()
                };
                attrs.insert(name, decode_entities(&value).into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_nesting() {
        let nodes = parse_fragment("<div><p>hello</p></div>");
        assert_eq!(nodes.len(), 1);
        let (tag, _, children) = nodes[0].as_element().unwrap();
        assert_eq!(tag, "div");
        let (ptag, _, pchildren) = children[0].as_element().unwrap();
        assert_eq!(ptag, "p");
        assert_eq!(pchildren[0], Node::Text("hello".into()));
    }

    #[test]
    fn attributes_quoted_and_bare() {
        let nodes = parse_fragment(
            r#"<a href="https://x.example/p?a=1&amp;b=2" target=_blank data-x='q'>link</a>"#,
        );
        let n = &nodes[0];
        assert_eq!(n.attr("href"), Some("https://x.example/p?a=1&b=2"));
        assert_eq!(n.attr("target"), Some("_blank"));
        assert_eq!(n.attr("data-x"), Some("q"));
    }

    #[test]
    fn void_elements_do_not_swallow_siblings() {
        let nodes = parse_fragment(r#"<img src="a.png"><p>after</p>"#);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].attr("src"), Some("a.png"));
    }

    #[test]
    fn script_content_is_raw_text() {
        let nodes =
            parse_fragment("<script>if (a < b) { document.write('<p>not markup</p>'); }</script>");
        let (tag, _, children) = nodes[0].as_element().unwrap();
        assert_eq!(tag, "script");
        assert!(children[0].text_content().contains("a < b"));
        assert!(children[0].text_content().contains("<p>not markup</p>"));
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let nodes = parse_fragment("<!DOCTYPE html><!-- hidden --><b>x</b>");
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].as_element().unwrap().0, "b");
    }

    #[test]
    fn unclosed_tags_close_at_eof() {
        let nodes = parse_fragment("<div><p>dangling");
        let (_, _, children) = nodes[0].as_element().unwrap();
        assert_eq!(children[0].as_element().unwrap().0, "p");
    }

    #[test]
    fn stray_close_tags_ignored() {
        let nodes = parse_fragment("</p><b>ok</b></div>");
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].text_content(), "ok");
    }

    #[test]
    fn self_closing_syntax() {
        let nodes = parse_fragment("<meta charset=\"utf-8\"/><span>s</span>");
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn entity_decoding_in_text() {
        let nodes = parse_fragment("<p>a &amp; b &lt;ok&gt;</p>");
        assert_eq!(nodes[0].text_content(), "a & b <ok>");
    }

    #[test]
    fn entities_decode_once_left_to_right() {
        assert_eq!(decode_entities("&amp;lt;"), "&lt;");
        assert_eq!(decode_entities("&amp;amp;"), "&amp;");
        assert_eq!(decode_entities("&amp;nbsp;"), "&nbsp;");
        assert_eq!(decode_entities("a&b &lt;&#39;&quot;&gt;&"), "a&b <'\">&");
        assert!(matches!(decode_entities("no amp"), Cow::Borrowed("no amp")));
    }

    #[test]
    fn mismatched_close_recovers() {
        // <b> closed by </i>: browser-style recovery, no panic, content kept
        let nodes = parse_fragment("<div><b>bold</i> tail</div>");
        assert_eq!(nodes.len(), 1);
        assert!(nodes[0].text_content().contains("bold"));
        assert!(nodes[0].text_content().contains("tail"));
    }

    #[test]
    fn text_content_concatenates() {
        let nodes = parse_fragment("<div>a<span>b</span>c</div>");
        assert_eq!(nodes[0].text_content(), "abc");
    }

    #[test]
    fn style_is_raw_text() {
        let nodes = parse_fragment("<style>body > p { color: red; }</style>");
        assert!(nodes[0].text_content().contains("body > p"));
    }

    /// Tiny deterministic generator for the differential fuzz loop (runs
    /// without external crates).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() as usize) % items.len()]
        }
    }

    #[test]
    fn lut_parser_agrees_with_reference_on_fixtures() {
        let fixtures = [
            "<div><p>hello</p></div>",
            "<DIV CLASS=a>x</div>",
            "<1b<p>weird</p>",
            "</scripty>",
            "<script>tail</scripty>more</script>after",
            "<SCRIPT>x</SCRIPT>",
            "<a href=\"u'h\" x='a\"b'>t</a>",
            "<a href='unterminated>t",
            "<p a = 1 b= '2' c =\"3\">t</p>",
            "<p //weird=1>t</p>",
            "<br/><br />",
            "<b>bold</i> tail",
            "<!-- unterminated",
            "<! dangling",
            "< p>not a tag</p>",
            "<p>\u{a0}&nbsp;</p>",
            "<p>a<",
            "<p a=1 a=2 A=3>dup</p>",
            "<style>b{}</style",
            "text only",
            "",
            "<p\u{e9}>non-ascii after name</p>",
            "<!--><a href=\"https://x.example/\">x</a>",
            "<!---><a href=y>z</a>",
            "<script>a</scripty>b",
            "<scripty><script>x</scripty>z",
            "<script>x</script foo>y",
            "<script> </script>t",
            "<script/>t",
            "<div><p>a</div>b",
            "<B><i>x</B>y",
        ];
        for input in fixtures {
            assert_eq!(
                parse_fragment(input),
                reference::parse_fragment(input),
                "input {input:?}"
            );
        }
    }

    #[test]
    fn lut_parser_agrees_with_reference_on_fuzzed_soup() {
        const ATOMS: &[&str] = &[
            "<div>",
            "</div>",
            "<p ",
            "<a href=",
            "\"u\"",
            "'v'",
            "bare",
            ">",
            "/>",
            "=",
            "</p>",
            "<script>",
            "</script>",
            "<style>",
            "</style>",
            "<!--",
            "-->",
            "<!",
            "<br>",
            "text",
            " ",
            "&amp;",
            "<",
            "</",
            "<img src=x>",
            "\t",
            "<B>",
            "</B>",
            "\u{e9}",
            "<sPaN a=1>",
            "</span >",
        ];
        let mut rng = Lcg(77);
        for _ in 0..600 {
            let n = (rng.next() % 16) as usize;
            let input: String = (0..n).map(|_| rng.pick(ATOMS)).collect();
            assert_eq!(
                parse_fragment(&input),
                reference::parse_fragment(&input),
                "input {input:?}"
            );
        }
    }

    #[test]
    fn token_stream_covers_basic_structure() {
        let tokens: Vec<Token<'_>> =
            tokenize(r#"<a href="http://x.example/">link</a><script>a<b</script>"#).collect();
        assert_eq!(
            tokens,
            vec![
                Token::Open("a"),
                Token::Attr {
                    name: "href",
                    value: Some("http://x.example/"),
                },
                Token::OpenEnd {
                    self_closing: false
                },
                Token::Text("link"),
                Token::Close("a"),
                Token::Open("script"),
                Token::OpenEnd {
                    self_closing: false
                },
                Token::RawText("a<b"),
            ]
        );
    }

    #[test]
    fn token_stream_never_panics_on_soup() {
        const ATOMS: &[&str] = &[
            "<div>",
            "</div>",
            "<p ",
            "=",
            "'q",
            "\">",
            "<script>",
            "</script>",
            "<!--",
            "-->",
            "<!",
            "txt",
            "<",
            "</",
            "/>",
            " ",
            "<B a",
            "\u{e9}",
        ];
        let mut rng = Lcg(3);
        for _ in 0..400 {
            let n = (rng.next() % 14) as usize;
            let input: String = (0..n).map(|_| rng.pick(ATOMS)).collect();
            // bounded: the stream must terminate and touch every span
            let mut total = 0usize;
            for t in tokenize(&input).take(10_000) {
                total += match t {
                    Token::Text(s)
                    | Token::Open(s)
                    | Token::Close(s)
                    | Token::Comment(s)
                    | Token::Doctype(s)
                    | Token::RawText(s) => s.len(),
                    Token::Attr { name, value } => name.len() + value.map_or(0, str::len),
                    Token::OpenEnd { .. } => 0,
                };
            }
            assert!(total <= input.len() * 2, "input {input:?}");
        }
    }
}
