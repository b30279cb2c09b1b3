//! Document-level queries over the parsed DOM.
//!
//! These are the accessors both sides of the reproduction use: the pipeline
//! extracts anchor/resource/form/script URLs (§IV-B "any discovered HTML or
//! JavaScript code is dynamically loaded"), the browser pulls inline
//! scripts to execute, and the §V-A referral analysis needs the hotlinked
//! resource hosts.

use crate::html::{parse_fragment, Node};

/// A parsed HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    roots: Vec<Node>,
}

impl Document {
    /// Parse HTML (never fails; tag soup is recovered like a browser).
    pub fn parse(html: &str) -> Document {
        Document {
            roots: parse_fragment(html),
        }
    }

    /// Root nodes.
    pub fn roots(&self) -> &[Node] {
        &self.roots
    }

    /// Depth-first pre-order walk of all nodes.
    pub fn walk(&self) -> Vec<&Node> {
        fn visit<'a>(node: &'a Node, out: &mut Vec<&'a Node>) {
            out.push(node);
            if let Node::Element { children, .. } = node {
                for c in children {
                    visit(c, out);
                }
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            visit(r, &mut out);
        }
        out
    }

    /// All elements with the given tag.
    pub fn elements(&self, tag: &str) -> Vec<&Node> {
        self.walk()
            .into_iter()
            .filter(|n| n.as_element().map(|(t, _, _)| t == tag).unwrap_or(false))
            .collect()
    }

    /// The first element with `id`.
    pub fn element_by_id(&self, id: &str) -> Option<&Node> {
        self.walk().into_iter().find(|n| n.attr("id") == Some(id))
    }

    /// The `<title>` text.
    pub fn title(&self) -> Option<String> {
        self.elements("title")
            .first()
            .map(|n| n.text_content().trim().to_string())
    }

    /// All `<a href>` values.
    pub fn anchor_urls(&self) -> Vec<String> {
        self.elements("a")
            .iter()
            .filter_map(|n| n.attr("href"))
            .map(str::to_string)
            .collect()
    }

    /// All subresource URLs: `img/script/iframe/embed[src]`,
    /// `link[href]`. These are the requests a browser issues while loading
    /// — the surface of the §V-A hotlinking observation.
    pub fn resource_urls(&self) -> Vec<String> {
        let mut out = Vec::new();
        for n in self.walk() {
            if let Some((tag, attrs, _)) = n.as_element() {
                match tag {
                    "img" | "script" | "iframe" | "embed" | "source" => {
                        if let Some(src) = attrs.get("src") {
                            if !src.is_empty() {
                                out.push(src.clone());
                            }
                        }
                    }
                    "link" => {
                        if let Some(href) = attrs.get("href") {
                            if !href.is_empty() {
                                out.push(href.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// All `<form action>` values.
    pub fn form_actions(&self) -> Vec<String> {
        self.elements("form")
            .iter()
            .filter_map(|n| n.attr("action"))
            .map(str::to_string)
            .collect()
    }

    /// Inline `<script>` bodies (no `src`).
    pub fn inline_scripts(&self) -> Vec<String> {
        self.elements("script")
            .iter()
            .filter(|n| n.attr("src").is_none())
            .map(|n| n.text_content().into_owned())
            .filter(|s| !s.trim().is_empty())
            .collect()
    }

    /// `<meta http-equiv="refresh">` redirect target, if any.
    pub fn meta_refresh_url(&self) -> Option<String> {
        for n in self.elements("meta") {
            let is_refresh = n
                .attr("http-equiv")
                .map(|v| v.eq_ignore_ascii_case("refresh"))
                .unwrap_or(false);
            if is_refresh {
                if let Some(content) = n.attr("content") {
                    // "5; url=https://..."
                    if let Some(idx) = content.to_ascii_lowercase().find("url=") {
                        return Some(content[idx + 4..].trim().to_string());
                    }
                }
            }
        }
        None
    }

    /// `true` if the document contains a password input — the signature of
    /// a credential-harvesting login form.
    pub fn has_password_field(&self) -> bool {
        self.elements("input")
            .iter()
            .any(|n| n.attr("type") == Some("password"))
    }

    /// Visible text of the whole document (excluding script/style bodies).
    pub fn visible_text(&self) -> String {
        fn visit(node: &Node, out: &mut String) {
            match node {
                Node::Text(t) => {
                    if !out.is_empty() && !out.ends_with(' ') {
                        out.push(' ');
                    }
                    out.push_str(t.trim());
                }
                Node::Element { tag, children, .. } => {
                    if tag != "script" && tag != "style" {
                        for c in children {
                            visit(c, out);
                        }
                    }
                }
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            visit(r, &mut out);
        }
        out.trim().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"
      <html><head>
        <title> Corp Portal </title>
        <link href="https://cdn.example/style.css" rel="stylesheet">
        <meta http-equiv="refresh" content="0; url=https://next.example/hop">
      </head><body>
        <img src="https://corp.example/logo.png" id="logo">
        <a href="https://evil.example/dhfYWfH">continue</a>
        <a href="/relative">rel</a>
        <form action="https://evil.example/collect" method="post">
          <input type="text" name="user">
          <input type="password" name="pw">
        </form>
        <iframe src="https://embed.example/frame"></iframe>
        <script>console.log('inline one');</script>
        <script src="https://cdn.example/fp.js"></script>
        <style>p { color: blue }</style>
        <p>Welcome back</p>
      </body></html>
    "#;

    #[test]
    fn title_extraction() {
        assert_eq!(
            Document::parse(PAGE).title(),
            Some("Corp Portal".to_string())
        );
    }

    #[test]
    fn anchors_include_relative() {
        let doc = Document::parse(PAGE);
        assert_eq!(
            doc.anchor_urls(),
            ["https://evil.example/dhfYWfH", "/relative"]
        );
    }

    #[test]
    fn resource_urls_cover_img_link_iframe_script() {
        let doc = Document::parse(PAGE);
        let urls = doc.resource_urls();
        assert!(urls.contains(&"https://corp.example/logo.png".to_string()));
        assert!(urls.contains(&"https://cdn.example/style.css".to_string()));
        assert!(urls.contains(&"https://embed.example/frame".to_string()));
        assert!(urls.contains(&"https://cdn.example/fp.js".to_string()));
    }

    #[test]
    fn forms_and_password_detection() {
        let doc = Document::parse(PAGE);
        assert_eq!(doc.form_actions(), ["https://evil.example/collect"]);
        assert!(doc.has_password_field());
        assert!(!Document::parse("<p>no form</p>").has_password_field());
    }

    #[test]
    fn inline_scripts_exclude_external() {
        let doc = Document::parse(PAGE);
        let scripts = doc.inline_scripts();
        assert_eq!(scripts.len(), 1);
        assert!(scripts[0].contains("inline one"));
    }

    #[test]
    fn meta_refresh_parsing() {
        let doc = Document::parse(PAGE);
        assert_eq!(
            doc.meta_refresh_url().as_deref(),
            Some("https://next.example/hop")
        );
        assert_eq!(Document::parse("<p>x</p>").meta_refresh_url(), None);
    }

    #[test]
    fn visible_text_skips_scripts_and_styles() {
        let doc = Document::parse(PAGE);
        let text = doc.visible_text();
        assert!(text.contains("Welcome back"));
        assert!(!text.contains("inline one"));
        assert!(!text.contains("color: blue"));
    }

    #[test]
    fn element_by_id() {
        let doc = Document::parse(PAGE);
        assert_eq!(
            doc.element_by_id("logo").unwrap().attr("src").unwrap(),
            "https://corp.example/logo.png"
        );
        assert!(doc.element_by_id("missing").is_none());
    }
}
