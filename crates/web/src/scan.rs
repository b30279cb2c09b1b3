//! Single-pass static extraction over the token stream.
//!
//! The §IV-B parsing phase pulls exactly three signals out of an HTML part:
//! anchor `href`s, the `<meta http-equiv=refresh>` target, and inline
//! `<script>` bodies for dynamic analysis. [`crate::Document`] can answer
//! the same questions, but only after building the whole tree and walking
//! it three times. [`PageScan`] produces the same three signals —
//! value-for-value and in the same order — from one pass over
//! [`crate::html::tokenize`], allocating only for the extracted strings
//! themselves. The DOM is built from that same token stream, so the two
//! agree on where every tag, comment and raw-text body begins and ends.
//!
//! Equivalence with the DOM accessors is load-bearing (the pipeline's scan
//! records must stay bit-identical), so the tests here compare every field
//! against [`crate::Document`] on both fixtures and fuzzed tag soup.

use crate::html::{decode_entities, tokenize, Token};

/// The static-extraction signals of one HTML part, gathered in a single
/// token-stream pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageScan {
    /// Every `<a href>` value, entity-decoded, in document order —
    /// equals [`crate::Document::anchor_urls`].
    pub anchor_hrefs: Vec<String>,
    /// The first `<meta http-equiv="refresh">` redirect target —
    /// equals [`crate::Document::meta_refresh_url`].
    pub meta_refresh: Option<String>,
    /// Inline `<script>` bodies (no `src`), raw and in document order —
    /// equals [`crate::Document::inline_scripts`].
    pub inline_scripts: Vec<String>,
}

impl PageScan {
    /// Scan `html` in one tokenizer pass.
    pub fn of(html: &str) -> PageScan {
        // Which element the current open tag is, when it is one we extract
        // from. Attribute values are kept as raw spans until `OpenEnd`
        // proves the element is interesting; duplicates overwrite, matching
        // the DOM's last-wins attribute map.
        #[derive(Clone, Copy, PartialEq)]
        enum Cur {
            Other,
            Anchor,
            Meta,
            Script,
        }
        let mut out = PageScan::default();
        let mut cur = Cur::Other;
        let mut href: Option<&str> = None;
        let mut http_equiv: Option<&str> = None;
        let mut content: Option<&str> = None;
        let mut has_src = false;
        for tok in tokenize(html) {
            match tok {
                Token::Open(name) => {
                    cur = if name.eq_ignore_ascii_case("a") {
                        Cur::Anchor
                    } else if name.eq_ignore_ascii_case("meta") {
                        Cur::Meta
                    } else if name.eq_ignore_ascii_case("script") {
                        Cur::Script
                    } else {
                        Cur::Other
                    };
                    href = None;
                    http_equiv = None;
                    content = None;
                    has_src = false;
                }
                Token::Attr { name, value } => match cur {
                    Cur::Anchor if name.eq_ignore_ascii_case("href") => {
                        href = Some(value.unwrap_or(""));
                    }
                    Cur::Meta if name.eq_ignore_ascii_case("http-equiv") => {
                        http_equiv = Some(value.unwrap_or(""));
                    }
                    Cur::Meta if name.eq_ignore_ascii_case("content") => {
                        content = Some(value.unwrap_or(""));
                    }
                    Cur::Script if name.eq_ignore_ascii_case("src") => has_src = true,
                    _ => {}
                },
                Token::OpenEnd { .. } => match cur {
                    Cur::Anchor => {
                        if let Some(v) = href {
                            out.anchor_hrefs.push(decode_entities(v).into_owned());
                        }
                    }
                    Cur::Meta => {
                        // First refresh meta that actually carries a url=
                        // wins, exactly like the DOM walk.
                        if out.meta_refresh.is_none() {
                            let is_refresh = http_equiv
                                .map(|v| decode_entities(v).eq_ignore_ascii_case("refresh"))
                                .unwrap_or(false);
                            if is_refresh {
                                if let Some(c) = content {
                                    let c = decode_entities(c);
                                    if let Some(idx) = c.to_ascii_lowercase().find("url=") {
                                        out.meta_refresh = Some(c[idx + 4..].trim().to_string());
                                    }
                                }
                            }
                        }
                    }
                    Cur::Script | Cur::Other => {}
                },
                // The tokenizer emits a raw-text body straight after the
                // `OpenEnd` of its <script>/<style> (never after `/>`), so
                // `cur` and `has_src` still describe that element.
                Token::RawText(body) => {
                    if cur == Cur::Script && !has_src && !body.trim().is_empty() {
                        out.inline_scripts.push(body.to_string());
                    }
                }
                Token::Text(_) | Token::Close(_) | Token::Comment(_) | Token::Doctype(_) => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    /// The three signals via the DOM path, for comparison.
    fn via_dom(html: &str) -> PageScan {
        let doc = Document::parse(html);
        PageScan {
            anchor_hrefs: doc.anchor_urls(),
            meta_refresh: doc.meta_refresh_url(),
            inline_scripts: doc.inline_scripts(),
        }
    }

    #[test]
    fn matches_dom_on_representative_page() {
        let page = r#"
          <html><head>
            <meta http-equiv="refresh" content="0; URL=https://next.example/hop">
            <meta http-equiv="refresh" content="ignored; second refresh loses">
          </head><body>
            <A HREF="https://evil.example/dhfYWfH">continue</A>
            <a href="/relative?a=1&amp;b=2">rel</a>
            <a href>bare</a>
            <a name=anchor-no-href>skip</a>
            <script>location.href = 'https://evil.example/js';</script>
            <script src="https://cdn.example/fp.js"></script>
            <script>   </script>
            <style>a { color: red }</style>
          </body></html>
        "#;
        let scan = PageScan::of(page);
        assert_eq!(scan, via_dom(page));
        assert_eq!(
            scan.anchor_hrefs,
            ["https://evil.example/dhfYWfH", "/relative?a=1&b=2", ""]
        );
        assert_eq!(
            scan.meta_refresh.as_deref(),
            Some("https://next.example/hop")
        );
        assert_eq!(scan.inline_scripts.len(), 1);
        assert!(scan.inline_scripts[0].contains("evil.example/js"));
    }

    #[test]
    fn matches_dom_on_edge_cases() {
        for html in [
            "",
            "<a href=x href=y>last wins</a>",
            "<a href='q&amp;r'></a><a href=\"unterminated",
            "<meta http-equiv=REFRESH content='5; url= https://pad.example '>",
            "<meta http-equiv=refresh><meta http-equiv=refresh content='1;url=https://late.example'>",
            "<script>first</script><p>x</p><script>second</script>",
            "<script src=ext.js>shadowed body</script>",
            "<script/>selfclosed<a href=after></a>",
            "<script>unterminated body <a href=not-a-link>",
            "<SCRIPT>if (a < b) { go('</scr'+'ipt>'); }</SCRIPT>",
            "<!-- <a href=commented></a> --><a href=real></a>",
            "<div><a href=nested><span><a href=deeper></a></span></a></div>",
            "<1b<a href=soup>weird</a>",
            "<!--><a href=\"https://x.example/\">x</a>",
            "<!---><a href=y>z</a>",
        ] {
            assert_eq!(PageScan::of(html), via_dom(html), "html: {html:?}");
        }
    }

    #[test]
    fn matches_dom_on_fuzzed_soup() {
        // Same LCG idiom as the parser's differential fuzz: random atom
        // concatenations, heavy on the extraction-relevant tags.
        let atoms: &[&str] = &[
            "<a href=",
            "<a href=\"https://x.example/p?a=1&amp;b=2\">",
            "<A HREF='/r'>",
            "</a>",
            "<meta http-equiv=refresh ",
            "content=\"3; url=https://m.example/\">",
            "<meta>",
            "<script>",
            "</script>",
            "<script src=/x.js>",
            "var a = '</scr';",
            "url=",
            "text ",
            "&amp;",
            "<div>",
            "</div>",
            "<",
            ">",
            "\"",
            "'",
            "=",
            "/>",
            " ",
            "<!-- c -->",
            "<!doctype html>",
            "\u{e9}",
        ];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..400 {
            let len = 1 + next() % 14;
            let mut html = String::new();
            for _ in 0..len {
                html.push_str(atoms[next() % atoms.len()]);
            }
            assert_eq!(
                PageScan::of(&html),
                via_dom(&html),
                "round {round}: {html:?}"
            );
        }
    }
}
