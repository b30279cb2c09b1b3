//! Deterministic page rasterizer: DOM → screenshot bitmap.
//!
//! CrawlerBox screenshots every loaded page and classifies spear phishing
//! by visual similarity (§V-A). The rasterizer implements a simple block
//! layout — elements stack vertically, inputs render as light gray field
//! boxes, buttons as filled bars, headers as brand bands — which is enough
//! for lookalike login pages to hash close to their originals and for
//! different layouts to hash far apart. It honours inline
//! `background-color` styles and the document-level `hue-rotate` filter the
//! attackers inject (§V-C2 d).

use crate::dom::Document;
use crate::html::Node;
use cb_artifacts::{Bitmap, Rgb};
use std::collections::HashMap;

/// Vertical advance per rendered block row.
const ROW_H: usize = 14;
/// Left margin for content.
const MARGIN: usize = 8;

/// Parse `#rrggbb`, `#rgb`, or `rgb(r, g, b)` — entirely on borrowed
/// slices, with no intermediate `String`. Named colors are out of scope
/// and return `None`.
fn parse_color(s: &str) -> Option<Rgb> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix('#') {
        return match hex.len() {
            6 => {
                let v = u32::from_str_radix(hex, 16).ok()?;
                Some(Rgb::new((v >> 16) as u8, (v >> 8) as u8, v as u8))
            }
            3 => {
                let v = u32::from_str_radix(hex, 16).ok()?;
                let (r, g, b) = ((v >> 8) & 0xF, (v >> 4) & 0xF, v & 0xF);
                Some(Rgb::new((r * 17) as u8, (g * 17) as u8, (b * 17) as u8))
            }
            _ => None,
        };
    }
    let body = s.strip_prefix("rgb(")?.strip_suffix(')')?;
    let mut channels = body.split(',');
    let r = channels.next()?.trim().parse::<u8>().ok()?;
    let g = channels.next()?.trim().parse::<u8>().ok()?;
    let b = channels.next()?.trim().parse::<u8>().ok()?;
    if channels.next().is_some() {
        return None;
    }
    Some(Rgb::new(r, g, b))
}

/// Extract `background-color` from an inline style attribute.
fn style_bg(style: &str) -> Option<Rgb> {
    for decl in style.split(';') {
        let (k, v) = decl.split_once(':')?;
        if k.trim().eq_ignore_ascii_case("background-color") {
            return parse_color(v);
        }
    }
    None
}

/// Extract a `hue-rotate(Ndeg)` filter from a style attribute.
fn style_hue_rotate(style: &str) -> Option<f64> {
    let idx = style.find("hue-rotate(")?;
    let rest = &style[idx + "hue-rotate(".len()..];
    let end = rest.find(')')?;
    rest[..end]
        .trim()
        .trim_end_matches("deg")
        .trim()
        .parse()
        .ok()
}

/// Render `doc` to a `width`×`height` screenshot.
pub fn rasterize(doc: &Document, width: usize, height: usize) -> Bitmap {
    let mut img = Bitmap::new(width, height, Rgb::WHITE);
    let mut y = MARGIN;
    // Inline styles repeat heavily across a page (every input in a form,
    // every cell in a brand band tends to carry the identical attribute),
    // so background-color extraction is memoized per raster pass, keyed by
    // the borrowed style string.
    let mut bg_cache: HashMap<&str, Option<Rgb>> = HashMap::new();
    for root in doc.roots() {
        render_node(root, &mut img, &mut y, width, &mut bg_cache);
    }
    // Document-level filter: a hue-rotate style on <html> or <body> rotates
    // the final screenshot (the §V-C2(d) trick).
    for tag in ["html", "body"] {
        if let Some(style) = doc.elements(tag).first().and_then(|n| n.attr("style")) {
            if let Some(deg) = style_hue_rotate(style) {
                return img.hue_rotate(deg);
            }
        }
    }
    img
}

fn render_node<'a>(
    node: &'a Node,
    img: &mut Bitmap,
    y: &mut usize,
    width: usize,
    bg_cache: &mut HashMap<&'a str, Option<Rgb>>,
) {
    if *y >= img.height() {
        return;
    }
    match node {
        Node::Text(text) => {
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                img.draw_text(MARGIN, *y, trimmed, 1, Rgb::BLACK);
                *y += ROW_H;
            }
        }
        Node::Element {
            tag,
            attrs,
            children,
        } => {
            let bg = match attrs.get("style") {
                Some(style) => *bg_cache
                    .entry(style.as_str())
                    .or_insert_with(|| style_bg(style)),
                None => None,
            };
            match tag.as_str() {
                "script" | "style" | "head" | "title" | "meta" | "link" => {
                    // invisible; <head> children like <title> do not paint
                }
                "header" | "h1" | "h2" => {
                    let color = bg.unwrap_or(Rgb::new(0, 60, 180));
                    img.fill_rect(0, *y, width, ROW_H, color);
                    let label = node.text_content();
                    if !label.trim().is_empty() {
                        img.draw_text(MARGIN, *y + 3, label.trim(), 1, Rgb::WHITE);
                    }
                    *y += ROW_H + 4;
                }
                "input" => {
                    let is_button = matches!(
                        attrs.get("type").map(String::as_str),
                        Some("submit") | Some("button")
                    );
                    if is_button {
                        img.fill_rect(
                            MARGIN + 20,
                            *y,
                            width / 3,
                            ROW_H - 2,
                            bg.unwrap_or(Rgb::new(0, 60, 180)),
                        );
                    } else {
                        img.fill_rect(
                            MARGIN,
                            *y,
                            width - 2 * MARGIN,
                            ROW_H - 4,
                            bg.unwrap_or(Rgb::new(224, 224, 224)),
                        );
                    }
                    *y += ROW_H;
                }
                "button" => {
                    img.fill_rect(
                        MARGIN + 20,
                        *y,
                        width / 3,
                        ROW_H - 2,
                        bg.unwrap_or(Rgb::new(0, 60, 180)),
                    );
                    *y += ROW_H;
                }
                "img" => {
                    // placeholder box where the (possibly hotlinked) image sits
                    img.fill_rect(
                        MARGIN,
                        *y,
                        48,
                        ROW_H * 2 - 4,
                        bg.unwrap_or(Rgb::new(180, 190, 210)),
                    );
                    *y += ROW_H * 2;
                }
                "hr" => {
                    img.fill_rect(
                        MARGIN,
                        *y + ROW_H / 2,
                        width - 2 * MARGIN,
                        1,
                        Rgb::new(120, 120, 120),
                    );
                    *y += ROW_H / 2 + 2;
                }
                "br" => {
                    *y += ROW_H / 2;
                }
                _ => {
                    if let Some(color) = bg {
                        // colored block background sized by its content
                        let block_top = *y;
                        let mut inner_y = *y + 2;
                        for c in children {
                            render_node(c, img, &mut inner_y, width, bg_cache);
                        }
                        let block_h = (inner_y - block_top).max(ROW_H);
                        // paint behind: cheap approach — repaint band then content
                        img.fill_rect(0, block_top, width, 2, color);
                        img.fill_rect(0, block_top + block_h - 2, width, 2, color);
                        *y = inner_y + 2;
                        return;
                    }
                    for c in children {
                        render_node(c, img, y, width, bg_cache);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_imagehash::HashPair;

    const LOGIN: &str = r#"
      <html><body>
        <header>Corp Portal</header>
        <img src="https://corp.example/logo.png">
        <form action="/collect">
          <input type="text" name="u">
          <input type="password" name="p">
          <input type="submit" value="Sign in">
        </form>
      </body></html>
    "#;

    #[test]
    fn render_is_deterministic() {
        let doc = Document::parse(LOGIN);
        assert_eq!(rasterize(&doc, 320, 200), rasterize(&doc, 320, 200));
    }

    #[test]
    fn lookalike_hashes_close_to_original() {
        let original = rasterize(&Document::parse(LOGIN), 320, 200);
        // attacker page: same structure, extra noise text at the bottom
        let lookalike_html = LOGIN.replace("</body>", "<p>victim@corp.example</p></body>");
        let lookalike = rasterize(&Document::parse(&lookalike_html), 320, 200);
        let a = HashPair::of(&original);
        let b = HashPair::of(&lookalike);
        assert!(a.similar_to(&b, 12), "distance {}", a.distance(&b));
    }

    #[test]
    fn different_page_hashes_far() {
        let login = rasterize(&Document::parse(LOGIN), 320, 200);
        let article = rasterize(
            &Document::parse(
                "<body><p>one</p><p>two</p><p>three</p><p>four</p><p>five</p><p>six</p><p>seven</p><p>eight</p></body>",
            ),
            320,
            200,
        );
        let a = HashPair::of(&login);
        let b = HashPair::of(&article);
        assert!(a.distance(&b) > 12, "distance {}", a.distance(&b));
    }

    #[test]
    fn hue_rotate_filter_applies() {
        let plain = rasterize(&Document::parse(LOGIN), 320, 200);
        let rotated_html = LOGIN.replace("<body>", r#"<body style="filter: hue-rotate(4deg)">"#);
        let rotated = rasterize(&Document::parse(&rotated_html), 320, 200);
        assert_ne!(plain, rotated, "pixels must differ");
        // but hashes survive (the paper's point)
        let a = HashPair::of(&plain);
        let b = HashPair::of(&rotated);
        assert!(a.similar_to(&b, 8), "distance {}", a.distance(&b));
    }

    #[test]
    fn color_parsing() {
        assert_eq!(parse_color("#ff0080"), Some(Rgb::new(255, 0, 128)));
        assert_eq!(parse_color("#fff"), Some(Rgb::new(255, 255, 255)));
        assert_eq!(parse_color("red"), None);
        assert_eq!(parse_color("rgb(255, 0, 128)"), Some(Rgb::new(255, 0, 128)));
        assert_eq!(parse_color(" rgb(1,2,3) "), Some(Rgb::new(1, 2, 3)));
        assert_eq!(parse_color("rgb(1,2)"), None);
        assert_eq!(parse_color("rgb(1,2,3,4)"), None);
        assert_eq!(parse_color("rgb(256,0,0)"), None);
        assert_eq!(
            style_bg("background-color: #102030; x: y"),
            Some(Rgb::new(0x10, 0x20, 0x30))
        );
        assert_eq!(
            style_bg("background-color: rgb(16, 32, 48)"),
            Some(Rgb::new(0x10, 0x20, 0x30))
        );
        assert_eq!(style_hue_rotate("filter: hue-rotate(4deg)"), Some(4.0));
        assert_eq!(style_hue_rotate("color: red"), None);
    }

    #[test]
    fn text_renders_at_margin() {
        let doc = Document::parse("<p>HELLO</p>");
        let img = rasterize(&doc, 120, 40);
        // glyph ink present at the margin
        let mut found = false;
        for y in 0..20 {
            for x in 0..60 {
                if img.get(x, y) == Rgb::BLACK {
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn head_content_is_invisible() {
        let with_head = rasterize(
            &Document::parse("<head><title>SECRET TITLE</title></head><body><p>X</p></body>"),
            200,
            60,
        );
        let without = rasterize(&Document::parse("<body><p>X</p></body>"), 200, 60);
        assert_eq!(with_head, without);
    }
}
