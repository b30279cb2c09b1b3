//! Pre-zero-copy parser implementations, kept verbatim as differential
//! oracles.
//!
//! These are the owned, allocate-per-line parsers that
//! [`HeaderMap::parse`], [`ContentType::parse`] and [`MimeEntity::parse`]
//! shipped with before the span-based rewrite (see [`crate::view`]). They
//! must not be "improved": their value is bit-for-bit behavioural identity
//! with the historical implementation, which the equivalence tests in
//! `view.rs` and `tests/substrates.rs` assert against the new parsers.

use crate::codec;
use crate::content_type::ContentType;
use crate::content_type::MediaType;
use crate::header::{HeaderMap, ParseHeaderError};
use crate::message::{MimeBody, MimeEntity, ParseMessageError, MAX_DEPTH};
use std::collections::BTreeMap;

fn is_valid_field_name_byte(b: u8) -> bool {
    // RFC 5322 ftext: printable US-ASCII except ':'
    (0x21..=0x7e).contains(&b) && b != b':'
}

/// The original `HeaderMap::parse`: line-splits the block, allocating each
/// field's name and value eagerly.
pub fn parse_header_block(block: &str) -> Result<HeaderMap, ParseHeaderError> {
    let mut fields: Vec<(String, String)> = Vec::new();
    for (idx, line) in block.split("\r\n").flat_map(|l| l.split('\n')).enumerate() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            // continuation of previous field
            match fields.last_mut() {
                Some((_, value)) => {
                    value.push(' ');
                    value.push_str(line.trim_start());
                }
                None => return Err(ParseHeaderError::LeadingContinuation),
            }
            continue;
        }
        let colon = line
            .find(':')
            .ok_or(ParseHeaderError::MissingColon { line: idx })?;
        let (name, rest) = line.split_at(colon);
        if name.is_empty() {
            return Err(ParseHeaderError::MissingColon { line: idx });
        }
        if let Some(&bad) = name
            .bytes()
            .collect::<Vec<_>>()
            .iter()
            .find(|b| !is_valid_field_name_byte(**b))
        {
            return Err(ParseHeaderError::InvalidFieldName {
                line: idx,
                byte: bad,
            });
        }
        fields.push((name.to_string(), rest[1..].trim().to_string()));
    }
    Ok(fields.into_iter().collect())
}

/// The original `ContentType::parse`: eager lowercasing and parameter-map
/// construction.
pub fn parse_content_type(value: &str) -> ContentType {
    let mut parts = value.split(';');
    let mime = parts.next().unwrap_or("").trim();
    let (top, sub) = match mime.split_once('/') {
        Some((t, s)) if !t.is_empty() && !s.is_empty() => {
            (t.trim().to_ascii_lowercase(), s.trim().to_ascii_lowercase())
        }
        _ => ("text".to_string(), "plain".to_string()),
    };
    let mut params = BTreeMap::new();
    for p in parts {
        if let Some((k, v)) = p.split_once('=') {
            let key = k.trim().to_ascii_lowercase();
            let val = v.trim().trim_matches('"').to_string();
            if !key.is_empty() {
                params.insert(key, val);
            }
        }
    }
    ContentType { top, sub, params }
}

/// The original header/body split (double substring search).
pub fn split_header_body(raw: &str) -> (&str, &str) {
    let crlf = raw.find("\r\n\r\n").map(|p| (p, 4));
    let lf = raw.find("\n\n").map(|p| (p, 2));
    let best = match (crlf, lf) {
        (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
        (a, b) => a.or(b),
    };
    match best {
        Some((pos, len)) => (&raw[..pos], &raw[pos + len..]),
        None => (raw, ""),
    }
}

/// The original multipart splitter: builds the `--boundary` delimiter
/// strings per entity and compares line-by-line.
pub fn split_multipart<'a>(body: &'a str, boundary: &str) -> Vec<&'a str> {
    let delim = format!("--{boundary}");
    let close = format!("--{boundary}--");
    let mut parts = Vec::new();
    let mut cursor = 0usize;
    let mut in_part: Option<usize> = None;
    // Walk line starts to find delimiter lines exactly.
    let bytes = body.as_bytes();
    while cursor <= body.len() {
        let line_end = body[cursor..]
            .find('\n')
            .map(|p| cursor + p)
            .unwrap_or(body.len());
        // RFC 2046 §5.1.1 allows transport padding (trailing whitespace)
        // after the boundary delimiter.
        let line = body[cursor..line_end].trim_end_matches(['\r', ' ', '\t']);
        let is_close = line == close;
        let is_delim = line == delim || is_close;
        if is_delim {
            if let Some(start) = in_part {
                let mut end = cursor;
                if end >= 1 && bytes[end - 1] == b'\n' {
                    end -= 1;
                    if end >= 1 && bytes[end - 1] == b'\r' {
                        end -= 1;
                    }
                }
                parts.push(&body[start..end.max(start)]);
            }
            in_part = if is_close { None } else { Some(line_end + 1) };
            if is_close {
                break;
            }
        }
        if line_end == body.len() {
            break;
        }
        cursor = line_end + 1;
    }
    // Unterminated final part (missing close delimiter): be lenient.
    if let Some(start) = in_part {
        if start <= body.len() {
            parts.push(body[start..].trim_end_matches(['\r', '\n']));
        }
    }
    parts
}

fn decode_transfer(body: &str, encoding: &str) -> Vec<u8> {
    match encoding.trim().to_ascii_lowercase().as_str() {
        "base64" => codec::base64_decode(body).unwrap_or_else(|_| body.as_bytes().to_vec()),
        "quoted-printable" => codec::quoted_printable_decode(body),
        _ => body.as_bytes().to_vec(),
    }
}

/// The original `MimeEntity::parse`: owned recursive descent allocating a
/// header map, content-type map, and part list per entity.
pub fn parse_message(raw: &str) -> Result<MimeEntity, ParseMessageError> {
    parse_at_depth(raw, 0)
}

fn parse_at_depth(raw: &str, depth: usize) -> Result<MimeEntity, ParseMessageError> {
    if depth > MAX_DEPTH {
        return Err(ParseMessageError::TooDeep);
    }
    let (header_block, body_text) = split_header_body(raw);
    let headers = parse_header_block(header_block)?;
    let ct = headers
        .get("Content-Type")
        .map(parse_content_type)
        .unwrap_or_default();

    let body = if ct.media_type() == MediaType::Multipart {
        let boundary = ct.boundary().ok_or(ParseMessageError::MissingBoundary)?;
        let mut children = Vec::new();
        for part in split_multipart(body_text, boundary) {
            children.push(parse_at_depth(part, depth + 1)?);
        }
        MimeBody::Multipart(children)
    } else {
        let decoded = decode_transfer(
            body_text,
            headers.get("Content-Transfer-Encoding").unwrap_or("7bit"),
        );
        MimeBody::Leaf(decoded)
    };
    Ok(MimeEntity { headers, body })
}
