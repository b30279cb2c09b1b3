//! MJS tokenizer.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (f64 semantics like JS).
    Number(f64),
    /// String literal (single- or double-quoted, `\\`-escapes).
    Str(String),
    /// `var` / `let`.
    Var,
    /// `if`.
    If,
    /// `else`.
    Else,
    /// `while`.
    While,
    /// `true`.
    True,
    /// `false`.
    False,
    /// `null` / `undefined`.
    Null,
    /// `debugger`.
    Debugger,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `;`.
    Semi,
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `=`.
    Assign,
    /// `==` (and `===`, treated identically).
    Eq,
    /// `!=` (and `!==`).
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `!`.
    Not,
    /// `&&`.
    And,
    /// `||`.
    Or,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize MJS source. `//` line comments and `/* */` block comments are
/// skipped.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            at: start,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'"' | b'\'' => {
                let quote = b;
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            at: start,
                            message: "unterminated string".into(),
                        });
                    }
                    let c = bytes[i];
                    if c == quote {
                        i += 1;
                        break;
                    }
                    if c == b'\\' {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'n') => {
                                s.push('\n');
                                i += 1;
                            }
                            Some(b't') => {
                                s.push('\t');
                                i += 1;
                            }
                            Some(b'r') => {
                                s.push('\r');
                                i += 1;
                            }
                            Some(_) => {
                                // any other escaped character passes through
                                // verbatim (may be multi-byte UTF-8)
                                let ch = src[i..].chars().next().expect("in-bounds char");
                                s.push(ch);
                                i += ch.len_utf8();
                            }
                            None => {
                                return Err(LexError {
                                    at: start,
                                    message: "unterminated escape".into(),
                                })
                            }
                        }
                    } else {
                        // pass through UTF-8 bytes verbatim
                        let ch_len = utf8_len(c);
                        s.push_str(&src[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                out.push(Token::Str(s));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &src[start..i];
                let n = text.parse::<f64>().map_err(|_| LexError {
                    at: start,
                    message: format!("bad number literal {text:?}"),
                })?;
                out.push(Token::Number(n));
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' | b'$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                out.push(match &src[start..i] {
                    "var" | "let" | "const" => Token::Var,
                    "if" => Token::If,
                    "else" => Token::Else,
                    "while" => Token::While,
                    "true" => Token::True,
                    "false" => Token::False,
                    "null" | "undefined" => Token::Null,
                    "debugger" => Token::Debugger,
                    ident => Token::Ident(ident.to_string()),
                });
            }
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b'{' => {
                out.push(Token::LBrace);
                i += 1;
            }
            b'}' => {
                out.push(Token::RBrace);
                i += 1;
            }
            b';' => {
                out.push(Token::Semi);
                i += 1;
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b'.' => {
                out.push(Token::Dot);
                i += 1;
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += if bytes.get(i + 2) == Some(&b'=') {
                        3
                    } else {
                        2
                    };
                    out.push(Token::Eq);
                } else {
                    out.push(Token::Assign);
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += if bytes.get(i + 2) == Some(&b'=') {
                        3
                    } else {
                        2
                    };
                    out.push(Token::Ne);
                } else {
                    out.push(Token::Not);
                    i += 1;
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            b'+' => {
                out.push(Token::Plus);
                i += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                i += 1;
            }
            b'*' => {
                out.push(Token::Star);
                i += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                i += 1;
            }
            b'%' => {
                out.push(Token::Percent);
                i += 1;
            }
            b'&' if bytes.get(i + 1) == Some(&b'&') => {
                out.push(Token::And);
                i += 2;
            }
            b'|' if bytes.get(i + 1) == Some(&b'|') => {
                out.push(Token::Or);
                i += 2;
            }
            other => {
                return Err(LexError {
                    at: i,
                    message: format!("unexpected character {:?}", other as char),
                })
            }
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_idents() {
        let t = lex("var x = navigator").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Var,
                Token::Ident("x".into()),
                Token::Assign,
                Token::Ident("navigator".into())
            ]
        );
    }

    #[test]
    fn let_and_const_fold_to_var() {
        assert_eq!(lex("let a; const b;").unwrap()[0], Token::Var);
        assert_eq!(lex("const b;").unwrap()[0], Token::Var);
    }

    #[test]
    fn strings_with_escapes() {
        let t = lex(r#"'a\'b' "c\nd""#).unwrap();
        assert_eq!(t, vec![Token::Str("a'b".into()), Token::Str("c\nd".into())]);
    }

    #[test]
    fn unicode_string_content() {
        let t = lex("\"héllo ✓\"").unwrap();
        assert_eq!(t, vec![Token::Str("héllo ✓".into())]);
    }

    #[test]
    fn numbers() {
        let t = lex("0 42 3.25").unwrap();
        assert_eq!(
            t,
            vec![Token::Number(0.0), Token::Number(42.0), Token::Number(3.25)]
        );
    }

    #[test]
    fn comparison_operators() {
        let t = lex("a == b != c === d !== e <= >= < >").unwrap();
        assert!(t.contains(&Token::Eq));
        assert!(t.contains(&Token::Ne));
        assert_eq!(t.iter().filter(|t| **t == Token::Eq).count(), 2);
        assert_eq!(t.iter().filter(|t| **t == Token::Ne).count(), 2);
    }

    #[test]
    fn comments_are_skipped() {
        let t = lex("a // line comment\n/* block\ncomment */ b").unwrap();
        assert_eq!(t, vec![Token::Ident("a".into()), Token::Ident("b".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let e = lex("a ~ b").unwrap_err();
        assert!(e.message.contains("unexpected"));
    }

    #[test]
    fn logical_operators() {
        let t = lex("a && b || !c").unwrap();
        assert!(t.contains(&Token::And));
        assert!(t.contains(&Token::Or));
        assert!(t.contains(&Token::Not));
    }
}
