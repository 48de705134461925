//! TBQL lexer.

use crate::error::{Span, TbqlError};
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`proc`, `p1`, `read`, …).
    Ident(String),
    /// Double-quoted string literal (unescaped content).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `||`
    OrOr,
    /// `&&`
    AndAnd,
    /// `~>`
    PathArrow,
    /// `~`
    Tilde,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Eq => f.write_str("`=`"),
            Tok::Ne => f.write_str("`!=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::OrOr => f.write_str("`||`"),
            Tok::AndAnd => f.write_str("`&&`"),
            Tok::PathArrow => f.write_str("`~>`"),
            Tok::Tilde => f.write_str("`~`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Its span.
    pub span: Span,
}

/// Lexes a query into tokens (plus a trailing [`Tok::Eof`]).
///
/// `//` comments run to end of line; whitespace separates tokens.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, TbqlError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    // `i` stays on a char boundary: every step advances by whole chars,
    // so a non-ASCII byte is never read as a char of its own.
    while let Some(c) = src[i..].chars().next() {
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        let tok = match c {
            '[' => {
                i += 1;
                Tok::LBracket
            }
            ']' => {
                i += 1;
                Tok::RBracket
            }
            '(' => {
                i += 1;
                Tok::LParen
            }
            ')' => {
                i += 1;
                Tok::RParen
            }
            ',' => {
                i += 1;
                Tok::Comma
            }
            '.' => {
                i += 1;
                Tok::Dot
            }
            '=' => {
                i += 1;
                Tok::Eq
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Ne
                } else {
                    return Err(TbqlError::new(Span::new(i, i + 1), "expected `!=`"));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Le
                } else {
                    i += 1;
                    Tok::Lt
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Ge
                } else {
                    i += 1;
                    Tok::Gt
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    i += 2;
                    Tok::OrOr
                } else {
                    return Err(TbqlError::new(Span::new(i, i + 1), "expected `||`"));
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    i += 2;
                    Tok::AndAnd
                } else {
                    return Err(TbqlError::new(Span::new(i, i + 1), "expected `&&`"));
                }
            }
            '~' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    i += 2;
                    Tok::PathArrow
                } else {
                    i += 1;
                    Tok::Tilde
                }
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(TbqlError::new(
                                Span::new(start, i),
                                "unterminated string literal",
                            ))
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            // Escapes: \" \\ \n \t
                            match bytes.get(i + 1) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                _ => {
                                    let esc = src[i + 1..].chars().next();
                                    return Err(TbqlError::new(
                                        Span::new(i, i + 1 + esc.map_or(0, char::len_utf8)),
                                        format!("unknown string escape `\\{}`", esc.unwrap_or(' ')),
                                    ));
                                }
                            }
                            i += 2;
                        }
                        Some(&b) => {
                            // Multi-byte UTF-8 is copied as-is.
                            let ch_len = utf8_len(b);
                            s.push_str(&src[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                Tok::Str(s)
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text.parse().map_err(|_| {
                    TbqlError::new(
                        Span::new(start, i),
                        format!("integer `{text}` out of range"),
                    )
                })?;
                Tok::Int(v)
            }
            c if c.is_alphabetic() || c == '_' => {
                let rest = &src[i..];
                i += rest
                    .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                Tok::Ident(src[start..i].to_string())
            }
            other => {
                return Err(TbqlError::new(
                    Span::new(i, i + other.len_utf8()),
                    format!("unexpected character `{other}`"),
                ))
            }
        };
        out.push(SpannedTok {
            tok,
            span: Span::new(start, i),
        });
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        span: Span::new(src.len(), src.len()),
    });
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn fig2_first_line() {
        let got = toks(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1"#);
        assert_eq!(
            got,
            vec![
                Tok::Ident("proc".into()),
                Tok::Ident("p1".into()),
                Tok::LBracket,
                Tok::Str("%/bin/tar%".into()),
                Tok::RBracket,
                Tok::Ident("read".into()),
                Tok::Ident("file".into()),
                Tok::Ident("f1".into()),
                Tok::LBracket,
                Tok::Str("%/etc/passwd%".into()),
                Tok::RBracket,
                Tok::Ident("as".into()),
                Tok::Ident("evt1".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn operators_and_path_syntax() {
        assert_eq!(
            toks("p ~>(2~4)[read] f"),
            vec![
                Tok::Ident("p".into()),
                Tok::PathArrow,
                Tok::LParen,
                Tok::Int(2),
                Tok::Tilde,
                Tok::Int(4),
                Tok::RParen,
                Tok::LBracket,
                Tok::Ident("read".into()),
                Tok::RBracket,
                Tok::Ident("f".into()),
                Tok::Eof,
            ]
        );
        assert_eq!(
            toks("a = 1 && b != 2 || c <= 3 >= < >"),
            vec![
                Tok::Ident("a".into()),
                Tok::Eq,
                Tok::Int(1),
                Tok::AndAnd,
                Tok::Ident("b".into()),
                Tok::Ne,
                Tok::Int(2),
                Tok::OrOr,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Int(3),
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_whitespace() {
        let got = toks("proc p1 // subject\n  read file f1");
        assert_eq!(got.len(), 6);
        assert_eq!(got[2], Tok::Ident("read".into()));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            toks(r#""a\"b\\c""#),
            vec![Tok::Str("a\"b\\c".into()), Tok::Eof]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("@").is_err());
        assert!(lex(r#""bad \q escape""#).is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn spans_track_source() {
        let lexed = lex("proc p1").unwrap();
        assert_eq!(lexed[0].span, Span::new(0, 4));
        assert_eq!(lexed[1].span, Span::new(5, 7));
    }
}
