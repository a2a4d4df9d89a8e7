//! A tiny hand-rolled Rust lexer — just enough token structure for the
//! item parser ([`crate::parser`]).
//!
//! This is deliberately *not* a parser: its callers only need to know
//! whether a name like `HashMap` appears in *code* (as opposed to a
//! string literal or a comment), on which line it appears, and what its
//! immediate neighbours are (`.` before, `(` or `!` after). What the
//! lexer must get right, therefore, is the *boundaries* of the regions
//! it skips or classifies:
//!
//! * line comments (including `///` and `//!` doc comments),
//! * block comments with nesting (`/* /* */ */`),
//! * cooked strings with escapes (`"say \"hi\""`),
//! * raw strings with hash fences (`r#"…"#`), byte, byte-raw, C-string
//!   (`c"…"`) and raw C-string (`cr#"…"#`) literals,
//! * char literals vs. lifetimes (`'a'` vs. `'a`),
//! * numeric literals (so `0.iter` inside `1.0e-5` cannot confuse a
//!   rule).
//!
//! Everything else is an identifier or a one-byte punctuation token.

/// Token classes produced by [`lex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation byte (`::` is two `Punct(':')` tokens).
    Punct,
    /// String literal of any flavour: cooked, raw, byte, byte-raw.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime such as `'a` or `'static`.
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// `// …` to end of line, doc comments included.
    LineComment,
    /// `/* … */`, nesting-aware.
    BlockComment,
}

/// One token: its class, source text, and 1-based line of its first
/// character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: &'a str,
    /// 1-based line number where the token starts.
    pub line: u32,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenizes `src`. Unterminated constructs (a string or block comment
/// running to end of file) produce a final token covering the rest of
/// the input rather than an error — the parser degrades gracefully and
/// `cargo check` will have rejected such a file anyway.
#[must_use]
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let start = i;
        let start_line = line;
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::LineComment,
                    text: &src[start..i],
                    line: start_line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.push(Token {
                    kind: TokKind::BlockComment,
                    text: &src[start..i],
                    line: start_line,
                });
            }
            b'"' => {
                i = cooked_string_end(b, i, &mut line);
                out.push(Token { kind: TokKind::Str, text: &src[start..i], line: start_line });
            }
            b'\'' => {
                // Lifetime iff the next char starts an identifier and the
                // char after that is not a closing quote ('a' is a char
                // literal, 'a is a lifetime).
                let next = b.get(i + 1).copied().unwrap_or(0);
                if is_ident_start(next) && b.get(i + 2) != Some(&b'\'') {
                    i += 2;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    out.push(Token {
                        kind: TokKind::Lifetime,
                        text: &src[start..i],
                        line: start_line,
                    });
                } else {
                    i = char_literal_end(b, i, &mut line);
                    out.push(Token { kind: TokKind::Char, text: &src[start..i], line: start_line });
                }
            }
            _ if is_ident_start(c) => {
                // A raw/byte/C string or byte literal, else an identifier.
                let kind = if let Some((prefix, literal_start)) = raw_or_byte_prefix(b, i) {
                    i = match prefix {
                        PrefixKind::Raw => raw_string_end(b, literal_start, &mut line),
                        PrefixKind::CookedStr => cooked_string_end(b, literal_start, &mut line),
                        PrefixKind::CharLit => char_literal_end(b, literal_start, &mut line),
                    };
                    if prefix == PrefixKind::CharLit {
                        TokKind::Char
                    } else {
                        TokKind::Str
                    }
                } else {
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    TokKind::Ident
                };
                out.push(Token { kind, text: &src[start..i], line: start_line });
            }
            _ if c.is_ascii_digit() => {
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if is_ident_continue(d) {
                        i += 1;
                    } else if d == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        // Consume the dot of `1.5` but not of `1..5` or
                        // `0.iter()`.
                        i += 1;
                    } else if (d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                    {
                        // Exponent sign of `1e-5`.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token { kind: TokKind::Num, text: &src[start..i], line: start_line });
            }
            _ => {
                i += 1;
                out.push(Token { kind: TokKind::Punct, text: &src[start..i], line: start_line });
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrefixKind {
    /// `r"…"`, `r#"…"#`, `br"…"`, `br#"…"#`, `cr"…"`, `cr#"…"#` — starts
    /// at the first `#` or the quote.
    Raw,
    /// `b"…"` / `c"…"` — a cooked byte or C string, starts at the quote.
    CookedStr,
    /// `b'…'` — a byte literal, starts at the quote.
    CharLit,
}

/// If position `i` begins a raw/byte/C string or byte literal, returns
/// its kind and the index of the fence (`#` or quote). Returns `None`
/// for a plain identifier that merely starts with `r`, `b` or `c` (so
/// `crate`, whose first two bytes look like a raw-C-string prefix, stays
/// an identifier).
fn raw_or_byte_prefix(b: &[u8], i: usize) -> Option<(PrefixKind, usize)> {
    match b[i] {
        b'r' => match b.get(i + 1) {
            Some(&b'"') | Some(&b'#') if raw_fence_ok(b, i + 1) => Some((PrefixKind::Raw, i + 1)),
            _ => None,
        },
        b'b' | b'c' => match b.get(i + 1) {
            Some(&b'"') => Some((PrefixKind::CookedStr, i + 1)),
            Some(&b'\'') if b[i] == b'b' => Some((PrefixKind::CharLit, i + 1)),
            Some(&b'r') => match b.get(i + 2) {
                Some(&b'"') | Some(&b'#') if raw_fence_ok(b, i + 2) => {
                    Some((PrefixKind::Raw, i + 2))
                }
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// From a position at `#`* or `"`, checks the hashes are followed by a
/// quote (so `r#foo` raw identifiers are not mistaken for raw strings).
fn raw_fence_ok(b: &[u8], mut i: usize) -> bool {
    while b.get(i) == Some(&b'#') {
        i += 1;
    }
    b.get(i) == Some(&b'"')
}

/// Scans a cooked string starting at its opening quote; returns the index
/// one past the closing quote.
fn cooked_string_end(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            // Clamp: a backslash as the very last byte must not step past
            // the end (the returned index is used to slice the source).
            // An escaped newline (line continuation) still ends a line.
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i = (i + 2).min(b.len());
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans a char/byte literal starting at its opening quote; returns the
/// index one past the closing quote.
fn char_literal_end(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i = (i + 2).min(b.len());
            }
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans a raw string from its fence (`#`* then `"`); returns the index
/// one past the closing fence.
fn raw_string_end(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote, checked by raw_fence_ok
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"'
            && b[i + 1..].len() >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(
            kinds("let x = map.iter();"),
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x"),
                (TokKind::Punct, "="),
                (TokKind::Ident, "map"),
                (TokKind::Punct, "."),
                (TokKind::Ident, "iter"),
                (TokKind::Punct, "("),
                (TokKind::Punct, ")"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn string_content_is_not_code() {
        let toks = kinds(r#"let s = "HashMap::new() // not code";"#);
        assert!(toks.iter().all(|(_, t)| !t.contains("HashMap") || *t != "HashMap"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = kinds(r#"let s = "say \"HashMap\""; let t = 1;"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && *t == "1"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds(r###"let s = r#"a "quoted" HashMap"#; let n = 2;"###);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "HashMap"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && *t == "2"));
    }

    #[test]
    fn byte_and_byte_raw_strings() {
        let toks = kinds(r#"let a = b"bytes"; let b2 = br"raw"; let c = b'x';"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn c_strings_are_strings_not_code() {
        // A HashMap inside a c-string must classify as Str, not scan as
        // code (it would be a false T1 taint source otherwise).
        let toks = kinds(r##"let a = c"HashMap bytes\0"; let b = cr#"raw "c" HashMap"#;"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2, "{toks:?}");
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "HashMap"));
    }

    #[test]
    fn cr_prefix_without_fence_is_an_identifier() {
        let toks = kinds("crate::foo(cr8, c)");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "crate"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "cr8"));
        assert!(toks.iter().all(|(k, _)| *k != TokKind::Str));
    }

    #[test]
    fn c_followed_by_char_literal_is_not_a_byte_literal() {
        let toks = kinds("let c = 'x'; f(c, 'y')");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "c"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = kinds("let r#type = 1; br#ident");
        assert!(toks.iter().all(|(k, _)| *k != TokKind::Str));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Ident).map(|(_, t)| *t).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::BlockComment).count(), 1);
    }

    #[test]
    fn line_comments_and_doc_comments() {
        let toks = kinds("/// doc with HashMap\n//! inner doc\nfn f() {} // trailing");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::LineComment).count(), 3);
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "HashMap"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let nl = '\\n'; let q = '\\''; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 3);
    }

    #[test]
    fn multiline_string_advances_line_numbers() {
        let toks = lex("let s = \"line one\nline two\";\nfn f() {}");
        let f = toks.iter().find(|t| t.text == "fn").expect("fn token present");
        assert_eq!(f.line, 3);
    }

    #[test]
    fn numeric_literals_do_not_eat_method_calls() {
        let toks = kinds("let x = 1.0e-5; let y = 0..10; let z = 3.max(4);");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && *t == "1.0e-5"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "max"));
        assert!(toks.iter().filter(|(k, t)| *k == TokKind::Num && *t == "10").count() == 1);
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let toks = lex("let s = \"never closed");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokKind::Str));
    }

    #[test]
    fn escaped_newline_in_string_still_counts_the_line() {
        // Also found by the fuzz suite: `\` + newline (a line
        // continuation) was consumed by the escape fast-path without
        // bumping the line counter.
        let toks = lex("let s = \"a\\\nb\";\nfn f() {}");
        let f = toks.iter().find(|t| t.text == "fn").expect("fn token present");
        assert_eq!(f.line, 3);
    }

    #[test]
    fn trailing_backslash_in_unterminated_literals_does_not_panic() {
        // Found by the seeded fuzz suite: the escape fast-path used to
        // step two bytes past a backslash even at end of input, and the
        // resulting index sliced out of bounds.
        assert_eq!(lex("\"abc\\").last().map(|t| t.kind), Some(TokKind::Str));
        assert_eq!(lex("'\\").last().map(|t| t.kind), Some(TokKind::Char));
        assert_eq!(lex("b'\\").last().map(|t| t.kind), Some(TokKind::Char));
    }

    #[test]
    fn unterminated_block_comment_does_not_panic() {
        let toks = lex("a /* runs off the end");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokKind::BlockComment));
    }
}
