//! Seeded property tests for the hand-rolled lexer.
//!
//! Two attack angles:
//!
//! 1. **Token soup** — arbitrary byte strings over a structure-rich
//!    alphabet (quotes, slashes, hashes, raw-prefix letters, escapes).
//!    The lexer must never panic, and its output must *cover* the
//!    input: every non-whitespace byte belongs to exactly one token, in
//!    order, and each token's line number must equal the number of
//!    newlines before it — checked against an independent count.
//! 2. **Round-trip** — render a stream of known-kind fragments
//!    (identifiers, numbers, every string flavour, chars, lifetimes,
//!    comments) and assert the lexer recovers exactly that kind
//!    sequence.
//!
//! Everything is seeded through `chainiq-devtest`'s `prop_check!`, so a
//! failure prints a `CHAINIQ_PROP_SEED=…` reproduction line.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test support code: a failed unwrap is the test failing"
)]

use chainiq_analyze::lexer::{lex, TokKind};
use chainiq_devtest::{prop_assert, prop_assert_eq, prop_check, Gen};

/// A byte from the soup alphabet: heavy on the characters that drive the
/// lexer's state machine.
fn soup_byte(g: &mut Gen) -> u8 {
    const ALPHABET: &[u8] = b"\"'/*#rbc\\\n aZ_019.:(){}<>!-+eE\t";
    ALPHABET[g.pick(ALPHABET.len())]
}

fn soup(g: &mut Gen) -> String {
    let bytes = g.vec(0..200, soup_byte);
    String::from_utf8(bytes).expect("alphabet is pure ASCII")
}

prop_check! {
    fn lexer_covers_arbitrary_soup_with_accurate_lines(g) {
        let src = soup(g);
        let toks = lex(&src);

        // Walk the source alongside the token stream: between tokens
        // only ASCII whitespace may appear, each token's text must match
        // the source exactly at its position, and its recorded line must
        // agree with a newline count the lexer had no hand in.
        let b = src.as_bytes();
        let mut p = 0usize;
        let mut line = 1u32;
        for t in &toks {
            while p < b.len() && b[p].is_ascii_whitespace() && !src[p..].starts_with(t.text) {
                if b[p] == b'\n' {
                    line += 1;
                }
                p += 1;
            }
            prop_assert!(
                src[p..].starts_with(t.text),
                "token {:?} does not match source at byte {} of {:?}",
                t,
                p,
                src
            );
            prop_assert_eq!(t.line, line, "line drift at byte {} of {:?}", p, src);
            line += t.text.matches('\n').count() as u32;
            p += t.text.len();
        }
        while p < b.len() {
            prop_assert!(
                b[p].is_ascii_whitespace(),
                "byte {} ({:?}) of {:?} is covered by no token",
                p,
                b[p] as char,
                src
            );
            p += 1;
        }
    }

    fn lexing_is_deterministic(g) {
        let src = soup(g);
        prop_assert_eq!(lex(&src), lex(&src));
    }
}

/// One renderable fragment with its expected token kind(s).
fn fragment(g: &mut Gen) -> (String, Vec<TokKind>) {
    // Inner content alphabets avoid the construct's own terminator so
    // the expected-kind model stays trivially right; the soup property
    // above covers the adversarial cases.
    let word = |g: &mut Gen, n: usize| -> String {
        let letters = b"azHM_";
        (0..g.usize(1..n)).map(|_| letters[g.pick(letters.len())] as char).collect()
    };
    match g.pick(10) {
        0 => (word(g, 8), vec![TokKind::Ident]),
        1 => {
            let n = ["0", "42", "1.5", "1.0e-5", "0x_ffu32", "10"][g.pick(6)];
            (n.to_string(), vec![TokKind::Num])
        }
        2 => (format!("\"{} \\\"{}\\\" \"", word(g, 6), word(g, 6)), vec![TokKind::Str]),
        3 => (format!("r#\"{} \"quoted\" {}\"#", word(g, 6), word(g, 6)), vec![TokKind::Str]),
        4 => {
            let flavors = ["b", "c", "br#", "cr#"];
            let f = flavors[g.pick(flavors.len())];
            let close = if f.ends_with('#') { "\"#" } else { "\"" };
            (format!("{f}\"{}{close}", word(g, 6)), vec![TokKind::Str])
        }
        5 => (format!("'{}'", (b'a' + g.u8(0..26)) as char), vec![TokKind::Char]),
        6 => (format!("b'{}'", (b'a' + g.u8(0..26)) as char), vec![TokKind::Char]),
        7 => (format!("'{}", word(g, 6)), vec![TokKind::Lifetime]),
        8 => (format!("// {} {}\n", word(g, 6), word(g, 6)), vec![TokKind::LineComment]),
        _ => (format!("/* {} /* {} */ */", word(g, 6), word(g, 6)), vec![TokKind::BlockComment]),
    }
}

prop_check! {
    fn rendered_fragment_streams_round_trip(g) {
        let mut src = String::new();
        let mut expected = Vec::new();
        for _ in 0..g.usize(0..30) {
            let (text, kinds) = fragment(g);
            src.push_str(&text);
            // Separate fragments so adjacency cannot fuse them (`c` +
            // `"…"` would otherwise lex as a C-string).
            src.push(if g.bool() { ' ' } else { '\n' });
            expected.extend(kinds);
        }
        let got: Vec<TokKind> = lex(&src).iter().map(|t| t.kind).collect();
        prop_assert_eq!(got, expected, "kind stream drift for {:?}", src);
    }

    fn string_flavors_are_opaque_to_code_scanning(g) {
        // Whatever identifier we smuggle into any string flavour, it
        // must never surface as an Ident token.
        let name = ["HashMap", "Instant", "unwrap", "env"][g.pick(4)];
        let wrapped = match g.pick(6) {
            0 => format!("\"{name}\""),
            1 => format!("r\"{name}\""),
            2 => format!("r#\"{name}\"#"),
            3 => format!("b\"{name}\""),
            4 => format!("c\"{name}\""),
            _ => format!("cr#\"{name}\"#"),
        };
        let src = format!("let x = {wrapped};");
        let toks = lex(&src);
        prop_assert!(
            !toks.iter().any(|t| t.kind == TokKind::Ident && t.text == name),
            "{:?} leaked out of {:?}",
            name,
            src
        );
        prop_assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }
}
