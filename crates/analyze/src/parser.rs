//! A hand-rolled *item* parser over the [`crate::lexer`] token stream —
//! just enough structure for the workspace call graph.
//!
//! This is still not a full Rust parser. It recovers exactly the facts
//! the flow rules ([`crate::flows`]) need:
//!
//! * `fn` definitions — name, line, visibility, the enclosing `impl` /
//!   `trait` block (self-type and trait names), test/hot markers;
//! * call expressions inside each function body — free calls
//!   (`helper(…)`), method calls (`x.step(…)`), and path-qualified calls
//!   (`Type::assoc(…)`, turbofish included), with `use … as …` aliases
//!   resolved back to their original names;
//! * per-body **facts**: allocation sites ([`ALLOC_METHODS`],
//!   [`ALLOC_PATHS`], `vec!` and `format!`) and determinism-taint
//!   sources (`std::time`/`Instant`/`SystemTime`, `env::var*`,
//!   `HashMap`/`HashSet`, `thread::current`).
//!
//! Everything it cannot parse it skips without error: an unrecognized
//! item contributes no functions and no edges, which keeps the analysis
//! conservative-but-lossy rather than wrong. Comments are ignored, and
//! items gated by `#[cfg(test)]` or `#[test]` are skipped whole: test
//! code is exempt from every rule.
//!
//! The same walk yields the file's per-file findings: A0 for malformed
//! marker comments and P3 for tree maps in a `hot-path` file.

use crate::lexer::{lex, TokKind, Token};
use crate::rules::{self, Diagnostic, Markers, RuleId};
use std::collections::BTreeMap;

/// Everything the parser recovered from one source file.
#[derive(Debug)]
pub(crate) struct FileItems {
    /// Crate directory name under `crates/`.
    pub(crate) crate_name: String,
    /// Workspace-relative path, as used in diagnostics.
    pub(crate) file: String,
    /// Whether this is a binary target (never a T1 sink).
    pub(crate) is_bin: bool,
    /// Functions defined in the file, in source order.
    pub(crate) fns: Vec<FnItem>,
    /// The file's marker comments (suppressions, hot markers).
    pub(crate) markers: Markers,
    /// Per-file findings: A0 and P3.
    pub(crate) diags: Vec<Diagnostic>,
}

/// One `fn` definition.
#[derive(Debug)]
pub(crate) struct FnItem {
    /// The function's bare name.
    pub(crate) name: String,
    /// 1-based line of the `fn` keyword.
    pub(crate) line: u32,
    /// Self-type name of the enclosing `impl` block, if any.
    pub(crate) impl_ty: Option<String>,
    /// Trait name, for methods of `impl Trait for …` and `trait …` blocks.
    pub(crate) trait_name: Option<String>,
    /// Defined inside an `impl` or `trait` block → method-call candidate.
    pub(crate) in_container: bool,
    /// Carries a `pub` (any form: `pub`, `pub(crate)`, …).
    pub(crate) is_pub: bool,
    /// Carries the `hot` kernel marker comment.
    pub(crate) is_hot: bool,
    /// Call expressions in the body.
    pub(crate) calls: Vec<Call>,
    /// Allocation facts in the body (the H2 family).
    pub(crate) allocs: Vec<Fact>,
    /// Determinism-taint source facts in the body (the T1 family).
    pub(crate) taints: Vec<Fact>,
}

/// One call expression.
#[derive(Debug)]
pub(crate) struct Call {
    /// Callee name, `use … as …` aliases resolved.
    pub(crate) name: String,
    /// How the call site is shaped, which drives candidate resolution.
    pub(crate) kind: CallKind,
}

/// Call-site shape.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `name(…)` — resolves to free functions.
    Free,
    /// `x.name(…)`, or a qualified call whose qualifier is opaque
    /// (`<T as Trait>::name(…)`) — resolves to every method candidate.
    Method,
    /// `Qual::name(…)` with an identifier qualifier: methods of impls on
    /// `Qual`, falling back to free functions (module-qualified calls).
    Qualified(String),
}

/// A line-anchored body fact (allocation or taint source).
#[derive(Debug)]
pub(crate) struct Fact {
    /// Human-readable description of the offending construct.
    pub(crate) what: String,
    /// 1-based source line.
    pub(crate) line: u32,
}

/// Rust keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "Self", "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else",
    "enum", "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod",
    "move", "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Method-style allocation names (preceded by `.`, followed by a call).
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_owned", "to_string", "to_vec"];

/// Path-style allocating constructors, as `(type, associated fn)`.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "from"),
    ("Box", "new"),
    ("String", "from"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
];

/// Parses one file. Never fails: unparseable constructs are skipped.
pub(crate) fn parse_file(crate_name: &str, file: &str, src: &str, is_bin: bool) -> FileItems {
    let toks = lex(src);
    let mut diags = Vec::new();
    let markers = rules::collect_markers(file, &toks, &mut diags);
    let code: Vec<Token<'_>> = toks
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    let test = vec![false; code.len()];
    let mut p = Parser { code, test, markers: &markers, aliases: BTreeMap::new(), fns: Vec::new() };
    p.collect_aliases();
    let end = p.code.len();
    p.parse_items(0, end, &Container::default(), None);

    // P3: tree maps anywhere outside test items of a hot-path file.
    for (t, _) in p.code.iter().zip(&p.test).filter(|&(_, &test)| markers.hot_path && !test) {
        if t.kind == TokKind::Ident
            && matches!(t.text, "BTreeMap" | "BTreeSet")
            && !markers.suppressed(RuleId::P3, t.line)
        {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: RuleId::P3,
                message: format!(
                    "{} in a hot-path-marked file: the kernel files were rebuilt on \
                     slab-intrusive lists, bitsets and event wheels — keep tree maps out of \
                     them (reference models belong in test code, which is exempt)",
                    t.text
                ),
            });
        }
    }

    FileItems {
        crate_name: crate_name.to_string(),
        file: file.to_string(),
        is_bin,
        fns: p.fns,
        markers,
        diags,
    }
}

/// The enclosing `impl` / `trait` context while walking items.
#[derive(Debug, Default, Clone)]
struct Container {
    impl_ty: Option<String>,
    trait_name: Option<String>,
    in_container: bool,
}

struct Parser<'a> {
    code: Vec<Token<'a>>,
    /// Tokens of skipped `#[cfg(test)]` / `#[test]` items.
    test: Vec<bool>,
    markers: &'a Markers,
    /// `use x::y as z;` → `z → y`.
    aliases: BTreeMap<String, String>,
    fns: Vec<FnItem>,
}

impl<'a> Parser<'a> {
    fn punct(&self, i: usize, p: &str) -> bool {
        self.code.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    }

    /// The ident text at `i`, borrowed from the *source* (not `self`),
    /// so callers can hold it across `&mut self` calls.
    fn ident(&self, i: usize) -> Option<&'a str> {
        self.code.get(i).and_then(|t| (t.kind == TokKind::Ident).then_some(t.text))
    }

    fn ident_is(&self, i: usize, s: &str) -> bool {
        self.ident(i) == Some(s)
    }

    /// Index just past the `close` matching the `open` at `at` (or the
    /// end of the stream for unbalanced input). For angle brackets, the
    /// `>` of a `->` arrow does not close.
    fn skip_group(&self, at: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut i = at;
        while let Some(t) = self.code.get(i) {
            if t.kind == TokKind::Punct {
                if t.text == open {
                    depth += 1;
                } else if t.text == close && !(close == ">" && self.punct(i.wrapping_sub(1), "-")) {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            i += 1;
        }
        i
    }

    fn skip_braces(&self, open: usize) -> usize {
        self.skip_group(open, "{", "}")
    }

    fn skip_angles(&self, open: usize) -> usize {
        self.skip_group(open, "<", ">")
    }

    /// Skips the run of attributes starting at the `#` at `at`; returns
    /// the index past it and whether one of them is `#[test]` or
    /// `#[cfg(test)]` (not `#[cfg(not(test))]`).
    fn skip_attrs(&self, mut at: usize) -> (usize, bool) {
        let mut gated = false;
        while self.punct(at, "#") {
            let open = if self.punct(at + 1, "!") { at + 2 } else { at + 1 };
            if !self.punct(open, "[") {
                return (open, gated);
            }
            let body: Vec<&str> = self.code[open + 1..].iter().take(5).map(|t| t.text).collect();
            gated |=
                body.starts_with(&["test", "]"]) || body.starts_with(&["cfg", "(", "test", ")"]);
            at = self.skip_group(open, "[", "]");
        }
        (at, gated)
    }

    /// Index just past the item starting at `i`: the matching `}` of its
    /// first brace block, or a `;` seen before any `{`.
    fn item_end(&self, mut i: usize) -> usize {
        while let Some(t) = self.code.get(i) {
            match t.text {
                "{" if t.kind == TokKind::Punct => return self.skip_braces(i),
                ";" if t.kind == TokKind::Punct => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    /// Pre-pass: collect `use … as …` aliases anywhere in the file.
    fn collect_aliases(&mut self) {
        let mut i = 0usize;
        while i < self.code.len() {
            if !self.ident_is(i, "use") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < self.code.len() && !self.punct(j, ";") {
                if self.ident_is(j, "as") {
                    if let (Some(orig), Some(alias)) = (self.ident(j - 1), self.ident(j + 1)) {
                        if alias != "_" {
                            self.aliases.insert(alias.to_string(), orig.to_string());
                        }
                    }
                }
                j += 1;
            }
            i = j + 1;
        }
    }

    fn resolve_alias<'s>(&'s self, name: &'s str) -> &'s str {
        self.aliases.get(name).map_or(name, String::as_str)
    }

    /// Walks `[start, end)` as item context; when `enclosing_fn` is set,
    /// non-item tokens get call/fact scanning attributed to that fn.
    fn parse_items(
        &mut self,
        start: usize,
        end: usize,
        ctx: &Container,
        enclosing_fn: Option<usize>,
    ) {
        let mut i = start;
        while i < end {
            if self.punct(i, "#") {
                let (next, gated) = self.skip_attrs(i);
                i = next;
                if gated {
                    let item_end = self.item_end(i).min(end);
                    self.test[i..item_end].iter_mut().for_each(|t| *t = true);
                    i = item_end;
                }
                continue;
            }
            match self.ident(i) {
                Some("impl") if enclosing_fn.is_none() => i = self.parse_impl(i, end),
                Some("trait") if enclosing_fn.is_none() => i = self.parse_trait(i, end),
                Some("mod") => {
                    // `mod name { … }` keeps the current container context
                    // (there is none to inherit — impls do not nest mods).
                    let mut j = i + 1;
                    while j < end && !self.punct(j, "{") && !self.punct(j, ";") {
                        j += 1;
                    }
                    if self.punct(j, "{") {
                        let body_end = self.skip_braces(j);
                        self.parse_items(j + 1, body_end - 1, &Container::default(), None);
                        i = body_end;
                    } else {
                        i = j + 1;
                    }
                }
                Some("fn") if self.ident(i + 1).is_some() => i = self.parse_fn(i, end, ctx),
                _ => {
                    if let Some(f) = enclosing_fn {
                        i = self.scan_expr_token(i, f);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Parses `impl …` at `i`; returns the index past the impl body.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.punct(j, "<") {
            j = self.skip_angles(j);
        }
        // Header: everything to the body `{`, split at a top-level `for`.
        let mut before_for: Option<String> = None; // trait part's last ident
        let mut last_ident: Option<String> = None;
        let mut angle = 0usize;
        while j < end {
            if self.punct(j, "{") {
                break;
            }
            if self.punct(j, "<") {
                angle += 1;
            } else if self.punct(j, ">") {
                angle = angle.saturating_sub(1);
            } else if angle == 0 {
                match self.ident(j) {
                    Some("for") => before_for = last_ident.take(),
                    Some("where") => {
                        // The where clause adds bounds, not names; stop
                        // collecting and fast-forward to the body.
                        while j < end && !self.punct(j, "{") {
                            j += 1;
                        }
                        break;
                    }
                    Some(id) if !matches!(id, "mut" | "dyn" | "ref") => {
                        last_ident = Some(id.to_string());
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        if !self.punct(j, "{") {
            return j + 1; // malformed; skip what we scanned
        }
        let (trait_name, impl_ty) = match before_for {
            Some(t) => (Some(t), last_ident),
            None => (None, last_ident),
        };
        let body_end = self.skip_braces(j);
        let ctx = Container { impl_ty, trait_name, in_container: true };
        self.parse_items(j + 1, body_end - 1, &ctx, None);
        body_end
    }

    /// Parses `trait Name … { … }` at `i`; returns the index past it.
    fn parse_trait(&mut self, i: usize, end: usize) -> usize {
        let name = self.ident(i + 1).map(str::to_string);
        let mut j = i + 1;
        while j < end && !self.punct(j, "{") && !self.punct(j, ";") {
            j += 1;
        }
        if !self.punct(j, "{") {
            return j + 1; // trait alias or malformed
        }
        let body_end = self.skip_braces(j);
        let ctx = Container { impl_ty: None, trait_name: name, in_container: true };
        self.parse_items(j + 1, body_end - 1, &ctx, None);
        body_end
    }

    /// Parses `fn name …` at `i` (the `fn` token); returns the index past
    /// the body (or the `;` of a bodiless trait method).
    fn parse_fn(&mut self, i: usize, end: usize, ctx: &Container) -> usize {
        let name = self.ident(i + 1).unwrap_or_default().to_string();
        let line = self.code[i].line;
        let idx = self.fns.len();
        self.fns.push(FnItem {
            name,
            line,
            impl_ty: ctx.impl_ty.clone(),
            trait_name: ctx.trait_name.clone(),
            in_container: ctx.in_container,
            is_pub: self.is_pub_before(i),
            is_hot: self.markers.is_hot_fn_line(line),
            calls: Vec::new(),
            allocs: Vec::new(),
            taints: Vec::new(),
        });
        // Signature runs to the body `{` or a `;` (trait signature).
        let mut j = i + 2;
        while j < end && !self.punct(j, "{") && !self.punct(j, ";") {
            j += 1;
        }
        if !self.punct(j, "{") {
            return j + 1;
        }
        let body_end = self.skip_braces(j);
        self.parse_items(j + 1, body_end - 1, ctx, Some(idx));
        body_end
    }

    /// Whether the `fn` at `i` carries a `pub` qualifier (scans back over
    /// `const`/`unsafe`/`async`/`extern "abi"`/`pub(crate)` tokens).
    fn is_pub_before(&self, i: usize) -> bool {
        let mut j = i;
        for _ in 0..10 {
            if j == 0 {
                return false;
            }
            j -= 1;
            let t = &self.code[j];
            match (t.kind, t.text) {
                (TokKind::Ident, "pub") => return true,
                (TokKind::Ident, "const" | "unsafe" | "async" | "extern") => {}
                (TokKind::Ident, "crate" | "super" | "self" | "in") => {}
                (TokKind::Str, _) => {} // extern "C"
                (TokKind::Punct, "(" | ")") => {}
                _ => return false,
            }
        }
        false
    }

    /// Scans one expression token inside fn `f`, recording calls and
    /// facts; returns the next index to look at.
    fn scan_expr_token(&mut self, i: usize, f: usize) -> usize {
        let Some(name) = self.ident(i) else {
            return i + 1;
        };
        let line = self.code[i].line;

        // Path-shaped taint sources and allocations first: these do not
        // need call shape (a `use std::time::Instant` import is already a
        // hidden-input liability worth tracing).
        match name {
            "Instant" | "SystemTime" => {
                self.fact(f, FactKind::Taint, name, line);
            }
            "HashMap" | "HashSet" => {
                self.fact(f, FactKind::Taint, &format!("{name} (hash iteration order)"), line);
            }
            "std"
                if self.punct(i + 1, ":")
                    && self.punct(i + 2, ":")
                    && self.ident_is(i + 3, "time") =>
            {
                self.fact(f, FactKind::Taint, "std::time", line);
            }
            "env" if self.punct(i + 1, ":") && self.punct(i + 2, ":") => {
                if let Some(v) = self.ident(i + 3) {
                    if v.starts_with("var") {
                        self.fact(f, FactKind::Taint, &format!("env::{v}"), line);
                    }
                }
            }
            "thread"
                if self.punct(i + 1, ":")
                    && self.punct(i + 2, ":")
                    && self.ident_is(i + 3, "current") =>
            {
                self.fact(f, FactKind::Taint, "thread::current", line);
            }
            "format" | "vec" if self.punct(i + 1, "!") => {
                self.fact(f, FactKind::Alloc, &format!("{name}!"), line);
            }
            _ => {
                if let Some(assoc) =
                    self.assoc_after(i).filter(|a| ALLOC_PATHS.contains(&(name, *a)))
                {
                    self.fact(f, FactKind::Alloc, &format!("{name}::{assoc}"), line);
                }
            }
        }

        // Call shape: `name(`, `name::<T>(`, after `.` or `Qual::`.
        let open = self.after_turbofish(i);
        if !self.punct(open, "(") || KEYWORDS.contains(&name) {
            return i + 1;
        }
        let dotted = i > 0 && self.punct(i - 1, ".");
        if dotted && ALLOC_METHODS.contains(&name) {
            self.fact(f, FactKind::Alloc, &format!(".{name}()"), line);
        }
        let kind = if dotted {
            CallKind::Method
        } else if i >= 2 && self.punct(i - 1, ":") && self.punct(i - 2, ":") {
            match self.code.get(i.wrapping_sub(3)) {
                Some(t) if t.kind == TokKind::Ident && t.text == "Self" => {
                    match &self.fns[f].impl_ty {
                        Some(ty) => CallKind::Qualified(ty.clone()),
                        None => CallKind::Method,
                    }
                }
                Some(t) if t.kind == TokKind::Ident => {
                    CallKind::Qualified(self.resolve_alias(t.text).to_string())
                }
                // `<T as Trait>::name(` and friends: opaque qualifier,
                // resolve conservatively like a method call.
                _ => CallKind::Method,
            }
        } else {
            CallKind::Free
        };
        let resolved = self.resolve_alias(name).to_string();
        self.fns[f].calls.push(Call { name: resolved, kind });
        i + 1
    }

    /// The associated item named by `Type::item` or `Type::<T>::item`
    /// for the type name at `i`.
    fn assoc_after(&self, i: usize) -> Option<&'a str> {
        let j = self.after_turbofish(i);
        (self.punct(j, ":") && self.punct(j + 1, ":")).then(|| self.ident(j + 2)).flatten()
    }

    fn after_turbofish(&self, i: usize) -> usize {
        if !(self.punct(i + 1, ":") && self.punct(i + 2, ":") && self.punct(i + 3, "<")) {
            return i + 1;
        }
        self.skip_angles(i + 3)
    }

    fn fact(&mut self, f: usize, kind: FactKind, what: &str, line: u32) {
        let fact = Fact { what: what.to_string(), line };
        let item = &mut self.fns[f];
        match kind {
            FactKind::Alloc => item.allocs.push(fact),
            FactKind::Taint => item.taints.push(fact),
        }
    }
}

enum FactKind {
    Alloc,
    Taint,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        parse_file("core", "crates/core/src/x.rs", src, false)
    }

    fn fn_named<'a>(items: &'a FileItems, name: &str) -> &'a FnItem {
        items.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn free_fns_and_calls() {
        let items = parse(
            "pub fn a() { b(); helper::c(); }\n\
             fn b() {}\n",
        );
        assert_eq!(items.fns.len(), 2);
        let a = fn_named(&items, "a");
        assert!(a.is_pub && !a.in_container && !a.is_hot);
        assert_eq!(a.calls.len(), 2);
        assert_eq!(a.calls[0].name, "b");
        assert_eq!(a.calls[0].kind, CallKind::Free);
        assert_eq!(a.calls[1].kind, CallKind::Qualified("helper".to_string()));
        assert!(!fn_named(&items, "b").is_pub);
    }

    #[test]
    fn impl_methods_carry_self_type_and_trait() {
        let items = parse(
            "impl Foo {\n    pub fn step(&mut self) { self.tick(); }\n}\n\
             impl chainiq_ckpt::Snapshot for Foo {\n    fn save(&self) {}\n}\n\
             impl<Q: Queue> Pipeline<Q> where Q: Sized {\n    fn run(&mut self) {}\n}\n",
        );
        let step = fn_named(&items, "step");
        assert_eq!(step.impl_ty.as_deref(), Some("Foo"));
        assert_eq!(step.trait_name, None);
        assert!(step.in_container && step.is_pub);
        assert_eq!(step.calls.len(), 1);
        assert_eq!(step.calls[0].kind, CallKind::Method);
        let save = fn_named(&items, "save");
        assert_eq!(save.impl_ty.as_deref(), Some("Foo"));
        assert_eq!(save.trait_name.as_deref(), Some("Snapshot"));
        let run = fn_named(&items, "run");
        assert_eq!(run.impl_ty.as_deref(), Some("Pipeline"));
        assert_eq!(run.trait_name, None);
    }

    #[test]
    fn trait_default_methods_are_candidates() {
        let items = parse(
            "trait Queue {\n    fn drain(&mut self) { self.step(); }\n    fn step(&mut self);\n}\n",
        );
        let drain = fn_named(&items, "drain");
        assert!(drain.in_container);
        assert_eq!(drain.trait_name.as_deref(), Some("Queue"));
        let step = fn_named(&items, "step");
        assert!(step.calls.is_empty(), "bodiless signature has no calls");
    }

    #[test]
    fn alloc_and_taint_facts() {
        let items = parse(
            "fn f(v: &[u32]) -> Vec<u32> {\n\
             let a = v.to_vec();\n\
             let b: Vec<u32> = v.iter().copied().collect::<Vec<u32>>();\n\
             let c = Vec::new();\n\
             let d = Box::new(1);\n\
             let e = format!(\"x\");\n\
             let c2 = Vec::<u8>::with_capacity(4);\n\
             let d2: Box<str> = Box::from(\"x\");\n\
             let e2 = vec![0u8; 4];\n\
             let s = String::from(\"x\").to_owned();\n\
             let n = String::new();\n\
             let f2 = std::env::var(\"X\");\n\
             let g = std::time::Instant::now();\n\
             let h = std::thread::current();\n\
             let i: std::collections::HashMap<u8, u8> = Default::default();\n\
             v.first().unwrap();\n\
             panic!(\"no\");\n\
             a\n}",
        );
        let f = fn_named(&items, "f");
        let allocs: Vec<&str> = f.allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(
            allocs,
            vec![
                ".to_vec()",
                ".collect()",
                "Vec::new",
                "Box::new",
                "format!",
                "Vec::with_capacity",
                "Box::from",
                "vec!",
                "String::from",
                ".to_owned()",
            ]
        );
        let taints: Vec<&str> = f.taints.iter().map(|t| t.what.as_str()).collect();
        assert!(taints.contains(&"env::var"), "{taints:?}");
        assert!(taints.contains(&"std::time"), "{taints:?}");
        assert!(taints.contains(&"Instant"), "{taints:?}");
        assert!(taints.contains(&"thread::current"), "{taints:?}");
        assert!(taints.iter().any(|t| t.starts_with("HashMap")), "{taints:?}");
    }

    #[test]
    fn hot_marker_and_test_mask() {
        let items = parse(
            "// chainiq-analyze: hot\n\
             fn tick() { helper(); }\n\
             fn helper() {}\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { tick(); }\n}\n",
        );
        assert!(fn_named(&items, "tick").is_hot);
        assert!(!fn_named(&items, "helper").is_hot);
        assert!(items.fns.iter().all(|f| f.name != "t"), "test items are skipped");
    }

    #[test]
    fn use_aliases_resolve() {
        let items = parse(
            "use crate::queue::advance as adv;\n\
             use crate::wheel::{Wheel as W, spin};\n\
             fn f() { adv(); W::turn(); spin(); }\n",
        );
        let f = fn_named(&items, "f");
        assert_eq!(f.calls[0].name, "advance");
        assert_eq!(f.calls[1].kind, CallKind::Qualified("Wheel".to_string()));
        assert_eq!(f.calls[2].name, "spin");
    }

    #[test]
    fn nested_fns_and_fn_pointer_types() {
        let items = parse(
            "fn outer() {\n\
             fn inner() { leaf(); }\n\
             let g: fn(u32) -> u32 = std::convert::identity;\n\
             inner();\n\
             }\n",
        );
        let outer = fn_named(&items, "outer");
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        let inner = fn_named(&items, "inner");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "leaf");
    }

    #[test]
    fn self_qualified_calls_resolve_to_impl_type() {
        let items = parse("impl Foo { fn a() { Self::b(); } fn b() {} }");
        let a = fn_named(&items, "a");
        assert_eq!(a.calls[0].kind, CallKind::Qualified("Foo".to_string()));
    }

    #[test]
    fn macros_and_struct_literals_are_not_calls() {
        let items = parse("fn f() { assert!(true); let _x = Foo { a: 1 }; let _y = Some(2); }\n");
        let f = fn_named(&items, "f");
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Some"], "{names:?}");
    }

    #[test]
    fn turbofish_free_call() {
        let items = parse("fn f() { parse::<u64>(\"1\"); }\n");
        let f = fn_named(&items, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name, "parse");
    }
}
