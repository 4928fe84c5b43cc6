//! Item/expression-level structure recovery over the token stream.
//!
//! The v1 rules worked on raw token windows; the concurrency rule family
//! needs to know *where functions are*, *which impl owns them*, *what a
//! `let` binds*, and *what a spawned closure captures*. This module
//! recovers exactly that structure — nothing more — by recursive descent
//! over [`crate::lexer::Lexed`] using the bracket-depth channel the lexer
//! already provides.
//!
//! It is deliberately not a Rust parser. It never builds a full AST and it
//! degrades gracefully on code it does not understand (an unrecognized
//! construct yields no items rather than an error), because anything truly
//! malformed is `rustc`'s problem. What it *does* recover is enough for
//! dataflow-style reasoning: function spans with owners, `static` items,
//! `let`/`for`/parameter bindings with mutability, and `spawn(...)`
//! closure sites with their parameter lists and bodies.

use crate::lexer::{Tok, TokKind};

/// A function (or method) definition: name, owning impl type, and the
/// token spans of its signature and body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name (`run_until`, not `Simulation::run_until`).
    pub name: String,
    /// The `Self` type of the enclosing `impl`, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span `[from, to)` of the signature: `fn` keyword up to (and
    /// excluding) the body `{`.
    pub sig: (usize, usize),
    /// Token span `[from, to)` of the body, exclusive of its braces.
    /// Empty for bodyless trait-method declarations.
    pub body: (usize, usize),
}

/// A `static` item, the one place shared mutability can hide outside any
/// function.
#[derive(Debug, Clone)]
pub struct StaticDef {
    /// The item name.
    pub name: String,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// Whether it is `static mut`.
    pub is_mut: bool,
    /// The type tokens, joined with spaces (`AtomicU64`, `RefCell < u32 >`).
    pub ty: String,
}

/// Everything [`parse`] recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// `static` items, in source order.
    pub statics: Vec<StaticDef>,
}

/// Index of the token closing the bracket opened at `open` (same depth,
/// matching text), or `toks.len() - 1` when unclosed.
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    let d = toks[open].depth;
    let close = match toks[open].text.as_str() {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => return open,
    };
    (open + 1..toks.len())
        .find(|&j| toks[j].text == close && toks[j].depth == d)
        .unwrap_or(toks.len() - 1)
}

/// The `Self` type named by an `impl` header starting at token `kw`
/// (the `impl` keyword): the last angle-depth-0 identifier before the
/// body `{` or a `where` clause. Handles `impl<T> Foo<T>`,
/// `impl Trait for Foo`, and qualified paths (last segment wins because
/// path segments before `::` are followed by more identifiers).
fn impl_self_type(toks: &[Tok], kw: usize) -> Option<(String, usize)> {
    let d = toks[kw].depth;
    let mut angle: i32 = 0;
    let mut in_where = false;
    let mut last: Option<String> = None;
    for (j, t) in toks.iter().enumerate().skip(kw + 1) {
        if t.text == "{" && t.depth == d {
            return last.map(|n| (n, j));
        }
        if t.text == ";" && t.depth == d {
            return None; // `impl Foo;` never parses, but stay graceful
        }
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "where" if angle == 0 => in_where = true, // keep `last`, await `{`
            _ => {
                if angle == 0
                    && !in_where
                    && t.kind == TokKind::Ident
                    && t.text != "for"
                    && t.text != "dyn"
                {
                    last = Some(t.text.clone());
                }
            }
        }
    }
    None
}

/// Recovers items from a lexed file.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // (self type, body open idx, body close idx) for owner lookup.
    let mut impls: Vec<(String, usize, usize)> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                if let Some((name, open)) = impl_self_type(toks, i) {
                    let close = matching_close(toks, open);
                    impls.push((name, open, close));
                    i = open + 1; // descend: fns inside are picked up below
                    continue;
                }
            }
            "fn" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    let d = t.depth;
                    // The body `{` sits at the fn's depth; a `;` there
                    // first means a bodyless trait declaration.
                    let mut body = (i + 2, i + 2);
                    let mut sig_end = i + 2;
                    for j in i + 2..toks.len() {
                        if toks[j].depth == d && toks[j].text == ";" {
                            sig_end = j;
                            break;
                        }
                        if toks[j].depth == d && toks[j].text == "{" {
                            sig_end = j;
                            body = (j + 1, matching_close(toks, j));
                            break;
                        }
                    }
                    let owner = impls
                        .iter()
                        .rev()
                        .find(|&&(_, open, close)| i > open && i < close)
                        .map(|(n, _, _)| n.clone());
                    out.fns.push(FnDef {
                        name: name_tok.text.clone(),
                        owner,
                        line: t.line,
                        sig: (i, sig_end),
                        body,
                    });
                }
            }
            "static" => {
                // `static [mut] NAME : TYPE = …;`
                let mut j = i + 1;
                let is_mut = toks.get(j).is_some_and(|m| m.text == "mut");
                if is_mut {
                    j += 1;
                }
                if let Some(name_tok) = toks.get(j).filter(|n| n.kind == TokKind::Ident) {
                    if toks.get(j + 1).is_some_and(|c| c.text == ":") {
                        let d = t.depth;
                        let ty_from = j + 2;
                        let ty_to = (ty_from..toks.len())
                            .find(|&k| {
                                toks[k].depth == d
                                    && (toks[k].text == "=" || toks[k].text == ";")
                            })
                            .unwrap_or(ty_from);
                        let ty = toks[ty_from..ty_to]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect::<Vec<_>>()
                            .join(" ");
                        out.statics.push(StaticDef {
                            name: name_tok.text.clone(),
                            line: t.line,
                            is_mut,
                            ty,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

// --------------------------------------------------------------- bindings

/// How a name came to be bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingKind {
    /// `let [mut] name = …` (including tuple patterns).
    Let,
    /// A `for`-loop pattern: rebinds a fresh, disjoint value per iteration.
    ForPattern,
    /// A function parameter.
    Param,
}

/// One bound name inside a function.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The bound name.
    pub name: String,
    /// Declared `mut` (for `Let`/`Param`; `mut` in patterns is per-name).
    pub is_mut: bool,
    /// 1-based line of the binding.
    pub line: u32,
    /// Token span `[from, to)` covering the whole binding statement — for
    /// a `let` the pattern, type, and initializer; for a `for` the pattern
    /// and iterated expression; for a parameter the name and its type.
    pub span: (usize, usize),
    /// What kind of binding this is.
    pub kind: BindingKind,
}

/// Collects `let` and `for` bindings inside `span` (a function body).
pub fn bindings_in(toks: &[Tok], span: (usize, usize)) -> Vec<Binding> {
    let mut out = Vec::new();
    let (from, to) = span;
    let mut i = from;
    while i < to.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        if t.text == "let" {
            let d = t.depth;
            // Statement end: `;` at or below the let's depth.
            let end = (i + 1..to)
                .find(|&j| toks[j].text == ";" && toks[j].depth <= d)
                .unwrap_or(to);
            // `=` at the let's depth splits pattern from initializer.
            let eq = (i + 1..end).find(|&j| {
                toks[j].text == "="
                    && toks[j].depth == d
                    && toks.get(j + 1).is_none_or(|n| n.text != "=")
                    && toks[j - 1].text != "="
                    && toks[j - 1].text != "!"
                    && toks[j - 1].text != "<"
                    && toks[j - 1].text != ">"
            });
            let pat_to = eq.unwrap_or(end);
            collect_pattern_names(toks, i + 1, pat_to, d, |name, is_mut, line| {
                out.push(Binding {
                    name,
                    is_mut,
                    line,
                    span: (i, end),
                    kind: BindingKind::Let,
                })
            });
            i = pat_to;
            continue;
        }
        if t.text == "for" {
            let d = t.depth;
            let Some(in_idx) = (i + 1..(i + 40).min(to)).find(|&j| {
                toks[j].kind == TokKind::Ident && toks[j].text == "in" && toks[j].depth == d
            }) else {
                i += 1;
                continue;
            };
            let body_open = (in_idx + 1..to)
                .find(|&j| toks[j].text == "{" && toks[j].depth == d)
                .unwrap_or(to);
            collect_pattern_names(toks, i + 1, in_idx, d, |name, is_mut, line| {
                out.push(Binding {
                    name,
                    is_mut,
                    line,
                    span: (i, body_open),
                    kind: BindingKind::ForPattern,
                })
            });
            i = in_idx;
            continue;
        }
        i += 1;
    }
    out
}

/// Walks a pattern token range and reports each bound name with its
/// per-name `mut`. Constructors bind their contents, not themselves
/// (`Some(x)` binds `x`); struct-pattern field labels bind the right-hand
/// name (`Foo { x: y }` binds `y`); a top-level `name: Type` annotation
/// binds `name` and its type tokens bind nothing.
fn collect_pattern_names(
    toks: &[Tok],
    from: usize,
    to: usize,
    base_depth: u32,
    mut sink: impl FnMut(String, bool, u32),
) {
    let mut j = from;
    while j < to.min(toks.len()) {
        let t = &toks[j];
        // A `:` at pattern depth (not `::`) starts a type annotation for
        // the whole pattern — skip its tokens to the next `,` at that
        // depth (or the end for a single binding).
        if t.text == ":"
            && t.depth <= base_depth
            && toks.get(j + 1).is_none_or(|n| n.text != ":")
            && (j == 0 || toks[j - 1].text != ":")
        {
            j = (j + 1..to)
                .find(|&k| toks[k].text == "," && toks[k].depth <= base_depth)
                .unwrap_or(to);
            continue;
        }
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_") {
            let next_is = |s: &str| toks.get(j + 1).is_some_and(|n| n.text == s);
            // `Name::`, `Name(` and `Name {` are constructor paths;
            // `name:` inside braces is a struct-pattern field label.
            let is_path = next_is(":") && toks.get(j + 2).is_some_and(|n| n.text == ":");
            let is_ctor = next_is("(") || next_is("{");
            let is_field_label = next_is(":")
                && !is_path
                && toks.get(j + 1).is_some_and(|n| n.depth > base_depth);
            if !is_path && !is_ctor && !is_field_label {
                let is_mut = j > from && toks[j - 1].text == "mut";
                sink(t.text.clone(), is_mut, t.line);
            }
            if is_path {
                j += 3; // skip `Name : :`; the next segment re-enters here
                continue;
            }
        }
        j += 1;
    }
}

/// Parameter bindings of a signature span (`fn` keyword to body `{`).
pub fn params_of(toks: &[Tok], sig: (usize, usize)) -> Vec<Binding> {
    let mut out = Vec::new();
    let Some(open) = (sig.0..sig.1.min(toks.len())).find(|&j| toks[j].text == "(") else {
        return out;
    };
    let close = matching_close(toks, open);
    let d = toks[open].depth;
    for j in open + 1..close {
        let t = &toks[j];
        // `name :` at parameter-list depth introduces a parameter.
        if t.kind == TokKind::Ident
            && t.depth == d + 1
            && toks
                .get(j + 1)
                .is_some_and(|c| c.text == ":" && c.depth == d + 1)
            && toks.get(j + 2).is_none_or(|c| c.text != ":")
            && (j == open + 1 || toks[j - 1].text == "," || toks[j - 1].text == "mut")
        {
            let is_mut = toks[j - 1].text == "mut";
            let span_to = (j + 2..close)
                .find(|&k| toks[k].text == "," && toks[k].depth == d + 1)
                .unwrap_or(close);
            out.push(Binding {
                name: t.text.clone(),
                is_mut,
                line: t.line,
                span: (j, span_to),
                kind: BindingKind::Param,
            });
        }
    }
    out
}

// ------------------------------------------------------------ spawn sites

/// One `spawn(...)` call taking a closure: the unit of the
/// `thread_shared_state` rule.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 1-based line of the `spawn` identifier.
    pub line: u32,
    /// Token index of the call's `(`.
    pub call_open: usize,
    /// Token index of the call's `)`.
    pub call_close: usize,
    /// Whether the closure is a `move` closure.
    pub is_move: bool,
    /// The closure's parameter names.
    pub params: Vec<String>,
    /// Token span `[from, to)` of the closure body.
    pub body: (usize, usize),
}

/// Finds `spawn(<closure>)` call sites inside `span`. `thread::scope`
/// itself is not a site — its closure runs on the calling thread; only
/// `spawn` (free or `scope.spawn`) moves work to another thread.
pub fn spawn_sites(toks: &[Tok], span: (usize, usize)) -> Vec<SpawnSite> {
    let mut out = Vec::new();
    let (from, to) = span;
    for i in from..to.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "spawn" {
            continue;
        }
        let Some(open) = (i + 1 < toks.len() && toks[i + 1].text == "(").then_some(i + 1)
        else {
            continue;
        };
        let close = matching_close(toks, open);
        let mut j = open + 1;
        let is_move = toks.get(j).is_some_and(|m| m.text == "move");
        if is_move {
            j += 1;
        }
        if toks.get(j).is_none_or(|p| p.text != "|") {
            continue; // `spawn(f)` — a named function, not a closure
        }
        // `||` lexes as two puncts; otherwise scan to the closing `|`.
        let params_end = if toks.get(j + 1).is_some_and(|p| p.text == "|") {
            j + 1
        } else {
            match (j + 1..close)
                .find(|&k| toks[k].text == "|" && toks[k].depth == toks[j].depth)
            {
                Some(k) => k,
                None => continue,
            }
        };
        let params = toks[j + 1..params_end]
            .iter()
            .filter(|p| p.kind == TokKind::Ident && p.text != "mut" && p.text != "_")
            .map(|p| p.text.clone())
            .collect();
        out.push(SpawnSite {
            line: t.line,
            call_open: open,
            call_close: close,
            is_move,
            params,
            body: (params_end + 1, close),
        });
    }
    out
}

/// Parameter names of plain (non-spawn) closures inside `span`, for
/// excluding them from capture lists. Recognizes `|…|` in expression
/// context: preceded by `(`, `,`, `=`, `{`, `move`, `return`, `:`, or
/// `>` (as in `=>`).
pub fn closure_params_in(toks: &[Tok], span: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    let (from, to) = span;
    for i in from..to.min(toks.len()) {
        if toks[i].text != "|" {
            continue;
        }
        let opens_closure = i == 0
            || matches!(
                toks[i - 1].text.as_str(),
                "(" | "," | "=" | "{" | "move" | "return" | ":" | ">" | ";"
            );
        if !opens_closure {
            continue;
        }
        let params_end = if toks.get(i + 1).is_some_and(|p| p.text == "|") {
            i + 1
        } else {
            match (i + 1..(i + 30).min(to)).find(|&k| toks[k].text == "|") {
                Some(k) => k,
                None => continue,
            }
        };
        for p in &toks[i + 1..params_end] {
            if p.kind == TokKind::Ident && p.text != "mut" && p.text != "_" {
                out.push(p.text.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn recovers_fns_with_impl_owners() {
        let src = r#"
            pub struct Q { len: usize }
            impl Q {
                pub fn pop(&mut self) -> usize { self.step() }
                fn step(&self) -> usize { 0 }
            }
            impl Iterator for Q {
                type Item = u8;
                fn next(&mut self) -> Option<u8> { None }
            }
            fn free_fn(x: u64) -> u64 { x }
        "#;
        let p = parse(&lex(src).toks);
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("pop".into(), Some("Q".into())),
                ("step".into(), Some("Q".into())),
                ("next".into(), Some("Q".into())),
                ("free_fn".into(), None),
            ]
        );
    }

    #[test]
    fn generic_impl_headers_name_the_self_type() {
        let src = "impl<A: Actor> Simulation<A> where A: Send { fn run(&mut self) {} }";
        let p = parse(&lex(src).toks);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Simulation"));
    }

    #[test]
    fn statics_record_mutability_and_type() {
        let src = "static COUNT: AtomicU64 = AtomicU64::new(0);\nstatic mut RAW: u64 = 0;";
        let p = parse(&lex(src).toks);
        assert_eq!(p.statics.len(), 2);
        assert!(!p.statics[0].is_mut);
        assert!(p.statics[0].ty.contains("AtomicU64"));
        assert!(p.statics[1].is_mut);
    }

    #[test]
    fn bindings_capture_mut_and_tuple_patterns() {
        let src = "fn f() { let mut a = 1; let (tx, rx) = channel(); for (i, v) in xs.iter_mut().enumerate() {} }";
        let lexed = lex(src);
        let p = parse(&lexed.toks);
        let b = bindings_in(&lexed.toks, p.fns[0].body);
        let view: Vec<(&str, bool, BindingKind)> = b
            .iter()
            .map(|x| (x.name.as_str(), x.is_mut, x.kind))
            .collect();
        assert_eq!(
            view,
            vec![
                ("a", true, BindingKind::Let),
                ("tx", false, BindingKind::Let),
                ("rx", false, BindingKind::Let),
                ("i", false, BindingKind::ForPattern),
                ("v", false, BindingKind::ForPattern),
            ]
        );
        // The for-binding span covers the iterated expression.
        let for_span = b[3].span;
        let text: Vec<&str> = lexed.toks[for_span.0..for_span.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(text.contains(&"iter_mut"), "{text:?}");
    }

    #[test]
    fn spawn_sites_parse_move_params_and_body() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(move || work(part)); s.spawn(|| { total += 1; }); }); }";
        let lexed = lex(src);
        let p = parse(&lexed.toks);
        let sites = spawn_sites(&lexed.toks, p.fns[0].body);
        assert_eq!(sites.len(), 2);
        assert!(sites[0].is_move);
        assert!(sites[0].params.is_empty());
        assert!(!sites[1].is_move);
        // `scope(|s| …)` itself is not a spawn site.
        let body_text: Vec<&str> = lexed.toks[sites[1].body.0..sites[1].body.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(body_text.contains(&"total"), "{body_text:?}");
    }

    #[test]
    fn params_of_reads_signature_bindings() {
        let src = "fn go(inputs: Vec<u32>, mut k: usize, f: &dyn Fn(u32) -> u32) {}";
        let lexed = lex(src);
        let p = parse(&lexed.toks);
        let params = params_of(&lexed.toks, p.fns[0].sig);
        let view: Vec<(&str, bool)> =
            params.iter().map(|b| (b.name.as_str(), b.is_mut)).collect();
        assert_eq!(view, vec![("inputs", false), ("k", true), ("f", false)]);
    }
}
