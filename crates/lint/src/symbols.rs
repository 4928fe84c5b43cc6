//! A cross-crate symbol table and name-based call graph.
//!
//! The `shard_merge_purity` rule needs to know which functions are
//! *reachable* from the simulator's pop-order machinery — including
//! functions in other files and other crates. With no resolver
//! and no type information, calls are linked by name: a call site `foo(…)`
//! or `recv.foo(…)` edges to every known `fn foo`. That over-approximates
//! reachability (exactly what a purity check wants: false edges can only
//! make the rule stricter), with one guard — ubiquitous trait-method names
//! (`new`, `clone`, `next`, …) only link within their own file, because a
//! cross-crate edge through `new` would connect everything to everything.

use crate::lexer::{Tok, TokKind};
use crate::parser::ParsedFile;
use crate::rules::FileCtx;

/// Method names too common to resolve across files: linking `new` in
/// `sim` to every `fn new` in the workspace would make the whole tree
/// "reachable" and the purity rule meaningless.
const UBIQUITOUS: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "fmt",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "from",
    "into",
    "drop",
    "iter",
    "iter_mut",
    "extend",
    "contains",
    "index",
    "as_ref",
    "as_mut",
];

/// Rust keywords and control-flow words that look like call heads but are
/// not function names.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "impl", "let", "move", "in", "else",
    "unsafe", "Some", "None", "Ok", "Err", "Box", "Vec", "String",
];

/// One file in the analyzed set.
pub struct WorkspaceFile<'a> {
    /// The lexed/parsed file.
    pub ctx: &'a FileCtx,
    /// Whether the file is already covered by the `determinism` rule —
    /// ambient reads there are reported once, by that rule, not twice.
    pub determinism_scoped: bool,
}

/// The analyzed file set plus the symbol index built over it.
pub struct Workspace<'a> {
    /// The files, in the order given.
    pub files: Vec<WorkspaceFile<'a>>,
}

/// A function's identity inside a [`Workspace`]: file index + fn index.
pub type FnRef = (usize, usize);

impl<'a> Workspace<'a> {
    /// Builds a workspace over `(ctx, determinism_scoped)` pairs.
    pub fn new(files: Vec<(&'a FileCtx, bool)>) -> Self {
        Workspace {
            files: files
                .into_iter()
                .map(|(ctx, determinism_scoped)| WorkspaceFile {
                    ctx,
                    determinism_scoped,
                })
                .collect(),
        }
    }

    /// The parsed view of file `i`.
    pub fn parsed(&self, i: usize) -> &ParsedFile {
        self.files[i].ctx.parsed()
    }

    /// The token stream of file `i`.
    pub fn toks(&self, i: usize) -> &[Tok] {
        self.files[i].ctx.tokens()
    }

    /// Every function whose `impl` owner satisfies `pred`, as roots for a
    /// reachability walk.
    pub fn fns_with_owner(&self, pred: impl Fn(&str) -> bool) -> Vec<FnRef> {
        let mut out = Vec::new();
        for (fi, _) in self.files.iter().enumerate() {
            for (gi, f) in self.parsed(fi).fns.iter().enumerate() {
                if f.owner.as_deref().is_some_and(&pred) {
                    out.push((fi, gi));
                }
            }
        }
        out
    }

    /// Callee names appearing in the body of fn `r`: identifiers directly
    /// followed by `(` (free calls and method calls alike), excluding
    /// keywords and macro invocations.
    pub fn calls_in(&self, r: FnRef) -> Vec<String> {
        let toks = self.toks(r.0);
        let (from, to) = self.parsed(r.0).fns[r.1].body;
        let mut out: Vec<String> = Vec::new();
        for j in from..to.min(toks.len()) {
            let t = &toks[j];
            if t.kind != TokKind::Ident
                || NOT_CALLS.contains(&t.text.as_str())
                || toks.get(j + 1).is_none_or(|n| n.text != "(")
            {
                continue;
            }
            // `name!` would have `!` before `(` so macros never match; a
            // leading uppercase path segment (`Worker::new`) contributes
            // the method name at its own position.
            if !out.iter().any(|c| c == &t.text) {
                out.push(t.text.clone());
            }
        }
        out
    }

    /// The set of functions reachable from `roots` along name-resolved
    /// call edges, roots included. Ubiquitous method names only resolve
    /// within the file that calls them.
    pub fn reachable(&self, roots: &[FnRef]) -> Vec<FnRef> {
        // Index: fn name -> every definition site.
        let mut index: std::collections::BTreeMap<&str, Vec<FnRef>> =
            std::collections::BTreeMap::new();
        for (fi, _) in self.files.iter().enumerate() {
            for (gi, f) in self.parsed(fi).fns.iter().enumerate() {
                index.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
        let mut seen: Vec<FnRef> = roots.to_vec();
        seen.sort_unstable();
        seen.dedup();
        let mut queue: Vec<FnRef> = seen.clone();
        while let Some(r) = queue.pop() {
            for callee in self.calls_in(r) {
                let Some(defs) = index.get(callee.as_str()) else {
                    continue;
                };
                let local_only = UBIQUITOUS.contains(&callee.as_str());
                for &d in defs {
                    if local_only && d.0 != r.0 {
                        continue;
                    }
                    if let Err(at) = seen.binary_search(&d) {
                        seen.insert(at, d);
                        queue.push(d);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(name: &str, src: &str) -> FileCtx {
        FileCtx::new(name, src)
    }

    #[test]
    fn reachability_follows_cross_file_calls_by_name() {
        let a = ctx(
            "a.rs",
            "struct Q; impl Q { fn pop(&mut self) { helper_step(1); } }",
        );
        let b = ctx("b.rs", "pub fn helper_step(x: u32) -> u32 { deeper(x) }\nfn deeper(x: u32) -> u32 { x }\nfn unrelated() {}");
        let ws = Workspace::new(vec![(&a, false), (&b, false)]);
        let roots = ws.fns_with_owner(|o| o == "Q");
        assert_eq!(roots.len(), 1);
        let reach = ws.reachable(&roots);
        let names: Vec<&str> = reach
            .iter()
            .map(|&(fi, gi)| ws.parsed(fi).fns[gi].name.as_str())
            .collect();
        assert!(names.contains(&"pop"));
        assert!(names.contains(&"helper_step"));
        assert!(names.contains(&"deeper"));
        assert!(!names.contains(&"unrelated"));
    }

    #[test]
    fn ubiquitous_names_do_not_link_across_files() {
        let a = ctx(
            "a.rs",
            "struct Q; impl Q { fn pop(&mut self) { Thing::new(); } }",
        );
        let b = ctx(
            "b.rs",
            "struct Other; impl Other { fn new() -> Other { Other } }",
        );
        let ws = Workspace::new(vec![(&a, false), (&b, false)]);
        let reach = ws.reachable(&ws.fns_with_owner(|o| o == "Q"));
        assert_eq!(reach.len(), 1, "`new` must not edge into b.rs");
    }
}
