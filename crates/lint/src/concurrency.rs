//! The concurrency rule family: dataflow-aware checks on the workspace's
//! threaded code (the parallel sweeps) and on the simulator's pop order.
//!
//! Safe Rust already rules out data races; these rules enforce something
//! stricter — a *discipline*. State may cross a thread boundary only
//! through channels the workspace has declared safe for deterministic
//! replay:
//!
//! * disjoint `&mut` partitions derived from `iter_mut`-family calls
//!   (each worker owns its slice, nobody aliases),
//! * atomics (`AtomicUsize` work counters and friends),
//! * `mpsc` channels (explicit message passing),
//! * synchronization primitives (`Mutex`/`RwLock` — then policed by
//!   `lock_discipline`),
//! * per-thread scratch moved wholesale into a `move` closure.
//!
//! Anything else a spawned closure captures mutably is a finding, even
//! when `rustc` accepts it: a lone `&mut` capture compiles today and
//! becomes a refactoring landmine the day a second worker appears — and
//! mutable state threaded outside these channels is exactly how schedule
//! dependence (and with it, nondeterministic replay) sneaks into the
//! engine.
//!
//! The analyses here are intra-function dataflow over the [`crate::parser`]
//! structure plus a name-resolved call graph ([`crate::symbols`]); see
//! DESIGN.md §3h for precisely what they can and cannot prove.

use crate::lexer::{Tok, TokKind};
use crate::parser::{
    bindings_in, closure_params_in, matching_close, params_of, spawn_sites, Binding,
    BindingKind, FnDef, SpawnSite,
};
use crate::rules::{
    stmt_end, stmt_start, typed_idents, FileCtx, Finding, Rule, AMBIENT_IDENTS,
};
use crate::symbols::Workspace;

// ----------------------------------------------------- thread_shared_state

/// Methods yielding disjoint `&mut` views: values derived from these may
/// cross thread boundaries because no two workers can alias.
const DISJOINT_SOURCES: &[&str] = &[
    "iter_mut",
    "chunks_mut",
    "chunks_exact_mut",
    "rchunks_mut",
    "split_at_mut",
    "split_first_mut",
    "split_last_mut",
    "each_mut",
];

/// Synchronization-aware types/constructors: bindings built from these are
/// approved channels by design.
const SYNC_SOURCES: &[&str] = &[
    "channel",
    "sync_channel",
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "OnceLock",
    "LazyLock",
    "Arc",
];

/// Interior-mutability types: capturing one by reference shares mutable
/// state without synchronization.
const INTERIOR_MUT: &[&str] = &["Cell", "RefCell", "UnsafeCell", "OnceCell"];

/// Container-growing methods used by the taint propagation: pushing an
/// approved value into a container approves the container.
const GROW_METHODS: &[&str] = &["push", "extend", "insert", "push_back", "push_front"];

/// Words that can never be captured variables.
const NEVER_CAPTURES: &[&str] = &[
    "let", "mut", "if", "else", "match", "for", "while", "loop", "in", "return", "break",
    "continue", "move", "ref", "self", "Self", "true", "false", "as", "use", "fn", "struct",
    "enum", "impl", "where", "dyn", "pub", "crate", "super", "mod", "unsafe", "const",
    "static", "type",
];

/// Does the token range contain an identifier satisfying `pred`?
fn span_has(toks: &[Tok], span: (usize, usize), pred: impl Fn(&str) -> bool) -> bool {
    toks[span.0.min(toks.len())..span.1.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && pred(&t.text))
}

/// Walks left from `idx` (exclusive) over `]`-closed index expressions to
/// the root identifier of a receiver chain: `parts[i % n].push` → `parts`.
fn receiver_root(toks: &[Tok], mut idx: usize) -> Option<&str> {
    loop {
        let t = toks.get(idx)?;
        if t.text == "]" {
            let d = t.depth;
            let open = (0..idx)
                .rev()
                .find(|&k| toks[k].text == "[" && toks[k].depth == d)?;
            idx = open.checked_sub(1)?;
            continue;
        }
        return (t.kind == TokKind::Ident).then_some(t.text.as_str());
    }
}

/// The set of binding names approved as thread-crossing channels inside
/// one function body: seeded by disjoint-`&mut`/atomic/channel sources,
/// then propagated to containers that only hold approved values and to
/// bindings initialized from approved names.
fn approved_channels(toks: &[Tok], bindings: &[Binding], body: (usize, usize)) -> Vec<String> {
    let mut approved: Vec<String> = Vec::new();
    for b in bindings {
        let seeded = span_has(toks, b.span, |s| {
            DISJOINT_SOURCES.contains(&s)
                || SYNC_SOURCES.contains(&s)
                || s.starts_with("Atomic")
        });
        if seeded && !approved.contains(&b.name) {
            approved.push(b.name.clone());
        }
    }
    loop {
        let before = approved.len();
        // A binding whose initializer mentions an approved name is itself
        // approved (`for part in parts.into_iter()`, `let view = &parts`).
        for b in bindings {
            if !approved.contains(&b.name)
                && span_has(toks, b.span, |s| approved.iter().any(|a| a == s))
            {
                approved.push(b.name.clone());
            }
        }
        // `name = expr;` reassignment from an approved source keeps the
        // name approved (rolling `split_at_mut` cursors).
        for j in body.0..body.1.min(toks.len()) {
            let at_stmt_head =
                j == body.0 || matches!(toks[j - 1].text.as_str(), ";" | "{" | "}");
            if !at_stmt_head
                || toks[j].kind != TokKind::Ident
                || toks.get(j + 1).is_none_or(|n| n.text != "=")
                || toks.get(j + 2).is_some_and(|n| n.text == "=")
            {
                continue;
            }
            let name = &toks[j].text;
            if approved.contains(name) || !bindings.iter().any(|b| &b.name == name) {
                continue;
            }
            let end = stmt_end(toks, j);
            if span_has(toks, (j + 2, end), |s| {
                DISJOINT_SOURCES.contains(&s) || approved.iter().any(|a| a == s)
            }) {
                approved.push(name.clone());
            }
        }
        // `container[…].push(approved)` approves the container: it now
        // holds only values that were safe to hand across threads.
        for j in body.0..body.1.min(toks.len()) {
            if toks[j].kind != TokKind::Ident
                || !GROW_METHODS.contains(&toks[j].text.as_str())
                || j < 2
                || toks[j - 1].text != "."
                || toks.get(j + 1).is_none_or(|n| n.text != "(")
            {
                continue;
            }
            let args = (j + 1, matching_close(toks, j + 1));
            if !span_has(toks, (args.0 + 1, args.1), |s| {
                approved.iter().any(|a| a == s)
            }) {
                continue;
            }
            if let Some(root) = receiver_root(toks, j - 2) {
                let root = root.to_string();
                if bindings.iter().any(|b| b.name == root) && !approved.contains(&root) {
                    approved.push(root);
                }
            }
        }
        if approved.len() == before {
            return approved;
        }
    }
}

/// Identifiers a spawn closure captures from its environment: free names
/// in the body that are not parameters, not locally bound, not fields,
/// calls, paths, or macros.
fn captures_of(toks: &[Tok], site: &SpawnSite) -> Vec<(String, u32)> {
    let mut local: Vec<String> = site.params.clone();
    local.extend(bindings_in(toks, site.body).into_iter().map(|b| b.name));
    local.extend(closure_params_in(toks, site.body));
    let mut out: Vec<(String, u32)> = Vec::new();
    for j in site.body.0..site.body.1.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident
            || NEVER_CAPTURES.contains(&t.text.as_str())
            || local.iter().any(|n| n == &t.text)
            || out.iter().any(|(n, _)| n == &t.text)
        {
            continue;
        }
        let prev = j.checked_sub(1).map(|k| toks[k].text.as_str());
        let next = toks.get(j + 1).map(|n| n.text.as_str());
        let prev2 = j.checked_sub(2).map(|k| toks[k].text.as_str());
        let next2 = toks.get(j + 2).map(|n| n.text.as_str());
        let is_member = prev == Some("."); // field or method name
        let is_call = next == Some("(");
        let is_macro = next == Some("!");
        let is_path = (next == Some(":") && next2 == Some(":"))
            || (prev == Some(":") && prev2 == Some(":"));
        if !(is_member || is_call || is_macro || is_path) {
            out.push((t.text.clone(), t.line));
        }
    }
    out
}

/// Why a captured binding is considered shared mutable state.
fn hazard_of(toks: &[Tok], b: &Binding) -> Option<&'static str> {
    if b.kind == BindingKind::ForPattern {
        // A `for` pattern rebinds a fresh, disjoint value every iteration;
        // aliasing the *container* across spawns would capture the
        // container's own binding, which is checked separately.
        return None;
    }
    if span_has(toks, b.span, |s| INTERIOR_MUT.contains(&s)) {
        return Some("has an interior-mutability type");
    }
    if b.is_mut {
        return Some("is declared `mut`");
    }
    // A `&mut` reference binding (`x: &mut T`, `let x = &mut y`).
    let amp_mut = (b.span.0..b.span.1.min(toks.len()).saturating_sub(1))
        .any(|j| toks[j].text == "&" && toks[j + 1].text == "mut");
    if amp_mut {
        return Some("holds a `&mut` reference");
    }
    None
}

/// Is the binding's initializer an owned value (not a borrow)? Owned
/// values moved into a `move` closure become per-thread scratch.
fn owned_initializer(toks: &[Tok], b: &Binding) -> bool {
    if b.kind == BindingKind::Param {
        // A parameter is owned when its type is not a reference.
        return !(b.span.0..b.span.1.min(toks.len())).any(|j| toks[j].text == "&");
    }
    let Some(eq) = (b.span.0..b.span.1.min(toks.len()))
        .find(|&j| toks[j].text == "=" && toks.get(j + 1).is_none_or(|n| n.text != "="))
    else {
        return false;
    };
    toks.get(eq + 1).is_some_and(|t| t.text != "&")
}

/// The `thread_shared_state` rule for one file.
pub fn check_thread_shared_state(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.tokens();
    let mut out = Vec::new();
    for f in &ctx.parsed().fns {
        if ctx.in_test(f.line) {
            continue;
        }
        let sites = spawn_sites(toks, f.body);
        if sites.is_empty() {
            continue;
        }
        let mut bindings = bindings_in(toks, f.body);
        bindings.extend(params_of(toks, f.sig));
        let approved = approved_channels(toks, &bindings, f.body);
        for site in &sites {
            for (name, line) in captures_of(toks, site) {
                // `static mut` and interior-mutable statics are hazards no
                // matter how they are captured.
                if let Some(st) = ctx.parsed().statics.iter().find(|s| s.name == name) {
                    if st.is_mut || INTERIOR_MUT.iter().any(|t| st.ty.contains(t)) {
                        out.push(Finding::new(
                            &ctx.file,
                            line.saturating_sub(1),
                            line,
                            Rule::ThreadSharedState,
                            format!(
                                "spawned closure in `{}` captures {} `{name}`; route \
                                 shared state through an approved channel (disjoint \
                                 `&mut` partition, atomic, or message passing)",
                                f.name,
                                if st.is_mut {
                                    "`static mut`"
                                } else {
                                    "interior-mutable static"
                                },
                            ),
                        ));
                    }
                    continue;
                }
                // Innermost binding declared before the spawn site wins.
                let Some(b) = bindings
                    .iter()
                    .filter(|b| b.name == name && b.span.0 < site.call_open)
                    .max_by_key(|b| b.span.0)
                else {
                    continue; // unknown name: type, variant, outer scope
                };
                let Some(why) = hazard_of(toks, b) else {
                    continue;
                };
                if approved.iter().any(|a| a == &name) {
                    continue; // disjoint &mut / atomic / channel dataflow
                }
                if site.is_move && owned_initializer(toks, b) {
                    continue; // moved wholesale: per-thread scratch
                }
                out.push(Finding::new(
                    &ctx.file,
                    line.saturating_sub(1),
                    line,
                    Rule::ThreadSharedState,
                    format!(
                        "spawned closure in `{}` captures `{name}`, which {why}, without \
                         an approved channel; hand it over as a disjoint `&mut` \
                         partition (`iter_mut`/`split_at_mut`), an atomic, a channel, \
                         or move owned scratch into the closure",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

// --------------------------------------------------------- lock_discipline

/// Protocol callbacks that must never run under a held lock: they re-enter
/// agent-visible code, and a lock held across them serializes (or
/// deadlocks) the event loop.
const PROTOCOL_CALLBACKS: &[&str] = &["on_message", "on_timer"];

/// One lock acquisition: the lock's name and the acquiring token.
struct Acquisition {
    lock: String,
    tok: usize,
    /// Token span the guard is live over (`None` for temporaries that die
    /// at the end of their own statement).
    guard_span: Option<(usize, usize)>,
}

/// Collects the lock acquisitions of one function.
fn acquisitions_in(toks: &[Tok], f: &FnDef, lock_names: &[String]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for j in f.body.0..f.body.1.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "lock" | "read" | "write")
            || j < 2
            || toks[j - 1].text != "."
            || toks.get(j + 1).is_none_or(|n| n.text != "(")
        {
            continue;
        }
        let Some(root) = receiver_root(toks, j - 2) else {
            continue;
        };
        if !lock_names.iter().any(|n| n == root) {
            continue;
        }
        let lock = root.to_string();
        let s = stmt_start(toks, j);
        let e = stmt_end(toks, j);
        // A `let` guard lives to the end of the enclosing block (or an
        // explicit `drop(guard)`); a temporary dies with its statement.
        let guard_span = crate::rules::let_binding(toks, s, e).map(|guard| {
            let d = toks[s].depth;
            let mut close = e;
            while close < toks.len() && toks[close].depth >= d {
                // `drop(guard)` ends the region early.
                if toks[close].kind == TokKind::Ident
                    && toks[close].text == "drop"
                    && toks.get(close + 1).is_some_and(|n| n.text == "(")
                    && toks.get(close + 2).is_some_and(|n| n.text == guard)
                {
                    break;
                }
                close += 1;
            }
            (e, close)
        });
        out.push(Acquisition {
            lock,
            tok: j,
            guard_span,
        });
    }
    out
}

/// The `lock_discipline` rule over a workspace: globally consistent
/// acquisition order, and no guard held across a protocol callback.
pub fn check_lock_discipline(ws: &Workspace<'_>) -> Vec<Finding> {
    // Ordered edges: (outer lock, inner lock) -> first site observed.
    let mut edges: Vec<(String, String, String, u32)> = Vec::new();
    let mut out = Vec::new();
    for (fi, wf) in ws.files.iter().enumerate() {
        let toks = ws.toks(fi);
        let mut lock_names = typed_idents(toks, &["Mutex", "RwLock"]);
        for st in &ws.parsed(fi).statics {
            if (st.ty.contains("Mutex") || st.ty.contains("RwLock"))
                && !lock_names.contains(&st.name)
            {
                lock_names.push(st.name.clone());
            }
        }
        if lock_names.is_empty() {
            continue;
        }
        for f in &ws.parsed(fi).fns {
            if wf.ctx.in_test(f.line) {
                continue;
            }
            let acqs = acquisitions_in(toks, f, &lock_names);
            for a in &acqs {
                let Some((gs, ge)) = a.guard_span else {
                    continue;
                };
                // Nested acquisitions while the guard lives = order edges.
                for b in &acqs {
                    if b.lock != a.lock && b.tok > gs && b.tok < ge {
                        edges.push((
                            a.lock.clone(),
                            b.lock.clone(),
                            wf.ctx.file.clone(),
                            toks[b.tok].line,
                        ));
                    }
                }
                // A protocol callback under a held guard re-enters
                // agent-visible code while serialized.
                for j in gs..ge.min(toks.len()) {
                    if toks[j].kind == TokKind::Ident
                        && PROTOCOL_CALLBACKS.contains(&toks[j].text.as_str())
                        && toks.get(j + 1).is_some_and(|n| n.text == "(")
                    {
                        out.push(Finding::new(
                            &wf.ctx.file,
                            toks[j].line.saturating_sub(1),
                            toks[j].line,
                            Rule::LockDiscipline,
                            format!(
                                "guard of `{}` is still held when protocol callback \
                                 `{}` runs in `{}`; drop the guard first — a lock held \
                                 across agent-visible code serializes the event loop \
                                 and invites re-entrant deadlock",
                                a.lock, toks[j].text, f.name
                            ),
                        ));
                    }
                }
            }
        }
    }
    // Globally inconsistent order: both (a, b) and (b, a) observed.
    for (a, b, file, line) in &edges {
        let reverse = edges
            .iter()
            .find(|(x, y, _, _)| x == b && y == a && (a, b) < (x, y));
        if let Some((_, _, rfile, rline)) = reverse {
            out.push(Finding::new(
                file,
                line.saturating_sub(1),
                *line,
                Rule::LockDiscipline,
                format!(
                    "inconsistent lock order: `{b}` is acquired while `{a}` is held \
                     here, but {rfile}:{rline} acquires `{a}` while `{b}` is held — \
                     pick one global order or deadlock becomes schedule-dependent"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------- ledger_encapsulation

/// Methods that mutate a collection in place: calling one on a ledger
/// *field* bypasses the ledger's own accounting methods.
const FIELD_MUTATORS: &[&str] = &[
    "insert",
    "remove",
    "clear",
    "push",
    "extend",
    "drain",
    "retain",
    "get_mut",
    "entry",
    "push_back",
    "pop",
    "take",
];

/// The `ledger_encapsulation` rule for one file (the engine exempts
/// `crates/pubsub/src`, where the ledger's own methods live).
pub fn check_ledger_encapsulation(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.tokens();
    let ledgers = typed_idents(toks, &["CapacityLedger"]);
    if ledgers.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let t = &toks[j];
        if t.kind != TokKind::Ident
            || !ledgers.iter().any(|n| n == &t.text)
            || ctx.in_test(t.line)
            || toks.get(j + 1).is_none_or(|n| n.text != ".")
        {
            continue;
        }
        let Some(field) = toks.get(j + 2).filter(|f| f.kind == TokKind::Ident) else {
            continue;
        };
        // `ledger.method(...)` is the approved surface — any method.
        if toks.get(j + 3).is_some_and(|n| n.text == "(") {
            continue;
        }
        let report = |what: &str| {
            Finding::new(
                &ctx.file,
                t.line.saturating_sub(1),
                field.line,
                Rule::LedgerEncapsulation,
                format!(
                    "{what} `{}.{}` bypasses the ledger's accounting methods; \
                     capacity state must change through `commit`/`release`/`rebalance` \
                     so chaos fingerprints and census parity stay auditable",
                    t.text, field.text
                ),
            )
        };
        // Direct assignment: `ledger.field = …`, `ledger.field += …`.
        let n3 = toks.get(j + 3).map(|n| n.text.as_str());
        let n4 = toks.get(j + 4).map(|n| n.text.as_str());
        let plain_assign = n3 == Some("=") && n4 != Some("=");
        let compound_assign = matches!(n3, Some("+" | "-" | "*" | "/" | "%" | "^" | "|" | "&"))
            && n4 == Some("=");
        if plain_assign || compound_assign {
            out.push(report("raw field write"));
            continue;
        }
        // Interior mutation: `ledger.field.insert(…)`.
        if n3 == Some(".")
            && toks.get(j + 4).is_some_and(|m| {
                m.kind == TokKind::Ident && FIELD_MUTATORS.contains(&m.text.as_str())
            })
            && toks.get(j + 5).is_some_and(|n| n.text == "(")
        {
            out.push(report("in-place mutation of"));
        }
    }
    out
}

// ----------------------------------------------------- shard_merge_purity

/// The type whose methods own the simulator's event queue and so decide
/// the pop order: the roots of the `shard_merge_purity` walk.
const POP_ORDER_OWNER: &str = "Simulation";

/// The `shard_merge_purity` rule over a workspace: every function
/// reachable from a method of `Simulation` must be a pure function
/// of queue state — no wall clock, no ambient entropy.
/// Files already covered by the `determinism` rule report ambient reads
/// there (once), so this rule only speaks for files outside that scope.
pub fn check_shard_merge_purity(ws: &Workspace<'_>) -> Vec<Finding> {
    let roots = ws.fns_with_owner(|o| o == POP_ORDER_OWNER);
    if roots.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (fi, gi) in ws.reachable(&roots) {
        let wf = &ws.files[fi];
        if wf.determinism_scoped {
            continue;
        }
        let toks = ws.toks(fi);
        let f = &ws.parsed(fi).fns[gi];
        if wf.ctx.in_test(f.line) {
            continue;
        }
        for t in &toks[f.body.0..f.body.1.min(toks.len())] {
            if t.kind == TokKind::Ident
                && AMBIENT_IDENTS.contains(&t.text.as_str())
                && !wf.ctx.in_test(t.line)
            {
                out.push(Finding::new(
                    &wf.ctx.file,
                    t.line.saturating_sub(1),
                    t.line,
                    Rule::ShardMergePurity,
                    format!(
                        "`{}` reads ambient `{}` but is reachable from \
                         `{POP_ORDER_OWNER}` pop-order code; the pop order must be a \
                         pure function of queue state or event order becomes \
                         schedule-dependent",
                        f.name, t.text
                    ),
                ));
            }
        }
    }
    out
}
