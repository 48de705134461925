//! The seven repo lints, run over the lexed code view of one file.
//!
//! | code | meaning |
//! |------|---------|
//! | L001 | `unwrap()`/`expect()` on a lock-guard acquisition (poison must be recovered) |
//! | L002 | lock-order cycle: two sites acquire the same locks in opposite nesting orders |
//! | L003 | lock guard held across a channel `send`/`recv` or `wait_epoch_newer` |
//! | L004 | `Ordering::SeqCst` without an `// ordering:` rationale (acquire/release usually suffices) |
//! | L005 | direct `std::sync` lock/atomic import bypassing the `threatraptor-sync` facade |
//! | L006 | `Instant` + `Duration` deadline arithmetic (panics on overflow; use `checked_add`) |
//! | L007 | registry get-or-create inside a `for`/`while`/`loop` body (resolve the handle once) |
//!
//! All rules are textual — tripwires, not proofs. They are tuned to
//! this repo's idioms: guards are recovered with
//! `.unwrap_or_else(PoisonError::into_inner)`, locks are fields
//! acquired as `let guard = self.field.lock()…;`, and anything subtler
//! is a reviewer's job.

use crate::scope::{LineIndex, Scopes};
use crate::{Diagnostic, Severity};

/// How far above a `SeqCst` site an `// ordering:` rationale still
/// counts (lines).
const RATIONALE_WINDOW: usize = 8;

/// Context shared by every rule while linting one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    pub code: &'a str,
    pub index: &'a LineIndex,
    pub scopes: &'a Scopes,
    pub include_mutants: bool,
}

impl FileCtx<'_> {
    /// Whether a finding at `offset` should be reported at all.
    fn live(&self, offset: usize, code: &str) -> bool {
        if self.scopes.in_test(offset) {
            return false;
        }
        if !self.include_mutants && self.scopes.in_mutant(offset) {
            return false;
        }
        let line = self.index.line_of(offset);
        !self.scopes.allowed(line, code)
    }

    fn diag(&self, offset: usize, code: &'static str, message: String) -> Diagnostic {
        let (line, col) = self.index.locate(offset);
        Diagnostic {
            code,
            severity: Severity::Error,
            path: self.path.to_string(),
            line,
            col,
            message,
        }
    }
}

/// One acquisition of a lock while at least one other guard was live:
/// a directed lock-order edge, fed into the per-file cycle check.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub offset: usize,
}

/// Runs every rule over one file; `edges` receives the lock-order graph
/// edges for the L002 cycle pass.
pub fn run_rules(ctx: &FileCtx<'_>, edges: &mut Vec<LockEdge>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    l001_guard_unwrap(ctx, &mut out);
    guard_scan(ctx, &mut out, edges);
    l004_seqcst(ctx, &mut out);
    l005_std_sync(ctx, &mut out);
    l006_deadline_add(ctx, &mut out);
    l007_registry_in_loop(ctx, &mut out);
    out
}

const ACQUIRES: [&str; 3] = [".lock()", ".read()", ".write()"];

/// L001: `.lock()/.read()/.write()` chained (possibly across lines)
/// into `.unwrap()` or `.expect(`. The repo recovers poison instead:
/// a panicking hunt worker must not poison-propagate to every tenant.
fn l001_guard_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let bytes = ctx.code.as_bytes();
    for acquire in ACQUIRES {
        let mut from = 0;
        while let Some(pos) = ctx.code[from..].find(acquire) {
            let start = from + pos;
            from = start + acquire.len();
            let mut i = from;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if bytes.get(i) != Some(&b'.') {
                continue;
            }
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            for method in ["unwrap()", "expect("] {
                if ctx.code[i..].starts_with(method) && ctx.live(i, "L001") {
                    out.push(ctx.diag(
                        i,
                        "L001",
                        format!(
                            "lock guard acquired with `{}` — recover poison with \
                             `.unwrap_or_else(PoisonError::into_inner)` instead",
                            method.trim_end_matches('('),
                        ),
                    ));
                }
            }
        }
    }
}

/// A guard lexically live at some point of the scan.
#[derive(Debug)]
struct LiveGuard {
    name: String,
    lock: String,
    /// Brace depth the binding lives at; popped when its block closes.
    depth: i64,
}

/// One forward scan tracking `let guard = receiver.lock()…;` bindings:
/// emits L002 edges (a second lock acquired under a live guard) and
/// L003 findings (send/recv/wait under a live guard).
///
/// Only statement-final acquisitions bind a guard: a chain that
/// continues past the recovery call (`.clone()`, `.take()`, `.len()`,
/// …) drops its guard at the end of the statement and holds nothing.
fn guard_scan(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>, edges: &mut Vec<LockEdge>) {
    let bytes = ctx.code.as_bytes();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0i64;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                guards.retain(|g| g.depth < depth);
                depth -= 1;
                i += 1;
            }
            b'd' if ctx.code[i..].starts_with("drop(") && !is_ident_byte(prev(bytes, i)) => {
                let inner_start = i + "drop(".len();
                let inner_end = inner_start
                    + ctx.code[inner_start..]
                        .find(')')
                        .unwrap_or(ctx.code.len() - inner_start);
                let dropped = ctx.code[inner_start..inner_end].trim();
                // Only a drop at the guard's own brace depth ends it: a
                // drop inside a nested block (`if … { drop(g); continue }`)
                // does not release the lock on the fall-through path.
                guards.retain(|g| !(g.name == dropped && g.depth == depth));
                i = inner_end;
            }
            b'.' => {
                if let Some(acquire) = ACQUIRES.iter().find(|a| ctx.code[i..].starts_with(**a)) {
                    let lock = receiver_path(ctx.code, i);
                    if !lock.is_empty() {
                        for g in &guards {
                            if ctx.live(i, "L002") {
                                edges.push(LockEdge {
                                    from: g.lock.clone(),
                                    to: lock.clone(),
                                    offset: i,
                                });
                            }
                        }
                        if let Some(name) = guard_binding(ctx.code, i, i + acquire.len()) {
                            guards.push(LiveGuard { name, lock, depth });
                        }
                    }
                    i += acquire.len();
                    continue;
                }
                for target in [".send(", ".recv()", ".recv_timeout("] {
                    if ctx.code[i..].starts_with(target)
                        && !guards.is_empty()
                        && ctx.live(i, "L003")
                    {
                        let held: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
                        out.push(ctx.diag(
                            i,
                            "L003",
                            format!(
                                "channel `{}` while holding lock guard(s) on {} — a blocked \
                                 peer stalls every thread contending for the lock",
                                target.trim_start_matches('.').trim_end_matches('('),
                                held.join(", "),
                            ),
                        ));
                    }
                }
                i += 1;
            }
            // `.` is a legal prefix (method call); only a longer
            // identifier (`my_wait_epoch_newer`) must not match.
            b'w' if ctx.code[i..].starts_with("wait_epoch_newer(")
                && !matches!(prev(bytes, i), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) =>
            {
                if !guards.is_empty() && ctx.live(i, "L003") {
                    let held: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
                    out.push(ctx.diag(
                        i,
                        "L003",
                        format!(
                            "`wait_epoch_newer` (blocks up to its timeout) while holding lock \
                             guard(s) on {}",
                            held.join(", "),
                        ),
                    ));
                }
                i += "wait_epoch_newer(".len();
            }
            _ => i += 1,
        }
    }
}

fn prev(bytes: &[u8], i: usize) -> Option<u8> {
    i.checked_sub(1).map(|p| bytes[p])
}

fn is_ident_byte(b: Option<u8>) -> bool {
    matches!(b, Some(c) if c == b'_' || c == b'.' || c.is_ascii_alphanumeric())
}

/// The dotted path receiving a lock call ending at `dot` (the offset of
/// `.lock()`'s dot): `self.follows.lock()` → `self.follows`.
fn receiver_path(code: &str, dot: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = dot;
    while start > 0 {
        let b = bytes[start - 1];
        if b == b'_' || b == b'.' || b == b':' || b.is_ascii_alphanumeric() {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..dot].to_string()
}

/// When the acquisition at `dot..after` is a statement-final guard
/// binding (`let [mut] name = recv.lock().<one recovery call>;`),
/// returns the bound name.
fn guard_binding(code: &str, dot: usize, after: usize) -> Option<String> {
    let bytes = code.as_bytes();
    // Forward: exactly one chained recovery call, then `;`.
    let mut i = after;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        skip_ws(&mut i);
        while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
            i += 1;
        }
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b'(') {
            return None;
        }
        let mut depth = 0i64;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        skip_ws(&mut i);
    }
    if bytes.get(i) != Some(&b';') {
        return None; // chain continues: the guard is a temporary
    }
    // Backward: `let [mut] name =` immediately before the receiver.
    let recv_start = dot - receiver_path(code, dot).len();
    let stmt = code[..recv_start].trim_end();
    let stmt = stmt.strip_suffix('=')?.trim_end();
    let name_start = stmt
        .rfind(|c: char| c != '_' && !c.is_ascii_alphanumeric())
        .map_or(0, |p| p + 1);
    let name = &stmt[name_start..];
    if name.is_empty() {
        return None;
    }
    let before = stmt[..name_start].trim_end();
    (before.ends_with("let") || before.ends_with("let mut") || before.ends_with("mut"))
        .then(|| name.to_string())
}

/// L004: `Ordering::SeqCst` outside tests without a nearby
/// `// ordering:` rationale. Matching the literal `Ordering::SeqCst`
/// cannot collide with `std::cmp::Ordering` — that enum has no
/// `SeqCst` variant.
fn l004_seqcst(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let mut from = 0;
    while let Some(pos) = ctx.code[from..].find("Ordering::SeqCst") {
        let offset = from + pos;
        from = offset + "Ordering::SeqCst".len();
        if !ctx.live(offset, "L004") {
            continue;
        }
        let line = ctx.index.line_of(offset);
        if ctx.scopes.has_rationale_near(line, RATIONALE_WINDOW) {
            continue;
        }
        out.push(
            ctx.diag(
                offset,
                "L004",
                "`Ordering::SeqCst` without an `// ordering:` rationale — acquire/release \
             (or Relaxed) almost always suffices; document the total-order invariant \
             that requires SeqCst, or weaken it"
                    .to_string(),
            ),
        );
    }
}

/// Names that must come from the `threatraptor-sync` facade so the
/// interleaving checker can see them. `Arc`, `Once*`, `PoisonError`,
/// `LockResult`, … are fine from `std` — the facade re-exports them
/// unchanged in both build modes.
const BANNED_SYNC: [&str; 10] = [
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
    "Barrier",
    "WaitTimeoutResult",
    "atomic",
    "mpsc",
];

/// L005: `std::sync::` paths naming a lock, condvar, or the atomic
/// module. The facade is what lets `cfg(threatraptor_check)` swap the
/// primitives; a direct import is invisible to the checker.
fn l005_std_sync(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.path.starts_with("crates/check/") || ctx.path.starts_with("crates/compat/sync/") {
        return; // the checker and the facade are the implementation
    }
    let bytes = ctx.code.as_bytes();
    let mut from = 0;
    while let Some(pos) = ctx.code[from..].find("std::sync::") {
        let offset = from + pos;
        from = offset + "std::sync::".len();
        if is_ident_byte(prev(bytes, offset)) || matches!(prev(bytes, offset), Some(b':')) {
            continue; // mid-path (e.g. `my::std::sync::`) — not ours
        }
        if !ctx.live(offset, "L005") {
            continue;
        }
        // For `use` statements take the whole (possibly multi-line)
        // grouped tail up to `;`; for inline paths, the path token.
        let line_start = {
            let line = ctx.index.line_of(offset);
            ctx.index.line_span(line, ctx.code.len()).0
        };
        let stmt_head = ctx.code[line_start..offset].trim_start();
        let is_use = stmt_head.starts_with("use ") || stmt_head.starts_with("pub use ");
        let tail_end = if is_use {
            offset
                + ctx.code[offset..]
                    .find(';')
                    .unwrap_or(ctx.code.len() - offset)
        } else {
            let rest = &ctx.code[offset..];
            offset
                + rest
                    .find(|c: char| !(c == '_' || c == ':' || c.is_ascii_alphanumeric()))
                    .unwrap_or(rest.len())
        };
        let tail = &ctx.code[offset + "std::sync::".len()..tail_end];
        let banned: Vec<&str> = BANNED_SYNC
            .iter()
            .copied()
            .filter(|name| {
                tail.split(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
                    .any(|tok| tok == *name)
            })
            .collect();
        if !banned.is_empty() {
            out.push(ctx.diag(
                offset,
                "L005",
                format!(
                    "`std::sync::{{{}}}` bypasses the `threatraptor-sync` facade — the \
                     interleaving checker cannot instrument it; import from \
                     `threatraptor_sync` instead",
                    banned.join(", "),
                ),
            ));
        }
    }
}

/// L006: a `+` / `+=` whose left operand is `Instant::now()` or whose
/// right operand is a `timeout` / `*_timeout` identifier. The sum panics
/// when it overflows the clock (a `Duration::MAX` timeout does);
/// `checked_add` returns `None` instead, which reads as "no deadline".
fn l006_deadline_add(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let mut from = 0;
    while let Some(pos) = ctx.code[from..].find('+') {
        let offset = from + pos;
        from = offset + 1;
        let rhs = ctx.code[from..]
            .strip_prefix('=')
            .unwrap_or(&ctx.code[from..]);
        let rhs = rhs.trim_start();
        let operand = &rhs[..rhs
            .find(|c: char| c != '_' && !c.is_ascii_alphanumeric())
            .unwrap_or(rhs.len())];
        let timeout_rhs = operand == "timeout" || operand.ends_with("_timeout");
        let now_lhs = ctx.code[..offset].trim_end().ends_with("Instant::now()");
        if (now_lhs || timeout_rhs) && ctx.live(offset, "L006") {
            out.push(
                ctx.diag(
                    offset,
                    "L006",
                    "`Instant` + `Duration` deadline arithmetic panics when the sum overflows \
                 (a `Duration::MAX` timeout does) — use `checked_add` and treat `None` as \
                 no deadline"
                        .to_string(),
                ),
            );
        }
    }
}

/// The metric registry's get-or-create methods.
const GET_OR_CREATE: [&str; 6] = [
    ".counter(",
    ".counter_labeled(",
    ".gauge(",
    ".gauge_labeled(",
    ".histogram(",
    ".histogram_labeled(",
];

/// What the code since the last `{`, `}` or `;` says about the next
/// block: whether it is a loop body.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Header {
    Plain,
    /// A `for` keyword without its `in` yet (`impl Trait for Type` and
    /// `for<'a>` bounds never get one).
    For,
    Loop,
}

/// L007: a registry get-or-create (`counter`, `gauge`, `histogram`, or a
/// `_labeled` form, on a receiver whose last segment ends in `registry`)
/// inside a `for` / `while` / `loop` body. Each call builds key strings
/// and takes the registry lock; a hot path resolves its handle once,
/// when its owner is built, and keeps it.
fn l007_registry_in_loop(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let bytes = ctx.code.as_bytes();
    // One entry per open brace: whether it opened a loop body.
    let mut blocks: Vec<bool> = Vec::new();
    let mut header = Header::Plain;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                blocks.push(header == Header::Loop);
                header = Header::Plain;
                i += 1;
            }
            b'}' | b';' => {
                if bytes[i] == b'}' {
                    blocks.pop();
                }
                header = Header::Plain;
                i += 1;
            }
            b'.' => {
                let Some(method) = GET_OR_CREATE
                    .iter()
                    .find(|m| ctx.code[i..].starts_with(**m))
                else {
                    i += 1;
                    continue;
                };
                // The receiver may sit on the line above (`registry\n    .counter(`).
                let before = ctx.code[..i].trim_end();
                let receiver = receiver_path(before, before.len());
                let name = receiver.rsplit(['.', ':']).next().unwrap_or_default();
                if name.ends_with("registry") && blocks.contains(&true) && ctx.live(i, "L007") {
                    out.push(ctx.diag(
                        i,
                        "L007",
                        format!(
                            "registry get-or-create `{}` inside a loop body — it builds key \
                             strings and takes the registry lock on every iteration; resolve \
                             the handle once, outside the loop, and keep it",
                            method.trim_start_matches('.').trim_end_matches('('),
                        ),
                    ));
                }
                i += method.len();
            }
            b if (b == b'_' || b.is_ascii_alphabetic()) && !is_ident_byte(prev(bytes, i)) => {
                let len = ctx.code[i..]
                    .find(|c: char| c != '_' && !c.is_ascii_alphanumeric())
                    .unwrap_or(ctx.code.len() - i);
                header = match (&ctx.code[i..i + len], header) {
                    ("while" | "loop", _) | ("in", Header::For) => Header::Loop,
                    ("for", _) => Header::For,
                    _ => header,
                };
                i += len;
            }
            _ => i += 1,
        }
    }
}

/// L002 cycle pass: over one file's accumulated lock-order edges,
/// reports every cycle in the directed lock graph (including the
/// self-loop of re-acquiring a held lock).
pub fn l002_cycles(ctx: &FileCtx<'_>, edges: &[LockEdge]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Adjacency over distinct (from, to) pairs, keeping one witness
    // offset per edge.
    let mut distinct: Vec<&LockEdge> = Vec::new();
    for e in edges {
        if !distinct.iter().any(|d| d.from == e.from && d.to == e.to) {
            distinct.push(e);
        }
    }
    for edge in &distinct {
        if edge.from == edge.to {
            out.push(ctx.diag(
                edge.offset,
                "L002",
                format!(
                    "lock on `{}` re-acquired while already held — self-deadlock",
                    edge.from
                ),
            ));
            continue;
        }
        // A cycle through this edge: any path edge.to → … → edge.from.
        if reaches(&distinct, &edge.to, &edge.from) {
            out.push(ctx.diag(
                edge.offset,
                "L002",
                format!(
                    "lock-order cycle: `{}` is acquired under `{}` here, but elsewhere \
                     `{}` is acquired under `{}` — opposite nesting orders can deadlock",
                    edge.to, edge.from, edge.from, edge.to,
                ),
            ));
        }
    }
    out
}

fn reaches(edges: &[&LockEdge], from: &str, to: &str) -> bool {
    let mut stack = vec![from.to_string()];
    let mut seen = vec![from.to_string()];
    while let Some(node) = stack.pop() {
        for e in edges {
            if e.from == node {
                if e.to == to {
                    return true;
                }
                if !seen.contains(&e.to) {
                    seen.push(e.to.clone());
                    stack.push(e.to.clone());
                }
            }
        }
    }
    false
}
