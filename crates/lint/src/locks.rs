//! L1: the lock-acquisition audit. Walks every function in scope, tracks
//! which lock guards are live (brace-depth based), and records an edge
//! `held -> acquired` for every nested acquisition. Findings fire on
//! (a) cycles in the resulting acquisition graph — a deadlock shape — and
//! (b) network/disk I/O performed while any guard is held.
//!
//! The analysis is intra-function and heuristic: a guard is recognised when
//! a `let NAME = …lock()/…read()/…write()/lock_or_recover(…)` binding ends
//! the statement, and dies at `drop(NAME)` or when its block closes.
//! Temporaries (`….lock()…` consumed on the same statement, e.g.
//! `m.lock().unwrap().push(x)`) are treated as scoped to that line.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::LexedFile;
use crate::report::{Finding, LockEdge};

/// Patterns that acquire a lock; the capture is the receiver path used as
/// the lock's identity (`file-stem::receiver`).
const ACQUIRE: &[&str] = &[".lock()", ".read()", ".write()"];

/// Patterns that perform I/O a held lock must never span.
const IO: &[&str] = &[
    "std::fs::",
    "fs::read",
    "fs::write",
    "File::",
    "OpenOptions::",
    "TcpStream",
    "TcpListener",
    "httpc::",
    ".write_all(",
    ".read_to_end(",
    ".read_to_string(",
    ".read_exact(",
    ".flush(",
    "read_request(",
    "write_response(",
];

/// A live guard inside a function body.
struct Guard {
    lock: String,
    /// Brace depth the binding lives at; popped when depth drops below.
    depth: i32,
    /// Binding name for `drop(NAME)` release, `None` for temporaries.
    name: Option<String>,
    /// The acquisition line carried a valid `splint::allow(L1, …)` —
    /// vouching that this guard never actually spans I/O (e.g. a
    /// match-scrutinee temporary the line heuristic over-extends).
    allowed: bool,
}

/// Per-file L1 result: findings plus the acquisition edges observed.
pub(crate) struct LockAudit {
    pub findings: Vec<Finding>,
    pub edges: Vec<LockEdge>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The receiver path of a method call ending at `before`, e.g. for
/// `self.state.lock()` returns `self.state`.
fn receiver_path(before: &str) -> String {
    let mut path: Vec<char> = Vec::new();
    for c in before.chars().rev() {
        if is_ident(c) || c == '.' {
            path.push(c);
        } else {
            break;
        }
    }
    path.into_iter()
        .rev()
        .collect::<String>()
        .trim_matches('.')
        .to_string()
}

/// Lock identity: `<file-stem>::<receiver>` with `self.`/`&` noise removed,
/// so `self.state.lock()` in `lru.rs` becomes `lru::state`.
fn lock_id(file: &str, receiver: &str) -> String {
    let stem = file
        .rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".rs");
    let recv = receiver.trim_start_matches("self.");
    let recv = if recv.is_empty() { "lock" } else { recv };
    format!("{stem}::{recv}")
}

/// True when the `.read()`/`.write()` at `pos` looks like a lock, not plain
/// I/O: the receiver must not be a reader/writer/stream-ish name.
fn looks_like_lock(receiver: &str, pattern: &str) -> bool {
    if pattern == ".lock()" {
        return true;
    }
    let last = receiver
        .rsplit('.')
        .next()
        .unwrap_or(receiver)
        .to_ascii_lowercase();
    !(last.contains("stream")
        || last.contains("reader")
        || last.contains("writer")
        || last.contains("file")
        || last.contains("sock")
        || last.contains("conn")
        || last.contains("buf"))
}

/// Runs the audit over one lexed file.
pub(crate) fn audit(file: &str, lexed: &LexedFile) -> LockAudit {
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    // Reset live guards at function boundaries (depth back to item level).
    for line in &lexed.lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let allowed = lexed
            .allows_for(line.number)
            .any(|a| a.rule == "L1" && a.reason.is_some());

        // 1. Acquisitions on this line.
        let mut acquired_here: Vec<(String, Option<String>)> = Vec::new();
        for pat in ACQUIRE {
            let mut offset = 0usize;
            while let Some(pos) = code[offset..].find(pat) {
                let abs = offset + pos;
                let receiver = receiver_path(&code[..abs]);
                offset = abs + pat.len();
                if receiver.is_empty() || !looks_like_lock(&receiver, pat) {
                    continue;
                }
                acquired_here.push((lock_id(file, &receiver), binding_name(code)));
            }
        }
        if let Some(pos) = code.find("lock_or_recover(") {
            let arg_start = pos + "lock_or_recover(".len();
            let arg: String = code[arg_start..]
                .chars()
                .take_while(|&c| is_ident(c) || c == '.' || c == '&')
                .collect();
            let receiver = arg.trim_start_matches('&').trim_matches('.').to_string();
            if !receiver.is_empty() {
                acquired_here.push((lock_id(file, &receiver), binding_name(code)));
            }
        }

        // 2. Nested acquisition ⇒ graph edge.
        for (lock, _) in &acquired_here {
            for held in &guards {
                if &held.lock != lock {
                    edges.push(LockEdge {
                        from: held.lock.clone(),
                        to: lock.clone(),
                        site: format!("{file}:{}", line.number),
                    });
                }
            }
        }

        // 3. I/O while a guard is held (allow on the I/O line or on every
        // held guard's acquisition line suppresses).
        let unvouched: Vec<&Guard> = guards.iter().filter(|g| !g.allowed).collect();
        if !unvouched.is_empty() && !allowed {
            for pat in IO {
                if code.contains(pat) {
                    let held: Vec<&str> = unvouched.iter().map(|g| g.lock.as_str()).collect();
                    findings.push(Finding {
                        rule: "L1".to_string(),
                        file: file.to_string(),
                        line: line.number,
                        message: format!("I/O (`{pat}`) while holding lock(s) {}", held.join(", ")),
                        hint: "copy what you need out of the guard, drop it, then do the I/O"
                            .to_string(),
                    });
                    break;
                }
            }
        }

        // 4. Guard lifetime bookkeeping: register let-bound guards at the
        // current depth, temporaries die at end of line.
        for (lock, name) in acquired_here {
            if name.is_some() {
                guards.push(Guard {
                    lock,
                    depth,
                    name,
                    allowed,
                });
            }
        }

        // 5. Releases: drop(NAME) and brace tracking.
        if let Some(pos) = code.find("drop(") {
            let arg: String = code[pos + "drop(".len()..]
                .chars()
                .take_while(|&c| is_ident(c))
                .collect();
            guards.retain(|g| g.name.as_deref() != Some(arg.as_str()));
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
        if depth <= 0 {
            // Item level: no guard survives a function boundary.
            guards.clear();
            depth = depth.max(0);
        }
    }

    // 6. Cycle check over the whole file's edge set.
    findings.extend(cycle_findings(file, &edges));

    LockAudit { findings, edges }
}

/// The binding name when the line is a guard-binding statement
/// (`let [mut ]NAME = …;`), else `None` (temporary).
fn binding_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    // `let NAME = match …` / `let NAME = if …` bindings hold the result of
    // the expression, not necessarily the guard — treat as a guard anyway:
    // conservative for I/O-span detection, which is the point.
    (!name.is_empty()).then_some(name)
}

/// DFS cycle detection over the acquisition graph; each cycle is one L1
/// finding anchored at the first edge's site.
fn cycle_findings(file: &str, edges: &[LockEdge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut findings = Vec::new();
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        if visited.contains(start) {
            continue;
        }
        // Iterative DFS with an on-stack set for back-edge detection.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut on_stack: BTreeSet<&str> = BTreeSet::new();
        on_stack.insert(start);
        while let Some(frame) = stack.len().checked_sub(1) {
            let (node, next) = stack[frame];
            let out_edges = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next < out_edges.len() {
                let edge = out_edges[next];
                stack[frame].1 += 1;
                let to = edge.to.as_str();
                if on_stack.contains(to) {
                    findings.push(Finding {
                        rule: "L1".to_string(),
                        file: file.to_string(),
                        line: edge
                            .site
                            .rsplit(':')
                            .next()
                            .and_then(|n| n.parse().ok())
                            .unwrap_or(0),
                        message: format!(
                            "lock-order cycle: `{}` acquired while `{}` held (and vice versa elsewhere)",
                            to, edge.from
                        ),
                        hint: "pick one global acquisition order and stick to it".to_string(),
                    });
                } else if !visited.contains(to) {
                    on_stack.insert(to);
                    stack.push((to, 0));
                }
            } else {
                on_stack.remove(node);
                visited.insert(node);
                stack.pop();
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn nested_acquisition_records_an_edge() {
        let src = "fn f(&self) {\n    let a = self.state.lock().unwrap();\n    let b = self.inner.lock().unwrap();\n}\n";
        let a = audit("crates/serve/src/lru.rs", &lex(src));
        assert_eq!(a.edges.len(), 1);
        assert_eq!(a.edges[0].from, "lru::state");
        assert_eq!(a.edges[0].to, "lru::inner");
        assert!(a.findings.is_empty(), "no cycle, no I/O: {:?}", a.findings);
    }

    #[test]
    fn opposite_orders_make_a_cycle() {
        let src = "fn f(&self) {\n    let a = self.x.lock().unwrap();\n    let b = self.y.lock().unwrap();\n}\nfn g(&self) {\n    let b = self.y.lock().unwrap();\n    let a = self.x.lock().unwrap();\n}\n";
        let a = audit("crates/serve/src/m.rs", &lex(src));
        assert!(
            a.findings.iter().any(|f| f.message.contains("cycle")),
            "expected a cycle finding, got {:?}",
            a.findings
        );
    }

    #[test]
    fn io_under_lock_is_flagged() {
        let src = "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    std::fs::write(&path, &bytes).ok();\n}\n";
        let a = audit("crates/core/src/store.rs", &lex(src));
        assert!(a.findings.iter().any(|f| f.message.contains("I/O")));
    }

    #[test]
    fn guard_scope_ends_with_block_and_drop() {
        let src = "fn f(&self) {\n    {\n        let g = self.state.lock().unwrap();\n    }\n    std::fs::write(&path, &bytes).ok();\n}\nfn h(&self) {\n    let g = self.state.lock().unwrap();\n    drop(g);\n    let t = TcpStream::connect(addr);\n}\n";
        let a = audit("crates/core/src/store.rs", &lex(src));
        assert!(
            a.findings.is_empty(),
            "guards released before I/O: {:?}",
            a.findings
        );
    }

    #[test]
    fn stream_read_is_not_a_lock() {
        let src = "fn f(stream: &mut TcpStream) {\n    let n = reader.read(&mut buf);\n}\n";
        let a = audit("crates/serve/src/http.rs", &lex(src));
        assert!(a.edges.is_empty());
    }

    #[test]
    fn temporary_guard_does_not_span_lines() {
        let src = "fn f(&self) {\n    self.counter.lock().unwrap().push(1);\n    std::fs::write(&p, &b).ok();\n}\n";
        let a = audit("crates/core/src/store.rs", &lex(src));
        assert!(
            a.findings.is_empty(),
            "temporary released same line: {:?}",
            a.findings
        );
    }
}
