//! The rule catalog: D1 (unordered-map iteration in deterministic paths),
//! D2 (wall-clock / thread-id / trace-telemetry in content-addressed paths),
//! P1 (panics in worker request paths), and A0 (malformed `splint::allow`
//! annotations).
//!
//! All rules run on lexed lines (comments and literal contents already
//! stripped — see [`crate::lexer`]), skip `#[cfg(test)]` regions, and honor
//! `// splint::allow(<rule>, "<reason>")` with a mandatory reason.

use std::collections::BTreeSet;

use crate::lexer::LexedFile;
use crate::report::Finding;

/// Rule ids splint knows about; anything else in an allow is an A0 finding.
pub(crate) const KNOWN_RULES: &[&str] = &["D1", "D2", "P1", "L1", "A0"];

/// Scope predicates — which workspace files each rule audits. Paths are
/// workspace-relative with forward slashes.
pub mod scope {
    /// D1: files whose map iteration order can reach serialized artifacts,
    /// fingerprints or `--json` output.
    pub(crate) fn d1(path: &str) -> bool {
        path.starts_with("crates/engine/src/")
            || path.starts_with("crates/flow/src/")
            || path == "crates/core/src/fingerprint.rs"
            || path == "crates/core/src/attack.rs"
            || path == "crates/defense/src/service.rs"
            || path == "crates/serve/src/server.rs"
    }

    /// D2: content-addressed / artifact-hash paths where wall-clock or
    /// thread identity must never leak in. Metrics and bench code is
    /// deliberately out of scope (timing is its whole point).
    pub(crate) fn d2(path: &str) -> bool {
        path == "crates/core/src/fingerprint.rs"
            || path == "crates/core/src/store.rs"
            || path == "crates/engine/src/artifacts.rs"
            || path == "crates/engine/src/pareto.rs"
            || path == "crates/defense/src/eval.rs"
            || path == "crates/defense/src/service.rs"
    }

    /// P1: the panic-isolation boundary — serve worker request paths and
    /// engine worker closures.
    pub(crate) fn p1(path: &str) -> bool {
        path.starts_with("crates/serve/src/") || path == "crates/engine/src/run.rs"
    }

    /// L1: every Mutex/RwLock site in serve and the model store.
    pub(crate) fn l1(path: &str) -> bool {
        path.starts_with("crates/serve/src/") || path == "crates/core/src/store.rs"
    }
}

fn finding(rule: &str, file: &str, line: usize, message: String, hint: &str) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.to_string(),
        line,
        message,
        hint: hint.to_string(),
    }
}

/// True when the line carries a valid (reason-bearing) allow for `rule`.
fn allowed(lexed: &LexedFile, line: usize, rule: &str) -> bool {
    lexed
        .allows_for(line)
        .any(|a| a.rule == rule && a.reason.is_some())
}

/// A0: every allow annotation must name a known rule and carry a non-empty
/// reason string; silent suppressions are findings themselves.
pub(crate) fn check_allows(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in &lexed.allows {
        if !KNOWN_RULES.contains(&a.rule.as_str()) {
            out.push(finding(
                "A0",
                file,
                a.annotation_line,
                format!("splint::allow names unknown rule `{}`", a.rule),
                "use one of D1, D2, P1, L1",
            ));
        } else if a.reason.is_none() {
            out.push(finding(
                "A0",
                file,
                a.annotation_line,
                format!("splint::allow({}) has no reason string", a.rule),
                "write `// splint::allow(RULE, \"why this is safe\")`",
            ));
        }
    }
    out
}

/// Identifier characters for the crude tokenizer below.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Collects identifiers bound to `HashMap`/`HashSet` in `code` — `let x:
/// HashMap<..>`, `x: HashMap<..>` struct fields / params, `= HashMap::new()`
/// and qualified `std::collections::HashMap` forms all count.
pub(crate) fn collect_unordered_idents(lexed: &LexedFile, into: &mut BTreeSet<String>) {
    for line in &lexed.lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            let mut rest = code.as_str();
            while let Some(pos) = rest.find(ty) {
                // Reject e.g. `MyHashMapish` on the left; the right side may
                // be `<`, `::`, whitespace or end-of-type.
                let left_ok = pos == 0 || !is_ident(rest[..pos].chars().next_back().unwrap_or(' '));
                if left_ok {
                    if let Some(name) = bound_ident(code, ty) {
                        into.insert(name);
                    }
                }
                rest = &rest[pos + ty.len()..];
            }
        }
    }
}

/// Given a line mentioning `ty`, extracts the identifier the map is bound
/// to: `NAME: …ty…` (field/param/let-with-type) or `NAME = …ty…::new` /
/// `…ty…::from` / collect-into-binding forms.
fn bound_ident(code: &str, ty: &str) -> Option<String> {
    let pos = code.find(ty)?;
    // Blank out `::` path separators so `std::collections::HashMap` still
    // resolves the `NAME:` binding colon.
    let before = code[..pos].replace("::", "__");
    // `NAME: HashMap<..>` — also matches `let NAME: …` and struct fields.
    if let Some(colon) = before.rfind(':') {
        let name: String = before[..colon]
            .chars()
            .rev()
            .take_while(|&c| is_ident(c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_numeric()) {
            return Some(name);
        }
    }
    // `let NAME = HashMap::new()` / `let mut NAME = HashSet::new()`.
    if let Some(eq) = before.rfind('=') {
        let lhs = before[..eq].trim_end();
        let name: String = lhs
            .chars()
            .rev()
            .take_while(|&c| is_ident(c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if !name.is_empty() && name != "mut" && !name.chars().next().is_some_and(|c| c.is_numeric())
        {
            return Some(name);
        }
    }
    None
}

/// D1: iteration over a known-unordered binding inside a determinism-scoped
/// file. Flags `X.keys()/.values()/.iter()/.into_iter()/.drain(` and
/// `for … in [&[mut ]]X` where `X` was declared as HashMap/HashSet anywhere
/// in the workspace.
pub(crate) fn check_d1(
    file: &str,
    lexed: &LexedFile,
    unordered: &BTreeSet<String>,
) -> Vec<Finding> {
    const HINT: &str =
        "use a BTreeMap/BTreeSet, or collect and sort by a stable key before emitting";
    let mut out = Vec::new();
    for line in &lexed.lines {
        if line.in_test || allowed(lexed, line.number, "D1") {
            continue;
        }
        let code = &line.code;
        for method in [".keys()", ".values()", ".iter()", ".into_iter()", ".drain("] {
            let mut rest = code.as_str();
            let mut offset = 0usize;
            while let Some(pos) = rest.find(method) {
                let recv = receiver_ident(&code[..offset + pos]);
                if let Some(recv) = recv {
                    if unordered.contains(&recv) {
                        out.push(finding(
                            "D1",
                            file,
                            line.number,
                            format!(
                                "iteration over unordered `{recv}`{method} in a deterministic path"
                            ),
                            HINT,
                        ));
                    }
                }
                offset += pos + method.len();
                rest = &code[offset..];
            }
        }
        // `for k in map` / `for (k, v) in &map {`.
        if let Some(pos) = code.find(" in ") {
            if code.trim_start().starts_with("for ") {
                let expr = code[pos + 4..].trim_start().trim_start_matches('&');
                let expr = expr.trim_start_matches("mut ").trim_start();
                let ident: String = expr.chars().take_while(|&c| is_ident(c)).collect();
                let after = &expr[ident.len()..];
                // Plain `for … in map {` only; method-call receivers are
                // handled above and `map[` indexing is not iteration.
                if unordered.contains(&ident) && after.trim_start().starts_with('{') {
                    out.push(finding(
                        "D1",
                        file,
                        line.number,
                        format!(
                            "`for … in {ident}` iterates an unordered map in a deterministic path"
                        ),
                        HINT,
                    ));
                }
            }
        }
    }
    out
}

/// The identifier immediately before a method call, i.e. the last `.`-free
/// path segment of `a.b.MAP` → `MAP`.
fn receiver_ident(before: &str) -> Option<String> {
    let name: String = before
        .chars()
        .rev()
        .take_while(|&c| is_ident(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!name.is_empty()).then_some(name)
}

/// D2: wall-clock, thread-identity or trace-telemetry reads inside
/// content-addressed paths. Timings and spans are observability data — if a
/// fingerprint, cell key or `--json` artifact ever incorporated them, the
/// same sweep would hash differently between runs.
pub(crate) fn check_d2(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    const PATTERNS: &[(&str, &str)] = &[
        (
            "SystemTime::now",
            "wall-clock read in a content-addressed path",
        ),
        (
            "Instant::now",
            "monotonic-clock read in a content-addressed path",
        ),
        (
            "thread::current",
            "thread identity in a content-addressed path",
        ),
        (
            "deepsplit_obs",
            "trace telemetry in a content-addressed path",
        ),
        ("obs::span", "trace span in a content-addressed path"),
        ("obs::event", "trace event in a content-addressed path"),
    ];
    let mut out = Vec::new();
    for line in &lexed.lines {
        if line.in_test || allowed(lexed, line.number, "D2") {
            continue;
        }
        // First match wins: `deepsplit_obs::span(…)` is one finding, not one
        // per overlapping pattern.
        for (pat, what) in PATTERNS {
            if line.code.contains(pat) {
                out.push(finding(
                    "D2",
                    file,
                    line.number,
                    format!("{what} (`{pat}`)"),
                    "derive the value from inputs, or thread it in as an explicit parameter",
                ));
                break;
            }
        }
    }
    out
}

/// P1: panic sites inside worker request paths — `unwrap`/`expect`,
/// panic-family macros, and bare slice indexing.
pub(crate) fn check_p1(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    const HINT: &str =
        "return an error (map to a 4xx/5xx response or EngineError) instead of panicking";
    let mut out = Vec::new();
    for line in &lexed.lines {
        if line.in_test || allowed(lexed, line.number, "P1") {
            continue;
        }
        let code = &line.code;
        for pat in [
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
        ] {
            // Exact patterns: `.unwrap()` never matches the unwrap_or
            // family, `.expect(` never matches `.expect_err(`.
            let mut rest = code.as_str();
            while let Some(pos) = rest.find(pat) {
                out.push(finding(
                    "P1",
                    file,
                    line.number,
                    format!("`{}` in a worker request path", pat.trim_end_matches('(')),
                    HINT,
                ));
                rest = &rest[pos + pat.len()..];
            }
        }
        out.extend(slice_index_findings(file, line.number, code));
    }
    out
}

/// Flags `expr[…]` indexing (panics on out-of-bounds) while skipping
/// attribute lines, type positions (`[u8; 4]`, `&[T]`) and macro arrays
/// (`vec![…]`).
fn slice_index_findings(file: &str, number: usize, code: &str) -> Vec<Finding> {
    let trimmed = code.trim_start();
    if trimmed.starts_with('#') {
        return Vec::new(); // attribute, e.g. #[derive(...)]
    }
    let mut out = Vec::new();
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        // Previous non-space char decides: indexing follows an expression
        // (ident, `)`, `]`), everything else is a type/slice/macro position.
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace());
        let is_index = matches!(prev, Some(&p) if is_ident(p) || p == ')' || p == ']');
        // `vec![…]` and friends: previous char is `!`.
        if is_index && prev != Some(&'!') {
            // Empty index (`[]`) is a type; `[..]`-style full-range slices of
            // known-length buffers are still flagged — they panic the same.
            let inner_start = i + 1;
            let inner_is_empty = chars.get(inner_start) == Some(&']');
            if !inner_is_empty {
                out.push(Finding {
                    rule: "P1".to_string(),
                    file: file.to_string(),
                    line: number,
                    message: "slice/array indexing can panic in a worker request path".to_string(),
                    hint: "use .get()/.get_mut() or strip_prefix and handle the None".to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unordered_from(src: &str) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        collect_unordered_idents(&lex(src), &mut set);
        set
    }

    #[test]
    fn unordered_idents_cover_decl_forms() {
        let set = unordered_from(
            "struct S { budget: HashMap<u32, i64>, names: Vec<String> }\n\
             fn f(seen: &mut HashSet<u64>) {}\n\
             let mut cache = HashMap::new();\n\
             let fine: BTreeMap<u32, u32> = BTreeMap::new();\n",
        );
        assert!(set.contains("budget"));
        assert!(set.contains("seen"));
        assert!(set.contains("cache"));
        assert!(!set.contains("names"));
        assert!(!set.contains("fine"));
    }

    #[test]
    fn d1_flags_keys_iteration_and_for_loops() {
        let src =
            "let ids: Vec<u32> = budget.keys().copied().collect();\nfor (k, v) in &budget {\n}\n";
        let mut set = BTreeSet::new();
        set.insert("budget".to_string());
        let found = check_d1("x.rs", &lex(src), &set);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn d1_ignores_lookup_and_allowed_lines() {
        let src = "let v = budget.get(&k);\n\
                   // splint::allow(D1, \"min/max fold is order-independent\")\n\
                   let lo = budget.keys().min();\n";
        let mut set = BTreeSet::new();
        set.insert("budget".to_string());
        assert!(check_d1("x.rs", &lex(src), &set).is_empty());
    }

    #[test]
    fn d2_flags_clock_reads() {
        let found = check_d2("x.rs", &lex("let t = SystemTime::now();\n"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "D2");
    }

    #[test]
    fn d2_flags_obs_call_sites_once_per_line() {
        // `deepsplit_obs::span` overlaps two patterns — still one finding.
        let src = "let _s = deepsplit_obs::span(\"resolve\");\n\
                   obs::event(\"epoch_loss\", Some(loss));\n\
                   use deepsplit_obs as obs;\n\
                   let latency_ms = snapshot.p50_ms;\n";
        let found = check_d2("x.rs", &lex(src));
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2, 3], "one finding per obs line: {found:?}");
        assert!(found[0].message.contains("trace telemetry"));
        assert!(found[1].message.contains("trace event"));
    }

    #[test]
    fn p1_flags_panics_not_fallbacks() {
        let src = "let a = x.unwrap();\nlet b = y.unwrap_or(0);\nlet c = z.expect(\"nope\");\nlet d = w.expect_err(\"e\");\npanic!(\"boom\");\n";
        let found = check_p1("x.rs", &lex(src));
        let rules: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert!(rules.contains(&1), "unwrap flagged");
        assert!(!rules.contains(&2), "unwrap_or is fine");
        assert!(rules.contains(&3), "expect flagged");
        assert!(!rules.contains(&4), "expect_err is fine");
        assert!(rules.contains(&5), "panic! flagged");
    }

    #[test]
    fn p1_flags_indexing_not_types() {
        let src = "let x = buf[0];\nlet t: [u8; 4] = [0; 4];\nlet v = vec![1, 2];\nlet s: &[u8] = &buf;\n";
        let found: Vec<usize> = check_p1("x.rs", &lex(src)).iter().map(|f| f.line).collect();
        assert!(found.contains(&1), "buf[0] flagged");
        assert!(!found.contains(&2), "array type is fine");
        assert!(!found.contains(&3), "vec! macro is fine");
        assert!(!found.contains(&4), "slice type is fine");
    }

    #[test]
    fn p1_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(check_p1("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn a0_demands_known_rule_and_reason() {
        let src = "a.unwrap(); // splint::allow(P1)\nb.unwrap(); // splint::allow(Z9, \"what\")\n";
        let found = check_allows("x.rs", &lex(src));
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.rule == "A0"));
    }
}
