//! A small Rust-source lexer: per-line code with comment and literal
//! *contents* stripped, plus the comment text itself (where `splint::allow`
//! annotations live) and `#[cfg(test)]` / `#[test]` region marking.
//!
//! The rules in [`crate::rules`] match token patterns on the stripped code,
//! so a pattern string inside a string literal (including splint's own rule
//! tables) or a commented-out `unwrap()` can never produce a finding.

/// One lexed source line.
#[derive(Debug, Clone)]
pub(crate) struct SourceLine {
    /// 1-based line number.
    pub number: usize,
    /// Code with comments removed and string/char literal contents blanked
    /// (the delimiting quotes survive, so `.expect("msg")` lexes to
    /// `.expect("")` and token patterns still match).
    pub code: String,
    /// Concatenated comment text of the line (line and block comments).
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` module or `#[test]`
    /// function body.
    pub in_test: bool,
}

/// A `// splint::allow(RULE, "reason")` annotation, attached to the line of
/// code it suppresses.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    /// The rule id being allowed (as written).
    pub rule: String,
    /// The justification string; `None` when missing or empty — which is
    /// itself a finding (rule `A0`).
    pub reason: Option<String>,
    /// Line the annotation appears on.
    pub annotation_line: usize,
    /// Line of code the annotation applies to.
    pub applies_to: usize,
}

/// A fully lexed file.
#[derive(Debug, Clone)]
pub(crate) struct LexedFile {
    /// The lexed lines, in order.
    pub lines: Vec<SourceLine>,
    /// Every allow annotation, keyed by the line it applies to via
    /// [`Allow::applies_to`].
    pub allows: Vec<Allow>,
}

impl LexedFile {
    /// The allows that apply to `line` (1-based).
    pub(crate) fn allows_for(&self, line: usize) -> impl Iterator<Item = &Allow> {
        self.allows.iter().filter(move |a| a.applies_to == line)
    }
}

/// Lexes `source` into stripped lines, allow annotations and test regions.
pub(crate) fn lex(source: &str) -> LexedFile {
    let mut lines = split_and_strip(source);
    mark_test_regions(&mut lines);
    let allows = collect_allows(&lines);
    LexedFile { lines, allows }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Phase 1: state-machine pass producing stripped code + comment text per
/// line. Handles nested block comments, raw strings (`r#"…"#`), byte
/// strings, char literals and lifetimes.
fn split_and_strip(source: &str) -> Vec<SourceLine> {
    let mut out = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut code = String::new();
    let mut comment = String::new();
    let mut number = 1usize;
    let mut state = State::Code;
    let mut i = 0usize;

    // Closes the current raw-string opener if `chars[i..]` starts one;
    // returns the hash count.
    let raw_open = |i: usize| -> Option<u32> {
        let mut j = i;
        if chars.get(j) == Some(&'b') {
            j += 1;
        }
        if chars.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
        let mut hashes = 0u32;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        (chars.get(j) == Some(&'"')).then_some(hashes)
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            out.push(SourceLine {
                number,
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            number += 1;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if (c == 'r' || c == 'b') && raw_open(i).is_some() {
                    let hashes = raw_open(i).unwrap_or(0);
                    // Skip past the opening quote.
                    while i < chars.len() && chars[i] != '"' {
                        i += 1;
                    }
                    code.push('"');
                    i += 1;
                    state = State::RawStr(hashes);
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes with a
                    // quote one (escaped: more) char later.
                    let is_char = matches!(
                        (chars.get(i + 1), chars.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        code.push('\'');
                        state = State::Char;
                    } else {
                        code.push('\''); // lifetime tick
                    }
                    i += 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char (contents are dropped)
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        code.push('"');
                        state = State::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        out.push(SourceLine {
            number,
            code,
            comment,
            in_test: false,
        });
    }
    out
}

/// Phase 2: marks lines inside `#[cfg(test)]`-attributed items and `#[test]`
/// function bodies. Brace-depth based: the attribute arms a pending region
/// that opens at the next `{` and closes when the depth returns.
fn mark_test_regions(lines: &mut [SourceLine]) {
    let mut depth = 0i32;
    let mut pending = false;
    // Depths at which a test region opened; lines are in-test while nonempty.
    let mut regions: Vec<i32> = Vec::new();
    for line in lines.iter_mut() {
        if !regions.is_empty() {
            line.in_test = true;
        }
        let code = line.code.clone();
        if code.contains("#[cfg(test)]") || code.contains("#[test]") {
            pending = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending {
                        regions.push(depth);
                        pending = false;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                // `#[cfg(test)] use …;` — an attribute on a braceless item
                // arms nothing past the statement.
                ';' if pending && regions.is_empty() => pending = false,
                _ => {}
            }
        }
    }
}

/// Phase 3: extracts `splint::allow(RULE, "reason")` annotations from the
/// comment text and binds each to the line of code it governs — the same
/// line when the line carries code, otherwise the next line that does.
///
/// Only a comment that *leads* with the annotation counts, so prose that
/// merely mentions the syntax (like this doc) never suppresses anything.
fn collect_allows(lines: &[SourceLine]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lead = line.comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
        if let Some(rest) = lead.strip_prefix("splint::allow(") {
            // Last `)` closes the annotation, so a reason string may itself
            // contain parentheses.
            let Some(close) = rest.rfind(')') else {
                continue;
            };
            let inside = &rest[..close];
            let (rule, reason) = parse_allow_args(inside);
            let applies_to = if line.code.trim().is_empty() {
                lines[idx + 1..]
                    .iter()
                    .find(|l| !l.code.trim().is_empty())
                    .map(|l| l.number)
                    .unwrap_or(line.number)
            } else {
                line.number
            };
            allows.push(Allow {
                rule,
                reason,
                annotation_line: line.number,
                applies_to,
            });
        }
    }
    allows
}

/// Splits `RULE, "reason"` (or `RULE, reason = "reason"`); a missing or
/// empty reason comes back as `None`.
fn parse_allow_args(inside: &str) -> (String, Option<String>) {
    let (rule, rest) = match inside.split_once(',') {
        Some((r, rest)) => (r.trim().to_string(), rest.trim()),
        None => (inside.trim().to_string(), ""),
    };
    let rest = rest.strip_prefix("reason").map_or(rest, |r| {
        r.trim_start().strip_prefix('=').unwrap_or(r).trim_start()
    });
    let reason = rest
        .strip_prefix('"')
        .and_then(|r| r.rfind('"').map(|end| r[..end].to_string()))
        .filter(|r| !r.trim().is_empty());
    (rule, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_literal_contents() {
        let f = lex("let x = \"a.unwrap()\"; // trailing .unwrap()\nlet c = 'x';\n");
        assert_eq!(f.lines[0].code.trim(), "let x = \"\";");
        assert!(f.lines[0].comment.contains(".unwrap()"));
        assert_eq!(f.lines[1].code.trim(), "let c = '';");
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let f =
            lex("let r = r#\"has .expect( inside\"#;\n/* outer /* inner */ still */ let y = 1;\n");
        assert_eq!(f.lines[0].code.trim(), "let r = \"\";");
        assert_eq!(f.lines[1].code.trim(), "let y = 1;");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(f.lines[0].code.contains("<'a>"));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn live2() {}\n";
        let f = lex(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside the test module");
        assert!(!f.lines[5].in_test, "after the test module closes");
    }

    #[test]
    fn allow_annotations_bind_to_code_lines() {
        let src = "// splint::allow(P1, \"tested invariant\")\nx.unwrap();\ny.unwrap(); // splint::allow(P1)\n";
        let f = lex(src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "P1");
        assert_eq!(f.allows[0].reason.as_deref(), Some("tested invariant"));
        assert_eq!(f.allows[0].applies_to, 2);
        assert_eq!(f.allows[1].reason, None, "reasonless allow");
        assert_eq!(f.allows[1].applies_to, 3);
    }

    #[test]
    fn allow_reason_may_contain_parens_and_commas() {
        let f = lex(
            "// splint::allow(P1, \"caught by handle(), so a 500, not a crash\")\nx.unwrap();\n",
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(
            f.allows[0].reason.as_deref(),
            Some("caught by handle(), so a 500, not a crash")
        );
    }

    #[test]
    fn allow_reason_keyword_form() {
        let (rule, reason) = parse_allow_args("D1, reason = \"order-independent fold\"");
        assert_eq!(rule, "D1");
        assert_eq!(reason.as_deref(), Some("order-independent fold"));
    }
}
