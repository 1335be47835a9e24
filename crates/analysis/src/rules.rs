//! The invariant rules and the per-file analysis driver.
//!
//! Five rules, each a named, waivable diagnostic with a `file:line` span:
//!
//! * **D1** — no `HashMap`/`HashSet` *iteration* in result-producing crates.
//!   Hash iteration order is seeded per process, so a single `.iter()` on a
//!   result path silently breaks the bit-determinism the two backends and
//!   every shard count are oracled against. Lookups (`get`/`insert`/
//!   `contains`) are fine; iteration must go through a `BTreeMap`, or carry a
//!   waiver.
//! * **D2** — `Instant::now`/`SystemTime` only inside the allowlisted timing
//!   surface (`rld-exec`, `rld-bench`: the `StageTimings`/`ExecReport`
//!   wall-clock paths). Anywhere else, wall time could feed tuple results.
//! * **U1** — no `unsafe` anywhere: the workspace has no `unsafe` code, and
//!   every crate root is `#![forbid(unsafe_code)]`.
//! * **L1** — no `.lock()` guard combined with a second `.lock()` or a
//!   channel transfer (`send`/`recv`/`try_recv`/...) in the same statement
//!   chain — the shape every future deadlock here would take.
//! * **V1** — a `pub` item of an audited library crate is named outside
//!   that crate: its identifier appears in another crate's sources, in the
//!   benchmark package's, or in a doctest. Anything else is `pub(crate)`.
//!   V1 is the one workspace-wide rule ([`rule_v1`]); the others read one
//!   file at a time.
//!
//! A diagnostic is waived by `// rld-allow(<rule>): <reason>` on the same
//! line or the line directly above; waivers are counted in the report so
//! they stay visible instead of becoming invisible tribal knowledge.
//!
//! The scanner is lexical (see [`crate::lexer`]): it tracks let-bindings,
//! type ascriptions and struct fields to learn which names are hash
//! containers, and it skips `#[cfg(test)]` items for D1/D2/L1 (test-only
//! wall-clock or iteration cannot reach a result path). This is a
//! heuristic, not a type checker — the waiver mechanism is the escape
//! hatch for the false positives a lexical pass cannot avoid.

use crate::lexer::{lex, Lexed, Token};
use std::collections::{BTreeMap, BTreeSet};

/// The result-producing crates D1 applies to: anything whose output feeds
/// tuple results, metrics folds, placement or plan enumeration.
pub const RESULT_CRATES: &[&str] = &[
    "rld-common",
    "rld-engine",
    "rld-exec",
    "rld-logical",
    "rld-physical",
    "rld-paramspace",
    "rld-workloads",
];

/// Crates whose wall-clock reads are allowlisted for D2 (the
/// `StageTimings`/`ExecReport` timing surface and the bench harness).
pub const TIMING_CRATES: &[&str] = &["rld-exec", "rld-bench"];

/// The library crates V1 audits: every one but the auditor itself and the
/// bench harness, whose `pub` items are its binaries' API.
pub const AUDITED_CRATES: &[&str] = &[
    "rld-common",
    "rld-core",
    "rld-engine",
    "rld-exec",
    "rld-logical",
    "rld-paramspace",
    "rld-physical",
    "rld-query",
    "rld-workloads",
];

/// Map-iteration methods D1 flags on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Channel transfer methods L1 refuses to combine with a held lock.
const CHANNEL_METHODS: &[&str] = &["send", "recv", "try_send", "try_recv", "recv_timeout"];

/// The five rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Hash-order nondeterminism on a result path.
    D1,
    /// Wall clock outside the timing surface.
    D2,
    /// No unsafe code.
    U1,
    /// Lock discipline.
    L1,
    /// A `pub` item is named outside its crate.
    V1,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::U1, RuleId::L1, RuleId::V1];

    /// The rule's short identifier, as used in `rld-allow(...)`.
    pub fn code(&self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::U1 => "U1",
            RuleId::L1 => "L1",
            RuleId::V1 => "V1",
        }
    }

    /// One-line description for reports.
    pub fn summary(&self) -> &'static str {
        match self {
            RuleId::D1 => "no HashMap/HashSet iteration in result-producing crates",
            RuleId::D2 => "wall clock (Instant::now/SystemTime) only in the timing surface",
            RuleId::U1 => "no unsafe code in any scanned file",
            RuleId::L1 => "no lock guard across a second lock or a channel transfer",
            RuleId::V1 => "a pub item of a library crate is named outside its crate",
        }
    }

    fn parse(code: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.code() == code)
    }
}

/// One finding: a named rule violated at a `file:line` span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

/// One `// rld-allow(<rule>): <reason>` waiver that suppressed (or could
/// suppress) a diagnostic.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule being waived.
    pub rule: RuleId,
    /// Repo-relative path.
    pub path: String,
    /// 1-indexed line the waiver comment sits on.
    pub line: usize,
    /// The stated reason (everything after the colon).
    pub reason: String,
}

/// Everything the analysis learned about one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Diagnostics that survived waiver filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// Waivers found in the file (whether or not they fired).
    pub waivers: Vec<Waiver>,
    /// Number of tokens scanned.
    pub tokens: usize,
    /// Lines carrying at least one token outside `#[cfg(test)]` items —
    /// blank and comment-only lines do not count.
    pub code_lines: usize,
    /// `pub` items (fn, struct, enum, trait, type, const, static, mod)
    /// outside `#[cfg(test)]` items; restricted visibilities
    /// (`pub(crate)`), fields and re-exports do not count.
    pub pub_items: usize,
}

/// Analyze one source file. `path` is the repo-relative path (used in
/// spans), `crate_name` the owning package (used for the D1/D2 crate
/// scoping).
pub fn analyze_source(path: &str, crate_name: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let in_test = test_regions(&lexed.tokens);
    let waivers = collect_waivers(path, &lexed);
    let mut diags = Vec::new();

    if RESULT_CRATES.contains(&crate_name) {
        rule_d1(path, &lexed, &in_test, &mut diags);
    }
    if !TIMING_CRATES.contains(&crate_name) {
        rule_d2(path, &lexed, &in_test, &mut diags);
    }
    rule_u1(path, &lexed, &mut diags);
    rule_l1(path, &lexed, &in_test, &mut diags);

    diags.retain(|d| !waived(d, &waivers));
    diags.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));

    let (code_lines, pub_items) = size_of(&lexed.tokens, &in_test);
    FileReport {
        diagnostics: diags,
        waivers,
        tokens: lexed.tokens.len(),
        code_lines,
        pub_items,
    }
}

/// Whether a waiver of the diagnostic's rule sits on its line or the line
/// directly above.
fn waived(d: &Diagnostic, waivers: &[Waiver]) -> bool {
    waivers
        .iter()
        .any(|w| w.rule == d.rule && (w.line == d.line || w.line + 1 == d.line))
}

/// Keywords that open an item after a bare `pub`.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "unsafe", "async",
];

/// The non-test size of one file: (lines with a token, `pub` items).
fn size_of(tokens: &[Token], in_test: &[bool]) -> (usize, usize) {
    let mut code_lines = 0usize;
    let mut pub_items = 0usize;
    let mut last_line = 0usize;
    for (i, token) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if token.line != last_line {
            last_line = token.line;
            code_lines += 1;
        }
        let opens_item = tokens
            .get(i + 1)
            .and_then(Token::ident)
            .is_some_and(|next| ITEM_KEYWORDS.contains(&next));
        if token.is_ident("pub") && opens_item {
            pub_items += 1;
        }
    }
    (code_lines, pub_items)
}

/// Parse `rld-allow(<rule>): <reason>` out of every comment.
fn collect_waivers(path: &str, lexed: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find("rld-allow(") else {
            continue;
        };
        let rest = &c.text[at + "rld-allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let Some(rule) = RuleId::parse(rest[..close].trim()) else {
            continue;
        };
        let reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
        out.push(Waiver {
            rule,
            path: path.to_string(),
            line: c.line,
            reason,
        });
    }
    out
}

/// Mark the token ranges belonging to `#[cfg(test)]` items (and, at the
/// caller's discretion via crate naming, whole test packages). Returns one
/// flag per token.
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip the attribute itself (7 tokens: # [ cfg ( test ) ]),
            // then any further attributes, then mark the following item.
            let mut j = i + 7;
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attribute(tokens, j);
            }
            let end = item_end(tokens, j);
            for flag in in_test.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    in_test
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct('#')
        && tokens[i + 1].is_punct('[')
        && tokens[i + 2].is_ident("cfg")
        && tokens[i + 3].is_punct('(')
        && tokens[i + 4].is_ident("test")
        && tokens[i + 5].is_punct(')')
        && tokens[i + 6].is_punct(']')
}

/// Skip a `#[...]` attribute starting at `i` (at the `#`); returns the index
/// just past its closing `]`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// The index just past the end of the item starting at `i`: either the
/// matching `}` of its first top-level brace, or the first top-level `;`.
fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut nest = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest = nest.saturating_sub(1);
        } else if t.is_punct('{') && nest == 0 {
            // Body: consume to the matching close brace.
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return j;
        } else if t.is_punct(';') && nest == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------------
// D1 — hash-container iteration
// ---------------------------------------------------------------------------

fn rule_d1(path: &str, lexed: &Lexed, in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let tokens = &lexed.tokens;
    let hash_names = collect_hash_names(tokens);
    if hash_names.is_empty() {
        return;
    }
    let mut i = 0usize;
    while i < tokens.len() {
        if in_test[i] {
            i += 1;
            continue;
        }
        let Some(name) = tokens[i].ident() else {
            i += 1;
            continue;
        };
        if !hash_names.iter().any(|n| n == name) {
            i += 1;
            continue;
        }
        // `map.iter()` / `self.map.keys()` / ... — a flagged method call.
        if i + 2 < tokens.len() && tokens[i + 1].is_punct('.') {
            if let Some(m) = tokens[i + 2].ident() {
                if ITER_METHODS.contains(&m) && tokens.get(i + 3).is_some_and(|t| t.is_punct('(')) {
                    diags.push(d1_diag(path, tokens[i + 2].line, name, m));
                    i += 3;
                    continue;
                }
            }
        }
        // `for pat in [&][mut] [self.] map {` — direct iteration.
        if directly_iterated(tokens, i) {
            diags.push(d1_diag(path, tokens[i].line, name, "for … in"));
        }
        i += 1;
    }
}

fn d1_diag(path: &str, line: usize, name: &str, how: &str) -> Diagnostic {
    Diagnostic {
        rule: RuleId::D1,
        path: path.to_string(),
        line,
        message: format!("hash container `{name}` is iterated (`{how}`) on a result path"),
        help: "hash iteration order is nondeterministic; iterate a BTreeMap instead, or \
               waive with // rld-allow(D1): <reason>"
            .to_string(),
    }
}

/// Names lexically bound to a `HashMap`/`HashSet`: type-ascribed fields and
/// params (`name: HashMap<...>`) and let-bindings whose initializer mentions
/// a hash constructor (`let name = HashMap::new()`).
fn collect_hash_names(tokens: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut bind = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for i in 0..tokens.len() {
        let Some(id) = tokens[i].ident() else {
            continue;
        };
        if id == "HashMap" || id == "HashSet" {
            // Walk back over a `path::` prefix (`std :: collections ::`).
            let mut j = i;
            while j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
                j -= 2;
                if j >= 1 && tokens[j - 1].ident().is_some() {
                    j -= 1;
                } else {
                    break;
                }
            }
            // Skip reference sigils (`& mut`) between the colon and the type
            // so `name: &HashMap<...>` params bind too.
            while j >= 1 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_ident("mut")) {
                j -= 1;
            }
            // `name : [&mut] [path::]HashMap` — ascription (field, param, let).
            if j >= 2 && tokens[j - 1].is_punct(':') && !tokens[j - 2].is_punct(':') {
                if let Some(n) = tokens[j - 2].ident() {
                    bind(n);
                }
            }
        } else if id == "let" {
            // `let [mut] name [: T] = <rhs containing HashMap/HashSet> ;`
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(n) = tokens.get(j).and_then(|t| t.ident()) else {
                continue;
            };
            // Find the `=` (skipping a type ascription), then scan the
            // initializer up to the terminating `;` at nesting zero.
            let mut k = j + 1;
            let mut nest = 0usize;
            let mut seen_eq = false;
            while let Some(t) = tokens.get(k) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    nest += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if nest == 0 {
                        break;
                    }
                    nest -= 1;
                } else if t.is_punct(';') && nest == 0 {
                    break;
                } else if t.is_punct('=') && nest == 0 {
                    seen_eq = true;
                } else if seen_eq && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
                    bind(n);
                    break;
                }
                k += 1;
            }
        }
    }
    names
}

/// Whether the identifier at `i` is the subject of a `for … in` loop:
/// `for pat in [&][mut] [self .] <ident> {`.
fn directly_iterated(tokens: &[Token], i: usize) -> bool {
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('{')) {
        return false;
    }
    let mut j = i;
    // Step back over `self .` and `& mut`.
    if j >= 2 && tokens[j - 1].is_punct('.') && tokens[j - 2].is_ident("self") {
        j -= 2;
    }
    while j >= 1 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_ident("mut")) {
        j -= 1;
    }
    j >= 1 && tokens[j - 1].is_ident("in")
}

// ---------------------------------------------------------------------------
// D2 — wall clock outside the timing surface
// ---------------------------------------------------------------------------

fn rule_d2(path: &str, lexed: &Lexed, in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        let flagged = if tokens[i].is_ident("Instant")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            Some("Instant::now()")
        } else if tokens[i].is_ident("SystemTime") {
            Some("SystemTime")
        } else {
            None
        };
        if let Some(what) = flagged {
            diags.push(Diagnostic {
                rule: RuleId::D2,
                path: path.to_string(),
                line: tokens[i].line,
                message: format!("wall-clock read (`{what}`) outside the timing surface"),
                help: "only rld-exec/rld-bench may read the wall clock (StageTimings/ExecReport); \
                       anywhere else it can leak into tuple results — derive times from the \
                       simulated clock, or waive with // rld-allow(D2): <reason>"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// U1 — no unsafe code
// ---------------------------------------------------------------------------

fn rule_u1(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    for t in lexed.tokens.iter().filter(|t| t.is_ident("unsafe")) {
        diags.push(Diagnostic {
            rule: RuleId::U1,
            path: path.to_string(),
            line: t.line,
            message: "`unsafe` in a workspace that has none".to_string(),
            help: "every crate is #![forbid(unsafe_code)]; use a safe std abstraction \
                   (bounded channels, Arc, atomics), or waive with // rld-allow(U1): <reason>"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// L1 — lock discipline
// ---------------------------------------------------------------------------

fn rule_l1(path: &str, lexed: &Lexed, in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let tokens = &lexed.tokens;
    let mut seg_start = 0usize;
    let mut i = 0usize;
    while i <= tokens.len() {
        let boundary = i == tokens.len()
            || tokens[i].is_punct(';')
            || tokens[i].is_punct('{')
            || tokens[i].is_punct('}');
        if boundary {
            check_l1_segment(path, tokens, in_test, seg_start, i, diags);
            seg_start = i + 1;
        }
        i += 1;
    }
}

/// Scan one statement chain (tokens in `[start, end)`) for a lock guard
/// combined with a second lock or a channel transfer.
fn check_l1_segment(
    path: &str,
    tokens: &[Token],
    in_test: &[bool],
    start: usize,
    end: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let mut locks: Vec<usize> = Vec::new();
    let mut channels: Vec<(usize, &str)> = Vec::new();
    let mut j = start;
    while j + 2 < end.min(tokens.len()) {
        if tokens[j].is_punct('.') && tokens[j + 2].is_punct('(') {
            if let Some(m) = tokens[j + 1].ident() {
                if m == "lock" {
                    locks.push(j + 1);
                } else if CHANNEL_METHODS.contains(&m) {
                    channels.push((j + 1, m));
                }
            }
        }
        j += 1;
    }
    if locks.is_empty() || in_test.get(locks[0]).copied().unwrap_or(false) {
        return;
    }
    if locks.len() >= 2 {
        let at = locks[1];
        diags.push(Diagnostic {
            rule: RuleId::L1,
            path: path.to_string(),
            line: tokens[at].line,
            message: "two `.lock()` guards acquired in the same statement chain".to_string(),
            help: "nested guards are the deadlock shape; split the statement so the first \
                   guard drops before the second lock, or waive with // rld-allow(L1): <reason>"
                .to_string(),
        });
    }
    if let Some((at, m)) = channels.first() {
        let at = (*at).max(locks[0]);
        diags.push(Diagnostic {
            rule: RuleId::L1,
            path: path.to_string(),
            line: tokens[at].line,
            message: format!("`.lock()` guard held across a channel transfer (`.{m}()`)"),
            help: "a blocked transfer with a held guard deadlocks the lock's other users; \
                   move the transfer out of the locked statement, or waive with \
                   // rld-allow(L1): <reason>"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// V1 — a pub item is named outside its crate
// ---------------------------------------------------------------------------

/// One source file as the workspace-wide rule [`rule_v1`] reads it.
#[derive(Debug, Clone, Copy)]
pub struct SourceFile<'a> {
    /// Repo-relative path (forward slashes).
    pub path: &'a str,
    /// The owning package: `rld-common`, …, or any other label for a
    /// package that only names items (the benchmark's).
    pub crate_name: &'a str,
    /// The source text.
    pub text: &'a str,
}

/// The item kinds V1 audits after a bare `pub`.
const V1_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// V1 over a whole tree: every non-test `pub` item of an
/// [`AUDITED_CRATES`] crate whose identifier appears nowhere outside that
/// crate. A name counts where it is a token of another package's source
/// (its tests included) or of a doctest, which compiles as an outside
/// crate; `pub use` statements in `rld-core` do not count, since a
/// re-export alone calls nothing. A lexical check: a name shared with
/// another item keeps both `pub`, never the reverse.
pub fn rule_v1(sources: &[SourceFile<'_>]) -> Vec<Diagnostic> {
    let lexed: Vec<Lexed> = sources.iter().map(|s| lex(s.text)).collect();
    // Which packages name each identifier; doctests count as a package of
    // their own.
    let mut named_by: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (source, lexed) in sources.iter().zip(&lexed) {
        let skip = if source.crate_name == "rld-core" {
            reexport_regions(&lexed.tokens)
        } else {
            vec![false; lexed.tokens.len()]
        };
        for (token, _) in lexed.tokens.iter().zip(&skip).filter(|(_, s)| !**s) {
            if let Some(name) = token.ident() {
                named_by.entry(name).or_default().insert(source.crate_name);
            }
        }
    }
    let doctest_names: Vec<Vec<String>> = lexed.iter().map(doctest_idents).collect();
    for names in &doctest_names {
        for name in names {
            named_by.entry(name).or_default().insert("doctest");
        }
    }

    let mut diags = Vec::new();
    for (source, lexed) in sources.iter().zip(&lexed) {
        if !AUDITED_CRATES.contains(&source.crate_name) {
            continue;
        }
        let in_test = test_regions(&lexed.tokens);
        let waivers = collect_waivers(source.path, lexed);
        for (line, kind, name) in pub_items(&lexed.tokens, &in_test) {
            let outside = named_by
                .get(name)
                .is_some_and(|by| by.iter().any(|c| *c != source.crate_name));
            if outside {
                continue;
            }
            let d = Diagnostic {
                rule: RuleId::V1,
                path: source.path.to_string(),
                line,
                message: format!(
                    "`pub {kind} {name}` is named by no crate outside {}",
                    source.crate_name
                ),
                help: "make it pub(crate) (and delete what the compiler then reports unused), \
                       or, when another public signature reaches it, waive with \
                       // rld-allow(V1): <reason>"
                    .to_string(),
            };
            if !waived(&d, &waivers) {
                diags.push(d);
            }
        }
    }
    diags
}

/// The non-test `pub` items of one file as (line, kind, name): `pub`, then
/// `const fn` or a [`V1_KINDS`] keyword, then the identifier.
fn pub_items<'t>(tokens: &'t [Token], in_test: &[bool]) -> Vec<(usize, &'t str, &'t str)> {
    let mut items = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if in_test[i] || !token.is_ident("pub") {
            continue;
        }
        let const_fn = tokens.get(i + 1).is_some_and(|t| t.is_ident("const"))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("fn"));
        let j = i + 1 + usize::from(const_fn);
        let kind = tokens.get(j).and_then(Token::ident);
        let name = tokens.get(j + 1).and_then(Token::ident);
        if let (Some(kind), Some(name)) = (kind, name) {
            if V1_KINDS.contains(&kind) {
                items.push((token.line, kind, name));
            }
        }
    }
    items
}

/// One flag per token: inside a `pub use …;` statement.
fn reexport_regions(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].is_ident("pub") && tokens[i + 1].is_ident("use") {
            let end = item_end(tokens, i);
            for flag in flags.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    flags
}

/// The identifiers of the code blocks in a file's doc comments — what its
/// doctests name. A block fenced as `text` is prose, not a doctest.
fn doctest_idents(lexed: &Lexed) -> Vec<String> {
    let mut names = Vec::new();
    let mut code = String::new();
    let mut fence: Option<bool> = None; // Some(is a doctest) inside a block
    for comment in &lexed.comments {
        let text = comment.text.as_str();
        match (fence, text.strip_prefix("```")) {
            (None, Some(lang)) => fence = Some(lang.trim() != "text"),
            (Some(_), Some(_)) => fence = None,
            (Some(true), None) => {
                code.push_str(text);
                code.push('\n');
            }
            _ => {}
        }
    }
    names.extend(
        lex(&code)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string)),
    );
    names
}
