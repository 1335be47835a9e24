//! The machine-readable `ANALYSIS.json` report and its text rendering.
//!
//! The auditor is dependency-free, so it carries its own ~60-line JSON
//! emitter (deterministic: object keys in insertion order, files in sorted
//! path order) rather than pulling in the bench harness's parser.

use crate::rules::{Diagnostic, RuleId, Waiver};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The aggregate result of auditing a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned, in sorted repo-relative path order.
    pub files_scanned: Vec<String>,
    /// Total tokens scanned (a cheap proxy for coverage).
    pub tokens_scanned: usize,
    /// All surviving diagnostics, in (path, line, rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// All waivers found, in (path, line) order.
    pub waivers: Vec<Waiver>,
    /// Non-test size per crate, in crate-name order — committed in
    /// `ANALYSIS.json` so a size claim is a diff of that file.
    pub sizes: BTreeMap<String, CrateSize>,
}

/// The non-test size of one crate (files under a `tests/` directory and
/// `#[cfg(test)]` items excluded).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CrateSize {
    /// Source files counted.
    pub files: usize,
    /// Lines carrying at least one non-comment token.
    pub code_lines: usize,
    /// `pub` items (restricted visibilities, fields and re-exports excluded).
    pub pub_items: usize,
}

impl Report {
    /// Whether the tree is clean (no diagnostics).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics for one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Waivers for one rule.
    pub fn waiver_count(&self, rule: RuleId) -> usize {
        self.waivers.iter().filter(|w| w.rule == rule).count()
    }

    /// Render the human-readable summary printed by `check`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "error[{}]: {}\n  --> {}:{}\n  help: {}",
                d.rule.code(),
                d.message,
                d.path,
                d.line,
                d.help
            );
        }
        let _ = writeln!(
            out,
            "rld-analysis: {} files, {} tokens scanned",
            self.files_scanned.len(),
            self.tokens_scanned
        );
        for rule in RuleId::ALL {
            let _ = writeln!(
                out,
                "  {}: {} — {} violation(s), {} waiver(s)",
                rule.code(),
                rule.summary(),
                self.count(rule),
                self.waiver_count(rule)
            );
        }
        let _ = writeln!(
            out,
            "  size: {} non-test code lines, {} pub items in {} crates",
            self.sizes.values().map(|s| s.code_lines).sum::<usize>(),
            self.sizes.values().map(|s| s.pub_items).sum::<usize>(),
            self.sizes.len()
        );
        let _ = writeln!(
            out,
            "{}",
            if self.is_clean() {
                "clean: all invariants hold"
            } else {
                "FAILED: invariant violations found"
            }
        );
        out
    }

    /// Render the `ANALYSIS.json` document.
    pub fn render_json(&self) -> String {
        let mut rules = Vec::new();
        for rule in RuleId::ALL {
            rules.push(Json::Obj(vec![
                ("id".into(), Json::Str(rule.code().into())),
                ("summary".into(), Json::Str(rule.summary().into())),
                ("violations".into(), Json::Num(self.count(rule) as f64)),
                ("waivers".into(), Json::Num(self.waiver_count(rule) as f64)),
            ]));
        }
        let diags = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("rule".into(), Json::Str(d.rule.code().into())),
                    ("file".into(), Json::Str(d.path.clone())),
                    ("line".into(), Json::Num(d.line as f64)),
                    ("message".into(), Json::Str(d.message.clone())),
                    ("help".into(), Json::Str(d.help.clone())),
                ])
            })
            .collect();
        let waivers = self
            .waivers
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("rule".into(), Json::Str(w.rule.code().into())),
                    ("file".into(), Json::Str(w.path.clone())),
                    ("line".into(), Json::Num(w.line as f64)),
                    ("reason".into(), Json::Str(w.reason.clone())),
                ])
            })
            .collect();
        let sizes = self
            .sizes
            .iter()
            .map(|(name, size)| {
                Json::Obj(vec![
                    ("crate".into(), Json::Str(name.clone())),
                    ("files".into(), Json::Num(size.files as f64)),
                    ("code_lines".into(), Json::Num(size.code_lines as f64)),
                    ("pub_items".into(), Json::Num(size.pub_items as f64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("tool".into(), Json::Str("rld-analysis".into())),
            (
                "files_scanned".into(),
                Json::Num(self.files_scanned.len() as f64),
            ),
            (
                "tokens_scanned".into(),
                Json::Num(self.tokens_scanned as f64),
            ),
            ("clean".into(), Json::Bool(self.is_clean())),
            ("rules".into(), Json::Arr(rules)),
            ("diagnostics".into(), Json::Arr(diags)),
            ("waivers".into(), Json::Arr(waivers)),
            ("crates".into(), Json::Arr(sizes)),
            (
                "files".into(),
                Json::Arr(
                    self.files_scanned
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
        ]);
        let mut s = String::new();
        doc.write(&mut s, 0);
        s.push('\n');
        s
    }
}

/// Minimal JSON value for report emission.
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n{}", "  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                let _ = write!(out, "\n{}]", "  ".repeat(indent));
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n{}", "  ".repeat(indent + 1));
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                let _ = write!(out, "\n{}}}", "  ".repeat(indent));
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_renders() {
        let r = Report {
            files_scanned: vec!["crates/common/src/lib.rs".into()],
            tokens_scanned: 100,
            ..Report::default()
        };
        assert!(r.is_clean());
        let json = r.render_json();
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"files_scanned\": 1"));
        let text = r.render_text();
        assert!(text.contains("clean: all invariants hold"));
    }

    #[test]
    fn diagnostics_render_with_spans() {
        let r = Report {
            files_scanned: vec!["x.rs".into()],
            tokens_scanned: 5,
            diagnostics: vec![Diagnostic {
                rule: RuleId::U1,
                path: "x.rs".into(),
                line: 3,
                message: "`unsafe` in a workspace that has none".into(),
                help: "remove it".into(),
            }],
            waivers: vec![Waiver {
                rule: RuleId::D2,
                path: "x.rs".into(),
                line: 9,
                reason: "solver wall \"clock\"".into(),
            }],
            ..Report::default()
        };
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("error[U1]"));
        assert!(text.contains("x.rs:3"));
        let json = r.render_json();
        assert!(json.contains("\"clean\": false"));
        // Quotes in reasons are escaped.
        assert!(json.contains("solver wall \\\"clock\\\""));
    }
}
