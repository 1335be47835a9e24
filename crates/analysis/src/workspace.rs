//! Workspace discovery: find every first-party Rust source under the repo
//! root and attribute it to its owning crate.
//!
//! Scanned: `crates/**`, `tests/**`, `examples/**`. Skipped: `vendor/`
//! (offline stand-ins for external crates — not our invariant surface),
//! `target/`, dotdirs, and `tests/fixtures/` (the lint corpus is
//! *deliberately* in violation). The benchmark package's sources
//! (`benchmark/src/**`) are read but not audited: they call the workspace's
//! public API, which is what rule V1 needs to know.

use crate::report::Report;
use crate::rules::{analyze_source, rule_v1, SourceFile};
use std::io;
use std::path::{Path, PathBuf};

/// A discovered workspace tree rooted at the repository checkout.
#[derive(Debug)]
pub struct Workspace {
    root: PathBuf,
    /// Repo-relative source paths (forward slashes), sorted.
    files: Vec<String>,
    /// The benchmark package's sources: read for the names they call.
    callers: Vec<String>,
}

impl Workspace {
    /// Discover the first-party sources under `root`.
    pub fn discover(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        for top in ["crates", "tests", "examples"] {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(root, &dir, &mut files)?;
            }
        }
        files.sort();
        let mut callers = Vec::new();
        let benchmark = root.join("benchmark/src");
        if benchmark.is_dir() {
            walk(root, &benchmark, &mut callers)?;
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            callers,
        })
    }

    /// Locate the workspace root: walk upward from `start` looking for a
    /// directory that holds both a `Cargo.toml` and a `crates/` dir.
    pub fn find_root(start: &Path) -> Option<PathBuf> {
        let mut dir = Some(start);
        while let Some(d) = dir {
            if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
                return Some(d.to_path_buf());
            }
            dir = d.parent();
        }
        None
    }

    /// The repo-relative paths that will be audited.
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Run every rule over every discovered file.
    pub fn check(&self) -> io::Result<Report> {
        let mut report = Report::default();
        let mut texts = Vec::new();
        for rel in &self.files {
            let src = std::fs::read_to_string(self.root.join(rel))?;
            let file_report = analyze_source(rel, &crate_of(rel), &src);
            texts.push((rel, crate_of(rel), src));
            report.tokens_scanned += file_report.tokens;
            report.diagnostics.extend(file_report.diagnostics);
            report.waivers.extend(file_report.waivers);
            report.files_scanned.push(rel.clone());
            if !rel.split('/').any(|dir| dir == "tests") {
                let size = report.sizes.entry(crate_of(rel)).or_default();
                size.files += 1;
                size.code_lines += file_report.code_lines;
                size.pub_items += file_report.pub_items;
            }
        }
        for rel in &self.callers {
            let src = std::fs::read_to_string(self.root.join(rel))?;
            texts.push((rel, crate_of(rel), src));
        }
        let sources: Vec<SourceFile<'_>> = texts
            .iter()
            .map(|(path, crate_name, text)| SourceFile {
                path,
                crate_name,
                text,
            })
            .collect();
        report.diagnostics.extend(rule_v1(&sources));
        report
            .diagnostics
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        Ok(report)
    }
}

/// The owning package of a repo-relative path (`crates/common/...` →
/// `rld-common`; the `tests/` and `examples/` helper packages likewise).
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some(name) => format!("rld-{name}"),
            None => "rld-unknown".to_string(),
        },
        Some("tests") => "rld-tests".to_string(),
        Some("examples") => "rld-examples".to_string(),
        Some("benchmark") => "rld-benchmark".to_string(),
        _ => "rld-unknown".to_string(),
    }
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/common/src/lib.rs"), "rld-common");
        assert_eq!(crate_of("crates/exec/src/columnar/mod.rs"), "rld-exec");
        assert_eq!(crate_of("tests/tests/analysis.rs"), "rld-tests");
        assert_eq!(crate_of("examples/quickstart.rs"), "rld-examples");
    }

    #[test]
    fn discovers_this_workspace() {
        let root = Workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let ws = Workspace::discover(&root).unwrap();
        // The auditor sees its own source, the executors, and the tests
        // package — and never the vendor stubs or the fixture corpus.
        assert!(ws
            .files()
            .iter()
            .any(|f| f == "crates/analysis/src/workspace.rs"));
        assert!(ws
            .files()
            .iter()
            .any(|f| f == "crates/exec/src/columnar/mod.rs"));
        assert!(!ws.files().iter().any(|f| f.starts_with("vendor/")));
        assert!(!ws.files().iter().any(|f| f.contains("fixtures/")));
        assert!(ws.files().len() > 60, "found {}", ws.files().len());
    }
}
