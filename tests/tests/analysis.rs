//! The invariant auditor against its fixture corpus and the live tree.
//!
//! Two halves:
//!
//! 1. **Every rule fires.** Each known-bad snippet under
//!    `tests/fixtures/analysis/` (excluded from workspace discovery) is fed
//!    through [`rld_analysis::analyze_source`] under the crate/path label
//!    that puts it in the rule's scope, and the expected diagnostics — rule,
//!    count, line — are asserted. A lint that cannot fail a bad tree is
//!    decoration.
//! 2. **This tree is clean.** The same auditor run CI gates on
//!    (`cargo run -p rld-analysis -- check`) is replayed in-process over the
//!    real workspace and must report zero violations — with the documented
//!    waivers (the solver wall-clock sites) present and counted, and no D1
//!    waiver at all.

use rld_analysis::{analyze_source, rule_v1, FileReport, RuleId, SourceFile, Workspace};
use std::path::Path;

/// Load a fixture and analyze it under the given repo-relative path label
/// and owning-crate label (the labels select which rules are in scope).
fn analyze_fixture(fixture: &str, path_label: &str, crate_label: &str) -> FileReport {
    let on_disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/analysis")
        .join(fixture);
    let src = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
    analyze_source(path_label, crate_label, &src)
}

fn fixture(name: &str) -> String {
    let on_disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/analysis")
        .join(name);
    std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()))
}

/// V1 over the three-file corpus, with the library labelled `library_crate`
/// and the caller `caller_crate`; returns the flagged lines of the library.
fn v1_lines(library_crate: &str, caller_crate: &str) -> Vec<usize> {
    let (library, caller, reexport) = (
        fixture("v1_library.rs"),
        fixture("v1_caller.rs"),
        fixture("v1_reexport.rs"),
    );
    let sources = [
        SourceFile {
            path: "crates/common/src/demo.rs",
            crate_name: library_crate,
            text: &library,
        },
        SourceFile {
            path: "crates/engine/src/calls.rs",
            crate_name: caller_crate,
            text: &caller,
        },
        SourceFile {
            path: "crates/core/src/prelude.rs",
            crate_name: "rld-core",
            text: &reexport,
        },
    ];
    let diags = rule_v1(&sources);
    assert!(diags.iter().all(|d| d.rule == RuleId::V1));
    assert!(diags.iter().all(|d| d.path == "crates/common/src/demo.rs"));
    diags.iter().map(|d| d.line).collect()
}

fn lines_of(report: &FileReport, rule: RuleId) -> Vec<usize> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn d1_fires_on_hash_iteration() {
    let r = analyze_fixture(
        "d1_hashmap_iteration.rs",
        "crates/engine/src/bad.rs",
        "rld-engine",
    );
    // Three iteration sites: the `.iter()` fold, the `.keys()` projection,
    // the `for … in &set` loop. The lookup-only function must NOT fire.
    assert_eq!(
        lines_of(&r, RuleId::D1).len(),
        3,
        "diags: {:?}",
        r.diagnostics
    );
    assert!(r.diagnostics.iter().all(|d| d.rule == RuleId::D1));
    assert!(
        r.diagnostics.iter().all(|d| d.help.contains("BTreeMap")),
        "help must point at the sanctioned ordered map"
    );
}

#[test]
fn d1_is_scoped_to_result_crates() {
    // The same source under a non-result crate label (the analyzer itself)
    // is out of scope: lookups and iteration there cannot reach a trace.
    let r = analyze_fixture(
        "d1_hashmap_iteration.rs",
        "crates/analysis/src/bad.rs",
        "rld-analysis",
    );
    assert_eq!(lines_of(&r, RuleId::D1).len(), 0);
}

#[test]
fn d2_fires_on_wall_clock_outside_timing_surface() {
    let r = analyze_fixture(
        "d2_wall_clock.rs",
        "crates/logical/src/bad.rs",
        "rld-logical",
    );
    // `Instant::now()` in tag_batch and `SystemTime` in wall_seed; the
    // `#[cfg(test)]` module's Instant::now() is skipped.
    assert_eq!(
        lines_of(&r, RuleId::D2).len(),
        2,
        "diags: {:?}",
        r.diagnostics
    );
}

#[test]
fn d2_is_allowlisted_in_the_timing_surface() {
    let r = analyze_fixture("d2_wall_clock.rs", "crates/exec/src/bad.rs", "rld-exec");
    assert_eq!(lines_of(&r, RuleId::D2).len(), 0);
}

#[test]
fn u1_fires_outside_the_boundary() {
    // There is no boundary any more: `unsafe` fires in every crate and
    // every file — the executor crate included — SAFETY comment or not.
    for (path, crate_label) in [
        ("crates/common/src/bad.rs", "rld-common"),
        ("crates/exec/src/columnar/bad.rs", "rld-exec"),
    ] {
        let r = analyze_fixture("u1_unsafe.rs", path, crate_label);
        assert_eq!(
            lines_of(&r, RuleId::U1),
            vec![9],
            "diags: {:?}",
            r.diagnostics
        );
        assert!(r.diagnostics[0].help.contains("forbid(unsafe_code)"));
    }
}

#[test]
fn l1_fires_on_guard_across_transfer_and_double_lock() {
    let r = analyze_fixture(
        "l1_lock_across_send.rs",
        "crates/exec/src/bad.rs",
        "rld-exec",
    );
    // One guard-across-send, one double-lock; the split (fixed) variant
    // must not fire.
    assert_eq!(
        lines_of(&r, RuleId::L1).len(),
        2,
        "diags: {:?}",
        r.diagnostics
    );
    let messages: Vec<&str> = r.diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("channel transfer")));
    assert!(messages.iter().any(|m| m.contains("two `.lock()`")));
}

#[test]
fn v1_fires_on_pub_items_no_other_crate_names() {
    // Called only inside, named only by an `rld-core` re-export, named only
    // in a `text` block, and a `const fn` called nowhere. Not flagged: the
    // items the caller names, the doctest's, the waived return type, the
    // `pub(crate)` function and the test module's helper.
    assert_eq!(v1_lines("rld-common", "rld-engine"), vec![22, 32, 35, 52]);
}

#[test]
fn v1_counts_callers_outside_the_audited_crates() {
    // The benchmark package is read for the names it calls.
    assert_eq!(
        v1_lines("rld-common", "rld-benchmark"),
        vec![22, 32, 35, 52]
    );
    // A caller in the same crate is no caller at all.
    assert_eq!(
        v1_lines("rld-common", "rld-common"),
        vec![14, 19, 22, 32, 35, 47, 52]
    );
}

#[test]
fn v1_is_scoped_to_the_library_crates() {
    // The bench harness's `pub` items are its binaries' API.
    assert!(v1_lines("rld-bench", "rld-engine").is_empty());
    // The waiver is the library's one V1 waiver, with its reason.
    let r = analyze_fixture("v1_library.rs", "crates/common/src/demo.rs", "rld-common");
    assert_eq!(r.waivers.len(), 1);
    assert_eq!(r.waivers[0].rule, RuleId::V1);
    assert!(r.waivers[0].reason.contains("make_reached"));
}

#[test]
fn waivers_suppress_and_are_counted() {
    let r = analyze_fixture("waived.rs", "crates/engine/src/waived.rs", "rld-engine");
    assert!(
        r.diagnostics.is_empty(),
        "waived violations must not fire: {:?}",
        r.diagnostics
    );
    // All three waivers (D1, D2, and the inert L1 one) stay visible.
    assert_eq!(r.waivers.len(), 3);
    assert!(r.waivers.iter().any(|w| w.rule == RuleId::D1));
    assert!(r.waivers.iter().any(|w| w.rule == RuleId::D2));
    assert!(r.waivers.iter().any(|w| w.rule == RuleId::L1));
    assert!(
        r.waivers.iter().all(|w| !w.reason.is_empty()),
        "every waiver must state a reason"
    );
}

#[test]
fn the_workspace_tree_is_clean() {
    let root = Workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above tests/");
    let ws = Workspace::discover(&root).expect("discovery");
    let report = ws.check().expect("audit");
    assert!(
        report.is_clean(),
        "the tree must pass its own audit:\n{}",
        report.render_text()
    );
    // The documented waivers are present — suppression stays visible.
    assert!(
        report.waiver_count(RuleId::D2) >= 6,
        "the six solver wall-clock waivers"
    );
    assert_eq!(
        report.waiver_count(RuleId::D1),
        0,
        "no hash iteration is waived on a result path"
    );
    // The interface types only another public signature reaches.
    assert!(
        report.waiver_count(RuleId::V1) >= 10,
        "the V1 waivers of types reached through public signatures"
    );
    // Coverage sanity: the audit actually read the tree.
    assert!(report.files_scanned.len() > 60);
    assert!(report.tokens_scanned > 100_000);
    assert!(report.render_json().contains("\"clean\": true"));
    // The size section: every library crate is listed, test packages are not.
    assert!(report.sizes["rld-engine"].code_lines > 1000);
    assert!(report.sizes["rld-exec"].pub_items > 10);
    assert!(!report.sizes.contains_key("rld-tests"));
    assert!(report.render_json().contains("\"crate\": \"rld-engine\""));
}

#[test]
fn size_counts_non_test_code_lines_and_pub_items() {
    let src = r#"
//! Module docs do not count.

/// Nor do item docs.
pub struct Wide {
    pub field: u32, // a field is not an item
}

pub(crate) fn internal() {}

pub use std::fmt;

pub fn api(
    x: u32,
) -> u32 {
    /* a comment-only line */
    x
}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
"#;
    let report = analyze_source("crates/common/src/x.rs", "rld-common", src);
    // struct (3) + internal (1) + use (1) + api (5).
    assert_eq!(report.code_lines, 10);
    assert_eq!(report.pub_items, 2, "`Wide` and `api`");
}
