//! Seeded regression tests: each rule must catch the PR-shaped
//! counterexample it was written for, and must stay quiet on the fixed
//! shape. The bad fixtures are distilled from real bugs this repo has
//! already fixed by hand (the posix shim's table mutex held across
//! backend I/O; fsck's empty `_ => {}` wildcard over `Issue`).
//! guard-across-io is semantic, so its fixtures run through
//! [`plfs_lint::semantic_findings`] like the lock-order ones.

use plfs_lint::drift;
use plfs_lint::lexer::lex;
use plfs_lint::rules::RuleId;
use plfs_lint::{lint_source, lint_source_with};

fn table(name: &str) -> &'static drift::TableSpec {
    drift::table(name).unwrap()
}

fn rule_lines(rel: &str, src: &str, rule: RuleId) -> Vec<u32> {
    lint_source(rel, src)
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

fn total_findings(rel: &str, src: &str) -> usize {
    lint_source(rel, src).findings.len()
}

/// One lock class per fixture receiver, so the lock-order pass has
/// nothing to say and every finding is guard-across-io's.
fn fixture_rows() -> Vec<drift::LockRow> {
    let mk = |file: &str, recv: &str| drift::LockRow {
        class: recv.into(),
        rank: 10,
        file: file.into(),
        receivers: vec![recv.into()],
        doc_line: 1,
    };
    vec![mk("service.rs", "table"), mk("pragma.rs", "stdout")]
}

#[test]
fn guard_bad_flags_table_mutex_across_io() {
    let src = include_str!("fixtures/guard_bad.rs");
    let out = semantic("crates/core/src/service.rs", src, &fixture_rows());
    // Both the `w.writer.write(data, off)` and the `flush_index()` run
    // with the table guard live.
    let lines: Vec<u32> = out.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [19, 20], "findings: {:?}", out.findings);
    assert!(out.findings.iter().all(|f| f.rule == RuleId::GuardAcrossIo));
}

#[test]
fn guard_good_is_clean() {
    let src = include_str!("fixtures/guard_good.rs");
    let out = semantic("crates/core/src/service.rs", src, &fixture_rows());
    assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
}

#[test]
fn swallowed_bad_flags_the_empty_wildcard_arm() {
    let src = include_str!("fixtures/swallowed_bad.rs");
    let lines = rule_lines("crates/core/src/repair.rs", src, RuleId::SwallowedResult);
    assert_eq!(lines, [12]);
}

#[test]
fn swallowed_good_is_clean() {
    let src = include_str!("fixtures/swallowed_good.rs");
    assert_eq!(total_findings("crates/core/src/repair.rs", src), 0);
}

#[test]
fn ioplane_table_round_trips_against_the_enum() {
    let doc = "\
<!-- plfs-lint:ioplane-table -->
| op | batchable |
| --- | --- |
| `Mkdir` | yes |
| `Gone` | yes |
<!-- /plfs-lint:ioplane-table -->
";
    let rows = drift::parse_table(doc, table("ioplane")).unwrap();
    assert_eq!(rows.len(), 2);
    let toks = lex("pub enum IoOp { Mkdir { path: String }, Extra { path: String } }").toks;
    let (raw, matched) = drift::check_file(table("ioplane"), &rows, drift::IOPLANE_RS, &toks);
    // `Extra` has no row; row `Gone` names no variant (unmatched index 1).
    assert_eq!(raw.len(), 1, "findings: {raw:?}");
    assert!(raw[0].message.contains("Extra"), "message: {}", raw[0].message);
    assert_eq!(matched, vec![0]);
}

#[test]
fn telemetry_table_round_trips_against_the_constants() {
    let doc = "\
<!-- plfs-lint:telemetry-table -->
| name | kind | const | notes |
| --- | --- | --- | --- |
| `write.open` | span | `SPAN_WRITE_OPEN` | writer open |
| `write.bytes` | counter | `CTR_WRITE_BYTES` | bytes accepted |
| `gone.signal` | span | `SPAN_GONE` | removed |
| `ioplane.batch` | counter | `HIST_IOPLANE_BATCH` | wrong kind on purpose |
<!-- /plfs-lint:telemetry-table -->
";
    let rows = drift::parse_table(doc, table("telemetry")).unwrap();
    assert_eq!(rows.len(), 4);
    let toks = lex("\
pub const SPAN_WRITE_OPEN: &str = \"write.open\";
pub const CTR_WRITE_BYTES: &str = \"write.bytes\";
pub const HIST_IOPLANE_BATCH: &str = \"ioplane.batch\";
pub const SPAN_EXTRA: &str = \"extra.signal\";
pub const HIST_BUCKET_COUNT: usize = 32;
")
    .toks;
    let (raw, matched) = drift::check_file(table("telemetry"), &rows, drift::TELEMETRY_RS, &toks);
    // `SPAN_EXTRA` has no row; `HIST_IOPLANE_BATCH` is documented with
    // the wrong kind; row `gone.signal` names nothing (unmatched idx 2).
    // `HIST_BUCKET_COUNT` is a non-string const and is ignored.
    assert_eq!(raw.len(), 2, "findings: {raw:?}");
    assert!(raw.iter().any(|f| f.message.contains("SPAN_EXTRA")));
    assert!(raw.iter().any(|f| f.message.contains("histogram")
        && f.message.contains("counter")));
    assert_eq!(matched, vec![0, 1, 3]);
}

#[test]
fn telemetry_table_markers_are_mandatory() {
    assert!(drift::parse_table("no table", table("telemetry")).is_err());
    assert!(drift::parse_table(
        "<!-- plfs-lint:telemetry-table -->\n| `a.b` | span | `C` | n |\n",
        table("telemetry")
    )
    .is_err());
}

/// A format table whose second data row is `row`. A row that lost or
/// gained a cell must not drop out of the check in silence: it is a
/// configuration error naming the DESIGN.md line.
fn format_table_with(row: &str) -> Result<Vec<drift::Row>, String> {
    let doc = format!(
        "<!-- plfs-lint:format-table -->\n| constant | value | file |\n| --- | --- | --- |\n\
         | `A` | `1` | `a.rs` |\n{row}\n<!-- /plfs-lint:format-table -->\n"
    );
    drift::parse_table(&doc, table("format"))
}

#[test]
fn table_row_with_too_few_cells_is_a_configuration_error() {
    assert_eq!(format_table_with("| `B` | `2` | `a.rs` |").unwrap().len(), 2);
    let err = format_table_with("| `B` | `a.rs` |").unwrap_err();
    assert!(err.contains("line 5") && err.contains("2 cells"), "{err}");
}

#[test]
fn table_row_with_too_many_cells_is_a_configuration_error() {
    // A `|` inside the value splits it into an extra cell.
    let err = format_table_with("| `B` | `1 | 2` | `a.rs` |").unwrap_err();
    assert!(err.contains("line 5") && err.contains("4 cells"), "{err}");
}

#[test]
fn drift_bad_flags_changed_constant() {
    let rows = drift::parse_table(include_str!("fixtures/drift_design.md"), table("format")).unwrap();
    let src = include_str!("fixtures/drift_bad.rs");
    let (raw, matched) = drift::check_file(table("format"), &rows, "crates/formats/src/header.rs", &lex(src).toks);
    assert_eq!(raw.len(), 1, "findings: {raw:?}");
    assert!(raw[0].message.contains("MAGIC"), "message: {}", raw[0].message);
    // The MAGIC row matched (by name) even though its value drifted.
    assert!(matched.contains(&0));
}

#[test]
fn drift_good_matches_table() {
    let rows = drift::parse_table(include_str!("fixtures/drift_design.md"), table("format")).unwrap();
    let src = include_str!("fixtures/drift_good.rs");
    let (raw, matched) = drift::check_file(table("format"), &rows, "crates/formats/src/header.rs", &lex(src).toks);
    assert!(raw.is_empty(), "findings: {raw:?}");
    assert_eq!(matched, vec![0]);
}

#[test]
fn drift_rows_only_checked_in_their_own_file() {
    let rows = drift::parse_table(include_str!("fixtures/drift_design.md"), table("format")).unwrap();
    let src = include_str!("fixtures/drift_bad.rs");
    // Wrong file: no table row names writer.rs, so it is silent even
    // though it declares a drifted MAGIC.
    let (raw, matched) = drift::check_file(table("format"), &rows, "crates/core/src/writer.rs", &lex(src).toks);
    assert!(raw.is_empty(), "findings: {raw:?}");
    assert!(matched.is_empty());
}

#[test]
fn pragma_annotated_findings_move_to_allowed() {
    let src = include_str!("fixtures/pragma_allowed.rs");
    let out = semantic("crates/core/src/pragma.rs", src, &fixture_rows());
    assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
    assert!(out.warnings.is_empty(), "warnings: {:?}", out.warnings);
    let rules: Vec<&str> = out.allowed.iter().map(|a| a.rule.as_str()).collect();
    assert_eq!(rules, ["guard-across-io"]);
}

#[test]
fn extra_findings_flow_through_pragma_resolution() {
    use plfs_lint::rules::RawFinding;
    let src = "// plfs-lint: allow(format-drift): transitional value during migration\npub const MAGIC: &[u8; 4] = b\"NCL2\";\n";
    let extra = vec![RawFinding {
        trace: Vec::new(),
        rule: RuleId::FormatDrift,
        line: 2,
        message: "`MAGIC` drifted".into(),
    }];
    let out = lint_source_with("crates/formats/src/header.rs", src, extra);
    assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
    assert_eq!(out.allowed.len(), 1);
}

// ---------------------------------------------------------------- semantic

fn shard_rows() -> Vec<drift::LockRow> {
    let mk = |class: &str, rank: u32, recv: &str| drift::LockRow {
        class: class.into(),
        rank,
        file: "handles.rs".into(),
        receivers: vec![recv.into()],
        doc_line: rank,
    };
    vec![mk("handle-shard", 10, "shard"), mk("dir-map", 20, "dirmap")]
}

fn semantic(rel: &str, src: &str, rows: &[drift::LockRow]) -> plfs_lint::FileLint {
    let files = vec![(rel.to_string(), src.to_string())];
    let (mut sem, _) = plfs_lint::semantic_findings(&files, rows);
    lint_source_with(rel, src, sem.remove(rel).unwrap_or_default())
}

#[test]
fn lock_cycle_bad_reports_both_chains() {
    let rel = "crates/core/src/handles.rs";
    let src = include_str!("fixtures/lock_cycle_bad.rs");
    let out = semantic(rel, src, &shard_rows());
    let cycle = out
        .findings
        .iter()
        .find(|f| f.rule == RuleId::LockOrderInversion && f.message.contains("cycle"))
        .expect("cycle finding");
    assert_eq!(cycle.trace.len(), 2, "{:?}", cycle.trace);
    let all = cycle.trace.join("\n");
    assert!(all.contains("open_path"), "{all}");
    assert!(all.contains("invalidate_dir"), "{all}");
    // The inverted edge is also a rank violation at its acquiring site.
    assert!(
        out.findings
            .iter()
            .any(|f| f.rule == RuleId::LockOrderInversion && f.message.contains("rank")),
        "{:?}",
        out.findings
    );
}

#[test]
fn lock_cycle_good_is_clean_and_uses_every_row() {
    let rel = "crates/core/src/handles.rs";
    let src = include_str!("fixtures/lock_cycle_good.rs");
    let files = vec![(rel.to_string(), src.to_string())];
    let (sem, used) = plfs_lint::semantic_findings(&files, &shard_rows());
    assert!(sem.is_empty(), "{sem:?}");
    assert!(used.iter().all(|u| *u), "stale rows: {used:?}");
}

#[test]
fn guard_reports_transitive_io_with_a_witness_chain() {
    let rel = "crates/core/src/handles.rs";
    let src = "\
impl Flusher {
    fn flush(&self) {
        self.backend.append(path, content);
    }
    pub fn commit(&self) {
        let g = self.state.lock();
        self.flush();
        g.bump();
    }
}
";
    let rows = vec![drift::LockRow {
        class: "flusher-state".into(),
        rank: 10,
        file: "handles.rs".into(),
        receivers: vec!["state".into()],
        doc_line: 1,
    }];
    let out = semantic(rel, src, &rows);
    let guard: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::GuardAcrossIo)
        .collect();
    assert_eq!(guard.len(), 1, "{:?}", out.findings);
    assert!(guard[0].message.contains("via"), "{}", guard[0].message);
    assert!(
        guard[0].trace.iter().any(|s| s.contains("flush")),
        "{:?}",
        guard[0].trace
    );
}

#[test]
fn demo_root_end_to_end_reports_the_cycle_with_its_trace() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/demo");
    let report = plfs_lint::run(&plfs_lint::LintConfig::new(root)).expect("demo root lints");

    let cycle = report
        .findings
        .iter()
        .find(|f| f.rule == RuleId::LockOrderInversion && f.message.contains("cycle"))
        .expect("cycle finding");
    assert_eq!(cycle.file, "crates/core/src/handles.rs");
    assert_eq!(cycle.trace.len(), 2, "{:?}", cycle.trace);

    // Every trace step survives into the machine-readable output.
    let json = report.render_json();
    for step in &cycle.trace {
        let escaped = step.replace('\\', "\\\\").replace('"', "\\\"");
        assert!(json.contains(&escaped), "trace step {step:?} missing from JSON");
    }
}
