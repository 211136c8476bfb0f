//! plfs-lint: the workspace invariant checks clippy cannot make. See
//! DESIGN.md §5d for the rule catalogue and rationale; panics and
//! discarded results are clippy lints denied by the workspace
//! `[workspace.lints.clippy]` table, and per-op `Backend` calls outside
//! the I/O plane are `disallowed-methods` in the root `clippy.toml`.
//!
//! [`run`] first makes the whole-workspace semantic pass
//! ([`semantic_findings`]: IR, call graph, guard-across-io and
//! lock-order-inversion), then lints each file: [`lexer::lex`] →
//! [`rules::test_ranges`] → the token rules and format-drift → pragma
//! resolution (findings suppressed by a
//! `// plfs-lint: allow(<rule>): <reason>` on the flagged line or the
//! comment line directly above become [`report::AllowedFinding`]s).
//! Pragmas are never free: malformed ones, ones naming unknown rules,
//! and ones that suppress nothing are all surfaced as warnings. The
//! same token pass counts `#[expect(clippy::…)]` sites for the
//! baseline.

pub mod callgraph;
pub mod drift;
pub mod ir;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use drift::LockRow;
use ir::FnIr;
use lexer::lex;
use report::{AllowedFinding, Finding, LintReport, LintWarning};
use rules::{RawFinding, RuleId};

/// What to lint.
pub struct LintConfig {
    /// Workspace root; `crates/` and `src/` beneath it are scanned.
    pub root: PathBuf,
    /// The authoritative format doc; defaults to `<root>/DESIGN.md`.
    pub design_doc: Option<PathBuf>,
}

impl LintConfig {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LintConfig {
            root: root.into(),
            design_doc: None,
        }
    }
}

/// Directory names that are never scanned: vendored deps, build output,
/// test/bench/example code (exempt by design), and lint fixtures (which
/// are deliberately full of violations).
const SKIP_DIRS: &[&str] = &[
    "vendor", "target", "tests", "benches", "examples", "fixtures", ".git",
];

/// guard-across-io only applies where lock guards and backend handles
/// coexist; the simulators hold locks over pure in-memory models.
fn guard_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/") || rel.starts_with("crates/formats/") || rel.starts_with("src/")
}

/// Per-file lint result, pre-aggregation.
#[derive(Debug, Default)]
pub struct FileLint {
    pub findings: Vec<Finding>,
    pub allowed: Vec<AllowedFinding>,
    pub warnings: Vec<LintWarning>,
    /// One `clippy::<lint>` per lint named in an `#[expect(..)]`.
    pub expects: Vec<String>,
}

/// Lint one source file given as a string. `rel` names the file in
/// findings; `extra` carries caller-computed findings (format-drift,
/// semantic analyses) through pragma resolution.
pub fn lint_source_with(rel: &str, src: &str, extra: Vec<RawFinding>) -> FileLint {
    let lexed = lex(src);
    let tests = rules::test_ranges(&lexed.toks);

    let mut raw: Vec<RawFinding> = extra;
    raw.extend(rules::swallowed_result(&lexed.toks, &tests));

    // Line spans of test regions: pragmas inside them are inert (test
    // code is rule-exempt, so there is nothing for them to suppress).
    let test_lines: Vec<(u32, u32)> = tests
        .iter()
        .map(|&(s, e)| (lexed.toks[s].line, lexed.toks[e].line))
        .collect();
    let in_test_lines = |line: u32| test_lines.iter().any(|&(s, e)| s <= line && line <= e);

    // Sorted token lines, for "first code line after the pragma".
    let tok_lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
    let next_code_line = |after: u32| -> Option<u32> {
        let idx = tok_lines.partition_point(|&l| l <= after);
        tok_lines.get(idx).copied()
    };

    let mut out = FileLint {
        expects: rules::clippy_expects(&lexed.toks, &tests),
        ..FileLint::default()
    };
    let snippet = |line: u32| -> String {
        src.lines()
            .nth(line as usize - 1)
            .unwrap_or("")
            .trim()
            .to_string()
    };

    let mut suppressed = vec![false; raw.len()];
    for pragma in &lexed.pragmas {
        if in_test_lines(pragma.line) {
            continue;
        }
        let Some(rule_name) = &pragma.rule else {
            out.warnings.push(LintWarning {
                file: rel.to_string(),
                line: pragma.line,
                message: "malformed plfs-lint pragma; expected `// plfs-lint: allow(<rule>): <reason>`"
                    .into(),
            });
            continue;
        };
        let Some(rule) = RuleId::parse(rule_name) else {
            out.warnings.push(LintWarning {
                file: rel.to_string(),
                line: pragma.line,
                message: format!(
                    "plfs-lint pragma names unknown rule `{rule_name}` (known: {})",
                    RuleId::all()
                        .map(RuleId::as_str)
                        .join(", ")
                ),
            });
            continue;
        };
        // A pragma covers its own line (trailing form) and the first
        // code line after it (comment-line-above form).
        let anchor = next_code_line(pragma.line);
        let mut used = false;
        for (i, f) in raw.iter().enumerate() {
            if suppressed[i] || f.rule != rule {
                continue;
            }
            if f.line == pragma.line || Some(f.line) == anchor {
                suppressed[i] = true;
                used = true;
                out.allowed.push(AllowedFinding {
                    rule,
                    file: rel.to_string(),
                    line: f.line,
                    reason: pragma.reason.clone(),
                });
            }
        }
        if !used {
            out.warnings.push(LintWarning {
                file: rel.to_string(),
                line: pragma.line,
                message: format!(
                    "unused plfs-lint pragma for `{}`: no finding on this or the next code line",
                    rule.as_str()
                ),
            });
        }
    }

    for (i, f) in raw.into_iter().enumerate() {
        if suppressed[i] {
            continue;
        }
        out.findings.push(Finding {
            rule: f.rule,
            file: rel.to_string(),
            line: f.line,
            message: f.message,
            snippet: snippet(f.line),
            trace: f.trace,
        });
    }
    out
}

/// Lint one in-memory source file with no format-drift context (the
/// entry point fixture tests use).
pub fn lint_source(rel: &str, src: &str) -> FileLint {
    lint_source_with(rel, src, Vec::new())
}

/// The whole-workspace semantic pass: parse every `(rel, source)` file
/// into [`ir::FnIr`], build the call graph, and run the lock-order and
/// guard-across-io analyses.
///
/// Returns per-file findings plus a used-flag per §5i lock-table row
/// so the caller can report stale rows (the two-way drift contract).
pub fn semantic_findings(
    files: &[(String, String)],
    lock_rows: &[LockRow],
) -> (HashMap<String, Vec<RawFinding>>, Vec<bool>) {
    let mut prod_fns: Vec<FnIr> = Vec::new();
    for (rel, src) in files {
        prod_fns.extend(ir::parse_file(rel, &lex(src).toks));
    }
    let graph = CallGraph::build(&prod_fns);
    let mut out: HashMap<String, Vec<RawFinding>> = HashMap::new();

    let report = locks::analyze(&prod_fns, &graph, lock_rows, &|f: &FnIr| guard_scope(&f.file));
    let mut used = vec![false; lock_rows.len()];
    for i in report.used_rows {
        used[i] = true;
    }
    for (file, f) in report.findings {
        out.entry(file).or_default().push(f);
    }
    (out, used)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every linted `(repo-relative path, source)` under `root`'s
/// `crates/` and `src/`, in path order.
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths = Vec::new();
    for top in ["crates", "src"] {
        collect_rs_files(&root.join(top), &mut paths);
    }
    if paths.is_empty() {
        return Err(format!(
            "no Rust sources found under {} (crates/, src/)",
            root.display()
        ));
    }
    let mut sources = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Run the full workspace lint. Errors (as opposed to findings) are
/// configuration problems: unreadable root, missing DESIGN.md, missing
/// or malformed format table.
pub fn run(cfg: &LintConfig) -> Result<LintReport, String> {
    let design_path = cfg
        .design_doc
        .clone()
        .unwrap_or_else(|| cfg.root.join("DESIGN.md"));
    let doc = fs::read_to_string(&design_path)
        .map_err(|e| format!("cannot read {}: {e}", design_path.display()))?;
    // Every authoritative table, with a matched flag per row.
    let mut tables = Vec::new();
    for spec in &drift::TABLES {
        let rows = drift::parse_table(&doc, spec)?;
        tables.push((spec, vec![false; rows.len()], rows));
    }

    // Read everything up front: the semantic pass is workspace-wide
    // (the call graph spans files), unlike the per-file token rules.
    let sources = workspace_sources(&cfg.root)?;

    // The lock table's rows are matched by the workspace-wide semantic
    // pass; every other table's by the per-file checks below.
    let mut semantic = HashMap::new();
    for (spec, matched, rows) in &mut tables {
        if spec.against == drift::Against::LockSites {
            (semantic, *matched) = semantic_findings(&sources, &drift::lock_rows(rows)?);
        }
    }

    let mut report = LintReport::default();
    for (rel, src) in &sources {
        let mut extras = semantic.remove(rel).unwrap_or_default();
        let toks = lex(src).toks;
        for (spec, matched, rows) in &mut tables {
            let (findings, hit) = drift::check_file(spec, rows, rel, &toks);
            extras.extend(findings);
            for idx in hit {
                matched[idx] = true;
            }
        }
        let file_lint = lint_source_with(rel, src, extras);
        report.findings.extend(file_lint.findings);
        report.allowed.extend(file_lint.allowed);
        report.warnings.extend(file_lint.warnings);
        for lint in file_lint.expects {
            *report.expects.entry(lint).or_default() += 1;
        }
        report.files_scanned += 1;
    }

    // The other drift direction: rows nothing in the workspace matched.
    let scanned = |file: &str| sources.iter().any(|(rel, _)| rel == file);
    for (spec, matched, rows) in &tables {
        for (line, message) in spec.stale_rows(rows, matched, scanned) {
            report.findings.push(Finding {
                rule: RuleId::FormatDrift,
                file: "DESIGN.md".into(),
                line,
                message,
                snippet: doc.lines().nth(line as usize - 1).unwrap_or("").trim().to_string(),
                trace: Vec::new(),
            });
        }
    }

    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWALLOW: &str = "fn f(e: Issue) { match e { Issue::A => fix(), _ => {} } }";

    #[test]
    fn trailing_pragma_suppresses_and_is_counted() {
        let src = format!("{SWALLOW} // plfs-lint: allow(swallowed-result): test scaffolding\n");
        let r = lint_source("crates/x/src/lib.rs", &src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].reason, "test scaffolding");
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn line_above_pragma_suppresses() {
        let src = "\
fn f(e: Issue) {
    match e {
        Issue::A => fix(),
        // plfs-lint: allow(swallowed-result): every other issue is report-only
        _ => {}
    }
}
";
        let r = lint_source("crates/x/src/lib.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.allowed.len(), 1);
    }

    #[test]
    fn unused_and_malformed_pragmas_warn() {
        let src = "\
// plfs-lint: allow(swallowed-result): nothing here swallows
fn clean() {}
// plfs-lint: allow(no-such-rule): typo
// plfs-lint: allow(swallowed-result) missing colon and reason
fn also_clean() {}
";
        let r = lint_source("crates/x/src/lib.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.warnings.len(), 3, "{:?}", r.warnings);
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src = format!("{SWALLOW} // plfs-lint: allow(format-drift): wrong rule\n");
        let r = lint_source("crates/x/src/lib.rs", &src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.warnings.len(), 1, "wrong-rule pragma is unused");
    }

    #[test]
    fn scoped_rules_respect_paths() {
        let src = "fn f(&self) { let g = self.m.lock(); self.backend.append(a, b); }\n";
        let guard = |rel: &str| {
            let files = vec![(rel.to_string(), src.to_string())];
            let (sem, _) = semantic_findings(&files, &[]);
            sem.get(rel).map_or(0, |fs| fs.iter().filter(|f| f.rule == RuleId::GuardAcrossIo).count())
        };
        assert_eq!(guard("crates/mpio/src/sim.rs"), 0);
        assert_eq!(guard("crates/core/src/service.rs"), 1);
    }
}
