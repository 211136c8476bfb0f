//! Property: pragma lines are inert on clean input. Inserting any
//! number of well-formed `plfs-lint: allow` comments at arbitrary line
//! positions in a clean file must never create or suppress findings —
//! pragmas only ever act on findings that already exist, so a clean
//! file stays clean (modulo unused-pragma warnings, which is exactly
//! what `--deny-warnings` is for).

use plfs_lint::lint_source;
use plfs_lint::rules::RuleId;
use proptest::prelude::*;

const CLEAN_SOURCES: &[(&str, &str)] = &[(
    "crates/core/src/repair.rs",
    include_str!("fixtures/swallowed_good.rs"),
)];

const RULES: usize = RuleId::all().len();

/// Insert a pragma comment line before line index `at` (clamped).
fn with_pragma(src: &str, at: usize, rule: RuleId) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let at = at.min(lines.len());
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i == at {
            out.push_str(&format!(
                "// plfs-lint: allow({}): inserted by proptest\n",
                rule.as_str()
            ));
        }
        out.push_str(l);
        out.push('\n');
    }
    if at == lines.len() {
        out.push_str(&format!(
            "// plfs-lint: allow({}): inserted by proptest\n",
            rule.as_str()
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pragmas_are_inert_on_clean_input(
        which in 0..CLEAN_SOURCES.len(),
        inserts in prop::collection::vec((0usize..40, 0..RULES), 1..6)
    ) {
        let (rel, original) = CLEAN_SOURCES[which];
        prop_assert!(lint_source(rel, original).findings.is_empty());

        let mut src = original.to_string();
        for &(at, rule_idx) in &inserts {
            src = with_pragma(&src, at, RuleId::all()[rule_idx]);
        }
        let out = lint_source(rel, &src);
        prop_assert!(
            out.findings.is_empty(),
            "inserting pragmas {:?} into {} created findings: {:?}",
            inserts, rel, out.findings
        );
        // Nothing to suppress, so nothing may show up as allowed either.
        prop_assert!(
            out.allowed.is_empty(),
            "inserting pragmas {:?} into {} suppressed phantom findings: {:?}",
            inserts, rel, out.allowed
        );
    }
}

/// The deterministic other half of the round trip: stripping the
/// pragmas from an annotated file reveals exactly the findings the
/// pragmas were holding back.
#[test]
fn stripping_pragmas_reveals_allowed_findings() {
    let rel = "crates/core/src/pragma.rs";
    let annotated = include_str!("fixtures/pragma_allowed.rs");
    let with = semantic_lint(rel, annotated);
    assert!(with.findings.is_empty());

    let stripped: String = annotated
        .lines()
        .filter(|l| !l.trim_start().starts_with("// plfs-lint:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let without = semantic_lint(rel, &stripped);
    assert_eq!(
        without.findings.len(),
        with.allowed.len(),
        "stripped findings {:?} vs annotated allowed {:?}",
        without.findings,
        with.allowed
    );
    assert!(without.allowed.is_empty());
}

// ------------------------------------------------------- semantic rules

/// Clean input for the semantic analyses: a correctly ordered lock
/// nest, and guards dropped before I/O. Pragma insertion must stay
/// inert through the IR/call-graph pipeline too — a pragma is a
/// comment, and comments must never perturb parsing.
const CLEAN_SEMANTIC: &[(&str, &str)] = &[
    (
        "crates/core/src/handles.rs",
        include_str!("fixtures/lock_cycle_good.rs"),
    ),
    (
        "crates/core/src/service.rs",
        include_str!("fixtures/guard_good.rs"),
    ),
];

fn semantic_rows() -> Vec<plfs_lint::drift::LockRow> {
    let mk = |class: &str, rank: u32, file: &str, recv: &str| plfs_lint::drift::LockRow {
        class: class.into(),
        rank,
        file: file.into(),
        receivers: vec![recv.into()],
        doc_line: rank,
    };
    vec![
        mk("handle-shard", 10, "handles.rs", "shard"),
        mk("dir-map", 20, "handles.rs", "dirmap"),
        mk("shim-table", 10, "service.rs", "table"),
        mk("stdout", 10, "pragma.rs", "stdout"),
    ]
}

fn semantic_lint(rel: &str, src: &str) -> plfs_lint::FileLint {
    let files = vec![(rel.to_string(), src.to_string())];
    let (mut sem, _) = plfs_lint::semantic_findings(&files, &semantic_rows());
    plfs_lint::lint_source_with(rel, src, sem.remove(rel).unwrap_or_default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pragmas_are_inert_on_clean_semantic_input(
        which in 0..CLEAN_SEMANTIC.len(),
        inserts in prop::collection::vec((0usize..60, 0..RULES), 1..6)
    ) {
        let (rel, original) = CLEAN_SEMANTIC[which];
        prop_assert!(semantic_lint(rel, original).findings.is_empty());

        let mut src = original.to_string();
        for &(at, rule_idx) in &inserts {
            src = with_pragma(&src, at, RuleId::all()[rule_idx]);
        }
        let out = semantic_lint(rel, &src);
        prop_assert!(
            out.findings.is_empty(),
            "inserting pragmas {:?} into {} created findings: {:?}",
            inserts, rel, out.findings
        );
        prop_assert!(
            out.allowed.is_empty(),
            "inserting pragmas {:?} into {} suppressed phantom findings: {:?}",
            inserts, rel, out.allowed
        );
    }
}
