//! The gate itself, as a test: the workspace this crate lives in must
//! lint clean. If this fails, either fix the finding or annotate it
//! with `// plfs-lint: allow(<rule>): <reason>` — both paths leave an
//! auditable trail; silently relaxing the rules does not.

use plfs_lint::ir::{parse_file, Event};
use plfs_lint::lexer::lex;
use plfs_lint::{run, workspace_sources, LintConfig};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn workspace_lints_clean() {
    let report = run(&LintConfig::new(root())).expect("lint configuration is valid");
    assert!(
        report.findings.is_empty(),
        "unannotated findings:\n{}",
        report.render_human()
    );
    assert!(
        report.warnings.is_empty(),
        "lint warnings (malformed/unknown/unused pragmas):\n{}",
        report.render_human()
    );
    // Sanity: the walk actually visited the workspace.
    assert!(report.files_scanned > 50, "only scanned {}", report.files_scanned);
}

/// The line of the `Return` that `evs` reaches without branching, if
/// any; `Err(line)` when an event follows that return. Arms and loop
/// bodies are sequences of their own.
fn sequential_return(evs: &[Event]) -> Result<Option<u32>, u32> {
    for (i, e) in evs.iter().enumerate() {
        let ret = match e {
            Event::Return { line } => Some(*line),
            Event::Stmt(es) | Event::Scope(es) | Event::Bind { init: es, .. } => sequential_return(es)?,
            Event::Branch { arms, .. } => {
                for arm in arms {
                    sequential_return(arm)?;
                }
                None
            }
            Event::Loop { body, .. } => {
                sequential_return(body)?;
                None
            }
            Event::Call(_) | Event::DropCall { .. } => None,
        };
        if let Some(line) = ret {
            return if i + 1 < evs.len() { Err(line) } else { Ok(Some(line)) };
        }
    }
    Ok(None)
}

/// rustc's `unreachable_code` means no real function has code after a
/// `return` on the same path, so an IR event there is a parse that cut
/// the statement short — and the semantic walks stop at the return,
/// never seeing the rest of the function.
#[test]
fn no_function_ir_continues_past_a_return() {
    let mut truncated = Vec::new();
    for (rel, src) in workspace_sources(&root()).unwrap() {
        for f in parse_file(&rel, &lex(&src).toks) {
            if f.is_test {
                continue;
            }
            if let Err(line) = sequential_return(&f.body) {
                truncated.push(format!("{rel}:{} {} (return at line {line})", f.line, f.qual()));
            }
        }
    }
    assert!(truncated.is_empty(), "truncated IR:\n{}", truncated.join("\n"));
}
