//! Finding types, human/JSON rendering, and the ratchet baseline.
//!
//! JSON output is hand-rolled (the vendor tree is offline-only, no
//! serde); the escaping covers everything our messages can contain.

use std::collections::BTreeMap;

use crate::rules::RuleId;

/// An unannotated finding — these fail the gate.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// The offending source line, trimmed, for diff-style output.
    pub snippet: String,
    /// Counterexample trace for interprocedural findings: one
    /// `file:line: note` step per entry. Empty for token-level rules.
    pub trace: Vec<String>,
}

/// A finding suppressed by a `// plfs-lint: allow(...)` pragma. These
/// are counted and reported but do not fail the gate (unless the
/// baseline ratchet says the count grew).
#[derive(Debug, Clone)]
pub struct AllowedFinding {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub reason: String,
}

/// Non-fatal problems: malformed pragmas, pragmas naming unknown rules,
/// pragmas that suppress nothing. Fatal under `--deny-warnings`.
#[derive(Debug, Clone)]
pub struct LintWarning {
    pub file: String,
    pub line: u32,
    pub message: String,
}

#[derive(Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub allowed: Vec<AllowedFinding>,
    pub warnings: Vec<LintWarning>,
    pub files_scanned: usize,
    /// `#[expect(clippy::<lint>)]` sites per lint (`clippy::<lint>`).
    pub expects: BTreeMap<String, usize>,
}

impl LintReport {
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.allowed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.warnings
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    pub fn allowed_per_rule(&self) -> Vec<(RuleId, usize)> {
        RuleId::all()
            .into_iter()
            .map(|r| (r, self.allowed.iter().filter(|a| a.rule == r).count()))
            .collect()
    }

    /// The baseline's rows: allowed pragmas per rule, then
    /// `#[expect(clippy::…)]` sites per lint.
    pub fn budget_rows(&self) -> Vec<(String, usize)> {
        self.allowed_per_rule()
            .into_iter()
            .map(|(r, n)| (r.as_str().to_string(), n))
            .chain(self.expects.iter().map(|(l, &n)| (l.clone(), n)))
            .collect()
    }

    /// Human diff-style rendering: one hunk per finding, with the
    /// offending source line prefixed `>` like a quoted diff context.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "error[{}]: {}\n  --> {}:{}\n   > {}\n",
                f.rule.as_str(),
                f.message,
                f.file,
                f.line,
                f.snippet
            ));
            for (i, step) in f.trace.iter().enumerate() {
                out.push_str(&format!("   {}: {}\n", i + 1, step));
            }
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {} --> {}:{}\n", w.message, w.file, w.line));
        }
        out.push_str(&format!(
            "{} file(s) scanned: {} finding(s), {} allowed via pragma, {} warning(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len(),
            self.warnings.len()
        ));
        for (rule, n) in self.allowed_per_rule() {
            if n > 0 {
                out.push_str(&format!("  allowed[{}]: {}\n", rule.as_str(), n));
            }
        }
        for (lint, n) in &self.expects {
            out.push_str(&format!("  expect[{lint}]: {n}\n"));
        }
        out
    }

    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let trace = f
                .trace
                .iter()
                .map(|s| json_str(s))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}, \"trace\": [{}]}}{}\n",
                json_str(f.rule.as_str()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
                trace,
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"allowed\": [\n");
        for (i, a) in self.allowed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}{}\n",
                json_str(a.rule.as_str()),
                json_str(&a.file),
                a.line,
                json_str(&a.reason),
                if i + 1 < self.allowed.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"warnings\": [\n");
        for (i, w) in self.warnings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(&w.file),
                w.line,
                json_str(&w.message),
                if i + 1 < self.warnings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render the committed baseline: allowed-pragma counts per rule and
/// `#[expect(clippy::…)]` counts per lint. The gate fails if any live
/// count exceeds its baseline (you can only ratchet down).
pub fn render_baseline(report: &LintReport) -> String {
    let mut out = String::from(
        "# plfs-lint baseline\n\n\
         Allowed-pragma counts per rule, and `#[expect(clippy::<lint>)]` sites per\n\
         clippy lint. `plfsctl lint --baseline` fails if any live count exceeds its\n\
         entry here — the budget only ratchets down. Regenerate with\n\
         `plfsctl lint --write-baseline` after removing suppressions.\n\n\
         | rule | allowed |\n| --- | --- |\n",
    );
    for (row, n) in report.budget_rows() {
        out.push_str(&format!("| {row} | {n} |\n"));
    }
    out
}

/// Parse a baseline file back into per-row budgets (rows whose count
/// is not a number, like the header, are skipped); a row missing from
/// the file means budget 0.
pub fn parse_baseline(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() != 2 {
            continue;
        }
        if let Ok(n) = cells[1].parse::<usize>() {
            out.push((cells[0].to_string(), n));
        }
    }
    out
}

/// Ratchet check: returns violation messages for rows whose live
/// count exceeds the baseline budget.
pub fn check_baseline(report: &LintReport, baseline: &[(String, usize)]) -> Vec<String> {
    let mut out = Vec::new();
    for (row, live) in report.budget_rows() {
        let budget = baseline
            .iter()
            .find(|(r, _)| *r == row)
            .map_or(0, |(_, n)| *n);
        if live > budget {
            out.push(format!(
                "[{row}] count {live} exceeds baseline budget {budget} — the suppression budget only ratchets down"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(allowed: &[(RuleId, usize)]) -> LintReport {
        let mut r = LintReport::default();
        for (rule, n) in allowed {
            for i in 0..*n {
                r.allowed.push(AllowedFinding {
                    rule: *rule,
                    file: "x.rs".into(),
                    line: i as u32 + 1,
                    reason: "r".into(),
                });
            }
        }
        r
    }

    #[test]
    fn baseline_round_trips() {
        let mut r = report_with(&[(RuleId::SwallowedResult, 7), (RuleId::GuardAcrossIo, 2)]);
        r.expects.insert("clippy::expect_used".into(), 5);
        let text = render_baseline(&r);
        let parsed = parse_baseline(&text);
        assert!(parsed.contains(&("swallowed-result".into(), 7)));
        assert!(parsed.contains(&("guard-across-io".into(), 2)));
        assert!(parsed.contains(&("clippy::expect_used".into(), 5)));
        assert!(check_baseline(&r, &parsed).is_empty());
    }

    #[test]
    fn ratchet_flags_growth_not_shrink() {
        let base = vec![("guard-across-io".to_string(), 3), ("clippy::panic".to_string(), 1)];
        let grown = report_with(&[(RuleId::GuardAcrossIo, 4)]);
        assert_eq!(check_baseline(&grown, &base).len(), 1);
        let shrunk = report_with(&[(RuleId::GuardAcrossIo, 2)]);
        assert!(check_baseline(&shrunk, &base).is_empty());
        let mut more_expects = report_with(&[]);
        more_expects.expects.insert("clippy::panic".into(), 2);
        more_expects.expects.insert("clippy::todo".into(), 1);
        assert_eq!(check_baseline(&more_expects, &base).len(), 2);
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
