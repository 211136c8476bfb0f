//! What DESIGN.md and the code must agree on, checked from the source:
//!
//! * the six contract tables — §5d format, §5e `IoOp`, §5f telemetry,
//!   §5i lock classes, §5j spanidx and §5k service — each both ways: a
//!   subject in the code with no row fails, and so does a row with no
//!   subject or with another value;
//! * the `#[expect(clippy::<lint>)]` budget: suppressions per lint in
//!   production code, which only moves down;
//! * the process-global state of `crates/core`: its `static` items,
//!   which must be exactly the listed ones;
//! * one owner of the container layout: each name inside a container or
//!   a shadow is spelled in exactly one string literal of production
//!   code, its constant in `crates/core/src/container.rs`.
//!
//! A table sits between `<!-- table:<name> -->` and `<!-- /table:<name> -->`
//! in DESIGN.md, and [`read_table`] is the one reader of all six.
//! Production code is each `.rs` file under `crates/*/src` and `src/`
//! above its first top-level `#[cfg(test)]` (EXPERIMENTS.md §I's rule).

use plfs::sync::class;
use plfs::{Content, IoOp};
use std::collections::BTreeMap;
use std::path::Path;

/// A table's data rows, every cell stripped of padding and backticks.
/// The first row is the header and fixes the width, the second its
/// `| --- |` rule; a row of another width (a `|` inside a value, a column
/// added or dropped) is an error, never a row that escapes the check.
fn read_table(doc: &str, name: &str) -> Result<Vec<Vec<String>>, String> {
    let (open, close) = (
        format!("<!-- table:{name} -->"),
        format!("<!-- /table:{name} -->"),
    );
    let start = doc.find(&open).ok_or(format!("no `{open}` marker"))? + open.len();
    let len = doc[start..]
        .find(&close)
        .ok_or(format!("`{open}` is never closed by `{close}`"))?;
    let mut rows = doc[start..start + len]
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with('|'))
        .map(|line| {
            let cells = line.trim_matches('|').split('|');
            cells
                .map(|c| c.replace('`', "").trim().to_string())
                .collect::<Vec<_>>()
        });
    let header = rows.next().ok_or(format!("table {name} is empty"))?;
    let rule = rows.next().unwrap_or_default();
    let is_rule = |c: &String| !c.is_empty() && c.chars().all(|ch| "-: ".contains(ch));
    if rule.len() != header.len() || !rule.iter().all(is_rule) {
        return Err(format!("table {name}: no `| --- |` rule under its header"));
    }
    let rows: Vec<_> = rows.collect();
    if let Some(row) = rows.iter().find(|row| row.len() != header.len()) {
        return Err(format!(
            "table {name}: row {row:?} is not {} cells wide",
            header.len()
        ));
    }
    if rows.is_empty() {
        return Err(format!("table {name} has no rows"));
    }
    Ok(rows)
}

/// A file's production part: everything above its first top-level
/// `#[cfg(test)]`.
fn production(src: &str) -> &str {
    src.find("\n#[cfg(test)]").map_or(src, |at| &src[..at])
}

/// Every `const NAME: T = VALUE;` in `src` as `(NAME, VALUE)`, the value
/// with its whitespace removed, so formatting never reads as drift.
fn consts(src: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("const ") {
        rest = &rest[at + "const ".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() || !rest[name.len()..].trim_start().starts_with(':') {
            continue;
        }
        // The type may hold a `;` of its own (`[u8; 8]`): find `=` first.
        let Some(eq) = rest.find('=') else { break };
        let Some(end) = rest[eq..].find(';') else {
            break;
        };
        let value = rest[eq + 1..eq + end].split_whitespace().collect();
        out.push((name, value));
    }
    out
}

/// Production source of the workspace: `(path from the root, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, production(&text).to_string()));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        walk(&krate.unwrap().path().join("src"), root, &mut out);
    }
    walk(&root.join("src"), root, &mut out);
    out
}

fn design_md() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md")).unwrap()
}

/// A `constant | value | file` table against `sources`: each row's
/// constant must be in its file with its value, and each constant named
/// with one of `prefixes` must have a row.
fn check_consts(
    doc: &str,
    table: &str,
    prefixes: &[&str],
    sources: &[(String, String)],
) -> Vec<String> {
    let rows = match read_table(doc, table) {
        Ok(rows) => rows,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    for row in &rows {
        let (name, value, file) = (
            &row[0],
            row[1].split_whitespace().collect::<String>(),
            &row[2],
        );
        let Some((_, src)) = sources.iter().find(|(path, _)| path == file) else {
            problems.push(format!(
                "{table} row `{name}` names `{file}`, which is not a source file"
            ));
            continue;
        };
        match consts(src).into_iter().find(|(n, _)| n == name) {
            Some((_, actual)) if actual == value => {}
            Some((_, actual)) => problems.push(format!(
                "`{name}` is `{actual}` in {file}; its {table} row says `{value}`"
            )),
            None => problems.push(format!("{table} row `{name}` names no constant in {file}")),
        }
    }
    for (path, src) in sources {
        for (name, _) in consts(src) {
            let listed = rows.iter().any(|row| row[0] == name && row[2] == *path);
            if prefixes.iter().any(|p| name.starts_with(p)) && !listed {
                problems.push(format!(
                    "`{name}` in {path} has no row in the {table} table"
                ));
            }
        }
    }
    problems
}

/// §5d's format table, §5j's spanidx and §5k's service constants.
#[test]
fn constant_tables_match_the_constants() {
    let (doc, sources) = (design_md(), workspace_sources());
    let tables: [(&str, &[&str]); 3] = [
        ("format", &[]),
        ("spanidx", &["SPANIDX_", "SPANCACHE_"]),
        ("svc", &["SVC_"]),
    ];
    for (table, prefixes) in tables {
        let problems = check_consts(&doc, table, prefixes, &sources);
        assert!(
            problems.is_empty(),
            "DESIGN.md {table} table: {problems:#?}"
        );
    }
}

#[test]
fn telemetry_table_matches_the_recorded_names() {
    let rows = read_table(&design_md(), "telemetry").unwrap();
    let kinds = [
        ("SPAN_", "span"),
        ("CTR_", "counter"),
        ("HIST_", "histogram"),
    ];
    // (const, recorded name, kind) of every string constant with a kind's
    // prefix; `HIST_BUCKET_COUNT` is a number, not a name.
    let mut recorded = Vec::new();
    for (_, src) in workspace_sources() {
        for (name, value) in consts(&src) {
            let kind = kinds.iter().find(|(prefix, _)| name.starts_with(prefix));
            if let (Some((_, kind)), Some(quoted)) = (kind, value.strip_prefix('"')) {
                recorded.push((name, quoted.trim_end_matches('"').to_string(), *kind));
            }
        }
    }
    let mut problems = Vec::new();
    for (name, signal, kind) in &recorded {
        if !rows
            .iter()
            .any(|r| r[0] == *signal && r[1] == *kind && r[2] == *name)
        {
            problems.push(format!(
                "`{name}` records `{signal}` as a {kind}; no row says so"
            ));
        }
    }
    for row in &rows {
        if !recorded.iter().any(|(name, _, _)| *name == row[2]) {
            problems.push(format!(
                "row `{}` names `{}`, which records nothing",
                row[0], row[2]
            ));
        }
    }
    assert!(problems.is_empty(), "DESIGN.md §5f: {problems:#?}");
}

/// One sample of each `IoOp` variant, by the name and payload fields
/// DESIGN.md §5e gives it. `op_row`'s match is exhaustive, so a new
/// variant does not compile until it is listed here.
macro_rules! io_ops {
    ($($op:ident { $($field:ident: $value:expr),+ }),+ $(,)?) => {
        /// `(op, payload)` as the variant's §5e row spells them.
        fn op_row(op: &IoOp) -> (&'static str, &'static str) {
            match op {
                $(IoOp::$op { .. } => (stringify!($op), stringify!($($field),+)),)+
            }
        }

        fn op_samples() -> Vec<IoOp> {
            vec![$(IoOp::$op { $($field: $value),+ }),+]
        }
    };
}

io_ops! {
    Mkdir { path: "/d".into() },
    MkdirAll { path: "/d/e".into() },
    Create { path: "/f".into(), exclusive: true },
    Append { path: "/f".into(), content: Content::bytes(vec![1]) },
    ReadAt { path: "/f".into(), offset: 0, len: 1 },
    Size { path: "/f".into() },
    Kind { path: "/f".into() },
    Readdir { path: "/d".into() },
    Unlink { path: "/f".into() },
    RemoveAll { path: "/d".into() },
    Rename { from: "/f".into(), to: "/g".into() },
}

#[test]
fn ioplane_table_lists_every_op_and_its_payload() {
    let rows = read_table(&design_md(), "ioplane").unwrap();
    let table: Vec<(&str, &str)> = rows
        .iter()
        .map(|r| (r[0].as_str(), r[1].as_str()))
        .collect();
    let code: Vec<(&str, &str)> = op_samples().iter().map(op_row).collect();
    assert_eq!(
        table, code,
        "DESIGN.md §5e rows against `IoOp`'s variants, in order"
    );
}

#[test]
fn lock_table_matches_the_lock_classes() {
    let rows = read_table(&design_md(), "lock").unwrap();
    let table: Vec<String> = rows.iter().map(|r| r[..3].join(" ")).collect();
    let code: Vec<String> = class::ALL
        .iter()
        .map(|c| {
            format!(
                "{} {} {}",
                c.name,
                c.rank,
                if c.io_ok { "yes" } else { "no" }
            )
        })
        .collect();
    assert_eq!(
        table, code,
        "DESIGN.md §5i rows against `plfs::sync::class::ALL`"
    );
}

/// The shapes a contract table must refuse, fed to the same reader and
/// checks as DESIGN.md.
#[test]
fn drifted_dead_and_unclosed_tables_fail() {
    let table = |rows: &str| {
        format!("<!-- table:format -->\n| constant | value | file |\n| --- | --- | --- |\n{rows}<!-- /table:format -->\n")
    };
    let code = |src: &str| vec![("a.rs".to_string(), src.to_string())];
    let magic = "| `MAGIC` | `b\"NCL1\"` | `a.rs` |\n";
    let clean = check_consts(
        &table(magic),
        "format",
        &[],
        &code("pub const MAGIC: &[u8; 4] = b\"NCL1\";"),
    );
    assert!(clean.is_empty(), "{clean:?}");

    let drifted = check_consts(
        &table(magic),
        "format",
        &[],
        &code("pub const MAGIC: &[u8; 4] = b\"NCL2\";"),
    );
    assert!(drifted[0].contains("`MAGIC` is `b\"NCL2\"`"), "{drifted:?}");

    let dead = format!("{magic}| `GONE` | `1` | `a.rs` |\n");
    let dead = check_consts(
        &table(&dead),
        "format",
        &[],
        &code("pub const MAGIC: &[u8; 4] = b\"NCL1\";"),
    );
    assert_eq!(dead, ["format row `GONE` names no constant in a.rs"]);

    let unrowed = check_consts(
        &table(magic),
        "format",
        &["SVC_"],
        &code("const MAGIC: &[u8; 4] = b\"NCL1\";\nconst SVC_NEW: u64 = 3;"),
    );
    assert_eq!(
        unrowed,
        ["`SVC_NEW` in a.rs has no row in the format table"]
    );

    let unclosed = table(magic).replace("<!-- /table:format -->", "");
    let unclosed = read_table(&unclosed, "format").unwrap_err();
    assert!(unclosed.contains("never closed"), "{unclosed}");

    let widened = read_table(&table("| `A` | `x | y` | `a.rs` |\n"), "format").unwrap_err();
    assert!(widened.contains("not 3 cells wide"), "{widened}");
}

// ---------------------------------------------------------------------
// Suppression budget.

/// `#[expect(clippy::<lint>)]` sites per lint in production code. An
/// `#[expect]` that stops firing is a clippy warning, so each of these
/// still suppresses something; lower a row when a site goes.
/// `disallowed_types` is `plfs::sync`'s, the one module that names the
/// std locks.
#[rustfmt::skip]
const EXPECT_BUDGET: [(&str, usize); 6] = [
    ("disallowed_methods", 3),
    ("disallowed_types", 1),
    ("expect_used", 13),
    ("panic", 7),
    ("should_implement_trait", 1),
    ("too_many_arguments", 4),
];

/// The clippy lints each `#[expect(..)]` or `#![expect(..)]` attribute in
/// `src` names: the text after `expect(` up to its first string, which is
/// the reason.
fn clippy_expects(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in src.match_indices("expect(") {
        let line_start = src[..at].rfind('\n').map_or(0, |n| n + 1);
        if !matches!(src[line_start..at].trim(), "#[" | "#![") {
            continue;
        }
        let args = &src[at + "expect(".len()..];
        let args = &args[..args.find(['"', ')']).unwrap_or(args.len())];
        let lints = args
            .split(',')
            .filter_map(|a| a.trim().strip_prefix("clippy::"));
        out.extend(lints.map(str::to_string));
    }
    out
}

#[test]
fn clippy_suppressions_stay_within_budget() {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (_, src) in workspace_sources() {
        for lint in clippy_expects(&src) {
            *counts.entry(lint).or_default() += 1;
        }
    }
    for (lint, n) in &counts {
        println!("clippy::{lint:<24} {n:>3}");
    }
    for (lint, n) in &counts {
        let budget = EXPECT_BUDGET
            .iter()
            .find(|(l, _)| l == lint)
            .map_or(0, |(_, b)| *b);
        assert!(
            *n <= budget,
            "{n} `#[expect(clippy::{lint})]` sites, budget {budget}"
        );
    }
}

#[test]
fn suppressions_are_counted_per_lint_outside_tests() {
    let src = "#![expect(clippy::panic, reason = \"crate-wide (a, b)\")]\n\
               #[expect(clippy::expect_used, clippy::too_many_arguments, reason = \"two\")]\n\
               fn f() {}\n\
               #[expect(dead_code, reason = \"not clippy\")]\n\
               fn g() { h.expect(\"not an attribute\"); }\n\
               // #[expect(clippy::panic, reason = \"a comment\")]\n\
               #[cfg(test)]\n\
               mod tests { #[expect(clippy::unwrap_used, reason = \"test\")] fn t() {} }\n";
    assert_eq!(
        clippy_expects(production(src)),
        ["panic", "expect_used", "too_many_arguments"]
    );
}

// ---------------------------------------------------------------------
// Process-global state.

/// Every `static` in `crates/core`'s production code, `thread_local!`s
/// included, as `"<file> <name>"`: the state every test and tenant
/// shares. Anything else is owned by a mount, a handle or a capture.
const STATICS: [&str; 7] = [
    "crates/core/src/index/ondisk.rs NEXT_CACHE_ID",
    "crates/core/src/sync.rs HELD",
    "crates/core/src/telemetry.rs DEFAULT",
    "crates/core/src/telemetry.rs EPOCH",
    "crates/core/src/telemetry.rs GATE",
    "crates/core/src/telemetry.rs NEXT_SPAN_ID",
    "crates/core/src/telemetry.rs TLS",
];

/// The name of each `static` item declared in `src`, comments skipped.
fn statics(src: &str) -> Vec<String> {
    let item = |line: &str| {
        let mut words = line.split_whitespace().skip_while(|w| w.starts_with("pub"));
        if words.next()? != "static" {
            return None;
        }
        let name = words.find(|w| *w != "mut")?;
        Some(name.trim_end_matches(':').to_string())
    };
    src.lines().filter_map(item).collect()
}

#[test]
fn process_globals_are_the_listed_ones() {
    let sample = "//! static hashing: one\n    static A: u8 = 0;\npub(crate) static mut B: u8 = 0;\nfn f(x: &'static str) {}\n";
    assert_eq!(statics(sample), ["A", "B"]);
    let mut found = Vec::new();
    for (path, src) in workspace_sources() {
        if path.starts_with("crates/core/src/") {
            found.extend(
                statics(&src)
                    .into_iter()
                    .map(|name| format!("{path} {name}")),
            );
        }
    }
    found.sort();
    assert_eq!(found, STATICS, "crates/core statics against `STATICS`");
}

// ---------------------------------------------------------------------
// One owner of the container layout.

/// Every name inside a container or a shadow. `plfs::container` owns the
/// layout: each is spelled on one production line of the workspace, its
/// constant there, and everything else names files through its builders.
const LAYOUT_LITERALS: [&str; 10] = [
    "dropping.data.", "dropping.index.", "subdir.", ".plfs_shadow", ".plfsaccess",
    "openhosts", "metadir", "flattened.index", ".plfsgen", ".realign",
];

/// The string literals of each line of `src` that is not a comment, as
/// `(line from 1, text)`: what lies between pairs of quotes once escaped
/// quotes and `'"'` are dropped. A quote in a trailing comment counts too,
/// which can only make the check below stricter.
fn string_literals(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in src.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let code = line.replace("\\\\", "").replace("\\\"", "").replace("'\"'", "");
        let quoted = code.split('"').skip(1).step_by(2);
        out.extend(quoted.map(|text| (n + 1, text.to_string())));
    }
    out
}

/// Each layout literal and the `path:line`s of `sources` that spell it.
fn layout_owners(sources: &[(String, String)]) -> Vec<(&'static str, Vec<String>)> {
    let literals: Vec<(String, String)> = (sources.iter())
        .flat_map(|(path, src)| string_literals(src).into_iter().map(move |(n, s)| (format!("{path}:{n}"), s)))
        .collect();
    let spelling = |name: &str| {
        let mut at: Vec<String> = (literals.iter()).filter(|(_, s)| s.contains(name)).map(|(at, _)| at.clone()).collect();
        at.dedup();
        at
    };
    LAYOUT_LITERALS.iter().map(|&name| (name, spelling(name))).collect()
}

#[test]
fn every_layout_name_is_spelled_on_one_line() {
    let sample = "  /// \"subdir.\" in a comment\nlet q = '\"'; fn f<'a>(x: &'a str) {}\n\
                  let s = (\"a \\\" metadir\", \"b metadir\");\n";
    assert_eq!(string_literals(sample), [(3, "a  metadir".into()), (3, "b metadir".into())]);
    let owners = layout_owners(&[("a.rs".into(), sample.into())]);
    assert_eq!((owners[2].1.len(), &owners[6].1[..]), (0, &["a.rs:3".to_string()][..]));
    for (name, lines) in layout_owners(&workspace_sources()) {
        assert_eq!(lines.len(), 1, "`{name}` is spelled on {lines:?}, not on one line");
    }
}
