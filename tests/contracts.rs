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
//!   code, its constant in `crates/core/src/container.rs`;
//! * the public surface: each `pub` item of a library crate is named
//!   outside the crate's `src/`, or is a type a kept `pub` signature
//!   exposes and has an [`EXPOSED`] row;
//! * the crash-state total DESIGN.md §5c states: the sum of
//!   `tests/crash_states.rs`'s pinned rows.
//!
//! A table sits between `<!-- table:<name> -->` and `<!-- /table:<name> -->`
//! in DESIGN.md, and [`read_table`] is the one reader of all six.
//! Production code is each `.rs` file under `crates/*/src` and `src/`
//! above its first top-level `#[cfg(test)]` (EXPERIMENTS.md §I's rule).

#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is the test's failure report"
)]

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

/// Every `.rs` file under `dir` (relative to the repository root), whole:
/// `(path from the root, text)`.
fn rust_files(dir: &str) -> Vec<(String, String)> {
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
                out.push((rel, text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    walk(&root.join(dir), root, &mut out);
    out
}

/// The crates under `crates/`, by directory name.
fn crate_names() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = (std::fs::read_dir(root).unwrap())
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Production source of the workspace: `(path from the root, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for krate in crate_names() {
        out.extend(rust_files(&format!("crates/{krate}/src")));
    }
    out.extend(rust_files("src"));
    for (_, text) in &mut out {
        *text = production(text).to_string();
    }
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

// ---------------------------------------------------------------------
// The public surface.

/// `pub` items that no user names but that stay `pub`, as
/// `(crate, item, signature)`: each is a type or trait the kept `pub`
/// signature exposes, so making it crate-private would leak a private
/// type through that signature. The signature's last segment must itself
/// be a `pub` item or field its crate's users name.
#[rustfmt::skip]
const EXPOSED: [(&str, &str, &str); 22] = [
    ("core", "CheckReport", "fsck::check"),
    ("core", "Class", "sync::Mutex"),
    ("core", "ClassInfo", "sync::class::ALL"),
    ("core", "DataLogTail", "CheckReport::tails"),
    ("core", "FaultStats", "FaultBackend::stats"),
    ("core", "FileStat", "Plfs::stat"),
    ("core", "Guard", "sync::Mutex::lock"),
    ("core", "IndexProbe", "Container::probe_index"),
    ("core", "Mapping", "GlobalIndex::lookup_into"),
    ("core", "RepairOutcome", "fsck::repair"),
    ("core", "SpaceUsage", "fsck::space_usage"),
    ("core", "SpanGuard", "telemetry::span"),
    ("formats", "SpanIdxSummary", "spanidx::describe"),
    ("harness", "Point", "Series::points"),
    ("mpio", "PhaseStat", "Metrics::get"),
    ("mpio", "RunResult", "Exec::run"),
    ("pfs", "IdHasher", "cache::IdMap"),
    ("pfs", "Namespace", "SimPfs::namespace"),
    ("workloads", "OpSpec", "Workload::new"),
    ("workloads", "ShrunkProgram", "ShrunkRestart::program"),
    ("workloads", "ShrunkRestart", "shrunk_restart"),
    ("workloads", "SpecProgram", "Workload::program"),
];

/// Every directory whose Rust files may name a library crate's items:
/// the crates (their tests, examples and binaries included), the
/// umbrella crate and its binaries, the integration tests, the examples
/// and the benchmark.
const SURFACE_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// `src` with every `//` comment cut off, doc comments included.
fn strip_comments(src: &str) -> String {
    let code = src
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""));
    code.collect::<Vec<_>>().join("\n")
}

/// The type an `impl` header line implements on, or `None` for a trait
/// impl: `impl<T: X> a::Queue<T> {` gives `Queue`.
fn inherent_impl_type(header: &str) -> Option<String> {
    let mut rest = header.trim_start().strip_prefix("impl")?.replace("->", "");
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = rest[end + 1..].to_string();
    }
    let target = rest.split(['{', '<']).next()?.trim();
    if target.contains(" for ") || target.contains(" where") {
        return None;
    }
    target.rsplit("::").next().map(str::to_string)
}

/// The `pub` items and `pub` fields declared in `src`, as `(line from 1,
/// kind, name, owner)`: a field's kind is `field`, and `owner` is the
/// type of the inherent `impl` a `pub fn` is a method of. `pub(crate)`
/// and `pub use` declare neither. An `impl` block ends at the first `}`
/// line indented as its header, as rustfmt lays it out.
fn pub_declarations(src: &str) -> Vec<(usize, &str, String, Option<String>)> {
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    let mut out = Vec::new();
    // Open `impl` blocks, innermost last: (header indent, inherent type).
    let mut impls: Vec<(usize, Option<String>)> = Vec::new();
    for (n, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if trimmed == "}" && impls.last().is_some_and(|(at, _)| *at == indent) {
            impls.pop();
        }
        if (trimmed.starts_with("impl<") || trimmed.starts_with("impl ")) && !trimmed.ends_with('}')
        {
            impls.push((indent, inherent_impl_type(trimmed)));
        }
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let mut words = rest.split_whitespace().peekable();
        // Qualifiers before the kind: `pub const fn`, `pub unsafe fn`, ...
        while words
            .next_if(|w| matches!(*w, "async" | "unsafe" | "extern" | "\"C\""))
            .is_some()
        {}
        let Some(first) = words.next() else { continue };
        let (kind, name) = match KINDS.iter().find(|k| **k == first) {
            Some(&"const") if words.peek() == Some(&"fn") => ("fn", words.nth(1)),
            Some(&"static") if words.peek() == Some(&"mut") => ("static", words.nth(1)),
            Some(kind) => (*kind, words.next()),
            None => ("field", Some(first)),
        };
        let name: String = (name.unwrap_or("").chars())
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let owner = match impls.last() {
            Some((_, owner)) if kind == "fn" => owner.clone(),
            _ => None,
        };
        if !name.is_empty() && name != "use" {
            out.push((n + 1, kind, name, owner));
        }
    }
    out
}

/// What a file names: every word; the words called or read as `.word`;
/// and the `Type::word` pairs, a turbofish (`Type::<T>::word`) skipped.
#[derive(Default)]
struct Names {
    words: std::collections::BTreeSet<String>,
    dotted: std::collections::BTreeSet<String>,
    pathed: std::collections::BTreeSet<(String, String)>,
}

impl Names {
    /// The names in `code` (comments already cut).
    fn of(code: &str) -> Names {
        let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        // Tokens: words, `::`, `..` and single punctuation marks.
        let mut tokens: Vec<&str> = Vec::new();
        let mut rest = code.trim_start();
        while let Some(c) = rest.chars().next() {
            let len = if is_word(c) {
                rest.find(|c| !is_word(c)).unwrap_or(rest.len())
            } else if rest.starts_with("::") || rest.starts_with("..") {
                2
            } else {
                c.len_utf8()
            };
            tokens.push(&rest[..len]);
            rest = rest[len..].trim_start();
        }
        let mut names = Names::default();
        for (i, token) in tokens.iter().enumerate() {
            if !token.starts_with(is_word) {
                continue;
            }
            names.words.insert(token.to_string());
            match i.checked_sub(1).map(|j| tokens[j]) {
                Some(".") => {
                    names.dotted.insert(token.to_string());
                }
                Some("::") => {
                    // `j` is the `::` after the type the path names:
                    // back over a turbofish `::<..>` to it.
                    let mut j = i - 1;
                    if j >= 1 && tokens[j - 1] == ">" {
                        let (mut k, mut depth) = (j - 1, 0);
                        loop {
                            depth += match tokens[k] {
                                ">" => 1,
                                "<" => -1,
                                _ => 0,
                            };
                            if depth == 0 || k == 0 {
                                break;
                            }
                            k -= 1;
                        }
                        j = k.saturating_sub(1);
                    }
                    if let Some(owner) = j.checked_sub(1).map(|k| tokens[k]) {
                        names.pathed.insert((owner.to_string(), token.to_string()));
                    }
                }
                _ => {}
            }
        }
        names
    }

    fn extend(&mut self, other: &Names) {
        self.words.extend(other.words.iter().cloned());
        self.dotted.extend(other.dotted.iter().cloned());
        self.pathed.extend(other.pathed.iter().cloned());
    }

    /// Whether these names use `name`: as a method of `owner`, only
    /// `.name` or `owner::name` does; otherwise any word spelled so.
    fn uses(&self, owner: Option<&String>, name: &str) -> bool {
        match owner {
            Some(owner) => {
                self.dotted.contains(name)
                    || self.pathed.contains(&(owner.clone(), name.to_string()))
            }
            None => self.words.contains(name),
        }
    }
}

/// The surface rule over `files` (`(path from the root, text)`, whole):
/// each `pub` item of a crate in `crates` (its `crates/<name>/src`,
/// binaries aside, above the first top-level `#[cfg(test)]`) is named as
/// a word in some file outside that directory, or has an `exposed` row.
/// A method of an inherent `impl T` counts as named only where it is
/// called or referred to as `.name` or `T::name`. Also refuses a row that
/// matches no such item or names no signature its crate's users call.
fn surface_problems(
    files: &[(String, String)],
    crates: &[String],
    exposed: &[(&str, &str, &str)],
) -> Vec<String> {
    let names: Vec<(&str, Names)> = (files.iter())
        .map(|(path, text)| (path.as_str(), Names::of(&strip_comments(text))))
        .collect();
    let mut problems = Vec::new();
    for krate in crates {
        let src_dir = format!("crates/{krate}/src/");
        let own =
            |path: &str| path.starts_with(&src_dir) && !path.starts_with(&format!("{src_dir}bin/"));
        let mut outside = Names::default();
        for (_, file_names) in names.iter().filter(|(path, _)| !own(path)) {
            outside.extend(file_names);
        }
        let (mut kept, mut listed) = (Vec::new(), Vec::new());
        for (path, text) in files.iter().filter(|(path, _)| own(path)) {
            for (line, kind, name, owner) in pub_declarations(&strip_comments(production(text))) {
                if outside.uses(owner.as_ref(), &name) {
                    kept.push(name);
                } else if kind == "field" {
                    // A field is not an item: reachable only through its type.
                } else if exposed
                    .iter()
                    .any(|(k, item, _)| k == krate && *item == name)
                {
                    listed.push(name);
                } else if let Some(owner) = owner {
                    problems.push(format!(
                        "{path}:{line}: `pub fn {owner}::{name}` is called nowhere outside {src_dir}; make it pub(crate), or delete it"
                    ));
                } else {
                    problems.push(format!(
                        "{path}:{line}: `pub {kind} {name}` is named nowhere outside {src_dir}; make it pub(crate), or delete it"
                    ));
                }
            }
        }
        for (k, item, signature) in exposed.iter().filter(|(k, _, _)| k == krate) {
            let via = signature.rsplit("::").next().unwrap_or("");
            if !listed.iter().any(|name| name == item) {
                problems.push(format!(
                    "EXPOSED row `{k} {item}` matches no unnamed pub item of {src_dir}"
                ));
            } else if via.is_empty() || !kept.iter().any(|name| name == via) {
                problems.push(format!(
                    "EXPOSED row `{k} {item}` names `{signature}`, not a pub signature that users of {src_dir} call"
                ));
            }
        }
    }
    problems
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let mut files = Vec::new();
    for dir in SURFACE_DIRS {
        files.extend(rust_files(dir));
    }
    // The table that lists an item is not a user of it.
    if let Some((_, text)) = files
        .iter_mut()
        .find(|(path, _)| path == "tests/contracts.rs")
    {
        let start = text.find("const EXPOSED").unwrap();
        let len = text[start..].find("];").unwrap();
        text.replace_range(start..start + len, "");
    }
    let problems = surface_problems(&files, &crate_names(), &EXPOSED);
    assert!(problems.is_empty(), "the public surface: {problems:#?}");
}

#[test]
fn an_unnamed_pub_item_and_a_bad_exposed_row_fail() {
    let files = |lib: &str| {
        vec![
            ("crates/a/src/lib.rs".to_string(), lib.to_string()),
            (
                "crates/a/src/bin/tool.rs".to_string(),
                "fn main() { a::run(); }".to_string(),
            ),
            (
                "tests/t.rs".to_string(),
                "a::Stat::of(a::open()).size; a::open().close(); reset(); // a::lonely".to_string(),
            ),
        ]
    };
    let lib = "/// pub fn in_a_doc() {}\npub fn run() {}\npub(crate) fn inner() {}\n\
               pub struct Stat { pub size: u64 }\npub struct Handle;\n\
               pub fn open() -> Handle { Handle }\nimpl Handle {\n    pub fn close(&self) {}\n}\n\
               #[cfg(test)]\nmod tests { pub fn helper() {} }\n";
    let crates = ["a".to_string()];
    let row = [("a", "Handle", "open")];
    assert_eq!(
        surface_problems(&files(lib), &crates, &row),
        Vec::<String>::new()
    );

    let lonely = files(&format!("pub fn lonely() {{}}\n{lib}"));
    assert_eq!(
        surface_problems(&lonely, &crates, &row),
        ["crates/a/src/lib.rs:1: `pub fn lonely` is named nowhere outside crates/a/src/; make it pub(crate), or delete it"]
    );

    // `reset` outside is a free function's name, not a call of the method.
    let method = lib.replace(
        "close(&self) {}\n",
        "close(&self) {}\n    pub fn reset(&self) {}\n",
    );
    assert_eq!(
        surface_problems(&files(&method), &crates, &row),
        ["crates/a/src/lib.rs:9: `pub fn Handle::reset` is called nowhere outside crates/a/src/; make it pub(crate), or delete it"]
    );

    let stale = [("a", "Handle", "open"), ("a", "Stat", "open")];
    assert_eq!(
        surface_problems(&files(lib), &crates, &stale),
        ["EXPOSED row `a Stat` matches no unnamed pub item of crates/a/src/"]
    );

    for signature in ["", "a::Handle", "inner"] {
        let unreasoned = [("a", "Handle", signature)];
        let problems = surface_problems(&files(lib), &crates, &unreasoned);
        assert_eq!(problems.len(), 1, "{signature:?}: {problems:?}");
        assert!(problems[0].contains("not a pub signature"), "{problems:?}");
    }
}

// ---------------------------------------------------------------------
// The crash-state total.

/// The sum of the `states:` pins of `tests/crash_states.rs`'s
/// `SCENARIOS` rows, and the number DESIGN.md §5c puts before "of their
/// states".
fn crash_state_totals(scenarios: &str, doc: &str) -> (usize, Option<usize>) {
    let rows = scenarios
        .lines()
        .filter(|l| l.trim_start().starts_with("Scenario {"));
    let pinned = rows
        .filter_map(|row| row.split("states: ").nth(1))
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .map(|n| n.parse::<usize>().unwrap())
        .sum();
    let before = doc
        .split("of their states")
        .next()
        .filter(|b| b.len() < doc.len());
    let stated = before
        .and_then(|b| b.split_whitespace().last())
        .map(|n| n.replace(',', ""));
    (pinned, stated.and_then(|n| n.parse().ok()))
}

#[test]
fn design_states_the_pinned_crash_state_total() {
    let sample =
        "const S: [Scenario; 2] = [\n    Scenario { name: \"a\", states: 63, x: 1 },\n    \
                  Scenario { name: \"b\", states: 1200, x: 2 },\n];\n";
    assert_eq!(
        crash_state_totals(sample, "checks all\n1,263 of their states"),
        (1263, Some(1263))
    );
    assert_eq!(
        crash_state_totals(sample, "checks every state"),
        (1263, None)
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenarios = std::fs::read_to_string(root.join("tests/crash_states.rs")).unwrap();
    let (pinned, stated) = crash_state_totals(&scenarios, &design_md());
    assert_eq!(
        stated,
        Some(pinned),
        "DESIGN.md §5c's crash-state total against the pinned rows"
    );
}
