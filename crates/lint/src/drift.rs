//! format-drift: what the code says must match the authoritative
//! tables in DESIGN.md.
//!
//! Each table lives between `<!-- plfs-lint:<name>-table -->` and
//! `<!-- /plfs-lint:<name>-table -->` markers as an ordinary markdown
//! table: a header row, a `| --- |` separator, one row per subject.
//! [`TABLES`] lists them with what their rows are checked against, and
//! every check runs both ways: a subject in the code with no row is a
//! finding at the subject, a row with no live subject is a finding at
//! the row. Values are compared token-wise (both sides lexed and
//! re-joined), so whitespace and comment differences don't matter but
//! any semantic edit does. The doc is authoritative: a table that is
//! missing, unclosed, empty or has a row of the wrong shape is a
//! configuration error, never a silent pass.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{RawFinding, RuleId};

/// One authoritative table in DESIGN.md.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    /// The table sits between `<!-- plfs-lint:<name>-table -->` markers.
    pub name: &'static str,
    /// The DESIGN.md section that holds it, for messages.
    pub section: &'static str,
    pub against: Against,
}

/// What a table's rows are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Against {
    /// Rows are `` | `NAME` | `VALUE` | `path/to/file.rs` | ``: a `const`
    /// by name in the file the row names. The fields are
    /// `(prefixes, noun, contract)`: a `const` in such a file whose name
    /// starts with one of `prefixes` must have a row, and `noun` and
    /// `contract` word that finding.
    Consts(&'static [&'static str], &'static str, &'static str),
    /// Rows name the variants of `enum IoOp` in [`IOPLANE_RS`].
    IoOpVariants,
    /// Rows are `| name | kind | ...`: the `SPAN_`/`CTR_`/`HIST_` string
    /// constants in [`TELEMETRY_RS`] and the kind each prefix implies.
    TelemetryConsts,
    /// Rows are `| class | rank | file | receivers | ...`
    /// ([`lock_rows`]): the lock acquisition sites the semantic pass
    /// finds in the whole workspace.
    LockSites,
}

pub const IOPLANE_RS: &str = "crates/core/src/ioplane.rs";
pub const TELEMETRY_RS: &str = "crates/core/src/telemetry.rs";

/// Every table the gate checks, in DESIGN.md order.
pub const TABLES: [TableSpec; 6] = [
    TableSpec::new("format", "§5d", Against::Consts(&[], "", "")),
    TableSpec::new("ioplane", "§5e", Against::IoOpVariants),
    TableSpec::new("telemetry", "§5f", Against::TelemetryConsts),
    TableSpec::new("lock", "§5i", Against::LockSites),
    TableSpec::new(
        "spanidx",
        "§5j",
        Against::Consts(&["SPANIDX_", "SPANCACHE_"], "spanidx", "on-disk format"),
    ),
    TableSpec::new("svc", "§5k", Against::Consts(&["SVC_"], "service-layer", "service policy")),
];

/// The [`TABLES`] entry called `name`.
pub fn table(name: &str) -> Option<&'static TableSpec> {
    TABLES.iter().find(|t| t.name == name)
}

/// One data row of a table: its cells with backticks and padding
/// stripped, and its line in DESIGN.md for reporting table-side problems.
#[derive(Debug, Clone)]
pub struct Row {
    pub cells: Vec<String>,
    pub doc_line: u32,
}

/// Token-normalize a Rust expression: lex and re-join with single
/// spaces so `b"NCL1"` and `b"NCL1" /* magic */` compare equal.
pub fn normalize_expr(src: &str) -> String {
    join(&lex(src).toks)
}

fn join(toks: &[Tok]) -> String {
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    texts.join(" ")
}

fn unbacktick(cell: &str) -> &str {
    cell.trim().trim_matches('`').trim()
}

/// Parse `table` out of DESIGN.md. The first row between the markers is
/// the header and fixes the column count, the second is the `---`
/// separator; every row after that is data and must have the header's
/// shape — a row that gained or lost a `|` would otherwise drop out of
/// the check while the gate stays green.
pub fn parse_table(doc: &str, table: &TableSpec) -> Result<Vec<Row>, String> {
    let name = table.name;
    let open = format!("<!-- plfs-lint:{name}-table -->");
    let close = format!("<!-- /plfs-lint:{name}-table -->");
    let mut lines: Vec<(u32, Vec<&str>)> = Vec::new();
    let (mut inside, mut seen_open) = (false, false);
    for (n, line) in doc.lines().enumerate() {
        let line = line.trim();
        if line.contains(&open) {
            (inside, seen_open) = (true, true);
        } else if line.contains(&close) {
            inside = false;
        } else if inside && line.starts_with('|') {
            let cells = line.trim_matches('|').split('|').map(unbacktick).collect();
            lines.push((n as u32 + 1, cells));
        }
    }
    if !seen_open {
        return Err(format!(
            "DESIGN.md has no `{open}` marker ({}); the format-drift rule has nothing to check against",
            table.section
        ));
    }
    if inside {
        return Err(format!("DESIGN.md {name} table is missing its closing `{close}` marker"));
    }
    let is_rule = |cell: &&str| !cell.is_empty() && cell.chars().all(|c| "-: ".contains(c));
    let [(_, header), (rule_line, rule), data @ ..] = lines.as_slice() else {
        return Err(format!("DESIGN.md {name} table is empty"));
    };
    // The checker indexes the leading columns; prose columns may follow.
    let reads = match table.against {
        Against::Consts(..) => 3,
        Against::IoOpVariants => 1,
        Against::TelemetryConsts => 2,
        Against::LockSites => 4,
    };
    if header.len() < reads || rule.len() != header.len() || !rule.iter().all(is_rule) {
        return Err(format!(
            "DESIGN.md {name} table line {rule_line}: expected a header of at least {reads} \
             columns with its `| --- |` separator under it"
        ));
    }
    if data.is_empty() {
        return Err(format!("DESIGN.md {name} table is empty"));
    }
    data.iter()
        .map(|(doc_line, cells)| {
            if cells.len() != header.len() {
                return Err(format!(
                    "DESIGN.md {name} table line {doc_line}: row has {} cells where the header \
                     has {} (a `|` inside a value, or a column added or dropped); the row would \
                     go unchecked",
                    cells.len(),
                    header.len()
                ));
            }
            Ok(Row {
                cells: cells.iter().map(|c| c.to_string()).collect(),
                doc_line: *doc_line,
            })
        })
        .collect()
}

/// Check one scanned file against `table`. Returns findings anchored in
/// the file plus the indices of rows this file satisfied (the caller
/// reports rows no file claimed, [`TableSpec::stale_rows`]).
pub fn check_file(
    table: &TableSpec,
    rows: &[Row],
    rel_path: &str,
    toks: &[Tok],
) -> (Vec<RawFinding>, Vec<usize>) {
    match table.against {
        Against::Consts(..) => check_consts(table, rows, rel_path, toks),
        Against::IoOpVariants if rel_path == IOPLANE_RS => check_ioplane(rows, toks),
        Against::TelemetryConsts if rel_path == TELEMETRY_RS => check_telemetry(rows, toks),
        _ => (Vec::new(), Vec::new()),
    }
}

impl TableSpec {
    const fn new(name: &'static str, section: &'static str, against: Against) -> Self {
        TableSpec {
            name,
            section,
            against,
        }
    }

    /// The other drift direction, as `(DESIGN.md line, message)`: every
    /// row no scanned file matched — or the table as a whole when the one
    /// file its subjects live in was never `scanned`.
    pub fn stale_rows(
        &self,
        rows: &[Row],
        matched: &[bool],
        scanned: impl Fn(&str) -> bool,
    ) -> Vec<(u32, String)> {
        let unscanned = match self.against {
            Against::IoOpVariants => Some(("an I/O-plane op vocabulary", IOPLANE_RS)),
            Against::TelemetryConsts => Some(("a telemetry vocabulary", TELEMETRY_RS)),
            Against::Consts(..) | Against::LockSites => None,
        }
        .filter(|(_, file)| !scanned(file));
        if let Some((what, file)) = unscanned {
            let message = format!(
                "DESIGN.md documents {what} but {file} was not scanned (file moved or deleted \
                 without updating the table)"
            );
            return vec![(rows.first().map_or(1, |r| r.doc_line), message)];
        }
        let stale = rows.iter().zip(matched).filter(|(_, matched)| !**matched);
        stale
            .map(|(row, _)| {
                let name = &row.cells[0];
                let message = match self.against {
                    Against::Consts(..) => format!(
                        "{} table row for `{name}` points at `{}`, which was not scanned \
                         (file moved or deleted without updating the table)",
                        self.name, row.cells[2]
                    ),
                    Against::IoOpVariants => format!(
                        "op vocabulary row `{name}` names no live `IoOp` variant; remove the row \
                         or restore the op"
                    ),
                    Against::TelemetryConsts => format!(
                        "telemetry vocabulary row `{name}` names no recorded \
                         span/counter/histogram; remove the row or restore the constant"
                    ),
                    Against::LockSites => format!(
                        "lock-hierarchy row `{name}` matched no acquisition site in the \
                         workspace; remove the row or restore the lock"
                    ),
                };
                (row.doc_line, message)
            })
            .collect()
    }
}

fn finding(line: u32, message: String) -> RawFinding {
    RawFinding {
        trace: Vec::new(),
        rule: RuleId::FormatDrift,
        line,
        message,
    }
}

/// Every `const NAME ... = <initializer> ;` in a file, as
/// `(line, name, token-normalized initializer)`.
fn consts(toks: &[Tok]) -> Vec<(u32, &str, String)> {
    let mut out = Vec::new();
    for (i, pair) in toks.windows(2).enumerate() {
        if !pair[0].is(TokKind::Ident, "const") || pair[1].kind != TokKind::Ident {
            continue;
        }
        // The type may hold a `;` of its own (`[u8; 4]`): find `=` first.
        let Some(eq) = toks[i..].iter().position(|t| t.is(TokKind::Punct, "=")) else {
            break;
        };
        let init = &toks[i + eq + 1..];
        let end = init.iter().position(|t| t.is(TokKind::Punct, ";")).unwrap_or(init.len());
        out.push((pair[0].line, pair[1].text.as_str(), join(&init[..end])));
    }
    out
}

/// A consts table against one scanned file, both ways: every row naming
/// this file must match a `const` in it, and every `const` here with one
/// of the table's prefixes must have a row — a new knob off the table is
/// drift too.
fn check_consts(
    table: &TableSpec,
    rows: &[Row],
    rel_path: &str,
    toks: &[Tok],
) -> (Vec<RawFinding>, Vec<usize>) {
    let Against::Consts(prefixes, noun, contract) = table.against else {
        return (Vec::new(), Vec::new());
    };
    let consts = consts(toks);
    let mut findings = Vec::new();
    let mut matched = Vec::new();
    for (idx, row) in rows.iter().enumerate() {
        let (name, value, file) = (&row.cells[0], normalize_expr(&row.cells[1]), &row.cells[2]);
        if file != rel_path {
            continue;
        }
        matched.push(idx);
        match consts.iter().find(|(_, c, _)| c == name) {
            Some((_, _, actual)) if *actual == value => {}
            Some((line, _, actual)) => findings.push(finding(
                *line,
                format!(
                    "on-disk format constant `{name}` is `{actual}` but DESIGN.md (line {}) says \
                     `{value}`; update the authoritative table or revert the constant",
                    row.doc_line
                ),
            )),
            None => findings.push(finding(
                1,
                format!(
                    "DESIGN.md (line {}) expects constant `{name}` in this file, but no \
                     `const {name}` declaration was found",
                    row.doc_line
                ),
            )),
        }
    }
    for (line, name, _) in &consts {
        if prefixes.iter().any(|p| name.starts_with(p))
            && !rows.iter().any(|r| r.cells[0] == *name && r.cells[2] == rel_path)
        {
            findings.push(finding(
                *line,
                format!(
                    "{noun} constant `{name}` has no row in the DESIGN.md {} table; \
                     add one (the table is the authoritative {contract} contract)",
                    table.section
                ),
            ));
        }
    }
    (findings, matched)
}

/// Variant names (and lines) of `enum IoOp` in the ioplane source.
fn ioplane_variants(toks: &[Tok]) -> Vec<(String, u32)> {
    let decl = |w: &[Tok]| w[0].is(TokKind::Ident, "enum") && w[1].is(TokKind::Ident, "IoOp");
    let Some(at) = toks.windows(2).position(decl) else {
        return Vec::new();
    };
    let Some(open) = toks[at..].iter().position(|t| t.is(TokKind::Punct, "{")) else {
        return Vec::new();
    };
    let open = at + open;
    let close = crate::rules::matching_close(toks, open);
    let inner = toks[open].depth + 1;
    // A variant name is an ident at the enum body's depth whose
    // predecessor is the opening `{` or a separating `,` (field idents
    // live one brace deeper).
    let is_variant = |k: &usize| {
        let (tok, prev) = (&toks[*k], &toks[*k - 1]);
        tok.kind == TokKind::Ident
            && tok.depth == inner
            && (prev.is(TokKind::Punct, "{") || prev.is(TokKind::Punct, ","))
    };
    let variants = (open + 1..close).filter(is_variant);
    variants.map(|k| (toks[k].text.clone(), toks[k].line)).collect()
}

/// The ioplane source file against the §5e table: every `IoOp` variant
/// must have a row (findings anchored at the variant), and a row is
/// matched when it names a live variant.
fn check_ioplane(rows: &[Row], toks: &[Tok]) -> (Vec<RawFinding>, Vec<usize>) {
    let variants = ioplane_variants(toks);
    if variants.is_empty() {
        let message = "no `enum IoOp` found in the I/O-plane source; the op vocabulary table in \
                       DESIGN.md §5e has nothing to check against";
        return (vec![finding(1, message.into())], Vec::new());
    }
    let unlisted = variants.iter().filter(|(name, _)| !rows.iter().any(|r| &r.cells[0] == name));
    let findings = unlisted.map(|(name, line)| {
        finding(
            *line,
            format!(
                "`IoOp::{name}` has no row in the DESIGN.md §5e op vocabulary table; every \
                 op the plane speaks must be documented there (batchability + retry class)"
            ),
        )
    });
    let live = |row: &Row| variants.iter().any(|(name, _)| name == &row.cells[0]);
    (findings.collect(), (0..rows.len()).filter(|&i| live(&rows[i])).collect())
}

/// `(const ident, recorded name, kind, line)` of every telemetry
/// vocabulary constant in the source: string consts named `SPAN_*`
/// (span), `CTR_*` (counter), or `HIST_*` (histogram). Non-string
/// consts with those prefixes (e.g. `HIST_BUCKET_COUNT`) are not part
/// of the vocabulary.
fn telemetry_registry(toks: &[Tok]) -> Vec<(&str, String, &'static str, u32)> {
    const KINDS: [(&str, &str); 3] = [("SPAN_", "span"), ("CTR_", "counter"), ("HIST_", "histogram")];
    let mut out = Vec::new();
    for (line, ident, value) in consts(toks) {
        let kind = KINDS.iter().find(|(prefix, _)| ident.starts_with(prefix));
        if let (Some((_, kind)), Some(name)) = (kind, value.strip_prefix('"')) {
            out.push((ident, name.trim_end_matches('"').to_string(), *kind, line));
        }
    }
    out
}

/// The telemetry source file against the §5f table: every vocabulary
/// constant must have a row with the right kind (findings anchored at
/// the const), and a row is matched when it names a live constant.
fn check_telemetry(rows: &[Row], toks: &[Tok]) -> (Vec<RawFinding>, Vec<usize>) {
    let registry = telemetry_registry(toks);
    if registry.is_empty() {
        let message = "no `SPAN_`/`CTR_`/`HIST_` string constants found in the telemetry source; \
                       the vocabulary table in DESIGN.md §5f has nothing to check against";
        return (vec![finding(1, message.into())], Vec::new());
    }
    let mut findings = Vec::new();
    for (ident, name, kind, line) in &registry {
        match rows.iter().find(|r| &r.cells[0] == name) {
            None => findings.push(finding(
                *line,
                format!(
                    "`{ident}` records `{name}` but the DESIGN.md §5f telemetry vocabulary table \
                     has no such row; every recorded name must be documented there"
                ),
            )),
            Some(row) if row.cells[1] != *kind => findings.push(finding(
                *line,
                format!(
                    "`{ident}` records `{name}` as a {kind} but DESIGN.md (line {}) documents it \
                     as a {}; fix the table or rename the constant",
                    row.doc_line, row.cells[1]
                ),
            )),
            Some(_) => {}
        }
    }
    let live = |row: &Row| registry.iter().any(|(_, name, _, _)| name == &row.cells[0]);
    (findings, (0..rows.len()).filter(|&i| live(&rows[i])).collect())
}

/// Row of the lock-hierarchy table (DESIGN.md §5i). `class` names the
/// lock class, `rank` its acquisition order (lower acquires first,
/// i.e. outermost), `file` the defining file, and `receivers` the
/// identifiers an acquisition site dereferences (`table` for
/// `self.table.lock()`, `registry` for `registry().read()`).
#[derive(Debug, Clone)]
pub struct LockRow {
    pub class: String,
    pub rank: u32,
    pub file: String,
    pub receivers: Vec<String>,
    pub doc_line: u32,
}

/// Read the lock table's rows as the hierarchy the semantic pass checks
/// acquisition sites against.
pub fn lock_rows(rows: &[Row]) -> Result<Vec<LockRow>, String> {
    rows.iter()
        .map(|row| {
            let (class, rank, lineno) = (&row.cells[0], &row.cells[1], row.doc_line);
            let Ok(rank) = rank.parse::<u32>() else {
                return Err(format!(
                    "DESIGN.md lock table line {lineno}: rank `{rank}` for class `{class}` is not a number"
                ));
            };
            let receivers: Vec<String> = row.cells[3]
                .split(',')
                .map(|r| unbacktick(r).to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if receivers.is_empty() {
                return Err(format!(
                    "DESIGN.md lock table line {lineno}: class `{class}` lists no receiver identifiers"
                ));
            }
            Ok(LockRow {
                class: class.clone(),
                rank,
                file: row.cells[2].clone(),
                receivers,
                doc_line: lineno,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static TableSpec {
        table(name).unwrap()
    }

    const DOC: &str = "\
intro text

<!-- plfs-lint:format-table -->
| constant | value | file |
| --- | --- | --- |
| `MAGIC` | `b\"NCL1\"` | `a/header.rs` |
| `HEADER_REGION` | `8192` | `a/lib.rs` |
<!-- /plfs-lint:format-table -->
";

    #[test]
    fn table_parses_and_matches() {
        let rows = parse_table(DOC, spec("format")).unwrap();
        assert_eq!(rows.len(), 2);
        let toks = lex("const MAGIC: &[u8; 4] = b\"NCL1\"; // four-byte magic").toks;
        let (f, m) = check_file(spec("format"), &rows, "a/header.rs", &toks);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn drifted_value_is_flagged() {
        let rows = parse_table(DOC, spec("format")).unwrap();
        let toks = lex("pub const HEADER_REGION: u64 = 4096;").toks;
        let (f, _) = check_file(spec("format"), &rows, "a/lib.rs", &toks);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("4096"));
    }

    #[test]
    fn missing_const_is_flagged() {
        let rows = parse_table(DOC, spec("format")).unwrap();
        let toks = lex("fn unrelated() {}").toks;
        let (f, _) = check_file(spec("format"), &rows, "a/lib.rs", &toks);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no `const HEADER_REGION`"));
    }

    #[test]
    fn missing_markers_error() {
        assert!(parse_table("no table here", spec("format")).is_err());
        assert!(parse_table("<!-- plfs-lint:format-table -->\n| `A` | `1` | `f.rs` |\n", spec("format")).is_err());
    }

    const SX_DOC: &str = "\
<!-- plfs-lint:spanidx-table -->
| constant | value | file |
| --- | --- | --- |
| `SPANIDX_MAGIC` | `* b\"PLFSIDX1\"` | `a/ondisk.rs` |
| `SPANCACHE_SHARDS` | `8` | `a/spancache.rs` |
<!-- /plfs-lint:spanidx-table -->
";

    #[test]
    fn spanidx_table_matches_both_ways() {
        let rows = parse_table(SX_DOC, spec("spanidx")).unwrap();
        assert_eq!(rows.len(), 2);
        let toks = lex("pub const SPANIDX_MAGIC: [u8; 8] = *b\"PLFSIDX1\";").toks;
        let (f, m) = check_file(spec("spanidx"), &rows, "a/ondisk.rs", &toks);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn spanidx_constant_without_a_row_is_flagged() {
        let rows = parse_table(SX_DOC, spec("spanidx")).unwrap();
        let toks = lex(
            "pub const SPANCACHE_SHARDS: u64 = 8;\npub const SPANCACHE_NEW_KNOB: u64 = 3;",
        )
        .toks;
        let (f, m) = check_file(spec("spanidx"), &rows, "a/spancache.rs", &toks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SPANCACHE_NEW_KNOB"));
        assert_eq!(f[0].line, 2);
        assert_eq!(m, vec![1]);
    }

    #[test]
    fn spanidx_drifted_value_is_flagged() {
        let rows = parse_table(SX_DOC, spec("spanidx")).unwrap();
        let toks = lex("pub const SPANCACHE_SHARDS: u64 = 16;").toks;
        let (f, _) = check_file(spec("spanidx"), &rows, "a/spancache.rs", &toks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("16"));
    }

    #[test]
    fn spanidx_missing_markers_error() {
        assert!(parse_table("no table", spec("spanidx")).is_err());
        assert!(
            parse_table("<!-- plfs-lint:spanidx-table -->\n| `A` | `1` | `f.rs` |\n", spec("spanidx"))
                .is_err()
        );
    }

    const SVCTBL_DOC: &str = "\
<!-- plfs-lint:svc-table -->
| constant | value | file |
| --- | --- | --- |
| `SVC_HANDLE_SHARDS` | `64` | `a/service.rs` |
| `SVC_TOKEN_RATE` | `65536` | `a/service.rs` |
<!-- /plfs-lint:svc-table -->
";

    #[test]
    fn svc_table_matches_both_ways() {
        let rows = parse_table(SVCTBL_DOC, spec("svc")).unwrap();
        assert_eq!(rows.len(), 2);
        let toks = lex(
            "pub const SVC_HANDLE_SHARDS: usize = 64;\npub const SVC_TOKEN_RATE: u64 = 65536;",
        )
        .toks;
        let (f, m) = check_file(spec("svc"), &rows, "a/service.rs", &toks);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(m, vec![0, 1]);
    }

    #[test]
    fn svc_constant_without_a_row_is_flagged() {
        let rows = parse_table(SVCTBL_DOC, spec("svc")).unwrap();
        let toks = lex(
            "pub const SVC_HANDLE_SHARDS: usize = 64;\n\
             pub const SVC_TOKEN_RATE: u64 = 65536;\n\
             pub const SVC_NEW_KNOB: u64 = 3;",
        )
        .toks;
        let (f, m) = check_file(spec("svc"), &rows, "a/service.rs", &toks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SVC_NEW_KNOB"));
        assert!(f[0].message.contains("\u{a7}5k"));
        assert_eq!(f[0].line, 3);
        assert_eq!(m, vec![0, 1]);
    }

    #[test]
    fn svc_drifted_value_is_flagged() {
        let rows = parse_table(SVCTBL_DOC, spec("svc")).unwrap();
        let toks = lex(
            "pub const SVC_HANDLE_SHARDS: usize = 32;\npub const SVC_TOKEN_RATE: u64 = 65536;",
        )
        .toks;
        let (f, _) = check_file(spec("svc"), &rows, "a/service.rs", &toks);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("32"));
    }

    #[test]
    fn svc_missing_markers_error() {
        assert!(parse_table("no table", spec("svc")).is_err());
        assert!(
            parse_table("<!-- plfs-lint:svc-table -->\n| `A` | `1` | `f.rs` |\n", spec("svc")).is_err()
        );
    }
}
