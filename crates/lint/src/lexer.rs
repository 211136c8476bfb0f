//! A minimal Rust lexer — just enough structure for the lint rules.
//!
//! The vendor tree is offline-only, so there is no `syn`; instead the
//! rules operate on a token stream with line numbers and brace depth.
//! The lexer understands everything that could make a *textual* scan
//! lie: line and (nested) block comments, string/char/byte/raw-string
//! literals, lifetimes vs char literals, and numeric literals. Tokens
//! inside those never reach the rules, so `"call .unwrap() here"` in a
//! doc string is not a finding.
//!
//! Suppression pragmas ride on plain `//` comments (doc comments are
//! deliberately excluded so rule names can be *discussed* in docs
//! without being parsed). Grammar:
//!
//! ```text
//! plfs-lint: allow(<rule>): <reason>
//! ```
//!
//! written after `//` on the flagged line or on a comment line directly
//! above it. The reason is mandatory; pragmas are counted and reported,
//! never free. (Clippy's lints are suppressed by the compiler's own
//! `#[expect(clippy::<lint>, reason = "..")]`, which the rules count.)

/// Token classification. Literals cover strings, chars, and numbers —
/// the rules only ever need "not an identifier, not punctuation".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Literal,
    Lifetime,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Brace nesting depth *inside which* this token sits. A block's
    /// opening `{` carries the outer depth; its contents and its closing
    /// `}` carry the inner depth (outer + 1).
    pub depth: u32,
}

impl Tok {
    pub fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
}

/// A `plfs-lint:` comment, as written (possibly malformed — rule `None`).
#[derive(Debug, Clone)]
pub struct RawPragma {
    pub line: u32,
    /// Parsed rule name; `None` when the comment matched `plfs-lint:`
    /// but not the `allow(<rule>): <reason>` grammar.
    pub rule: Option<String>,
    pub reason: String,
}

/// Lexed file: tokens plus the pragmas harvested from comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub pragmas: Vec<RawPragma>,
}

/// Parse the body of a `//` comment into a pragma, if it is one.
/// Returns `None` for ordinary comments; returns a malformed pragma
/// (rule `None`) when the `plfs-lint` marker is present but the rest
/// does not parse — the caller reports those instead of silently
/// ignoring a typo'd suppression.
fn parse_pragma(comment: &str, line: u32) -> Option<RawPragma> {
    // `comment` starts with exactly "//"; doc comments ("///", "//!")
    // are not pragma carriers.
    let body = comment.strip_prefix("//")?;
    if body.starts_with('/') || body.starts_with('!') {
        return None;
    }
    let body = body.trim();
    let rest = body.strip_prefix("plfs-lint")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix(':').unwrap_or(rest).trim_start();
    if let Some(r) = rest.strip_prefix("allow(") {
        if let Some(close) = r.find(')') {
            let rule = r[..close].trim().to_string();
            let after = r[close + 1..].trim_start();
            let reason = after
                .strip_prefix(':')
                .map(|s| s.trim().to_string())
                .unwrap_or_default();
            if !rule.is_empty() && !reason.is_empty() {
                return Some(RawPragma {
                    line,
                    rule: Some(rule),
                    reason,
                });
            }
        }
    }
    Some(RawPragma {
        line,
        rule: None,
        reason: String::new(),
    })
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and pragmas. Never fails: unterminated
/// constructs simply end at EOF (the rules degrade gracefully on a file
/// that does not parse as Rust).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut depth = 0u32;
    let mut out = Lexed::default();

    // Consume a quoted run starting at `chars[start]` (a `"` or `'`),
    // honouring backslash escapes. Returns the index just past the close
    // quote and the number of newlines crossed.
    fn skip_quoted(chars: &[char], start: usize, quote: char) -> (usize, u32) {
        let mut i = start + 1;
        let mut newlines = 0;
        while i < chars.len() {
            match chars[i] {
                '\\' => {
                    // An escaped newline (string continuation) still
                    // advances the physical line count.
                    if chars.get(i + 1) == Some(&'\n') {
                        newlines += 1;
                    }
                    i += 2;
                }
                '\n' => {
                    newlines += 1;
                    i += 1;
                }
                c if c == quote => return (i + 1, newlines),
                _ => i += 1,
            }
        }
        (i, newlines)
    }

    // Raw string starting at the `r` (hashes counted from `start+1`).
    // Returns None when it is not actually a raw string opener.
    fn skip_raw(chars: &[char], start: usize) -> Option<(usize, u32)> {
        let mut i = start + 1;
        let mut hashes = 0usize;
        while chars.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
        if chars.get(i) != Some(&'"') {
            return None;
        }
        i += 1;
        let mut newlines = 0;
        while i < chars.len() {
            if chars[i] == '\n' {
                newlines += 1;
                i += 1;
                continue;
            }
            if chars[i] == '"' {
                let mut j = i + 1;
                let mut h = 0usize;
                while h < hashes && chars.get(j) == Some(&'#') {
                    h += 1;
                    j += 1;
                }
                if h == hashes {
                    return Some((j, newlines));
                }
            }
            i += 1;
        }
        Some((i, newlines))
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (and pragma harvesting).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if let Some(p) = parse_pragma(&text, line) {
                out.pragmas.push(p);
            }
            continue;
        }
        // Block comment, nested as Rust allows.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut level = 1u32;
            i += 2;
            while i < chars.len() && level > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    level += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    level -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings and byte strings: r"..", r#".."#, br".."', b"..", b'x'.
        if c == 'r' || c == 'b' {
            let rpos = if c == 'b' && chars.get(i + 1) == Some(&'r') {
                Some(i + 1)
            } else if c == 'r' {
                Some(i)
            } else {
                None
            };
            let raw = rpos.and_then(|p| skip_raw(&chars, p));
            if let Some((end, newlines)) = raw {
                let text: String = chars[i..end].iter().collect();
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                    depth,
                });
                line += newlines;
                i = end;
                continue;
            }
            if c == 'b' && matches!(chars.get(i + 1), Some(&'"') | Some(&'\'')) {
                let quote = chars[i + 1];
                let (end, newlines) = skip_quoted(&chars, i + 1, quote);
                let text: String = chars[i..end].iter().collect();
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                    depth,
                });
                line += newlines;
                i = end;
                continue;
            }
            // Raw identifier: `r#ident` (keyword escape). Not a raw
            // string (no `"` after the hashes — skip_raw said no), so
            // lex it as ONE identifier with the `r#` stripped; the
            // naive path would emit `r`, `#`, `ident` and a statement
            // like `r#match()` would read as a `match` expression.
            if c == 'r'
                && chars.get(i + 1) == Some(&'#')
                && chars.get(i + 2).copied().is_some_and(is_ident_start)
            {
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                    depth,
                });
                i = j;
                continue;
            }
        }
        if c == '"' {
            let (end, newlines) = skip_quoted(&chars, i, '"');
            let text: String = chars[i..end].iter().collect();
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text,
                line,
                depth,
            });
            line += newlines;
            i = end;
            continue;
        }
        // `'` is a char literal or a lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let char_lit = match next {
                Some('\\') => true,
                Some(n) if is_ident_continue(n) => chars.get(i + 2) == Some(&'\''),
                Some(_) => true, // e.g. '(' — a punctuation char literal
                None => false,
            };
            if char_lit {
                let (end, newlines) = skip_quoted(&chars, i, '\'');
                let text: String = chars[i..end].iter().collect();
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                    depth,
                });
                line += newlines;
                i = end;
                continue;
            }
            // Lifetime: consume the ident after the tick.
            let start = i;
            i += 1;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.toks.push(Tok {
                kind: TokKind::Lifetime,
                text,
                line,
                depth,
            });
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
                depth,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len()
                && (is_ident_continue(chars[i])
                    || (chars[i] == '.'
                        && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && chars.get(i.wrapping_sub(1)).is_some_and(|p| p.is_ascii_digit())))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text,
                line,
                depth,
            });
            continue;
        }
        // Punctuation, one char at a time; braces adjust depth.
        match c {
            '{' => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "{".into(),
                    line,
                    depth,
                });
                depth += 1;
            }
            '}' => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "}".into(),
                    line,
                    depth,
                });
                depth = depth.saturating_sub(1);
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                    depth,
                });
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn escaped_newline_in_string_counts_a_line() {
        let src = "let a = \"one\\\ntwo\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3, "string continuation must advance line count");
    }

    #[test]
    fn comments_and_strings_do_not_tokenize() {
        let src = r##"
            // a comment with .unwrap() inside
            /* block /* nested */ .expect( */
            let s = "quoted .unwrap() text";
            let r = r#"raw "with" quotes .expect("x")"#;
            let b = b"bytes";
            call();
        "##;
        let t = texts(src);
        assert!(!t.iter().any(|x| x == "unwrap" || x == "expect"));
        assert!(t.contains(&"call".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = t
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(t
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn brace_depth_tracks_blocks() {
        let t = lex("fn f() { if x { y(); } }");
        let y = t.toks.iter().find(|t| t.text == "y").map(|t| t.depth);
        assert_eq!(y, Some(2));
        let f = t.toks.iter().find(|t| t.text == "f").map(|t| t.depth);
        assert_eq!(f, Some(0));
    }

    #[test]
    fn pragmas_parse_and_doc_comments_do_not() {
        let src = "\
// plfs-lint: allow(swallowed-result): every other issue is report-only
/// plfs-lint: allow(swallowed-result): just documentation
// plfs-lint: allow(): missing rule
x();
";
        let l = lex(src);
        assert_eq!(l.pragmas.len(), 2);
        assert_eq!(l.pragmas[0].rule.as_deref(), Some("swallowed-result"));
        assert_eq!(l.pragmas[0].reason, "every other issue is report-only");
        assert_eq!(l.pragmas[1].rule, None, "malformed pragma is surfaced");
    }

    #[test]
    fn raw_strings_of_every_hash_depth_are_single_literals() {
        // r"..", r#".."#, r##"..".."##, and byte-raw br#".."# — none of
        // the quoted contents may leak into the token stream, and the
        // token after each literal must survive intact.
        let src = "let a = r\"plain .unwrap()\"; let b = r#\"one \"deep\" .lock()\"#;\n\
                   let c = r##\"two \"# deep\"##; let d = br#\"bytes \"raw\"\"#; done();";
        let l = lex(src);
        let lits: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .collect();
        assert_eq!(lits.len(), 4, "{lits:?}");
        assert!(!l.toks.iter().any(|t| t.text == "unwrap" || t.text == "lock"));
        assert!(l.toks.iter().any(|t| t.is(TokKind::Ident, "done")));
    }

    #[test]
    fn multiline_raw_string_advances_line_count() {
        let src = "let a = r#\"line\none\ntwo\"#;\nafter();\n";
        let l = lex(src);
        let after = l.toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn nested_block_comments_close_at_the_right_level() {
        // Two levels of nesting, a `/*/` pivot, and a multi-line body:
        // everything inside is invisible, everything after is lexed.
        let src = "/* a /* b /* c */ b */ .unwrap() */ x();\n/*/ still open */ y();\n/* l1\nl2 */ z();";
        let l = lex(src);
        let idents: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["x", "y", "z"]);
        let z = l.toks.iter().find(|t| t.text == "z").unwrap();
        assert_eq!(z.line, 4, "newlines inside block comments count");
    }

    #[test]
    fn raw_identifiers_lex_as_one_ident() {
        // `r#type` / `r#match` are keyword escapes, not `r` + `#` +
        // keyword — the phantom `#` used to start an attribute scan and
        // the bare keyword corrupted statement parsing.
        let src = "let r#type = 1; r#match(); s.r#await();";
        let l = lex(src);
        assert!(!l.toks.iter().any(|t| t.is(TokKind::Punct, "#")));
        let idents: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "type", "match", "s", "await"]);
    }

    #[test]
    fn raw_ident_fix_does_not_break_raw_strings_after_r() {
        // `r#"..."#` must still win over the raw-identifier branch.
        let l = lex("let x = r#\"not an ident\"#;");
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Literal
            && t.text.starts_with("r#\"")));
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let t = texts("for i in 0..10 { a[i] = 1.5; }");
        assert!(t.contains(&"0".to_string()));
        assert!(t.contains(&"10".to_string()));
        assert!(t.contains(&"1.5".to_string()));
    }
}
