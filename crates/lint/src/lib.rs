//! `sprite_lint` — offline static analysis for the determinism
//! invariants that the toolchain cannot check.
//!
//! The reproduction's results are only checkable because serial and
//! `--jobs N` runs replay byte-identically. Most of the source invariants
//! behind that are enforced by the toolchain itself: clippy's
//! `disallowed-types` list in the root `clippy.toml` bans the randomized
//! std hashers and the wall clock, `[workspace.lints.rust]` forbids
//! `unsafe` in every member crate, and the raw `Network` is private to
//! `sprite-net`, so every send goes through the typed `Transport`. This
//! crate keeps the checks nothing else can do, in two layers:
//!
//! - **Token rules** ([`rules`]): per-file checks over the token stream
//!   from the lexer ([`lexer`]) — no `unwrap`/`expect` on a transport
//!   result, and no unordered map iteration into scheduling.
//! - **Semantic rules** ([`semantic`]): workspace-level checks over an
//!   item graph ([`items`]) recovered by a lightweight parser
//!   ([`parser`]) — digest-field coverage, RPC wire-table coverage, and
//!   stats merge coverage, the invariant surfaces that drift silently.
//!
//! [`check_paths`] reads and analyzes the files one after another in path
//! order, then runs the semantic pass over the merged item graph.
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -q -p sprite_lint -- crates src tests examples
//! ```
//!
//! A diagnostic is suppressed by a `lint: allow(rule-id)` comment on the
//! same line, the line above, or anywhere inside a block comment whose
//! span covers the line above. Two field-level aliases exist for the
//! semantic rules: `digest-skip` (for `digest-field-coverage`) and
//! `stats-skip` (for `stats-merge-coverage`) — always follow them with a
//! reason, e.g. `// lint: allow(digest-skip) immutable topology`.
//! Directives that name an unknown rule, or that no longer suppress
//! anything, are themselves flagged (`unused-allow`) so stale
//! suppressions cannot accumulate. Rule IDs are listed in
//! [`rules::ALL_RULES`]; see `DESIGN.md` for the rule table.

#![warn(missing_docs)]

pub mod items;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, ALL_RULES};

/// Field-level alias → semantic rule it suppresses.
const ALLOW_ALIASES: &[(&str, &str)] = &[
    ("digest-skip", semantic::DIGEST_RULE),
    ("stats-skip", semantic::STATS_RULE),
];

/// Allow IDs that are valid but exempt from the never-matched check:
/// `all` is a deliberate blanket, and `unused-allow` exists only to mute
/// the hygiene rule itself.
const BLANKET_ALLOWS: &[&str] = &["all", "unused-allow"];

/// Result of checking one file (or a whole tree): surviving diagnostics
/// plus the ones an allow-directive suppressed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Diagnostics that survived suppression, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics muted by a `lint: allow(...)` directive.
    pub suppressed: Vec<Diagnostic>,
    /// Files checked.
    pub files: usize,
}

impl Outcome {
    /// Sorts diagnostics for stable reporting.
    pub fn sort(&mut self) {
        let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule);
        self.diagnostics.sort_by_key(key);
        self.suppressed.sort_by_key(key);
    }

    /// Count of surviving diagnostics for `rule`.
    pub fn count(&self, rule: &str) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Count of suppressed diagnostics for `rule`.
    pub fn suppressed_count(&self, rule: &str) -> usize {
        self.suppressed.iter().filter(|d| d.rule == rule).count()
    }
}

/// One file's per-file analysis: everything derived from its text alone.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Raw (pre-suppression) token-rule diagnostics.
    pub raw: Vec<Diagnostic>,
    /// Allow directives harvested from comments.
    pub allows: Vec<lexer::AllowDirective>,
    /// The item skeleton.
    pub items: items::FileItems,
}

/// Analyzes one file's source text: lexes once, runs the token rules, and
/// parses the item skeleton. No suppression is applied here — that (and
/// the semantic rules) happens in [`finish`], which needs every file.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let mut raw = Vec::new();
    rules::check_tokens(path, &lexed.tokens, &mut raw);
    FileAnalysis {
        path: path.to_string(),
        raw,
        allows: lexed.allows,
        items: parser::parse_items(&lexed.tokens),
    }
}

/// True if directive ID `dir_rule` suppresses diagnostics of `diag_rule`.
fn directive_matches(dir_rule: &str, diag_rule: &str) -> bool {
    dir_rule == diag_rule
        || dir_rule == "all"
        || ALLOW_ALIASES
            .iter()
            .any(|(alias, rule)| *alias == dir_rule && *rule == diag_rule)
}

/// True if `id` is a recognized allow ID (a rule, an alias, or a blanket).
fn known_allow_id(id: &str) -> bool {
    ALL_RULES.contains(&id)
        || ALLOW_ALIASES.iter().any(|(alias, _)| *alias == id)
        || BLANKET_ALLOWS.contains(&id)
}

/// Completes a scan: runs the semantic rules over the merged item graph,
/// applies allow-directive suppression to every diagnostic, and emits
/// `unused-allow` for directives that are unknown or suppressed nothing.
pub fn finish(mut analyses: Vec<FileAnalysis>) -> Outcome {
    let mut out = Outcome {
        files: analyses.len(),
        ..Outcome::default()
    };

    // Semantic pass over the merged item graph (items are not needed for
    // suppression, so move them out rather than clone).
    let graph: Vec<(String, items::FileItems)> = analyses
        .iter_mut()
        .map(|a| (a.path.clone(), std::mem::take(&mut a.items)))
        .collect();
    let mut all_raw: Vec<Diagnostic> = Vec::new();
    semantic::check_items(&graph, &mut all_raw);
    for a in &mut analyses {
        all_raw.append(&mut a.raw);
    }

    // Per-(directive, rule-id) usage, indexed parallel to the allows.
    let index: BTreeMap<&str, usize> = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| (a.path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<Vec<bool>>> = analyses
        .iter()
        .map(|a| {
            a.allows
                .iter()
                .map(|al| vec![false; al.rules.len()])
                .collect()
        })
        .collect();

    for d in all_raw {
        let mut suppressed = false;
        if let Some(&fi) = index.get(d.file.as_str()) {
            for (ai, al) in analyses[fi].allows.iter().enumerate() {
                if d.line < al.start_line || d.line > al.end_line + 1 {
                    continue;
                }
                for (ri, r) in al.rules.iter().enumerate() {
                    if directive_matches(r, d.rule) {
                        used[fi][ai][ri] = true;
                        suppressed = true;
                    }
                }
            }
        }
        if suppressed {
            out.suppressed.push(d);
        } else {
            out.diagnostics.push(d);
        }
    }

    // Hygiene pass: flag unknown and never-matched directives. These
    // diagnostics are themselves suppressible, but only by a blanket ID.
    for (fi, a) in analyses.iter().enumerate() {
        for (ai, al) in a.allows.iter().enumerate() {
            for (ri, r) in al.rules.iter().enumerate() {
                let d = if !known_allow_id(r) {
                    Diagnostic {
                        rule: "unused-allow",
                        file: a.path.clone(),
                        line: al.start_line,
                        message: format!(
                            "`lint: allow({r})` names an unknown rule ID; \
                             known IDs are the rules in DESIGN.md plus \
                             `digest-skip`, `stats-skip`, and `all`"
                        ),
                    }
                } else if BLANKET_ALLOWS.contains(&r.as_str()) || used[fi][ai][ri] {
                    continue;
                } else {
                    Diagnostic {
                        rule: "unused-allow",
                        file: a.path.clone(),
                        line: al.start_line,
                        message: format!(
                            "`lint: allow({r})` suppressed nothing; \
                             the invariant now holds here — delete the directive"
                        ),
                    }
                };
                let blanket = a.allows.iter().any(|other| {
                    d.line >= other.start_line
                        && d.line <= other.end_line + 1
                        && other
                            .rules
                            .iter()
                            .any(|x| BLANKET_ALLOWS.contains(&x.as_str()))
                });
                if blanket {
                    out.suppressed.push(d);
                } else {
                    out.diagnostics.push(d);
                }
            }
        }
    }

    out.sort();
    out
}

/// Checks one file's source text — analysis plus a single-file [`finish`].
/// `path` should be workspace-relative with forward slashes — the rules
/// scope themselves by it.
pub fn check_source(path: &str, src: &str) -> Outcome {
    finish(vec![analyze_source(path, src)])
}

/// Recursively collects `.rs` files under `base`, skipping `target`,
/// `fixtures`, and VCS directories. The result is sorted
/// path-lexicographically (forward-slash form), so diagnostic output is
/// byte-stable across platforms and filesystem enumeration orders.
pub fn collect_rs_files(base: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(base, &mut out);
    out.sort_by_key(|p| path_sort_key(p));
    out
}

/// Lexicographic sort key: the path with `\` normalized to `/`, so the
/// ordering matches the forward-slash form diagnostics are reported in.
fn path_sort_key(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "target" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Checks every `.rs` file reachable from `paths` (files or directories,
/// resolved relative to `root`): reads and analyzes them one after another
/// in path order, then runs [`finish`]. A file that cannot be read fails
/// the whole scan.
pub fn check_paths(root: &Path, paths: &[String]) -> std::io::Result<Outcome> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for p in paths {
        let full = root.join(p);
        let list = if full.is_dir() {
            collect_rs_files(&full)
        } else {
            vec![full.clone()]
        };
        for file in list {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, file));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files.dedup_by(|a, b| a.0 == b.0);

    let mut analyses = Vec::with_capacity(files.len());
    for (rel, full) in &files {
        let bytes = std::fs::read(full)?;
        analyses.push(analyze_source(rel, &String::from_utf8_lossy(&bytes)));
    }
    Ok(finish(analyses))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `no-unwrap-on-transport` violation per line it appears on.
    const UNWRAP_SEND: &str = "net.send(op, now, a, b, None).unwrap();";

    #[test]
    fn suppression_covers_same_line_and_next_line() {
        let src = format!("// lint: allow(no-unwrap-on-transport)\n{UNWRAP_SEND}\n{UNWRAP_SEND}\n");
        let out = check_source("crates/kernel/src/x.rs", &src);
        assert_eq!(out.suppressed.len(), 1, "line after the comment is muted");
        assert_eq!(
            out.count("no-unwrap-on-transport"),
            1,
            "two lines after is not"
        );
        assert_eq!(out.diagnostics[0].line, 3);
    }

    #[test]
    fn trailing_allow_on_the_same_line_works() {
        let src = format!("{UNWRAP_SEND} // lint: allow(no-unwrap-on-transport)\n");
        let out = check_source("crates/kernel/src/x.rs", &src);
        assert_eq!(out.count("no-unwrap-on-transport"), 0);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src =
            format!("// lint: allow(no-unordered-iteration-into-scheduling)\n{UNWRAP_SEND}\n");
        let out = check_source("crates/kernel/src/x.rs", &src);
        assert_eq!(
            out.count("no-unwrap-on-transport"),
            1,
            "a different rule stays live"
        );
        assert_eq!(
            out.count("unused-allow"),
            1,
            "and the mismatched directive is flagged as stale"
        );
    }

    #[test]
    fn unknown_allow_id_is_flagged() {
        let src = "// lint: allow(no-such-rule)\nlet x = 1;\n";
        let out = check_source("crates/kernel/src/x.rs", src);
        assert_eq!(out.count("unused-allow"), 1);
        assert!(out.diagnostics[0].message.contains("unknown rule ID"));
    }

    #[test]
    fn matched_directives_are_not_flagged_as_unused() {
        let src = format!("{UNWRAP_SEND} // lint: allow(no-unwrap-on-transport)\n");
        let out = check_source("crates/kernel/src/x.rs", &src);
        assert_eq!(out.count("unused-allow"), 0);
    }

    #[test]
    fn blanket_allow_ids_are_exempt_from_unused_check() {
        let src = "// lint: allow(all)\nlet x = 1;\n";
        let out = check_source("crates/kernel/src/x.rs", src);
        assert_eq!(out.count("unused-allow"), 0);
    }

    #[test]
    fn unused_allow_is_itself_suppressible_by_blanket() {
        let src = "// lint: allow(no-unwrap-on-transport, unused-allow)\nlet x = 1;\n";
        let out = check_source("crates/kernel/src/x.rs", src);
        assert_eq!(out.count("unused-allow"), 0);
        assert_eq!(out.suppressed_count("unused-allow"), 1);
    }

    #[test]
    fn digest_skip_alias_suppresses_and_counts_as_used() {
        let src = "\
pub struct Cell {
    pub id: u64,
    pub topo: u64, // lint: allow(digest-skip) immutable topology
}
impl Cell {
    pub fn digest_into(&self, d: &mut D) { d.write_u64(self.id); }
}
";
        let out = check_source("crates/kernel/src/x.rs", src);
        assert_eq!(out.count("digest-field-coverage"), 0);
        assert_eq!(out.suppressed_count("digest-field-coverage"), 1);
        assert_eq!(out.count("unused-allow"), 0);
    }

    #[test]
    fn stale_digest_skip_is_flagged_once_the_field_is_folded() {
        let src = "\
pub struct Cell {
    pub id: u64, // lint: allow(digest-skip) stale: id IS folded below
}
impl Cell {
    pub fn digest_into(&self, d: &mut D) { d.write_u64(self.id); }
}
";
        let out = check_source("crates/kernel/src/x.rs", src);
        assert_eq!(out.count("unused-allow"), 1);
    }

    #[test]
    fn outcome_counts_by_rule() {
        let mut out = check_source("crates/kernel/src/x.rs", &format!("{UNWRAP_SEND}\n"));
        out.sort();
        assert_eq!(out.count("no-unwrap-on-transport"), 1);
        assert_eq!(out.count("no-unordered-iteration-into-scheduling"), 0);
        assert_eq!(out.suppressed_count("no-unwrap-on-transport"), 0);
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch_dir(name: &str) -> PathBuf {
        let base = std::env::temp_dir().join(format!("sprite-lint-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        base
    }

    #[test]
    fn collect_rs_files_is_path_lexicographic() {
        let base = scratch_dir("sort-test");
        for rel in ["b/z.rs", "b/a/m.rs", "a.rs", "c.rs", "b/b.rs"] {
            let p = base.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(&p, "").unwrap();
        }
        let got: Vec<String> = collect_rs_files(&base)
            .iter()
            .map(|p| {
                p.strip_prefix(&base)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert_eq!(got, vec!["a.rs", "b/a/m.rs", "b/b.rs", "b/z.rs", "c.rs"]);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn check_paths_runs_token_and_semantic_rules_over_every_file() {
        let base = scratch_dir("scan-test");
        std::fs::create_dir_all(base.join("crates/k/src")).unwrap();
        std::fs::write(
            base.join("crates/k/src/a.rs"),
            format!(
                "{UNWRAP_SEND}\npub struct S {{ x: u64 }}\n\
                 impl S {{ pub fn digest_into(&self, d: &mut D) {{ let _ = d; }} }}\n"
            ),
        )
        .unwrap();
        std::fs::write(base.join("crates/k/src/b.rs"), "pub fn ok() {}\n").unwrap();
        let out = check_paths(&base, &["crates".to_string()]).unwrap();
        let got: Vec<(&str, usize, &str)> = out
            .diagnostics
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.rule))
            .collect();
        assert_eq!(
            got,
            vec![
                ("crates/k/src/a.rs", 1, "no-unwrap-on-transport"),
                ("crates/k/src/a.rs", 2, "digest-field-coverage"),
            ]
        );
        assert_eq!(out.files, 2);
        let missing = check_paths(&base, &["crates/k/src/gone.rs".to_string()]);
        assert!(missing.is_err(), "an unreadable file fails the scan");
        let _ = std::fs::remove_dir_all(&base);
    }
}
