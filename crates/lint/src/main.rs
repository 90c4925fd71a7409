//! CLI for `sprite_lint`.
//!
//! ```text
//! cargo run -q -p sprite_lint -- crates src tests examples
//! cargo run -q -p sprite_lint -- --json crates
//! cargo run -q -p sprite_lint -- --bench-json BENCH_experiments.json crates src
//! ```
//!
//! Exit status: 0 when no (non-suppressed) diagnostics, 1 otherwise,
//! 2 on usage errors. Diagnostics print one per line as
//! `file:line: [rule-id] message`; a summary goes to stderr.
//! `--bench-json PATH` splices a `"lint"` section (per-rule counts) into
//! an existing `BENCH_experiments.json` for the benchmark trajectory.

use std::path::Path;

use sprite_lint::{check_paths, Outcome, ALL_RULES};

const USAGE: &str = "usage: sprite_lint [--json] [--bench-json PATH] PATHS...";

fn main() {
    let mut json = false;
    let mut bench_json: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--bench-json" => match args.next() {
                Some(p) => bench_json = Some(p),
                None => {
                    eprintln!("--bench-json needs a path");
                    std::process::exit(2);
                }
            },
            _ if arg.starts_with('-') => {
                eprintln!("unknown flag {arg:?}; {USAGE}");
                std::process::exit(2);
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let outcome = match check_paths(Path::new("."), &paths) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sprite_lint: {e}");
            std::process::exit(2);
        }
    };

    if json {
        print!("{}", render_json(&outcome));
    } else {
        for d in &outcome.diagnostics {
            println!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
        }
    }
    eprintln!(
        "sprite_lint: {} files, {} diagnostics, {} suppressed",
        outcome.files,
        outcome.diagnostics.len(),
        outcome.suppressed.len()
    );

    if let Some(path) = bench_json {
        if let Err(e) = splice_bench_json(&path, &outcome) {
            eprintln!("sprite_lint: failed to update {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("sprite_lint: updated {path}");
    }

    if !outcome.diagnostics.is_empty() {
        std::process::exit(1);
    }
}

/// Minimal JSON escape for paths/messages.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(outcome: &Outcome) -> String {
    let mut s = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            escape(&d.file),
            d.line,
            d.rule,
            escape(&d.message),
            if i + 1 == outcome.diagnostics.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"files\": {},\n", outcome.files));
    s.push_str(&format!("  \"suppressed\": {}\n", outcome.suppressed.len()));
    s.push_str("}\n");
    s
}

/// The `"lint"` section spliced into `BENCH_experiments.json`.
fn lint_section(outcome: &Outcome) -> String {
    let mut s = String::from("  \"lint\": {\n");
    s.push_str(&format!("    \"files\": {},\n", outcome.files));
    s.push_str(&format!(
        "    \"diagnostics\": {},\n",
        outcome.diagnostics.len()
    ));
    s.push_str(&format!(
        "    \"suppressed\": {},\n",
        outcome.suppressed.len()
    ));
    s.push_str("    \"rules\": [\n");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"id\": \"{}\", \"diagnostics\": {}, \"suppressed\": {}}}{}\n",
            rule,
            outcome.count(rule),
            outcome.suppressed_count(rule),
            if i + 1 == ALL_RULES.len() { "" } else { "," }
        ));
    }
    s.push_str("    ]\n  }");
    s
}

/// Inserts (or replaces) the `"lint"` section before the final `}` of an
/// existing JSON report written by `experiments --json`.
fn splice_bench_json(path: &str, outcome: &Outcome) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    // Drop a previous lint section so the splice is idempotent.
    let text = match text.find(",\n  \"lint\": {") {
        Some(start) => {
            // The section ends at the next "\n  }" after `start`.
            let tail = &text[start..];
            match tail.find("\n  }") {
                Some(end) => format!("{}{}", &text[..start], &tail[end + "\n  }".len()..]),
                None => text,
            }
        }
        None => text,
    };
    let Some(close) = text.rfind("\n}") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not a JSON object written by experiments --json",
        ));
    };
    let spliced = format!(
        "{},\n{}{}",
        &text[..close],
        lint_section(outcome),
        &text[close..]
    );
    std::fs::write(path, spliced)
}
