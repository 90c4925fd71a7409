//! Workspace self-check: the whole repository must be lint-clean.
//!
//! This is the same scan CI runs (`sprite_lint crates src tests
//! examples`), executed as a test so `cargo test` alone already enforces
//! the invariants this crate owns. The ones handed to the toolchain are
//! pinned here too: every member must inherit `[workspace.lints]`, where
//! `unsafe_code` is forbidden.

use std::path::{Path, PathBuf};

use sprite_lint::{check_paths, collect_rs_files, ALL_RULES};

const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let paths = ROOTS.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let outcome = check_paths(root, &paths).expect("scan workspace");
    let expected: usize = ROOTS
        .iter()
        .map(|r| collect_rs_files(&root.join(r)).len())
        .sum();
    assert_eq!(
        outcome.files, expected,
        "the scan must analyze every .rs file under {ROOTS:?}"
    );
    let rendered: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint diagnostics:\n{}",
        rendered.join("\n")
    );
}

/// The lines of the TOML table `[name]` in `manifest`, up to the next
/// table header, trimmed.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

#[test]
fn every_member_opts_into_workspace_lints() {
    let root = workspace_root();
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read Cargo.toml");
    assert!(
        table(&root_manifest, "workspace.lints.rust").contains(&r#"unsafe_code = "forbid""#),
        "the root Cargo.toml must forbid unsafe_code in [workspace.lints.rust]"
    );

    let mut manifests: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .flatten()
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    manifests.sort();
    assert!(manifests.len() > 1, "found no member crates");
    manifests.push(root.join("Cargo.toml"));
    let missing: Vec<String> = manifests
        .iter()
        .filter(|p| {
            let text = std::fs::read_to_string(p).expect("read manifest");
            !table(&text, "lints").contains(&"workspace = true")
        })
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests lack `[lints]` / `workspace = true`: {missing:?}"
    );
}

#[test]
fn every_rule_id_is_stable() {
    // The IDs are part of the suppression syntax and the CI contract;
    // renaming one silently un-suppresses existing allows.
    assert_eq!(
        ALL_RULES,
        &[
            "no-unwrap-on-transport",
            "no-unordered-iteration-into-scheduling",
            "digest-field-coverage",
            "rpc-op-wire-coverage",
            "stats-merge-coverage",
            "unused-allow",
        ]
    );
}
