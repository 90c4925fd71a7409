//! Per-rule fixture tests: each rule has one file it must flag and one it
//! must leave alone. Fixtures live under `tests/fixtures/` — a directory
//! the workspace scanner skips, so they never pollute the self-check.
//!
//! The synthetic paths passed to `check_source` place each fixture in the
//! directory its rule scopes to (e.g. a test path for the digest rule's
//! exemption).

use std::path::Path;

use sprite_lint::check_source;

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// Lines (sorted) on which `rule` fired when `name` is checked at `path`.
fn flagged_lines(name: &str, path: &str, rule: &str) -> Vec<usize> {
    let out = check_source(path, &fixture(name));
    let mut lines: Vec<usize> = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect();
    lines.sort_unstable();
    lines
}

/// Every diagnostic (any rule) for `name` at `path`.
fn all_diags(name: &str, path: &str) -> Vec<(String, usize)> {
    check_source(path, &fixture(name))
        .diagnostics
        .iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

#[test]
fn multiline_unwrap_regression_is_caught() {
    // The old `grep -rEz` lint missed send chains split across lines;
    // this is the regression fixture proving the token-level rule sees
    // them. Line 12 is the lone `.unwrap()` after the multiline send.
    let lines = flagged_lines(
        "unwrap_transport_violate.rs",
        "crates/kernel/src/fixture.rs",
        "no-unwrap-on-transport",
    );
    assert_eq!(lines.len(), 3, "multiline, single-line, and chained expect");
    assert_eq!(
        lines[0], 12,
        "the unwrap on its own line is attributed there"
    );
    assert!(all_diags("unwrap_transport_clean.rs", "crates/kernel/src/fixture.rs").is_empty());
}

#[test]
fn unordered_iteration_fixture_flags_and_clean_passes() {
    let lines = flagged_lines(
        "unordered_iteration_violate.rs",
        "crates/kernel/src/fixture.rs",
        "no-unordered-iteration-into-scheduling",
    );
    // for over .iter(), for over &set, and the for_each chain.
    assert_eq!(lines.len(), 3, "got {lines:?}");
    assert!(
        all_diags(
            "unordered_iteration_clean.rs",
            "crates/kernel/src/fixture.rs"
        )
        .is_empty(),
        "sorted keys and order-insensitive reductions are legal"
    );
}

#[test]
fn unordered_shard_fixture_flags_and_clean_passes() {
    // The shard vocabulary (timer_at / timer_in / send_latency /
    // seed_timer) pulls a file into the rule's scope on its own — these
    // fixtures contain no serial schedule/send calls.
    let lines = flagged_lines(
        "unordered_shard_violate.rs",
        "crates/sim/src/fixture.rs",
        "no-unordered-iteration-into-scheduling",
    );
    // for over .iter() into timer_at, for over &set into send_latency,
    // and the for_each chain into seed_timer.
    assert_eq!(lines.len(), 3, "got {lines:?}");
    assert!(
        all_diags("unordered_shard_clean.rs", "crates/sim/src/fixture.rs").is_empty(),
        "sorted keys and order-insensitive reductions are legal in merge code"
    );
}

#[test]
fn suppression_silences_a_fixture_violation() {
    let src = format!(
        "// lint: allow(no-unwrap-on-transport)\n{}",
        fixture("unwrap_transport_violate.rs")
    );
    let out = check_source("crates/kernel/src/fixture.rs", &src);
    // Only the first line after the directive is muted; the rest stay.
    assert_eq!(
        out.suppressed_count("no-unwrap-on-transport"),
        0,
        "directive covers lines 1-2, first unwrap is on 13"
    );
    let single = "net.send_sized(RpcOp::Payload, now, a, b, 4096, None).unwrap();";
    let src_inline = fixture("unwrap_transport_violate.rs").replace(
        single,
        &format!("{single} // lint: allow(no-unwrap-on-transport)"),
    );
    let out = check_source("crates/kernel/src/fixture.rs", &src_inline);
    assert_eq!(
        out.suppressed.len(),
        2,
        "inline allow mutes its own line and the next (unwrap and expect)"
    );
    assert_eq!(
        out.count("no-unwrap-on-transport"),
        1,
        "the multiline unwrap stays flagged"
    );
}

#[test]
fn digest_coverage_fixture_flags_and_clean_passes() {
    let diags = all_diags("digest_coverage_violate.rs", "crates/kernel/src/fixture.rs");
    let lines = |rule: &str| {
        diags
            .iter()
            .filter(|(r, _)| r == rule)
            .map(|(_, l)| *l)
            .collect::<Vec<_>>()
    };
    // `epoch` (7) and `queue` (8) never reach the digest; the stale skip
    // on `seed` (9) suppresses nothing and is flagged as unused.
    assert_eq!(lines("digest-field-coverage"), vec![7, 8]);
    assert_eq!(lines("unused-allow"), vec![9]);
    assert!(all_diags("digest_coverage_clean.rs", "crates/kernel/src/fixture.rs").is_empty());
}

#[test]
fn digest_coverage_fixture_is_exempt_under_test_paths() {
    // The same violating file is legal in integration-test trees, where
    // partial digest cells are deliberate scaffolding.
    let diags = all_diags(
        "digest_coverage_violate.rs",
        "crates/kernel/tests/fixture.rs",
    );
    assert!(!diags.iter().any(|(r, _)| r == "digest-field-coverage"));
}

#[test]
fn rpc_wire_fixture_flags_and_clean_passes() {
    let lines = flagged_lines(
        "rpc_wire_violate.rs",
        "crates/net/src/fixture.rs",
        "rpc-op-wire-coverage",
    );
    // FsClose (6) misses label(); MigrateState (7) misses ALL.
    assert_eq!(lines, vec![6, 7]);
    assert!(all_diags("rpc_wire_clean.rs", "crates/net/src/fixture.rs").is_empty());
}

#[test]
fn stats_merge_fixture_flags_and_clean_passes() {
    let lines = flagged_lines(
        "stats_merge_violate.rs",
        "crates/fs/src/fixture.rs",
        "stats-merge-coverage",
    );
    // `evictions` (8) misses merge; `bytes` (9) misses to_json.
    assert_eq!(lines, vec![8, 9]);
    assert!(all_diags("stats_merge_clean.rs", "crates/fs/src/fixture.rs").is_empty());
}

#[test]
fn unused_allow_fixture_flags_and_clean_passes() {
    let lines = flagged_lines(
        "unused_allow_violate.rs",
        "crates/kernel/src/fixture.rs",
        "unused-allow",
    );
    // Unknown rule ID on 4; never-matched real rule on 7.
    assert_eq!(lines, vec![4, 7]);
    assert!(all_diags("unused_allow_clean.rs", "crates/kernel/src/fixture.rs").is_empty());
}

/// Mutation test: take the real `Cluster` sources, delete the one line
/// that folds `next_swap_tag` into the digest, and assert the lint
/// catches the seeded drift. This pins the rule to the actual invariant
/// surface, not just to synthetic fixtures.
#[test]
fn deleting_a_real_digest_fold_is_caught() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let real = std::fs::read_to_string(workspace.join("crates/kernel/src/cluster.rs"))
        .expect("read cluster.rs");
    let clean = check_source("crates/kernel/src/cluster.rs", &real);
    assert!(
        !clean
            .diagnostics
            .iter()
            .any(|d| d.rule == "digest-field-coverage"),
        "the pristine file must be digest-clean"
    );

    let fold = "d.write_u64(self.next_swap_tag);";
    assert!(
        real.contains(fold),
        "mutation target moved; update this test"
    );
    let mutated: String = real
        .lines()
        .filter(|l| !l.contains(fold))
        .map(|l| format!("{l}\n"))
        .collect();

    // Scratch copy on disk, scanned through the real file driver.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("digest-mutation");
    let _ = std::fs::remove_dir_all(&scratch);
    let dir = scratch.join("crates/kernel/src");
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    std::fs::write(dir.join("cluster.rs"), &mutated).expect("write scratch");
    let out = sprite_lint::check_paths(&scratch, &["crates".to_string()]).expect("scan scratch");
    let hits: Vec<&sprite_lint::Diagnostic> = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == "digest-field-coverage")
        .collect();
    assert_eq!(hits.len(), 1, "exactly the seeded gap: {hits:?}");
    assert!(hits[0].message.contains("next_swap_tag"));
    assert_eq!(hits[0].file, "crates/kernel/src/cluster.rs");
    let _ = std::fs::remove_dir_all(&scratch);
}
