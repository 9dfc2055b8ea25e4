//! Tier-1 gate for the benchmark: `dscbench` is its own package (outside
//! the workspace), so `cargo test` at the root never compiles it. This
//! checks every one of its targets against the current crates, offline and
//! with its committed `Cargo.lock` left untouched, so an API change here
//! cannot break the benchmark unnoticed.
//!
//! The nested cargo uses its own `target/dscbench-check` directory for the
//! same reason as `docs_gate.rs`: the outer `cargo test` holds the lock on
//! `target/`.

use std::path::Path;
use std::process::Command;

#[test]
fn dscbench_compiles_against_the_workspace_crates() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO"))
        .args([
            "check",
            "--locked",
            "--offline",
            "--all-targets",
            "--manifest-path",
            "dscbench/Cargo.toml",
        ])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", repo.join("target").join("dscbench-check"))
        .output()
        .expect("cargo check");
    assert!(
        out.status.success(),
        "cargo check --manifest-path dscbench/Cargo.toml failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
