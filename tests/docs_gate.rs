//! Tier-1 documentation gate: `cargo doc` must be warning-free across the
//! workspace, private items included (so an intra-doc link to a deleted
//! item fails wherever it is written), and every runnable crate-doc
//! example must pass, fully offline.
//!
//! The nested cargo invocations use their own `target/docs-gate` build
//! directory: the outer `cargo test` holds the lock on `target/` for its
//! whole run, so sharing it would deadlock. The extra directory costs one
//! debug build of the (dependency-free) workspace and is reused across
//! runs.

use std::path::Path;
use std::process::Command;

fn cargo_in_repo(args: &[&str]) -> std::process::Output {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    Command::new(env!("CARGO"))
        .args(args)
        .arg("--offline")
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", repo.join("target").join("docs-gate"))
        .output()
        .expect("cargo invocation")
}

#[test]
fn rustdoc_is_warning_free_and_doc_tests_pass() {
    let doc = {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
        Command::new(env!("CARGO"))
            .args([
                "doc",
                "--no-deps",
                "--workspace",
                "--document-private-items",
                "--offline",
            ])
            .current_dir(repo)
            .env("CARGO_TARGET_DIR", repo.join("target").join("docs-gate"))
            .env("RUSTDOCFLAGS", "-D warnings")
            .output()
            .expect("cargo doc")
    };
    assert!(
        doc.status.success(),
        "cargo doc --no-deps --workspace --document-private-items failed:\n{}",
        String::from_utf8_lossy(&doc.stderr)
    );

    let doctests = cargo_in_repo(&["test", "-q", "--doc", "--workspace"]);
    assert!(
        doctests.status.success(),
        "cargo test --doc --workspace failed:\n{}\n{}",
        String::from_utf8_lossy(&doctests.stdout),
        String::from_utf8_lossy(&doctests.stderr)
    );
}
