//! Invalid numeric flags end `mega train` and `mega profile` with a
//! one-line `error:` and exit status 1, never a panic.

use std::process::Command;

/// Runs `mega <args>` and returns its exit code and standard error.
fn mega(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mega"))
        .args(args)
        .arg("--quiet")
        .output()
        .expect("run the mega binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], message: &str) {
    let (code, stderr) = mega(args);
    assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: one line expected, got {stderr}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {stderr}");
    assert!(lines[0].contains(message), "{args:?}: {stderr}");
}

#[test]
fn train_rejects_zero_batch() {
    assert_rejected(&["train", "--batch", "0"], "--batch: 0");
}

#[test]
fn train_rejects_zero_hidden() {
    assert_rejected(&["train", "--hidden", "0"], "--hidden: 0");
}

#[test]
fn train_rejects_zero_layers() {
    assert_rejected(&["train", "--layers", "0"], "--layers: 0");
}

#[test]
fn train_rejects_hidden_not_divisible_by_heads() {
    assert_rejected(&["train", "--model", "gt", "--hidden", "6"], "must divide");
}

#[test]
fn train_rejects_non_positive_lr() {
    assert_rejected(&["train", "--lr", "0"], "--lr: 0");
    assert_rejected(&["train", "--lr", "-0.1"], "--lr: -0.1");
}

#[test]
fn train_rejects_non_finite_lr() {
    assert_rejected(&["train", "--lr", "NaN"], "--lr: NaN");
    assert_rejected(&["train", "--lr", "inf"], "--lr: inf");
}

#[test]
fn profile_rejects_zero_batch() {
    assert_rejected(&["profile", "--batch", "0"], "--batch: 0");
}

#[test]
fn profile_rejects_zero_hidden() {
    assert_rejected(&["profile", "--hidden", "0"], "--hidden: 0");
}
