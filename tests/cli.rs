//! The `parcfl` binary rejects flags a subcommand does not know, value
//! flags with no value and malformed values (exit code 2, naming the
//! flag), instead of ignoring them, panicking, or running with defaults.

use std::process::Command;

fn parcfl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_parcfl"))
        .args(args)
        .output()
        .expect("the parcfl binary runs")
}

const PROGRAM: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/programs/linked_list.mj"
);

#[test]
fn unknown_flag_exits_2_and_names_it() {
    let out = parcfl(&["query", PROGRAM, "--engine", "matrix"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--engine"), "stderr names the flag: {err}");

    let out = parcfl(&["query", PROGRAM]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!out.stdout.is_empty());
}

/// Asserts that `args` exits with code 2 and a stderr naming `flag`.
fn rejected(args: &[&str], flag: &str) {
    let out = parcfl(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(flag), "{args:?}: stderr names {flag}: {err}");
}

#[test]
fn known_flags_and_their_values_are_accepted() {
    let out = parcfl(&["query", PROGRAM, "--budget", "50", "--insensitive"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // A flag another subcommand knows is still unknown here.
    let out = parcfl(&["stats", PROGRAM, "--budget", "5"]);
    assert_eq!(out.status.code(), Some(2), "stats takes no flags: {out:?}");
    // The visited-state layout is no longer a choice.
    rejected(&["query", PROGRAM, "--state", "hash"], "--state");
    rejected(&["bench", "_200_check", "--state", "hash"], "--state");
}

#[test]
fn bad_or_missing_flag_values_exit_2_and_name_the_flag() {
    let cases: [(&[&str], &str); 9] = [
        // Malformed and zero thread counts.
        (&["trace", PROGRAM, "--threads", "abc"], "--threads"),
        (&["bench", "_200_check", "--threads", "abc"], "--threads"),
        (&["trace", PROGRAM, "--threads", "0"], "--threads"),
        (&["bench", "_200_check", "--threads", "0"], "--threads"),
        // A value flag with nothing, or another flag, after it.
        (&["query", PROGRAM, "--budget"], "--budget"),
        (&["query", PROGRAM, "--var"], "--var"),
        (&["query", PROGRAM, "--var", "--budget", "5"], "--var"),
        (&["bench", "_200_check", "--mode"], "--mode"),
        (&["check", "--fuzz"], "--fuzz"),
    ];
    for (args, flag) in cases {
        rejected(args, flag);
    }
}
