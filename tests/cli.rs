//! The `parcfl` binary rejects flags a subcommand does not know, instead
//! of ignoring them and running with defaults.

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

#[test]
fn known_flags_and_their_values_are_accepted() {
    let out = parcfl(&["query", PROGRAM, "--budget", "50", "--state", "hash"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // A flag another subcommand knows is still unknown here.
    let out = parcfl(&["stats", PROGRAM, "--budget", "5"]);
    assert_eq!(out.status.code(), Some(2), "stats takes no flags: {out:?}");
}
