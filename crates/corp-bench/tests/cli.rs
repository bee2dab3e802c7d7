//! The `corp-exp` binary's flag handling, exercised end to end.

use std::process::{Command, Output};

fn corp_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_corp-exp"))
        .args(args)
        .output()
        .expect("run corp-exp")
}

#[test]
fn unknown_batch_flags_exit_2_and_list_the_accepted_flags() {
    let out = corp_exp(&["--fast", "--bogus-flag", "table2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus-flag"), "{stderr}");
    assert!(
        stderr.contains("--fast, --json, --e2e, --shards K"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
}

#[test]
fn known_batch_flags_still_run() {
    let out = corp_exp(&["--fast", "--json", "table2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"id\":\"table2\""));
}

#[test]
fn malformed_shard_count_exits_2() {
    let out = corp_exp(&["e2e", "--shards", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn subcommand_flag_errors_exit_2() {
    for args in [
        &["serve", "--seed", "0"][..],
        &["scale", "--vms", "0"][..],
        &["resilience", "--shards", "0"][..],
    ] {
        let out = corp_exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
