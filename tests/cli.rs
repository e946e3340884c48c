//! The `sdnlab` command line: every subcommand accepts only the flags it
//! lists, a value flag without its value is an error, and `--help` prints
//! usage without running anything.

use std::process::{Command, Output};

fn sdnlab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdnlab"))
        .args(args)
        .env_remove("SDNBUF_TRACE")
        .output()
        .expect("sdnlab starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SUBCOMMANDS: [&str; 5] = ["run", "sweep", "chaos", "validate", "claims"];

#[test]
fn misspelt_flag_is_rejected_by_name() {
    let out = sdnlab(&["run", "--rtae", "100"]);
    assert!(!out.status.success(), "run --rtae must fail");
    assert!(
        stderr(&out).contains("unknown flag '--rtae'"),
        "{}",
        stderr(&out)
    );
    assert!(!stdout(&out).contains("RunResult"), "no simulation may run");
}

#[test]
fn every_subcommand_rejects_unknown_flags() {
    for cmd in SUBCOMMANDS {
        let out = sdnlab(&[cmd, "--no-such-flag"]);
        assert!(!out.status.success(), "{cmd} accepted an unknown flag");
        assert!(
            stderr(&out).contains("unknown flag '--no-such-flag'"),
            "{cmd}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn flag_missing_its_value_is_rejected() {
    for args in [&["run", "--rate"][..], &["run", "--rate", "--seed", "3"]] {
        let out = sdnlab(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains("--rate needs a value"),
            "{}",
            stderr(&out)
        );
    }
    let out = sdnlab(&["sweep", "--reps"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--reps needs a value"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn stray_argument_is_rejected() {
    let out = sdnlab(&["run", "--check", "yes"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unexpected argument 'yes'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn flag_of_another_subcommand_is_rejected() {
    let out = sdnlab(&["run", "--threads", "2"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown flag '--threads'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn help_on_every_subcommand_prints_usage_and_runs_nothing() {
    for cmd in SUBCOMMANDS {
        for help in ["--help", "-h"] {
            let out = sdnlab(&[cmd, help]);
            assert!(
                out.status.success(),
                "{cmd} {help} failed: {}",
                stderr(&out)
            );
            let text = stdout(&out);
            assert!(text.contains("USAGE:"), "{cmd} {help}: {text}");
            assert!(!text.contains("RunResult"), "{cmd} {help} ran a simulation");
            assert!(stderr(&out).is_empty(), "{cmd} {help}: {}", stderr(&out));
        }
    }
    // Help wins even next to an otherwise invalid command line.
    let out = sdnlab(&["run", "--rtae", "100", "--help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE:"));
}

#[test]
fn unknown_subcommand_is_rejected() {
    let out = sdnlab(&["runn"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown command 'runn'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn valid_run_still_runs() {
    let out = sdnlab(&[
        "run",
        "--buffer",
        "flow:16",
        "--workload",
        "single:20",
        "--rate",
        "10",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("RunResult"), "{text}");
    assert!(text.contains("sending_rate_mbps: 10.0"), "{text}");
}
