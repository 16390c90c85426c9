//! The `intercom-cli` front door: what a wrong command line gets back.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_intercom-cli"))
        .args(args)
        .output()
        .expect("intercom-cli runs")
}

#[test]
fn an_unknown_subcommand_prints_the_usage_and_fails() {
    let out = cli(&["tabel2"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand \"tabel2\""), "{err}");
    assert!(err.contains("usage: intercom-cli <subcommand>"), "{err}");
    for name in ["table2", "fig4", "crossover-map", "obs", "trace", "metrics"] {
        assert!(err.contains(name), "usage lists {name}: {err}");
    }
}

#[test]
fn a_flag_the_subcommand_does_not_take_fails() {
    let out = cli(&["table2", "--smoke"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown argument --smoke"), "{err}");
}

#[test]
fn help_lists_every_subcommand_and_succeeds() {
    let out = cli(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("section5"), "{text}");
    assert!(text.contains("--strategy <SPEC>"), "{text}");
}

#[test]
fn a_root_outside_the_world_fails_before_any_world_runs() {
    for sub in ["trace", "metrics"] {
        let out = cli(&[sub, "--p", "4", "--root", "9", "--backend", "threads"]);
        assert_eq!(out.status.code(), Some(1), "{sub}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            err,
            format!("intercom-cli {sub}: --root 9 is not a rank of a 4-rank world\n")
        );
    }
}
