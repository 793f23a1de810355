//! Command-line surface of `repro`: the header of a scale-only run and the
//! rejection of campaign-only flags without the campaign.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn a_scale_only_run_heads_its_output_with_the_campaign_shape() {
    let out = repro(&["scale", "--nodes", "40", "--windows", "1", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        stdout.lines().next(),
        Some("# HEAP reproduction — 40 nodes, 1 windows, seed 3")
    );
}

#[test]
fn campaign_flags_without_the_campaign_are_a_usage_error() {
    for flag in ["--nodes", "--windows"] {
        let out = repro(&["--scale", "test", flag, "5", "table1"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag} printed a figure");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("only to the 'scale' experiment"),
            "{stderr}"
        );
    }
}
