//! Command-line surface of `repro`: the header of a scale-only run, the
//! rejection of campaign-only flags without the campaign, and of shapes the
//! scenario check refuses.

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

#[test]
fn a_shape_the_scenario_check_refuses_is_a_usage_error() {
    // The last shape would need tens of GiB; it is refused before any node
    // is built.
    let refused: [(&[&str], &str); 4] = [
        (&["--nodes", "0"], "scale.n_nodes is 0"),
        (&["--nodes", "1"], "scale.n_nodes is 1"),
        (&["--windows", "0"], "scale.n_windows is 0"),
        (
            &["--nodes", "1000000", "--windows", "40000"],
            "scale is 1000000 nodes × 4400000 packets",
        ),
    ];
    for (shape, message) in refused {
        for with_campaign in [true, false] {
            let experiment = if with_campaign { "scale" } else { "table1" };
            let mut args = vec!["--nodes", "3", "--windows", "1"];
            args.extend(shape);
            args.push(experiment);
            let out = repro(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?} printed a figure");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with(&format!("error: {message}")), "{stderr}");
        }
    }
}
