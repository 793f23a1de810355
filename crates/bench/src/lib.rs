//! # heap-bench
//!
//! Home of the **`repro`** binary (`cargo run --release -p heap-bench --bin
//! repro -- all`), which regenerates every figure and table of the paper as
//! text series/tables, plus the golden test of its metrics exposition
//! (`tests/metrics_golden.rs`). See `repro --help` for experiment selection
//! and scaling options, and the README section "Reproducing the paper" for
//! what each experiment reproduces.
//!
//! Performance is measured elsewhere: the repo benchmark is the `benchmark/`
//! package (its own workspace; see `benchmark/README.md`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use heap_workloads::Scale;

/// Parses the `--scale` argument of the repro binary.
///
/// Accepted values: `test`, `default`, `paper`.
pub fn parse_scale(value: &str) -> Option<Scale> {
    match value {
        "test" => Some(Scale::test()),
        "default" => Some(Scale::default_scale()),
        "paper" => Some(Scale::paper()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_accepts_known_values() {
        assert_eq!(parse_scale("test"), Some(Scale::test()));
        assert_eq!(parse_scale("default"), Some(Scale::default_scale()));
        assert_eq!(parse_scale("paper"), Some(Scale::paper()));
        assert_eq!(parse_scale("huge"), None);
    }
}
