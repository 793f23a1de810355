//! Build parity: a nested workspace does not inherit the root manifest's
//! `[profile.release]`, and thin LTO with one codegen unit moves events/s, so
//! the two tables must say the same thing.

use std::collections::BTreeMap;

/// The `key = value` lines of `[profile.release]`, comments and blank lines
/// dropped.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let l = l.split('#').next().unwrap_or("").trim();
            l.split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

#[test]
fn benchmark_and_root_release_profiles_are_identical() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let read =
        |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let root = release_profile(&read(format!("{dir}/../Cargo.toml")));
    let benchmark = release_profile(&read(format!("{dir}/Cargo.toml")));
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release] table"
    );
    assert_eq!(benchmark, root);
}

#[test]
fn parser_reads_a_table_and_stops_at_the_next() {
    let manifest = "[package]\nname = \"x\"\n\n[profile.release]\ndebug = true\n# why\nlto = \"thin\" # inline\n\n[profile.dev]\nopt-level = 1\n";
    let table = release_profile(manifest);
    assert_eq!(table.len(), 2);
    assert_eq!(table["debug"], "true");
    assert_eq!(table["lto"], "\"thin\"");
}
