//! Host and run metadata for the report header: timings mean nothing without
//! the machine they were taken on.

use std::path::Path;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` beside the benchmark package
/// without starting a process; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.len() >= 12 && commit.chars().all(|c| c.is_ascii_hexdigit()) {
        commit[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// One line of `key=value` pairs.
pub fn line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "nproc={nproc} cpu=\"{}\" gf256={} threads=1 seed={seed} commit={}",
        cpu_model(),
        heap_fec::gf256::kernel_name(),
        git_commit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_names_every_field() {
        let line = line(7);
        for key in [
            "nproc=",
            "cpu=\"",
            "gf256=",
            "threads=1",
            "seed=7",
            "commit=",
        ] {
            assert!(line.contains(key), "{line}");
        }
    }
}
