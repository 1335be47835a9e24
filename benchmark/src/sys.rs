//! What the benchmark reads from the machine it runs on.

use crate::json::Json;
use std::process::Command;

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment a suite ran in, recorded beside its numbers. The git
/// revision is "unknown" in an exported checkout.
pub fn environment(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Int(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status =
            "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   70476 kB\nVmRSS:\t   61000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(70476));
        assert_eq!(parse_vm_hwm_kb("VmHWM: 12 kB"), Some(12));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\nVmRSS:\t5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
