//! What the benchmark reads from the host: a fingerprint to tag results
//! with, and the process's CPU time. And the one thing it asks of the
//! host: a single CPU to run on.

use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The CPUs of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(first.parse::<u32>().ok()?..=last.parse().ok()?);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs the main thread may run on, from `/proc/self/status`.
fn allowed_cpus() -> Option<Vec<u32>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(list)
}

/// Confines this thread, and so every thread it starts from here on, to
/// the last CPU it is allowed on, and returns that CPU. The live
/// workloads run six threads that hand every tuple over through
/// yields, parks and loopback sockets; on the two cores of a shared host
/// their throughput is decided by where the scheduler happens to place
/// them (ten runs of one binary spread 16-27 %), on one core by the CPU
/// work per tuple (4-10 %). The last CPU, because the first serves the
/// host's interrupts. The crates forbid `unsafe`, so the affinity is set
/// by `taskset` from util-linux rather than by a system call.
pub fn pin_to_one_cpu() -> Result<u32, String> {
    let allowed = allowed_cpus().ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = allowed[allowed.len() - 1];
    if allowed.len() > 1 {
        let pid = std::process::id().to_string();
        command_line("taskset", &["-cp", &cpu.to_string(), &pid])
            .ok_or("`taskset -cp` did not run")?;
        if allowed_cpus() != Some(vec![cpu]) {
            return Err(format!("taskset left the process on more than CPU {cpu}"));
        }
    }
    Ok(cpu)
}

/// CPU model, core count, the CPU the run is pinned to, frequency
/// governor, compiler and source revision — whatever of them can be read;
/// the rest say `unknown`. `nproc` is the count before pinning.
pub fn fingerprint(seed: u64, nproc: usize, pinned_cpu: Option<u32>) -> Json {
    let unknown = || "unknown".to_string();
    let cpu_model = read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(unknown);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(unknown);
    // Only where the working directory is itself a checkout: `git` would
    // otherwise go looking through the directories above it.
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(unknown);
    Json::obj(vec![
        ("cpu_model", Json::Str(cpu_model)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |cpu| Json::Num(f64::from(cpu))),
        ),
        ("governor", Json::Str(governor)),
        ("rustc", Json::Str(rustc)),
        ("git_rev", Json::Str(git_rev)),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// User plus system CPU seconds the process (all threads, finished ones
/// included) has used, from `/proc/self/stat`. The kernel reports clock
/// ticks of 1/100 s on every Linux configuration the toolchain targets.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / 100.0)
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_an_awkward_command_name() {
        let stat = "4242 (dsj e2e) (x)) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    150 25 0 0 20 0 9 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(175));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint(42, 2, Some(1));
        for key in [
            "cpu_model",
            "nproc",
            "pinned_cpu",
            "governor",
            "rustc",
            "git_rev",
            "seed",
        ] {
            assert!(f.get(key).is_some(), "{key}");
        }
        assert_eq!(f.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(f.get("pinned_cpu").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            fingerprint(42, 2, None).get("pinned_cpu"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("\t0,2-4"), Some(vec![0, 2, 3, 4]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }
}
