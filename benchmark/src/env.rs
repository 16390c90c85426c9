//! The environment stamp and the `/proc` readers.

use crate::json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat`. Linux has used
/// 100 on every supported architecture for decades and std offers no
/// `sysconf`; the stamp records `getconf CLK_TCK` so a box that differs
/// shows.
const CLK_TCK: f64 = 100.0;

/// Ranks of a threaded world: one per core, at least 2 so there is
/// someone to talk to, at most 4 so a round stays comparable across
/// boxes.
pub fn threads_p() -> usize {
    nproc().clamp(2, 4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Where result and trace files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Process CPU time so far (user + system, all threads), in seconds,
/// in steps of a clock tick.
pub fn cpu_seconds() -> f64 {
    ticks_of("/proc/self/stat") / CLK_TCK
}

/// utime + stime of a `stat` file, in clock ticks.
fn ticks_of(path: &str) -> f64 {
    let stat = fs::read_to_string(path).expect("the stat file is readable");
    // The command name may hold spaces and parentheses; fields are
    // counted from the last ')'. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    tick() + tick()
}

/// CPU time of the calling thread so far, in seconds: nanosecond
/// counts from `/proc/thread-self/schedstat` where the kernel keeps
/// them, else the thread's utime+stime ticks.
pub fn thread_cpu_seconds() -> f64 {
    if let Some(ns) = fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<f64>().ok())
    {
        return ns / 1e9;
    }
    ticks_of("/proc/thread-self/stat") / CLK_TCK
}

fn status_field(path: &str, key: &str) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Voluntary context switches of the calling thread so far: one per
/// time it parked.
pub fn thread_voluntary_switches() -> f64 {
    status_field("/proc/thread-self/status", "voluntary_ctxt_switches")
        .expect("voluntary_ctxt_switches in /proc/thread-self/status")
}

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cache sizes of cpu0 as `L1d 48K, L1i 32K, L2 2048K, L3 266240K`.
fn caches() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut parts = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        parts.push(format!("L{level}{suffix} {size}"));
    }
    if parts.is_empty() {
        "unknown".into()
    } else {
        parts.join(", ")
    }
}

/// What every output file records about where its numbers came from.
pub fn stamp(seed: u64) -> Value {
    let root = repo_root();
    let unknown = || "unknown".to_string();
    Value::obj([
        (
            "commit",
            Value::str(
                command_line("git", &["rev-parse", "--short", "HEAD"], Some(&root))
                    .unwrap_or_else(unknown),
            ),
        ),
        ("nproc", Value::Num(nproc() as f64)),
        ("threads_p", Value::Num(threads_p() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("caches", Value::str(caches())),
        (
            "rustc",
            Value::str(command_line("rustc", &["-V"], None).unwrap_or_else(unknown)),
        ),
        (
            "clk_tck",
            Value::str(command_line("getconf", &["CLK_TCK"], None).unwrap_or_else(unknown)),
        ),
        ("seed", Value::Num(seed as f64)),
    ])
}

/// Rust lines under `crates/ src/ tests/ examples/`: the code-diet trend.
pub fn loc_rust() -> u64 {
    fn walk(dir: &Path, total: &mut u64) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, total);
                }
            } else if path.extension().is_some_and(|x| x == "rs") {
                if let Ok(text) = fs::read_to_string(&path) {
                    *total += text.lines().count() as u64;
                }
            }
        }
    }
    let root = repo_root();
    let mut total = 0;
    for top in ["crates", "src", "tests", "examples"] {
        walk(&root.join(top), &mut total);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        let before = thread_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_seconds() > before, "spinning uses CPU time");
        assert!(peak_rss_mb() > 0.5);
        assert!(thread_voluntary_switches() >= 0.0);
        assert!((2..=4).contains(&threads_p()));
    }

    #[test]
    fn stamp_has_every_field() {
        let s = stamp(1994);
        for key in [
            "commit",
            "nproc",
            "threads_p",
            "cpu_model",
            "caches",
            "rustc",
            "clk_tck",
            "seed",
        ] {
            assert!(s.get(key).is_some(), "stamp lacks {key}");
        }
        assert_eq!(s.get("seed").and_then(Value::as_f64), Some(1994.0));
    }

    #[test]
    fn loc_counts_the_library() {
        assert!(loc_rust() > 10_000, "crates/ should hold the library");
    }
}
