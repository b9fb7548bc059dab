//! The environment each run records, so that a noisy run on a shared
//! machine is visible next to its numbers.

use contrarc_obs::json::escape_into;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The 1-, 5- and 15-minute load averages, or `unknown`.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg").map_or_else(
        |_| "unknown".to_owned(),
        |s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "),
    )
}

/// One JSON object: git revision, core count, CPU model, compiler, and the
/// load average before and after the run.
pub fn describe(load_before: &str) -> String {
    let mut out = String::from("{\"git_rev\":");
    escape_into(&mut out, &git_rev());
    let _ = write!(out, ",\"nproc\":{}", contrarc_par::available_parallelism());
    out.push_str(",\"cpu\":");
    escape_into(&mut out, &cpu_model());
    out.push_str(",\"rustc\":");
    escape_into(&mut out, &rustc_version());
    out.push_str(",\"loadavg_before\":");
    escape_into(&mut out, load_before);
    out.push_str(",\"loadavg_after\":");
    escape_into(&mut out, &load_average());
    out.push('}');
    out
}

/// The checked-out commit, read from the repository's `.git` directory
/// without running git; `unknown` in an exported tree.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |name: &str| std::fs::read_to_string(git.join(name)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(name).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|line| line.strip_suffix(name).map(|h| h.trim().to_owned()))
        }),
    });
    rev.map_or_else(|| "unknown".to_owned(), |r| r.chars().take(12).collect())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, or 0 when
/// the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
