//! The run manifest stamped on every result: what ran, where, on what.

use std::path::Path;
use std::process::Command;

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's standard output, or `unavailable`. The
/// child is waited for before this returns.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The commit of `repo`, if it is a git checkout; never looks above it.
fn git_sha(repo: &Path) -> String {
    let mut cmd = Command::new("git");
    cmd.arg("-C").arg(repo).args(["rev-parse", "HEAD"]);
    if let Some(parent) = repo.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut cmd)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Lines in the library's Rust sources (`crates/`, `src/`, `tests/`,
/// `examples/`), an informational simplicity trajectory; never gated.
pub fn rust_lines(repo: &Path) -> u64 {
    fn walk(dir: &Path, total: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, total);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(s) = std::fs::read_to_string(&p) {
                    *total += s.lines().count() as u64;
                }
            }
        }
    }
    let mut total = 0;
    for d in ["crates", "src", "tests", "examples"] {
        walk(&repo.join(d), &mut total);
    }
    total
}

/// The manifest as one JSON object. `params` is an already-rendered
/// JSON value describing the workload parameters.
pub fn render(
    repo: &Path,
    workload: &str,
    seed: u64,
    size: &str,
    seconds: f64,
    trace: bool,
    params: &str,
) -> String {
    let fields = [
        ("benchmark", json_str("ocin-perfbench")),
        ("git_sha", json_str(&git_sha(repo))),
        (
            "rustc",
            json_str(&command_line(Command::new("rustc").arg("--version"))),
        ),
        ("nproc", json_str(&command_line(&mut Command::new("nproc")))),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", json_str(&cpu_model())),
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("size", json_str(size)),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("params", params.to_string()),
        ("rust_lines_informational", rust_lines(repo).to_string()),
        ("model_validated_against_hardware", "false".to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json_str(k)))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}
