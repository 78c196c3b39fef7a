//! `ocin-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]`
//!
//! Runs one workload, prints a human-readable summary, then as the last
//! line of standard output one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced). Writes the manifest, the per-layer table
//! and the span trace under `perfbench/out/`. Exits 1 if any
//! correctness check failed, 2 on bad arguments.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ocin_perfbench::manifest;
use ocin_perfbench::metrics::{audit, result_line, END_TO_END, PER_LAYER};
use ocin_perfbench::run::{params_json, run, Opts};
use ocin_perfbench::workloads::{Size, DEFAULT_SEED, NAMES};

/// Spans written to `trace.json`; the rest stay in memory only.
const MAX_WRITTEN_SPANS: usize = 50_000;

const USAGE: &str = "usage: ocin-perfbench --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--size full|tiny]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => opts.size = Size::parse(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            NAMES.join(", "),
            opts.workload
        ));
    }
    Ok(opts)
}

fn write(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = crate_dir.parent().unwrap_or(crate_dir);

    let mut outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    audit(&mut outcome.tally, registry, &mut outcome.values);

    let manifest = manifest::render(
        repo,
        &opts.workload,
        opts.seed,
        opts.size.name(),
        opts.seconds,
        opts.trace,
        &params_json(&opts),
    );
    let mut table = format!("{:<34} {:>22}  unit\n", "metric", "value");
    for (name, unit) in registry {
        table.push_str(&format!(
            "{name:<34} {:>22}  {unit}\n",
            outcome.values[name]
        ));
    }

    println!(
        "ocin-perfbench {} (seed {}, {} size, {} s, {}); the model is not validated against hardware",
        opts.workload,
        opts.seed,
        opts.size.name(),
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for f in &outcome.tally.failures {
        println!("  CHECK FAILED: {f}");
    }
    print!("{table}");

    let dir: PathBuf = crate_dir.join("out").join(format!(
        "{}-{}-seed{}-{}",
        opts.workload,
        opts.size.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    ));
    let line = result_line(&outcome.tally, registry, &outcome.values);
    if std::fs::create_dir_all(&dir).is_ok() {
        write(&dir, "manifest.json", &manifest);
        write(
            &dir,
            "result.json",
            &format!("{{\"manifest\": {manifest},\n\"result\": {line}}}\n"),
        );
        if opts.trace {
            write(&dir, "layers.txt", &table);
            write(
                &dir,
                "trace.json",
                &outcome.spans.to_perfetto_json(MAX_WRITTEN_SPANS),
            );
        }
    }
    println!("{line}");
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
