//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! perfbench --workload <offline-zoo|fleet-diurnal|sim-contended> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines (run metadata, every workload figure by name and
//! unit, failed checks) come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics of an untraced run, or the per-layer metrics
//! of a traced one. The full result, and the spans of a traced run as a
//! Chrome trace, are written under `.bench_out/` in the working
//! directory.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use perfbench::report::{self, json_escape, json_number, END_TO_END, PER_LAYER};
use perfbench::{Options, RunResult, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be finite and non-negative, got {s}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::Full,
        },
    ))
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// First line of `program args`' standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the working directory, when it is the top of a git
/// work tree (a plain source checkout has none).
fn git_sha() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(std::fs::canonicalize);
    match (std::fs::canonicalize(&top), here) {
        (Ok(top), Ok(here)) if top == here => command_line("git", &["rev-parse", "HEAD"]),
        _ => "unknown".to_string(),
    }
}

fn meta(workload: &str, opts: &Options) -> Vec<(&'static str, String)> {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    vec![
        ("workload", workload.to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("git_sha", git_sha()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", command_line(&rustc, &["--version"])),
    ]
}

/// The full result as JSON: metadata, every figure, the run's timings,
/// and the failed checks.
fn result_document(
    meta: &[(&str, String)],
    res: &RunResult,
    metrics: &[(&str, f64, &str)],
) -> String {
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|&x| json_number(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{k}\": \"{}\"", json_escape(v));
    }
    let _ = write!(
        out,
        "}},\n  \"result\": {},\n  \"setup_s\": [{}],\n  \"work_s\": [{}],\n  \"traced_work_s\": [{}],\n  \"input_digest\": \"{:016x}\",\n  \"figures\": {{",
        report::result_line(&res.checks, metrics),
        list(&res.setup_s),
        list(&res.work_s),
        list(&res.traced_work_s),
        res.input_digest
    );
    for (i, f) in res.figures.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"deterministic\": {}}}",
            f.name,
            json_number(f.value),
            f.unit,
            f.exact
        );
    }
    out.push_str("\n  },\n  \"failed_checks\": [");
    for (i, f) in res.checks.failures.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n    \"{}\"", json_escape(f));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn write_out(path: &Path, contents: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let res = match perfbench::run(&workload, &opts) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let meta = meta(&workload, &opts);
    for (k, v) in &meta {
        println!("meta {k} = {v}");
    }
    for f in &res.figures {
        println!("figure {} = {} {}", f.name, json_number(f.value), f.unit);
    }
    for failure in &res.checks.failures {
        eprintln!("check failed: {failure}");
    }

    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, res.figure(name).unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => report::median(&res.setup_s),
                    "peak_rss_mb" => peak_rss_mb().unwrap_or(f64::NAN),
                    "work_s" => report::median(&res.work_s),
                    _ => unreachable!("END_TO_END lists {name}"),
                };
                (name, value, unit)
            })
            .collect()
    };

    let out = Path::new(".bench_out");
    let stem = format!("{workload}-seed{}-trace{}", opts.seed, u8::from(opts.trace));
    write_out(
        &out.join(format!("{stem}.json")),
        &result_document(&meta, &res, &metrics),
    );
    if opts.trace {
        write_out(
            &out.join(format!("{stem}.chrome.json")),
            &res.tracer.chrome_json(&meta),
        );
    }
    println!("{}", report::result_line(&res.checks, &metrics));
    ExitCode::SUCCESS
}
