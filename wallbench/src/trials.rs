//! An untraced run is the median of [`TRIALS`] child processes.
//!
//! On a shared 2-core VM much of the run-to-run spread is fixed for the
//! life of a process: where its pages and threads land sets how fast cache
//! lines move between the two clients, and a longer window does not
//! average that out. So an untraced run re-executes this binary
//! [`TRIALS`] times, one after the other, each measuring an equal share of
//! the window with its own set-ups, and reports the median of each metric
//! over the trials. Every child is waited for.

use std::process::{Command, Stdio};

use crate::sample::median;
use crate::{Args, Report, END_TO_END};

/// Child processes per untraced run.
pub const TRIALS: u64 = 3;

/// What one child reported.
struct Trial {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
    notes: Vec<String>,
}

/// Runs the trials of an untraced run and combines them.
pub fn run(args: &Args) -> Report {
    let ms = (args.seconds * 1000 / TRIALS).to_string();
    let mut trials = Vec::new();
    let mut errors = Vec::new();
    for i in 0..TRIALS {
        match trial(args, &ms) {
            Ok(t) => trials.push(t),
            Err(e) => {
                errors.push(format!("trial {i}: {e}"));
                break;
            }
        }
    }
    let attempted = trials.iter().map(|t| t.attempted).sum::<u64>().max(1);
    let failed = trials.iter().map(|t| t.failed).sum::<u64>() + errors.len() as u64;
    let complete = errors.is_empty();
    let metrics = if complete {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(k, &(n, u))| {
                let vs: Vec<f64> = trials.iter().map(|t| t.values[k]).collect();
                (n, median(&vs), u)
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut notes = vec![format!(
        "failed_ratio {} ratio",
        failed as f64 / attempted as f64
    )];
    notes.push(format!(
        "each metric is the median over {} trial processes of {ms} ms",
        trials.len()
    ));
    for (i, t) in trials.iter().enumerate() {
        notes.extend(t.notes.iter().map(|n| format!("trial {i}: {n}")));
    }
    Report {
        correct: complete && failed == 0 && trials.iter().all(|t| t.correct),
        attempted,
        failed,
        metrics,
        notes,
        errors,
    }
}

fn trial(args: &Args, ms: &str) -> Result<Trial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &seed])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .args(["--trial-ms", ms])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let t = parse(&stdout).ok_or_else(|| format!("no result ({})", out.status))?;
    if !out.status.success() && t.correct {
        return Err(format!("exited with {}", out.status));
    }
    Ok(t)
}

/// Reads a child's `name value unit` lines, `# ` notes and result line.
fn parse(stdout: &str) -> Option<Trial> {
    let last = stdout.lines().last()?;
    let field = |key: &str| -> Option<&str> {
        let rest = &last[last.find(key)? + key.len()..];
        rest.split(',').next()
    };
    let mut values = Vec::with_capacity(END_TO_END.len());
    for (name, _) in END_TO_END {
        let line = stdout.lines().find(|l| l.split(' ').next() == Some(name))?;
        values.push(line.split(' ').nth(1)?.parse().ok()?);
    }
    Some(Trial {
        correct: field("\"correct\": ")? == "true",
        attempted: field("\"attempted\": ")?.parse().ok()?,
        failed: field("\"failed\": ")?.parse().ok()?,
        values,
        notes: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("# "))
            .filter(|l| !l.starts_with("wallbench "))
            .map(str::to_string)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_child_result() {
        let out = "# wallbench workload=tpcc\nops_per_s 10.5 1/s\nread_p50_us 1 us\n\
                   read_p99_us 2 us\nwrite_p50_us 3 us\nwrite_p99_us 4 us\nsetup_s 0.5 s\n\
                   peak_rss_mb 9 MB\n# failed_ratio 0 ratio\n\
                   {\"correct\": true, \"attempted\": 42, \"failed\": 0, \"metrics\": {}}\n";
        let t = parse(out).unwrap();
        assert!(t.correct);
        assert_eq!((t.attempted, t.failed), (42, 0));
        assert_eq!(t.values, [10.5, 1.0, 2.0, 3.0, 4.0, 0.5, 9.0]);
        assert_eq!(t.notes, ["failed_ratio 0 ratio"]);
        assert!(parse("ops_per_s 1 1/s\n").is_none(), "no result line");
    }
}
