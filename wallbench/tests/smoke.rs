//! Short smoke runs of every workload through the real binary: every named
//! metric is emitted with its unit and no op fails. Run with `--release`;
//! the simulated HTM is slow unoptimised.

use std::process::Command;

use wallbench::{Workload, END_TO_END, PER_LAYER};

fn run(workload: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run wallbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} trace={trace} failed: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(stdout: &str, metrics: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains(", \"failed\": 0, "), "{last}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        let rest = &last[at + key.len()..];
        let (value, tail) = rest.split_once(", ").expect("value then unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name}: bad value {value}"));
        assert!(
            tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: wrong unit in {tail}"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(unit)),
            "{name} not printed by name with its unit"
        );
    }
    assert_eq!(
        last.matches("\"unit\"").count(),
        metrics.len(),
        "exactly the named metrics"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_fails_nothing() {
    for w in Workload::ALL {
        let out = run(w, false);
        check(&out, &END_TO_END);
        assert!(out.lines().any(|l| l == "# failed_ratio 0 ratio"), "{out}");
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_reproduces_its_counts() {
    for w in Workload::ALL {
        let out = run(w, true);
        check(&out, &PER_LAYER);
        assert!(out.contains("two runs identical"), "{out}");
    }
}

#[test]
fn benchmark_json_names_the_metrics_the_binary_emits() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        doc.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(doc.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "tpcc",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["--workload", "tpcc", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
            .args(args)
            .output()
            .expect("run wallbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
