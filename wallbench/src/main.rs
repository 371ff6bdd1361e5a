//! Command-line entry point: `wallbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints provenance and every metric by name
//! with its unit, then the result as one JSON object on the last line.

use std::process::ExitCode;

use wallbench::{provenance, run, stall_report, Args, Report, USAGE};

fn print(report: &Report) {
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        eprintln!("wallbench: FAILED: {e}");
    }
    println!("{}", report.json());
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let on_stall = |attempted: u64| {
        print(&stall_report(attempted));
        std::process::exit(3);
    };
    let report = run(&args, &on_stall);
    print(&report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
