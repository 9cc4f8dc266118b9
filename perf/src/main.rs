//! `semrec-perf`: the benchmark of the semrec workspace.
//!
//! ```text
//! semrec-perf run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat N] [--smoke] [--out DIR]
//! semrec-perf agree A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! `run --workload <name>` runs one workload in this process and prints,
//! after the human-readable lines, one JSON object as the last line of
//! standard output. `run --workload all` runs every workload in a child
//! process of its own (so peak memory does not mix), first with tracing
//! off for the end-to-end metrics and then traced for the per-layer ones,
//! and writes a result set. `agree` compares two result sets.

mod agree;
mod check;
mod json;
mod layers;
mod load;
mod metrics;
mod resultset;
mod run;
mod stats;
mod trace;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Workload;

fn usage(problem: &str) -> ExitCode {
    eprintln!("semrec-perf: {problem}");
    eprintln!(
        "usage: semrec-perf run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N] [--smoke] [--out DIR]\n       semrec-perf agree A.json B.json [--bench BENCHMARK.json]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(command) => command.execute(),
            Err(problem) => usage(&problem),
        },
        Some("agree") => agree::main(&args[1..]).unwrap_or_else(|problem| usage(&problem)),
        _ => usage("expected `run` or `agree`"),
    }
}

/// `run` as typed on the command line.
pub struct RunCommand {
    /// `None` = all, each in a child process.
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub repeat: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

/// `run_seconds` of `BENCHMARK.json`, so a result set taken without
/// `--seconds` compares with the runner's.
const RUN_SECONDS: f64 = 20.0;

fn parse_run(args: &[String]) -> Result<RunCommand, String> {
    let mut command = RunCommand {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        traced: false,
        repeat: 1,
        smoke: false,
        out: PathBuf::from("perf/out"),
    };
    let mut seconds_given = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            command.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => command.workload = None,
            "--workload" => command.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => command.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                command.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(bad)?;
                seconds_given = true;
            }
            "--trace" => {
                command.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                command.repeat = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?
            }
            "--out" => command.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if command.smoke && !seconds_given {
        command.seconds = 0.25;
    }
    Ok(command)
}

impl RunCommand {
    fn execute(self) -> ExitCode {
        let Some(workload) = self.workload else {
            return resultset::run_all(&self);
        };
        let outcome = run::run(run::Options {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            smoke: self.smoke,
            out: self.out,
        });
        for (name, unit, reading) in &outcome.metrics {
            println!(
                "{} {name} {unit} {} {}",
                workload.name(),
                reading.value,
                reading.samples
            );
        }
        for line in outcome.tails.iter().chain(&outcome.self_times) {
            println!("# {} {line}", workload.name());
        }
        println!(
            "# {} attempted {} failed {} answers checked {}",
            workload.name(),
            outcome.attempted,
            outcome.failed,
            outcome.checked
        );
        println!("{}", outcome.result_line());
        if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// The flags every child of `--workload all` inherits.
    pub fn child_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--seed".to_owned(),
            self.seed.to_string(),
            "--seconds".to_owned(),
            self.seconds.to_string(),
            "--out".to_owned(),
            self.out.display().to_string(),
        ];
        if self.smoke {
            flags.push("--smoke".to_owned());
        }
        flags
    }
}
