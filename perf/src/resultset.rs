//! `run --workload all`: every workload in a child process of its own,
//! untraced then traced, `--repeat` times over, folded into one result set
//! with the median and quartiles of each metric.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::load::CLIENTS;
use crate::metrics::{Better, Workload, END_TO_END, PER_LAYER};
use crate::run::WORLD_SEED;
use crate::stats::{median, quartiles};
use crate::workloads::{bursts, SHARDS, SHARD_THREADS, WORKERS};
use crate::RunCommand;

/// First line of standard output of `program args…`, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What the numbers of a result set were taken on and with.
fn header(command: &RunCommand) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("available_parallelism", Json::Num(cores as f64)),
        ("nproc", Json::str(tool_line("nproc", &[]))),
        ("seed", Json::Num(command.seed as f64)),
        ("world_seed", Json::Num(WORLD_SEED as f64)),
        ("seconds_per_run", Json::Num(command.seconds)),
        ("smoke", Json::Bool(command.smoke)),
        ("sets", Json::Num(command.repeat as f64)),
        ("loop", Json::str("closed")),
        ("clients", Json::Num(CLIENTS as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        (
            "burst",
            Json::obj(bursts().map(|(workload, burst)| (workload, Json::Num(burst as f64)))),
        ),
        ("shards", Json::Num(SHARDS as f64)),
        ("shard_threads", Json::Num(SHARD_THREADS as f64)),
    ])
}

/// Runs one workload in a child process, echoes its human-readable lines
/// and returns its result line.
fn child(workload: Workload, traced: bool, flags: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "run",
            "--workload",
            workload.name(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(flags)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let what = format!("{} (trace {})", workload.name(), u8::from(traced));
    let result = Json::parse(last).map_err(|e| format!("{what}: no result line: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{what}: incorrect or failed: {last}"));
    }
    Ok(result)
}

pub fn run_all(command: &RunCommand) -> ExitCode {
    let flags = command.child_flags();
    let out = &command.out;
    // (workload, metric) → one value per repeat.
    let mut values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut problems = Vec::new();
    for _ in 0..command.repeat {
        for (index, workload) in Workload::ALL.into_iter().enumerate() {
            for traced in [false, true] {
                let result = match child(workload, traced, &flags) {
                    Ok(result) => result,
                    Err(problem) => {
                        problems.push(problem);
                        continue;
                    }
                };
                let names: Vec<&'static str> = if traced {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                for name in names {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    match value {
                        Some(value) => values.entry((index, name)).or_default().push(value),
                        None => problems.push(format!("{}: no {name}", workload.name())),
                    }
                }
            }
        }
    }

    let describe = |name: &str| -> (&'static str, &'static str, Better) {
        if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
            ("end_to_end", m.unit, m.better)
        } else {
            let m = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .expect("name comes from the tables");
            ("per_layer", m.unit, m.better)
        }
    };
    let rows: Vec<Json> = values
        .iter_mut()
        .map(|(&(index, name), values)| {
            let (kind, unit, better) = describe(name);
            let [q1, mid, q3] = if values.len() >= 2 {
                quartiles(&mut values.clone())
            } else {
                [median(&mut values.clone()); 3]
            };
            println!(
                "{} {name} {unit} {mid} {}",
                Workload::ALL[index].name(),
                values.len()
            );
            Json::obj([
                ("workload", Json::str(Workload::ALL[index].name())),
                ("name", Json::str(name)),
                ("kind", Json::str(kind)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better.label())),
                ("median", Json::Num(mid)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ])
        })
        .collect();
    let set = Json::obj([("header", header(command)), ("metrics", Json::Arr(rows))]);
    let path = out.join("result.json");
    if let Err(e) =
        std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, set.render() + "\n"))
    {
        problems.push(format!("{}: {e}", path.display()));
    }
    println!("{}", set.render());
    eprintln!("result set written to {}", path.display());
    for problem in &problems {
        eprintln!("semrec-perf: {problem}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
