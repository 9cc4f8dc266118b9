//! The experiment runner: regenerates every table/figure of the
//! reproduction (DESIGN.md §3, EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p semrec-bench --bin experiments -- all
//! cargo run --release -p semrec-bench --bin experiments -- e7 --scale medium
//! ```
//!
//! Each experiment returns its text — its tables and the `metrics()` of
//! the engines, stores, webs and swarms it built — and this binary is the
//! only thing that prints it. `all --scale small` prints exactly
//! `crates/bench/golden/small.txt`.

use semrec_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Medium;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("unknown scale"));
            }
            "all" => ids.extend(experiments::ALL.iter().map(|(id, _)| id.to_string())),
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage("no experiment selected");
    }

    println!("semrec experiment harness — scale: {scale:?}");
    for id in &ids {
        match experiments::ALL.iter().find(|(known, _)| known == id) {
            Some((_, run)) => print!("{}", run(scale)),
            None => usage(&format!("unknown experiment `{id}`")),
        }
    }
}

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}\n");
    eprintln!("usage: experiments [--scale small|medium|paper] <ids…|all>");
    let ids: Vec<&str> = experiments::ALL.iter().map(|(id, _)| *id).collect();
    eprintln!("  experiments: {}", ids.join(", "));
    std::process::exit(2);
}
