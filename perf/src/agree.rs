//! `semrec-perf agree A.json B.json`: compares two result sets metric by
//! metric against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;

/// Counts that are a pure function of the seeds and must repeat exactly.
/// The snapshot's size is one only where it is taken at a fixed point:
/// the probe of `serve_refresh` checkpoints after however many rounds of
/// churn the run had time for.
fn exact(workload: &str, name: &str) -> bool {
    match name {
        "trust.nodes_explored" | "trust.iterations" => true,
        "store.snapshot_bytes" => workload != "serve_refresh",
        _ => false,
    }
}

struct Row {
    kind: String,
    better: String,
    median: f64,
    /// Distance between the quartiles as a share of the median.
    spread: f64,
    values: Vec<f64>,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn rows(set: &Json, path: &str) -> Result<BTreeMap<(String, String), Row>, String> {
    let malformed = || format!("{path}: not a result set");
    let mut out = BTreeMap::new();
    for row in set
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or_else(malformed)?
    {
        let text = |key| {
            row.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(malformed)
        };
        let number = |key| row.get(key).and_then(Json::as_f64).ok_or_else(malformed);
        let median = number("median")?;
        let values = row
            .get("values")
            .and_then(Json::as_array)
            .ok_or_else(malformed)?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        out.insert(
            (text("workload")?, text("name")?),
            Row {
                kind: text("kind")?,
                better: text("better")?,
                median,
                spread: if median == 0.0 {
                    0.0
                } else {
                    (number("q3")? - number("q1")?) / median.abs()
                },
                values,
            },
        );
    }
    Ok(out)
}

/// The verdict on one end-to-end metric: `b` against parent `a`.
fn verdict(a: &Row, b: &Row, bound: f64) -> &'static str {
    let lower = a.better == "lower";
    let worse_by = if lower {
        b.median - a.median
    } else {
        a.median - b.median
    } / a.median.abs();
    if worse_by > bound {
        return "worse";
    }
    let b_always_better = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| if lower { y < x } else { y > x }));
    if a.spread.max(b.spread) > bound && !b_always_better {
        return "unresolved";
    }
    "ok"
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut bench = "BENCHMARK.json".to_owned();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--bench" {
            bench = args.next().ok_or("--bench needs a value")?.clone();
        } else {
            paths.push(arg.as_str());
        }
    }
    let [a_path, b_path] = paths[..] else {
        return Err("agree takes two result sets".to_owned());
    };
    let bounds: BTreeMap<String, f64> = load(&bench)?
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{bench}: no end_to_end list"))?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let a = rows(&load(a_path)?, a_path)?;
    let b = rows(&load(b_path)?, b_path)?;

    let mut worse = 0;
    println!("workload metric kind A B change spread_A spread_B verdict");
    for ((workload, name), ra) in &a {
        let Some(rb) = b.get(&(workload.clone(), name.clone())) else {
            println!(
                "{workload} {name} {} {} - - - - missing",
                ra.kind, ra.median
            );
            worse += 1;
            continue;
        };
        let change = if ra.median == 0.0 {
            0.0
        } else {
            (rb.median - ra.median) / ra.median.abs()
        };
        let verdict = if exact(workload, name) {
            let equal = ra.values.iter().chain(&rb.values).all(|&v| v == ra.median);
            if equal {
                "ok"
            } else {
                "worse"
            }
        } else if let Some(&bound) = bounds.get(name).filter(|_| ra.kind == "end_to_end") {
            verdict(ra, rb, bound)
        } else {
            "info"
        };
        worse += usize::from(verdict == "worse");
        println!(
            "{workload} {name} {} {} {} {change:+.4} {:.4} {:.4} {verdict}",
            ra.kind, ra.median, rb.median, ra.spread, rb.spread
        );
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(better: &str, values: &[f64]) -> Row {
        let mut sorted = values.to_vec();
        let [q1, median, q3] = crate::stats::quartiles(&mut sorted);
        Row {
            kind: "end_to_end".to_owned(),
            better: better.to_owned(),
            median,
            spread: (q3 - q1) / median,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = row("lower", &[10.0, 10.1, 9.9]);
        assert_eq!(
            verdict(&base, &row("lower", &[10.5, 10.6, 10.4]), 0.10),
            "ok"
        );
        assert_eq!(
            verdict(&base, &row("lower", &[11.5, 11.6, 11.4]), 0.10),
            "worse"
        );
        assert_eq!(verdict(&base, &row("lower", &[5.0, 5.1, 4.9]), 0.10), "ok");
        // A rate that drops is worse; one that rises is not.
        let rate = row("higher", &[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(&rate, &row("higher", &[80.0, 81.0, 79.0]), 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&rate, &row("higher", &[120.0, 121.0, 119.0]), 0.10),
            "ok"
        );
        // Quartiles further apart than the bound decide nothing …
        let noisy = row("lower", &[10.0, 14.0, 7.0]);
        assert_eq!(verdict(&base, &noisy, 0.10), "unresolved");
        // … unless every run of B beats every run of A.
        assert_eq!(verdict(&noisy, &row("lower", &[5.0, 6.0, 4.0]), 0.10), "ok");
    }
}
