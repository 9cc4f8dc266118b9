//! The reproduced experiments E1–E23 (DESIGN.md §3).
//!
//! Every experiment is a pure function of the chosen [`crate::Scale`] (its
//! seeds are constants): it returns a summary struct and the text the
//! `experiments` binary prints — no clock is read, so the text is the same
//! on every run, host and opt level. `golden/small.txt` is the committed
//! stdout of `experiments all --scale small`; each experiment's shape test
//! pins who wins and where crossovers fall, then compares the text it just
//! produced with its section of that file.

/// `println!` into a `String`.
macro_rules! outln {
    ($out:expr $(, $($arg:tt)*)?) => {{
        use std::fmt::Write as _;
        writeln!($out $(, $($arg)*)?).expect("writing to a String cannot fail");
    }};
}

pub mod e01_example1;
pub mod e02_figure1;
pub mod e03_appleseed;
pub mod e04_trust_similarity;
pub mod e05_overlap;
pub mod e06_scalability;
pub mod e07_attack;
pub mod e08_quality;
pub mod e09_synthesis;
pub mod e10_taxonomy_shape;
pub mod e11_advogato;
pub mod e12_crawl;
pub mod e13_stereotypes;
pub mod e14_freshness;
pub mod e15_resilience;
pub mod e16_serving;
pub mod e17_incremental;
pub mod e18_store;
pub mod e19_ranking;
pub mod e20_slo;
pub mod e21_sharding;
pub mod e22_arena;
pub mod e23_p2p;

use semrec_core::{AgentId, ProductId, Recommender};
use semrec_obs::MetricsSnapshot;

use crate::Scale;

/// Runs one experiment at a scale and returns its text.
pub type Experiment = fn(Scale) -> String;

/// Every experiment in order, by id.
pub const ALL: [(&str, Experiment); 23] = [
    ("e1", |_| e01_example1::run().1),
    ("e2", |_| e02_figure1::run().1),
    ("e3", |scale| e03_appleseed::run(scale).1),
    ("e4", |scale| e04_trust_similarity::run(scale).1),
    ("e5", |scale| e05_overlap::run(scale).1),
    ("e6", |scale| e06_scalability::run(scale).1),
    ("e7", |scale| e07_attack::run(scale).1),
    ("e8", |scale| e08_quality::run(scale).1),
    ("e9", |scale| e09_synthesis::run(scale).1),
    ("e10", |scale| e10_taxonomy_shape::run(scale).1),
    ("e11", |scale| e11_advogato::run(scale).1),
    ("e12", |scale| e12_crawl::run(scale).1),
    ("e13", |scale| e13_stereotypes::run(scale).1),
    ("e14", |scale| e14_freshness::run(scale).1),
    ("e15", |scale| e15_resilience::run(scale).1),
    ("e16", |scale| e16_serving::run(scale).1),
    ("e17", |scale| e17_incremental::run(scale).1),
    ("e18", |scale| e18_store::run(scale).1),
    ("e19", |scale| e19_ranking::run(scale).1),
    ("e20", |scale| e20_slo::run(scale).1),
    ("e21", |scale| e21_sharding::run(scale).1),
    ("e22", |scale| e22_arena::run(scale).1),
    ("e23", |scale| e23_p2p::run(scale).1),
];

/// Bit-exact fingerprint of a panel's recommendations.
pub(crate) fn fingerprint(
    engine: &Recommender,
    panel: &[AgentId],
) -> Vec<(AgentId, ProductId, u64)> {
    let mut out = Vec::new();
    for &agent in panel {
        for rec in engine.recommend(agent, 5).expect("recommendation succeeds") {
            out.push((agent, rec.product, rec.score.to_bits()));
        }
    }
    out
}

const RULE: &str = "================================================================";

/// The section header every experiment's text opens with.
pub(crate) fn header(id: &str, title: &str) -> String {
    format!("\n{RULE}\n{id}: {title}\n{RULE}\n")
}

/// An owner's books as the experiments print them: counters, gauges and
/// histogram counts. Histogram means and sums are left out because the
/// seconds-valued ones are wall-clock, which `perf/` owns.
pub(crate) fn books(snapshot: &MetricsSnapshot) -> String {
    let MetricsSnapshot { counters, gauges, histograms } = snapshot;
    let width = counters
        .keys()
        .chain(gauges.keys())
        .chain(histograms.keys())
        .map(|name| name.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (name, value) in counters {
        outln!(out, "{name:<width$}  {value}");
    }
    for (name, value) in gauges {
        outln!(out, "{name:<width$}  {value:.6}");
    }
    for (name, histogram) in histograms {
        outln!(out, "{name:<width$}  count={}", histogram.count);
    }
    out
}

/// Compares `text`, which an experiment just produced at `Scale::Small`,
/// with the section of `golden/small.txt` under the same header.
///
/// # Panics
/// Panics with the first differing line and the regenerate command.
#[cfg(test)]
pub(crate) fn assert_golden(text: &str) {
    let golden = include_str!("../../golden/small.txt");
    let header_len = text.match_indices('\n').nth(3).expect("text opens with a header").0 + 1;
    let (header, body) = text.split_at(header_len);
    let title = header.lines().nth(2).expect("header has a title line");
    let start = golden.find(header).unwrap_or_else(|| panic!("golden has no section {title:?}"));
    let rest = &golden[start + header_len..];
    let want = &rest[..rest.find(&format!("\n\n{RULE}\n")).map_or(rest.len(), |at| at + 1)];
    if want == body {
        return;
    }
    let same = want.lines().zip(body.lines()).take_while(|(want, got)| want == got).count();
    let (want, got) = (want.lines().nth(same), body.lines().nth(same));
    panic!(
        "{title}: line {} under the header differs from crates/bench/golden/small.txt\n\
         golden: {want:?}\n   got: {got:?}\n\
         if the change is meant, regenerate and review the diff:\n\
         cargo run --release -p semrec-bench --bin experiments -- all --scale small \\\n    \
         > crates/bench/golden/small.txt",
        same + 1
    );
}
