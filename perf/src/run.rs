//! One run of one workload: set-up, timed slices, checks, the layer probe
//! of a traced run, and the result.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::Verdict;
use crate::json::Json;
use crate::load::stream_seed;
use crate::metrics::{Source, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, segment_rates, supported_tail};
use crate::trace::Tracer;
use crate::workloads;
use crate::world::World;

/// The seed of the generated community, on every run. The world is part of
/// a workload's definition, like its scale: worlds of different seeds
/// differ by a tenth in request cost and by half in generation time, which
/// no run length averages out, and the runner bounds the spread of every
/// metric over runs under ten seeds. `--seed` varies what is asked of the
/// world: who is requested, and who republishes.
pub const WORLD_SEED: u64 = 42;

/// Segments the timed phase is cut into; `run.rps` is the median segment.
const SEGMENTS: usize = 5;

/// Where in a run's samples a bounded figure sits: a rate is the ninth
/// decile of the slices' rates (`_q90`), a time the first decile of its
/// samples (`_q10`). On the recorded host something outside the benchmark
/// slows a changing share of all seconds by 10–30 %. A median over a run of
/// seconds moves with the share the run caught; the quiet decile moves
/// less (the README has the spreads of both). A change that slows every
/// slice moves the decile with it; one that slows fewer than nine slices in
/// ten shows only in the medians beside it (`run.*`).
const QUIET: f64 = 0.1;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall time of the timed phase.
    pub seconds: f64,
    pub traced: bool,
    /// Small world, one set-up, all checks: a seconds-long self-test.
    pub smoke: bool,
    /// Where trace files and scratch stores go.
    pub out: PathBuf,
}

/// A named value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub samples: usize,
}

pub struct Ctx {
    pub opts: Options,
    pub tr: Tracer,
    /// The stream that picks which agents republish; never a client's.
    pub churn_rng: StdRng,
    /// A directory of this process's own under `out`, removed at exit.
    pub scratch: PathBuf,
    pub attempted: u64,
    /// Failed, shed, refused and wrong-answer operations.
    pub failed: u64,
    pub checked: u64,
    setup_reps_s: Vec<f64>,
    end_to_end: BTreeMap<&'static str, Reading>,
    values: BTreeMap<&'static str, Reading>,
    /// Latency lines for the human-readable output.
    pub tails: Vec<String>,
}

/// The quiet-decile rate of `slices`, each (operations answered, seconds
/// they took).
fn quiet_rate(slices: &[(u64, f64)]) -> f64 {
    let mut rates: Vec<f64> = slices.iter().map(|&(n, s)| n as f64 / s).collect();
    quantile(&mut rates, 1.0 - QUIET)
}

impl Ctx {
    fn new(opts: Options) -> Ctx {
        let scratch = opts.out.join(format!("scratch-{}", std::process::id()));
        Ctx {
            tr: Tracer::new(opts.traced),
            churn_rng: StdRng::seed_from_u64(stream_seed(opts.seed, u64::MAX)),
            scratch,
            attempted: 0,
            failed: 0,
            checked: 0,
            setup_reps_s: Vec::new(),
            end_to_end: BTreeMap::new(),
            values: BTreeMap::new(),
            tails: Vec::new(),
            opts,
        }
    }

    /// Builds the workload's state `reps` times (once under `--smoke`),
    /// dropping each before the next so only one is ever resident, and
    /// keeps the last; `setup_s` reports the median repetition.
    pub fn set_up<S>(
        &mut self,
        world: &mut World,
        reps: usize,
        mut build: impl FnMut(&mut Ctx, &mut World) -> S,
    ) -> S {
        let mut state = None;
        for _ in 0..if self.opts.smoke { 1 } else { reps } {
            drop(state.take());
            let started = Instant::now();
            state = Some(build(self, world));
            self.setup_reps_s.push(started.elapsed().as_secs_f64());
        }
        state.expect("at least one set-up")
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64, samples: usize) {
        self.end_to_end.insert(name, Reading { value, samples });
    }

    /// Sets a per-layer count, share or derived value. The first reading
    /// stands: a workload's own timed phase reports before the layer probe.
    pub fn value(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values
            .entry(name)
            .or_insert(Reading { value, samples });
    }

    pub fn judge(&mut self, verdict: Verdict) {
        self.checked += verdict.checked;
        self.failed += verdict.wrong;
    }

    /// Counts one operation outside the client loop, failed unless `ok`.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Runs the timed phase as slices until their timed parts add up to
    /// `--seconds`. A slice is a fixed amount of work; `slice` does it and
    /// returns how many operations it answered and the time they took.
    /// Checking happens inside it but outside that time. In a traced run
    /// every second slice records spans, so drift cancels in the overhead
    /// figure.
    ///
    /// `peak_rss_mb` is read after `rss_after` slices, that is after a fixed
    /// number of operations (at the end of a run that has fewer): the
    /// program keeps a few bytes per request answered, so at the end of a
    /// fixed time a faster program would look bigger.
    pub fn slices(&mut self, rss_after: usize, mut slice: impl FnMut(&mut Ctx) -> (u64, Duration)) {
        let mut measured = 0.0;
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        // At least one slice of each kind, however short the run.
        while measured < self.opts.seconds || untraced.len() + traced.len() < 2 {
            let record = self.opts.traced && untraced.len() > traced.len();
            self.tr.set_enabled(record);
            let (answered, busy) = slice(self);
            measured += busy.as_secs_f64();
            if record { &mut traced } else { &mut untraced }.push((answered, busy.as_secs_f64()));
            if untraced.len() + traced.len() == rss_after {
                self.end_to_end("peak_rss_mb", peak_rss_mb(), 1);
            }
        }
        self.tr.set_enabled(self.opts.traced);
        if untraced.len() + traced.len() < rss_after {
            self.end_to_end("peak_rss_mb", peak_rss_mb(), 1);
        }
        self.end_to_end("rps_q90", quiet_rate(&untraced), untraced.len());
        let segments = median(&mut segment_rates(&untraced, SEGMENTS));
        self.value("run.rps", segments, untraced.len());
        self.tails.push(format!(
            "rate: {} slices, median of {SEGMENTS} segments {segments:.4} 1/s",
            untraced.len()
        ));
        if self.opts.traced {
            let overhead = 1.0 - quiet_rate(&traced) / quiet_rate(&untraced);
            self.value("obs.trace_overhead_share", overhead, traced.len());
        }
    }

    /// Reports the read latency: `p50_ms_q10` from the slices' medians,
    /// `run.p50_ms` as the exact median of the pooled raw samples, and for
    /// the human reader the highest percentile with at least ten samples
    /// beyond it.
    pub fn latencies(&mut self, what: &str, slice_medians_ms: &mut [f64], pooled_ms: &mut [f64]) {
        let quiet = quantile(slice_medians_ms, QUIET);
        self.end_to_end("p50_ms_q10", quiet, slice_medians_ms.len());
        let p50 = median(pooled_ms);
        self.value("run.p50_ms", p50, pooled_ms.len());
        let tail = match supported_tail(pooled_ms) {
            Some((label, value)) => format!("{label} {value:.4} ms"),
            None => "no percentile above the median has ten samples beyond it".to_owned(),
        };
        self.tails.push(format!(
            "{what}: {} samples, p50 {p50:.4} ms, {tail}",
            pooled_ms.len()
        ));
    }

    /// Reports the workload's write operations: their median as
    /// `run.write_ms` and their quiet decile as `run.write_ms_q10`. Neither
    /// is bounded: a refresh round moves by 20–50 % with the hour on the
    /// recorded host while the reads beside it move by 5 %.
    pub fn writes(&mut self, ms: &mut [f64]) {
        let (p50, quiet) = (median(ms), quantile(ms, QUIET));
        self.value("run.write_ms", p50, ms.len());
        self.value("run.write_ms_q10", quiet, ms.len());
        self.tails.push(format!(
            "write: {} samples, p50 {p50:.4} ms, first decile {quiet:.4} ms",
            ms.len()
        ));
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The outcome of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    /// In the order of the metric tables.
    pub metrics: Vec<(&'static str, &'static str, Reading)>,
    pub tails: Vec<String>,
    pub self_times: Vec<String>,
}

impl Outcome {
    /// The line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, reading)| {
                (
                    name.to_owned(),
                    Json::obj([
                        ("value", Json::Num(reading.value)),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

pub fn run(opts: Options) -> Outcome {
    let mut ctx = Ctx::new(opts);
    std::fs::create_dir_all(&ctx.scratch).expect("output directory is writable");
    let scale = ctx.opts.workload.scale(ctx.opts.smoke);

    let started = Instant::now();
    let mut world = World::generate(&mut ctx.tr, scale, WORLD_SEED);
    let generate_s = started.elapsed().as_secs_f64();

    workloads::run(&mut ctx, &mut world);

    let reps = ctx.setup_reps_s.len();
    let setup_s = generate_s + median(&mut ctx.setup_reps_s);
    ctx.end_to_end("setup_s", setup_s, reps);
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    let metrics = if ctx.opts.traced {
        let (dropped, checked) = (ctx.tr.dropped as f64, ctx.checked as f64);
        ctx.value("harness.spans_dropped", dropped, 1);
        ctx.value("harness.answers_checked", checked, 1);
        let trace = ctx
            .opts
            .out
            .join(format!("trace-{}.jsonl", ctx.opts.workload.name()));
        ctx.tr
            .write_jsonl(&trace)
            .expect("output directory is writable");
        PER_LAYER
            .iter()
            .map(|metric| {
                let reading = match metric.source {
                    Source::Span(span, ns_per_unit) => {
                        let mut durations = ctx.tr.durations_ns(span);
                        assert!(!durations.is_empty(), "no span for {}", metric.name);
                        Reading {
                            value: median(&mut durations) / ns_per_unit,
                            samples: durations.len(),
                        }
                    }
                    Source::Value => *ctx
                        .values
                        .get(metric.name)
                        .unwrap_or_else(|| panic!("no value for {}", metric.name)),
                };
                (metric.name, metric.unit, reading)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|metric| {
                let reading = *ctx
                    .end_to_end
                    .get(metric.name)
                    .unwrap_or_else(|| panic!("no value for {}", metric.name));
                (metric.name, metric.unit, reading)
            })
            .collect()
    };
    let self_times = ctx
        .tr
        .self_times()
        .into_iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{name}: {count} spans, total {:.3} ms, self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            )
        })
        .collect();
    Outcome {
        correct: ctx.failed == 0 && ctx.attempted > 0,
        attempted: ctx.attempted,
        failed: ctx.failed,
        checked: ctx.checked,
        metrics,
        tails: ctx.tails,
        self_times,
    }
}
