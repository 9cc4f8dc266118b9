//! **E20 — SLO-aware serving under open-loop traffic** (semrec-serve):
//! drive the lockstep server with open-loop arrival processes — Poisson,
//! a diurnal ramp, and a flash crowd concentrated on a hot agent set —
//! and measure **goodput-under-SLO by priority class**: requests answered
//! within their class's deadline budget, as a fraction of offered load.
//!
//! The headline comparison runs the *identical* flash-crowd trace twice:
//! once with SLO enforcement off (nothing shed at dequeue, requests are
//! simply served late) and once with it on (deadline-aware shedding plus
//! the pressure controller). High-priority goodput must be strictly
//! higher with the SLO on — that is the whole point of spending drain
//! capacity on live requests instead of dead ones.
//!
//! Two robustness sub-runs repeat the flash crowd with the machinery
//! under extra stress:
//!
//! * **mid-burst publish** — a new snapshot generation is installed at the
//!   middle of the spike window; every admitted request must still
//!   resolve (zero loss) and the epoch must have advanced;
//! * **degraded-source epoch** — the engine carries a [`SourceHealth`]
//!   record from a partially-failed crawl; every admitted request is
//!   answered and responses are marked degraded.
//!
//! Because the server runs in lockstep mode, every run here is a pure
//! function of `(config, seed)` — the experiment re-runs the enforcing
//! trace at 2 and 8 compute threads and asserts report equality.

use semrec_core::{Recommender, RecommenderConfig, SourceHealth};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_obs::MetricsSnapshot;
use semrec_serve::{
    run_open_loop, run_open_loop_with, ArrivalProcess, OpenLoopConfig, OpenLoopReport,
    Priority, ScalerConfig, ServeConfig, Server,
};

use crate::Scale;

/// One measured trace: an arrival process under an enforcement mode.
#[derive(Clone, Debug)]
pub struct Row {
    /// Human label for the arrival process.
    pub process: &'static str,
    /// Whether SLO enforcement was on.
    pub slo: bool,
    /// The measured outcome.
    pub report: OpenLoopReport,
}

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Arrival-process sweep (all SLO-on) plus the baseline/enforced pair.
    pub rows: Vec<Row>,
    /// Flash crowd with enforcement off — the no-SLO baseline.
    pub baseline: OpenLoopReport,
    /// The same trace with enforcement on.
    pub enforced: OpenLoopReport,
    /// The enforcing run's server's own books.
    pub enforced_metrics: MetricsSnapshot,
    /// Mid-burst snapshot-publish sub-run.
    pub publish: OpenLoopReport,
    /// Epoch installed by the mid-burst publish.
    pub epoch_after: u64,
    /// Degraded-source-epoch sub-run.
    pub degraded: OpenLoopReport,
    /// Whether a probe response from the degraded epoch was marked so.
    pub degraded_marked: bool,
    /// Whether the enforcing trace is identical at 1, 2, and 8 threads.
    pub identical_across_threads: bool,
}

/// Runs E20.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E20", "SLO-aware serving: goodput by class under open-loop traffic");
    let (ticks, spike) = match scale {
        Scale::Small => (80u64, 32.0),
        Scale::Medium => (120, 32.0),
        Scale::Paper => (200, 40.0),
    };
    let spike_start = ticks / 4;
    let spike_len = ticks * 3 / 8;

    let community = generate_community(&scale.community(2020)).community;
    let panel: Vec<_> = community.agents().take(64).collect();
    let engine = Recommender::new(community, RecommenderConfig::default());

    let flash = ArrivalProcess::FlashCrowd {
        base: 2.0,
        spike,
        start: spike_start,
        len: spike_len,
        hot_agents: 6,
        hot_fraction: 0.7,
    };
    // A deep queue and a capped pool: the spike outruns the drain so waits
    // climb past the deadline budgets and the SLO machinery has to act.
    let lockstep = ServeConfig { workers: 0, queue_capacity: 256, ..ServeConfig::default() };
    // The mix is deliberately top-heavy: at the spike rate, high-class
    // arrivals alone exceed high's weighted-fair share of the drain, so
    // even the protected class queues past its budget — the regime where
    // deadline shedding (dropping dead requests instead of serving them
    // late) is the only thing that can rescue goodput.
    let config = |process: ArrivalProcess| OpenLoopConfig {
        ticks,
        process,
        seed: 2020,
        class_mix: [0.4, 0.4, 0.2],
        scaler: ScalerConfig { max_workers: 4, ..ScalerConfig::default() },
        ..OpenLoopConfig::default()
    };
    let drive_metered = |cfg: &OpenLoopConfig| -> (OpenLoopReport, MetricsSnapshot) {
        let server = Server::start(engine.clone(), lockstep);
        let report = run_open_loop(&server, &panel, cfg);
        let metrics = server.metrics();
        server.shutdown();
        (report, metrics)
    };
    let drive = |cfg: &OpenLoopConfig| drive_metered(cfg).0;

    outln!(
        out,
        "{} agents, 64-agent panel; {} ticks, spike ×{:.0} over [{}, {});\n\
         budgets H/N/L = 8/16/32 ticks, p99 target 16; queue 256, workers 1–4\n",
        engine.community().agent_count(),
        ticks,
        spike,
        spike_start,
        spike_start + spike_len,
    );

    // --- arrival-process sweep (SLO on) + the baseline/enforced pair -----
    let mut rows = vec![
        Row {
            process: "poisson(6)",
            slo: true,
            report: drive(&config(ArrivalProcess::Poisson { rate: 6.0 })),
        },
        Row {
            process: "diurnal(2→20)",
            slo: true,
            report: drive(&config(ArrivalProcess::Diurnal { base: 2.0, peak: 20.0 })),
        },
    ];
    let baseline = drive(&OpenLoopConfig { enforce_slo: false, ..config(flash) });
    let (enforced, enforced_metrics) = drive_metered(&config(flash));
    rows.push(Row { process: "flash crowd", slo: false, report: baseline });
    rows.push(Row { process: "flash crowd", slo: true, report: enforced });

    let mut table = Table::new([
        "process", "slo", "class", "offered", "served", "goodput", "good %", "shed adm",
        "displ", "shed dl", "p50", "p99",
    ]);
    for row in &rows {
        for class in Priority::ALL {
            let c = row.report.class.get(class);
            table.row([
                row.process.to_string(),
                if row.slo { "on".into() } else { "off".to_string() },
                class.label().to_string(),
                c.offered.to_string(),
                c.served.to_string(),
                c.goodput.to_string(),
                fmt(c.goodput_rate()),
                c.shed_admission.to_string(),
                c.displaced.to_string(),
                c.shed_deadline.to_string(),
                c.wait_p50.to_string(),
                c.wait_p99.to_string(),
            ]);
        }
    }
    outln!(out, "{}", table.render());
    let (b, e) = (baseline.class.high, enforced.class.high);
    outln!(
        out,
        "Same trace, SLO off → on: high-class goodput {} → {} ({} → {}); the\n\
         controller spends drain capacity on live requests instead of dead ones,\n\
         and sheds low before normal before high as pressure climbs.\n",
        b.goodput,
        e.goodput,
        fmt(b.goodput_rate()),
        fmt(e.goodput_rate()),
    );
    outln!(out, "Server::metrics() of the enforcing flash-crowd run:");
    outln!(out, "{}", super::books(&enforced_metrics));

    // --- sub-run: snapshot publish at mid-spike ---------------------------
    let publish_at = spike_start + spike_len / 2;
    let server = Server::start(engine.clone(), lockstep);
    let mut epoch_after = 0;
    let publish = run_open_loop_with(&server, &panel, &config(flash), |tick, server| {
        if tick == publish_at {
            epoch_after = server.publish(engine.clone());
        }
    });
    server.shutdown();
    outln!(
        out,
        "Mid-burst publish at tick {}: epoch {} installed under flash-crowd load;\n\
         {} offered, {} served, {} lost — every admitted request resolved.\n",
        publish_at,
        epoch_after,
        publish.offered(),
        publish.served(),
        publish.lost,
    );

    // --- sub-run: degraded-source epoch under the same flash crowd --------
    let health = SourceHealth {
        attempted: 24,
        fetched: 20,
        unreachable: 3,
        gave_up: 1,
        corrupted: 0,
        parse_errors: 2,
    };
    let server = Server::start(engine.clone().with_source_health(health), lockstep);
    let degraded = run_open_loop(&server, &panel, &config(flash));
    let probe = server
        .submit_classed(panel[0], 10, Priority::High, None)
        .expect("drained queue admits a probe");
    server.drain_step(1, 1, None);
    let degraded_marked = probe
        .try_wait()
        .expect("lockstep drain resolves the probe")
        .expect("healthy engine serves the probe")
        .degraded;
    server.shutdown();
    outln!(
        out,
        "Degraded-source epoch ({} of {} sources fetched) under the same burst:\n\
         {} served of {} offered, {} lost; responses marked degraded: {}.\n",
        health.fetched,
        health.attempted,
        degraded.served(),
        degraded.offered(),
        degraded.lost,
        degraded_marked,
    );

    // --- determinism: the enforcing trace at 1, 2, and 8 threads ----------
    let identical_across_threads = [2usize, 8].iter().all(|&threads| {
        let (report, metrics) = drive_metered(&OpenLoopConfig { threads, ..config(flash) });
        report == enforced && metrics.counters == enforced_metrics.counters
    });
    outln!(
        out,
        "Thread-count invariance: enforcing flash-crowd run at 2 and 8 compute\n\
         threads {} the single-threaded report byte for byte.",
        if identical_across_threads { "matches" } else { "DIVERGES FROM" },
    );

    let outcome = Outcome {
        rows,
        baseline,
        enforced,
        enforced_metrics,
        publish,
        epoch_after,
        degraded,
        degraded_marked,
        identical_across_threads,
    };
    (outcome, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_enforcement_shapes_hold_at_small_scale() {
        let (o, text) = run(Scale::Small);

        // Accounting closes on every trace: all admitted requests resolve.
        for row in &o.rows {
            let r = &row.report;
            assert_eq!(r.lost, 0, "no admitted request may vanish: {row:?}");
            for class in Priority::ALL {
                let c = r.class.get(class);
                assert_eq!(
                    c.admitted,
                    c.resolved(),
                    "class {class} accounting must close: {row:?}"
                );
                assert_eq!(c.offered, c.admitted + c.shed_admission);
            }
        }

        // The flash crowd actually stresses the enforcing run: every class
        // sees traffic, the pool scales, and deadline shedding fires.
        let e = &o.enforced;
        for class in Priority::ALL {
            assert!(e.class.get(class).served > 0, "class {class} must be served");
        }
        assert!(e.scale_events > 0, "the spike must trigger worker scaling");
        assert!(e.peak_workers > 1);
        let dl: u64 = Priority::ALL.iter().map(|&c| e.class.get(c).shed_deadline).sum();
        assert!(dl > 0, "the spike must drive deadline shedding");
        // The server counted what the harness saw resolve.
        let counters = &o.enforced_metrics.counters;
        assert_eq!(counters["serve.slo.violations"], dl);
        assert_eq!(counters["serve.workers.scale_events"], e.scale_events);
        for class in Priority::ALL {
            let c = e.class.get(class);
            assert_eq!(counters[&format!("serve.class.{class}.served")], c.served);
            assert_eq!(counters[&format!("serve.slo.goodput.{class}")], c.goodput);
        }

        // The baseline never sheds at dequeue — it only serves late.
        let b = &o.baseline;
        for class in Priority::ALL {
            assert_eq!(b.class.get(class).shed_deadline, 0, "no-SLO run sheds only at admission");
        }

        // Headline: on the identical trace, enforcement strictly improves
        // high-priority goodput, and high degrades last (its goodput rate
        // stays above the lower classes').
        assert!(
            e.class.high.goodput > b.class.high.goodput,
            "SLO-on high goodput {} must exceed baseline {}",
            e.class.high.goodput,
            b.class.high.goodput
        );
        assert!(e.class.high.goodput_rate() >= e.class.normal.goodput_rate());
        assert!(e.class.high.goodput_rate() >= e.class.low.goodput_rate());

        // Mid-burst publish: epoch advanced, nothing lost.
        assert_eq!(o.epoch_after, 2, "publish must install the second generation");
        assert_eq!(o.publish.lost, 0, "a mid-burst publish must not lose requests");

        // Degraded epoch: everything admitted is answered, and marked.
        assert_eq!(o.degraded.lost, 0);
        assert!(o.degraded.served() > 0);
        assert!(o.degraded_marked, "degraded provenance must reach responses");

        // Lockstep determinism across compute-thread counts.
        assert!(o.identical_across_threads);
        super::super::assert_golden(&text);
    }
}
