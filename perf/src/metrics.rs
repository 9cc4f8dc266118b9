//! The names, units and directions of every metric. `BENCHMARK.json`
//! repeats them, and adds why each workload it lists exists and the bound
//! of each end-to-end metric; a unit test keeps the two in step.

use crate::world::Scale;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    ServeRefresh,
    ColdStart,
    ShardBatch,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeRefresh,
        Workload::ColdStart,
        Workload::ShardBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeRefresh => "serve_refresh",
            Workload::ColdStart => "cold_start",
            Workload::ShardBatch => "shard_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world the workload runs on; `--smoke` runs every workload on
    /// the 200-agent world.
    pub fn scale(self, smoke: bool) -> Scale {
        match self {
            _ if smoke => Scale::Small,
            Workload::ServeCold | Workload::ColdStart => Scale::Paper,
            _ => Scale::Medium,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "rps_q90",
        unit: "1/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "p50_ms_q10",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
    },
];

/// Where a per-layer metric's value comes from.
pub enum Source {
    /// Median duration of the harness spans with this name, divided by
    /// this many nanoseconds per unit.
    Span(&'static str, f64),
    /// A count, share or derived value the workload or the probe sets.
    Value,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn span(
    name: &'static str,
    unit: &'static str,
    span: &'static str,
    ns_per_unit: f64,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Span(span, ns_per_unit),
    }
}

const fn value(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Value,
    }
}

const S: f64 = 1e9;
const MS: f64 = 1e6;
const US: f64 = 1e3;

/// One number per stage a request or a refresh crosses. Layer names are
/// the crate names.
pub const PER_LAYER: [PerLayer; 57] = [
    span("datagen.generate_s", "s", "datagen.generate", S),
    span("rdf.turtle_parse_us", "us", "rdf.turtle_parse", US),
    value("rdf.turtle_parse_mb_s", "MB/s", Better::Higher),
    span("web.publish_ms", "ms", "web.publish", MS),
    span("web.crawl_ms", "ms", "web.crawl", MS),
    span("web.refresh_ms", "ms", "web.refresh", MS),
    span("web.assemble_ms", "ms", "web.assemble", MS),
    value("web.refresh_changed_share", "ratio", Better::Lower),
    span("profiles.build_ms", "ms", "profiles.build", MS),
    value("profiles.slab_bytes", "B", Better::Lower),
    span("core.model_build_ms", "ms", "core.model_build", MS),
    span("core.request_us", "us", "core.request", US),
    span("core.similarity_us", "us", "core.similarity", US),
    span("core.rank_us", "us", "core.rank", US),
    span("core.vote_us", "us", "core.vote", US),
    span("core.advance_ms", "ms", "core.advance", MS),
    value("core.advance_reused_share", "ratio", Better::Higher),
    span("core.swap_plan_ms", "ms", "core.swap_plan", MS),
    value("core.swap_dirty_share", "ratio", Better::Lower),
    span("trust.neighborhood_us", "us", "trust.neighborhood", US),
    value("trust.nodes_explored", "count", Better::Lower),
    value("trust.iterations", "count", Better::Lower),
    value("trust.csr_bytes", "B", Better::Lower),
    span("serve.submit_us", "us", "serve.submit", US),
    span("serve.wait_hit_us", "us", "serve.wait_hit", US),
    span("serve.wait_miss_us", "us", "serve.wait_miss", US),
    value("serve.p99_us", "us", Better::Lower),
    span("serve.publish_us", "us", "serve.publish", US),
    value("serve.hit_share", "ratio", Better::Higher),
    value("serve.evictions", "count", Better::Lower),
    value("serve.carried", "count", Better::Higher),
    value("serve.invalidated", "count", Better::Lower),
    value("serve.wholesale_share", "ratio", Better::Lower),
    value("serve.pool_efficiency", "ratio", Better::Higher),
    span("store.checkpoint_ms", "ms", "store.checkpoint", MS),
    span(
        "store.snapshot_encode_ms",
        "ms",
        "store.snapshot_encode",
        MS,
    ),
    span(
        "store.snapshot_decode_ms",
        "ms",
        "store.snapshot_decode",
        MS,
    ),
    span("store.wal_append_us", "us", "store.wal_append", US),
    span("store.recover_ms", "ms", "store.recover", MS),
    value("store.wal_replay_ms", "ms", Better::Lower),
    span("store.first_answer_ms", "ms", "store.first_answer", MS),
    value("store.snapshot_bytes", "B", Better::Lower),
    value("store.wal_bytes", "B", Better::Lower),
    span("shard.partition_ms", "ms", "shard.partition", MS),
    value("shard.query_us", "us", Better::Lower),
    span("shard.advance_ms", "ms", "shard.advance", MS),
    value("shard.cut_share", "ratio", Better::Lower),
    value("shard.profiles_reused_share", "ratio", Better::Higher),
    value("obs.lookup_inc_ns", "ns", Better::Lower),
    value("obs.handle_inc_ns", "ns", Better::Lower),
    value("obs.trace_overhead_share", "ratio", Better::Lower),
    value("run.rps", "1/s", Better::Higher),
    value("run.p50_ms", "ms", Better::Lower),
    value("run.write_ms", "ms", Better::Lower),
    value("run.write_ms_q10", "ms", Better::Lower),
    value("harness.spans_dropped", "count", Better::Lower),
    value("harness.answers_checked", "count", Better::Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` must carry exactly the workloads and metrics of
    /// this file: the driver checks every run's output against it.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| file.get(key).unwrap().as_array().unwrap().to_vec();
        let text = |row: &Json, key: &str| row.get(key).unwrap().as_str().unwrap().to_owned();

        // The runner's list leaves out `cold_start`: its one timed figure
        // moves with the hour by more than the widest bound the runner allows.
        let workloads: Vec<String> = rows("workloads").iter().map(|r| text(r, "name")).collect();
        let listed = Workload::ALL
            .into_iter()
            .filter(|w| *w != Workload::ColdStart);
        assert_eq!(workloads, listed.map(Workload::name).collect::<Vec<_>>());

        let end_to_end = rows("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), metric.name);
            assert_eq!(text(row, "unit"), metric.unit);
            assert_eq!(text(row, "better"), metric.better.label());
        }
        let per_layer = rows("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), metric.name);
            assert_eq!(text(row, "unit"), metric.unit);
            assert_eq!(text(row, "better"), metric.better.label());
        }
    }
}
