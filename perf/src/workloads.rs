//! The five workloads, and the layer probe that ends a traced run: the
//! runner asks every workload for every per-layer metric, so the probe
//! crosses, on the workload's own world, the layers the workload did not.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use semrec::core::{Community, ModelDelta, Recommendation, SourceHealth};
use semrec::datagen::Zipf;
use semrec::serve::{CacheStats, ServeConfig, Server};
use semrec::shard::{GlobalId, ShardedModel};
use semrec::store::Store;
use semrec::trust::appleseed::AppleseedParams;
use semrec::trust::neighborhood::NeighborhoodParams;
use semrec::web::publish::homepage_uri;
use semrec::{AgentId, Recommender, RecommenderConfig};

use crate::check::{identical, verify, within_shard_epsilon};
use crate::layers;
use crate::load::{run_clients, Client, Traffic, CLIENTS};
use crate::metrics::Workload;
use crate::run::Ctx;
use crate::stats::{median, quantile};
use crate::world::{Deployment, Round, World};

/// Server worker threads; with [`CLIENTS`] blocked in `Ticket::wait` the
/// runnable threads never exceed the two cores of the recorded host.
pub const WORKERS: usize = 2;
/// Length of every recommendation list asked for.
pub const TOP_N: usize = 10;
/// Shards and compute threads of the partitioned model.
pub const SHARDS: usize = 4;
pub const SHARD_THREADS: usize = 2;
/// WAL records a cold start replays.
pub const WAL_RECORDS: usize = 3;

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        cache_capacity,
        ..ServeConfig::default()
    }
}

/// `count` agent ids spread evenly over `0..agents`.
fn strided(agents: usize, count: usize) -> Vec<AgentId> {
    let count = count.clamp(1, agents);
    (0..count)
        .map(|i| AgentId::from_index(i * agents / count))
        .collect()
}

/// 0.5 % of the agents republish per refresh round, at least one.
fn churn_size(world: &World) -> usize {
    (world.agents() / 200).max(1)
}

/// What a workload leaves for the layer probe.
struct Kept {
    engine: Recommender,
    deployment: Option<Deployment>,
}

pub fn run(ctx: &mut Ctx, world: &mut World) {
    let kept = match ctx.opts.workload {
        Workload::ServeHot => serve_static(ctx, world, &HOT),
        Workload::ServeCold => serve_static(ctx, world, &COLD),
        Workload::ServeRefresh => serve_refresh(ctx, world),
        Workload::ColdStart => cold_start(ctx, world),
        Workload::ShardBatch => shard_batch(ctx, world),
    };
    if ctx.opts.traced {
        probe(ctx, world, kept);
    }
}

// ---- serve_hot and serve_cold --------------------------------------------

/// A server over one fixed model generation.
struct Static {
    /// Agents the clients ask for, strided over the community (at most
    /// all of them).
    panel: usize,
    /// Zipf exponent over the panel; `None` = uniform.
    zipf: Option<f64>,
    cache: usize,
    burst: usize,
    /// Answer every panel agent once in set-up, so the run starts hot.
    warm: bool,
    /// Set-up repetitions; each gives `write_ms` one sample.
    reps: usize,
    /// Requests of one client in one slice (about half a second), and in
    /// one slice of a `--smoke` run.
    slice: usize,
    smoke_slice: usize,
    trace_every: u64,
    latency_every: u64,
    /// Distinct agents recomputed per slice for the answer check.
    verify: usize,
}

const HOT: Static = Static {
    panel: 256,
    zipf: Some(1.1),
    cache: 4096,
    burst: 16,
    warm: true,
    reps: 5,
    slice: 100_000,
    smoke_slice: 10_000,
    trace_every: 32,
    latency_every: 17,
    verify: 6,
};
const COLD: Static = Static {
    panel: usize::MAX,
    zipf: None,
    cache: 0,
    burst: 1,
    warm: false,
    reps: 9,
    slice: 30,
    smoke_slice: 8,
    trace_every: 1,
    latency_every: 1,
    verify: 2,
};

/// Answers `agents` once each, `WORKERS` bursts in flight.
fn warm(server: &Server, agents: &[AgentId]) {
    for burst in agents.chunks(8 * WORKERS) {
        let tickets: Vec<_> = burst
            .iter()
            .map(|&agent| layers::submit(server, agent, TOP_N).expect("warm-up fits the queue"))
            .collect();
        for ticket in tickets {
            layers::wait(ticket).expect("warm-up request is answered");
        }
    }
}

fn new_clients(ctx: &Ctx, first: usize) -> Vec<Client> {
    (first..first + CLIENTS)
        .map(|i| Client::new(ctx.opts.seed, i, &ctx.tr))
        .collect()
}

fn answered(clients: &[Client]) -> u64 {
    clients.iter().map(|c| c.answered).sum()
}

/// The median latency in milliseconds of what the clients recorded since
/// `marks` (one per client), which it moves to the end of their logs.
fn slice_median_ms(clients: &[Client], marks: &mut [usize]) -> f64 {
    let mut fresh = Vec::new();
    for (client, mark) in clients.iter().zip(marks) {
        fresh.extend(
            client.latencies_ns[*mark..]
                .iter()
                .map(|&ns| f64::from(ns) / 1e6),
        );
        *mark = client.latencies_ns.len();
    }
    median(&mut fresh)
}

/// Checks the answers the clients kept since the last call, against the
/// engine of the one generation they were served from.
fn check_samples(
    ctx: &mut Ctx,
    engine: &Recommender,
    epoch: u64,
    clients: &mut [Client],
    budget: usize,
) {
    let samples: Vec<_> = clients
        .iter_mut()
        .flat_map(|c| c.samples.drain(..))
        .collect();
    let verdict = verify(&mut ctx.tr, engine, epoch, &samples, budget, TOP_N);
    ctx.judge(verdict);
}

/// Ends a serving workload's timed phase: the read latency from the
/// slices' medians and every latency the clients kept, and what
/// [`finish_clients`] reports.
fn report_clients(
    ctx: &mut Ctx,
    server: &Server,
    clients: Vec<Client>,
    cache_before: CacheStats,
    mut slice_medians_ms: Vec<f64>,
) {
    let mut latencies_ms = finish_clients(ctx, server, clients, cache_before);
    ctx.latencies(
        "request latency, submit to response",
        &mut slice_medians_ms,
        &mut latencies_ms,
    );
}

/// Folds the clients' logs and spans into the run's: counts, the tail
/// latency and the cache's share of the work since `cache_before`.
/// Returns the latencies in milliseconds.
fn finish_clients(
    ctx: &mut Ctx,
    server: &Server,
    clients: Vec<Client>,
    cache_before: CacheStats,
) -> Vec<f64> {
    let seen_failed: u64 = clients.iter().map(|c| c.failed).sum();
    ctx.attempted += clients.iter().map(|c| c.attempted).sum::<u64>();
    // The server's own counts must not show a loss the clients missed.
    let stats = server.stats();
    ctx.failed += seen_failed.max(stats.shed() + stats.failed);
    let unrecorded: u64 = clients.iter().map(|c| c.latencies_dropped).sum();
    if unrecorded > 0 {
        ctx.tails.push(format!(
            "{unrecorded} latencies beyond the clients' buffers were not recorded"
        ));
    }

    let mut latencies_ms: Vec<f64> = clients
        .iter()
        .flat_map(|c| &c.latencies_ns)
        .map(|&ns| f64::from(ns) / 1e6)
        .collect();
    for client in clients {
        ctx.tr.absorb(client.tr);
    }
    ctx.value(
        "serve.p99_us",
        quantile(&mut latencies_ms, 0.99) * 1e3,
        latencies_ms.len(),
    );

    let cache = server.cache_stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    let lookups = (hits + misses).max(1);
    ctx.value(
        "serve.hit_share",
        hits as f64 / lookups as f64,
        lookups as usize,
    );
    ctx.value(
        "serve.evictions",
        (cache.evictions - cache_before.evictions) as f64,
        1,
    );
    latencies_ms
}

fn serve_static(ctx: &mut Ctx, world: &mut World, p: &Static) -> Kept {
    let mut builds_ms = Vec::new();
    let (engine, server, panel) = ctx.set_up(world, p.reps, |ctx, world| {
        // The write side of a server without a refresh path: build the
        // model from scratch and start serving it.
        let community = world.source.clone();
        let started = Instant::now();
        let engine = layers::model_build(&mut ctx.tr, community, RecommenderConfig::default());
        let server = layers::server_start(engine.clone(), serve_config(p.cache), 1);
        builds_ms.push(ms_since(started));
        let panel = strided(world.agents(), p.panel);
        if p.warm {
            warm(&server, &panel);
        }
        (engine, server, panel)
    });

    let zipf = p.zipf.map(|s| Zipf::new(panel.len(), s));
    let traffic = Traffic {
        panel: &panel,
        zipf: zipf.as_ref(),
        burst: p.burst,
        top_n: TOP_N,
        trace_every: p.trace_every,
        latency_every: p.latency_every,
    };
    let per_client = if ctx.opts.smoke {
        p.smoke_slice
    } else {
        p.slice
    };
    let mut clients = new_clients(ctx, 0);
    let cache_before = server.cache_stats();
    let (mut marks, mut medians_ms) = ([0; CLIENTS], Vec::new());
    ctx.slices(6, |ctx| {
        let before = answered(&clients);
        let wall = run_clients(
            &server,
            &mut clients,
            &traffic,
            per_client,
            ctx.tr.enabled(),
        );
        let served = answered(&clients) - before;
        medians_ms.push(slice_median_ms(&clients, &mut marks));
        check_samples(ctx, &engine, 1, &mut clients, p.verify);
        (served, wall)
    });
    ctx.writes(&mut builds_ms);
    report_clients(ctx, &server, clients, cache_before, medians_ms);
    Kept {
        engine,
        deployment: None,
    }
}

// ---- serve_refresh ---------------------------------------------------------

/// A hop bound of 2 keeps a small delta's reverse-trust closure a small
/// share of the community, so the swap carries cache entries; at the
/// default range every delta dirties every agent and swaps wholesale.
fn refresh_config() -> RecommenderConfig {
    let default = NeighborhoodParams::default();
    RecommenderConfig {
        neighborhood: NeighborhoodParams {
            appleseed: AppleseedParams {
                max_range: Some(2),
                ..default.appleseed
            },
            ..default
        },
        ..RecommenderConfig::default()
    }
}

/// Cache entries of the refresh workload: a quarter of its working set.
const REFRESH_CACHE: usize = 256;
const REFRESH_BURST: usize = 16;

/// Requests each client keeps in flight, per serving workload.
pub fn bursts() -> [(&'static str, usize); 3] {
    [
        ("serve_hot", HOT.burst),
        ("serve_cold", COLD.burst),
        ("serve_refresh", REFRESH_BURST),
    ]
}

/// Per-round readings of the refresh stages, folded into per-layer values.
#[derive(Default)]
struct Rounds {
    changed: Vec<f64>,
    reused: Vec<f64>,
    dirty: Vec<f64>,
    carried: u64,
    invalidated: u64,
    wholesale: u64,
    swaps: u64,
}

impl Rounds {
    fn push(&mut self, round: &Round) {
        self.changed.push(round.changed_share);
        self.reused.push(round.reused_share);
        if let Some((dirty, report)) = round.swap {
            self.dirty.push(dirty);
            self.carried += report.carried as u64;
            self.invalidated += report.invalidated as u64;
            self.wholesale += u64::from(report.wholesale);
            self.swaps += 1;
        }
    }

    fn report(mut self, ctx: &mut Ctx) {
        let n = self.changed.len();
        ctx.value("web.refresh_changed_share", median(&mut self.changed), n);
        ctx.value("core.advance_reused_share", median(&mut self.reused), n);
        if self.swaps > 0 {
            ctx.value("core.swap_dirty_share", median(&mut self.dirty), n);
            ctx.value("serve.carried", self.carried as f64, n);
            ctx.value("serve.invalidated", self.invalidated as f64, n);
            ctx.value(
                "serve.wholesale_share",
                self.wholesale as f64 / self.swaps as f64,
                n,
            );
        }
    }
}

fn serve_refresh(ctx: &mut Ctx, world: &mut World) -> Kept {
    let (mut dep, server) = ctx.set_up(world, 7, |ctx, world| {
        let dep = Deployment::build(&mut ctx.tr, world, refresh_config());
        let server = layers::server_start(dep.engine.clone(), serve_config(REFRESH_CACHE), 1);
        // Fill the cache with the most popular agents: rank i of the Zipf
        // law is agent i.
        let agents = dep.engine.community().agent_count();
        warm(
            &server,
            &strided(agents, agents)[..REFRESH_CACHE.min(agents)],
        );
        (dep, server)
    });

    let agents = dep.engine.community().agent_count();
    let panel = strided(agents, agents);
    let zipf = Zipf::new(panel.len(), 1.1);
    let traffic = Traffic {
        panel: &panel,
        zipf: Some(&zipf),
        burst: REFRESH_BURST,
        top_n: TOP_N,
        trace_every: 1,
        latency_every: 1,
    };
    let per_client = if ctx.opts.smoke { 50 } else { 500 };
    let churn = churn_size(world);
    let mut clients = new_clients(ctx, 0);
    let cache_before = server.cache_stats();
    let mut refresh_ms = Vec::new();
    let mut rounds = Rounds::default();
    let (mut marks, mut medians_ms) = ([0; CLIENTS], Vec::new());
    // One round per slice.
    ctx.slices(40, |ctx| {
        let changed = world.churn(&mut ctx.churn_rng, churn);
        dep.republish(world, &changed);
        let epoch = server.epoch();
        let started = Instant::now();
        let round = dep.refresh_round(&mut ctx.tr, world, Some(&server), None);
        refresh_ms.push(ms_since(started));
        ctx.operation(server.epoch() == epoch + 1 && !round.health.is_degraded());
        rounds.push(&round);
        drop(round);

        let before = answered(&clients);
        let busy = run_clients(
            &server,
            &mut clients,
            &traffic,
            per_client,
            ctx.tr.enabled(),
        );
        medians_ms.push(slice_median_ms(&clients, &mut marks));
        check_samples(ctx, &dep.engine, epoch + 1, &mut clients, 4);
        (answered(&clients) - before, busy)
    });
    ctx.writes(&mut refresh_ms);
    rounds.report(ctx);
    report_clients(ctx, &server, clients, cache_before, medians_ms);
    Kept {
        engine: dep.engine.clone(),
        deployment: Some(dep),
    }
}

// ---- cold_start ------------------------------------------------------------

/// A checkpointed deployment: the store a cold start recovers from, its
/// twin with an empty log, and a store that only takes checkpoints.
struct StoreBench {
    recovering: PathBuf,
    empty_log: PathBuf,
    writing: Store,
    /// The serve epoch after the WAL records: snapshot epoch + records.
    epoch: u64,
    /// Agents on which each recovered engine must equal the live one,
    /// checked eight per cold start in rotation.
    panel: Vec<AgentId>,
    expected: BTreeMap<AgentId, Vec<Recommendation>>,
    cursor: usize,
}

impl StoreBench {
    /// Checkpoints `dep`, then runs [`WAL_RECORDS`] refresh rounds that
    /// each append their delta to the log.
    fn seed(ctx: &mut Ctx, world: &mut World, dep: &mut Deployment, dir: &Path) -> StoreBench {
        let _ = std::fs::remove_dir_all(dir);
        let recovering = dir.join("recovering");
        let empty_log = dir.join("empty-log");
        for path in [&recovering, &empty_log] {
            layers::checkpoint(
                &mut ctx.tr,
                &layers::store_open(path),
                &dep.engine,
                dep.builder.agents(),
                1,
            );
        }
        let store = layers::store_open(&recovering);
        let churn = churn_size(world);
        for _ in 0..WAL_RECORDS {
            let changed = world.churn(&mut ctx.churn_rng, churn);
            dep.republish(world, &changed);
            dep.refresh_round(&mut ctx.tr, world, None, Some(&store));
        }
        let agents = dep.engine.community().agent_count();
        StoreBench {
            recovering,
            empty_log,
            writing: layers::store_open(&dir.join("writing")),
            epoch: 1 + WAL_RECORDS as u64,
            panel: strided(agents, 32),
            expected: BTreeMap::new(),
            cursor: 0,
        }
    }

    fn expected(
        &mut self,
        ctx: &mut Ctx,
        live: &Recommender,
        agent: AgentId,
    ) -> Vec<Recommendation> {
        self.expected
            .entry(agent)
            .or_insert_with(|| layers::request(&mut ctx.tr, live, agent, TOP_N))
            .clone()
    }

    /// `Store::open` → `recover` → `Server::start_at` → first answered
    /// request; returns the wall time in milliseconds.
    fn cold_start(&mut self, ctx: &mut Ctx, live: &Recommender) -> f64 {
        let first = self.panel[0];
        let started = Instant::now();
        let (recovery, server, response) = ctx.tr.span("store.cold_start", |tr| {
            let store = layers::store_open(&self.recovering);
            let recovery = layers::recover(tr, "store.recover", &store);
            let (server, response) = tr.span("store.first_answer", |_| {
                let server = layers::server_start(
                    recovery.engine.clone(),
                    serve_config(REFRESH_CACHE),
                    recovery.epoch,
                );
                let response = layers::submit(&server, first, TOP_N).and_then(layers::wait);
                (server, response)
            });
            (recovery, server, response)
        });
        let elapsed_ms = ms_since(started);
        drop(server);

        let mut ok = recovery.replayed == WAL_RECORDS
            && recovery.epoch == self.epoch
            && !recovery.degraded();
        let want = self.expected(ctx, live, first);
        ok &= response.is_ok_and(|r| r.epoch == self.epoch && identical(&r.recommendations, &want));
        for _ in 0..8 {
            let agent = self.panel[self.cursor % self.panel.len()];
            self.cursor += 1;
            let want = self.expected(ctx, live, agent);
            ok &= identical(
                &layers::request(&mut ctx.tr, &recovery.engine, agent, TOP_N),
                &want,
            );
            ctx.checked += 1;
        }
        ctx.operation(ok);
        elapsed_ms
    }

    /// One `Store::checkpoint` of the live model into a store that holds
    /// nothing else; returns the wall time in milliseconds.
    fn checkpoint(&mut self, ctx: &mut Ctx, dep: &Deployment) -> f64 {
        let started = Instant::now();
        let report = layers::checkpoint(
            &mut ctx.tr,
            &self.writing,
            &dep.engine,
            dep.builder.agents(),
            self.epoch,
        );
        let elapsed_ms = ms_since(started);
        let written = self.writing.snapshot_bytes().unwrap_or(0);
        ctx.operation(report.snapshot_bytes > 0 && written == report.snapshot_bytes);
        // Keep the store at one generation so every call does equal work.
        let _ = std::fs::remove_file(&report.path);
        let _ = std::fs::remove_file(self.writing.wal_path(report.seq));
        elapsed_ms
    }

    /// The parts of a cold start and of a checkpoint, timed apart:
    /// recovery over an empty log, and the codec without the file system.
    fn decompose(&mut self, ctx: &mut Ctx, dep: &Deployment) {
        let recovery = layers::recover(
            &mut ctx.tr,
            "store.recover_empty",
            &layers::store_open(&self.empty_log),
        );
        let bytes = layers::snapshot_encode(&mut ctx.tr, &recovery.engine, dep.builder.agents(), 1);
        let restored = layers::snapshot_decode(&mut ctx.tr, &bytes);
        let agent = self.panel[0];
        let ok = recovery.replayed == 0
            && identical(
                &layers::request(&mut ctx.tr, &restored.engine, agent, TOP_N),
                &layers::request(&mut ctx.tr, &recovery.engine, agent, TOP_N),
            );
        ctx.operation(ok);
    }

    /// Sizes, and the replay cost as the difference of the two recoveries.
    fn report(&self, ctx: &mut Ctx) {
        let store = layers::store_open(&self.recovering);
        ctx.value(
            "store.snapshot_bytes",
            store.snapshot_bytes().unwrap_or(0) as f64,
            1,
        );
        ctx.value("store.wal_bytes", store.wal_bytes().unwrap_or(0) as f64, 1);
        let mut full = ctx.tr.durations_ns("store.recover");
        let mut empty = ctx.tr.durations_ns("store.recover_empty");
        if !full.is_empty() && !empty.is_empty() {
            let n = full.len().min(empty.len());
            ctx.value(
                "store.wal_replay_ms",
                (median(&mut full) - median(&mut empty)) / 1e6,
                n,
            );
        }
    }
}

fn cold_start(ctx: &mut Ctx, world: &mut World) -> Kept {
    let dir = ctx.scratch.join("store");
    let (dep, mut bench) = ctx.set_up(world, 1, |ctx, world| {
        let mut dep = Deployment::build(&mut ctx.tr, world, RecommenderConfig::default());
        let bench = StoreBench::seed(ctx, world, &mut dep, &dir);
        (dep, bench)
    });
    let live = dep.engine.clone();
    let (mut starts_ms, mut checkpoints_ms) = (Vec::new(), Vec::new());
    // One cold start and two checkpoints per slice: a checkpoint waits for
    // the disk, so its median needs the more samples.
    ctx.slices(4, |ctx| {
        let ms = bench.cold_start(ctx, &live);
        starts_ms.push(ms);
        for _ in 0..2 {
            checkpoints_ms.push(bench.checkpoint(ctx, &dep));
        }
        if ctx.tr.enabled() {
            bench.decompose(ctx, &dep);
        }
        (1, Duration::from_secs_f64(ms / 1e3))
    });
    // One start per slice: the slices' medians are the samples.
    ctx.latencies(
        "cold start, Store::open to first response",
        &mut starts_ms.clone(),
        &mut starts_ms,
    );
    ctx.writes(&mut checkpoints_ms);
    bench.report(ctx);
    Kept {
        engine: live,
        deployment: Some(dep),
    }
}

// ---- shard_batch -----------------------------------------------------------

/// The configuration under which `tests/proptest_sharding.rs` pins the
/// partitioned model to the monolith within an epsilon: no node cap (a
/// per-shard cap is the one deliberate divergence) and a near-fixpoint
/// convergence threshold.
fn shard_config() -> RecommenderConfig {
    RecommenderConfig {
        neighborhood: NeighborhoodParams {
            appleseed: AppleseedParams {
                convergence: 1e-9,
                max_nodes: None,
                ..AppleseedParams::default()
            },
            ..NeighborhoodParams::default()
        },
        ..RecommenderConfig::default()
    }
}

/// Agents of one `recommend_batch` call. Under [`shard_config`] a query
/// walks the whole community to a near-fixpoint, four times the work of
/// one under the default node cap; twelve make a batch of half a second,
/// so a run holds enough batches to set the disturbed ones aside.
const SHARD_PANEL: usize = 12;

struct ShardBench {
    model: ShardedModel,
    /// The community after a 1 % rating delta, and that delta.
    next: Community,
    delta: ModelDelta,
    panel: Vec<GlobalId>,
    cut_share: f64,
}

impl ShardBench {
    fn build(
        ctx: &mut Ctx,
        community: &Community,
        config: RecommenderConfig,
        panel: usize,
    ) -> ShardBench {
        let (model, report) =
            layers::partition(&mut ctx.tr, community, config, SHARDS, SHARD_THREADS);
        let agents = community.agent_count();
        let changed = strided(agents, (agents / 100).max(1));
        let products: Vec<_> = community.catalog.iter().collect();
        let mut next = community.clone();
        let mut uris = Vec::new();
        for (k, &agent) in changed.iter().enumerate() {
            next.set_rating(agent, products[k % products.len()], 0.5)
                .expect("generated ids exist");
            uris.push(next.agent(agent).expect("generated id").uri.clone());
        }
        ShardBench {
            model,
            next,
            delta: ModelDelta {
                ratings_changed: uris,
                trust_changed: Vec::new(),
            },
            panel: strided(agents, panel)
                .into_iter()
                .map(|a| GlobalId(a.index() as u32))
                .collect(),
            cut_share: report.cut_fraction(),
        }
    }

    /// One `recommend_batch` over the panel; returns its wall time in
    /// milliseconds and the lists.
    fn batch(&self, ctx: &mut Ctx) -> (f64, Vec<Vec<Recommendation>>) {
        let started = Instant::now();
        let lists = layers::shard_batch(&mut ctx.tr, &self.model, &self.panel, TOP_N);
        (ms_since(started), lists)
    }

    /// One `ShardedModel::advance` over the 1 % delta; returns its wall
    /// time in milliseconds, the share of profiles reused and the model.
    fn advance(&self, ctx: &mut Ctx) -> (f64, f64, ShardedModel) {
        let started = Instant::now();
        let (model, report) =
            layers::shard_advance(&mut ctx.tr, &self.model, &self.next, &self.delta);
        let elapsed_ms = ms_since(started);
        let profiles = (report.profiles_reused + report.profiles_recomputed).max(1);
        (
            elapsed_ms,
            report.profiles_reused as f64 / profiles as f64,
            model,
        )
    }

    fn report(&self, ctx: &mut Ctx, mut batches_ms: Vec<f64>, mut reused: Vec<f64>) {
        let n = batches_ms.len();
        ctx.value(
            "shard.query_us",
            median(&mut batches_ms) * 1e3 / self.panel.len() as f64,
            n,
        );
        ctx.value("shard.cut_share", self.cut_share, 1);
        ctx.value(
            "shard.profiles_reused_share",
            median(&mut reused),
            reused.len(),
        );
    }
}

fn shard_batch(ctx: &mut Ctx, world: &mut World) -> Kept {
    let config = shard_config();
    let panel = if ctx.opts.smoke { 8 } else { SHARD_PANEL };
    let bench = ctx.set_up(world, 7, |ctx, world| {
        ShardBench::build(ctx, &world.source, config, panel)
    });
    // The monolith every sharded list is compared with.
    let reference = layers::model_build(&mut ctx.tr, world.source.clone(), config);
    let mut expected: BTreeMap<GlobalId, Vec<Recommendation>> = BTreeMap::new();

    let (mut batches_ms, mut advances_ms, mut reused) = (Vec::new(), Vec::new(), Vec::new());
    let mut advanced = None;
    // One batch and one advance per slice.
    ctx.slices(6, |ctx| {
        let (ms, lists) = bench.batch(ctx);
        batches_ms.push(ms);
        // A direct answer costs as much as a query: each batch adds two
        // agents to those it is compared on.
        let known = expected.len();
        for &agent in bench.panel.iter().skip(known).take(2) {
            let direct = layers::request(
                &mut ctx.tr,
                &reference,
                AgentId::from_index(agent.0 as usize),
                TOP_N,
            );
            expected.insert(agent, direct);
        }
        for (agent, list) in bench.panel.iter().zip(&lists) {
            let want = expected.get(agent);
            ctx.checked += u64::from(want.is_some());
            ctx.operation(want.is_none_or(|want| within_shard_epsilon(want, list)));
        }

        let (advance_ms, share, model) = bench.advance(ctx);
        advances_ms.push(advance_ms);
        reused.push(share);
        advanced = Some(model);
        ctx.operation(true);
        (lists.len() as u64, Duration::from_secs_f64(ms / 1e3))
    });

    // The advanced model must equal the monolith advanced the same way.
    let model = advanced.expect("at least one advance ran");
    let (after, _) = layers::advance(
        &mut ctx.tr,
        &reference,
        bench.next.clone(),
        &bench.delta,
        SourceHealth::default(),
    );
    let spot: Vec<GlobalId> = bench.panel.iter().copied().take(4).collect();
    let lists = layers::shard_batch(&mut ctx.tr, &model, &spot, TOP_N);
    let ok = spot.iter().zip(&lists).all(|(agent, list)| {
        let want = layers::request(
            &mut ctx.tr,
            &after,
            AgentId::from_index(agent.0 as usize),
            TOP_N,
        );
        within_shard_epsilon(&want, list)
    });
    ctx.checked += spot.len() as u64;
    ctx.operation(ok);

    ctx.latencies(
        "recommend_batch call, one panel",
        &mut batches_ms.clone(),
        &mut batches_ms,
    );
    ctx.writes(&mut advances_ms);
    bench.report(ctx, batches_ms, reused);
    Kept {
        engine: reference,
        deployment: None,
    }
}

// ---- the layer probe -------------------------------------------------------

/// Crosses every layer on the workload's own world with small fixed
/// counts, skipping what the workload's timed phase ran itself. A metric
/// read here tells what a layer costs at this world's size; it stands only
/// where the workload reported none of its own.
fn probe(ctx: &mut Ctx, world: &mut World, kept: Kept) {
    let own = ctx.opts.workload;
    let Kept { engine, deployment } = kept;
    probe_obs(ctx);
    probe_stages(ctx, &engine);

    // rdf and web: the decentralized path, if set-up did not take it.
    let mut dep =
        deployment.unwrap_or_else(|| Deployment::build(&mut ctx.tr, world, *engine.config()));
    let (mut bytes, mut parse_ns) = (0usize, 0u64);
    let sampled = strided(world.agents(), 200);
    for &agent in &sampled {
        let document = dep
            .web
            .fetch(&homepage_uri(&world.seeds[agent.index()]))
            .expect("homepage is published");
        let started = Instant::now();
        layers::turtle_parse(&mut ctx.tr, &document.body);
        parse_ns += started.elapsed().as_nanos() as u64;
        bytes += document.body.len();
    }
    ctx.value(
        "rdf.turtle_parse_mb_s",
        bytes as f64 / 1e6 / (parse_ns as f64 / 1e9),
        sampled.len(),
    );

    if own != Workload::ServeRefresh {
        probe_serve(ctx, world, &mut dep);
    }
    let mut request = ctx.tr.durations_ns("core.request");
    let mut miss = ctx.tr.durations_ns("serve.wait_miss");
    let mut submit = ctx.tr.durations_ns("serve.submit");
    // Direct compute time over what a client of the pool waits for a miss.
    ctx.value(
        "serve.pool_efficiency",
        median(&mut request) / (median(&mut submit) + median(&mut miss)),
        miss.len(),
    );

    if own != Workload::ColdStart {
        let dir = ctx.scratch.join("probe-store");
        let mut bench = StoreBench::seed(ctx, world, &mut dep, &dir);
        let live = dep.engine.clone();
        for _ in 0..2 {
            bench.cold_start(ctx, &live);
            bench.checkpoint(ctx, &dep);
            bench.decompose(ctx, &dep);
        }
        bench.report(ctx);
    }

    if own != Workload::ShardBatch {
        let bench = ShardBench::build(ctx, dep.engine.community(), *engine.config(), 16);
        let (mut batches_ms, mut reused) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let (ms, lists) = bench.batch(ctx);
            batches_ms.push(ms);
            ctx.operation(lists.len() == bench.panel.len());
            reused.push(bench.advance(ctx).1);
        }
        bench.report(ctx, batches_ms, reused);
    }
}

/// obs: a counter reached by name against one resolved once.
fn probe_obs(ctx: &mut Ctx) {
    const INCREMENTS: usize = 200_000;
    let names: Vec<String> = (0..64)
        .map(|i| format!("probe.layer{}.counter{i}", i % 8))
        .collect();
    let (registry, handles) = layers::obs_registry(&names);
    let started = Instant::now();
    for i in 0..INCREMENTS {
        layers::obs_lookup_inc(&registry, &names[i % names.len()]);
    }
    ctx.value(
        "obs.lookup_inc_ns",
        started.elapsed().as_nanos() as f64 / INCREMENTS as f64,
        INCREMENTS,
    );
    let started = Instant::now();
    for i in 0..INCREMENTS {
        layers::obs_handle_inc(&handles[i % handles.len()]);
    }
    ctx.value(
        "obs.handle_inc_ns",
        started.elapsed().as_nanos() as f64 / INCREMENTS as f64,
        INCREMENTS,
    );
    ctx.operation(handles.iter().map(|h| h.get()).sum::<u64>() == 2 * INCREMENTS as u64);
}

/// core and trust: a fixed panel replayed stage by stage, so the
/// explored-node and iteration counts repeat exactly.
fn probe_stages(ctx: &mut Ctx, engine: &Recommender) {
    let (mut nodes, mut iterations) = (0, 0);
    let replayed = strided(engine.community().agent_count(), 16);
    for &agent in &replayed {
        let direct = layers::request(&mut ctx.tr, engine, agent, TOP_N);
        let (staged, explored) = layers::replay(&mut ctx.tr, engine, agent, TOP_N);
        nodes += explored.nodes;
        iterations += explored.iterations;
        ctx.checked += 1;
        ctx.operation(identical(&direct, &staged));
    }
    ctx.value("trust.nodes_explored", nodes as f64, replayed.len());
    ctx.value("trust.iterations", iterations as f64, replayed.len());
    ctx.value(
        "trust.csr_bytes",
        engine.shared().trust_csr().resident_bytes() as f64,
        1,
    );
    ctx.value(
        "profiles.slab_bytes",
        engine.profiles().resident_bytes() as f64,
        1,
    );
    layers::profiles_build(&mut ctx.tr, engine.community(), &engine.config().profile);
}

/// serve, and the refresh stages: misses, then the same agents as hits,
/// then refresh rounds published to the same server.
fn probe_serve(ctx: &mut Ctx, world: &mut World, dep: &mut Deployment) {
    let server = layers::server_start(dep.engine.clone(), serve_config(REFRESH_CACHE), 1);
    let panel = strided(world.agents(), 32);
    let traffic = Traffic {
        panel: &panel,
        zipf: None,
        burst: 1,
        top_n: TOP_N,
        trace_every: 1,
        latency_every: 1,
    };
    // Lanes of their own: the workload's clients have used the first.
    let mut clients = new_clients(ctx, CLIENTS);
    let cache_before = server.cache_stats();
    for _ in 0..4 {
        run_clients(&server, &mut clients, &traffic, 32, true);
    }
    check_samples(ctx, &dep.engine, 1, &mut clients, 2);
    finish_clients(ctx, &server, clients, cache_before);

    let churn = churn_size(world);
    let mut rounds = Rounds::default();
    for _ in 0..3 {
        let changed = world.churn(&mut ctx.churn_rng, churn);
        dep.republish(world, &changed);
        let round = dep.refresh_round(&mut ctx.tr, world, Some(&server), None);
        ctx.operation(!round.health.is_degraded());
        rounds.push(&round);
    }
    rounds.report(ctx);
}
