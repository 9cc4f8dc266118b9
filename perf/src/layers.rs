//! Every call the benchmark makes into the program, one function per
//! public entry point, each under a harness span named `<crate>.<call>`.
//!
//! This is the only file that names the program's stage-level functions,
//! so when entry points are renamed or merged the benchmark is re-pointed
//! here and nowhere else. The end-to-end metrics depend only on
//! `Recommender::{new, recommend, advance}`, `Server`, `Store`,
//! `ShardedModel`, `crawl`/`refresh`/`CommunityBuilder` and
//! `generate_community`.
//!
//! Deliberately not called, because ROADMAP marks them for deletion:
//! `semrec_obs::global()` and the free `counter()`/`span()` helpers,
//! `run_load`/`run_open_loop`, `BoundedQueue`, `PipelineTrace`,
//! `TrustGraph`, `appleseed*`, `ShardedServeCache`, the v1 `Checkpoint`
//! encoder and the CLI subcommands.

use std::path::Path;
use std::sync::Arc;

use semrec::core::recommend::{novel_only, vote};
use semrec::core::{
    AdvanceStats, Community, ModelDelta, PeerScores, ProfileStore, RankContext, Recommendation,
    SourceHealth, SwapPlan,
};
use semrec::datagen::{generate_community, CommunityGenConfig};
use semrec::obs::{Counter, MetricsRegistry};
use semrec::profiles::ProfileParams;
use semrec::serve::{PublishReport, ServeConfig, ServeError, ServedResponse, Server, Ticket};
use semrec::shard::{GlobalId, HashShardFn, ShardBuildReport, ShardedAdvanceReport, ShardedModel};
use semrec::store::{decode_v2, encode_v2, CheckpointReport, Recovery, RestoredModel, Store};
use semrec::taxonomy::{Catalog, Taxonomy};
use semrec::trust::neighborhood::form_neighborhood_csr;
use semrec::web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig, CrawlResult};
use semrec::web::delta::CrawlDelta;
use semrec::web::publish::publish_community;
use semrec::web::store::DocumentWeb;
use semrec::web::ExtractedAgent;
use semrec::{AgentId, Recommender, RecommenderConfig};

use crate::trace::Tracer;

// ---- datagen ------------------------------------------------------------

pub fn generate(tr: &mut Tracer, config: &CommunityGenConfig) -> Community {
    tr.span("datagen.generate", |_| generate_community(config).community)
}

// ---- rdf ----------------------------------------------------------------

/// Parses one Turtle document; returns its triple count.
pub fn turtle_parse(tr: &mut Tracer, body: &str) -> usize {
    tr.span("rdf.turtle_parse", |_| {
        semrec::rdf::turtle::parse(body)
            .expect("published homepages are valid Turtle")
            .len()
    })
}

// ---- web ----------------------------------------------------------------

pub fn publish(tr: &mut Tracer, community: &Community, web: &DocumentWeb) -> usize {
    tr.span("web.publish", |_| publish_community(community, web))
}

pub fn crawl_web(
    tr: &mut Tracer,
    web: &DocumentWeb,
    seeds: &[String],
    config: &CrawlConfig,
) -> CrawlResult {
    tr.span("web.crawl", |_| crawl(web, seeds, config))
}

pub fn refresh_web(
    tr: &mut Tracer,
    web: &DocumentWeb,
    seeds: &[String],
    config: &CrawlConfig,
    previous: &CrawlResult,
) -> CrawlResult {
    tr.span("web.refresh", |_| refresh(web, seeds, config, previous))
}

/// Community assembly: fold `delta` (if any) into the standing view, then
/// build the community from it.
pub fn assemble(
    tr: &mut Tracer,
    builder: &mut CommunityBuilder,
    delta: Option<&CrawlDelta>,
    taxonomy: &Taxonomy,
    catalog: &Catalog,
) -> Community {
    tr.span("web.assemble", |_| {
        if let Some(delta) = delta {
            builder.apply_delta(delta);
        }
        builder.build(taxonomy.clone(), catalog.clone()).0
    })
}

// ---- profiles -----------------------------------------------------------

pub fn profiles_build(
    tr: &mut Tracer,
    community: &Community,
    params: &ProfileParams,
) -> ProfileStore {
    tr.span("profiles.build", |_| ProfileStore::build(community, params))
}

// ---- core ---------------------------------------------------------------

pub fn model_build(
    tr: &mut Tracer,
    community: Community,
    config: RecommenderConfig,
) -> Recommender {
    tr.span("core.model_build", |_| Recommender::new(community, config))
}

/// The direct, unserved request every served answer is checked against.
pub fn request(
    tr: &mut Tracer,
    engine: &Recommender,
    agent: AgentId,
    n: usize,
) -> Vec<Recommendation> {
    tr.span("core.request", |_| {
        engine.recommend(agent, n).expect("panel agents exist")
    })
}

pub fn advance(
    tr: &mut Tracer,
    engine: &Recommender,
    next: Community,
    delta: &ModelDelta,
    health: SourceHealth,
) -> (Recommender, AdvanceStats) {
    tr.span("core.advance", |_| engine.advance(next, delta, health))
}

pub fn swap_plan(
    tr: &mut Tracer,
    old: &Recommender,
    next: &Recommender,
    delta: &ModelDelta,
) -> SwapPlan {
    tr.span("core.swap_plan", |_| {
        SwapPlan::compute(
            old.community(),
            next.community(),
            delta,
            next.config().neighborhood.appleseed.max_range,
            SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
        )
    })
}

/// What the neighborhood stage of one replayed request explored.
pub struct Explored {
    pub nodes: usize,
    pub iterations: usize,
}

/// Replays one request through the public stage functions, in the order
/// `Recommender::recommend` runs them: neighborhood formation →
/// similarity → rank → vote. The result must equal the engine's answer.
pub fn replay(
    tr: &mut Tracer,
    engine: &Recommender,
    agent: AgentId,
    n: usize,
) -> (Vec<Recommendation>, Explored) {
    tr.span("replay.request", |tr| {
        let model = engine.shared();
        let config = model.config();
        let neighborhood = tr.span("trust.neighborhood", |_| {
            form_neighborhood_csr(model.trust_csr(), agent, &config.neighborhood)
                .expect("panel agents exist")
        });
        let peers: Vec<PeerScores> = tr.span("core.similarity", |_| {
            let target = model.profiles().profile(agent);
            neighborhood
                .normalized()
                .into_iter()
                .map(|(peer, trust)| PeerScores {
                    agent: peer,
                    trust,
                    similarity: config
                        .similarity
                        .apply(target, model.profiles().profile(peer)),
                })
                .collect()
        });
        let weighted: Vec<(AgentId, f64)> = tr.span("core.rank", |_| {
            let ctx = RankContext {
                target: agent,
                neighborhood: &neighborhood,
                peers: &peers,
                community: model.community(),
                profiles: model.profiles(),
                config,
            };
            model
                .ranker()
                .rank(&ctx)
                .into_iter()
                .map(|p| (p.agent, p.weight))
                .collect()
        });
        let recommendations = tr.span("core.vote", |_| {
            let mut recs = vote(model.community(), agent, &weighted, &config.voting);
            if config.novel_categories_only {
                recs = novel_only(model.community(), model.profiles().profile(agent), recs);
            }
            recs.truncate(n);
            recs
        });
        let explored = Explored {
            nodes: neighborhood.nodes_explored,
            iterations: neighborhood.iterations,
        };
        (recommendations, explored)
    })
}

// ---- serve --------------------------------------------------------------

pub fn server_start(engine: Recommender, config: ServeConfig, epoch: u64) -> Server {
    Server::start_at(engine, config, epoch)
}

pub fn submit(server: &Server, agent: AgentId, n: usize) -> Result<Ticket, ServeError> {
    server.submit(agent, n)
}

pub fn wait(ticket: Ticket) -> Result<ServedResponse, ServeError> {
    ticket.wait()
}

pub fn publish_delta(
    tr: &mut Tracer,
    server: &Server,
    engine: Recommender,
    plan: &SwapPlan,
) -> PublishReport {
    tr.span("serve.publish", |_| server.publish_delta(engine, plan))
}

// ---- store --------------------------------------------------------------

pub fn store_open(dir: &Path) -> Store {
    Store::open(dir).expect("scratch directory is writable")
}

pub fn checkpoint(
    tr: &mut Tracer,
    store: &Store,
    engine: &Recommender,
    view: &[ExtractedAgent],
    epoch: u64,
) -> CheckpointReport {
    tr.span("store.checkpoint", |_| {
        store
            .checkpoint(engine, view, epoch)
            .expect("scratch directory is writable")
    })
}

/// The snapshot encoder `Store::checkpoint` uses, without the file write.
pub fn snapshot_encode(
    tr: &mut Tracer,
    engine: &Recommender,
    view: &[ExtractedAgent],
    epoch: u64,
) -> Vec<u8> {
    tr.span("store.snapshot_encode", |_| encode_v2(engine, view, epoch))
}

/// The snapshot decoder `Store::recover` uses, without the file read.
pub fn snapshot_decode(tr: &mut Tracer, bytes: &[u8]) -> RestoredModel {
    tr.span("store.snapshot_decode", |_| {
        decode_v2(bytes).expect("own snapshot decodes")
    })
}

pub fn wal_append(tr: &mut Tracer, store: &Store, delta: &CrawlDelta, health: &SourceHealth) {
    tr.span("store.wal_append", |_| {
        store
            .append_delta(delta, health)
            .expect("scratch directory is writable");
    })
}

/// `name` tells a recovery that replays WAL records from one that finds
/// an empty log; their difference is the replay cost.
pub fn recover(tr: &mut Tracer, name: &'static str, store: &Store) -> Recovery {
    tr.span(name, |_| store.recover().expect("own store recovers"))
}

// ---- shard --------------------------------------------------------------

pub fn partition(
    tr: &mut Tracer,
    community: &Community,
    config: RecommenderConfig,
    shards: usize,
    threads: usize,
) -> (ShardedModel, ShardBuildReport) {
    tr.span("shard.partition", |_| {
        ShardedModel::partition(community, config, Arc::new(HashShardFn), shards, threads)
    })
}

pub fn shard_batch(
    tr: &mut Tracer,
    model: &ShardedModel,
    targets: &[GlobalId],
    n: usize,
) -> Vec<Vec<Recommendation>> {
    tr.span("shard.batch", |_| {
        model
            .recommend_batch(targets, n)
            .into_iter()
            .map(|r| r.expect("panel agents exist"))
            .collect()
    })
}

pub fn shard_advance(
    tr: &mut Tracer,
    model: &ShardedModel,
    next: &Community,
    delta: &ModelDelta,
) -> (ShardedModel, ShardedAdvanceReport) {
    tr.span("shard.advance", |_| model.advance(next, delta))
}

// ---- obs ----------------------------------------------------------------

/// An instance-owned registry with `names` counters registered.
pub fn obs_registry(names: &[String]) -> (MetricsRegistry, Vec<Counter>) {
    let registry = MetricsRegistry::new();
    let handles = names.iter().map(|name| registry.counter(name)).collect();
    (registry, handles)
}

/// Increments by string lookup, the way each request does it today.
pub fn obs_lookup_inc(registry: &MetricsRegistry, name: &str) {
    registry.counter(name).inc();
}

/// Increments a handle resolved once.
pub fn obs_handle_inc(handle: &Counter) {
    handle.inc();
}
