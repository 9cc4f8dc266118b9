//! The sharded model: per-shard communities, profiles, and the
//! recommendation pipeline over the partitioned universe.
//!
//! A [`ShardedModel`] is the sharded counterpart of `semrec-core`'s
//! `SharedModel`: every agent lives on exactly one shard, which owns its
//! ratings, its outgoing trust statements, and its materialized taxonomy
//! profile. Trust spreading runs through the cross-shard protocol in
//! [`crate::appleseed`]; the rest of the pipeline (normalization, rank
//! synthesization, voting, novelty filtering) mirrors the unsharded engine
//! statement for statement, keyed by stable [`GlobalId`] ordinals so that
//! a single-shard model is byte-identical to the unsharded one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use semrec_core::recommend::{novel_only, vote_by};
use semrec_core::synthesis::{synthesize, PeerScores};
use semrec_core::{
    AdvanceStats, AgentId, Community, ModelDelta, ProfileStore, Recommendation,
    RecommenderConfig, Result,
};
use semrec_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use semrec_profiles::ProfileView;
use semrec_trust::{neighborhood::normalize, TrustError};

use crate::appleseed::{sharded_appleseed, ShardedAppleseedResult};
use crate::partition::{cut_edges, Directory, GlobalId, ShardFn};

/// Where an out-star edge lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    /// The trustee lives on the same shard.
    Local(AgentId),
    /// The trustee lives on another shard (a *boundary* edge), as an index
    /// into the shard's ghost table.
    Remote {
        /// Index into [`Shard::ghosts`].
        ghost: u32,
    },
}

/// A distinct agent on another shard that this shard's out-stars reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ghost {
    /// Owning shard index.
    pub shard: u32,
    /// The agent's local index on that shard.
    pub local: u32,
}

/// Where a trustee lives, before a shard's boundary is frozen into ghosts.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Trustee {
    /// On the shard itself.
    Local(AgentId),
    /// On another shard.
    Remote(Ghost),
}

/// One outgoing trust statement in a shard's merged out-star.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StarEdge {
    /// The trustee's global ordinal (edges are sorted by this).
    pub global: GlobalId,
    /// Signed trust weight.
    pub weight: f64,
    /// `|weight|^p` for the shard's [`Shard::spreading_power`].
    pub powered: f64,
    /// Resolved destination.
    pub target: Target,
}

/// One partition of the agent universe: a fully self-contained local model
/// plus the boundary edges that connect it to the rest of the universe.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Local community: member agents, their ratings, and trust statements
    /// between members. Cross-shard statements live only in the out-star.
    pub(crate) community: Community,
    /// Materialized profiles of the members, in local agent-id order.
    pub(crate) profiles: ProfileStore,
    /// Local index → global ordinal.
    pub(crate) globals: Vec<GlobalId>,
    /// Per-member merged out-star (local + boundary), sorted by global
    /// ordinal — the same edge order the global trust graph iterates.
    pub(crate) outstar: Vec<Vec<StarEdge>>,
    /// Per member, the sums of `powered` over its trust and over its
    /// distrust statements, each in edge order from 0.0 (`CsrGraph`'s
    /// `powered_sums`, per shard).
    pub(crate) powered_sums: Vec<(f64, f64)>,
    /// The exponent `powered` and `powered_sums` are derived for: the
    /// model's `spreading_power`, the one every cross-shard run must ask
    /// for.
    pub(crate) spreading_power: f64,
    /// The distinct remote trustees of the out-stars, numbered in order of
    /// first appearance (member order, then edge order).
    pub(crate) ghosts: Vec<Ghost>,
    /// Bumped whenever results served *from* this shard may change (its
    /// own content, or content within trust range on other shards).
    pub(crate) serve_epoch: u64,
}

impl Shard {
    /// Assembles a shard, freezing its out-stars for `spreading_power`: each
    /// star sorted by global ordinal, `|w|^p` per edge and the two sums per
    /// member, and every distinct remote trustee numbered once as a ghost.
    /// The one place out-stars are frozen — a fresh build and a recovery
    /// both come through here.
    pub(crate) fn assemble(
        community: Community,
        profiles: ProfileStore,
        globals: Vec<GlobalId>,
        stars: Vec<Vec<(GlobalId, f64, Trustee)>>,
        spreading_power: f64,
        epoch: u64,
    ) -> Shard {
        let mut ghost_of: HashMap<GlobalId, u32> = HashMap::new();
        let mut ghosts = Vec::new();
        let mut powered_sums = Vec::with_capacity(stars.len());
        let mut outstar = Vec::with_capacity(stars.len());
        for mut star in stars {
            star.sort_by_key(|&(global, _, _)| global);
            let (mut trust, mut distrust) = (0.0, 0.0);
            let edges: Vec<StarEdge> = star
                .into_iter()
                .map(|(global, weight, trustee)| {
                    let powered = weight.abs().powf(spreading_power);
                    if weight > 0.0 {
                        trust += powered;
                    } else if weight < 0.0 {
                        distrust += powered;
                    }
                    let target = match trustee {
                        Trustee::Local(local) => Target::Local(local),
                        Trustee::Remote(at) => {
                            let ghost = *ghost_of.entry(global).or_insert_with(|| {
                                ghosts.push(at);
                                ghosts.len() as u32 - 1
                            });
                            Target::Remote { ghost }
                        }
                    };
                    StarEdge { global, weight, powered, target }
                })
                .collect();
            powered_sums.push((trust, distrust));
            outstar.push(edges);
        }
        Shard {
            community,
            profiles,
            globals,
            outstar,
            powered_sums,
            spreading_power,
            ghosts,
            serve_epoch: epoch,
        }
    }

    /// The shard's local community.
    pub fn community(&self) -> &Community {
        &self.community
    }

    /// The shard's profile store.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// True when the shard owns no agents.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Global ordinals of the members, in local-id order.
    pub fn globals(&self) -> &[GlobalId] {
        &self.globals
    }

    /// Serve generation of this shard: it moves only when answers for the
    /// shard's agents may have changed, so a cache in front of the model may
    /// carry an entry across an advance that left it standing.
    pub fn serve_epoch(&self) -> u64 {
        self.serve_epoch
    }
}

/// Timing and layout report of a full partition build.
#[derive(Clone, Debug)]
pub struct ShardBuildReport {
    /// Name of the [`ShardFn`] used.
    pub shard_fn: &'static str,
    /// Members per shard.
    pub sizes: Vec<usize>,
    /// Trust edges crossing shard boundaries.
    pub cut_edges: usize,
    /// All trust edges.
    pub total_edges: usize,
    /// Per-shard build time (community assembly + profiles + out-star).
    pub per_shard: Vec<Duration>,
    /// Wall-clock for the whole build on this machine.
    pub total: Duration,
}

impl ShardBuildReport {
    /// Fraction of trust edges crossing shards.
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            return 0.0;
        }
        self.cut_edges as f64 / self.total_edges as f64
    }
}

/// Report of an incremental [`ShardedModel::advance`].
#[derive(Clone, Debug)]
pub struct ShardedAdvanceReport {
    /// True when membership changed and the whole universe was repartitioned.
    pub wholesale: bool,
    /// Shard indexes whose model content was rebuilt.
    pub rebuilt: Vec<usize>,
    /// Shard indexes whose serve epoch advanced (superset of `rebuilt`).
    pub serve_dirty: Vec<usize>,
    /// Per-shard refresh time (zero for untouched shards).
    pub per_shard: Vec<Duration>,
    /// Profiles recomputed across all rebuilt shards.
    pub profiles_recomputed: usize,
    /// Profiles carried by `Arc` clone across all rebuilt shards.
    pub profiles_reused: usize,
    /// Wall-clock of the whole advance on this machine.
    pub total: Duration,
}

/// A sharded universe's books: one handle per `shard.*` name (see the
/// README's sharding metric table), per-shard handles indexed by shard.
/// Every generation [`ShardedModel::advance`] derives shares its parent's.
struct ShardMetrics {
    registry: MetricsRegistry,
    rebuild: Histogram,
    shard_rebuild: Vec<Histogram>,
    shard_refresh: Vec<Histogram>,
    profiles_recomputed: Vec<Counter>,
    profiles_reused: Vec<Counter>,
    cut_fraction: Gauge,
    serve_requests: Counter,
    batch_tasks: Counter,
    refresh: Histogram,
    advance_wholesale: Counter,
    advance_shards_dirty: Counter,
    advance_shards_clean: Counter,
    appleseed_runs: Counter,
    appleseed_iterations: Counter,
    appleseed_nodes_explored: Counter,
    exchange_rounds: Counter,
    frontier_packets: Counter,
}

impl ShardMetrics {
    /// A fresh registry for a universe of `shards` shards.
    fn new(shards: usize) -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str| registry.counter(name);
        let per_shard_histogram = |what: &str| {
            (0..shards).map(|i| registry.histogram(&format!("shard.{i}.{what}"))).collect()
        };
        let per_shard_counter = |what: &str| {
            (0..shards).map(|i| registry.counter(&format!("shard.{i}.{what}"))).collect()
        };
        registry.gauge("shard.count").set(shards as f64);
        ShardMetrics {
            rebuild: registry.histogram("shard.rebuild"),
            shard_rebuild: per_shard_histogram("rebuild"),
            shard_refresh: per_shard_histogram("refresh"),
            profiles_recomputed: per_shard_counter("profiles.recomputed"),
            profiles_reused: per_shard_counter("profiles.reused"),
            cut_fraction: registry.gauge("shard.partition.cut_fraction"),
            serve_requests: counter("shard.serve.requests"),
            batch_tasks: counter("shard.batch.tasks"),
            refresh: registry.histogram("shard.refresh"),
            advance_wholesale: counter("shard.advance.wholesale"),
            advance_shards_dirty: counter("shard.advance.shards_dirty"),
            advance_shards_clean: counter("shard.advance.shards_clean"),
            appleseed_runs: counter("shard.appleseed.runs"),
            appleseed_iterations: counter("shard.appleseed.iterations"),
            appleseed_nodes_explored: counter("shard.appleseed.nodes_explored"),
            exchange_rounds: counter("shard.exchange.rounds"),
            frontier_packets: counter("shard.frontier.packets"),
            registry,
        }
    }

    /// One full partition build, as the report it returned: a fresh build
    /// recomputes every member's profile and reuses none.
    fn record_build(&self, report: &ShardBuildReport) {
        for (i, (&size, elapsed)) in report.sizes.iter().zip(&report.per_shard).enumerate() {
            self.profiles_recomputed[i].add(size as u64);
            self.shard_rebuild[i].observe(elapsed.as_secs_f64());
        }
        self.cut_fraction.set(report.cut_fraction());
        self.rebuild.observe(report.total.as_secs_f64());
    }
}

/// The partitioned agent universe.
#[derive(Clone)]
pub struct ShardedModel {
    shards: Vec<Arc<Shard>>,
    directory: Directory,
    /// Global ordinal → local index on the owning shard (`u32::MAX` for
    /// agents that have been removed from the universe).
    local_of: Vec<u32>,
    config: RecommenderConfig,
    shard_fn: Arc<dyn ShardFn>,
    threads: usize,
    schedule: Vec<usize>,
    metrics: Arc<ShardMetrics>,
}

impl std::fmt::Debug for ShardedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedModel")
            .field("shards", &self.shards.len())
            .field("agents", &self.directory.len())
            .field("shard_fn", &self.shard_fn.name())
            .field("threads", &self.threads)
            .finish()
    }
}

impl ShardedModel {
    /// Partitions a global community into `shards` shards and builds every
    /// per-shard model. Per-shard builds fan out over `threads` workers;
    /// the result is byte-identical for any thread count.
    pub fn partition(
        community: &Community,
        config: RecommenderConfig,
        shard_fn: Arc<dyn ShardFn>,
        shards: usize,
        threads: usize,
    ) -> (ShardedModel, ShardBuildReport) {
        assert!(shards >= 1, "at least one shard");
        let started = Instant::now();

        let assignment = shard_fn.partition(community, shards);
        let (directory, local_of, members) = index_assignment(community, &assignment, shards);
        let (cut, total_edges) = cut_edges(community, &assignment);

        let dirty = HashSet::new();
        let built = fan_out_build(
            community,
            &assignment,
            &local_of,
            &members,
            &[],
            &dirty,
            &config,
            threads,
            &(0..shards).collect::<Vec<_>>(),
        );

        let mut shard_arcs = Vec::with_capacity(shards);
        let mut per_shard = Vec::with_capacity(shards);
        let mut sizes = Vec::with_capacity(shards);
        for (shard, elapsed) in built {
            sizes.push(shard.len());
            per_shard.push(elapsed);
            shard_arcs.push(Arc::new(shard));
        }

        let report = ShardBuildReport {
            shard_fn: shard_fn.name(),
            sizes,
            cut_edges: cut,
            total_edges,
            per_shard,
            total: started.elapsed(),
        };
        let metrics = ShardMetrics::new(shards);
        metrics.record_build(&report);
        let model = ShardedModel {
            shards: shard_arcs,
            directory,
            local_of,
            config,
            shard_fn,
            threads,
            schedule: (0..shards).collect(),
            metrics: Arc::new(metrics),
        };
        (model, report)
    }

    /// Reassembles a model from already-built shards (used by persistence
    /// recovery). The caller guarantees `local_of` and every shard's
    /// out-star are consistent with the directory.
    pub(crate) fn from_shards(
        shards: Vec<Arc<Shard>>,
        directory: Directory,
        local_of: Vec<u32>,
        config: RecommenderConfig,
        shard_fn: Arc<dyn ShardFn>,
    ) -> ShardedModel {
        let n = shards.len();
        ShardedModel {
            shards,
            directory,
            local_of,
            config,
            shard_fn,
            threads: 1,
            schedule: (0..n).collect(),
            metrics: Arc::new(ShardMetrics::new(n)),
        }
    }

    /// This universe's books: `shard.*` build, refresh, serving and
    /// cross-shard trust-walk counters and timings, summed over every
    /// generation of its lineage — and nothing another model did.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// Sets the order shards are visited in by the cross-shard protocol's
    /// compute phase. Must be a permutation of `0..shards`; results are
    /// byte-identical for any permutation.
    pub fn with_schedule(mut self, schedule: Vec<usize>) -> ShardedModel {
        let mut seen = vec![false; self.shards.len()];
        assert_eq!(schedule.len(), self.shards.len(), "schedule must cover every shard");
        for &s in &schedule {
            assert!(s < self.shards.len() && !seen[s], "schedule must be a permutation");
            seen[s] = true;
        }
        self.schedule = schedule;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of agents in the universe.
    pub fn agent_count(&self) -> usize {
        self.directory.len()
    }

    /// A shard by index.
    pub fn shard(&self, index: usize) -> &Arc<Shard> {
        &self.shards[index]
    }

    /// The global directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The active configuration.
    pub fn config(&self) -> &RecommenderConfig {
        &self.config
    }

    /// The partitioning function.
    pub fn shard_fn(&self) -> &Arc<dyn ShardFn> {
        &self.shard_fn
    }

    /// Looks up an agent by URI.
    pub fn agent_by_uri(&self, uri: &str) -> Option<GlobalId> {
        self.directory.by_uri(uri)
    }

    /// Resolves a global ordinal to its owning shard and local id.
    fn locate(&self, agent: GlobalId) -> Result<(usize, AgentId)> {
        if agent.index() >= self.local_of.len() || self.local_of[agent.index()] == u32::MAX {
            return Err(TrustError::UnknownAgent(agent.index()).into());
        }
        let shard = self.directory.shard_of(agent) as usize;
        Ok((shard, AgentId::from_index(self.local_of[agent.index()] as usize)))
    }

    /// The materialized profile of an agent.
    fn profile_of(&self, agent: GlobalId) -> Result<ProfileView<'_>> {
        let (shard, local) = self.locate(agent)?;
        Ok(self.shards[shard].profiles.profile(local))
    }

    /// Runs the cross-shard trust metric for `source` with the model's
    /// neighborhood parameters (see [`crate::appleseed`]).
    pub fn trust_ranks(&self, source: GlobalId) -> Result<ShardedAppleseedResult> {
        let (source_shard, _) = self.locate(source)?;
        let result = sharded_appleseed(
            &self.shards,
            &self.local_of,
            source,
            source_shard,
            &self.config.neighborhood.appleseed,
            &self.schedule,
        )?;
        let books = &self.metrics;
        books.appleseed_runs.inc();
        books.appleseed_iterations.add(result.iterations as u64);
        books.appleseed_nodes_explored.add(result.nodes_discovered as u64);
        books.exchange_rounds.add(result.exchange_rounds as u64);
        books.frontier_packets.add(result.frontier_packets as u64);
        Ok(result)
    }

    /// Synthesized `(peer, weight)` ranking for a target — the sharded
    /// counterpart of the engine's `peer_weights`.
    pub fn peer_weights(&self, target: GlobalId) -> Result<Vec<(GlobalId, f64)>> {
        let ranks = self.trust_ranks(target)?;
        let normalized = normalize(&self.config.neighborhood.select(&ranks.ranks));
        let similarities = self.config.similarity.apply_each(
            self.profile_of(target)?,
            normalized.iter().map(|&(peer, _)| self.profile_of(peer).expect("ranked peers exist")),
        );
        let scores: Vec<PeerScores> = normalized
            .into_iter()
            .zip(similarities)
            .map(|((peer, trust), similarity)| PeerScores {
                // The global ordinal doubles as the tie-break id so the
                // synthesized order matches the unsharded engine.
                agent: AgentId::from_index(peer.index()),
                trust,
                similarity,
            })
            .collect();
        Ok(synthesize(self.config.synthesis, &scores)
            .into_iter()
            .map(|(agent, weight)| (GlobalId(agent.index() as u32), weight))
            .collect())
    }

    /// Produces the top-`n` recommendations for a target agent.
    pub fn recommend(&self, target: GlobalId, n: usize) -> Result<Vec<Recommendation>> {
        self.metrics.serve_requests.inc();
        let weighted = self.peer_weights(target)?;
        let (target_shard, target_local) = self.locate(target)?;
        let shard = &self.shards[target_shard];
        // The novelty filter runs after the vote, so it needs every product.
        let novel = self.config.novel_categories_only;
        let keep = (!novel).then_some(n);
        let mut recs = self.sharded_vote(target_shard, target_local, &weighted, keep);
        if novel {
            recs = novel_only(&shard.community, shard.profiles.profile(target_local), recs);
        }
        recs.truncate(n);
        Ok(recs)
    }

    /// [`ShardedModel::recommend`] addressed by agent URI.
    pub fn recommend_by_uri(&self, uri: &str, n: usize) -> Result<Vec<Recommendation>> {
        let target = self
            .agent_by_uri(uri)
            .ok_or_else(|| semrec_core::CoreError::from(TrustError::UnknownAgent(usize::MAX)))?;
        self.recommend(target, n)
    }

    /// Recommends for many targets, fanning the independent queries out
    /// over the model's compute threads. Results are in `targets` order and
    /// byte-identical for any thread count.
    pub fn recommend_batch(
        &self,
        targets: &[GlobalId],
        n: usize,
    ) -> Vec<Result<Vec<Recommendation>>> {
        self.metrics.batch_tasks.add(targets.len() as u64);
        if self.threads <= 1 || targets.len() <= 1 {
            return targets.iter().map(|&t| self.recommend(t, n)).collect();
        }
        let chunk = targets.len().div_ceil(self.threads);
        thread::scope(|scope| {
            let handles: Vec<_> = targets
                .chunks(chunk)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk.iter().map(|&t| self.recommend(t, n)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker"))
                .collect()
        })
    }

    /// The voting stage over sharded ratings — `semrec_core::recommend::vote`
    /// with each peer's ratings looked up on its owning shard, cut to the
    /// first `keep` (see `vote_by`).
    fn sharded_vote(
        &self,
        target_shard: usize,
        target_local: AgentId,
        weighted: &[(GlobalId, f64)],
        keep: Option<usize>,
    ) -> Vec<Recommendation> {
        let target_community = &self.shards[target_shard].community;
        let peers = weighted.iter().filter_map(|&(peer, weight)| {
            let (shard, local) = self.locate(peer).ok()?;
            Some((self.shards[shard].community.ratings_of(local), weight))
        });
        vote_by(
            target_community.catalog.len(),
            target_community.ratings_of(target_local),
            peers,
            &self.config.voting,
            keep,
        )
    }

    /// Advances the model to the `next` community generation, rebuilding
    /// only the shards the delta dirties. Untouched shards are shared by
    /// `Arc` clone and perform **zero** profile recomputation.
    ///
    /// A membership change (agents added or removed) falls back to a
    /// wholesale repartition, like the unsharded engine's wholesale swap.
    pub fn advance(
        &self,
        next: &Community,
        delta: &ModelDelta,
    ) -> (ShardedModel, ShardedAdvanceReport) {
        let started = Instant::now();
        let books = &self.metrics;
        let _span = books.refresh.start_timer();
        let n_shards = self.shards.len();

        if !self.membership_stable(next) {
            books.advance_wholesale.inc();
            let (mut model, build) = ShardedModel::partition(
                next,
                self.config,
                Arc::clone(&self.shard_fn),
                n_shards,
                self.threads,
            );
            books.record_build(&build);
            model.metrics = Arc::clone(books);
            model.schedule = self.schedule.clone();
            // Every generation counter moves forward: all content may have
            // shifted shards, so no cache entry survives.
            for (i, shard) in model.shards.iter_mut().enumerate() {
                let shard = Arc::get_mut(shard).expect("freshly built shard is unshared");
                shard.serve_epoch = self.shards[i].serve_epoch + 1;
            }
            let report = ShardedAdvanceReport {
                wholesale: true,
                rebuilt: (0..n_shards).collect(),
                serve_dirty: (0..n_shards).collect(),
                per_shard: build.per_shard,
                profiles_recomputed: self.directory.len(),
                profiles_reused: 0,
                total: started.elapsed(),
            };
            return (model, report);
        }

        // Model-dirty shards: those owning an agent the delta touched.
        let mut model_dirty = vec![false; n_shards];
        for uri in delta.ratings_changed.iter().chain(delta.trust_changed.iter()) {
            if let Some(g) = self.directory.by_uri(uri) {
                model_dirty[self.directory.shard_of(g) as usize] = true;
            }
        }
        let dirty_uris: HashSet<&str> =
            delta.ratings_changed.iter().map(String::as_str).collect();

        let rebuilt: Vec<usize> = (0..n_shards).filter(|&s| model_dirty[s]).collect();
        let mut per_shard = vec![Duration::default(); n_shards];
        let mut recomputed = 0;
        let mut reused = 0;
        let mut new_shards: Vec<Arc<Shard>> = Vec::with_capacity(n_shards);
        let assignment: Vec<u32> = (0..self.directory.len())
            .map(|i| self.directory.shard_of(GlobalId(i as u32)))
            .collect();
        for s in 0..n_shards {
            if !model_dirty[s] {
                new_shards.push(Arc::clone(&self.shards[s]));
                continue;
            }
            let shard_started = Instant::now();
            let _shard_span = books.shard_refresh[s].start_timer();
            let (mut shard, stats) = build_shard(
                next,
                &assignment,
                &self.local_of,
                &self.shards[s].globals,
                Some(&self.shards[s]),
                &dirty_uris,
                &self.config,
                s as u32,
            );
            shard.serve_epoch = self.shards[s].serve_epoch;
            books.profiles_recomputed[s].add(stats.recomputed as u64);
            books.profiles_reused[s].add(stats.reused as u64);
            recomputed += stats.recomputed;
            reused += stats.reused;
            per_shard[s] = shard_started.elapsed();
            new_shards.push(Arc::new(shard));
        }
        books.advance_shards_dirty.add(rebuilt.len() as u64);
        books.advance_shards_clean.add((n_shards - rebuilt.len()) as u64);

        // Serve-dirty closure: every shard that can reach a model-dirty
        // shard over boundary edges within the trust horizon — a
        // conservative shard-level superset of the agent-level reverse
        // closure (an h-hop agent path crosses at most h shard boundaries).
        let serve_dirty_flags = serve_dirty_closure(
            &new_shards,
            &model_dirty,
            self.config.neighborhood.appleseed.max_range,
        );
        let serve_dirty: Vec<usize> =
            (0..n_shards).filter(|&s| serve_dirty_flags[s]).collect();
        for &s in &serve_dirty {
            let shard = Arc::make_mut(&mut new_shards[s]);
            shard.serve_epoch = self.shards[s].serve_epoch + 1;
        }

        let model = ShardedModel {
            shards: new_shards,
            directory: self.directory.clone(),
            local_of: self.local_of.clone(),
            config: self.config,
            shard_fn: Arc::clone(&self.shard_fn),
            threads: self.threads,
            schedule: self.schedule.clone(),
            metrics: Arc::clone(books),
        };
        let report = ShardedAdvanceReport {
            wholesale: false,
            rebuilt,
            serve_dirty,
            per_shard,
            profiles_recomputed: recomputed,
            profiles_reused: reused,
            total: started.elapsed(),
        };
        (model, report)
    }

    /// True when `next` has exactly the agents of the directory, in the
    /// same registration order.
    fn membership_stable(&self, next: &Community) -> bool {
        if next.agent_count() != self.directory.len() {
            return false;
        }
        self.directory.iter().all(|(g, uri, _)| {
            next.agent(AgentId::from_index(g.index()))
                .map(|info| info.uri == uri)
                .unwrap_or(false)
        })
    }
}

// Serving layers share the model across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedModel>();
    assert_send_sync::<Arc<Shard>>();
};

/// Builds the directory, the global→local map, and per-shard member lists
/// from an assignment.
fn index_assignment(
    community: &Community,
    assignment: &[u32],
    shards: usize,
) -> (Directory, Vec<u32>, Vec<Vec<GlobalId>>) {
    let mut directory = Directory::default();
    let mut local_of = vec![u32::MAX; assignment.len()];
    let mut members: Vec<Vec<GlobalId>> = vec![Vec::new(); shards];
    for agent in community.agents() {
        let g = agent.index();
        let shard = assignment[g];
        let uri = community.agent(agent).expect("dense agent ids").uri.clone();
        let global = directory.push(uri, shard);
        local_of[g] = members[shard as usize].len() as u32;
        members[shard as usize].push(global);
    }
    (directory, local_of, members)
}

/// Builds the per-shard models for `order`, fanning out over `threads`.
/// Returns `(shard, elapsed)` in shard-index order.
#[allow(clippy::too_many_arguments)]
fn fan_out_build(
    global: &Community,
    assignment: &[u32],
    local_of: &[u32],
    members: &[Vec<GlobalId>],
    previous: &[Arc<Shard>],
    dirty: &HashSet<&str>,
    config: &RecommenderConfig,
    threads: usize,
    order: &[usize],
) -> Vec<(Shard, Duration)> {
    let build_one = |s: usize| {
        let started = Instant::now();
        let prev = previous.get(s).map(|arc| arc.as_ref());
        let (shard, _) = build_shard(
            global,
            assignment,
            local_of,
            &members[s],
            prev,
            dirty,
            config,
            s as u32,
        );
        (s, shard, started.elapsed())
    };
    let mut slots: Vec<Option<(Shard, Duration)>> =
        (0..members.len()).map(|_| None).collect();
    if threads <= 1 || order.len() == 1 {
        for &s in order {
            let (s, shard, elapsed) = build_one(s);
            slots[s] = Some((shard, elapsed));
        }
    } else {
        let chunk = order.len().div_ceil(threads);
        let produced: Vec<Vec<(usize, Shard, Duration)>> = thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(chunk)
                .map(|mine| scope.spawn(move || mine.iter().map(|&s| build_one(s)).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("build worker")).collect()
        });
        for (s, shard, elapsed) in produced.into_iter().flatten() {
            slots[s] = Some((shard, elapsed));
        }
    }
    slots.into_iter().map(|slot| slot.expect("every shard built")).collect()
}

/// Derives one shard's local model from the global community.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_shard(
    global: &Community,
    assignment: &[u32],
    local_of: &[u32],
    members: &[GlobalId],
    previous: Option<&Shard>,
    dirty: &HashSet<&str>,
    config: &RecommenderConfig,
    me: u32,
) -> (Shard, AdvanceStats) {
    let mut community = Community::new(global.taxonomy.clone(), global.catalog.clone());
    for &g in members {
        let uri = &global.agent(AgentId::from_index(g.index())).expect("member exists").uri;
        community.add_agent(uri.clone()).expect("unique member URIs");
    }
    let mut stars = Vec::with_capacity(members.len());
    for (local_idx, &g) in members.iter().enumerate() {
        let global_id = AgentId::from_index(g.index());
        let local_id = AgentId::from_index(local_idx);
        for &(product, rating) in global.ratings_of(global_id) {
            community.set_rating(local_id, product, rating).expect("valid copied rating");
        }
        let mut star = Vec::new();
        for &(trustee, weight) in global.trust.out_edges(global_id) {
            let t = trustee.index();
            let trustee = if assignment[t] == me {
                let trustee_local = AgentId::from_index(local_of[t] as usize);
                community
                    .trust
                    .set_trust(local_id, trustee_local, weight)
                    .expect("valid copied trust edge");
                Trustee::Local(trustee_local)
            } else {
                Trustee::Remote(Ghost { shard: assignment[t], local: local_of[t] })
            };
            star.push((GlobalId(t as u32), weight, trustee));
        }
        stars.push(star);
    }
    let (profiles, stats) = match previous {
        Some(prev) => prev.profiles.advance(&prev.community, &community, dirty),
        None => {
            let profiles = ProfileStore::build(&community, &config.profile);
            let stats = AdvanceStats { recomputed: members.len(), reused: 0 };
            (profiles, stats)
        }
    };
    let power = config.neighborhood.appleseed.spreading_power;
    let shard = Shard::assemble(community, profiles, members.to_vec(), stars, power, 0);
    (shard, stats)
}

/// Reverse BFS over the shard boundary graph: which shards can reach a
/// model-dirty shard within `horizon` boundary hops (every shard reaches
/// itself in zero hops)?
fn serve_dirty_closure(
    shards: &[Arc<Shard>],
    model_dirty: &[bool],
    horizon: Option<u32>,
) -> Vec<bool> {
    let n = shards.len();
    // reachers[t] = shards with a boundary edge into t.
    let mut reachers: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (s, shard) in shards.iter().enumerate() {
        for ghost in &shard.ghosts {
            reachers[ghost.shard as usize].insert(s);
        }
    }
    let mut dirty: Vec<bool> = model_dirty.to_vec();
    let mut frontier: Vec<usize> = (0..n).filter(|&s| dirty[s]).collect();
    let depth_limit = horizon.map(|h| h as usize).unwrap_or(n);
    let mut depth = 0;
    while !frontier.is_empty() && depth < depth_limit {
        let mut next = Vec::new();
        for &t in &frontier {
            let mut sources: Vec<usize> = reachers[t].iter().copied().collect();
            sources.sort_unstable();
            for s in sources {
                if !dirty[s] {
                    dirty[s] = true;
                    next.push(s);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashShardFn;
    use semrec_core::ProductId;
    use semrec_taxonomy::fixtures::example1;

    fn world() -> Community {
        let e = example1();
        let products: Vec<ProductId> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let ids: Vec<AgentId> = (0..12)
            .map(|i| c.add_agent(format!("http://shard.example.org/{i}#me")).unwrap())
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            c.set_rating(a, products[i % products.len()], 0.9).unwrap();
            c.trust.set_trust(a, ids[(i + 1) % ids.len()], 1.0).unwrap();
            c.trust.set_trust(a, ids[(i + 5) % ids.len()], 0.6).unwrap();
        }
        c
    }

    #[test]
    fn partition_preserves_every_agent_and_edge() {
        let c = world();
        let (model, report) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            3,
            1,
        );
        assert_eq!(model.agent_count(), 12);
        assert_eq!(report.sizes.iter().sum::<usize>(), 12);
        let total_star: usize =
            (0..3).map(|s| model.shard(s).outstar.iter().map(Vec::len).sum::<usize>()).sum();
        assert_eq!(total_star, report.total_edges);
        let boundary = (0..3)
            .flat_map(|s| model.shard(s).outstar.iter().flatten())
            .filter(|e| matches!(e.target, Target::Remote { .. }))
            .count();
        assert_eq!(boundary, report.cut_edges);
    }

    #[test]
    fn outstar_is_sorted_by_global_ordinal() {
        let c = world();
        let (model, _) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            4,
            1,
        );
        for s in 0..4 {
            for star in &model.shard(s).outstar {
                assert!(star.windows(2).all(|w| w[0].global < w[1].global));
            }
        }
    }

    #[test]
    fn recommend_runs_on_every_shard_count() {
        let c = world();
        for shards in [1, 2, 3] {
            let (model, _) = ShardedModel::partition(
                &c,
                RecommenderConfig::default(),
                Arc::new(HashShardFn),
                shards,
                1,
            );
            let recs = model.recommend(GlobalId(0), 5).unwrap();
            assert!(recs.len() <= 5);
        }
    }

    #[test]
    fn empty_delta_advance_shares_every_shard() {
        let c = world();
        let (model, _) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            3,
            1,
        );
        let (next, report) = model.advance(&c, &ModelDelta::default());
        assert!(!report.wholesale);
        assert!(report.rebuilt.is_empty());
        assert_eq!(report.profiles_recomputed, 0);
        for s in 0..3 {
            assert!(Arc::ptr_eq(model.shard(s), next.shard(s)));
        }
    }
}
