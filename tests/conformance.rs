//! The conformance table: every route to an answer, and how closely it must
//! match the engine called directly.
//!
//! An answer must not depend on where the model lives: computed centrally,
//! served from a cache, crawled back from RDF homepages, recovered from
//! disk, advanced by a delta, split across shards or learned by gossip.
//! [`TABLE`] has one row per route and one column per configuration; a
//! cell is the equivalence [`Class`] the route must keep under that
//! configuration, and every cell weaker than `Bits` says why. Each column
//! is one property test that runs every row over worlds from
//! `common::arb_world`; answers are compared by agent URI, as the
//! per-agent top-10 [`Digest`]. DESIGN.md §5 quotes the rendered table, and
//! `design_quotes_the_table` keeps that quote exact.
//!
//! A change that moves answers on purpose (a global node budget, exact
//! energy sums, a sparser spreading loop) lands as a one-line diff to the
//! row it moves.

use std::cell::OnceCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use semrec::core::{recommend_batch, AdvanceStats, ModelDelta, RecommenderConfig, SwapPlan};
use semrec::p2p::{GossipConfig, P2pSimulation};
use semrec::serve::{ServeConfig, Server};
use semrec::shard::{CommunityShardFn, GlobalId, HashShardFn, ShardFn, ShardedModel};
use semrec::store::{decode_v2, encode_v2, Recovery, Store};
use semrec::taxonomy::fixtures::example1;
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::trust::neighborhood::{form_neighborhood_csr, NeighborhoodParams};
use semrec::web::crawler::{
    assemble_community, crawl, refresh, CommunityBuilder, CrawlConfig, CrawlResult,
};
use semrec::web::extract::ExtractedAgent;
use semrec::web::fault::FaultPlan;
use semrec::web::publish::{homepage_turtle, homepage_uri};
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, Recommender};

mod common;
use common::{
    apply, arb_op, arb_world, digest, publish, render, scratch, top10, Digest, Op, World,
};

use Class::{Bits, Eps, Na, TopKSet};

/// How closely a route's answers must match the reference's.
#[derive(Clone, Copy, Debug)]
enum Class {
    /// The same products with the same score bits (and, in a digest, the
    /// same voter counts), in the same order.
    Bits,
    /// The same length; at each place the same product with a score within
    /// the bound, or two products both within the bound of the list's last
    /// score (a tie at the cut-off, reordered).
    Eps(f64, &'static str),
    /// The same products, apart from those within 1e-6 of the cut-off.
    TopKSet(&'static str),
    /// Not required.
    Na(&'static str),
}

impl Class {
    fn reason(self) -> Option<&'static str> {
        match self {
            Bits => None,
            Eps(_, why) | TopKSet(why) | Na(why) => Some(why),
        }
    }

    /// Whether `got` is `want` up to this class: two ranked lists, cut at
    /// the same length.
    fn lists<K: PartialEq>(self, want: &[(K, f64)], got: &[(K, f64)]) -> bool {
        let cutoff = want.last().map_or(0.0, |e| e.1);
        want.len() == got.len()
            && match self {
                Bits => want.iter().zip(got).all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits()),
                Eps(bound, _) => want.iter().zip(got).all(|(w, g)| {
                    let tie = (w.1 - cutoff).abs() <= bound && (g.1 - cutoff).abs() <= bound;
                    (w.0 == g.0 && (w.1 - g.1).abs() <= bound) || tie
                }),
                TopKSet(_) => {
                    let outside = |list: &[(K, f64)], other: &[(K, f64)]| {
                        list.iter()
                            .filter(|e| (e.1 - cutoff).abs() > 1e-6)
                            .all(|e| other.iter().any(|o| o.0 == e.0))
                    };
                    outside(want, got) && outside(got, want)
                }
                Na(_) => true,
            }
    }

    /// Asserts `got` is `want` up to this class, agent by agent.
    fn digests(self, want: &Digest, got: &Digest) {
        assert_eq!(want.keys().collect::<Vec<_>>(), got.keys().collect::<Vec<_>>(), "agents");
        let scores = |list: &[(semrec::ProductId, u64, usize)]| -> Vec<_> {
            list.iter().map(|&(p, bits, _)| (p, f64::from_bits(bits))).collect()
        };
        for (uri, want) in want {
            let got = &got[uri];
            let agree = match self {
                Bits => want == got,
                _ => self.lists(&scores(want), &scores(got)),
            };
            assert!(agree, "{uri}: {got:?} is not {want:?} up to {self}");
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bits => write!(f, "Bits"),
            Eps(bound, _) => write!(f, "Eps({bound:e})"),
            TopKSet(_) => write!(f, "TopKSet"),
            Na(_) => write!(f, "Na"),
        }
    }
}

/// One route: its name, its class per column of [`COLUMNS`], a note on
/// the row as a whole (empty if none), and the check that drives it.
struct Row(&'static str, [Class; 4], &'static str, fn(&Case, Class));

const COLUMNS: [&str; 4] = ["default", "tight", "distrust + power 2", "capped"];

/// The configuration of each column.
fn column(index: usize) -> RecommenderConfig {
    let served = NeighborhoodParams::default();
    let appleseed = match index {
        0 => served.appleseed,
        1 => AppleseedParams { convergence: 1e-9, max_nodes: None, ..served.appleseed },
        2 => AppleseedParams { distrust: true, spreading_power: 2.0, ..served.appleseed },
        _ => AppleseedParams { max_nodes: Some(4), ..served.appleseed },
    };
    let neighborhood = NeighborhoodParams { appleseed, ..served };
    RecommenderConfig { neighborhood, ..RecommenderConfig::default() }
}

const PADDED: &str = "`Bits` because the worlds' URIs are zero-padded: with `u{i}` the crawl \
    renumbers the agents, and the row falls to `Eps` in the first three columns and to no class \
    under `capped` (`tests/decentralized_roundtrip.rs` checks unpadded worlds at generator scale)";
const SUMS: &str = "the barrier reassociates the additions of shares from different shards";
const HOPS: &str = "a node first found by a distrust statement takes its hop distance from the \
    star that discovers it, and the barrier defers remote discoveries, so under `max_range` the \
    wave can differ (witness: `distrust_under_a_hop_range_is_partition_blind`, ROADMAP 15)";
const CAP: &str = "`max_nodes` binds per shard (DESIGN §6)";

/// The conformance table.
#[rustfmt::skip]
const TABLE: [Row; 10] = [
    Row("engine rebuilt from the same world", [Bits, Bits, Bits, Bits], "", rebuilt),
    Row("`recommend_batch` at 1/2/8 threads", [Bits, Bits, Bits, Bits], "", batch),
    Row("`Server` pool at 1/2/8 workers and lockstep `drain_step` at 1/8 threads, engine pass then cache pass", [Bits, Bits, Bits, Bits], "", served),
    Row("publish → crawl → `CommunityBuilder`", [Bits, Bits, Bits, Bits], PADDED, crawled),
    Row("v2 `encode_v2` → `decode_v2`", [Bits, Bits, Bits, Bits], "", v2_snapshot),
    Row("checkpoint + WAL → `recover`, against the never-restarted node", [Bits, Bits, Bits, Bits], "", recovered),
    Row("`advance`, against a fresh build of the same crawl", [Bits, Bits, Bits, Bits], "", advanced),
    Row("1 shard (ranks, `iterations` and `converged` too)", [Bits, Bits, Bits, Bits], "", one_shard),
    Row("N = 2/4/8 shards, hash or community, either schedule (ranks too)", [Eps(1e-6, SUMS), Eps(1e-6, SUMS), Na(HOPS), Na(CAP)], "", n_shards),
    Row("fully informed gossip peer, neighborhood against `form_neighborhood_csr` (ring worlds)", [Bits, Bits, Bits, Bits], "", gossip),
];

/// What one case draws: a world, the N-shard parameters, and republish
/// batches, one refresh round each.
#[derive(Debug)]
struct Draw {
    world: World,
    shards: usize,
    community_aware: bool,
    reversed: bool,
    batches: Vec<Vec<Op>>,
}

fn arb_draw() -> impl Strategy<Value = Draw> {
    let shards = prop_oneof![Just(2usize), Just(4), Just(8)];
    let batches = prop::collection::vec(prop::collection::vec(arb_op(), 1..6), 1..4);
    (arb_world(), shards, any::<bool>(), any::<bool>(), batches).prop_map(
        |(world, shards, community_aware, reversed, batches)| Draw { world, shards, community_aware, reversed, batches },
    )
}

/// One case of one column: the draw, the column's configuration and the
/// reference — the engine called directly, and its answers — plus the two
/// fixtures several rows read, each made on first use.
struct Case {
    draw: Draw,
    config: RecommenderConfig,
    engine: Recommender,
    top10: Digest,
    crawled: OnceCell<Crawled>,
    live: OnceCell<LiveNode>,
}

/// The world published as homepages and crawled back.
struct Crawled {
    web: DocumentWeb,
    seeds: Vec<String>,
    crawl: CrawlResult,
    builder: CommunityBuilder,
    /// The engine built from the crawl.
    engine: Recommender,
}

impl Case {
    fn crawled(&self) -> &Crawled {
        self.crawled.get_or_init(|| {
            let source = self.draw.world.community();
            let (web, seeds) = publish(&source);
            let crawl = crawl(&web, &seeds, &CrawlConfig::default());
            let builder = CommunityBuilder::new(&crawl.agents);
            let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
            let engine = Recommender::new(community, self.config);
            Crawled { web, seeds, crawl, builder, engine }
        })
    }
}

/// Runs every row that has a class in column `index` over one draw.
fn run(index: usize, draw: Draw) {
    let config = column(index);
    let engine = Recommender::new(draw.world.community(), config);
    let (crawled, live) = (OnceCell::new(), OnceCell::new());
    let case = Case { top10: top10(&engine), draw, config, engine, crawled, live };
    for Row(route, cells, _, check) in &TABLE {
        let class = cells[index];
        if !matches!(class, Na(_)) && catch_unwind(AssertUnwindSafe(|| check(&case, class))).is_err() {
            panic!("{route} × {}: not {class}\n{:#?}", COLUMNS[index], case.draw);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test] fn default_column(draw in arb_draw()) { run(0, draw) }
    #[test] fn tight_column(draw in arb_draw()) { run(1, draw) }
    #[test] fn distrust_power_2_column(draw in arb_draw()) { run(2, draw) }
    #[test] fn capped_column(draw in arb_draw()) { run(3, draw) }
}

fn agents(engine: &Recommender) -> Vec<AgentId> {
    engine.community().agents().collect()
}

fn rebuilt(case: &Case, class: Class) {
    let engine = Recommender::new(case.draw.world.community(), case.config);
    class.digests(&case.top10, &top10(&engine));
}

fn batch(case: &Case, class: Class) {
    let agents = agents(&case.engine);
    for threads in [1, 2, 8] {
        let answers = recommend_batch(&case.engine, &agents, 10, threads);
        class.digests(&case.top10, &digest(case.engine.community(), &agents, &answers));
    }
}

/// Every agent submitted twice: the first pass is computed by the engine,
/// the second is answered from the cache.
fn served(case: &Case, class: Class) {
    let agents = agents(&case.engine);
    for (workers, threads) in [(1, 0), (2, 0), (8, 0), (0, 1), (0, 8)] {
        let config = ServeConfig { workers, ..ServeConfig::default() };
        let server = Server::start(case.engine.clone(), config);
        for cached in [false, true] {
            let tickets: Vec<_> = agents.iter().map(|&a| server.submit(a, 10).unwrap()).collect();
            while workers == 0 && server.queue_depth() > 0 {
                server.drain_step(8, threads, None);
            }
            let answers: Vec<_> = tickets
                .into_iter()
                .map(|ticket| {
                    let response = ticket.wait().unwrap();
                    assert_eq!(response.epoch, 1);
                    assert_eq!(response.cache_hit, cached, "workers {workers}, threads {threads}");
                    Ok(response.recommendations.to_vec())
                })
                .collect();
            class.digests(&case.top10, &digest(case.engine.community(), &agents, &answers));
        }
        server.shutdown();
    }
}

fn crawled(case: &Case, class: Class) {
    class.digests(&case.top10, &top10(&case.crawled().engine));
}

fn v2_snapshot(case: &Case, class: Class) {
    let Crawled { builder, engine, .. } = case.crawled();
    let bytes = encode_v2(engine, builder.agents(), 7);
    let restored = decode_v2(&bytes).expect("own encoding decodes");
    assert_eq!(restored.epoch, 7);
    assert_eq!(restored.view, builder.agents());
    class.digests(&case.top10, &top10(&restored.engine));
}

/// One refresh round of the live node.
struct Round {
    before: Recommender,
    crawl: CrawlResult,
    delta: ModelDelta,
    after: Recommender,
    stats: AdvanceStats,
}

/// A node that lives through the case's republish batches, and a restart.
struct LiveNode {
    /// One per batch.
    rounds: Vec<Round>,
    /// The node's view after the last round.
    view: Vec<ExtractedAgent>,
    /// What the store recovered after the last round.
    recovery: Recovery,
}

/// The live node over the case's crawled world: checkpointed, then
/// refreshed once per republish batch — its homepages republished, the
/// delta appended to the WAL and folded into the engine with `advance` —
/// and at the end recovered from its store.
fn live_node(case: &Case) -> LiveNode {
    let Crawled { web, seeds, crawl, builder, engine } = case.crawled();
    let (mut previous, mut builder, mut engine) = (crawl.clone(), builder.clone(), engine.clone());
    let mut source = case.draw.world.community();
    let crawl_config = CrawlConfig::default();
    let store = Store::open(scratch("conformance")).expect("scratch store opens");
    store.checkpoint(&engine, builder.agents(), 1).expect("checkpoint succeeds");
    let (mut rounds, mut extra) = (Vec::new(), 0);
    for ops in &case.draw.batches {
        for op in ops {
            for agent in apply(&mut source, op, &mut extra) {
                let uri = source.agent(agent).unwrap().uri.clone();
                web.publish(homepage_uri(&uri), homepage_turtle(&source, agent), "text/turtle");
            }
        }
        let result = refresh(web, seeds, &crawl_config, &previous);
        let delta = result.delta.clone().expect("refresh always diffs");
        store.append_delta(&delta, &result.health()).expect("append succeeds");
        builder.apply_delta(&delta);
        let (next, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let model_delta = delta.model_delta();
        let (after, stats) = engine.advance(next, &model_delta, result.health());
        let crawl = result.clone();
        rounds.push(Round { before: engine, crawl, delta: model_delta, after: after.clone(), stats });
        (engine, previous) = (after, result);
    }
    let recovery = store.recover().expect("recovery succeeds");
    std::fs::remove_dir_all(store.dir()).ok();
    LiveNode { rounds, view: builder.agents().to_vec(), recovery }
}

/// Recovery from the first checkpoint plus every appended delta lands on
/// the node that never restarted, at the epoch it reached.
fn recovered(case: &Case, class: Class) {
    let LiveNode { rounds, view, recovery } = case.live.get_or_init(|| live_node(case));
    let live = &rounds.last().expect("one round at least").after;
    assert_eq!(recovery.replayed, rounds.len());
    assert_eq!(recovery.epoch, 1 + rounds.len() as u64);
    assert!(!recovery.degraded());
    assert_eq!(&recovery.view, view);
    assert_eq!(render(recovery.engine.community()), render(live.community()));
    class.digests(&top10(live), &top10(&recovery.engine));
}

/// Each advanced engine answers as one built fresh from the same crawl, and
/// its `SwapPlan` marks dirty every agent whose answer moved.
fn advanced(case: &Case, class: Class) {
    for Round { before, crawl, delta, after, stats } in &case.live.get_or_init(|| live_node(case)).rounds {
        let (old, new) = (before.community(), after.community());
        let (fresh, _) = assemble_community(&crawl.agents, old.taxonomy.clone(), old.catalog.clone());
        let fresh = Recommender::new(fresh, case.config);
        assert_eq!(render(new), render(fresh.community()));
        assert_eq!(stats.reused + stats.recomputed, new.agent_count());
        let answers = top10(after);
        class.digests(&top10(&fresh), &answers);

        let horizon = case.config.neighborhood.appleseed.max_range;
        let plan = SwapPlan::compute(old, new, delta, horizon, SwapPlan::DEFAULT_MAX_DIRTY_FRACTION);
        let answered = top10(before);
        for agent in new.agents() {
            let uri = &new.agent(agent).unwrap().uri;
            if answered.get(uri) != answers.get(uri) {
                assert!(plan.is_dirty(agent), "{uri} changed answers but the plan marked it clean");
            }
        }
    }
}

/// `engine`'s community split into `shards` shards.
fn partition(engine: &Recommender, shards: usize, community_aware: bool, reversed: bool) -> ShardedModel {
    let shard_fn: Arc<dyn ShardFn> =
        if community_aware { Arc::new(CommunityShardFn::default()) } else { Arc::new(HashShardFn) };
    let config = *engine.config();
    let (model, _) = ShardedModel::partition(engine.community(), config, shard_fn, shards, 1);
    if reversed {
        model.with_schedule((0..shards).rev().collect())
    } else {
        model
    }
}

/// The sharded answers and trust ranks against `engine`'s, for every agent.
/// Ranks are compared bit for bit and in order under `Bits` (with
/// `iterations` and `converged`), and by agent within the bound otherwise.
fn shard_check(engine: &Recommender, model: &ShardedModel, class: Class) {
    let shards = model.shard_count();
    let agents = agents(engine);
    let shared = engine.shared();
    for &agent in &agents {
        let global = appleseed(shared.trust_csr(), agent, &engine.config().neighborhood.appleseed);
        let global = global.unwrap();
        let sharded = model.trust_ranks(GlobalId(agent.index() as u32)).unwrap();
        let mut want: Vec<_> = global.ranks.iter().map(|&(a, r)| (a.index(), r)).collect();
        let mut got: Vec<_> = sharded.ranks.iter().map(|&(g, r)| (g.index(), r)).collect();
        if let Bits = class {
            assert_eq!((sharded.iterations, sharded.converged), (global.iterations, global.converged));
            assert!(Bits.lists(&want, &got), "{agent:?}: ranks {got:?}, not {want:?}");
            continue;
        }
        let bound = if let Eps(bound, _) = class { bound } else { 1e-6 };
        want.sort_by_key(|e| e.0);
        got.sort_by_key(|e| e.0);
        let keys = |v: &[(usize, f64)]| v.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(keys(&want), keys(&got), "{shards} shards, {agent:?}: ranked agents");
        for (w, g) in want.iter().zip(&got) {
            let what = format!("{shards} shards, {agent:?}: rank of {} is {}, not {}", w.0, g.1, w.1);
            assert!((w.1 - g.1).abs() <= bound, "{what}");
        }
    }
    let targets: Vec<GlobalId> = agents.iter().map(|a| GlobalId(a.index() as u32)).collect();
    let answers = model.recommend_batch(&targets, 10);
    class.digests(&top10(engine), &digest(engine.community(), &agents, &answers));
}

fn one_shard(case: &Case, class: Class) {
    shard_check(&case.engine, &partition(&case.engine, 1, false, false), class);
}

fn n_shards(case: &Case, class: Class) {
    let Draw { shards, community_aware, reversed, .. } = case.draw;
    shard_check(&case.engine, &partition(&case.engine, shards, community_aware, reversed), class);
}

/// On a ring world gossip reaches every peer with every record; each peer's
/// neighborhood is then the one the engine's trust graph forms.
fn gossip(case: &Case, class: Class) {
    if case.draw.world.ring.is_none() {
        return;
    }
    let community = case.engine.community();
    let (web, uris) = publish(community);
    let neighborhood = case.config.neighborhood;
    let config = GossipConfig { seed: 5, fanout: 2, max_records: 64, threads: 1, neighborhood, ..GossipConfig::default() };
    let mut sim = P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), config);
    let informed = |sim: &P2pSimulation| sim.peers().iter().all(|p| p.known_count() == uris.len());
    for _ in 0..48 {
        if informed(&sim) {
            break;
        }
        sim.step();
    }
    assert!(informed(&sim), "a ring world must reach full knowledge in 48 rounds");
    let shared = case.engine.shared();
    for agent in community.agents() {
        let uri = &community.agent(agent).unwrap().uri;
        let formed = form_neighborhood_csr(shared.trust_csr(), agent, &neighborhood).unwrap();
        let want: Vec<(&str, f64)> =
            formed.peers.iter().map(|&(p, r)| (community.agent(p).unwrap().uri.as_str(), r)).collect();
        let local = sim.peer(uri).expect("every agent runs a peer").neighborhood(&neighborhood);
        let got: Vec<(&str, f64)> = local.iter().map(|(u, r)| (&**u, *r)).collect();
        assert!(class.lists(&want, &got), "{uri}: {got:?} is not {want:?}");
    }
}

/// The table as DESIGN.md §5 quotes it: one markdown row per route, then
/// every reason, one line per row and distinct reason.
fn rendered() -> String {
    let mut out = format!("| route | {} |\n|---|---|---|---|---|\n", COLUMNS.join(" | "));
    let mut reasons = String::new();
    for Row(route, cells, note, _) in &TABLE {
        let classes: Vec<String> = cells.iter().map(Class::to_string).collect();
        out.push_str(&format!("| {route} | {} |\n", classes.join(" | ")));
        if !note.is_empty() {
            reasons.push_str(&format!("- *{route}*: {note}.\n"));
        }
        let mut seen: Vec<&str> = Vec::new();
        for why in cells.iter().filter_map(|c| c.reason()) {
            if seen.contains(&why) {
                continue;
            }
            seen.push(why);
            let columns: Vec<&str> =
                (0..4).filter(|&i| cells[i].reason() == Some(why)).map(|i| COLUMNS[i]).collect();
            reasons.push_str(&format!("- *{route}* × {}: {why}.\n", columns.join(", ")));
        }
    }
    out + "\n" + &reasons
}

#[test]
fn design_quotes_the_table() {
    let table = rendered();
    assert!(
        include_str!("../DESIGN.md").contains(&table),
        "DESIGN.md §5 must quote the conformance table verbatim:\n\n{table}"
    );
}

/// What each class admits, on hand-made lists: a reordered tie at the
/// cut-off is `Eps` but not `Bits`; a reordering above the cut-off is
/// `TopKSet` but not `Eps`.
#[test]
fn classes_are_ordered() {
    let want = [(1, 0.9), (2, 0.5), (3, 0.1), (4, 0.1)];
    let tie = [(1, 0.9), (2, 0.5), (4, 0.1), (3, 0.1)];
    let swapped = [(2, 0.9), (1, 0.5), (3, 0.1), (4, 0.1)];
    let set = TopKSet("");
    assert!(Bits.lists(&want, &want) && !Bits.lists(&want, &tie));
    assert!(Eps(1e-6, "").lists(&want, &tie) && !Eps(1e-6, "").lists(&want, &swapped));
    assert!(set.lists(&want, &swapped) && !set.lists(&want, &[(5, 0.9), (2, 0.5), (3, 0.1), (4, 0.1)]));
}

/// The second sharding divergence, pinned: the N-shard row's check under
/// distrust, convergence 1e-9, no node cap and the default `max_range` 6,
/// over one 14-agent world (its URIs unpadded: hash placement reads them).
/// A node first found by a distrust statement takes its hop distance from
/// the star that discovers it, and the barrier defers remote discoveries: at
/// 8 shards, hash or community, source u9 discovers 13 nodes where the
/// monolith discovers 14 (ranks off by up to 9.3e-2), and source u10's ranks
/// are off by up to 1.3e-2. Two and four shards agree, and with
/// `max_range: None` the worst difference is 1.4e-14. ROADMAP 15 makes the
/// discovery distance order-independent in both kernels.
#[test]
#[ignore = "ROADMAP 15"]
fn distrust_under_a_hop_range_is_partition_blind() {
    #[rustfmt::skip]
    let edges = [
        (0, 1, 0.97), (1, 2, 0.693), (1, 12, -0.949), (2, 3, 0.895), (2, 5, -0.005), (2, 7, 0.033),
        (3, 4, 0.258), (3, 6, 0.265), (4, 5, 0.97), (5, 6, 0.693), (5, 9, -0.153), (6, 2, -0.456),
        (6, 7, 0.915), (6, 9, -0.172), (7, 8, 0.258), (7, 9, 0.917), (7, 11, 0.651), (7, 12, -0.993),
        (7, 13, -0.023), (8, 0, -0.046), (8, 1, -0.881), (8, 5, 0.206), (8, 9, 0.97), (9, 10, 0.693),
        (10, 11, 0.895), (11, 0, 0.541), (11, 12, 0.258), (11, 13, 0.656), (12, 1, -0.203),
        (12, 3, -0.822), (12, 5, 0.922), (12, 13, 0.97), (13, 0, 0.693), (13, 4, -0.745),
        (13, 6, -0.162), (13, 11, 0.269),
    ];
    let e = example1();
    let mut community = semrec::Community::new(e.fig.taxonomy, e.catalog);
    let ids: Vec<AgentId> =
        (0..14).map(|i| community.add_agent(format!("http://ex.org/u{i}")).unwrap()).collect();
    for (a, b, w) in edges {
        community.trust.set_trust(ids[a], ids[b], w).unwrap();
    }
    let mut config = RecommenderConfig::default();
    let appleseed = &mut config.neighborhood.appleseed;
    (appleseed.distrust, appleseed.convergence, appleseed.max_nodes) = (true, 1e-9, None);
    let engine = Recommender::new(community, config);
    for community_aware in [false, true] {
        for shards in [2, 4, 8] {
            let model = partition(&engine, shards, community_aware, false);
            shard_check(&engine, &model, Eps(1e-6, HOPS));
        }
    }
}
