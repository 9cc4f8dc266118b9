//! The generated inputs: a community from the seeded generator, and the
//! decentralized deployment built from it (homepages published on a
//! document web, crawled, assembled, modelled).

use rand::rngs::StdRng;
use rand::RngExt;
use semrec::core::{Community, SourceHealth};
use semrec::datagen::CommunityGenConfig;
use semrec::serve::{PublishReport, Server};
use semrec::store::Store;
use semrec::web::crawler::{CommunityBuilder, CrawlConfig, CrawlResult};
use semrec::web::publish::{homepage_turtle, homepage_uri};
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, ProductId, Recommender, RecommenderConfig};

use crate::layers;
use crate::trace::Tracer;

/// Crawl with two fetch threads, not the default four: the load must never
/// have more runnable threads than the two cores of the recorded host.
pub const CRAWL: CrawlConfig = CrawlConfig {
    max_range: 6,
    max_documents: 100_000,
    threads: 2,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 200 agents: `--smoke` only.
    Small,
    /// 1,000 agents.
    Medium,
    /// The paper's deployment size (§4.1): 9,100 agents.
    Paper,
}

pub struct World {
    /// The community as its agents know it; churn edits it and republishes.
    pub source: Community,
    /// Agent URIs, the crawl seeds, in agent-id order.
    pub seeds: Vec<String>,
    pub products: Vec<ProductId>,
}

impl World {
    pub fn generate(tr: &mut Tracer, scale: Scale, seed: u64) -> World {
        let config = match scale {
            Scale::Small => CommunityGenConfig::small(seed),
            Scale::Medium => CommunityGenConfig::medium(seed),
            Scale::Paper => CommunityGenConfig::paper_scale(seed),
        };
        let source = layers::generate(tr, &config);
        let seeds = source
            .agents()
            .map(|a| source.agent(a).expect("iterated id").uri.clone())
            .collect();
        let products = source.catalog.iter().collect();
        World {
            source,
            seeds,
            products,
        }
    }

    pub fn agents(&self) -> usize {
        self.seeds.len()
    }

    /// `count` random agents each rate one random product; returns them.
    /// This is the input change of one refresh round, and is never timed.
    pub fn churn(&mut self, rng: &mut StdRng, count: usize) -> Vec<AgentId> {
        (0..count)
            .map(|_| {
                let agent = AgentId::from_index(rng.random_range(0..self.agents()));
                let product = self.products[rng.random_range(0..self.products.len())];
                let rating = -1.0 + 2.0 * rng.random::<f64>();
                self.source
                    .set_rating(agent, product, rating)
                    .expect("generated ids exist");
                agent
            })
            .collect()
    }
}

/// What one node holds after crawling the web: the standing crawl, the
/// assembled view and the model built from it.
pub struct Deployment {
    pub web: DocumentWeb,
    pub previous: CrawlResult,
    pub builder: CommunityBuilder,
    pub engine: Recommender,
}

/// What one refresh round did, from the return values of its stages.
pub struct Round {
    pub health: SourceHealth,
    /// Documents changed ÷ documents fetched.
    pub changed_share: f64,
    /// Profiles reused ÷ profiles in the model.
    pub reused_share: f64,
    /// Agents the swap plan marked dirty ÷ agents, and what the swap did
    /// to the cache; present when the round published to a server.
    pub swap: Option<(f64, PublishReport)>,
    /// The generation this round replaced. Dropping a crawl and a model is
    /// no stage's work, so the caller drops them after it stops its clock.
    pub _retired: (Recommender, CrawlResult),
}

impl Deployment {
    /// publish → crawl → assemble → model build.
    pub fn build(tr: &mut Tracer, world: &World, config: RecommenderConfig) -> Deployment {
        let web = DocumentWeb::new();
        layers::publish(tr, &world.source, &web);
        let previous = layers::crawl_web(tr, &web, &world.seeds, &CRAWL);
        let mut builder = CommunityBuilder::new(&previous.agents);
        let community = layers::assemble(
            tr,
            &mut builder,
            None,
            &world.source.taxonomy,
            &world.source.catalog,
        );
        let engine = layers::model_build(tr, community, config);
        Deployment {
            web,
            previous,
            builder,
            engine,
        }
    }

    /// The agents of `changed` put their edited homepages back on the web.
    pub fn republish(&self, world: &World, changed: &[AgentId]) {
        for &agent in changed {
            let uri = &world.seeds[agent.index()];
            self.web.publish(
                homepage_uri(uri),
                homepage_turtle(&world.source, agent),
                "text/turtle",
            );
        }
    }

    /// One refresh round: re-crawl → (log the delta) → assemble → advance
    /// the model → (plan the swap and publish it). Runs from the first
    /// call that consumes the changed documents to the return of the call
    /// that makes the new generation readable.
    pub fn refresh_round(
        &mut self,
        tr: &mut Tracer,
        world: &World,
        server: Option<&Server>,
        wal: Option<&Store>,
    ) -> Round {
        let result = layers::refresh_web(tr, &self.web, &world.seeds, &CRAWL, &self.previous);
        let delta = result
            .delta
            .clone()
            .expect("a refresh always diffs against its predecessor");
        let health = result.health();
        if let Some(store) = wal {
            layers::wal_append(tr, store, &delta, &health);
        }
        let model_delta = delta.model_delta();
        let next = layers::assemble(
            tr,
            &mut self.builder,
            Some(&delta),
            &world.source.taxonomy,
            &world.source.catalog,
        );
        let (engine, stats) = layers::advance(tr, &self.engine, next, &model_delta, health);
        let swap = server.map(|server| {
            let plan = layers::swap_plan(tr, &self.engine, &engine, &model_delta);
            (
                plan.dirty_fraction(),
                layers::publish_delta(tr, server, engine.clone(), &plan),
            )
        });
        let fetched = result.documents_fetched.max(1);
        Round {
            health,
            changed_share: (fetched - result.reused.min(fetched)) as f64 / fetched as f64,
            reused_share: stats.reuse_rate(),
            swap,
            _retired: (
                std::mem::replace(&mut self.engine, engine),
                std::mem::replace(&mut self.previous, result),
            ),
        }
    }
}
