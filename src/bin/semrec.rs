//! `semrec` — command-line front end.
//!
//! Materializes a decentralized community as RDF documents on disk — Turtle
//! or 2004-era RDF/XML, the filesystem playing the role of the document
//! web — then answers trust and recommendation queries against it:
//!
//! ```sh
//! semrec generate --scale small --seed 42 --out ./world
//! semrec inspect   --data ./world
//! semrec trust     --data ./world --agent http://community.example.org/agents/0#me
//! semrec recommend --data ./world --agent http://community.example.org/agents/0#me --top 10
//! semrec checkpoint --data ./world --store ./checkpoints
//! semrec recover --store ./checkpoints --top 5
//! ```

use std::path::{Path, PathBuf};

use semrec::core::{Community, Recommender, RecommenderConfig};
use semrec::datagen::community::{generate_community, CommunityGenConfig};
use semrec::eval::Table;
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::trust::CsrGraph;
use semrec::web::extract::extract_agents;
use semrec::web::globals;
use semrec::web::publish::homepage_turtle;

const TAXONOMY_BASE: &str = "http://community.example.org/taxonomy#";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { usage("missing command") };
    // Each subcommand beside the options it reads; `Options::parse` refuses
    // any other, so a mistyped destination can't silently fall back to a
    // default.
    let (reads, run): (&[&str], fn(&Options)) = match command.as_str() {
        "generate" => (&["--scale", "--seed", "--out", "--format"], generate),
        "inspect" => (&["--data"], inspect),
        "trust" => (&["--data", "--agent", "--top"], trust),
        "recommend" => (&["--data", "--agent", "--top", "--diversify"], recommend),
        "checkpoint" => (&["--data", "--store"], checkpoint),
        "recover" => (&["--store", "--agent", "--top"], recover),
        other => usage(&format!("unknown command `{other}`")),
    };
    run(&Options::parse(command, reads, rest));
}

struct Options {
    scale: String,
    format: String,
    seed: u64,
    out: PathBuf,
    data: PathBuf,
    agent: Option<String>,
    top: usize,
    diversify: Option<f64>,
    store: PathBuf,
}

impl Options {
    fn parse(command: &str, reads: &[&str], args: &[String]) -> Self {
        let mut opts = Options {
            scale: "small".into(),
            format: "turtle".into(),
            seed: 42,
            out: PathBuf::from("./world"),
            data: PathBuf::from("./world"),
            agent: None,
            top: 10,
            diversify: None,
            store: PathBuf::from("./checkpoints"),
        };
        let mut i = 0;
        while i < args.len() {
            let option = args[i].as_str();
            let value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i).cloned().unwrap_or_else(|| usage("missing option value"))
            };
            match option {
                "--scale" => opts.scale = value(&mut i),
                "--format" => opts.format = value(&mut i),
                "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| usage("bad seed")),
                "--out" => opts.out = PathBuf::from(value(&mut i)),
                "--data" => opts.data = PathBuf::from(value(&mut i)),
                "--agent" => opts.agent = Some(value(&mut i)),
                "--top" => opts.top = value(&mut i).parse().unwrap_or_else(|_| usage("bad top")),
                "--diversify" => {
                    opts.diversify =
                        Some(value(&mut i).parse().unwrap_or_else(|_| usage("bad theta")))
                }
                "--store" => opts.store = PathBuf::from(value(&mut i)),
                other => usage(&format!("unknown option `{other}`")),
            }
            if !reads.contains(&option) {
                usage(&format!("`{command}` does not take `{option}`"));
            }
            i += 1;
        }
        opts
    }
}

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}\n");
    eprintln!("usage: semrec <command> [options]");
    eprintln!("  generate  --scale small|medium|paper --seed N --out DIR [--format turtle|rdfxml]");
    eprintln!("  inspect   --data DIR");
    eprintln!("  trust     --data DIR --agent URI [--top N]");
    eprintln!("  recommend --data DIR --agent URI [--top N] [--diversify THETA]");
    eprintln!("  checkpoint --data DIR --store DIR");
    eprintln!("  recover    --store DIR [--agent URI] [--top N]");
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

// --- generate ----------------------------------------------------------------

fn generate(opts: &Options) {
    let config = match opts.scale.as_str() {
        "small" => CommunityGenConfig::small(opts.seed),
        "medium" => CommunityGenConfig::medium(opts.seed),
        "paper" => CommunityGenConfig::paper_scale(opts.seed),
        other => usage(&format!("unknown scale `{other}`")),
    };
    println!("Generating {} community (seed {})…", opts.scale, opts.seed);
    let community = generate_community(&config).community;

    let agents_dir = opts.out.join("agents");
    std::fs::create_dir_all(&agents_dir).unwrap_or_else(|e| fail(&e.to_string()));

    let write = |path: &Path, body: &str| {
        std::fs::write(path, body).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    };
    write(
        &opts.out.join("taxonomy.ttl"),
        &semrec::rdf::writer::to_turtle(&globals::taxonomy_graph(&community.taxonomy, TAXONOMY_BASE)),
    );
    write(
        &opts.out.join("catalog.ttl"),
        &semrec::rdf::writer::to_turtle(&globals::catalog_graph(&community.catalog, TAXONOMY_BASE)),
    );
    let rdfxml = match opts.format.as_str() {
        "turtle" => false,
        "rdfxml" => true,
        other => usage(&format!("unknown format `{other}`")),
    };
    for agent in community.agents() {
        if rdfxml {
            write(
                &agents_dir.join(format!("{}.rdf", agent.index())),
                &semrec::web::publish::homepage_rdfxml(&community, agent),
            );
        } else {
            write(
                &agents_dir.join(format!("{}.ttl", agent.index())),
                &homepage_turtle(&community, agent),
            );
        }
    }
    println!(
        "Wrote {} agent homepages ({}) + taxonomy.ttl + catalog.ttl to {}",
        community.agent_count(),
        if rdfxml { "RDF/XML" } else { "Turtle" },
        opts.out.display()
    );
}

// --- loading -----------------------------------------------------------------

fn load(data: &Path) -> Community {
    let (taxonomy, catalog, extracted) = load_extracted(data);
    let (community, _) = semrec::web::crawler::assemble_community(&extracted, taxonomy, catalog);
    community
}

fn load_extracted(
    data: &Path,
) -> (semrec::taxonomy::Taxonomy, semrec::taxonomy::Catalog, Vec<semrec::web::extract::ExtractedAgent>)
{
    let read = |name: &str| -> String {
        std::fs::read_to_string(data.join(name))
            .unwrap_or_else(|e| fail(&format!("{}/{name}: {e}", data.display())))
    };
    let taxonomy_graph = semrec::rdf::turtle::parse(&read("taxonomy.ttl"))
        .unwrap_or_else(|e| fail(&format!("taxonomy.ttl: {e}")));
    let taxonomy = globals::extract_taxonomy(&taxonomy_graph, TAXONOMY_BASE)
        .unwrap_or_else(|e| fail(&format!("taxonomy.ttl: {e}")));
    let catalog_graph = semrec::rdf::turtle::parse(&read("catalog.ttl"))
        .unwrap_or_else(|e| fail(&format!("catalog.ttl: {e}")));
    let (catalog, skipped) = globals::extract_catalog(&catalog_graph, &taxonomy, TAXONOMY_BASE);
    if skipped > 0 {
        eprintln!("warning: {skipped} catalog entries skipped");
    }

    let agents_dir = data.join("agents");
    let mut extracted = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&agents_dir)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", agents_dir.display())))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ttl" || ext == "rdf"))
        .collect();
    entries.sort();
    let mut parse_errors = 0usize;
    for path in entries {
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        let parsed = if path.extension().is_some_and(|ext| ext == "rdf") {
            semrec::rdf::rdfxml::parse(&body)
        } else {
            semrec::rdf::turtle::parse(&body)
        };
        match parsed {
            Ok(graph) => extracted.extend(extract_agents(&graph)),
            Err(_) => parse_errors += 1,
        }
    }
    if parse_errors > 0 {
        eprintln!("warning: {parse_errors} homepages failed to parse");
    }
    (taxonomy, catalog, extracted)
}

fn resolve_agent(community: &Community, opts: &Options) -> semrec::AgentId {
    let Some(uri) = &opts.agent else { usage("--agent is required") };
    community
        .agent_by_uri(uri)
        .unwrap_or_else(|| fail(&format!("unknown agent `{uri}`")))
}

// --- commands ----------------------------------------------------------------

fn inspect(opts: &Options) {
    let community = load(&opts.data);
    let shape = semrec::taxonomy::stats(&community.taxonomy);
    let mut table = Table::new(["statistic", "value"]);
    table.row(["agents".to_string(), community.agent_count().to_string()]);
    table.row(["products".to_string(), community.catalog.len().to_string()]);
    table.row(["topics".to_string(), shape.topics.to_string()]);
    table.row(["taxonomy max depth".to_string(), shape.max_depth.to_string()]);
    table.row(["trust statements".to_string(), community.trust.edge_count().to_string()]);
    table.row(["ratings".to_string(), community.rating_count().to_string()]);
    table.row([
        "mean ratings / agent".to_string(),
        format!("{:.2}", community.mean_ratings_per_agent()),
    ]);
    table.row([
        "mean trust out-degree".to_string(),
        format!("{:.2}", community.trust.mean_out_degree()),
    ]);
    println!("{}", table.render());
}

fn trust(opts: &Options) {
    let community = load(&opts.data);
    let agent = resolve_agent(&community, opts);
    let trust = CsrGraph::from_graph(&community.trust);
    let result = appleseed(&trust, agent, &AppleseedParams::default())
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "Appleseed from {}: {} nodes discovered, {} iterations\n",
        opts.agent.as_deref().unwrap_or(""),
        result.nodes_discovered,
        result.iterations
    );
    let mut table = Table::new(["rank", "agent", "trust"]);
    for (i, &(peer, rank)) in result.top(opts.top).iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            community.agent(peer).map(|a| a.uri.clone()).unwrap_or_default(),
            format!("{rank:.4}"),
        ]);
    }
    println!("{}", table.render());
}

fn recommend(opts: &Options) {
    let community = load(&opts.data);
    let agent = resolve_agent(&community, opts);
    let engine = Recommender::new(community, RecommenderConfig::default());
    let mut recommendations = engine
        .recommend(agent, opts.top.max(20))
        .unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(theta) = opts.diversify {
        recommendations = semrec::core::diversify::diversify(
            &engine.community().taxonomy,
            &engine.community().catalog,
            &recommendations,
            opts.top,
            theta,
        );
    }
    recommendations.truncate(opts.top);

    if recommendations.is_empty() {
        println!("No recommendations — the agent's trust neighborhood is empty.");
        return;
    }
    let mut table = Table::new(["#", "product", "title", "score", "voters"]);
    for (i, rec) in recommendations.iter().enumerate() {
        let product = engine.community().catalog.product(rec.product);
        table.row([
            (i + 1).to_string(),
            product.identifier.clone(),
            product.title.clone(),
            format!("{:.3}", rec.score),
            rec.voters.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn checkpoint(opts: &Options) {
    use semrec::store::Store;
    use semrec::web::crawler::CommunityBuilder;

    let (taxonomy, catalog, extracted) = load_extracted(&opts.data);
    let builder = CommunityBuilder::new(&extracted);
    let (community, _) = builder.build(taxonomy, catalog);
    let engine = Recommender::new(community, RecommenderConfig::default());

    let store = Store::open(&opts.store).unwrap_or_else(|e| fail(&e.to_string()));
    let report = store
        .checkpoint(&engine, builder.agents(), 1)
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "Checkpointed {} agents as snapshot {} ({} bytes) in {}",
        engine.community().agent_count(),
        report.seq,
        report.snapshot_bytes,
        opts.store.display()
    );
}

fn recover(opts: &Options) {
    use semrec::store::Store;

    let store = Store::open(&opts.store).unwrap_or_else(|e| fail(&e.to_string()));
    let recovery = store.recover().unwrap_or_else(|e| fail(&e.to_string()));

    let mut table = Table::new(["measure", "value"]);
    table.row(["snapshot seq".to_string(), recovery.snapshot_seq.to_string()]);
    table.row(["snapshot epoch".to_string(), recovery.snapshot_epoch.to_string()]);
    table.row(["wal records replayed".to_string(), recovery.replayed.to_string()]);
    table.row(["resume epoch".to_string(), recovery.epoch.to_string()]);
    table.row(["agents".to_string(), recovery.engine.community().agent_count().to_string()]);
    table.row([
        "snapshots skipped (corrupt)".to_string(),
        recovery.skipped.len().to_string(),
    ]);
    table.row([
        "wal status".to_string(),
        match &recovery.wal_error {
            None => "clean".to_string(),
            Some(e) => format!("degraded: {e}"),
        },
    ]);
    println!("{}", table.render());
    for (seq, error) in &recovery.skipped {
        eprintln!("warning: snapshot {seq} skipped: {error}");
    }

    if opts.agent.is_some() {
        let agent = resolve_agent(recovery.engine.community(), opts);
        let recommendations =
            recovery.engine.recommend(agent, opts.top).unwrap_or_else(|e| fail(&e.to_string()));
        let mut table = Table::new(["#", "product", "score"]);
        for (i, rec) in recommendations.iter().enumerate() {
            let product = recovery.engine.community().catalog.product(rec.product);
            table.row([
                (i + 1).to_string(),
                product.identifier.clone(),
                format!("{:.3}", rec.score),
            ]);
        }
        println!("{}", table.render());
    }
}
