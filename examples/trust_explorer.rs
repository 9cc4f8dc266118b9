//! Exploring the trust metrics (§3.2): Appleseed versus Advogato versus
//! scalar path trust on an Advogato-like synthetic network.
//!
//! ```sh
//! cargo run --release --example trust_explorer
//! ```

use semrec::datagen::community::{generate_community, CommunityGenConfig};
use semrec::eval::Table;
use semrec::trust::advogato::{advogato, AdvogatoParams};
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::trust::scalar::{global_reputation, path_trust};
use semrec::trust::CsrGraph;

fn main() {
    let generated = generate_community(&CommunityGenConfig::small(1234));
    let community = generated.community;
    let graph = &community.trust;
    let source = community.agents().next().unwrap();
    println!(
        "Trust network: {} agents, {} statements (mean out-degree {:.2})\n",
        graph.agent_count(),
        graph.edge_count(),
        graph.mean_out_degree()
    );

    // Appleseed: continuous trust ranks via spreading activation, over the
    // frozen form of the graph.
    let frozen = CsrGraph::from_graph(graph);
    let params = AppleseedParams { injection: 200.0, spreading_factor: 0.85, ..Default::default() };
    let result = appleseed(&frozen, source, &params).unwrap();
    println!(
        "Appleseed from {source}: {} nodes discovered, {} iterations, converged: {}",
        result.nodes_discovered, result.iterations, result.converged
    );

    // Advogato: boolean certification of a target group.
    let adv = advogato(graph, source, &AdvogatoParams { target_group_size: 30, ..Default::default() })
        .unwrap();
    println!("Advogato (group size 30): {} agents certified\n", adv.accepted.len());

    // Side-by-side for the top Appleseed peers.
    let mut table = Table::new(["peer", "appleseed rank", "advogato", "path trust", "global rep"]);
    for &(peer, rank) in result.top(10) {
        table.row([
            peer.to_string(),
            format!("{rank:.3}"),
            if adv.is_accepted(peer) { "certified".into() } else { "-".to_string() },
            format!("{:.3}", path_trust(graph, source, peer, None).unwrap()),
            format!("{:.3}", global_reputation(graph, peer).unwrap()),
        ]);
    }
    println!("{}", table.render());

    println!("Note the difference in expressiveness (§3.2): Advogato only answers");
    println!("certified-or-not, while Appleseed's continuous ranks order peers — which is");
    println!("what rank synthesization (§3.4) needs. Scalar path trust answers pairwise");
    println!("queries only, one Dijkstra per peer.");

    // Spreading factor sweep: how d shifts rank toward distant peers.
    println!("\nSpreading factor sweep (rank share of the #1 peer):");
    for d in [0.5, 0.65, 0.8, 0.9] {
        let r = appleseed(
            &frozen,
            source,
            &AppleseedParams { spreading_factor: d, ..params },
        )
        .unwrap();
        let total = r.total_rank();
        let head = r.top(1).first().map_or(0.0, |&(_, x)| x);
        println!("  d = {d:.2}: head share {:.1}%  (total rank {total:.1}, {} iterations)",
            100.0 * head / total.max(f64::EPSILON), r.iterations);
    }
}
