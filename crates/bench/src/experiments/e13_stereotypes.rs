//! **E13 — Automated stereotype generation** (§6 future work): cluster the
//! community's taxonomy profiles into stereotypes, report their separation,
//! and use them for cold-start recommendation — a new user with a single
//! visible rating is assigned a stereotype and receives the products popular
//! *within* it, compared against global popularity.

use semrec_core::{Community, ProfileStore};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_eval::{leave_n_out, precision_recall, SplitConfig};
use semrec_profiles::generation::{generate_profile, ProfileParams};
use semrec_profiles::stereotypes::{cluster, separation, StereotypeModel};
use semrec_profiles::ProfileVector;
use semrec_taxonomy::ProductId;
use semrec_trust::AgentId;

use crate::Scale;

/// Measured values for shape assertions.
pub struct Outcome {
    /// `(k, intra-cluster sim, inter-cluster sim)` rows.
    pub separation: Vec<(usize, f64, f64)>,
    /// `(visible ratings, stereotype recall, blended recall, global recall)`.
    pub cold_start: Vec<(usize, f64, f64, f64)>,
}

/// Runs E13.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E13", "Stereotype generation and cold-start behavior modelling (§6)");
    let (max_users, ks, cold_k) = match scale {
        Scale::Small => (60, [4usize, 8, 16], 16),
        Scale::Medium => (150, [8, 16, 32], 32),
        Scale::Paper => (300, [16, 32, 64], 64),
    };
    let community = generate_community(&scale.community(1313)).community;
    let store = ProfileStore::build(&community, &ProfileParams::default());
    // Shallow topics (⊤ and depth ≤ 1) carry mass in *every* profile — the
    // stop-words of the topic space. Stripping them before clustering makes
    // the stereotypes reflect actual interest areas.
    let strip = |v: semrec_profiles::ProfileView<'_>| -> ProfileVector {
        v.iter()
            .filter(|&(t, _)| community.taxonomy.depth(t) >= 2)
            .collect()
    };
    let profiles: Vec<ProfileVector> =
        community.agents().map(|a| strip(store.profile(a))).collect();

    // (a) clustering quality vs k.
    outln!(out, "(a) Stereotype separation (spherical k-means over taxonomy profiles):");
    let mut table = Table::new(["k", "iterations", "intra-cluster sim", "inter-cluster sim", "ratio"]);
    let mut sep_rows = Vec::new();
    let mut best: Option<StereotypeModel> = None;
    // The separation diagnostic is O(n²) pairwise; a strided sample keeps it
    // tractable at paper scale without biasing the estimate.
    let stride = (profiles.len() / 1500).max(1);
    let sample: Vec<ProfileVector> = profiles.iter().step_by(stride).cloned().collect();
    for k in ks {
        let model = cluster(&profiles, k, 50);
        let sample_model = semrec_profiles::stereotypes::StereotypeModel {
            centroids: model.centroids.clone(),
            assignment: model.assignment.iter().copied().step_by(stride).collect(),
            iterations: model.iterations,
        };
        let (intra, inter) = separation(&sample, &sample_model);
        table.row([
            k.to_string(),
            model.iterations.to_string(),
            fmt(intra),
            fmt(inter),
            fmt(intra / inter.max(f64::EPSILON)),
        ]);
        sep_rows.push((k, intra, inter));
        if k == cold_k {
            best = Some(model);
        }
    }
    outln!(out, "{}", table.render());
    let model = best.expect("cold-start model fitted");

    // (b) cold start: users reduced to 1 visible rating.
    let split = leave_n_out(
        &community,
        &SplitConfig { hold_out: 3, min_remaining: 1, max_users, seed: 13 },
    );
    // Popularity tables computed on the training split only, so evaluated
    // users' hidden items never leak into either strategy.
    let global_pop = popularity(&split.train, split.train.agents());
    let mut per_cluster: Vec<Vec<(ProductId, f64)>> = Vec::new();
    for c in 0..model.len() {
        let members: Vec<AgentId> =
            model.members(c).into_iter().map(AgentId::from_index).collect();
        per_cluster.push(popularity(&split.train, members.into_iter()));
    }

    let mut table = Table::new([
        "visible ratings",
        "users",
        "stereotype popularity",
        "blended (stereotype + global)",
        "global popularity",
    ]);
    let mut cold_start = Vec::new();
    for visible_count in [1usize, 3, 5] {
        let (mut st, mut bl, mut gl, mut evaluated) = (0.0, 0.0, 0.0, 0usize);
        for (agent, hidden) in &split.held_out {
            let visible: Vec<_> = split
                .train
                .ratings_of(*agent)
                .iter()
                .copied()
                .take(visible_count)
                .collect();
            if visible.is_empty() {
                continue;
            }
            let cold_profile = strip(
                generate_profile(
                    &community.taxonomy,
                    &community.catalog,
                    &visible,
                    &ProfileParams::default(),
                )
                .as_view(),
            );
            let rated: Vec<ProductId> = visible.iter().map(|&(p, _)| p).collect();
            let top = |pop: &[(ProductId, f64)]| -> Vec<ProductId> {
                pop.iter().map(|&(p, _)| p).filter(|p| !rated.contains(p)).take(10).collect()
            };
            // Blended: cluster popularity rescored with a global prior —
            // the backoff a production cold-start system would use.
            let blend = |cluster_pop: &[(ProductId, f64)]| -> Vec<(ProductId, f64)> {
                let global_rank: std::collections::HashMap<ProductId, usize> =
                    global_pop.iter().enumerate().map(|(i, &(p, _))| (p, i)).collect();
                let mut scored: Vec<(ProductId, f64)> = cluster_pop
                    .iter()
                    .map(|&(p, s)| {
                        let prior = global_rank
                            .get(&p)
                            .map_or(0.0, |&r| 1.0 / (1.0 + r as f64).sqrt());
                        (p, s * prior)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                scored
            };
            let (stereotype_list, blended_list) = match model.assign(&cold_profile) {
                Some(c) if !per_cluster[c].is_empty() => {
                    (top(&per_cluster[c]), top(&blend(&per_cluster[c])))
                }
                _ => (top(&global_pop), top(&global_pop)),
            };
            let global_list = top(&global_pop);
            st += precision_recall(&stereotype_list, hidden).recall;
            bl += precision_recall(&blended_list, hidden).recall;
            gl += precision_recall(&global_list, hidden).recall;
            evaluated += 1;
        }
        let n = evaluated.max(1) as f64;
        table.row([
            visible_count.to_string(),
            evaluated.to_string(),
            fmt(st / n),
            fmt(bl / n),
            fmt(gl / n),
        ]);
        cold_start.push((visible_count, st / n, bl / n, gl / n));
    }
    outln!(out, "(b) Cold start (k = {cold_k} stereotypes, 3 hidden items per user):");
    outln!(out, "{}", table.render());
    outln!(out, "Finding: under Zipf-heavy demand, global popularity is a strong cold-start");
    outln!(out, "baseline; stereotype targeting closes the gap monotonically as visible");
    outln!(out, "evidence grows (the global-prior blend helps most when only one rating is");
    outln!(out, "visible and the assignment is noisiest). The stereotypes themselves");
    outln!(out, "separate cleanly — part (a) — which is the behavior-compression property");
    outln!(out, "§6 is after.");

    (Outcome { separation: sep_rows, cold_start }, out)
}

/// Products ranked by positive-rating popularity among the given agents.
fn popularity(
    community: &Community,
    agents: impl Iterator<Item = AgentId>,
) -> Vec<(ProductId, f64)> {
    let mut scores: std::collections::HashMap<ProductId, f64> = std::collections::HashMap::new();
    for agent in agents {
        for &(p, r) in community.ratings_of(agent) {
            if r > 0.0 {
                *scores.entry(p).or_insert(0.0) += r;
            }
        }
    }
    let mut ranked: Vec<(ProductId, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stereotypes_separate_and_help_cold_start() {
        let (o, text) = run(Scale::Small);
        for &(k, intra, inter) in &o.separation {
            assert!(intra > inter, "k={k}: intra {intra} must exceed inter {inter}");
        }
        // Stereotype recall improves monotonically with visible evidence …
        for w in o.cold_start.windows(2) {
            assert!(w[1].1 >= w[0].1 - 0.01,
                "stereotype recall must not degrade with evidence: {:?}", o.cold_start);
        }
        // … and ends up within striking distance of the popularity baseline.
        let last = o.cold_start.last().unwrap();
        assert!(last.1 > 0.5 * last.3,
            "stereotype ({}) must be comparable to global ({})", last.1, last.3);
        // The blend helps exactly where it should: at one visible rating.
        let first = o.cold_start.first().unwrap();
        assert!(first.2 >= first.1 - 0.01,
            "blend must not hurt the noisiest case: {:?}", first);
        super::super::assert_golden(&text);
    }
}
