//! Cross-shard Appleseed: the shards of a [`crate::ShardedModel`] as
//! partitions of the one kernel, `semrec_trust::appleseed`, whose `//!` is
//! the one home of the definition, the round, ghosts and the barrier.
//!
//! A [`Shard`] is a frozen partition: members in local-id order, each
//! out-star merged from local and boundary statements and sorted by global
//! ordinal (the global graph's edge order), with `|w|^p` per edge and each
//! member's two sums frozen by `Shard::assemble` for the model's
//! `spreading_power`. Its distinct remote trustees are numbered once, with
//! the shard, as its ghosts (`Shard::ghosts`: destination shard and local
//! id, in member and then edge order); a boundary edge names its ghost.
//! This module presents that layout to the kernel and keys its ranks by
//! [`GlobalId`].
//!
//! At every shard count the kernel returns, bit for bit, what the
//! straightforward boundary-frontier loop returns; that loop, one packet per
//! edge combined at the barrier, is the test oracle `appleseed/oracle.rs`.

use std::sync::Arc;

use semrec_trust::appleseed::{
    appleseed_partitioned, AppleseedParams, Partition, PartitionedResult, Trustee,
};
use semrec_trust::{Result, TrustError};

use crate::model::{Shard, Target};
use crate::partition::GlobalId;

/// Result of a sharded Appleseed run, keyed by global ordinal.
#[derive(Clone, Debug)]
pub struct ShardedAppleseedResult {
    /// `(agent, rank)` sorted by descending rank (ascending ordinal on
    /// ties), source excluded — the same total order the global metric
    /// produces when ordinals coincide with global `AgentId` indexes.
    pub ranks: Vec<(GlobalId, f64)>,
    /// Rounds until convergence (or the iteration cap).
    pub iterations: usize,
    /// Wave nodes discovered across all shards (including the source).
    pub nodes_discovered: usize,
    /// True if the fixpoint was reached before `max_iterations`.
    pub converged: bool,
    /// Rounds in which at least one frontier packet crossed shards.
    pub exchange_rounds: usize,
    /// Frontier packets delivered at the barriers of those rounds: at most
    /// one per (sending shard, destination node) and one source-bound
    /// packet per sending shard, per round.
    pub frontier_packets: usize,
}

impl Partition for Shard {
    const GHOSTS: bool = true;

    fn members(&self) -> usize {
        self.globals.len()
    }

    fn ghosts(&self) -> usize {
        self.ghosts.len()
    }

    fn ghost(&self, ghost: u32) -> (usize, u32) {
        let at = self.ghosts[ghost as usize];
        (at.shard as usize, at.local)
    }

    fn frozen_power(&self) -> f64 {
        self.spreading_power
    }

    fn sums(&self, member: u32) -> (f64, f64) {
        self.powered_sums[member as usize]
    }

    fn star(&self, member: u32) -> impl Iterator<Item = (f64, f64, Trustee)> + Clone + '_ {
        self.outstar[member as usize].iter().map(|edge| {
            let trustee = match edge.target {
                Target::Local(succ) => Trustee::Member(succ.index() as u32),
                Target::Remote { ghost } => Trustee::Ghost(ghost),
            };
            (edge.weight, edge.powered, trustee)
        })
    }
}

/// Runs the kernel over the shards for `source`.
///
/// `local_of` maps global ordinals to owning-shard local indexes
/// (`u32::MAX` marks an agent no longer present). `schedule` is the order
/// shards make their pass in within a round; it must be a permutation of
/// `0..shards.len()` and never affects results.
pub(crate) fn sharded_appleseed(
    shards: &[Arc<Shard>],
    local_of: &[u32],
    source: GlobalId,
    source_shard: usize,
    params: &AppleseedParams,
    schedule: &[usize],
) -> Result<ShardedAppleseedResult> {
    let source_local = local_of[source.index()];
    if source_local == u32::MAX {
        return Err(TrustError::UnknownAgent(source.index()));
    }
    let global = |shard: usize, local: u32| shards[shard].globals[local as usize];
    let PartitionedResult {
        ranks, iterations, nodes_discovered, converged, exchange_rounds, frontier_packets, ..
    } = appleseed_partitioned(shards, (source_shard, source_local), params, schedule, global)?;
    Ok(ShardedAppleseedResult {
        ranks,
        iterations,
        nodes_discovered,
        converged,
        exchange_rounds,
        frontier_packets,
    })
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests;
