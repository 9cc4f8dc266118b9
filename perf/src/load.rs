//! The closed-loop load: client threads that each keep `burst` requests in
//! flight against a [`Server`] and block in `Ticket::wait` for all of them
//! before sending the next burst. A slow server therefore receives less
//! load; the loop is closed and the client count is stated with every
//! result.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec::core::Recommendation;
use semrec::datagen::Zipf;
use semrec::serve::Server;
use semrec::AgentId;

use crate::layers;
use crate::trace::Tracer;

/// Client threads driving load. With the server's two workers blocked
/// clients never make more than two threads runnable.
pub const CLIENTS: usize = 2;

/// Every this-many-th answered request of a client is kept for checking.
pub const SAMPLE_EVERY: u64 = 64;

/// Latency samples a client can hold (4 MB), several times what any
/// workload fills today, so the harness's memory stays bounded whatever the
/// program's speed; past it requests are still counted and checked, and
/// only their latencies go unrecorded.
const LATENCY_CAPACITY: usize = 1_000_000;

/// The seed of stream `stream` derived from the run's `seed`: one
/// SplitMix64 step over their combination, so neighbouring seeds and
/// neighbouring streams share no prefix.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which agents the clients ask for.
pub struct Traffic<'a> {
    pub panel: &'a [AgentId],
    /// Popularity over the panel; `None` draws uniformly.
    pub zipf: Option<&'a Zipf>,
    pub burst: usize,
    pub top_n: usize,
    /// Spans are recorded for every this-many-th burst of a traced phase.
    pub trace_every: u64,
    /// The latency of every this-many-th request is kept. Choose a number
    /// that shares no factor with `burst`, so every place in a burst is
    /// sampled alike.
    pub latency_every: u64,
}

/// A served answer kept for the correctness check.
pub struct Sample {
    pub agent: AgentId,
    pub epoch: u64,
    pub recommendations: Arc<Vec<Recommendation>>,
}

pub struct Client {
    lane: u64,
    /// This thread's spans, on the run's time axis.
    pub tr: Tracer,
    rng: StdRng,
    bursts: u64,
    pub attempted: u64,
    pub answered: u64,
    /// Refused at admission, shed, or failed in the engine.
    pub failed: u64,
    pub latencies_ns: Vec<u32>,
    pub latencies_dropped: u64,
    pub samples: Vec<Sample>,
}

impl Client {
    pub fn new(seed: u64, index: usize, tr: &Tracer) -> Client {
        let lane = index as u64 + 1;
        Client {
            lane,
            tr: tr.lane(lane),
            rng: StdRng::seed_from_u64(stream_seed(seed, index as u64)),
            bursts: 0,
            attempted: 0,
            answered: 0,
            failed: 0,
            latencies_ns: Vec::with_capacity(LATENCY_CAPACITY),
            latencies_dropped: 0,
            samples: Vec::new(),
        }
    }

    fn pick(&mut self, traffic: &Traffic<'_>) -> AgentId {
        let index = match traffic.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.random_range(0..traffic.panel.len()),
        };
        traffic.panel[index]
    }

    /// Sends `requests` requests in bursts, recording spans if `record`.
    fn drive(&mut self, server: &Server, traffic: &Traffic<'_>, requests: usize, record: bool) {
        let mut in_flight = Vec::with_capacity(traffic.burst);
        let mut remaining = requests;
        while remaining > 0 {
            let traced = record && self.bursts.is_multiple_of(traffic.trace_every);
            self.tr.set_enabled(traced);
            self.bursts += 1;
            for _ in 0..traffic.burst.min(remaining) {
                let agent = self.pick(traffic);
                self.attempted += 1;
                let request = (self.lane << 40) | self.attempted;
                let submitted = Instant::now();
                match layers::submit(server, agent, traffic.top_n) {
                    Ok(ticket) => in_flight.push((agent, request, submitted, ticket)),
                    Err(_) => self.failed += 1,
                }
                if traced {
                    self.tr.set_request(request);
                    self.tr
                        .record("serve.submit", self.tr.ns_at(submitted), self.tr.now_ns());
                }
            }
            remaining = remaining.saturating_sub(traffic.burst);
            for (agent, request, submitted, ticket) in in_flight.drain(..) {
                let waiting = Instant::now();
                let Ok(response) = layers::wait(ticket) else {
                    self.failed += 1;
                    continue;
                };
                let answered = Instant::now();
                self.answered += 1;
                if self.answered.is_multiple_of(traffic.latency_every) {
                    if self.latencies_ns.len() < self.latencies_ns.capacity() {
                        let ns = answered.duration_since(submitted).as_nanos();
                        self.latencies_ns
                            .push(u32::try_from(ns).unwrap_or(u32::MAX));
                    } else {
                        self.latencies_dropped += 1;
                    }
                }
                if traced {
                    self.tr.set_request(request);
                    let name = if response.cache_hit {
                        "serve.wait_hit"
                    } else {
                        "serve.wait_miss"
                    };
                    self.tr
                        .record(name, self.tr.ns_at(waiting), self.tr.ns_at(answered));
                }
                if self.answered.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.push(Sample {
                        agent,
                        epoch: response.epoch,
                        recommendations: response.recommendations,
                    });
                }
            }
        }
    }
}

/// Runs every client on its own thread for `per_client` requests each,
/// recording spans if `record`; returns the wall time from the common
/// start to the last client's return.
pub fn run_clients(
    server: &Server,
    clients: &mut [Client],
    traffic: &Traffic<'_>,
    per_client: usize,
    record: bool,
) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || client.drive(server, traffic, per_client, record));
        }
    });
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, stream: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, stream));
        (0..8).map(|_| rng.random()).collect()
    }

    #[test]
    fn client_streams_are_reproducible_and_disjoint() {
        assert_eq!(draws(42, 0), draws(42, 0));
        let streams = [
            draws(42, 0),
            draws(42, 1),
            draws(43, 0),
            draws(43, 1),
            draws(42, u64::MAX),
        ];
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert!(a.iter().all(|x| !b.contains(x)), "streams share a draw");
            }
        }
        // Seed s stream 1 must not collide with seed s+1 stream 0, which a
        // plain `seed + stream` derivation would do.
        assert_ne!(stream_seed(42, 1), stream_seed(43, 0));
    }

    #[test]
    fn a_client_asks_for_the_same_agents_on_every_run() {
        let panel: Vec<AgentId> = (0..50).map(AgentId::from_index).collect();
        let zipf = Zipf::new(panel.len(), 1.1);
        let traffic = Traffic {
            panel: &panel,
            zipf: Some(&zipf),
            burst: 4,
            top_n: 10,
            trace_every: 1,
            latency_every: 1,
        };
        let picks = |index| {
            let mut client = Client::new(7, index, &Tracer::new(false));
            (0..32).map(|_| client.pick(&traffic)).collect::<Vec<_>>()
        };
        assert_eq!(picks(0), picks(0));
        assert_ne!(picks(0), picks(1));
    }
}
