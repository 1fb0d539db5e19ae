//! Simulated network-traffic workload (paper §4.3.1).
//!
//! The paper uses a day of firewall logs from a data-hosting company
//! (≈ 100 M packets → 3,636,814 connections; lengths min 1 s, avg 54 s,
//! max 86,459 s; skewed start points — Fig. 12). That log is proprietary,
//! so this module *simulates* the generating process and then applies the
//! paper's own connection-building rule verbatim:
//!
//! 1. sessions between (client, server) pairs arrive following a diurnal
//!    start profile, with heavy-tailed (log-normal) durations and
//!    exponential packet inter-arrivals inside a session;
//! 2. packets of one (client, server) pair are grouped into *connections*
//!    by the 60-second gap rule: "Only consecutive packets whose
//!    timestamps are within a time interval [0, 60] are grouped";
//! 3. scalability sweeps sample a fraction of the packet log before
//!    building connections, exactly like the paper's 5 %–35 % samples.
//!
//! The simulator is calibrated so the connection-length marginals match
//! the published ones in shape: minimum 1 s, average a few tens of
//! seconds, maximum several orders of magnitude above the average.

use crate::distributions::{exponential, lognormal, DiurnalProfile, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tkij_temporal::collection::{CollectionId, IntervalCollection};
use tkij_temporal::interval::Interval;

/// The paper's grouping gap: packets within 60 s belong to the same
/// connection.
pub const CONNECTION_GAP: i64 = 60;

/// One logged packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Client identifier.
    pub client: u32,
    /// Server identifier.
    pub server: u32,
    /// Timestamp in seconds.
    pub ts: i64,
}

/// One connection `[client, server, start, end]` built from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// Client identifier.
    pub client: u32,
    /// Server identifier.
    pub server: u32,
    /// First packet timestamp.
    pub start: i64,
    /// Last packet timestamp.
    pub end: i64,
}

/// Traffic simulator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of distinct clients.
    pub clients: usize,
    /// Number of distinct servers.
    pub servers: usize,
    /// Number of simulated sessions.
    pub sessions: usize,
    /// Day length in seconds.
    pub day: i64,
    /// Log-space mean of session durations.
    pub len_mu: f64,
    /// Log-space std-dev of session durations (heavy tail).
    pub len_sigma: f64,
    /// Mean packet inter-arrival inside a session, seconds.
    pub packet_gap_mean: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TrafficConfig {
    /// Calibrated default: connection lengths with min 1 s, average a few
    /// tens of seconds and a max thousands of times larger, like §4.3.1.
    pub fn calibrated(sessions: usize, seed: u64) -> Self {
        TrafficConfig {
            clients: 2_000,
            servers: 200,
            sessions,
            day: 86_400,
            // mean ≈ exp(μ + σ²/2) ≈ exp(2.45 + 1.28) ≈ 42 s, median 11 s.
            len_mu: 2.45,
            len_sigma: 1.6,
            packet_gap_mean: 8.0,
            seed,
        }
    }
}

/// Generates the packet log (sorted by timestamp).
pub fn generate_packets(cfg: &TrafficConfig) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let client_dist = Zipf::new(cfg.clients, 1.1);
    let server_dist = Zipf::new(cfg.servers, 1.2);
    let diurnal = DiurnalProfile::new(cfg.day);
    let mut packets = Vec::new();
    for _ in 0..cfg.sessions {
        let client = client_dist.sample(&mut rng) as u32;
        let server = server_dist.sample(&mut rng) as u32;
        let start = diurnal.sample(&mut rng);
        let duration = lognormal(&mut rng, cfg.len_mu, cfg.len_sigma).round() as i64;
        let duration = duration.clamp(1, cfg.day - 1);
        let end = (start + duration).min(cfg.day - 1);
        // Packets inside the session. Gaps above CONNECTION_GAP split a
        // session into several connections — realistic idle periods.
        let mut t = start;
        packets.push(Packet { client, server, ts: t });
        while t < end {
            let gap = exponential(&mut rng, cfg.packet_gap_mean).ceil() as i64;
            t += gap.max(1);
            if t > end {
                // Sessions always close with a final packet at `end`.
                packets.push(Packet { client, server, ts: end });
                break;
            }
            packets.push(Packet { client, server, ts: t });
        }
        // Occasional long-lived keep-alive flows create the far tail of
        // Fig. 12b (max length ≫ average).
        if rng.gen::<f64>() < 0.001 {
            let long_end = (end + rng.gen_range(10_000i64..40_000)).min(cfg.day - 1);
            let mut t = end;
            while t < long_end {
                t += rng.gen_range(1..CONNECTION_GAP);
                packets.push(Packet { client, server, ts: t.min(long_end) });
            }
        }
    }
    packets.sort_unstable_by_key(|p| (p.ts, p.client, p.server));
    packets
}

/// Keeps each packet with probability `fraction` (the paper's "randomly
/// selected samples on the log file", 5 %–35 %).
pub fn sample_packets(packets: &[Packet], fraction: f64, seed: u64) -> Vec<Packet> {
    assert!((0.0..=1.0).contains(&fraction));
    let mut rng = StdRng::seed_from_u64(seed);
    packets.iter().copied().filter(|_| rng.gen::<f64>() < fraction).collect()
}

/// Builds connections from a packet log with the paper's 60 s gap rule.
pub fn build_connections(packets: &[Packet]) -> Vec<Connection> {
    // Group per (client, server) pair.
    let mut sorted: Vec<Packet> = packets.to_vec();
    sorted.sort_unstable_by_key(|p| (p.client, p.server, p.ts));
    let mut connections = Vec::new();
    let mut current: Option<Connection> = None;
    for p in sorted {
        match current.as_mut() {
            Some(c)
                if c.client == p.client
                    && c.server == p.server
                    && p.ts - c.end <= CONNECTION_GAP =>
            {
                c.end = p.ts;
            }
            _ => {
                if let Some(c) = current.take() {
                    connections.push(c);
                }
                current =
                    Some(Connection { client: p.client, server: p.server, start: p.ts, end: p.ts });
            }
        }
    }
    if let Some(c) = current {
        connections.push(c);
    }
    connections
}

/// Converts connections into an interval collection (ids are positional).
pub fn connections_to_collection(
    id: CollectionId,
    connections: &[Connection],
) -> IntervalCollection {
    assert!(!connections.is_empty(), "no connections to convert");
    let intervals = connections
        .iter()
        .enumerate()
        .map(|(i, c)| Interval::new_unchecked(i as u64, c.start, c.end))
        .collect();
    IntervalCollection::new(id, intervals).expect("non-empty")
}

/// End-to-end convenience: simulate, optionally sample, build connections
/// and return the collection.
pub fn traffic_collection(
    cfg: &TrafficConfig,
    fraction: f64,
    id: CollectionId,
) -> IntervalCollection {
    let packets = generate_packets(cfg);
    let sampled = if fraction >= 1.0 {
        packets
    } else {
        sample_packets(&packets, fraction, cfg.seed.wrapping_add(1))
    };
    let connections = build_connections(&sampled);
    connections_to_collection(id, &connections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_rule_splits_and_merges() {
        let packets = [
            Packet { client: 1, server: 1, ts: 0 },
            Packet { client: 1, server: 1, ts: 50 },
            Packet { client: 1, server: 1, ts: 110 }, // gap 60 → same
            Packet { client: 1, server: 1, ts: 171 }, // gap 61 → new
            Packet { client: 2, server: 1, ts: 55 },  // other pair
        ];
        let mut conns = build_connections(&packets);
        conns.sort_by_key(|c| (c.client, c.start));
        assert_eq!(
            conns,
            vec![
                Connection { client: 1, server: 1, start: 0, end: 110 },
                Connection { client: 1, server: 1, start: 171, end: 171 },
                Connection { client: 2, server: 1, start: 55, end: 55 },
            ]
        );
    }

    #[test]
    fn connection_lengths_match_paper_shape() {
        let cfg = TrafficConfig::calibrated(20_000, 4242);
        let coll = traffic_collection(&cfg, 1.0, CollectionId(0));
        let stats = coll.stats();
        assert!(stats.min_length >= 0);
        assert!(
            (10..=120).contains(&stats.avg_length),
            "avg length {} outside a plausible band around the paper's 54 s",
            stats.avg_length
        );
        assert!(
            stats.max_length > stats.avg_length * 50,
            "heavy tail expected: max {} vs avg {}",
            stats.max_length,
            stats.avg_length
        );
    }

    #[test]
    fn sampling_shrinks_connection_count() {
        let cfg = TrafficConfig::calibrated(8_000, 99);
        let packets = generate_packets(&cfg);
        let full = build_connections(&packets).len();
        let sampled = build_connections(&sample_packets(&packets, 0.2, 7)).len();
        assert!(sampled < full, "{sampled} !< {full}");
        assert!(sampled > 0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let cfg = TrafficConfig::calibrated(2_000, 5);
        let packets = generate_packets(&cfg);
        let a = sample_packets(&packets, 0.3, 11);
        let b = sample_packets(&packets, 0.3, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn collection_ids_positional() {
        let conns = vec![
            Connection { client: 9, server: 2, start: 5, end: 10 },
            Connection { client: 3, server: 4, start: 7, end: 7 },
        ];
        let coll = connections_to_collection(CollectionId(1), &conns);
        assert_eq!(coll.intervals()[0].id, 0);
        assert_eq!(coll.intervals()[1].id, 1);
    }

    #[test]
    fn packets_sorted_by_timestamp() {
        let cfg = TrafficConfig::calibrated(1_000, 17);
        let packets = generate_packets(&cfg);
        assert!(packets.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(packets.len() > 1_000, "multiple packets per session");
    }
}
