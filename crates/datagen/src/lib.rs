//! # tkij-datagen — workload generators for the TKIJ evaluation
//!
//! Two data sources drive the paper's experiments (§4):
//!
//! * [`synthetic`] — the uniform generator of §4.2 (startpoints in
//!   `[0, 10⁵]`, lengths in `[1, 100]`, integer endpoints);
//! * [`traffic`] — a simulator standing in for the proprietary firewall
//!   log of §4.3: packet logs with diurnal arrivals and heavy-tailed
//!   session lengths, grouped into connections with the paper's exact
//!   60-second gap rule, with packet-level sampling for the scalability
//!   sweeps. See DESIGN.md for the substitution rationale.
//!
//! [`distributions`] holds the seeded samplers. Everything is
//! deterministic given a seed.

pub mod distributions;
pub mod synthetic;
pub mod traffic;

pub use synthetic::{uniform_collection, uniform_collections, SyntheticConfig};
pub use traffic::{
    build_connections, connections_to_collection, generate_packets, sample_packets,
    traffic_collection, Connection, Packet, TrafficConfig, CONNECTION_GAP,
};
