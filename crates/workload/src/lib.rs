//! # fw-workload
//!
//! The calibrated synthetic-world generator — the substitute for the
//! paper's proprietary inputs (the 114DNS passive-DNS feed and the live
//! population of cloud functions on nine commercial providers).
//!
//! [`World::generate`] builds, from a seed and a scale factor:
//!
//! * a simulated internet (`fw-net`) with the nine providers' ingress
//!   deployed on it (`fw-cloud`), live functions included,
//! * a passive-DNS store (`fw-dns::pdns`) holding two years of
//!   daily-aggregated resolution records whose marginals are calibrated
//!   to every number the paper reports (see [`calib`] for the citations),
//! * ground-truth metadata per function ([`WorldFunction`]) so
//!   experiments can score the pipeline's precision/recall — the pipeline
//!   itself never reads the ground truth.

pub mod calib;
mod gen;
pub mod snapshot;

pub use gen::{AbuseCase, BenignClass, FusedWorld, Truth, World, WorldConfig, WorldFunction};
pub use snapshot::{pdns_content_hash, write_snapshot, SnapshotMeta};
