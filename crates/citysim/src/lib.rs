//! Discrete-event city/network simulator for the F2C reproduction.
//!
//! The paper's claims about the F2C architecture are comparative: less
//! upward traffic, lower access latency, fewer bytes over long links than a
//! centralized cloud deployment. Verifying those claims needs a network
//! substrate the experiments can run against; the paper used the real city,
//! we use this simulator.
//!
//! * [`time`] — microsecond simulation time and durations,
//! * [`event`] — deterministic event queue (FIFO tie-breaking),
//! * [`net`] — topology, links (latency + bandwidth), routing, per-link
//!   traffic metering and failure injection,
//! * [`metrics`] — counters and latency histograms,
//! * [`barcelona`] — the paper's deployment: 73 fog-1 nodes (city
//!   sections, ring-connected per district), 10 fog-2 nodes (districts,
//!   ring-connected as a metro backbone), 1 cloud (Fig. 6).
//!
//! # Quickstart
//!
//! ```
//! use citysim::barcelona::{self, BarcelonaTopology};
//! use citysim::time::SimTime;
//!
//! let mut city = BarcelonaTopology::build(&barcelona::LatencyProfile::default());
//! let fog1 = city.fog1_nodes()[0];
//! let cloud = city.cloud();
//! let delivery = city.network_mut().send(fog1, cloud, 1_500, SimTime::ZERO).unwrap();
//! assert!(delivery.arrival > SimTime::ZERO);
//! assert_eq!(delivery.hops, 2); // fog1 -> fog2 -> cloud
//! ```

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod access;
pub mod barcelona;
mod error;
pub mod event;
pub mod metrics;
pub mod net;
pub mod time;

pub use access::AccessTechnology;
pub use error::{Error, Result};
pub use event::EventQueue;
pub use metrics::Histogram;
pub use net::{Link, NetScratch, Network, NodeId, Topology};
pub use time::{Duration, SimTime};
