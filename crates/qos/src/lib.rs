//! # f2c-qos — per-service QoS classes for the F2C hierarchy
//!
//! The paper's consumers are heterogeneous (§IV.D): real-time control
//! reads, refreshing dashboards, bulk analytics and city-wide situation
//! panels all arrive at the same fog hierarchy, but they tolerate very
//! different latencies and deserve very different treatment under
//! pressure. This crate is the policy layer that encodes that:
//!
//! * [`ServiceClass`] — the four consumer classes, with a fixed
//!   priority order (real-time ≻ dashboard ≻ city-wide ≻ analytics),
//! * [`QosPolicy`] / [`ClassPolicy`] — per-class, per-layer weighted
//!   quotas (a *guaranteed* share of each layer's in-flight cap plus a
//!   bounded right to borrow from the unreserved headroom) and a
//!   per-class *deadline budget* (the latency SLO),
//! * [`ClassLedger`] — the admission ledger enforcing the quota algebra:
//!   layer totals never exceed the cap, a class inside its guarantee is
//!   never starved by another class's borrowing, and borrow caps shrink
//!   with priority so the lowest-priority class sheds first;
//!   single-source warm-sketch reads (merges of pre-folded partials, no
//!   archive scan) admit at a policy-reduced cost — one charged slot
//!   per `QosPolicy::sketch_divisor` reads
//!   ([`ClassLedger::try_acquire_sketch`]; fan-out legs always hold one
//!   slot each so multi-slot acquisitions stay atomic),
//! * [`ShedCause`] — why a rejected query was rejected: quota pressure
//!   ([`ShedCause::Capacity`]) or a route that cannot meet the class
//!   deadline ([`ShedCause::Deadline`]).
//!
//! The query engine (`f2c-query`) threads a [`ServiceClass`] through
//! every query and acquires class-tagged slots per scatter-gather leg;
//! the workload generator stresses the ledger with diurnal load curves
//! and per-class flash crowds.
//!
//! # Example
//!
//! ```
//! use f2c_core::Layer;
//! use f2c_qos::{ClassLedger, QosPolicy, ServiceClass};
//!
//! let mut ledger = ClassLedger::new([100, 40, 10], &QosPolicy::default());
//! // An analytics fan-out takes one fog-2 slot per leg...
//! ledger.try_acquire(ServiceClass::Analytics, [0, 4, 0]).unwrap();
//! // ...but borrowing never touches the real-time guarantee.
//! assert!(ledger.guarantee(Layer::Fog2, ServiceClass::RealTime) > 0);
//! ledger.release(ServiceClass::Analytics, [0, 4, 0]);
//! assert_eq!(ledger.layer_total(Layer::Fog2), 0);
//! ```

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admission;
mod class;
mod policy;

pub use admission::{ClassLedger, ShedCause};
pub use class::{ServiceClass, CLASS_COUNT};
pub use policy::{ClassPolicy, QosPolicy};
