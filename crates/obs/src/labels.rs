//! The registry's static label set.
//!
//! Labels are `&'static str` on purpose: every label value the system emits
//! is a compile-time constant ("fog1", "realtime", "node-down", …), so a
//! label set is `Copy`, allocation-free on the hot path, and totally ordered
//! — which keeps registry iteration (and therefore every exported snapshot)
//! deterministic.

use std::fmt;

/// A static label set: at most one value per dimension, empty meaning
/// "unlabeled". Dimensions mirror what the planes actually tag their
/// numbers with — architecture layer, QoS class, city service, fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels {
    /// Architecture layer: `"fog1"`, `"fog2"`, `"cloud"`.
    pub layer: &'static str,
    /// QoS service class: `"realtime"`, `"dashboard"`, `"citywide"`,
    /// `"analytics"`.
    pub class: &'static str,
    /// City service / plane: `"flush"`, `"sketch"`, `"query"`, …
    pub service: &'static str,
    /// Fault or incident kind: `"node-down"`, `"shipment-lost"`, …
    pub kind: &'static str,
}

impl Labels {
    /// The unlabeled set.
    pub(crate) const NONE: Labels = Labels {
        layer: "",
        class: "",
        service: "",
        kind: "",
    };

    /// Starts an empty label set (builder style).
    pub fn new() -> Self {
        Self::NONE
    }

    /// Sets the layer dimension.
    pub fn layer(mut self, layer: &'static str) -> Self {
        self.layer = layer;
        self
    }

    /// Sets the QoS class dimension.
    pub fn class(mut self, class: &'static str) -> Self {
        self.class = class;
        self
    }

    /// Sets the service dimension.
    pub fn service(mut self, service: &'static str) -> Self {
        self.service = service;
        self
    }

    /// Sets the fault-kind dimension.
    pub fn kind(mut self, kind: &'static str) -> Self {
        self.kind = kind;
        self
    }

    /// Whether no dimension is set.
    pub(crate) fn is_empty(&self) -> bool {
        *self == Self::NONE
    }
}

impl fmt::Display for Labels {
    /// Canonical rendering: `{layer=fog1,class=realtime}` with dimensions
    /// in fixed order and empty ones omitted; the empty set renders as
    /// nothing. Metric keys in exports are `name` + this rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return Ok(());
        }
        let mut sep = '{';
        for (dim, value) in [
            ("layer", self.layer),
            ("class", self.class),
            ("service", self.service),
            ("kind", self.kind),
        ] {
            if !value.is_empty() {
                write!(f, "{sep}{dim}={value}")?;
                sep = ',';
            }
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_renders_as_nothing() {
        assert_eq!(Labels::new().to_string(), "");
        assert!(Labels::new().is_empty());
    }

    #[test]
    fn rendering_uses_fixed_dimension_order() {
        let l = Labels::new().kind("node-down").layer("fog2");
        assert_eq!(l.to_string(), "{layer=fog2,kind=node-down}");
        let l = Labels::new().class("realtime");
        assert_eq!(l.to_string(), "{class=realtime}");
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let a = Labels::new().layer("fog1");
        let b = Labels::new().layer("fog2");
        assert!(a < b);
        assert_eq!(a, Labels::new().layer("fog1"));
    }
}
