//! The typed query model: what a city-service consumer can ask the F2C
//! hierarchy, and what it gets back.
//!
//! Queries select by sensor type or whole category, scope to one section
//! or one district, bound a half-open creation-time window, and come in
//! three shapes: **point** (latest matching observation), **range** (the
//! matching records themselves), and **aggregate** (count / extremes /
//! moments / distinct-sensor estimate, computed from mergeable partials).

use f2c_qos::ServiceClass;
use scc_dlc::DataRecord;
use scc_sensors::{Category, SensorId, SensorType};

pub use f2c_aggregate::sketch::{AggAcc, AggPartial, AggState};

use crate::{Error, Result};

/// What data a query selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Selector {
    /// One of the 21 Table-I sensor types.
    Type(SensorType),
    /// A whole Sentilo category (all its types).
    Category(Category),
}

impl Selector {
    /// Whether a record's type matches this selector.
    pub(crate) fn matches(&self, ty: SensorType) -> bool {
        match self {
            Selector::Type(t) => *t == ty,
            Selector::Category(c) => ty.category() == *c,
        }
    }
}

/// Which slice of the city a query covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Data produced in one section (one fog-1 node's catchment).
    Section(usize),
    /// Data produced anywhere in one district.
    District(usize),
    /// Data produced anywhere in the city. No single fog node holds a
    /// city-wide window; the planner serves it by scatter-gather over the
    /// member fog nodes (merged at the requester's fog-2) or by one cloud
    /// read, whichever the cost model prices cheaper.
    City,
}

/// A half-open creation-time window `[from_s, until_s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeWindow {
    /// Inclusive start (seconds).
    pub from_s: u64,
    /// Exclusive end (seconds).
    pub until_s: u64,
}

impl TimeWindow {
    /// The window `[from_s, until_s)`.
    pub fn new(from_s: u64, until_s: u64) -> Self {
        Self { from_s, until_s }
    }

    /// Whether `t` falls inside the window.
    pub(crate) fn contains(&self, t: u64) -> bool {
        self.from_s <= t && t < self.until_s
    }
}

/// The shape of the answer a query wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// The most recent matching observation in the window.
    Point,
    /// Every matching record in the window.
    Range,
    /// The mergeable aggregate bundle over the window.
    Aggregate,
}

/// One consumer query, issued from a section's fog-1 access point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// The requesting consumer's section (0..73) — where the answer must
    /// be delivered, and the origin for access-cost ranking.
    pub origin: usize,
    /// The issuing service's QoS class: selects the admission quota,
    /// shed priority and deadline budget the engine applies. It does not
    /// change what the query *answers* — two classes asking the same
    /// question share cached results.
    pub class: ServiceClass,
    /// What data to select.
    pub selector: Selector,
    /// Which slice of the city.
    pub scope: Scope,
    /// Creation-time window.
    pub window: TimeWindow,
    /// Answer shape.
    pub kind: QueryKind,
}

impl Query {
    /// Validates indices and the window.
    ///
    /// # Errors
    ///
    /// [`Error::BadQuery`] on out-of-range sections/districts or an
    /// inverted window.
    pub fn validated(&self) -> Result<()> {
        if self.origin >= 73 {
            return Err(Error::BadQuery {
                field: "origin",
                reason: format!("section {} out of range (73 sections)", self.origin),
            });
        }
        match self.scope {
            Scope::Section(s) if s >= 73 => {
                return Err(Error::BadQuery {
                    field: "scope",
                    reason: format!("section {s} out of range (73 sections)"),
                });
            }
            Scope::District(d) if d >= 10 => {
                return Err(Error::BadQuery {
                    field: "scope",
                    reason: format!("district {d} out of range (10 districts)"),
                });
            }
            Scope::Section(_) | Scope::District(_) | Scope::City => {}
        }
        if self.window.until_s < self.window.from_s {
            return Err(Error::BadQuery {
                field: "window",
                reason: format!(
                    "inverted window [{}, {})",
                    self.window.from_s, self.window.until_s
                ),
            });
        }
        Ok(())
    }

    /// Whether a stored record satisfies the selector, scope and window.
    /// Scope matching uses the provenance tags the acquisition block
    /// stamped at fog 1, so it works at every tier.
    pub fn matches(&self, record: &DataRecord) -> bool {
        self.selector.matches(record.sensor_type())
            && self.window.contains(record.descriptor().created_s())
            && match self.scope {
                Scope::Section(s) => record.descriptor().section() == Some(s as u16),
                Scope::District(d) => record.descriptor().district() == Some(d as u16),
                // Everything the hierarchy ingests is produced in the
                // city; City selects on type and window alone.
                Scope::City => true,
            }
    }
}

/// The most recent matching observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSample {
    /// Creation time of the observation.
    pub created_s: u64,
    /// Which sensor produced it.
    pub sensor: SensorId,
    /// The observation's magnitude.
    pub value: f64,
}

/// The aggregate bundle every aggregate query answers with. One pass
/// computes all of it, so repeated dashboards with different panels share
/// cached partials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateResult {
    /// Matching observations.
    pub count: u64,
    /// Sum of magnitudes.
    pub sum: f64,
    /// Mean magnitude (`None` when empty).
    pub mean: Option<f64>,
    /// Smallest magnitude.
    pub min: Option<f64>,
    /// Largest magnitude.
    pub max: Option<f64>,
    /// Population variance of the magnitudes.
    pub variance: Option<f64>,
    /// HyperLogLog estimate of distinct reporting sensors.
    pub distinct_sensors: u64,
}

/// Absorbs one stored record into an aggregate state: its magnitude
/// into the moments/extremes, its sensor identity into the distinct
/// sketch. (The states themselves live in `f2c_aggregate::sketch`,
/// shared with the write path's flush shipping — this is the
/// record-shaped door the serving side uses.)
pub fn absorb_record<A: AggState>(acc: &mut A, record: &DataRecord) {
    acc.absorb(
        record.reading().value().magnitude(),
        record.reading().sensor().seed_material(),
    );
}

/// Finalizes an aggregate state — a request's accumulator, or a lone
/// partial — into the answer bundle every aggregate query returns.
pub fn finalize<A: AggState>(state: &A) -> AggregateResult {
    let moments = state.moments();
    let minmax = state.minmax();
    AggregateResult {
        count: moments.count,
        sum: moments.sum,
        mean: moments.mean(),
        min: minmax.min,
        max: minmax.max,
        variance: moments.variance(),
        distinct_sensors: state.distinct_estimate(),
    }
}

/// What a query answers with.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Latest matching observation, if any.
    Point(Option<PointSample>),
    /// The matching records (clones — data never leaves its tier).
    Records(Vec<DataRecord>),
    /// The aggregate bundle.
    Aggregate(AggregateResult),
}

impl QueryAnswer {
    /// Approximate response payload size, for transfer-cost estimates:
    /// records at wire size, scalars at a fixed small envelope.
    pub(crate) fn response_bytes(&self) -> u64 {
        match self {
            QueryAnswer::Point(_) => 64,
            QueryAnswer::Records(recs) => recs.iter().map(DataRecord::wire_len).sum(),
            QueryAnswer::Aggregate(_) => 96,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, Value};

    fn rec(ty: SensorType, idx: u32, t: u64, v: f64) -> DataRecord {
        let mut r =
            DataRecord::from_reading(Reading::new(SensorId::new(ty, idx), t, Value::from_f64(v)));
        r.descriptor_mut().set_location("Barcelona".into(), 3, 21);
        r
    }

    fn query(selector: Selector, scope: Scope, from: u64, until: u64) -> Query {
        Query {
            origin: 21,
            class: ServiceClass::Dashboard,
            selector,
            scope,
            window: TimeWindow::new(from, until),
            kind: QueryKind::Range,
        }
    }

    #[test]
    fn selector_matches_type_and_category() {
        assert!(Selector::Type(SensorType::Traffic).matches(SensorType::Traffic));
        assert!(!Selector::Type(SensorType::Traffic).matches(SensorType::Weather));
        assert!(Selector::Category(Category::Urban).matches(SensorType::Weather));
        assert!(!Selector::Category(Category::Noise).matches(SensorType::Weather));
    }

    #[test]
    fn query_matching_uses_provenance_tags() {
        let q = query(
            Selector::Type(SensorType::Traffic),
            Scope::Section(21),
            100,
            200,
        );
        assert!(q.matches(&rec(SensorType::Traffic, 0, 150, 1.0)));
        assert!(!q.matches(&rec(SensorType::Weather, 0, 150, 1.0)), "type");
        assert!(!q.matches(&rec(SensorType::Traffic, 0, 200, 1.0)), "window");
        let elsewhere = query(
            Selector::Type(SensorType::Traffic),
            Scope::Section(5),
            100,
            200,
        );
        assert!(!elsewhere.matches(&rec(SensorType::Traffic, 0, 150, 1.0)));
        let district = query(
            Selector::Type(SensorType::Traffic),
            Scope::District(3),
            100,
            200,
        );
        assert!(district.matches(&rec(SensorType::Traffic, 0, 150, 1.0)));
    }

    #[test]
    fn validation_rejects_bad_indices_and_windows() {
        let mut q = query(
            Selector::Category(Category::Urban),
            Scope::Section(0),
            0,
            100,
        );
        assert!(q.validated().is_ok());
        q.origin = 73;
        assert!(q.validated().is_err());
        q.origin = 0;
        q.scope = Scope::District(10);
        assert!(q.validated().is_err());
        q.scope = Scope::Section(0);
        q.window = TimeWindow::new(100, 50);
        assert!(q.validated().is_err());
    }

    #[test]
    fn partial_merge_equals_flat_fold() {
        let records: Vec<DataRecord> = (0..60)
            .map(|i| {
                rec(
                    SensorType::Traffic,
                    i % 7,
                    1000 + u64::from(i),
                    f64::from(i % 13),
                )
            })
            .collect();
        let mut flat = AggPartial::empty();
        for r in &records {
            absorb_record(&mut flat, r);
        }
        let mut merged = AggPartial::empty();
        for chunk in records.chunks(11) {
            let mut part = AggPartial::empty();
            for r in chunk {
                absorb_record(&mut part, r);
            }
            merged.merge(&part);
        }
        let (a, b) = (finalize(&flat), finalize(&merged));
        assert_eq!(a.count, b.count);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert_eq!(a.distinct_sensors, b.distinct_sensors, "HLL merges exactly");
        assert!((a.sum - b.sum).abs() < 1e-9);
        assert_eq!(a.distinct_sensors, 7);
    }

    #[test]
    fn empty_partial_finalizes_to_zeroes() {
        let r = finalize(&AggPartial::empty());
        assert_eq!(r.count, 0);
        assert_eq!(r.mean, None);
        assert_eq!(r.min, None);
        assert_eq!(r.distinct_sensors, 0);
    }
}
