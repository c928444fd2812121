//! Which planning decision a request is: FNV-1a over the bytes
//! `{query:?}@{now_s}` would format to, streamed piece by piece with the
//! `Debug` names of a `Query`'s fieldless enums from tables indexed by each
//! enum's dense index. The
//! `explain_hash_streams_the_bytes_the_formatted_string_had` test ties
//! every entry to the derived `Debug`.

use f2c_qos::CLASS_COUNT;

use super::ServeCore;
use crate::model::{Query, Scope, Selector};

/// Indexed by [`ServiceClass::index`](f2c_qos::ServiceClass::index).
const CLASS_NAMES: [&str; CLASS_COUNT] = ["RealTime", "Dashboard", "CityWide", "Analytics"];
/// Indexed by `QueryKind as usize`.
const KIND_NAMES: [&str; 3] = ["Point", "Range", "Aggregate"];
/// Indexed by `Category as usize`.
const CATEGORY_NAMES: [&str; 5] = ["Energy", "Noise", "Garbage", "Parking", "Urban"];
/// Indexed by [`SensorType::ordinal`](scc_sensors::SensorType::ordinal).
const SENSOR_TYPE_NAMES: [&str; 21] = [
    "ElectricityMeter",
    "ExternalAmbientConditions",
    "GasMeter",
    "InternalAmbientConditions",
    "NetworkAnalyzer",
    "SolarThermalInstallation",
    "Temperature",
    "NoiseAmbient",
    "NoiseTrafficZone",
    "NoiseLeisureZone",
    "ContainerGlass",
    "ContainerOrganic",
    "ContainerPaper",
    "ContainerPlastic",
    "ContainerRefuse",
    "ParkingSpot",
    "AirQuality",
    "BicycleFlow",
    "PeopleFlow",
    "Traffic",
    "Weather",
];

/// A running FNV-1a hash fed text and decimal numbers.
struct Fnv(u64);

impl Fnv {
    fn text(&mut self, s: &str) {
        crate::workload::fnv1a(&mut self.0, s.as_bytes());
    }

    /// Feeds `n` as the decimal digits `Display` would write.
    fn num(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        crate::workload::fnv1a(&mut self.0, &digits[at..]);
    }
}

impl ServeCore {
    /// The deterministic identity of one `(query, instant)` planning
    /// decision, for explain-reservoir sampling and exemplar ties.
    /// Hashing the full query content plus the serve time means two
    /// shards offering the same decision produce the same key —
    /// absorption stays order-free.
    ///
    /// The key is FNV-1a over the bytes of `{query:?}@{now_s}`, and every
    /// exported explain depends on it, so those bytes are reproduced
    /// exactly — but streamed piece by piece (literal punctuation, variant
    /// names from the `*_NAMES` tables, hand-rolled decimals) instead of
    /// being driven through `core::fmt`. The
    /// `explain_hash_streams_the_bytes_the_formatted_string_had` test
    /// holds every shape of query to the formatted string.
    pub(super) fn explain_hash(query: &Query, now_s: u64) -> u64 {
        let mut h = Fnv(crate::workload::FNV_OFFSET);
        h.text("Query { origin: ");
        h.num(query.origin as u64);
        h.text(", class: ");
        h.text(CLASS_NAMES[query.class.index()]);
        h.text(", selector: ");
        match query.selector {
            Selector::Type(ty) => {
                h.text("Type(");
                h.text(SENSOR_TYPE_NAMES[ty.ordinal()]);
            }
            Selector::Category(category) => {
                h.text("Category(");
                h.text(CATEGORY_NAMES[category as usize]);
            }
        }
        h.text("), scope: ");
        match query.scope {
            Scope::Section(section) => {
                h.text("Section(");
                h.num(section as u64);
                h.text(")");
            }
            Scope::District(district) => {
                h.text("District(");
                h.num(district as u64);
                h.text(")");
            }
            Scope::City => h.text("City"),
        }
        h.text(", window: TimeWindow { from_s: ");
        h.num(query.window.from_s);
        h.text(", until_s: ");
        h.num(query.window.until_s);
        h.text(" }, kind: ");
        h.text(KIND_NAMES[query.kind as usize]);
        h.text(" }@");
        h.num(now_s);
        h.0
    }
}
