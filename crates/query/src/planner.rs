//! The layer-aware query planner: §IV.C's cost model applied to serving.
//!
//! For every query the planner enumerates the routes that *provably*
//! cover the whole window and picks the cheapest by access cost. A
//! source is provably complete for its shard when
//!
//! * its **eviction watermark** is at or before the window start (the
//!   retention business rule of §IV.B hasn't aged the data out), and
//! * everything created before the window end has **propagated** to it —
//!   checked against the pending-queue frontiers of the tiers below.
//!
//! Two route shapes exist. A **single-source** route reads one node that
//! holds the whole scope: the section's own fog-1, a same-district
//! neighbor, the fog-2 parent, a *sibling district's* fog-2 over the
//! metro ring, or the cloud. A **scatter-gather** route fans the query
//! out over the member fog-1/fog-2 nodes that each hold one shard of the
//! scope, and merges the partials at the requester's fog-2 — the §V.A
//! decomposability payoff across *nodes* instead of across time buckets.
//! City-wide scopes and windows that have not yet flushed upward are
//! only coverable this way; where both a fan-out and a cloud read are
//! possible the cost model (max over legs + per-leg merge/admission +
//! last-hop delivery, vs. one WAN round trip) decides per query.
//!
//! When recent data has aged out of fog 1 the plan falls back upward
//! (fog 2, then the cloud), mirroring the residency ladder of §IV.B —
//! unless the **sketch plane** can answer first: an *aggregate* query
//! over a bucket-aligned window that fog 1 has evicted is still provable
//! from the node's [`f2c_aggregate::sketch::SketchLedger`] of pre-folded
//! bucket partials ([`DataSource::WarmSketch`]), whose seal frontier —
//! the flush-epoch frontier of the write path — bounds the staleness:
//! the window must end at or before the last seal *and* nothing created
//! inside it may still sit in the node's pending queue (a backdated
//! ingest makes the sketch stale, and stale sketches are refused).
//! Warm sketches also join scatter-gather as per-member legs, so a
//! district shard whose raw shards are gone everywhere in the fog can
//! still contest the cloud read.
//!
//! # Example: answering an evicted window from warm sketches
//!
//! ```
//! use f2c_core::{DataSource, F2cCity};
//! use f2c_query::model::{Query, QueryKind, Scope, Selector, TimeWindow};
//! use f2c_query::planner::{plan, Choice};
//! use scc_sensors::{ReadingGenerator, SensorType};
//!
//! let mut city = F2cCity::barcelona()?;
//! let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 7);
//! city.ingest(5, gen.wave(0), 1)?;
//! city.flush_all(900)?;
//! city.flush_all(10 * 86_400)?; // both fog tiers evict the raw window
//! let query = Query {
//!     origin: 5,
//!     class: f2c_qos::ServiceClass::RealTime,
//!     selector: Selector::Type(SensorType::Traffic),
//!     scope: Scope::Section(5),
//!     window: TimeWindow::new(0, 900), // bucket-aligned
//!     kind: QueryKind::Aggregate,
//! };
//! let route = plan(&city, &query)?;
//! match route.choice {
//!     Choice::Single(p) => assert_eq!(p.source, DataSource::WarmSketch(5)),
//!     Choice::Scatter(_) => unreachable!(),
//! }
//! # Ok::<(), f2c_query::Error>(())
//! ```

use citysim::time::Duration;
use f2c_core::cost::{AccessOption, FanoutPath};
use f2c_core::{DataSource, F2cCity, FanoutLeg, Layer, TieredStore};
use f2c_obs::Json;

use crate::model::{Query, QueryKind, Scope, TimeWindow};
use crate::{Error, Result};

/// Payload size used to rank candidate sources before the answer size is
/// known. Prices serialize the answer once per link, so a route of more
/// links falls behind one of fewer as answers grow; on the default
/// profile the ranking at this size holds for answers up to ≈ 625 KB (a
/// five-hop sibling fog-2 against the cloud).
pub const NOMINAL_PAYLOAD_BYTES: u64 = 1_024;

/// A single-source serving plan: where and how the query will be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// The chosen source, relative to the requester.
    pub source: DataSource,
    /// The §IV.C access option it maps to.
    pub option: AccessOption,
    /// The architecture layer that will do the work.
    pub layer: Layer,
    /// Cost-model estimate at the nominal payload.
    pub est_cost: Duration,
}

/// One leg of a scatter-gather fan-out: a node that provably holds one
/// shard of the query's scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterLeg {
    /// The node executing this leg.
    pub node: FanoutLeg,
    /// The shard of the query's scope this leg answers for.
    pub scope: Scope,
    /// Transport path from the gather node, for pricing and latency.
    pub path: FanoutPath,
    /// The layer whose admission slot this leg occupies.
    pub layer: Layer,
    /// Whether the leg answers from the node's warm sketch ledger
    /// (pre-folded bucket partials; the raw shard may be evicted)
    /// instead of scanning its archive. Only aggregate shards are ever
    /// planned this way.
    pub via_sketch: bool,
}

/// A scatter-gather serving plan: fan out over `legs`, merge at the
/// requester's district fog-2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterPlan {
    /// The fan-out legs (disjoint shards covering the scope).
    pub legs: Vec<ScatterLeg>,
    /// District whose fog-2 node merges the partials (the requester's).
    pub gather_district: usize,
    /// Cost-model estimate at the nominal payload: max over the legs,
    /// plus per-leg merge and admission overhead, plus last-hop delivery.
    pub est_cost: Duration,
}

/// The route shape the planner chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Serve from one complete source.
    Single(QueryPlan),
    /// Fan out over per-shard legs and merge at the gather fog-2.
    Scatter(ScatterPlan),
}

impl Choice {
    /// This plan's cost estimate at the nominal payload.
    pub(crate) fn est_cost(&self) -> Duration {
        match self {
            Choice::Single(p) => p.est_cost,
            Choice::Scatter(p) => p.est_cost,
        }
    }

    /// The layer whose admission quota this plan charges first: the
    /// single source's layer, or the *gather* fog-2 of a fan-out.
    pub(crate) fn charged_layer(&self) -> Layer {
        match self {
            Choice::Single(p) => p.layer,
            Choice::Scatter(_) => Layer::Fog2,
        }
    }
}

/// The planner's decision for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The winning plan.
    pub choice: Choice,
    /// The losing shape when both a fan-out and a complete single source
    /// could serve the query. The engine may *reroute* onto it when the
    /// winner's admission quota is saturated — but only while its cost
    /// still fits the requesting class's deadline budget.
    pub fallback: Option<Choice>,
    /// Set when *both* a fan-out and the single-source cloud read could
    /// serve the query: `(scatter, cloud)` cost estimates. The engine
    /// counts these contests to report fan-out-vs-cloud win rates.
    pub contest: Option<(Duration, Duration)>,
}

impl Route {
    /// The winning plan's cost estimate.
    pub fn est_cost(&self) -> Duration {
        self.choice.est_cost()
    }
}

/// The planner's decision transcript, collected only when a caller asks
/// for an EXPLAIN (`enabled`): completeness-proof verdicts in evaluation
/// order, plus every candidate the ranking saw. A disabled capture stays
/// empty and never allocates.
#[derive(Debug, Default)]
struct Capture {
    enabled: bool,
    proofs: Vec<String>,
    candidates: Vec<Json>,
}

/// Pushes a proof line, building the string only when capturing.
fn note(cap: &mut Capture, build: impl FnOnce() -> String) {
    if cap.enabled {
        cap.proofs.push(build());
    }
}

/// The stable label + ring-hop count of an access option, for transcripts
/// a replay oracle can re-price.
fn option_parts(option: AccessOption) -> (&'static str, u64) {
    match option {
        AccessOption::Local => ("local", 0),
        AccessOption::LocalSketch => ("local-sketch", 0),
        AccessOption::Neighbor { hops } => ("neighbor", u64::from(hops)),
        AccessOption::Parent => ("parent", 0),
        AccessOption::SiblingFog2 { hops } => ("sibling-fog2", u64::from(hops)),
        AccessOption::Cloud => ("cloud", 0),
    }
}

/// Rebuilds the [`AccessOption`] a transcript candidate named. This is
/// the EXPLAIN schema's replay contract: `option` + `hops` round-trip.
pub fn option_from_parts(label: &str, hops: u64) -> Option<AccessOption> {
    let hops = hops as u32;
    match label {
        "local" => Some(AccessOption::Local),
        "local-sketch" => Some(AccessOption::LocalSketch),
        "neighbor" => Some(AccessOption::Neighbor { hops }),
        "parent" => Some(AccessOption::Parent),
        "sibling-fog2" => Some(AccessOption::SiblingFog2 { hops }),
        "cloud" => Some(AccessOption::Cloud),
        _ => None,
    }
}

fn single_candidate_json(option: AccessOption, source: DataSource, cost: Duration) -> Json {
    let (label, hops) = option_parts(option);
    let mut j = Json::obj();
    j.set("shape", Json::Str("single".to_string()));
    j.set("option", Json::Str(label.to_string()));
    j.set("hops", Json::Num(hops as f64));
    j.set("source", Json::Str(format!("{source:?}")));
    j.set("cost_us", Json::Num(cost.as_micros() as f64));
    j
}

fn scatter_candidate_json(plan: &ScatterPlan) -> Json {
    let mut j = Json::obj();
    j.set("shape", Json::Str("scatter".to_string()));
    j.set("legs", Json::Num(plan.legs.len() as f64));
    j.set(
        "sketch_legs",
        Json::Num(plan.legs.iter().filter(|l| l.via_sketch).count() as f64),
    );
    j.set("gather_district", Json::Num(plan.gather_district as f64));
    j.set("cost_us", Json::Num(plan.est_cost.as_micros() as f64));
    j
}

/// Plans `query` *and* returns the decision transcript as Json: the
/// query, every completeness proof the planner evaluated (with its
/// verdict), every candidate with its nominal-payload cost, the
/// scatter-vs-cloud contest pricing, and the chosen route. The route is
/// byte-for-byte the one [`plan`] returns; `tests` hold a replay oracle
/// to the transcript (re-pricing the candidates reproduces the choice).
///
/// # Errors
///
/// Exactly [`plan`]'s errors — an unanswerable query has no transcript.
pub fn plan_explained(city: &F2cCity, query: &Query) -> Result<(Route, Json)> {
    let mut cap = Capture {
        enabled: true,
        ..Capture::default()
    };
    let route = plan_captured(city, query, &mut cap)?;
    let mut doc = Json::obj();
    let mut q = Json::obj();
    q.set("origin", Json::Num(query.origin as f64));
    q.set("class", Json::Str(format!("{:?}", query.class)));
    q.set("selector", Json::Str(format!("{:?}", query.selector)));
    q.set("scope", Json::Str(format!("{:?}", query.scope)));
    q.set("from_s", Json::Num(query.window.from_s as f64));
    q.set("until_s", Json::Num(query.window.until_s as f64));
    q.set("kind", Json::Str(format!("{:?}", query.kind)));
    doc.set("query", q);
    doc.set(
        "proofs",
        Json::Arr(cap.proofs.into_iter().map(Json::Str).collect()),
    );
    doc.set("candidates", Json::Arr(cap.candidates));
    match route.contest {
        Some((scatter_us, cloud_us)) => {
            let mut c = Json::obj();
            c.set("scatter_us", Json::Num(scatter_us.as_micros() as f64));
            c.set("cloud_us", Json::Num(cloud_us.as_micros() as f64));
            doc.set("contest", c);
        }
        None => {
            doc.set("contest", Json::Null);
        }
    }
    let chosen = match &route.choice {
        Choice::Single(p) => {
            let (label, _) = option_parts(p.option);
            format!("single:{label}")
        }
        Choice::Scatter(s) => format!("scatter:{}", s.legs.len()),
    };
    doc.set("choice", Json::Str(chosen));
    doc.set(
        "choice_cost_us",
        Json::Num(route.est_cost().as_micros() as f64),
    );
    doc.set(
        "fallback",
        match &route.fallback {
            Some(Choice::Single(p)) => {
                let (label, _) = option_parts(p.option);
                Json::Str(format!("single:{label}"))
            }
            Some(Choice::Scatter(s)) => Json::Str(format!("scatter:{}", s.legs.len())),
            None => Json::Null,
        },
    );
    Ok((route, doc))
}

/// Whether `store` still holds every record it ever received with a
/// creation time inside the window.
fn holds_window(store: &TieredStore, w: TimeWindow) -> bool {
    w.from_s >= store.evicted_before_s()
}

/// Whether `section`'s fog-1 **sketch ledger** provably covers `w`:
/// the window is bucket-aligned, every bucket survives ledger
/// compaction, the seal frontier (the write path's flush-epoch
/// frontier — the explicit staleness bound) reaches the window end,
/// and nothing created inside the window still sits in the node's
/// pending queue. The last check is what refuses a *stale* sketch: a
/// backdated ingest lands in pending, drops the frontier below the
/// window end, and the sketch stops proving until the next flush folds
/// the straggler in.
fn warm_sketch_covers(city: &F2cCity, section: usize, w: TimeWindow) -> bool {
    let node = city.fog1(section);
    node.sketches().covers(section as u16, w.from_s, w.until_s)
        && node.store().settled_through(w.until_s)
}

/// Whether district `d`'s fog-2 node provably holds the district's whole
/// window: nothing aged out above, nothing still pending below.
fn fog2_complete(city: &F2cCity, d: usize, w: TimeWindow) -> bool {
    holds_window(city.fog2(d).store(), w)
        && city
            .sections_in_district(d)
            .iter()
            .all(|&s| city.fog1(s).store().settled_through(w.until_s))
}

/// Whether every member fog-1 node of district `d` still holds its own
/// shard of the window. Fog-1 nodes hold everything their section
/// produced (pending copies included) until retention evicts, so this
/// covers windows that have not been flushed upward yet.
fn fog1_shards_complete(city: &F2cCity, d: usize, w: TimeWindow) -> bool {
    city.sections_in_district(d)
        .iter()
        .all(|&s| holds_window(city.fog1(s).store(), w))
}

/// Whether the cloud provably holds `w` for the given districts: every
/// member fog-1 and fog-2 queue below it has settled past the window end.
fn cloud_complete(
    city: &F2cCity,
    districts: impl IntoIterator<Item = usize>,
    w: TimeWindow,
) -> bool {
    districts.into_iter().all(|d| {
        city.fog2(d).store().settled_through(w.until_s)
            && city
                .sections_in_district(d)
                .iter()
                .all(|&s| city.fog1(s).store().settled_through(w.until_s))
    })
}

/// Appends to `legs` the fan-out legs covering district `d`'s shard,
/// gathered at `gather`'s fog-2: the district fog-2 when it is provably
/// complete (one leg), else one leg per member fog-1 node, else — for
/// aggregate queries — one *warm-sketch* leg per member whose ledger
/// still covers the window (the raw shards may all be evicted). Returns
/// `false`, appending nothing, when the shard is not provably held at
/// the fog tiers.
fn district_legs(
    city: &F2cCity,
    d: usize,
    gather: usize,
    w: TimeWindow,
    kind: QueryKind,
    legs: &mut Vec<ScatterLeg>,
    cap: &mut Capture,
) -> bool {
    let hops = city.fog2_ring_hops(d, gather);
    if fog2_complete(city, d, w) {
        note(cap, || {
            format!(
                "district {d}: fog2 complete (evicted_before={} <= {}, members settled through {}) -> one fog2 leg",
                city.fog2(d).store().evicted_before_s(),
                w.from_s,
                w.until_s
            )
        });
        let path = if d == gather {
            FanoutPath::GatherLocal
        } else {
            FanoutPath::SiblingFog2 { hops }
        };
        legs.push(ScatterLeg {
            node: FanoutLeg::Fog2(d),
            scope: Scope::District(d),
            path,
            layer: Layer::Fog2,
            via_sketch: false,
        });
        return true;
    }
    let mut member_legs = |via_sketch: bool| {
        legs.extend(city.sections_in_district(d).iter().map(|&s| ScatterLeg {
            node: FanoutLeg::Fog1(s),
            scope: Scope::Section(s),
            path: FanoutPath::MemberFog1 { hops },
            layer: Layer::Fog1,
            via_sketch,
        }));
    };
    if fog1_shards_complete(city, d, w) {
        note(cap, || {
            format!(
                "district {d}: fog2 incomplete, every member fog1 holds its shard (watermarks <= {}) -> member legs",
                w.from_s
            )
        });
        member_legs(false);
        return true;
    }
    if kind == QueryKind::Aggregate
        && city
            .sections_in_district(d)
            .iter()
            .all(|&s| warm_sketch_covers(city, s, w))
    {
        // Every member's raw shard is gone, but their warm sketches all
        // still cover the window: a sketch-leg fan-out contests the
        // cloud read instead of conceding it.
        note(cap, || {
            format!(
                "district {d}: raw shards evicted, every member's sketch seal covers [{}, {}) -> warm-sketch legs",
                w.from_s, w.until_s
            )
        });
        member_legs(true);
        return true;
    }
    note(cap, || {
        format!(
            "district {d}: no provable cover at the fog tiers for [{}, {}) -> rejected",
            w.from_s, w.until_s
        )
    });
    false
}

fn scatter_plan(city: &F2cCity, legs: Vec<ScatterLeg>, gather: usize) -> ScatterPlan {
    let est_cost = city.cost_model().scatter_cost(
        legs.iter().map(|l| l.path),
        NOMINAL_PAYLOAD_BYTES,
        NOMINAL_PAYLOAD_BYTES,
    );
    ScatterPlan {
        legs,
        gather_district: gather,
        est_cost,
    }
}

/// Plans the cheapest provably-complete route for `query`.
///
/// # Errors
///
/// [`Error::BadQuery`] on invalid queries; [`Error::Unanswerable`] when
/// no reachable route provably covers the whole window (e.g. the window
/// reaches past what the hierarchy has flushed upward so far *and* some
/// fog-1 shard has already aged out).
pub fn plan(city: &F2cCity, query: &Query) -> Result<Route> {
    plan_captured(city, query, &mut Capture::default())
}

fn plan_captured(city: &F2cCity, query: &Query, cap: &mut Capture) -> Result<Route> {
    query.validated()?;
    let w = query.window;
    let origin_district = city.district_of(query.origin);
    let cost = city.cost_model();
    let mut singles: Vec<(AccessOption, DataSource, Layer)> = Vec::new();
    let mut scatter: Option<ScatterPlan> = None;
    match query.scope {
        Scope::Section(target) => {
            let td = city.district_of(target);
            let target_holds = holds_window(city.fog1(target).store(), w);
            // Section scope only needs the *target's* slice: a sibling
            // section's unflushed pendings cannot change this answer, so
            // the fog-2/cloud proofs check the target's frontier alone
            // (not the whole district's).
            let target_settled = city.fog1(target).store().settled_through(w.until_s);
            let fog2_ok = holds_window(city.fog2(td).store(), w) && target_settled;
            note(cap, || {
                format!(
                    "fog1[{target}]: eviction watermark {} vs window start {} -> {}",
                    city.fog1(target).store().evicted_before_s(),
                    w.from_s,
                    if target_holds { "holds" } else { "evicted" }
                )
            });
            note(cap, || {
                format!(
                    "fog1[{target}]: pending frontier settled through {} -> {}",
                    w.until_s,
                    if target_settled { "settled" } else { "pending" }
                )
            });
            note(cap, || {
                format!(
                    "fog2[{td}]: watermark {} and target frontier -> {}",
                    city.fog2(td).store().evicted_before_s(),
                    if fog2_ok { "complete" } else { "incomplete" }
                )
            });
            // The section's own fog-1 node holds everything the section
            // produced (pending copies included) until retention evicts.
            if target_holds {
                if target == query.origin {
                    singles.push((AccessOption::Local, DataSource::Local, Layer::Fog1));
                } else if let Some(hops) = city.ring_hops(query.origin, target) {
                    singles.push((
                        AccessOption::Neighbor { hops },
                        DataSource::Neighbor(target),
                        Layer::Fog1,
                    ));
                }
                // Cross-district fog-1 peering is not modeled; remote
                // requesters go through the target's fog-2 or the cloud.
            }
            if fog2_ok {
                if td == origin_district {
                    singles.push((AccessOption::Parent, DataSource::Parent, Layer::Fog2));
                } else {
                    let hops = city.fog2_ring_hops(origin_district, td);
                    singles.push((
                        AccessOption::SiblingFog2 { hops },
                        DataSource::RemoteFog2(td),
                        Layer::Fog2,
                    ));
                }
            }
            let cloud_ok = target_settled && city.fog2(td).store().settled_through(w.until_s);
            note(cap, || {
                format!(
                    "cloud: fog1[{target}] and fog2[{td}] frontiers settled through {} -> {}",
                    w.until_s,
                    if cloud_ok { "complete" } else { "incomplete" }
                )
            });
            if cloud_ok {
                singles.push((AccessOption::Cloud, DataSource::Cloud, Layer::Cloud));
            }
            if query.kind == QueryKind::Aggregate
                && !target_holds
                && td == origin_district
                && warm_sketch_covers(city, target, w)
            {
                note(cap, || {
                    format!(
                        "fog1[{target}]: raw evicted but sketch seal covers [{}, {}) and nothing pending -> warm sketch admitted",
                        w.from_s, w.until_s
                    )
                });
                // The raw window has aged out of the target's fog-1, but
                // its warm sketch still covers: merge pre-folded bucket
                // partials locally (or over the district ring) instead
                // of climbing to fog 2 / the cloud.
                let option = match city.ring_hops(query.origin, target) {
                    Some(hops) if hops > 0 => AccessOption::Neighbor { hops },
                    // The requester's own ledger (the district check
                    // above rules out a target off its ring).
                    _ => AccessOption::LocalSketch,
                };
                singles.push((option, DataSource::WarmSketch(target), Layer::Fog1));
            }
            if td != origin_district && !fog2_ok && target_holds {
                // A remote section whose window has not flushed upward
                // yet: relay the target's fog-1 through the requester's
                // fog-2 as a one-leg fan-out (neither the sibling fog-2
                // nor the cloud can prove completeness here).
                note(cap, || {
                    format!(
                        "fog1[{target}]: remote unflushed window -> one-leg relay through fog2[{origin_district}]"
                    )
                });
                let hops = city.fog2_ring_hops(td, origin_district);
                scatter = Some(scatter_plan(
                    city,
                    vec![ScatterLeg {
                        node: FanoutLeg::Fog1(target),
                        scope: Scope::Section(target),
                        path: FanoutPath::MemberFog1 { hops },
                        layer: Layer::Fog1,
                        via_sketch: false,
                    }],
                    origin_district,
                ));
            }
        }
        Scope::District(d) => {
            // One evaluation decides the shape: a lone fog-2 leg means
            // the district fog-2 is provably complete (serve it as a
            // single source — parent or metro-ring sibling); fog-1 legs
            // mean the window lives only at the members (scatter-gather,
            // merged at the requester's fog-2).
            let mut legs = Vec::with_capacity(city.sections_in_district(d).len());
            district_legs(city, d, origin_district, w, query.kind, &mut legs, cap);
            match legs[..] {
                // No provable cover at the fog tiers.
                [] => {}
                [ScatterLeg {
                    layer: Layer::Fog2, ..
                }] => {
                    if d == origin_district {
                        singles.push((AccessOption::Parent, DataSource::Parent, Layer::Fog2));
                    } else {
                        // A sibling district's fog-2 provably holds the
                        // window: read it over the metro ring instead of
                        // silently falling back to the cloud.
                        let hops = city.fog2_ring_hops(origin_district, d);
                        singles.push((
                            AccessOption::SiblingFog2 { hops },
                            DataSource::RemoteFog2(d),
                            Layer::Fog2,
                        ));
                    }
                }
                _ => scatter = Some(scatter_plan(city, legs, origin_district)),
            }
            let cloud_ok = cloud_complete(city, [d], w);
            note(cap, || {
                format!(
                    "cloud: district {d} frontiers settled through {} -> {}",
                    w.until_s,
                    if cloud_ok { "complete" } else { "incomplete" }
                )
            });
            if cloud_ok {
                singles.push((AccessOption::Cloud, DataSource::Cloud, Layer::Cloud));
            }
        }
        Scope::City => {
            // At most one leg per section; the walk stops at the first
            // district nothing in the fog provably covers.
            let mut legs = Vec::with_capacity(city.section_count());
            let coverable = (0..city.district_count())
                .all(|d| district_legs(city, d, origin_district, w, query.kind, &mut legs, cap));
            if coverable {
                scatter = Some(scatter_plan(city, legs, origin_district));
            }
            let cloud_ok = cloud_complete(city, 0..city.district_count(), w);
            note(cap, || {
                format!(
                    "cloud: all-district frontiers settled through {} -> {}",
                    w.until_s,
                    if cloud_ok { "complete" } else { "incomplete" }
                )
            });
            if cloud_ok {
                singles.push((AccessOption::Cloud, DataSource::Cloud, Layer::Cloud));
            }
        }
    }

    let best_single = singles
        .into_iter()
        .map(|(option, source, layer)| {
            let est_cost = cost.cost(option, NOMINAL_PAYLOAD_BYTES);
            if cap.enabled {
                cap.candidates
                    .push(single_candidate_json(option, source, est_cost));
            }
            QueryPlan {
                source,
                option,
                layer,
                est_cost,
            }
        })
        .min_by_key(|p| p.est_cost.as_micros());
    if let Some(s) = scatter.as_ref().filter(|_| cap.enabled) {
        cap.candidates.push(scatter_candidate_json(s));
    }

    // Fan-out-vs-cloud contest: only recorded when both shapes are
    // viable, which (today) only happens against the cloud — every
    // other single source implies the scope fits one fog node, where no
    // scatter plan is built.
    let contest = match (&scatter, &best_single) {
        (Some(s), Some(b)) if b.source == DataSource::Cloud => Some((s.est_cost, b.est_cost)),
        _ => None,
    };

    match (scatter, best_single) {
        (Some(s), Some(b)) => {
            let (choice, fallback) = if s.est_cost <= b.est_cost {
                (Choice::Scatter(s), Choice::Single(b))
            } else {
                (Choice::Single(b), Choice::Scatter(s))
            };
            Ok(Route {
                choice,
                fallback: Some(fallback),
                contest,
            })
        }
        (Some(s), None) => Ok(Route {
            choice: Choice::Scatter(s),
            fallback: None,
            contest,
        }),
        (None, Some(b)) => Ok(Route {
            choice: Choice::Single(b),
            fallback: None,
            contest,
        }),
        (None, None) => Err(Error::Unanswerable {
            reason: format!(
                "no route provably covers {:?}/{:?} over [{}, {}) yet",
                query.selector, query.scope, w.from_s, w.until_s
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{QueryKind, Selector};
    use scc_sensors::{ReadingGenerator, SensorType};

    fn city_with_data(section: usize, ty: SensorType, waves: u64) -> F2cCity {
        let mut city = F2cCity::barcelona().unwrap();
        let mut gen = ReadingGenerator::for_population(ty, 10, section as u64 + 1);
        for w in 0..waves {
            city.ingest(section, gen.wave(w * 900), w * 900 + 1)
                .unwrap();
        }
        city
    }

    fn q(origin: usize, scope: Scope, from: u64, until: u64) -> Query {
        Query {
            origin,
            class: f2c_qos::ServiceClass::Dashboard,
            selector: Selector::Type(SensorType::Weather),
            scope,
            window: TimeWindow::new(from, until),
            kind: QueryKind::Aggregate,
        }
    }

    fn single(route: Route) -> QueryPlan {
        match route.choice {
            Choice::Single(p) => p,
            Choice::Scatter(s) => panic!("expected a single-source plan, got scatter {s:?}"),
        }
    }

    fn scatter(route: Route) -> ScatterPlan {
        match route.choice {
            Choice::Scatter(s) => s,
            Choice::Single(p) => panic!("expected a scatter plan, got {p:?}"),
        }
    }

    #[test]
    fn local_data_plans_local() {
        let city = city_with_data(5, SensorType::Weather, 4);
        let plan = single(plan(&city, &q(5, Scope::Section(5), 0, 10_000)).unwrap());
        assert_eq!(plan.source, DataSource::Local);
        assert_eq!(plan.layer, Layer::Fog1);
    }

    #[test]
    fn neighbor_beats_cloud_for_same_district_sections() {
        let city = city_with_data(1, SensorType::Weather, 4);
        let plan = single(plan(&city, &q(0, Scope::Section(1), 0, 10_000)).unwrap());
        assert_eq!(plan.source, DataSource::Neighbor(1));
    }

    #[test]
    fn unflushed_district_window_scatters_then_parent_after_flush() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        let district = city.district_of(5);
        let query = q(5, Scope::District(district), 0, 3_000);
        // Nothing above fog 1 holds the window yet, but every member
        // fog-1 does: fan out over the members instead of failing.
        let s = scatter(plan(&city, &query).unwrap());
        assert_eq!(s.gather_district, district);
        assert_eq!(
            s.legs.len(),
            city.sections_in_district(district).len(),
            "one leg per member section"
        );
        assert!(s.legs.iter().all(|l| l.layer == Layer::Fog1));
        city.flush_all(4_000).unwrap();
        let p = single(plan(&city, &query).unwrap());
        assert_eq!(p.source, DataSource::Parent);
        assert_eq!(p.layer, Layer::Fog2);
    }

    #[test]
    fn cross_district_requester_reads_the_sibling_fog2_not_the_cloud() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        city.flush_all(4_000).unwrap();
        let district = city.district_of(5);
        // Section 70 is in Sant Martí (district 9), far from district of 5.
        assert_ne!(city.district_of(70), district);
        let p = single(plan(&city, &q(70, Scope::District(district), 0, 3_000)).unwrap());
        assert_eq!(
            p.source,
            DataSource::RemoteFog2(district),
            "a sibling fog-2 that provably holds the window must win over the cloud"
        );
        assert!(p.est_cost < city.cost_model().cost(AccessOption::Cloud, 1_024));
    }

    #[test]
    fn remote_section_windows_ride_the_fog2_ring_too() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        city.flush_all(4_000).unwrap();
        let td = city.district_of(5);
        assert_ne!(city.district_of(70), td);
        let p = single(plan(&city, &q(70, Scope::Section(5), 0, 3_000)).unwrap());
        assert_eq!(p.source, DataSource::RemoteFog2(td));
    }

    #[test]
    fn city_scope_scatters_over_all_district_fog2s_when_settled() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        city.flush_all(4_000).unwrap();
        let route = plan(&city, &q(5, Scope::City, 0, 3_000)).unwrap();
        let (s_cost, c_cost) = route.contest.expect("cloud and fan-out both viable");
        assert!(s_cost < c_cost, "all-fog2 fan-out undercuts the WAN read");
        let s = scatter(route);
        assert_eq!(s.legs.len(), 10, "one fog-2 leg per district");
        assert!(s.legs.iter().all(|l| l.layer == Layer::Fog2));
        assert_eq!(s.gather_district, city.district_of(5));
    }

    #[test]
    fn unsettled_city_scope_mixes_fog1_and_fog2_legs_and_the_cloud_is_no_rival() {
        let city = city_with_data(5, SensorType::Weather, 4);
        // Section 5's district has unflushed pendings: its shard needs
        // per-member fog-1 legs. Every other district is (vacuously)
        // complete at its fog-2. The cloud cannot prove completeness.
        let route = plan(&city, &q(5, Scope::City, 0, 3_000)).unwrap();
        assert_eq!(route.contest, None);
        let s = scatter(route);
        let members = city.sections_in_district(city.district_of(5)).len();
        let fog1_legs = s.legs.iter().filter(|l| l.layer == Layer::Fog1).count();
        let fog2_legs = s.legs.iter().filter(|l| l.layer == Layer::Fog2).count();
        assert_eq!(fog1_legs, members, "one fog-1 leg per unflushed member");
        assert_eq!(fog2_legs, 9, "every settled district serves from fog-2");
    }

    #[test]
    fn aged_out_city_window_is_served_by_the_cloud_alone() {
        let mut city = city_with_data(5, SensorType::Weather, 2);
        city.flush_all(2_000).unwrap();
        // Ten days on, both fog tiers have evicted the historic window;
        // no fan-out leg can prove completeness.
        city.flush_all(10 * 86_400).unwrap();
        let route = plan(&city, &q(5, Scope::City, 0, 2_000)).unwrap();
        assert_eq!(route.contest, None);
        let p = single(route);
        assert_eq!(p.source, DataSource::Cloud);
    }

    #[test]
    fn aged_out_fog1_falls_back_upward() {
        let mut city = city_with_data(5, SensorType::Weather, 2);
        city.flush_all(2_000).unwrap();
        // Two days in: fog-1 retention (1 day) evicts; fog-2 still holds.
        city.flush_all(2 * 86_400).unwrap();
        let p = single(plan(&city, &q(5, Scope::Section(5), 0, 2_000)).unwrap());
        assert_eq!(p.source, DataSource::Parent, "fog-1 window aged out");
        // Ten days in: fog-2 retention (7 days) evicts too; only the
        // cloud still has the historical window.
        city.flush_all(10 * 86_400).unwrap();
        let p = single(plan(&city, &q(5, Scope::Section(5), 0, 2_000)).unwrap());
        assert_eq!(p.source, DataSource::Cloud);
    }

    #[test]
    fn plans_rank_by_cost_model() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        city.flush_all(4_000).unwrap();
        let local = single(plan(&city, &q(5, Scope::Section(5), 0, 3_000)).unwrap());
        let district = city.district_of(5);
        let parent = single(plan(&city, &q(5, Scope::District(district), 0, 3_000)).unwrap());
        let sibling = single(plan(&city, &q(70, Scope::District(district), 0, 3_000)).unwrap());
        let neighbor = single(plan(&city, &q(6, Scope::Section(5), 0, 3_000)).unwrap());
        assert_eq!(neighbor.source, DataSource::Neighbor(5));
        assert!(local.est_cost < neighbor.est_cost);
        assert!(local.est_cost < parent.est_cost);
        assert!(parent.est_cost < sibling.est_cost);
        assert!(sibling.est_cost < city.cost_model().cost(AccessOption::Cloud, 1_024));
    }

    #[test]
    fn aged_out_aligned_aggregates_prefer_the_warm_sketch_over_the_parent() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        city.flush_all(3_600).unwrap();
        // Two days in: fog-1 raw evicts, fog-2 still holds — but the
        // local warm sketch beats the parent hop for aligned aggregates.
        city.flush_all(2 * 86_400).unwrap();
        let aligned = q(5, Scope::Section(5), 0, 3_600);
        let p = single(plan(&city, &aligned).unwrap());
        assert_eq!(p.source, DataSource::WarmSketch(5));
        assert_eq!(p.option, AccessOption::LocalSketch);
        assert_eq!(p.layer, Layer::Fog1);
        assert!(p.est_cost < city.cost_model().cost(AccessOption::Parent, 1_024));
        // Unaligned windows cannot slice bucket partials: raw fallback.
        let unaligned = q(5, Scope::Section(5), 0, 2_000);
        assert_eq!(
            single(plan(&city, &unaligned).unwrap()).source,
            DataSource::Parent
        );
        // Non-aggregate kinds never ride the sketch plane.
        let range = Query {
            kind: QueryKind::Range,
            ..aligned
        };
        assert_eq!(
            single(plan(&city, &range).unwrap()).source,
            DataSource::Parent
        );
    }

    #[test]
    fn fully_evicted_district_windows_scatter_over_warm_sketch_legs() {
        let mut city = city_with_data(5, SensorType::Weather, 4);
        city.flush_all(3_600).unwrap();
        // Ten days: both fog tiers' raw windows are gone; only warm
        // sketches and the cloud remain.
        city.flush_all(10 * 86_400).unwrap();
        let district = city.district_of(5);
        let route = plan(&city, &q(5, Scope::District(district), 0, 3_600)).unwrap();
        let (s_cost, c_cost) = route.contest.expect("sketch fan-out contests the cloud");
        assert!(s_cost < c_cost, "warm-sketch legs beat the WAN read");
        let s = scatter(route);
        assert!(s
            .legs
            .iter()
            .all(|l| l.via_sketch && l.layer == Layer::Fog1));
        assert_eq!(s.legs.len(), city.sections_in_district(district).len());
        // The same window as a *range* read has no sketch rescue: only
        // the cloud can serve it.
        let range = Query {
            kind: QueryKind::Range,
            ..q(5, Scope::District(district), 0, 3_600)
        };
        assert_eq!(
            single(plan(&city, &range).unwrap()).source,
            DataSource::Cloud
        );
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let city = F2cCity::barcelona().unwrap();
        assert!(matches!(
            plan(&city, &q(73, Scope::Section(0), 0, 10)),
            Err(Error::BadQuery { .. })
        ));
    }

    #[test]
    fn sibling_pendings_do_not_block_section_scope_proofs() {
        // Section 5's window is fully flushed and then ages out of
        // fog 1; a sibling section (6, same district) later ingests a
        // *backdated* reading created inside the window. The sibling's
        // pending data is section-6 data and cannot change a section-5
        // answer, so fog-2 must still prove completeness for section 5.
        let mut city = city_with_data(5, SensorType::Weather, 2);
        city.flush_all(2_000).unwrap();
        city.flush_all(2 * 86_400).unwrap(); // fog-1 evicts the window
        assert_eq!(city.district_of(5), city.district_of(6));
        let mut gen = ReadingGenerator::for_population(SensorType::Weather, 3, 7);
        city.ingest(6, gen.wave(1_500), 2 * 86_400 + 10).unwrap();
        let p = single(plan(&city, &q(5, Scope::Section(5), 0, 2_000)).unwrap());
        assert_eq!(
            p.source,
            DataSource::Parent,
            "a sibling's unflushed pendings must not make the target section unanswerable"
        );
    }

    #[test]
    fn truly_unreachable_windows_stay_unanswerable() {
        let mut city = city_with_data(5, SensorType::Weather, 2);
        // Flush, then age fog-1 out while leaving a *new* unflushed wave
        // behind: a window covering both the evicted past and the
        // pending present has no provable cover anywhere.
        city.flush_all(2_000).unwrap();
        city.flush_all(2 * 86_400).unwrap();
        let mut gen = ReadingGenerator::for_population(SensorType::Weather, 10, 99);
        city.ingest(5, gen.wave(2 * 86_400 + 10), 2 * 86_400 + 10)
            .unwrap();
        let query = q(5, Scope::Section(5), 1_000, 2 * 86_400 + 100);
        assert!(matches!(
            plan(&city, &query),
            Err(Error::Unanswerable { .. })
        ));
    }
}
