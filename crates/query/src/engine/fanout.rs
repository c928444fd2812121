//! How a fan-out runs: the per-leg chaos gate, then every surviving leg
//! against its shard, merged at the gather node.

use citysim::time::Duration;
use f2c_core::{ChaosSite, F2cCity, FanoutLeg, IncidentKind, TieredStore};
use f2c_obs::Site;
use scc_dlc::DataRecord;

use super::exec::{fold_aggregate, merge_warm_sketch, scan_point, scan_range};
use super::{Completeness, FoldTally, Ran, ServeCore, ServedVia, SCAN_COST_PER_RECORD_US};
use crate::cache::NodeKey;
use crate::model::{finalize, Query, QueryAnswer, QueryKind};
use crate::planner::ScatterPlan;

impl ServeCore {
    /// The per-leg chaos gate: legs whose node is crashed or unreachable
    /// from the gather node are shed from the fan-out *before* admission
    /// — degraded answers never hold slots for work that cannot run.
    /// Surviving legs still produce an exact answer over their shards;
    /// the response is annotated `Partial` so the consumer knows which
    /// fraction of the plan it covers. The survivors are left in
    /// `self.live` for [`ServeCore::run_scatter`].
    pub(super) fn live_legs(
        &mut self,
        city: &F2cCity,
        query: &Query,
        plan: &ScatterPlan,
        now_s: u64,
    ) {
        self.live.clear();
        for leg in &plan.legs {
            if city.leg_available(query.origin, leg.node, now_s) {
                self.live.push(*leg);
            } else {
                let site = match leg.node {
                    FanoutLeg::Fog1(s) => ChaosSite::Fog1(s),
                    FanoutLeg::Fog2(d) => ChaosSite::Fog2(d),
                };
                self.obs.record_incident(now_s, site, IncidentKind::LegShed);
            }
        }
        let legs_shed = (plan.legs.len() - self.live.len()) as u64;
        self.obs.metrics_mut().add(self.ids.legs_shed, legs_shed);
    }

    /// Executes every surviving leg of an admitted fan-out (the plan's
    /// legs, minus any the chaos gate shed — what
    /// [`ServeCore::live_legs`] left in `self.live`) against its shard,
    /// merges the partial results at the gather node: aggregates in the
    /// core's accumulator, points and ranges through [`crate::scatter`].
    /// Meters every transfer; `None` when one was lost in flight.
    pub(super) fn run_scatter(
        &mut self,
        city: &F2cCity,
        query: &Query,
        plan: &ScatterPlan,
        now_s: u64,
        epoch: u64,
    ) -> Option<Ran> {
        // The core's lists, borrowed for the length of the fan-out.
        let legs = std::mem::take(&mut self.live);
        // Per-leg `(node, partial bytes)`, for metering.
        let mut reports = std::mem::take(&mut self.reports);
        let mut points = std::mem::take(&mut self.points);
        let leg_count = legs.len();
        let mut visited_total = 0u64;
        let mut slowest = Duration::ZERO;
        let mut ranges = Vec::new();
        self.acc.clear();
        let mut tally = FoldTally::default();
        let mut sketch_legs = 0u64;
        let mut sketch_hits = 0u64;
        let now_us = now_s.saturating_mul(1_000_000);
        let site = Site::new("fog1", query.origin as u32);
        let exec = self.obs.tracer_mut().open(site, "query-execute", now_us);
        for leg in &legs {
            let shard = Query {
                scope: leg.scope,
                ..*query
            };
            let (store, node): (&TieredStore, NodeKey) = match leg.node {
                FanoutLeg::Fog1(s) => (city.fog1(s).store(), NodeKey::Fog1(s as u16)),
                FanoutLeg::Fog2(d) => (city.fog2(d).store(), NodeKey::Fog2(d as u16)),
            };
            let (leg_bytes, visited) = match query.kind {
                QueryKind::Point => {
                    let (point, visited) = scan_point(store, &shard);
                    points.push(point);
                    (64, visited)
                }
                QueryKind::Range => {
                    let (recs, visited) = scan_range(store, &shard);
                    let bytes = recs.iter().map(DataRecord::wire_len).sum();
                    ranges.push(recs);
                    (bytes, visited)
                }
                QueryKind::Aggregate => {
                    let visited = if leg.via_sketch {
                        // The shard's raw records are evicted; the leg
                        // ships its ledger's pre-folded partials.
                        let section = match leg.node {
                            FanoutLeg::Fog1(s) => s,
                            FanoutLeg::Fog2(_) => {
                                unreachable!("sketch legs are always fog-1 members")
                            }
                        };
                        sketch_hits += merge_warm_sketch(
                            city.fog1(section).sketches(),
                            section,
                            &shard,
                            &mut self.acc,
                        );
                        sketch_legs += 1;
                        0
                    } else {
                        fold_aggregate(
                            city,
                            store,
                            node,
                            &shard,
                            &mut self.partials,
                            &mut self.acc,
                            &mut tally,
                            epoch,
                            now_s,
                        )
                    };
                    (AGG_PARTIAL_WIRE_BYTES, visited)
                }
            };
            let leg_time = city.cost_model().leg_cost(leg.path, leg_bytes)
                + Duration::from_micros(SCAN_COST_PER_RECORD_US * visited);
            slowest = slowest.max(leg_time);
            // One span per executed leg, at the leg's own site, closed at
            // its modeled completion with the shipped bytes as attribute.
            let leg_site = match leg.node {
                FanoutLeg::Fog1(s) => Site::new("fog1", s as u32),
                FanoutLeg::Fog2(d) => Site::new("fog2", d as u32),
            };
            let span = self.obs.tracer_mut().open(leg_site, "scatter-leg", now_us);
            self.obs
                .tracer_mut()
                .close_with(span, now_us + leg_time.as_micros(), leg_bytes);
            reports.push((leg.node, leg_bytes));
            visited_total += visited;
        }
        self.apply_fold_tally(tally);
        let m = self.obs.metrics_mut();
        m.add(self.ids.sketch_legs, sketch_legs);
        m.add(self.ids.sketch_hits, sketch_hits);
        let answer = match query.kind {
            QueryKind::Point => crate::scatter::merge_points(points.drain(..)),
            QueryKind::Range => crate::scatter::merge_ranges(ranges),
            QueryKind::Aggregate => QueryAnswer::Aggregate(finalize(&self.acc)),
        };
        self.obs
            .tracer_mut()
            .close_with(exec, now_us + slowest.as_micros(), leg_count as u64);
        self.obs
            .metrics_mut()
            .add(self.ids.records_scanned, visited_total);
        let bytes = answer.response_bytes();
        let metered =
            city.meter_fanout_scratch(self.obs.net_mut(), query.origin, &reports, bytes, now_s);
        reports.clear();
        (self.live, self.reports, self.points) = (legs, reports, points);
        metered.ok()?;
        let m = self.obs.metrics_mut();
        m.inc(self.ids.scatter_served);
        m.add(self.ids.scatter_legs, leg_count as u64);
        let legs_total = plan.legs.len() as u32;
        let legs_shed = legs_total - leg_count as u32;
        let completeness = if legs_shed == 0 {
            Completeness::Complete
        } else {
            m.inc(self.ids.degraded);
            Completeness::Partial {
                legs_shed,
                legs_total,
            }
        };
        Some(Ran {
            answer,
            via: ServedVia::Scatter {
                legs: leg_count as u32,
            },
            bytes,
            busy: slowest + city.cost_model().fanout_overhead(leg_count),
            completeness,
        })
    }
}

/// Modelled, not measured: the wire size of one shipped
/// [`AggPartial`](crate::model::AggPartial), a moments + extremes
/// envelope plus the 1024-register HyperLogLog sketch.
const AGG_PARTIAL_WIRE_BYTES: u64 = 1_152;
