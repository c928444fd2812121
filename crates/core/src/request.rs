//! Data-access latency: the §IV.D comparison between reading just-collected
//! data at fog layer 1 and reading it from a centralized cloud.
//!
//! The centralized read pays the "two times data transfer through the same
//! path" penalty: the datum first travels edge→cloud to be classified and
//! stored, and the consumer then reads it cloud→edge.

use citysim::barcelona::BarcelonaTopology;
use citysim::time::{Duration, SimTime};

use crate::Result;

/// Outcome of one simulated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Time from request to last byte.
    pub latency: Duration,
    /// Bytes that crossed metered network links for this access.
    pub network_bytes: u64,
}

/// Simulates read paths over the Barcelona topology.
#[derive(Debug)]
pub struct AccessSimulator {
    city: BarcelonaTopology,
    request_bytes: u64,
}

impl AccessSimulator {
    /// A simulator over `city`; requests are `request_bytes` (headers etc.).
    pub fn new(city: BarcelonaTopology) -> Self {
        Self {
            city,
            request_bytes: 200,
        }
    }

    /// F2C real-time read: consumer and datum are both at the section's
    /// fog-1 node, so the access is one edge RTT plus local transfer.
    pub fn realtime_read_f2c(&mut self, _section: usize, bytes: u64) -> AccessOutcome {
        let profile = *self.city.profile();
        let rtt = Duration::from_micros(profile.sensor_to_fog1.as_micros() * 2);
        // Local serving link: fog-node internal bandwidth, taken as the
        // fog1-neighbor bandwidth class.
        let link = citysim::Link::new(Duration::ZERO, profile.fog1_neighbor.1);
        AccessOutcome {
            latency: rtt + link.transfer_time(bytes),
            network_bytes: 0, // never leaves the fog node
        }
    }

    /// Centralized real-time read: the just-generated datum must first be
    /// uploaded section→cloud, then the consumer downloads it cloud→section
    /// — two transfers over the same path (§IV.D).
    ///
    /// # Errors
    ///
    /// Propagates network errors (outages injected by failure plans).
    pub fn realtime_read_centralized(
        &mut self,
        section: usize,
        bytes: u64,
    ) -> Result<AccessOutcome> {
        let fog1 = self.city.fog1_nodes()[section];
        let cloud = self.city.cloud();
        let edge_rtt = {
            let p = self.city.profile();
            Duration::from_micros(p.sensor_to_fog1.as_micros() * 2)
        };
        let before = self.city.network().meter().total_bytes();
        let net = self.city.network_mut();
        // Upload the datum, then request + download.
        let up = net.send(fog1, cloud, bytes, SimTime::ZERO)?;
        let req = net.send(fog1, cloud, self.request_bytes, up.arrival)?;
        let down = net.send(cloud, fog1, bytes, req.arrival)?;
        let after = self.city.network().meter().total_bytes();
        Ok(AccessOutcome {
            latency: edge_rtt + down.arrival.since(SimTime::ZERO),
            network_bytes: after - before,
        })
    }

    /// Historical read under F2C: the consumer at `section` fetches
    /// archived data from the cloud (request up, payload down).
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn historical_read_f2c(&mut self, section: usize, bytes: u64) -> Result<AccessOutcome> {
        let fog1 = self.city.fog1_nodes()[section];
        let cloud = self.city.cloud();
        let before = self.city.network().meter().total_bytes();
        let d = self.city.network_mut().request_response(
            fog1,
            cloud,
            self.request_bytes,
            bytes,
            SimTime::ZERO,
        )?;
        let after = self.city.network().meter().total_bytes();
        Ok(AccessOutcome {
            latency: d.arrival.since(SimTime::ZERO),
            network_bytes: after - before,
        })
    }

    /// Recent read under F2C: fetched from the district's fog-2 node.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn recent_read_f2c(&mut self, section: usize, bytes: u64) -> Result<AccessOutcome> {
        let fog1 = self.city.fog1_nodes()[section];
        let fog2 = self.city.parent_of(section);
        let before = self.city.network().meter().total_bytes();
        let d = self.city.network_mut().request_response(
            fog1,
            fog2,
            self.request_bytes,
            bytes,
            SimTime::ZERO,
        )?;
        let after = self.city.network().meter().total_bytes();
        Ok(AccessOutcome {
            latency: d.arrival.since(SimTime::ZERO),
            network_bytes: after - before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citysim::barcelona::LatencyProfile;

    fn sim() -> AccessSimulator {
        AccessSimulator::new(BarcelonaTopology::build(&LatencyProfile::default()))
    }

    #[test]
    fn f2c_realtime_read_is_an_edge_rtt() {
        let mut s = sim();
        let out = s.realtime_read_f2c(0, 1_000);
        // 2 × 2 ms edge latency plus negligible transfer.
        assert!(out.latency < Duration::from_millis(5));
        assert_eq!(out.network_bytes, 0);
    }

    #[test]
    fn centralized_realtime_read_pays_double_path() {
        let mut s = sim();
        let fog = s.realtime_read_f2c(0, 1_000);
        let cloud = s.realtime_read_centralized(0, 1_000).unwrap();
        // Paper claim: much faster at the fog — here more than 10×.
        assert!(
            cloud.latency.as_micros() > 10 * fog.latency.as_micros(),
            "fog {} vs cloud {}",
            fog.latency,
            cloud.latency
        );
        // Upload + request + download all crossed both WAN hops.
        assert!(cloud.network_bytes >= 2 * 2 * 1_000);
    }

    #[test]
    fn recent_read_sits_between_local_and_cloud() {
        let mut s = sim();
        let local = s.realtime_read_f2c(5, 10_000).latency;
        let recent = s.recent_read_f2c(5, 10_000).unwrap().latency;
        let historical = s.historical_read_f2c(5, 10_000).unwrap().latency;
        assert!(local < recent);
        assert!(recent < historical);
    }

    #[test]
    fn every_section_can_read() {
        let mut s = sim();
        for section in 0..73 {
            assert!(s.realtime_read_centralized(section, 100).is_ok());
        }
    }
}
