//! Access-network technologies (§I/§III of the paper): sensors reach their
//! collection point over "wired Ethernet, or wireless WiFi, 3G/4G networks,
//! or other ad-hoc low-power wide-area networks (LPWAN)". The centralized
//! architecture hauls every byte over cellular to a remote data center; the
//! F2C architecture keeps the first hop on short-range links.
//!
//! Each technology carries a transmit-energy cost, the parameter behind
//! the per-day radio-energy comparison.

/// A sensor access-network technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessTechnology {
    /// Wired Ethernet (lampposts, cabinets).
    Ethernet,
    /// Local WiFi to a nearby fog node.
    Wifi,
    /// 3G cellular to a remote collection point.
    Cellular3g,
    /// 4G/LTE cellular.
    Cellular4g,
    /// LPWAN (LoRa/Sigfox class): tiny bandwidth, tiny energy.
    Lpwan,
}

impl AccessTechnology {
    /// Transmit energy per byte, microjoules. Order-of-magnitude values
    /// from the WSN literature: cellular radios cost ~100× more per byte
    /// than short-range links, which is why §IV.D's reduced transmission
    /// length also reduces device energy.
    pub(crate) fn energy_uj_per_byte(self) -> u64 {
        match self {
            AccessTechnology::Ethernet => 1,
            AccessTechnology::Wifi => 5,
            AccessTechnology::Cellular3g => 500,
            AccessTechnology::Cellular4g => 200,
            AccessTechnology::Lpwan => 50,
        }
    }

    /// Energy (joules) to transmit `bytes`.
    pub fn transmit_energy_j(self, bytes: u64) -> f64 {
        (bytes * self.energy_uj_per_byte()) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cellular_is_the_expensive_way_to_move_a_byte() {
        let wifi = AccessTechnology::Wifi.energy_uj_per_byte();
        let g3 = AccessTechnology::Cellular3g.energy_uj_per_byte();
        let g4 = AccessTechnology::Cellular4g.energy_uj_per_byte();
        assert!(g3 > 10 * wifi);
        assert!(g4 > 10 * wifi);
        assert!(AccessTechnology::Ethernet.energy_uj_per_byte() <= wifi);
    }

    #[test]
    fn f2c_saves_radio_energy_citywide() {
        // Centralized: the full 8.58 GB/day leaves the devices over 3G.
        // F2C: the same bytes only cross a WiFi hop to the fog node.
        let daily = 8_583_503_168u64;
        let centralized = AccessTechnology::Cellular3g.transmit_energy_j(daily);
        let f2c = AccessTechnology::Wifi.transmit_energy_j(daily);
        assert!(
            centralized / f2c > 50.0,
            "3G fleet energy {centralized:.0} J vs WiFi {f2c:.0} J"
        );
        // Absolute sanity: 8.58 GB × 500 µJ/B ≈ 4.3 MJ — about 1.2 kWh/day.
        assert!((centralized - 4.29e6).abs() / 4.29e6 < 0.01);
    }

    #[test]
    fn energy_scales_linearly_with_bytes() {
        let t = AccessTechnology::Cellular4g;
        assert_eq!(t.transmit_energy_j(0), 0.0);
        assert!((t.transmit_energy_j(2_000) - 2.0 * t.transmit_energy_j(1_000)).abs() < 1e-12);
    }
}
