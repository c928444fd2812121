//! The analytic traffic model: regenerates **Table I** and **Fig. 7** of
//! the paper from the published catalog parameters.
//!
//! The model computes, per sensor type and per category, the bytes moving
//! through each layer under two architectures:
//!
//! * **Cloud (centralized, Fig. 3)** — every transaction crosses the WAN to
//!   the cloud unreduced;
//! * **F2C (Fig. 5)** — fog layer 1 receives everything, applies
//!   redundant-data elimination (per-category rates from Table I), and
//!   ships the survivors upward; fog 2 and the cloud therefore receive the
//!   reduced volume. Fig. 7 additionally applies compression to the
//!   shipped batches.
//!
//! All Table-I arithmetic is exact integer math; compression enters only in
//! the Fig. 7 rows, as a configurable ratio (the paper's measured Zip ratio
//! by default, the measured `f2c-compress` ratio in the benches).

use scc_sensors::{Catalog, Category, SensorType, TypeSpec};
use serde::Serialize;

/// The paper's measured Zip compression: 1,360,043,206 B → 295,428,463 B.
pub const PAPER_COMPRESSED_BYTES: u64 = 295_428_463;
/// See [`PAPER_COMPRESSED_BYTES`].
pub const PAPER_ORIGINAL_BYTES: u64 = 1_360_043_206;

/// One sensor-type row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Table1Row {
    /// The sensor type.
    pub ty: SensorType,
    /// Deployed sensors.
    pub sensors: u64,
    /// Bytes per transaction per sensor.
    pub tx_bytes: u64,
    /// Bytes per transaction wave arriving at the centralized cloud.
    pub wave_cloud_model: u64,
    /// Bytes per wave arriving at fog layer 1 (F2C) — equals the raw wave.
    pub wave_fog1: u64,
    /// Bytes per wave arriving at fog layer 2 after fog-1 dedup.
    pub wave_fog2: u64,
    /// Bytes per wave arriving at the cloud (F2C) — equals fog 2.
    pub wave_cloud_f2c: u64,
    /// Bytes per day per sensor.
    pub daily_per_sensor: u64,
    /// Bytes per day at fog layer 1 (raw generation).
    pub daily_fog1: u64,
    /// Bytes per day at fog layer 2 (after dedup).
    pub daily_fog2: u64,
    /// Bytes per day at the cloud (F2C).
    pub daily_cloud_f2c: u64,
}

/// Grand totals of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Table1Totals {
    /// Total sensors.
    pub sensors: u64,
    /// Total wave bytes at the centralized cloud.
    pub wave_cloud_model: u64,
    /// Total wave bytes at fog 2 / F2C cloud.
    pub wave_fog2: u64,
    /// Total daily bytes generated (fog-1 ingress; also the centralized
    /// cloud's daily ingress).
    pub daily_fog1: u64,
    /// Total daily bytes at fog 2 after dedup.
    pub daily_fog2: u64,
    /// Total daily bytes at the F2C cloud.
    pub daily_cloud_f2c: u64,
}

/// One category bar group of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig7Row {
    /// The category.
    pub category: Category,
    /// Raw daily bytes (the centralized-cloud volume).
    pub raw: u64,
    /// After redundant-data elimination at fog 1.
    pub after_dedup: u64,
    /// After dedup *and* compression — the pipeline the paper's text
    /// describes (§V.B: compression "after using data aggregation").
    pub after_dedup_and_compression: u64,
    /// Compression applied to the raw volume (no dedup) — the pipeline
    /// Fig. 7 actually plots for garbage/parking/urban. The paper's text
    /// compresses after dedup, but those three bars (0.07, 0.07 and
    /// 1.03 GB) only match compression of the raw volume, so both
    /// pipelines are reported.
    pub compressed_raw: u64,
}

/// The analytic traffic model.
///
/// # Examples
///
/// ```
/// use f2c_core::traffic::TrafficModel;
/// use scc_sensors::SensorType;
///
/// let model = TrafficModel::paper();
/// let rows = model.table1_rows();
/// let energy = rows.iter().find(|r| r.ty == SensorType::ElectricityMeter).unwrap();
/// assert_eq!(energy.wave_cloud_model, 1_555_774);
/// assert_eq!(energy.wave_fog2, 777_887);
/// assert_eq!(energy.daily_fog1, 149_354_304);
/// assert_eq!(energy.daily_cloud_f2c, 74_677_152);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficModel {
    catalog: Catalog,
    compression_ratio: f64,
}

impl TrafficModel {
    /// The paper's configuration: the Barcelona catalog and the measured
    /// Zip ratio (≈0.2172, i.e. ≈78 % reduction).
    pub fn paper() -> Self {
        Self::new(
            Catalog::barcelona(),
            PAPER_COMPRESSED_BYTES as f64 / PAPER_ORIGINAL_BYTES as f64,
        )
    }

    /// A model over `catalog` with `compression_ratio` (compressed/original).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < compression_ratio <= 1`.
    pub(crate) fn new(catalog: Catalog, compression_ratio: f64) -> Self {
        assert!(
            compression_ratio > 0.0 && compression_ratio <= 1.0,
            "compression ratio must be in (0, 1], got {compression_ratio}"
        );
        Self {
            catalog,
            compression_ratio,
        }
    }

    /// Replaces the compression ratio (e.g. with a measured one).
    pub fn with_compression_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0);
        self.compression_ratio = ratio;
        self
    }

    /// The configured compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        self.compression_ratio
    }

    fn row_for(spec: &TypeSpec) -> Table1Row {
        let cat = spec.category();
        let wave = spec.wave_bytes();
        let daily = spec.daily_bytes();
        Table1Row {
            ty: spec.sensor_type(),
            sensors: spec.sensors(),
            tx_bytes: spec.tx_bytes(),
            wave_cloud_model: wave,
            wave_fog1: wave,
            wave_fog2: cat.reduce_bytes(wave),
            wave_cloud_f2c: cat.reduce_bytes(wave),
            daily_per_sensor: spec.daily_bytes_per_sensor(),
            daily_fog1: daily,
            daily_fog2: cat.reduce_bytes(daily),
            daily_cloud_f2c: cat.reduce_bytes(daily),
        }
    }

    /// All Table I rows, in table order.
    pub fn table1_rows(&self) -> Vec<Table1Row> {
        SensorType::ALL
            .iter()
            .filter_map(|ty| self.catalog.spec(*ty))
            .map(Self::row_for)
            .collect()
    }

    /// Grand totals (the last row of Table I).
    pub fn table1_totals(&self) -> Table1Totals {
        Self::sum_rows(&self.table1_rows())
    }

    fn sum_rows(rows: &[Table1Row]) -> Table1Totals {
        Table1Totals {
            sensors: rows.iter().map(|r| r.sensors).sum(),
            wave_cloud_model: rows.iter().map(|r| r.wave_cloud_model).sum(),
            wave_fog2: rows.iter().map(|r| r.wave_fog2).sum(),
            daily_fog1: rows.iter().map(|r| r.daily_fog1).sum(),
            daily_fog2: rows.iter().map(|r| r.daily_fog2).sum(),
            daily_cloud_f2c: rows.iter().map(|r| r.daily_cloud_f2c).sum(),
        }
    }

    /// The five bar groups of Fig. 7.
    pub fn fig7_rows(&self) -> Vec<Fig7Row> {
        Category::ALL
            .iter()
            .map(|&category| {
                let raw = self.catalog.daily_bytes_in(category);
                let after_dedup = category.reduce_bytes(raw);
                Fig7Row {
                    category,
                    raw,
                    after_dedup,
                    after_dedup_and_compression: (after_dedup as f64 * self.compression_ratio)
                        .round() as u64,
                    compressed_raw: (raw as f64 * self.compression_ratio).round() as u64,
                }
            })
            .collect()
    }

    /// Daily bytes saved on the fog2→cloud path by F2C dedup alone.
    pub fn daily_dedup_savings(&self) -> u64 {
        let t = self.table1_totals();
        t.daily_fog1 - t.daily_cloud_f2c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table1_row_matches_the_paper() {
        // Exact expected values transcribed from Table I.
        // (ty, wave_cloud, wave_fog2, daily_per_sensor, daily_fog1, daily_fog2)
        use SensorType::*;
        let expected: [(SensorType, u64, u64, u64, u64, u64); 21] = [
            (
                ElectricityMeter,
                1_555_774,
                777_887,
                2_112,
                149_354_304,
                74_677_152,
            ),
            (
                ExternalAmbientConditions,
                1_555_774,
                777_887,
                2_112,
                149_354_304,
                74_677_152,
            ),
            (GasMeter, 1_555_774, 777_887, 2_112, 149_354_304, 74_677_152),
            (
                InternalAmbientConditions,
                1_555_774,
                777_887,
                2_112,
                149_354_304,
                74_677_152,
            ),
            (
                NetworkAnalyzer,
                17_113_514,
                8_556_757,
                23_232,
                1_642_897_344,
                821_448_672,
            ),
            (
                SolarThermalInstallation,
                1_555_774,
                777_887,
                2_112,
                149_354_304,
                74_677_152,
            ),
            (
                Temperature,
                1_555_774,
                777_887,
                2_112,
                149_354_304,
                74_677_152,
            ),
            (NoiseAmbient, 220_000, 55_000, 768, 7_680_000, 1_920_000),
            (
                NoiseTrafficZone,
                220_000,
                55_000,
                31_680,
                316_800_000,
                79_200_000,
            ),
            (
                NoiseLeisureZone,
                220_000,
                55_000,
                31_680,
                316_800_000,
                79_200_000,
            ),
            (
                ContainerGlass,
                2_000_000,
                600_000,
                1_800,
                72_000_000,
                21_600_000,
            ),
            (
                ContainerOrganic,
                2_000_000,
                600_000,
                1_800,
                72_000_000,
                21_600_000,
            ),
            (
                ContainerPaper,
                2_000_000,
                600_000,
                1_800,
                72_000_000,
                21_600_000,
            ),
            (
                ContainerPlastic,
                2_000_000,
                600_000,
                1_800,
                72_000_000,
                21_600_000,
            ),
            (
                ContainerRefuse,
                2_000_000,
                600_000,
                1_800,
                72_000_000,
                21_600_000,
            ),
            (
                ParkingSpot,
                3_200_000,
                1_920_000,
                4_000,
                320_000_000,
                192_000_000,
            ),
            (
                AirQuality,
                5_760_000,
                4_032_000,
                13_824,
                552_960_000,
                387_072_000,
            ),
            (
                BicycleFlow,
                880_000,
                616_000,
                3_168,
                126_720_000,
                88_704_000,
            ),
            (PeopleFlow, 880_000, 616_000, 3_168, 126_720_000, 88_704_000),
            (
                Traffic,
                1_760_000,
                1_232_000,
                63_360,
                2_534_400_000,
                1_774_080_000,
            ),
            (
                Weather,
                4_800_000,
                3_360_000,
                34_560,
                1_382_400_000,
                967_680_000,
            ),
        ];
        let rows = TrafficModel::paper().table1_rows();
        assert_eq!(rows.len(), 21);
        for (row, (ty, wave_cloud, wave_fog2, dps, daily1, daily2)) in rows.iter().zip(expected) {
            assert_eq!(row.ty, ty);
            assert_eq!(row.wave_cloud_model, wave_cloud, "{ty} wave cloud");
            assert_eq!(row.wave_fog1, wave_cloud, "{ty} wave fog1");
            assert_eq!(row.wave_fog2, wave_fog2, "{ty} wave fog2");
            assert_eq!(row.wave_cloud_f2c, wave_fog2, "{ty} wave f2c cloud");
            assert_eq!(row.daily_per_sensor, dps, "{ty} daily/sensor");
            assert_eq!(row.daily_fog1, daily1, "{ty} daily fog1");
            assert_eq!(row.daily_fog2, daily2, "{ty} daily fog2");
            assert_eq!(row.daily_cloud_f2c, daily2, "{ty} daily f2c cloud");
        }
    }

    /// Category subtotal (the "Total number" rows of Table I).
    fn category_totals(m: &TrafficModel, category: Category) -> Table1Totals {
        let rows: Vec<Table1Row> = m
            .table1_rows()
            .into_iter()
            .filter(|r| r.ty.category() == category)
            .collect();
        TrafficModel::sum_rows(&rows)
    }

    #[test]
    fn category_totals_match_the_paper() {
        let m = TrafficModel::paper();
        let energy = category_totals(&m, Category::Energy);
        assert_eq!(energy.sensors, 495_019);
        assert_eq!(energy.wave_cloud_model, 26_448_158);
        assert_eq!(energy.wave_fog2, 13_224_079);
        assert_eq!(energy.daily_fog1, 2_539_023_168);
        assert_eq!(energy.daily_fog2, 1_269_511_584);

        let noise = category_totals(&m, Category::Noise);
        assert_eq!(noise.wave_cloud_model, 660_000);
        assert_eq!(noise.wave_fog2, 165_000);
        assert_eq!(noise.daily_fog1, 641_280_000);
        assert_eq!(noise.daily_fog2, 160_320_000);

        let garbage = category_totals(&m, Category::Garbage);
        assert_eq!(garbage.wave_cloud_model, 10_000_000);
        assert_eq!(garbage.wave_fog2, 3_000_000);
        assert_eq!(garbage.daily_fog1, 360_000_000);
        assert_eq!(garbage.daily_fog2, 108_000_000);

        let parking = category_totals(&m, Category::Parking);
        assert_eq!(parking.wave_cloud_model, 3_200_000);
        assert_eq!(parking.wave_fog2, 1_920_000);
        assert_eq!(parking.daily_fog1, 320_000_000);
        assert_eq!(parking.daily_fog2, 192_000_000);

        let urban = category_totals(&m, Category::Urban);
        assert_eq!(urban.wave_cloud_model, 14_080_000);
        assert_eq!(urban.wave_fog2, 9_856_000);
        assert_eq!(urban.daily_fog1, 4_723_200_000);
        assert_eq!(urban.daily_fog2, 3_306_240_000);
    }

    #[test]
    fn grand_totals_match_the_paper() {
        let t = TrafficModel::paper().table1_totals();
        assert_eq!(t.sensors, 1_005_019);
        assert_eq!(t.wave_cloud_model, 54_388_158);
        assert_eq!(t.wave_fog2, 28_165_079);
        assert_eq!(t.daily_fog1, 8_583_503_168);
        assert_eq!(t.daily_fog2, 5_036_071_584);
        assert_eq!(t.daily_cloud_f2c, 5_036_071_584);
    }

    #[test]
    fn fig7_matches_the_papers_reported_gigabytes() {
        // Paper (Fig. 7, GB): energy 2.5→1.2→0.27 (dedup+zip),
        // noise 0.64→0.16→0.03, garbage 0.36→0.07 (zip on raw),
        // parking 0.32→0.07 (zip on raw), urban 4.7→1.03 (zip on raw).
        let rows = TrafficModel::paper().fig7_rows();
        let gb = |b: u64| b as f64 / 1e9;

        let energy = &rows[0];
        assert!((gb(energy.raw) - 2.54).abs() < 0.01);
        assert!((gb(energy.after_dedup) - 1.27).abs() < 0.01);
        assert!((gb(energy.after_dedup_and_compression) - 0.276).abs() < 0.01);

        let noise = &rows[1];
        assert!((gb(noise.raw) - 0.641).abs() < 0.001);
        assert!((gb(noise.after_dedup) - 0.160).abs() < 0.001);
        assert!((gb(noise.after_dedup_and_compression) - 0.0348).abs() < 0.001);

        let garbage = &rows[2];
        assert!((gb(garbage.compressed_raw) - 0.0782).abs() < 0.001); // paper's 0.07
        let parking = &rows[3];
        assert!((gb(parking.compressed_raw) - 0.0695).abs() < 0.001); // paper's 0.07
        let urban = &rows[4];
        assert!((gb(urban.compressed_raw) - 1.026).abs() < 0.01); // paper's 1.03
    }

    #[test]
    fn paper_compression_ratio_is_78_percent_reduction() {
        let m = TrafficModel::paper();
        let reduction = (1.0 - m.compression_ratio()) * 100.0;
        assert!((reduction - 78.28).abs() < 0.01);
    }

    #[test]
    fn dedup_savings_are_3_5_gb_per_day() {
        let m = TrafficModel::paper();
        assert_eq!(m.daily_dedup_savings(), 8_583_503_168 - 5_036_071_584);
    }

    #[test]
    fn custom_ratio_scales_fig7() {
        let half = TrafficModel::new(Catalog::barcelona(), 0.5);
        let rows = half.fig7_rows();
        assert_eq!(rows[0].compressed_raw, rows[0].raw / 2);
    }

    #[test]
    #[should_panic(expected = "compression ratio")]
    fn zero_ratio_rejected() {
        TrafficModel::new(Catalog::barcelona(), 0.0);
    }
}
