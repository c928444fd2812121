//! Sketch-plane conformance: the pre-folded partials shipped on flush
//! must equal a brute-force re-fold of the raw records — for every
//! ledger entry, at every tier, after every flush epoch — and a
//! warm-sketch answer after eviction must match the pre-eviction answer.
//!
//! This is the load-bearing check behind both halves of the plane: if a
//! flush ever ships a partial that disagrees with its batch, or a relay
//! drops/doubles a bucket, the receiving tier's ledger diverges from its
//! own archive and the entry-wise oracle fails naming the exact
//! `(section, type, bucket)`.

use std::collections::{HashMap, HashSet};

use f2c_aggregate::sketch::SketchKey;
use f2c_core::{F2cCity, F2cNode};
use f2c_query::model::{absorb_record, AggPartial};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scc_dlc::DataRecord;
use scc_sensors::{ReadingGenerator, SensorType};

/// Every record resident anywhere in the hierarchy, deduplicated across
/// tiers by (sensor, creation time) — the cloud is permanent, so this
/// union also covers records the fog tiers have evicted.
fn hierarchy_records(city: &F2cCity) -> Vec<DataRecord> {
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut out = Vec::new();
    let mut gather = |store: &f2c_core::TieredStore| {
        for rec in store.range(0, u64::MAX) {
            let key = (
                rec.reading().sensor().seed_material(),
                rec.descriptor().created_s(),
            );
            if seen.insert(key) {
                out.push(rec.clone());
            }
        }
    };
    for s in 0..city.section_count() {
        gather(city.fog1(s).store());
    }
    for d in 0..city.district_count() {
        gather(city.fog2(d).store());
    }
    gather(city.cloud().store());
    out
}

/// Brute-force re-fold of the deduplicated raw stream, keyed the way the
/// ledgers key their buckets.
fn brute_folds(records: &[DataRecord], bucket_s: u64) -> HashMap<SketchKey, AggPartial> {
    let mut folds: HashMap<SketchKey, AggPartial> = HashMap::new();
    for rec in records {
        let Some(section) = rec.descriptor().section() else {
            continue;
        };
        let created = rec.descriptor().created_s();
        let key = SketchKey {
            section,
            ty: rec.sensor_type(),
            bucket_start_s: created - created % bucket_s,
        };
        absorb_record(folds.entry(key).or_default(), rec);
    }
    folds
}

/// Asserts every ledger entry of `node` equals the brute-force fold of
/// the raw stream for its key, every field exactly.
fn assert_ledger_matches(
    node: &F2cNode,
    truth: &HashMap<SketchKey, AggPartial>,
) -> Result<(), TestCaseError> {
    let ledger = node.sketches();
    prop_assert_eq!(
        ledger.crc_failures(),
        0,
        "{}: corrupt shipments",
        node.label()
    );
    for key in ledger.keys() {
        let (entry, _epoch) = ledger.entry(key).expect("iterated key resolves");
        let want = truth.get(key);
        let want_count = want.map_or(0, AggPartial::count);
        prop_assert_eq!(
            entry.count(),
            want_count,
            "{}: count drift at {:?}",
            node.label(),
            key
        );
        if let Some(want) = want {
            prop_assert_eq!(entry, want, "{}: drift at {:?}", node.label(), key);
        }
    }
    Ok(())
}

/// After a settle, the ledger must also be *complete* below its seal
/// frontier: every brute-force bucket of a section, sealed and not yet
/// compacted away, has an entry.
fn assert_ledger_complete(
    node: &F2cNode,
    truth: &HashMap<SketchKey, AggPartial>,
    sections: &[u16],
) -> Result<(), TestCaseError> {
    let ledger = node.sketches();
    for (key, want) in truth {
        if !sections.contains(&key.section) || want.count() == 0 {
            continue;
        }
        let sealed = ledger.sealed_through(key.section);
        let bucket_end = key.bucket_start_s + ledger.bucket_s();
        if bucket_end <= sealed && key.bucket_start_s >= ledger.evicted_before_s() {
            prop_assert!(
                ledger.entry(key).is_some(),
                "{}: sealed bucket {:?} missing from the ledger",
                node.label(),
                key
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The write-path oracle: ingest random waves at random sections,
    /// flush at random instants (every flush is one epoch), optionally
    /// age past fog retention — after each epoch, every tier's ledger
    /// entries equal the brute-force re-fold, and after the final settle
    /// each tier is complete below its seal frontier.
    #[test]
    fn shipped_partials_equal_brute_force_refold_at_every_tier(
        seed in 0u64..10_000,
        sections in proptest::collection::vec(0usize..73, 1..4),
        waves in 2u64..6,
        flushes in 1usize..4,
        age_days in 0u64..3,
    ) {
        let mut city = F2cCity::barcelona().unwrap();
        let mut gens: Vec<ReadingGenerator> = sections
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let ty = SensorType::ALL[(seed as usize + i * 5) % SensorType::ALL.len()];
                ReadingGenerator::for_population(ty, 6, seed ^ (s as u64) << 8)
            })
            .collect();
        let bucket_s = f2c_core::SKETCH_BUCKET_S;
        let mut now = 0;
        for f in 0..flushes as u64 {
            for w in 0..waves {
                let t = (f * waves + w) * 600;
                for (i, &s) in sections.iter().enumerate() {
                    city.ingest(s, gens[i].wave(t), t + 1).unwrap();
                }
                now = t + 600;
            }
            city.flush_all(now).unwrap();
            // Epoch-wise check: the ledgers never drift, mid-stream
            // included.
            let truth = brute_folds(&hierarchy_records(&city), bucket_s);
            for &s in &sections {
                assert_ledger_matches(city.fog1(s), &truth)?;
            }
            for d in 0..city.district_count() {
                assert_ledger_matches(city.fog2(d), &truth)?;
            }
            assert_ledger_matches(city.cloud(), &truth)?;
        }
        if age_days > 0 {
            now = age_days * 86_400;
            city.flush_all(now).unwrap();
        }
        // Final settle: everything pending has flushed, so each tier is
        // also *complete* below its seal frontier — even where the raw
        // records have been evicted (the compaction-survival guarantee).
        let truth = brute_folds(&hierarchy_records(&city), bucket_s);
        let all: Vec<u16> = (0..city.section_count() as u16).collect();
        for &s in &sections {
            assert_ledger_matches(city.fog1(s), &truth)?;
            assert_ledger_complete(city.fog1(s), &truth, &[s as u16])?;
        }
        for d in 0..city.district_count() {
            assert_ledger_matches(city.fog2(d), &truth)?;
            let members: Vec<u16> = city
                .sections_in_district(d)
                .iter()
                .map(|&s| s as u16)
                .collect();
            assert_ledger_complete(city.fog2(d), &truth, &members)?;
        }
        assert_ledger_matches(city.cloud(), &truth)?;
        assert_ledger_complete(city.cloud(), &truth, &all)?;
    }
}
