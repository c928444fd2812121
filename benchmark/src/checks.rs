//! Output checks, run after the timed phase. Any failure fails the run.

use f2c_core::F2cCity;
use f2c_query::{Outcome, Query, QueryAnswer, QueryEngine, QueryKind, Scope, Selector};
use scc_dlc::DataRecord;

use crate::querygen::{Mix, QueryGen};

/// Conservation on the write path: after a settling flush the cloud archive
/// holds exactly the records fog 1 stored, and no fog store has anything
/// pending.
///
/// # Errors
///
/// A description of the first violated condition.
pub fn conservation(city: &F2cCity, stored: u64) -> Result<(), String> {
    let cloud = city.cloud().store().len() as u64;
    if cloud != stored {
        return Err(format!(
            "conservation: cloud holds {cloud} records, fog 1 stored {stored}"
        ));
    }
    let pending: usize = (0..73)
        .map(|s| city.fog1(s).store().pending_len())
        .chain((0..10).map(|d| city.fog2(d).store().pending_len()))
        .sum();
    if pending != 0 {
        return Err(format!(
            "conservation: {pending} records still pending after the settling flush"
        ));
    }
    Ok(())
}

/// The oracle's own reading of a query: selector, scope and window matched
/// against the provenance tags, without `Query::matches`.
fn selects(q: &Query, rec: &DataRecord) -> bool {
    let ty = rec.sensor_type();
    let d = rec.descriptor();
    (match q.selector {
        Selector::Type(t) => t == ty,
        Selector::Category(c) => c == ty.category(),
    }) && (match q.scope {
        Scope::Section(s) => d.section() == Some(s as u16),
        Scope::District(district) => d.district() == Some(district as u16),
        Scope::City => true,
    }) && (q.window.from_s..q.window.until_s).contains(&d.created_s())
}

/// Number of settled aggregate queries compared with a brute-force scan.
pub const BRUTE_FORCE_QUERIES: usize = 256;

/// Serves [`BRUTE_FORCE_QUERIES`] seeded aggregate queries over settled
/// windows and compares `count` / `min` / `max` with a filter-scan of the
/// cloud archive, which holds every record once everything is flushed.
///
/// # Errors
///
/// The first query whose answer differs (or that was not answered).
pub fn brute_force(engine: &mut QueryEngine, seed: u64, settled_s: u64) -> Result<(), String> {
    let mix = Mix {
        realtime: 0,
        dashboard: 40,
        analytics: 30,
        citywide: 30,
    };
    let mut gen = QueryGen::new(seed ^ 2, mix);
    let now_s = settled_s + 1;
    let mut checked = 0;
    while checked < BRUTE_FORCE_QUERIES {
        let q = gen.next(now_s, settled_s, |s| engine.city().district_of(s));
        if q.kind != QueryKind::Aggregate {
            continue;
        }
        checked += 1;
        let got = match engine.serve_sync(&q, now_s) {
            Ok(Outcome::Answered(resp)) => match resp.answer {
                QueryAnswer::Aggregate(a) => a,
                other => return Err(format!("brute force: {q:?} answered {other:?}")),
            },
            other => return Err(format!("brute force: {q:?} was not answered: {other:?}")),
        };
        let (mut count, mut min, mut max) = (0u64, None::<f64>, None::<f64>);
        for rec in engine
            .city()
            .cloud()
            .store()
            .range(q.window.from_s, q.window.until_s)
        {
            if selects(&q, rec) {
                let v = rec.reading().value().magnitude();
                count += 1;
                min = Some(min.map_or(v, |m| m.min(v)));
                max = Some(max.map_or(v, |m| m.max(v)));
            }
        }
        if (got.count, got.min, got.max) != (count, min, max) {
            return Err(format!(
                "brute force: {q:?} answered count/min/max {}/{:?}/{:?}, the archive scan gives {count}/{min:?}/{max:?}",
                got.count, got.min, got.max
            ));
        }
    }
    Ok(())
}
