//! The benchmark's own seeded query stream. It mirrors the four service
//! classes' query shapes but shares no code or RNG with the program's
//! `workload` module: the program only ever receives the generated queries.

use f2c_query::{Query, QueryKind, Scope, Selector, ServiceClass, TimeWindow};
use scc_sensors::{Category, SensorType};

use crate::rng::{Fnv, SplitMix64};

/// Class shares of a request stream, in percent (sum 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub realtime: u64,
    pub dashboard: u64,
    pub analytics: u64,
    pub citywide: u64,
}

impl Mix {
    pub const NONE: Mix = Mix {
        realtime: 0,
        dashboard: 0,
        analytics: 0,
        citywide: 0,
    };

    fn draw(&self, rng: &mut SplitMix64) -> ServiceClass {
        let x = rng.below(100);
        if x < self.realtime {
            ServiceClass::RealTime
        } else if x < self.realtime + self.dashboard {
            ServiceClass::Dashboard
        } else if x < self.realtime + self.dashboard + self.analytics {
            ServiceClass::Analytics
        } else {
            ServiceClass::CityWide
        }
    }
}

#[derive(Debug)]
pub struct QueryGen {
    rng: SplitMix64,
    mix: Mix,
}

impl QueryGen {
    pub fn new(seed: u64, mix: Mix) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            mix,
        }
    }

    fn any_type(&mut self) -> Selector {
        Selector::Type(SensorType::ALL[self.rng.below(SensorType::ALL.len() as u64) as usize])
    }

    fn any_category(&mut self) -> Selector {
        Selector::Category(Category::ALL[self.rng.below(Category::ALL.len() as u64) as usize])
    }

    /// The next query, issued at `now_s` with everything created before
    /// `settled_s` already flushed to the cloud. `district_of` maps a section
    /// to its district.
    pub fn next(
        &mut self,
        now_s: u64,
        settled_s: u64,
        district_of: impl Fn(usize) -> usize,
    ) -> Query {
        let class = self.mix.draw(&mut self.rng);
        let origin = self.rng.below(73) as usize;
        let open = |back_s: u64| TimeWindow::new(now_s.saturating_sub(back_s), now_s + 1);
        let (selector, scope, window, kind) = match class {
            // Latest value of one type at the user's own section.
            ServiceClass::RealTime => (
                self.any_type(),
                Scope::Section(origin),
                open(1_800),
                QueryKind::Point,
            ),
            // 1/4 raw recent feed of the own section, 3/4 district panel over
            // the last settled hour (few distinct keys: the caches' best case).
            ServiceClass::Dashboard => {
                if self.rng.below(4) == 0 {
                    (
                        self.any_type(),
                        Scope::Section(origin),
                        open(900),
                        QueryKind::Range,
                    )
                } else {
                    (
                        self.any_category(),
                        Scope::District(district_of(origin)),
                        TimeWindow::new(settled_s.saturating_sub(3_600), settled_s),
                        QueryKind::Aggregate,
                    )
                }
            }
            // Any district, random look-back: long unaligned scans that
            // rarely repeat.
            ServiceClass::Analytics => (
                self.any_category(),
                Scope::District(self.rng.below(10) as usize),
                TimeWindow::new(self.rng.below(settled_s / 2 + 1), settled_s),
                QueryKind::Aggregate,
            ),
            // 1/5 city-wide live probe, 4/5 city panel over settled buckets
            // [settled - 900a, settled - 900b), 0 <= b < a <= 16: a few
            // thousand distinct keys against 512-entry result caches.
            ServiceClass::CityWide => {
                if self.rng.below(5) == 0 {
                    (self.any_type(), Scope::City, open(1_800), QueryKind::Point)
                } else {
                    let a = 1 + self.rng.below(16);
                    let b = self.rng.below(a);
                    let selector = if self.rng.below(2) == 0 {
                        self.any_category()
                    } else {
                        self.any_type()
                    };
                    (
                        selector,
                        Scope::City,
                        TimeWindow::new(
                            settled_s.saturating_sub(900 * a),
                            settled_s.saturating_sub(900 * b),
                        ),
                        QueryKind::Aggregate,
                    )
                }
            }
        };
        Query {
            origin,
            class,
            selector,
            scope,
            window,
            kind,
        }
    }
}

/// Folds every field of `q` into `hash`.
pub fn hash_query(hash: &mut Fnv, q: &Query) {
    hash.u64(q.origin as u64);
    hash.u64(q.class.index() as u64);
    hash.u64(match q.selector {
        Selector::Type(t) => t as u64,
        Selector::Category(c) => 100 + c as u64,
    });
    hash.u64(match q.scope {
        Scope::Section(s) => s as u64,
        Scope::District(d) => 100 + d as u64,
        Scope::City => 200,
    });
    hash.u64(q.window.from_s);
    hash.u64(q.window.until_s);
    hash.u64(q.kind as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    const E7: Mix = Mix {
        realtime: 40,
        dashboard: 40,
        analytics: 10,
        citywide: 10,
    };

    fn stream(seed: u64, n: u64) -> (u64, [u64; 4]) {
        let mut gen = QueryGen::new(seed, E7);
        let mut hash = Fnv::new();
        let mut classes = [0u64; 4];
        for i in 0..n {
            let q = gen.next(14_400 + i / 10, 14_400, |s| s / 8);
            q.validated().expect("generated queries are valid");
            classes[q.class.index()] += 1;
            hash_query(&mut hash, &q);
        }
        (hash.0, classes)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream(2017, 5_000).0, stream(2017, 5_000).0);
        assert_ne!(stream(2017, 5_000).0, stream(2018, 5_000).0);
    }

    #[test]
    fn class_mix_is_within_one_percent_of_the_stated_shares() {
        let n = 200_000;
        let (_, classes) = stream(7, n);
        for (class, share) in [
            (ServiceClass::RealTime, 40),
            (ServiceClass::Dashboard, 40),
            (ServiceClass::Analytics, 10),
            (ServiceClass::CityWide, 10),
        ] {
            let got = classes[class.index()] as f64 / n as f64 * 100.0;
            assert!((got - f64::from(share)).abs() < 1.0, "{class}: {got:.2}%");
        }
    }

    #[test]
    fn settled_aggregates_never_reach_past_the_settled_frontier() {
        let mut gen = QueryGen::new(3, E7);
        for _ in 0..20_000 {
            let q = gen.next(20_000, 14_400, |s| s / 8);
            if q.kind == QueryKind::Aggregate {
                assert!(q.window.until_s <= 14_400);
                assert!(q.window.from_s < q.window.until_s);
            }
        }
    }
}
