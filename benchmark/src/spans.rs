//! In-memory spans around every call the benchmark makes into the system.
//! Recorded only on traced passes, written out when the run ends.

use std::time::Instant;

/// One timed interval. `parent` 0 means none; `request` 0 means none.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
    /// Service class of a `query.serve` span, else empty.
    pub class: &'static str,
    /// How a `query.serve` span was answered, else empty.
    pub via: &'static str,
}

/// Span names the benchmark records, outermost first.
pub const PASS: &str = "pass";
pub const WAVE: &str = "wave";
pub const GENERATE: &str = "generate";
pub const INGEST: &str = "city.ingest";
pub const FLUSH: &str = "city.flush_all";
pub const SERVE: &str = "query.serve";

#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Reserves room for `spans` up front, so recording rarely reallocates.
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(spans),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            request,
            class: "",
            via: "",
        });
        id
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// If `id` is not the innermost open span (a bug in the benchmark).
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Tags the most recently opened span (a `query.serve` that just closed).
    pub fn tag_last(&mut self, class: &'static str, via: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.class = class;
            span.via = via;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of all spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of all spans called `name`: their duration minus the part
    /// their direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            ));
            if !s.class.is_empty() {
                out.push_str(&format!(",\"class\":\"{}\",\"via\":\"{}\"", s.class, s.via));
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new();
        let pass = r.open(PASS, 0);
        let wave = r.open(WAVE, 0);
        let ingest = r.open(INGEST, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(ingest);
        r.close(wave);
        let serve = r.open(SERVE, 41);
        r.close(serve);
        r.tag_last("realtime", "edge_cache");
        r.close(pass);
        let s = r.spans();
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (0, 1, 2, 1)
        );
        assert_eq!((s[3].request, s[3].via), (41, "edge_cache"));
        assert!(r.total_ns(INGEST) >= 2_000_000);
        assert!(r.self_ns(WAVE) < r.total_ns(WAVE));
        assert_eq!(
            r.self_ns(PASS),
            r.total_ns(PASS) - r.total_ns(WAVE) - r.total_ns(SERVE)
        );
        let json = f2c_obs::Json::parse(&r.to_json()).expect("spans are valid JSON");
        assert!(matches!(json, f2c_obs::Json::Arr(ref a) if a.len() == 4));
    }
}
