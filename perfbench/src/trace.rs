//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into each layer (never inside the program), kept in
//! memory, and written once at exit as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Microseconds since the epoch at `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record a finished span; returns its id.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        start_us: u64,
        end_us: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_us,
            end_us: end_us.max(start_us),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Lay measured durations end to end inside `parent` from `start_us`
    /// (the attribution view for phases the program reports as
    /// durations). Each child is clamped to end within the parent.
    pub fn lay(&mut self, parent: usize, mut start_us: u64, parts: &[(&str, u64)]) {
        let (op, end) = (self.spans[parent].op, self.spans[parent].end_us);
        for (name, us) in parts {
            if *us == 0 {
                continue;
            }
            let stop = (start_us + us).min(end);
            self.add(name, Some(parent), op, start_us, stop);
            start_us = stop;
        }
    }

    /// Every span's duration minus the time its direct children cover.
    pub fn self_us(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_us();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_us().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, us) in self.spans.iter().zip(self.self_us()) {
            *out.entry(s.name.clone()).or_insert(0.0) += us as f64 / 1e3;
        }
        out
    }

    /// Share (percent) of the root spans' time that layer spans' self
    /// times account for. Self time of a root, or of a span named in
    /// `wrappers` (a call that wraps layers, like `prepare`), is time no
    /// layer claims.
    pub fn layer_cover_pct(&self, wrappers: &[&str]) -> f64 {
        let (mut total, mut unattributed) = (0u64, 0u64);
        for (s, us) in self.spans.iter().zip(self.self_us()) {
            if s.parent.is_none() {
                total += s.dur_us();
            }
            if s.parent.is_none() || wrappers.contains(&s.name.as_str()) {
                unattributed += us;
            }
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * (1.0 - unattributed as f64 / total as f64)
    }

    /// Chrome trace-event JSON: complete (`ph:"X"`) events, one track per
    /// op, with the op id and parent span id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
                 \"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                accmos::telemetry::json_str(&s.name),
                s.start_us,
                s.dur_us(),
                s.op,
                s.op
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}
