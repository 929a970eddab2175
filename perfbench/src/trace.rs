//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! lily crates (a stage run, an index build, a check pass), kept in a
//! vector, and serialized once when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use lily_core::json::{array, JsonObject};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dense id, in opening order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name (`map`, `kernel.match-index`, ...).
    pub name: String,
    /// Which job the span belongs to (circuit or request label).
    pub job: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: String,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), job: String::new() }
    }

    /// Tags every span opened from now on with `job`.
    pub fn set_job(&mut self, job: &str) {
        self.job = job.to_string();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            job: self.job.clone(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`Recorder::span`], also returning the span's duration in
    /// seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[id].secs())
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds per span name.
    pub fn totals(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Total seconds of the direct children of every span named
    /// `parent` — what the enclosing span's stages account for.
    pub fn child_total(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::secs)
            .sum()
    }

    /// The span list as a JSON array.
    pub fn to_json(&self) -> String {
        array(self.spans.iter().map(|s| {
            let mut o = JsonObject::new().uint("id", s.id as u64);
            if let Some(p) = s.parent {
                o = o.uint("parent", p as u64);
            }
            o.string("name", &s.name)
                .string("job", &s.job)
                .uint("start_ns", s.start_ns)
                .uint("end_ns", s.end_ns)
                .finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut r = Recorder::new();
        r.set_job("j");
        r.span("flow", |r| {
            r.span("map", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            r.span("sta", |_| ());
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(r.total("map") >= 0.002);
        assert!(r.child_total("flow") <= r.total("flow"));
        assert!(r.to_json().contains("\"parent\":0"));
    }
}
