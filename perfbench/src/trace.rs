//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records a name, start and end (host nanoseconds since the
//! tracer was created), its parent span and the id of the operation it
//! belongs to. Spans stay in memory and are written out once, after the
//! run. A disabled tracer records nothing: `span` then only times the
//! call, so the untraced run pays one `Instant` pair per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation: spans opened from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (when tracing is on) that stays open until `close`.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// its host duration in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.close();
        (out, ms)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Self times in ms of every span named `name`: its duration minus
    /// the part its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let own =
                    (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&i).copied().unwrap_or(0));
                own as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.open("op");
        t.span("call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let op = t.durations("op")[0];
        let own = t.self_times("op")[0];
        let call = t.durations("call")[0];
        assert!(call >= 2.0 && own >= 0.0);
        assert!((op - own - call).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("op");
        let (v, ms) = t.span("call", || 3);
        t.close();
        assert_eq!(v, 3);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
