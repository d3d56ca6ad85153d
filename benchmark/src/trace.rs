//! Spans recorded from outside the program, around the calls into each
//! layer: kept in memory while the run measures, written out at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
/// Parent of the top-level spans.
pub const ROOT: SpanId = 0;

pub struct Span {
    pub name: String,
    pub id: SpanId,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished interval; ids are 1-based positions.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            name: name.into(),
            id,
            parent,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is set by [`Tracer::close`]; for intervals
    /// that contain other spans.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.push(name, parent, now, now)
    }

    pub fn span_start(&self, id: SpanId) -> u64 {
        self.spans[id as usize - 1].start_ns
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Times one call into a layer as a span; returns its result and the
    /// span's duration in milliseconds.
    pub fn call<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, parent, start, end);
        (out, (end - start) as f64 / 1e6)
    }

    /// Self time per span: its duration minus the part of it its child
    /// spans cover (children of one parent do not overlap here: a lane
    /// sends one request at a time).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize - 1];
                let overlap = s
                    .end_ns
                    .min(p.end_ns)
                    .saturating_sub(s.start_ns.max(p.start_ns));
                covered[s.parent as usize - 1] += overlap;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}{sep}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut t = Tracer::new();
        let phase = t.push("phase", ROOT, 0, 1000);
        let req = t.push("request", phase, 100, 600);
        t.push("connect", req, 150, 200);
        t.push("ttfb", req, 200, 550);
        // A child that outlives its parent only counts where they overlap.
        t.push("body_read", req, 550, 700);
        assert_eq!(t.self_times_ns(), [500, 50, 50, 350, 150]);
        let (value, ms) = t.call("direct", ROOT, || 7);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert_eq!(t.len(), 6);
    }
}
