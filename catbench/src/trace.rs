//! In-memory span recording for the traced run.
//!
//! Each benchmark thread owns a [`Tracer`], so recording takes no lock.
//! A span carries its name, start, end, parent span and request id;
//! spans nest through the closure passed to [`Tracer::span`]. The
//! buffers are merged and written out once the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Thread tag in the top bits of every id this tracer hands out.
    tag: u64,
    next: u64,
    stack: Vec<u64>,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer { epoch, tag: (thread + 1) << 40, next: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// A fresh request id (unique across tracers sharing an epoch).
    pub fn request_id(&mut self) -> u64 {
        self.next += 1;
        self.tag | self.next
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` of request `req`; spans `f`
    /// opens become its children.
    pub fn span<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.next += 1;
        let id = self.tag | self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now();
        let out = f(self);
        let end_ns = self.now();
        self.stack.pop();
        self.spans.push(SpanRec { id, parent, req, name, start_ns, end_ns });
        out
    }
}

/// Self time of every span: its duration minus the part of it its
/// children cover (children of one span never overlap, since a thread
/// runs them one after another).
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut own: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        if s.parent != 0 {
            if let Some(p) = own.get_mut(&s.parent) {
                *p = p.saturating_sub(s.dur_ns());
            }
        }
    }
    own
}

/// Write spans as tab-separated lines to `path`.
pub fn write_tsv(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_and_self_times_subtract() {
        let mut t = Tracer::new(Instant::now(), 0);
        let req = t.request_id();
        t.span(req, "root", |t| {
            t.span(req, "child", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let child = t.spans.iter().find(|s| s.name == "child").unwrap();
        let root = t.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        let own = self_times(&t.spans);
        assert_eq!(own[&root.id], root.dur_ns() - child.dur_ns());
        assert_eq!(own[&child.id], child.dur_ns());
    }
}
