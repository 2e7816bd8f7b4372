//! In-memory spans of the traced run, their self times, and the trace
//! file written when the run ends.
//!
//! A span has a name (`<layer>.<call>`), a start, a duration, the op it
//! belongs to and its parent span. Spans stay in memory until the run is
//! over; then they are written once, in Chrome trace-event format, so any
//! trace viewer can open them.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use regtree_core::api::Json;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// The op this span belongs to.
    pub op: u64,
    /// `<layer>.<call>`, e.g. `core.textfd.parse_fd`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Calls of the same function covered by this span (a loop over many
    /// FD texts is one span with `calls` > 1).
    pub calls: u32,
}

/// Records spans for one client thread.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start at `first_id` (one range per thread).
    pub fn new(epoch: Instant, first_id: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
        calls: u32,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
            calls,
        });
        id
    }

    /// Starts an open span whose end is recorded by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, op, now, now, 0)
    }

    /// Ends a span started by [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        let now_ns = (Instant::now() - self.epoch).as_nanos() as u64;
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.dur_ns = now_ns - span.start_ns;
            span.calls = 1;
        }
    }
}

/// The layer a span belongs to: its name up to the last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time of every span: its duration minus the part of it covered by
/// its children.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = lo;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(hi));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns - covered.min(s.dur_ns))
        })
        .collect()
}

/// Writes `spans` as a Chrome trace-event file (one track per thread).
pub fn write_chrome_trace(path: &Path, threads: &[Vec<Span>]) -> io::Result<()> {
    let all: Vec<Span> = threads.iter().flatten().cloned().collect();
    let selfs = self_times(&all);
    let mut events = Vec::with_capacity(all.len());
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            let us = |ns: u64| Json::Num(format!("{:.3}", ns as f64 / 1e3));
            events.push(Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("cat".into(), Json::str(layer_of(s.name))),
                ("ph".into(), Json::str("X")),
                ("ts".into(), us(s.start_ns)),
                ("dur".into(), us(s.dur_ns)),
                ("pid".into(), Json::u64(1)),
                ("tid".into(), Json::usize(tid)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("op".into(), Json::u64(s.op)),
                        ("span".into(), Json::u64(s.id)),
                        ("parent".into(), Json::u64(s.parent)),
                        ("calls".into(), Json::u64(u64::from(s.calls))),
                        ("self_us".into(), us(selfs.get(&s.id).copied().unwrap_or(0))),
                    ]),
                ),
            ]));
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
    std::fs::write(path, doc.to_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, dur_ns| Span {
            id,
            parent,
            op: 1,
            name: "a.b",
            start_ns,
            dur_ns,
            calls: 1,
        };
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 30),
            span(4, 1, 90, 50),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
        assert_eq!(s[&2], 30);
    }
}
