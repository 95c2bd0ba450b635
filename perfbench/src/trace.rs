//! Spans recorded by the traced run around each call the harness makes
//! into a layer's public functions. Spans live in memory (one recorder
//! per thread) and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The request (or operation) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Off, it records nothing and reads no
/// clock, so the untraced run pays only a branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// All recorders of one run share `epoch`, so their spans compare.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// An empty recorder for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// A recorder that records nothing, for untraced stretches of a
    /// traced run.
    pub fn off(&self) -> Tracer {
        Tracer::new(false, self.epoch)
    }

    /// Nanoseconds since the run's epoch (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.ns_at(Instant::now())
        } else {
            0
        }
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (None when off).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    /// Opens a span whose end is not yet known (children may attach to
    /// it); close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let start = self.now();
        self.record(name, start, start, parent, request)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// A span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
#[cfg(test)]
pub fn self_time(spans: &[Span], idx: usize) -> u64 {
    let kids = spans.iter().filter(|s| s.parent == Some(idx)).copied();
    uncovered(&spans[idx], kids)
}

fn uncovered(me: &Span, kids: impl Iterator<Item = Span>) -> u64 {
    let mut kids: Vec<(u64, u64)> = kids
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|&(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Per span name: count, total and self time in microseconds, as a
/// readable table.
pub fn summary(spans: &[Span]) -> String {
    let mut kids: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push(*s);
        }
    }
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, k) in spans.iter().zip(kids) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += uncovered(s, k.into_iter());
    }
    let mut out = format!(
        "{:<24} {:>9} {:>13} {:>13}\n",
        "span", "count", "total_us", "self_us"
    );
    for (name, (n, total, own)) in by_name {
        out += &format!(
            "{name:<24} {n:>9} {:>13.1} {:>13.1}\n",
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
    out
}

/// Ends a traced run: prints the span summary and writes every span to
/// `.bench_out/<workload>-<seed>.spans.tsv`.
pub fn finish(
    tracer: &Tracer,
    workload: &str,
    seed: u64,
    report: &mut crate::report::Report,
) -> Result<(), String> {
    eprint!("{}", summary(&tracer.spans));
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-{seed}.spans.tsv"));
    std::fs::create_dir_all(dir)
        .and_then(|()| write_spans(&path, &tracer.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.note(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        path.display()
    ));
    Ok(())
}

/// Writes every span as one tab-separated line.
fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        let spans = [
            span("request", 0, 100, None),
            span("send", 0, 10, Some(0)),
            span("wait", 10, 70, Some(0)),
            // A grandchild counts against its own parent only.
            span("inner", 20, 60, Some(2)),
            span("decode", 80, 95, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 10 - 60 - 15);
        assert_eq!(self_time(&spans, 2), 60 - 40);
        assert_eq!(self_time(&spans, 3), 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100, 160) and [190, 200).
        assert_eq!(self_time(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.record("x", 0, 5, None, 1);
        let mut b = Tracer::new(true, epoch);
        let p = b.record("y", 0, 10, None, 2);
        b.record("z", 2, 4, p, 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(self_time(&a.spans, 1), 8);
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.record("x", 0, 1, None, 0), None);
        assert_eq!(off.now(), 0);
    }
}
