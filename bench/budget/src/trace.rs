//! In-memory spans around the calls into each layer.
//!
//! A span is (name, start, end, parent, request id); spans are kept in
//! memory while the traced run replays its stream and written out once, at
//! exit. The traced run is a separate run: end-to-end metrics are always
//! measured with tracing off.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a request's root span and
    /// for side measurements that are not part of any request's cost.
    pub parent: Option<u32>,
    /// The request this span belongs to (position in the replayed stream).
    pub request: u32,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        // Room for a whole traced run, so that no span is recorded while the
        // vector is being moved to a larger allocation.
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Lay `parts` (name, nanoseconds) end to end as children of `parent`,
    /// starting where the parent starts — for a callee that reports its own
    /// phase durations instead of letting the caller wrap each phase.
    pub fn subdivide(&mut self, parent: u32, parts: &[(&'static str, u64)]) {
        let Span {
            start_ns, request, ..
        } = self.spans[parent as usize];
        let mut at = start_ns;
        for &(name, ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                request,
            });
            at += ns;
        }
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// For every span called `root`, in recording order: the summed duration
    /// (µs) of its direct children — a request's stage sum.
    pub fn child_sums(&self, root: &str) -> Vec<f64> {
        let mut sums: Vec<Option<f64>> = self
            .spans
            .iter()
            .map(|s| (s.name == root).then_some(0.0))
            .collect();
        for s in &self.spans {
            if let Some(Some(sum)) = s.parent.map(|p| &mut sums[p as usize]) {
                *sum += s.micros();
            }
        }
        sums.into_iter().flatten().collect()
    }

    /// Per request, in request order: the summed duration (µs) of its spans
    /// whose name is one of `names`.
    pub fn sums_by_request(&self, names: &[&str]) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(s.request).or_insert(0.0) += s.micros();
        }
        sums.into_values().collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as one JSON object: `{"workload": …, "spans": [[name,
    /// start_ns, end_ns, parent, request], …]}` with `-1` for "no parent".
    pub fn write_json(&self, out: &mut impl Write, workload: &str) -> io::Result<()> {
        writeln!(out, "{{\"workload\":\"{workload}\",")?;
        writeln!(
            out,
            "\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],"
        )?;
        writeln!(out, "\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "[\"{}\",{},{},{},{}]{comma}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// Write every traced workload's spans to `path` as one JSON array.
pub fn write_file(path: &Path, runs: &[(&str, Recorder)]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, (workload, recorder)) in runs.iter().enumerate() {
        recorder.write_json(&mut out, workload)?;
        if i + 1 < runs.len() {
            writeln!(out, ",")?;
        }
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sums_cover_direct_children_only() {
        let mut rec = Recorder::new();
        let root = rec.open("root", None, 0);
        let child = rec.open("child", Some(root), 0);
        rec.close(child);
        rec.close(root);
        rec.subdivide(child, &[("a", 10_000), ("b", 20_000)]);
        rec.time("side", None, 0, || ());
        // Overwrite the clock-derived times with known ones.
        rec.spans[child as usize].end_ns = rec.spans[child as usize].start_ns + 400_000;
        assert_eq!(rec.child_sums("root"), vec![400.0]);
        assert_eq!(rec.child_sums("child"), vec![30.0]);
        assert_eq!(
            rec.sums_by_request(&["a", "b", "side"]),
            vec![30.0 + rec.micros_of("side")[0]]
        );
        assert_eq!(rec.micros_of("a"), vec![10.0]);
        let b = rec.spans[3];
        assert_eq!(
            (b.name, b.start_ns, b.parent),
            (
                "b",
                rec.spans[child as usize].start_ns + 10_000,
                Some(child)
            )
        );
        assert_eq!(rec.len(), 5);
    }
}
