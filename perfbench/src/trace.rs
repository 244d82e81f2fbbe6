//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once when the run ends.
//!
//! Spans come only from the benchmark's own code: the program under
//! test carries no instrumentation. An untraced run records nothing
//! (every method is a no-op), so the end-to-end numbers are measured
//! without the recorder in the loop.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One layer-boundary interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wse-md.refresh_forces`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    /// Nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<usize>,
    /// The request (or timestep) the span belongs to.
    pub request: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. Threads each own one, created from a shared
/// origin, and [`Recorder::absorb`] merges them at the end.
#[derive(Clone, Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(Instant::now(), enabled)
    }

    /// A recorder sharing another recorder's time origin.
    pub fn with_origin(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread: same origin and switch, no spans.
    pub fn fork(&self) -> Self {
        Self::with_origin(self.origin, self.enabled)
    }

    /// Record `[start, end)` and return its index (to parent children
    /// on); `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span now, to parent the spans recorded before
    /// [`Recorder::end`] closes it.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Move another recorder's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.nanos().saturating_sub(covered)
            })
            .collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Write every span, then one self-time summary line per span name,
    /// as JSON lines headed by `header` (the machine fingerprint).
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        let self_ns = self.self_times();
        let mut out = String::with_capacity(96 * self.spans.len() + 256);
        out.push_str(header);
        out.push('\n');
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{own}}}",
                s.name, s.start, s.end, s.request
            );
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.nanos();
            e.2 += own;
        }
        for (name, (count, total, own)) in summary {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let t0 = r.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = r.record("root", at(0), at(10), None, 7);
        // Overlapping children cover [1, 5) once; a child poking past
        // the parent's end is clipped.
        r.record("a", at(1), at(3), root, 7);
        r.record("b", at(2), at(5), root, 7);
        let c = r.record("c", at(8), at(12), root, 7);
        r.record("leaf", at(9), at(10), c, 7);
        let own = r.self_times();
        assert_eq!(own[0], 4_000_000); // 10 − (4 + 2)
        assert_eq!(own[1], 2_000_000);
        assert_eq!(own[3], 3_000_000); // 4 − 1
        assert_eq!(own[4], 1_000_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_and_absorb_rebases_parents() {
        let mut off = Recorder::new(false);
        let now = Instant::now();
        assert_eq!(off.record("x", now, now, None, 0), None);
        assert!(off.spans.is_empty());

        let mut main = Recorder::new(true);
        main.record("m", now, now, None, 0);
        let mut worker = main.fork();
        let p = worker.record("p", now, now, None, 1);
        worker.record("child", now, now, p, 1);
        main.absorb(worker);
        assert_eq!(main.spans[2].parent, Some(1));
    }
}
