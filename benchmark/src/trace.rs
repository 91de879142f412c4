//! In-memory spans around the calls into each layer, written out once
//! at exit.
//!
//! The replay opens one `replay` span, one `block` span per block of
//! realizations under it, and one *stage* span per layer call loop
//! under each block. A stage span carries the number of layer calls it
//! covers, so per-call time is span time ÷ calls. With tracing off the
//! same code runs without reading the clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span that covers a whole replay.
pub const ROOT: &str = "replay";
/// Name of the span that covers one block of realizations.
pub const BLOCK: &str = "block";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Block number: the identifier every span of one block shares.
    pub block: u32,
    /// Layer (stage) name, or [`ROOT`] / [`BLOCK`].
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Name of the span that caused this one; `None` for the root.
    pub parent: Option<&'static str>,
    /// Layer calls covered (0 for the root and block spans).
    pub calls: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn is_stage(&self) -> bool {
        self.name != ROOT && self.name != BLOCK
    }
}

/// Span recorder; a disabled one runs the traced code untimed.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    block: u32,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            spans: None,
            block: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            spans: Some(Vec::new()),
            ..Self::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        calls: u64,
        work: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if self.spans.is_none() {
            return work(self);
        }
        let block = self.block;
        let start_ns = self.now_ns();
        let out = work(self);
        let end_ns = self.now_ns();
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                block,
                name,
                start_ns,
                end_ns,
                parent,
                calls,
            });
        }
        out
    }

    /// Runs `work` under the root span.
    pub fn root<T>(&mut self, work: impl FnOnce(&mut Self) -> T) -> T {
        self.record(ROOT, None, 0, work)
    }

    /// Runs `work` under the next block span.
    pub fn block<T>(&mut self, work: impl FnOnce(&mut Self) -> T) -> T {
        self.block += 1;
        self.record(BLOCK, Some(ROOT), 0, work)
    }

    /// Runs `calls` calls of layer `name` under one stage span.
    pub fn stage<T>(&mut self, name: &'static str, calls: u64, work: impl FnOnce() -> T) -> T {
        self.record(name, Some(BLOCK), calls, |_| work())
    }

    /// The recorded spans (empty for a disabled tracer).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Time per call of layer `name`, ns: Σ span time ÷ Σ calls. Zero when
/// the layer was never called, which is how a workload that bypasses a
/// layer reports it.
pub fn per_call_ns(spans: &[Span], name: &str) -> f64 {
    let (time, calls) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(t, c), s| (t + s.duration_ns(), c + s.calls));
    if calls == 0 {
        0.0
    } else {
        time as f64 / calls as f64
    }
}

/// Σ stage-span time ÷ root-span time: how much of the replay's wall
/// clock the layer spans tile. The rest is the self time of the root
/// and block spans (loop control between stages).
pub fn coverage(spans: &[Span]) -> f64 {
    let root: u64 = spans
        .iter()
        .filter(|s| s.name == ROOT)
        .map(Span::duration_ns)
        .sum();
    let stages: u64 = spans
        .iter()
        .filter(|s| s.is_stage())
        .map(Span::duration_ns)
        .sum();
    if root == 0 {
        0.0
    } else {
        stages as f64 / root as f64
    }
}

/// Writes the spans as JSON lines: `id` is `workload/block`, shared by
/// every span of one block.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"id\":\"{workload}/{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
            s.block, s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, calls: u64) -> Span {
        Span {
            block: 1,
            name,
            start_ns,
            end_ns,
            parent: Some(BLOCK),
            calls,
        }
    }

    #[test]
    fn stage_spans_tile_the_root() {
        let spans = vec![
            span("rng.position", 10, 40, 3),
            span("realize", 40, 100, 3),
            span("rng.position", 100, 130, 3),
            span(BLOCK, 5, 135, 0),
            span(ROOT, 0, 150, 0),
        ];
        assert_eq!(per_call_ns(&spans, "rng.position"), 10.0);
        assert_eq!(per_call_ns(&spans, "realize"), 20.0);
        assert_eq!(per_call_ns(&spans, "stats.add"), 0.0);
        assert_eq!(coverage(&spans), 120.0 / 150.0);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn tracer_nests_stages_under_blocks_under_the_root() {
        let mut t = Tracer::on();
        let answer = t.root(|t| {
            t.block(|t| t.stage("realize", 4, || 1) + t.stage("stats.add", 4, || 2))
                + t.block(|t| t.stage("realize", 2, || 3))
        });
        assert_eq!(answer, 6);
        let spans = t.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.block, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("realize", 1, Some(BLOCK)),
                ("stats.add", 1, Some(BLOCK)),
                (BLOCK, 1, Some(ROOT)),
                ("realize", 2, Some(BLOCK)),
                (BLOCK, 2, Some(ROOT)),
                (ROOT, 0, None),
            ]
        );
        // Children lie inside their parents.
        let root = spans.last().unwrap();
        assert!(spans
            .iter()
            .all(|s| root.start_ns <= s.start_ns && s.end_ns <= root.end_ns));
        let c = coverage(&spans);
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.root(|t| t.block(|t| t.stage("realize", 1, || 7))), 7);
        assert!(t.into_spans().is_empty());
    }
}
