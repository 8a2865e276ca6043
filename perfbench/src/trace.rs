//! In-memory span recording for the traced run.
//!
//! The benchmark records spans from its own code only, around the calls it
//! makes into each layer: set-up (`workload.generate`, `workload.arrivals`,
//! `construct`), the run call, and — through [`TimedPolicy`] — every
//! `handle` / `handle_batch` the run loop makes on the policy. Spans are kept
//! in memory and written out as JSON lines when the benchmark ends.

use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{CachePolicy, RequestOutcome};
use fbc_obs::Obs;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Probes timed under one clock pair in the `cache.contains_all` span, so
/// the reading is dominated by the probe rather than by the clock.
pub const PROBE_REPEATS: u64 = 8;

/// One timed interval on the host clock, in nanoseconds since the tracer's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Owns every span of the process.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span starting now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = since(self.epoch);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = since(self.epoch);
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Appends spans recorded elsewhere against this tracer's epoch.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Spans whose parent is `parent`.
    pub fn spans_under(&self, parent: SpanId) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// Spans named `name` whose parent is `parent`.
    pub fn children<'a>(
        &'a self,
        parent: SpanId,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans_under(parent).filter(move |s| s.name == name)
    }

    /// Duration of span `id` minus the part of it its child spans cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans_under(id)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = self.spans[id].start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.spans[id].ns() - covered
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (null for a root).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Outcome counts the wrapper sees pass through the policy interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTally {
    pub calls: u64,
    pub batched_jobs: u64,
    pub misses: u64,
    pub evicted_files: u64,
    pub evicted_bytes: u64,
}

impl PolicyTally {
    pub fn add(&mut self, other: &PolicyTally) {
        self.calls += other.calls;
        self.batched_jobs += other.batched_jobs;
        self.misses += other.misses;
        self.evicted_files += other.evicted_files;
        self.evicted_bytes += other.evicted_bytes;
    }

    fn record(&mut self, outcome: &RequestOutcome) {
        if outcome.serviced && !outcome.hit {
            self.misses += 1;
        }
        self.evicted_files += outcome.evicted_files.len() as u64;
        self.evicted_bytes += outcome.evicted_bytes;
    }
}

/// A delegating [`CachePolicy`] that times every `handle` and
/// `handle_batch` call as a span under `parent`, and forwards the other
/// hooks unchanged, so the run loop sees the wrapped policy's behaviour.
pub struct TimedPolicy<P> {
    inner: P,
    epoch: Instant,
    parent: SpanId,
    /// Time [`PROBE_REPEATS`] `contains_all` probes of each bundle before
    /// `handle` (a `cache.contains_all` span).
    probe: bool,
    pub spans: Vec<Span>,
    pub tally: PolicyTally,
    /// `(used, capacity, pinned files)` of the cache after the latest call.
    pub cache_end: (u64, u64, usize),
}

impl<P: CachePolicy> TimedPolicy<P> {
    pub fn new(inner: P, tracer: &Tracer, parent: SpanId, probe: bool) -> Self {
        Self {
            inner,
            epoch: tracer.epoch(),
            parent,
            probe,
            spans: Vec::new(),
            tally: PolicyTally::default(),
            cache_end: (0, 0, 0),
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: since(self.epoch),
            parent: Some(self.parent),
        });
    }
}

impl<P: CachePolicy> CachePolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(
        &mut self,
        bundle: &Bundle,
        cache: &mut CacheState,
        catalog: &FileCatalog,
    ) -> RequestOutcome {
        if self.probe {
            let start = since(self.epoch);
            for _ in 0..PROBE_REPEATS {
                black_box(cache.contains_all(black_box(bundle)));
            }
            self.push("cache.contains_all", start);
        }
        let start = since(self.epoch);
        let outcome = self.inner.handle(bundle, cache, catalog);
        let name = if outcome.hit {
            "policy.handle.hit"
        } else {
            "policy.handle.miss"
        };
        self.push(name, start);
        self.tally.calls += 1;
        self.tally.record(&outcome);
        self.cache_end = (cache.used(), cache.capacity(), cache.pinned_len());
        outcome
    }

    fn handle_batch(
        &mut self,
        bundles: &[&Bundle],
        cache: &mut CacheState,
        catalog: &FileCatalog,
        out: &mut Vec<RequestOutcome>,
    ) {
        let first = out.len();
        let start = since(self.epoch);
        self.inner.handle_batch(bundles, cache, catalog, out);
        self.push("policy.handle_batch", start);
        self.tally.calls += 1;
        self.tally.batched_jobs += bundles.len() as u64;
        for outcome in &out[first..] {
            self.tally.record(outcome);
        }
        self.cache_end = (cache.used(), cache.capacity(), cache.pinned_len());
    }

    fn prepare(&mut self, trace: &[Bundle]) {
        self.inner.prepare(trace)
    }

    fn prepare_from(&mut self, trace: &mut dyn Iterator<Item = &Bundle>) {
        self.inner.prepare_from(trace)
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs)
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}
