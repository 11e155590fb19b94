//! Spans recorded from outside the program, for the traced run.
//!
//! Each span has a name, a start and an end (microseconds since the run's
//! clock origin), the span that caused it, and the `(epoch, index)` key all
//! spans of one batch share. Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tensorsocket::{EpochSource, SampleGeometry};
use ts_data::Batch;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: u64,
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, in microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, in microseconds since the tracer's origin.
    pub end_us: f64,
    /// The batch the span belongs to, if any.
    pub key: Option<(u64, u64)>,
    /// Which trial of the run recorded it.
    pub trial: u32,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from every thread of a run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    trial: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// For each batch key of the current trial: the `data.next` span's id
    /// and the instant it ended.
    produced: Mutex<HashMap<(u64, u64), (u64, Instant)>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            trial: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            produced: Mutex::new(HashMap::new()),
        })
    }

    /// Starts a new trial: batch keys restart with each producer.
    pub fn begin_trial(&self, trial: u32) {
        self.trial.store(trial as u64, Ordering::Relaxed);
        self.produced.lock().expect("tracer lock poisoned").clear();
    }

    fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Builds a span with a fresh id.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        key: Option<(u64, u64)>,
    ) -> Span {
        Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_us: self.micros(start),
            end_us: self.micros(end),
            key,
            trial: self.trial.load(Ordering::Relaxed) as u32,
        }
    }

    /// Records one span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        key: Option<(u64, u64)>,
    ) -> u64 {
        let span = self.span(name, parent, start, end, key);
        let id = span.id;
        self.spans.lock().expect("tracer lock poisoned").push(span);
        id
    }

    /// Records a batch of spans built with [`Tracer::span`].
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .extend(spans);
    }

    /// The `data.next` span of batch `key` in the current trial: its id and
    /// when it ended.
    pub fn produced(&self, key: (u64, u64)) -> Option<(u64, Instant)> {
        self.produced
            .lock()
            .expect("tracer lock poisoned")
            .get(&key)
            .copied()
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// An [`EpochSource`] that records a `data.next` span around every call
/// into the wrapped source's epoch iterator and forwards everything else
/// unchanged, so that the producer sizes its pipeline and arena exactly as
/// for the bare source.
pub struct TracedSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: EpochSource> TracedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<S: EpochSource> EpochSource for TracedSource<S> {
    fn batches_per_epoch(&self) -> usize {
        self.inner.batches_per_epoch()
    }

    fn batch_size(&self) -> usize {
        self.inner.batch_size()
    }

    fn epoch(&self, epoch: u64) -> Box<dyn Iterator<Item = Batch> + Send + '_> {
        let mut it = self.inner.epoch(epoch);
        let tracer = &self.tracer;
        Box::new(std::iter::from_fn(move || {
            let start = Instant::now();
            let batch = it.next();
            let end = Instant::now();
            let key = batch.as_ref().map(|b| (b.epoch, b.index as u64));
            let id = tracer.record("data.next", 0, start, end, key);
            if let Some(key) = key {
                tracer
                    .produced
                    .lock()
                    .expect("tracer lock poisoned")
                    .insert(key, (id, end));
            }
            batch
        }))
    }

    fn pipeline_hint(&self) -> (usize, usize) {
        self.inner.pipeline_hint()
    }

    fn sample_geometry(&self) -> Option<SampleGeometry> {
        self.inner.sample_geometry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Inputs, Workload};
    use tensorsocket::runtime::producer::VecSource;

    #[test]
    fn traced_source_forwards_pipeline_hint_and_geometry() {
        let inputs = Inputs::build_sized(Workload::FanoutShmIpc, 9, 1, 128);
        let mut loader_cfg = inputs.loader_cfg.clone();
        loader_cfg.prefetch_factor = 3;
        let loader = ts_data::DataLoader::new(inputs.dataset.clone(), loader_cfg);
        let vec = VecSource::new(inputs.prebuilt.clone().expect("pre-built")).expect("uniform");
        let (loader_hint, loader_geometry) = (loader.pipeline_hint(), loader.sample_geometry());
        let (vec_hint, vec_geometry) = (vec.pipeline_hint(), vec.sample_geometry());
        assert_eq!(loader_hint, (2, 3));
        assert!(loader_geometry.is_some());

        let tracer = Tracer::new();
        let traced = TracedSource::new(loader, tracer.clone());
        assert_eq!(traced.pipeline_hint(), loader_hint);
        assert_eq!(traced.sample_geometry(), loader_geometry);
        let traced = TracedSource::new(vec, tracer);
        assert_eq!(traced.pipeline_hint(), vec_hint);
        assert_eq!(traced.sample_geometry(), vec_geometry);
    }

    #[test]
    fn traced_source_yields_the_same_batches_and_one_span_each() {
        let inputs = Inputs::build_sized(Workload::DecodeIpc, 4, 1, 128);
        let tracer = Tracer::new();
        let traced = TracedSource::new(inputs.loader(0), tracer.clone());
        let bare = inputs.loader(0);
        let got: Vec<Batch> = traced.epoch(0).collect();
        let want: Vec<Batch> = EpochSource::epoch(&bare, 0).collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.epoch, g.index), (w.epoch, w.index));
            assert!(g.fields[0].data_eq(&w.fields[0]));
        }
        let spans = tracer.spans();
        // One span per batch plus the call that found the epoch's end.
        assert_eq!(spans.len(), want.len() + 1);
        assert!(spans.iter().all(|s| s.name == "data.next" && s.us() >= 0.0));
        assert!(tracer.produced((0, 0)).is_some());
    }
}
