//! Timing from outside: thin wrappers around the stack's public traits and
//! an in-memory span recorder. Nothing here edits the program under test;
//! spans inside the program are a later issue.
//!
//! * [`TimedModel`] stamps every `train_step` / `forward` entry and exit. It
//!   is the only instrument active in the untraced timed run, where it
//!   gives epoch boundaries and the warm-up cut. With [`Turns`] it also
//!   lets the traced run alternate `run_serial` with the bench's own
//!   unrolled path, batch by batch.
//! * [`TimedTransport`] wraps a `StoreTransport`: bytes out / in and wall
//!   per `call`, a child span per call, and (optionally) the captured
//!   request / response frames for the codec replay.
//! * [`Recorder`] keeps spans (`name, start, end, parent, request id`) in
//!   memory and writes them as chrome-trace JSON when the run ends.

use bgl_gnn::{GnnModel, ModelKind};
use bgl_obs::json::Json;
use bgl_sampler::MiniBatch;
use bgl_store::{InProcessTransport, StoreError, StoreTransport};
use bgl_tensor::{Matrix, Optimizer};
use bytes::Bytes;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// TimedModel
// ---------------------------------------------------------------------------

/// Entry / exit stamps (ns since `base`) of every model call.
pub struct StepStamps {
    base: Instant,
    train_steps: Mutex<Vec<(u64, u64)>>,
    forwards: Mutex<Vec<(u64, u64)>>,
    /// When a model taking [`Turns`] was released after each train step.
    released: Mutex<Vec<u64>>,
}

impl StepStamps {
    pub fn new(base: Instant) -> Arc<StepStamps> {
        Arc::new(StepStamps {
            base,
            train_steps: Mutex::new(Vec::new()),
            forwards: Mutex::new(Vec::new()),
            released: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn steps_done(&self) -> usize {
        lock(&self.train_steps).len()
    }

    pub fn train_steps(&self) -> Vec<(u64, u64)> {
        lock(&self.train_steps).clone()
    }

    pub fn forwards(&self) -> Vec<(u64, u64)> {
        lock(&self.forwards).clone()
    }

    pub fn released(&self) -> Vec<u64> {
        lock(&self.released).clone()
    }
}

/// How the thread that runs the model takes turns with another: after every
/// train step the model reports `done` and waits for `go`. Two runs that
/// alternate batch by batch see the same host from one moment to the next,
/// which two runs one after the other on this sandbox do not.
pub struct Turns {
    pub done: Sender<()>,
    pub go: Receiver<()>,
}

/// Delegating `GnnModel` that stamps `train_step` and `forward`.
pub struct TimedModel {
    inner: Box<dyn GnnModel + Send>,
    stamps: Arc<StepStamps>,
    turns: Option<Turns>,
}

impl TimedModel {
    pub fn wrap(
        inner: Box<dyn GnnModel + Send>,
        stamps: &Arc<StepStamps>,
        turns: Option<Turns>,
    ) -> Box<dyn GnnModel + Send> {
        Box::new(TimedModel {
            inner,
            stamps: stamps.clone(),
            turns,
        })
    }
}

impl GnnModel for TimedModel {
    fn kind(&self) -> ModelKind {
        self.inner.kind()
    }

    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    fn forward(&mut self, batch: &MiniBatch, input: &Matrix) -> Matrix {
        let t0 = self.stamps.now_ns();
        let out = self.inner.forward(batch, input);
        lock(&self.stamps.forwards).push((t0, self.stamps.now_ns()));
        out
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        self.inner.backward(grad_logits)
    }

    fn apply(&mut self, opt: &mut dyn Optimizer) {
        self.inner.apply(opt)
    }

    fn param_vec(&self) -> Vec<f32> {
        self.inner.param_vec()
    }

    fn load_param_vec(&mut self, flat: &[f32]) {
        self.inner.load_param_vec(flat)
    }

    fn train_step(
        &mut self,
        batch: &MiniBatch,
        input: &Matrix,
        labels: &[u16],
        opt: &mut dyn Optimizer,
    ) -> (f32, f64) {
        let t0 = self.stamps.now_ns();
        // The inner model's own train_step calls its own forward, so a
        // step is never also counted as a forward.
        let out = self.inner.train_step(batch, input, labels, opt);
        lock(&self.stamps.train_steps).push((t0, self.stamps.now_ns()));
        if let Some(turns) = &self.turns {
            // A closed channel means the other side has stopped: run on alone.
            let _ = turns.done.send(()).is_ok() && turns.go.recv().is_ok();
            lock(&self.stamps.released).push(self.stamps.now_ns());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Batch index / query id / op index shared by one request's spans.
    pub req: u64,
}

struct RecorderInner {
    spans: Vec<SpanRec>,
    /// Request id stamped on spans opened from now on.
    req: u64,
    /// Open spans, innermost last, with the thread that opened each: a
    /// span's parent is the innermost span open on the same thread.
    open: Vec<(usize, ThreadId)>,
}

pub struct Recorder {
    base: Instant,
    inner: Mutex<RecorderInner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        let mut g = lock(&self.rec.inner);
        g.spans[self.idx].end_ns = end;
        if let Some(pos) = g.open.iter().rposition(|&(i, _)| i == self.idx) {
            g.open.remove(pos);
        }
    }
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            base: Instant::now(),
            inner: Mutex::new(RecorderInner {
                spans: Vec::new(),
                req: 0,
                open: Vec::new(),
            }),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Set the request id (batch index / query id / op index) that spans
    /// opened from now on carry, so one request's spans share it.
    pub fn set_req(&self, req: u64) {
        lock(&self.inner).req = req;
    }

    /// Open a span; it ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let me = std::thread::current().id();
        let start_ns = self.now_ns();
        let mut g = lock(&self.inner);
        let req = g.req;
        let parent = g
            .open
            .iter()
            .rev()
            .find(|&&(_, t)| t == me)
            .map(|&(i, _)| i);
        let idx = g.spans.len();
        g.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        g.open.push((idx, me));
        SpanGuard { rec: self, idx }
    }

    /// Record a span whose interval was measured elsewhere (request spans
    /// assembled from due / submit / reply stamps).
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let mut g = lock(&self.inner);
        g.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        g.spans.len() - 1
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        lock(&self.inner).spans.clone()
    }

    pub fn len(&self) -> usize {
        lock(&self.inner).spans.len()
    }

    /// Per span name, over the spans whose request id is at least
    /// `from_req`: calls, total time, and self time (the span's duration
    /// minus the part its direct children cover).
    pub fn totals(&self, from_req: u64) -> std::collections::BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.req >= from_req) {
            let dur = s.end_ns - s.start_ns;
            let e: &mut SpanTotals = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
            e.durations_ns.push(dur);
        }
        out
    }

    /// Per request id, the time the direct children of that request's
    /// `parent` span cover.
    pub fn child_ns_by_req(&self, parent: &str) -> std::collections::BTreeMap<u64, u64> {
        let spans = self.spans();
        let mut out = std::collections::BTreeMap::new();
        for s in &spans {
            if s.parent.is_some_and(|p| spans[p].name == parent) {
                *out.entry(s.req).or_default() += s.end_ns - s.start_ns;
            }
        }
        out
    }

    /// Write the spans next to the run document as `<workload>.trace.json`
    /// and note where.
    pub fn write_chrome_trace(&self, out: &mut crate::report::Outcome, workload: &str) {
        let dir = crate::rig::scratch_root();
        let file = dir.join(format!("{workload}.trace.json"));
        let _ = std::fs::create_dir_all(&dir);
        if std::fs::write(&file, self.chrome_trace()).is_ok() {
            out.note("chrome_trace", Json::Str(file.display().to_string()));
        }
    }

    /// Chrome-trace ("Trace Event Format") JSON, loadable in Perfetto.
    fn chrome_trace(&self) -> String {
        let events = self
            .spans()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str("bgl-bench".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::F64(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::U64(1)),
                    // One track per nesting role keeps Perfetto's flame
                    // layout readable: children sit under their parent.
                    ("tid".into(), Json::U64(1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::U64(i as u64)),
                            ("req".into(), Json::U64(s.req)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .render()
    }
}

#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

// ---------------------------------------------------------------------------
// TimedTransport
// ---------------------------------------------------------------------------

/// What a [`TimedTransport`] saw.
#[derive(Default)]
pub struct TransportLog {
    pub calls: u64,
    pub failed: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub call_ns: Vec<u64>,
    /// Captured `(request, response)` frames, up to `capture_cap`.
    pub frames: Vec<(Bytes, Bytes)>,
    pub capture_cap: usize,
}

/// Delegating `StoreTransport`: counts bytes and wall per `call`, opens a
/// `transport.call` child span, and keeps the first `capture_cap` frame
/// pairs for the codec replay.
pub struct TimedTransport {
    inner: Box<dyn StoreTransport>,
    rec: Arc<Recorder>,
    log: Arc<Mutex<TransportLog>>,
}

impl TimedTransport {
    pub fn wrap(
        inner: Box<dyn StoreTransport>,
        rec: &Arc<Recorder>,
        capture_cap: usize,
    ) -> (Box<dyn StoreTransport>, Arc<Mutex<TransportLog>>) {
        let log = Arc::new(Mutex::new(TransportLog {
            capture_cap,
            ..Default::default()
        }));
        (
            Box::new(TimedTransport {
                inner,
                rec: rec.clone(),
                log: log.clone(),
            }),
            log,
        )
    }
}

impl StoreTransport for TimedTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }

    fn features_dim(&mut self) -> Result<usize, StoreError> {
        self.inner.features_dim()
    }

    fn call(&mut self, to: usize, frame: Bytes) -> Result<Bytes, StoreError> {
        let out_len = frame.len() as u64;
        let keep = {
            let g = lock(&self.log);
            (g.frames.len() < g.capture_cap).then(|| frame.clone())
        };
        let span = self.rec.span("transport.call");
        let t0 = Instant::now();
        let result = self.inner.call(to, frame);
        let ns = t0.elapsed().as_nanos() as u64;
        drop(span);
        let mut g = lock(&self.log);
        g.calls += 1;
        g.bytes_out += out_len;
        g.call_ns.push(ns);
        match &result {
            Ok(resp) => {
                g.bytes_in += resp.len() as u64;
                if let Some(req) = keep {
                    g.frames.push((req, resp.clone()));
                }
            }
            Err(_) => g.failed += 1,
        }
        result
    }

    fn set_down(&self, server: usize, down: bool) -> Result<(), StoreError> {
        self.inner.set_down(server, down)
    }

    fn set_replication(
        &mut self,
        replication: usize,
        num_servers: usize,
    ) -> Result<(), StoreError> {
        self.inner.set_replication(replication, num_servers)
    }

    fn requests_per_server(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.requests_per_server()
    }

    fn in_process(&self) -> Option<&InProcessTransport> {
        self.inner.in_process()
    }
}
