//! The request front-end: bounded admission queue, work-conserving
//! micro-batching, and the `serve.*` metrics ledger.
//!
//! One driver thread owns the [`ServeEngine`] and loops: pop the oldest
//! queued request, take up to `max_batch − 1` more that are already
//! queued, answer them with one shared inference pass. It never holds a
//! request back to wait for company: an idle engine gains nothing from a
//! wait, and a busy one finds its next batch in the queue that formed
//! while it worked. Submitters get a [`Ticket`] — a oneshot receiver —
//! immediately; admission never blocks on inference.
//!
//! Backpressure is shed-on-arrival: when `queue_depth` requests are
//! already waiting, [`ServeHandle::try_submit`] returns
//! [`QueryError::Overloaded`] without enqueueing (`bgl-exec`'s bounded
//! channel idiom applied at the request edge). An unbounded queue would
//! accept work it cannot finish and turn overload into unbounded latency;
//! the typed error keeps the knee visible and retryable.
//!
//! The metrics form a ledger the tests reconcile exactly:
//! `serve.offered = serve.accepted + serve.shed`, and every accepted
//! request resolves to exactly one of `serve.completed` / `serve.failed`
//! (shutdown has the driver answer what is queued, or, when the driver
//! was never started, fails it typed — no ticket ever hangs).

use crate::engine::ServeEngine;
use crate::ServeConfig;
use bgl_graph::NodeId;
use bgl_net::query::QueryError;
use bgl_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued request: who asked, when they arrived, where the answer
/// goes.
struct Pending {
    user: NodeId,
    enqueued: Instant,
    reply: mpsc::SyncSender<Result<Reply, QueryError>>,
}

/// A successful answer with the front-end's latency measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The model's output row for the queried user.
    pub scores: Vec<f32>,
    /// Queue wait + inference, measured by the driver.
    pub latency: Duration,
}

/// The receiving half of a submitted request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Reply, QueryError>>,
}

impl Ticket {
    /// Block until the request resolves. A dropped front-end (driver
    /// panic) surfaces as `ShuttingDown` rather than a hang.
    pub fn wait(self) -> Result<Reply, QueryError> {
        self.rx.recv().unwrap_or(Err(QueryError::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Reply, QueryError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(QueryError::ShuttingDown)),
        }
    }
}

struct Queue {
    items: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    q: Mutex<Queue>,
    /// Signals the driver: work arrived or shutdown flipped.
    arrived: Condvar,
    cfg: ServeConfig,
    offered: Counter,
    accepted: Counter,
    shed: Counter,
    completed: Counter,
    failed: Counter,
    batches: Counter,
    batch_size: Histogram,
    latency_us: Histogram,
    queue_depth: Gauge,
}

/// Cloneable submission handle; safe to share across connection threads.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Admit a request or shed it. On admission the returned [`Ticket`]
    /// always resolves — completion, typed failure, or typed shutdown.
    pub fn try_submit(&self, user: NodeId) -> Result<Ticket, QueryError> {
        let sh = &self.shared;
        sh.offered.incr();
        // One slot, one send: the send never blocks, and a ticket a caller
        // holds until much later costs one slot, not an unbounded channel's
        // first 31-slot block.
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut q = sh.q.lock().unwrap_or_else(|p| p.into_inner());
            if q.shutdown {
                sh.shed.incr();
                return Err(QueryError::ShuttingDown);
            }
            if q.items.len() >= sh.cfg.queue_depth {
                sh.shed.incr();
                return Err(QueryError::Overloaded {
                    depth: sh.cfg.queue_depth as u32,
                });
            }
            q.items.push_back(Pending { user, enqueued: Instant::now(), reply: tx });
            sh.queue_depth.set(q.items.len() as i64);
        }
        sh.accepted.incr();
        sh.arrived.notify_one();
        Ok(Ticket { rx })
    }
}

/// The serving front-end: owns the driver thread and the engine.
pub struct ServeFrontend {
    shared: Arc<Shared>,
    /// `Some` between `new` and `start`; the driver takes it.
    engine: Option<ServeEngine>,
    driver: Option<JoinHandle<()>>,
}

impl ServeFrontend {
    /// Build the front-end *without* starting the driver: the queue (and
    /// [`ServeHandle`]) are live immediately, but nothing executes until
    /// [`ServeFrontend::start`]. The split lets tests fill the queue to
    /// a deterministic depth and observe the shed path exactly.
    pub fn new(engine: ServeEngine, cfg: ServeConfig, reg: &Registry) -> ServeFrontend {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_depth >= 1, "queue_depth must be at least 1");
        let shared = Arc::new(Shared {
            q: Mutex::new(Queue { items: VecDeque::new(), shutdown: false }),
            arrived: Condvar::new(),
            cfg,
            offered: reg.counter("serve.offered"),
            accepted: reg.counter("serve.accepted"),
            shed: reg.counter("serve.shed"),
            completed: reg.counter("serve.completed"),
            failed: reg.counter("serve.failed"),
            batches: reg.counter("serve.batches"),
            batch_size: reg.histogram("serve.batch_size"),
            latency_us: reg.histogram("serve.latency_us"),
            queue_depth: reg.gauge("serve.queue_depth"),
        });
        ServeFrontend { shared, engine: Some(engine), driver: None }
    }

    /// Spawn the driver thread. Idempotent-hostile by design: calling
    /// twice is a bug and panics.
    pub fn start(&mut self) {
        let engine = self.engine.take().expect("start called twice");
        let shared = self.shared.clone();
        self.driver = Some(
            std::thread::Builder::new()
                .name("serve-driver".into())
                .spawn(move || drive(engine, &shared))
                .expect("spawn serve driver"),
        );
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: self.shared.clone() }
    }

    /// Graceful shutdown: stop admitting, let the driver drain every
    /// queued request (answered, not abandoned), then join it. With no
    /// driver (never started) nothing could answer them, and a live
    /// [`ServeHandle`] would keep their reply senders alive: they resolve
    /// as [`QueryError::ShuttingDown`] here instead.
    pub fn shutdown(mut self) {
        let mut q = self.shared.q.lock().unwrap_or_else(|p| p.into_inner());
        q.shutdown = true;
        match self.driver.take() {
            Some(driver) => {
                drop(q);
                self.shared.arrived.notify_one();
                let _ = driver.join();
            }
            None => {
                let orphaned = std::mem::take(&mut q.items);
                self.shared.queue_depth.set(0);
                drop(q);
                for p in orphaned {
                    resolve(&self.shared, p, Err(QueryError::ShuttingDown));
                }
            }
        }
    }
}

/// The driver loop, work-conserving: block for the oldest request, take
/// whatever else is *already* queued (up to `max_batch`), answer it in one
/// pass, repeat. There is no hold timer: while the engine is idle a wait
/// only adds latency, and while it is busy the queue that forms behind
/// the running pass is the next batch.
fn drive(mut engine: ServeEngine, sh: &Shared) {
    loop {
        let mut batch: Vec<Pending> = {
            let mut q = sh.q.lock().unwrap_or_else(|p| p.into_inner());
            // A shutdown with requests still queued keeps looping until
            // they are answered.
            while q.items.is_empty() {
                if q.shutdown {
                    return;
                }
                q = sh.arrived.wait(q).unwrap_or_else(|p| p.into_inner());
            }
            let n = q.items.len().min(sh.cfg.max_batch);
            let batch = q.items.drain(..n).collect();
            sh.queue_depth.set(q.items.len() as i64);
            batch
        };

        sh.batches.incr();
        sh.batch_size.record(batch.len() as u64);
        let users: Vec<NodeId> = batch.iter().map(|p| p.user).collect();
        match engine.infer_batch(&users) {
            Ok(rows) => {
                for (p, scores) in batch.into_iter().zip(rows) {
                    resolve(sh, p, Ok(scores));
                }
            }
            Err(_) if batch.len() > 1 => {
                // One bad user must poison only its own reply: retry the
                // batch as singletons so a batch-mate's InvalidNode (or
                // a transient store fault mid-pass) cannot fail innocent
                // bystanders. The seeded sampler makes the retry rows
                // bitwise-equal to what the batch would have produced.
                for p in batch {
                    let r = engine
                        .infer_batch(&[p.user])
                        .map(|mut rows| rows.pop().expect("one row per user"));
                    resolve(sh, p, r);
                }
            }
            Err(e) => {
                let p = batch.pop().expect("len checked");
                resolve(sh, p, Err(e));
            }
        }
    }
}

/// Resolve one request: ledger tick (`completed` xor `failed`), latency
/// sample for successes, reply send. A dropped ticket (caller gave up)
/// is not an error.
fn resolve(sh: &Shared, p: Pending, r: Result<Vec<f32>, QueryError>) {
    let latency = p.enqueued.elapsed();
    let out = match r {
        Ok(scores) => {
            sh.completed.incr();
            sh.latency_us.record(latency.as_micros() as u64);
            Ok(Reply { scores, latency })
        }
        Err(e) => {
            sh.failed.incr();
            Err(e)
        }
    };
    let _ = p.reply.send(out);
}
