//! The store cluster: partition map + servers + traffic accounting, with
//! distributed multi-hop sampling, batched feature fetch, and a
//! fault-tolerance layer (replication, retry/backoff, circuit breaking).
//!
//! ## Fault model
//!
//! A default cluster is fail-fast: the first error surfaces to the caller,
//! exactly the pre-replication behaviour. Robustness is opt-in through the
//! builder methods:
//!
//! * [`StoreCluster::with_replication`] — r-replica placement: node `v`'s
//!   partition is also served by the `r − 1` ring successors of its primary,
//!   and requests fail over along that chain;
//! * [`StoreCluster::with_retry_policy`] — bounded retries with exponential
//!   backoff charged to the simulated clock, under a per-request deadline;
//! * [`StoreCluster::with_fault_plan`] — deterministic fault injection
//!   (crashes, drops, corruption, slow servers) from a seeded
//!   [`FaultPlan`];
//! * [`StoreCluster::with_degraded_features`] — graceful degradation: a
//!   feature group whose every replica fails falls back to zero rows
//!   instead of failing the batch.
//!
//! Two clocks coexist. [`SampleTiming`] keeps the *parallel* view (per hop,
//! concurrent RPCs overlap, so a hop costs the max over servers) used for
//! throughput accounting. [`StoreCluster::clock`] is a *sequential*
//! accounting of every attempt, backoff and failover in issue order — the
//! timeline fault windows, breaker cooldowns and deadlines are evaluated
//! against, which is what makes recovery traces deterministic.

use crate::fault::{FaultAction, FaultInjector, FaultPlan, RobustEvent};
use crate::health::{BreakerState, CircuitBreaker};
use crate::obs::StoreMetrics;
use crate::retry::RetryPolicy;
use crate::server::GraphStoreServer;
use crate::transport::{InProcessTransport, StoreTransport};
use crate::wire::Message;
use crate::StoreError;
use bgl_graph::half::RowBuf;
use bgl_graph::{Csr, FeatureBlock, FeaturePrecision, FeatureStore, NodeId};
use bgl_partition::Partition;
use bgl_sampler::neighbor::{LayerBlock, MiniBatch};
use bgl_sim::network::{NetworkModel, RobustnessStats, TrafficLedger};
use bgl_sim::SimTime;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Timing of one distributed sampling call.
#[derive(Clone, Debug, Default)]
pub struct SampleTiming {
    /// Simulated elapsed time: per hop, concurrent RPCs overlap, so each
    /// hop costs the *max* over contacted servers; hops are sequential.
    pub elapsed: SimTime,
    /// Per-hop elapsed breakdown.
    pub per_hop: Vec<SimTime>,
    /// Messages that stayed on the sampler's own server.
    pub local_requests: u64,
    /// Messages that crossed servers.
    pub remote_requests: u64,
}

/// Redirect budget per logical operation: each `NotOwner` hint teaches the
/// cluster one node's new owner and retries the operation, so the budget
/// bounds how many *stale* nodes one batch may chase. Migration is
/// rate-limited (bounded moves per re-merge period), so staleness per
/// batch is small; the cap only exists to turn a routing contradiction
/// (a server redirecting in a cycle) into an error instead of a hang.
const MAX_REDIRECTS: u32 = 16;

/// `owner → (positions in the input, node ids)`. A `BTreeMap`, because
/// requests must issue in a deterministic (owner-ascending) order or the
/// fault injector's per-request decisions — and thus the recovery trace
/// and the servers' sampling streams — would vary run to run.
pub type OwnerGroups = BTreeMap<usize, (Vec<usize>, Vec<NodeId>)>;

/// The per-target call of a [`StoreCluster::fan_out`]: either
/// [`StoreCluster::rpc_robust`] (reads: retry ladder, breakers, failover
/// along the replica chain) or [`StoreCluster::rpc_retrying`] (writes: the
/// ladder on the named server only).
pub(crate) type Rpc =
    fn(&mut StoreCluster, usize, usize, &Message) -> Result<(Message, SimTime), StoreError>;

/// A distributed graph store: one server per partition, reached through a
/// [`StoreTransport`] (in-process by default, TCP via `bgl-net`).
pub struct StoreCluster {
    transport: Box<dyn StoreTransport>,
    owner: Arc<Vec<u32>>,
    /// Owners of nodes appended by ingest (`owner_ext[i]` is the primary
    /// of node `owner.len() + i`), mirroring the servers' own extensions.
    owner_ext: Vec<u32>,
    /// Per-node owner overrides learned from committed migrations — either
    /// driven by this cluster ([`StoreCluster::migrate_node`]) or taught by
    /// a server's `NotOwner` redirect. Consulted before the base map and
    /// the ingest extension, mirroring the servers' own override maps.
    owner_override: HashMap<NodeId, u32>,
    net: NetworkModel,
    /// Cumulative traffic across all operations.
    pub ledger: TrafficLedger,
    /// Replicas per partition (1 = primary only).
    replication: usize,
    injector: Option<FaultInjector>,
    retry: RetryPolicy,
    breakers: Vec<CircuitBreaker>,
    degrade_features: bool,
    /// Wire precision of feature rows: f16 halves the bytes every feature
    /// RPC puts on the network (the D_II term of §3.4).
    feature_precision: FeaturePrecision,
    /// Sequential simulated clock: every attempt's wire time and every
    /// backoff wait advances it, in issue order. Fault windows, breaker
    /// cooldowns and retry deadlines are all evaluated against this clock.
    pub clock: SimTime,
    /// Reliability counters accumulated across all operations.
    pub robustness: RobustnessStats,
    /// Deterministic recovery trace: crash, retry, failover and breaker
    /// transitions in the order they happened.
    pub events: Vec<RobustEvent>,
    metrics: StoreMetrics,
}

impl StoreCluster {
    /// Stand up one in-process server per partition (fail-fast, no
    /// replication).
    pub fn new(
        graph: Arc<Csr>,
        features: Arc<FeatureStore>,
        partition: &Partition,
        net: NetworkModel,
        seed: u64,
    ) -> Self {
        let owner = Arc::new(partition.assignment.clone());
        let transport =
            InProcessTransport::new(graph, features, owner.clone(), partition.k, seed);
        StoreCluster::with_transport(Box::new(transport), owner, net)
    }

    /// Build a cluster over an arbitrary transport — the entry point for
    /// remote layouts, where the servers live behind `bgl-net` sockets and
    /// this side holds only the shared partition map.
    pub fn with_transport(
        transport: Box<dyn StoreTransport>,
        owner: Arc<Vec<u32>>,
        net: NetworkModel,
    ) -> Self {
        let breakers = vec![CircuitBreaker::default(); transport.num_servers()];
        StoreCluster {
            transport,
            owner,
            owner_ext: Vec::new(),
            owner_override: HashMap::new(),
            net,
            ledger: TrafficLedger::default(),
            replication: 1,
            injector: None,
            retry: RetryPolicy::none(),
            breakers,
            degrade_features: false,
            feature_precision: FeaturePrecision::default(),
            clock: 0,
            robustness: RobustnessStats::default(),
            events: Vec::new(),
            metrics: StoreMetrics::default(),
        }
    }

    /// Replace the transport, keeping every cluster-side policy (retry,
    /// breakers, fault plan, replication, accounting) intact. The new
    /// transport must front the same partition layout; the current
    /// replication factor is propagated to it.
    pub fn swap_transport(mut self, transport: Box<dyn StoreTransport>) -> Self {
        self.transport = transport;
        if self.breakers.len() != self.transport.num_servers() {
            self.breakers = vec![CircuitBreaker::default(); self.transport.num_servers()];
        }
        if self.replication > 1 {
            let n = self.transport.num_servers();
            self.transport
                .set_replication(self.replication, n)
                .expect("propagate replication to the new transport");
        }
        self
    }

    /// The shared partition map (`owner[v]` = primary server of node `v`).
    pub fn owner_map(&self) -> Arc<Vec<u32>> {
        self.owner.clone()
    }

    /// The transport this cluster runs over (`"in-process"`, `"tcp"`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Direct access to in-process server `i` — the hook chaos harnesses
    /// use to attach, checkpoint and crash durable disk tiers. `None`
    /// over remote transports, whose servers live in other processes.
    pub fn in_process_server(&self, i: usize) -> Option<&GraphStoreServer> {
        self.transport.in_process().and_then(|t| t.server(i))
    }

    /// Mirror this cluster's robustness counters and wire traffic into
    /// `reg` under `store.*`, and trace its batch operations as spans.
    pub fn attach_metrics(&mut self, reg: &bgl_obs::Registry) {
        self.metrics = StoreMetrics::attach(reg);
    }

    /// Serve each partition from its primary plus the `r − 1` ring
    /// successors, and fail requests over along that chain.
    pub fn with_replication(mut self, r: usize) -> Self {
        let k = self.transport.num_servers();
        self.replication = r.clamp(1, k.max(1));
        self.transport
            .set_replication(self.replication, k)
            .expect("propagate replication to the transport");
        self
    }

    /// Retry transient failures under `policy` (default is fail-fast).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Inject faults from a seeded deterministic [`FaultPlan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(FaultInjector::new(plan, self.transport.num_servers()));
        self
    }

    /// Replace every server's circuit breaker with `breaker`'s
    /// configuration (threshold and cooldown).
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breakers = vec![breaker; self.transport.num_servers()];
        self
    }

    /// Graceful degradation: feature groups whose every replica fails fall
    /// back to zero rows instead of failing the whole batch.
    pub fn with_degraded_features(mut self, on: bool) -> Self {
        self.degrade_features = on;
        self
    }

    /// Choose the wire precision of feature rows. With
    /// [`FeaturePrecision::F16`], feature responses carry binary16 rows —
    /// half the bytes per row on the wire and in the ledger — and
    /// [`StoreCluster::fetch_features`] hands them on as f16 block segments;
    /// whoever assembles the minibatch widens them.
    pub fn with_feature_precision(mut self, precision: FeaturePrecision) -> Self {
        self.feature_precision = precision;
        self
    }

    /// Wire precision currently in effect for feature fetches.
    pub fn feature_precision(&self) -> FeaturePrecision {
        self.feature_precision
    }

    /// Number of servers (= partitions).
    pub fn num_servers(&self) -> usize {
        self.transport.num_servers()
    }

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The server owning node `v` (its primary) — the migration override
    /// first (committed moves trump every static map), then the base
    /// partition map for frozen ids, the ingest extension for appended
    /// ones.
    pub fn owner_of(&self, v: NodeId) -> Result<usize, StoreError> {
        if let Some(&o) = self.owner_override.get(&v) {
            return Ok(o as usize);
        }
        let base = self.owner.len();
        let slot = if (v as usize) < base {
            self.owner.get(v as usize)
        } else {
            self.owner_ext.get(v as usize - base)
        };
        slot.map(|&o| o as usize).ok_or(StoreError::InvalidNode(v))
    }

    /// Total nodes the cluster routes for (frozen base + ingest appends).
    pub fn total_nodes(&self) -> usize {
        self.owner.len() + self.owner_ext.len()
    }

    /// All servers that can answer for node `v`: its primary first, then
    /// the `replication − 1` ring successors.
    pub fn replicas_of(&self, v: NodeId) -> Result<Vec<usize>, StoreError> {
        let primary = self.owner_of(v)?;
        Ok(self.replica_chain(primary))
    }

    pub(crate) fn replica_chain(&self, primary: usize) -> Vec<usize> {
        let k = self.transport.num_servers();
        if k == 0 {
            return Vec::new();
        }
        (0..self.replication.min(k)).map(|i| (primary + i) % k).collect()
    }

    /// The location id used for a worker machine (never equal to a server
    /// id, so worker traffic is always remote).
    pub fn worker_location(&self) -> usize {
        self.transport.num_servers()
    }

    /// Failure injection: take a server down / bring it back (app-level —
    /// over TCP the server keeps its sockets and rejects requests).
    /// `&self`: serve, ingest and migration paths share the cluster
    /// without exclusive borrows.
    pub fn set_server_down(&self, server: usize, down: bool) -> Result<(), StoreError> {
        self.transport.set_down(server, down)
    }

    /// Per-server request counts (sampling load balance, Table 3's cause).
    /// A transport that cannot reach its servers reports zeros.
    pub fn requests_per_server(&self) -> Vec<u64> {
        self.transport.requests_per_server().unwrap_or_default()
    }

    /// Record that `node` now lives on `owner` (a committed migration),
    /// without counting a redirect — the planner's own commits and repair
    /// go through here.
    pub(crate) fn hint_owner(&mut self, node: NodeId, owner: u32) {
        self.owner_override.insert(node, owner);
    }

    /// Learn a server's `NotOwner` hint: adopt the authoritative owner and
    /// account the redirect in the robustness trace.
    pub fn learn_owner(&mut self, node: NodeId, owner: u32) {
        self.hint_owner(node, owner);
        self.robustness.redirects += 1;
        self.events.push(RobustEvent::Redirected { node, owner });
    }

    /// The envelope of every public operation: a span named `name` around
    /// `body`, then the robustness counters and wire ledger mirrored into
    /// the attached registry (no-op when none is attached).
    pub(crate) fn traced<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let span = self.metrics.registry().span(name);
        let result = body(self);
        self.metrics.publish(&self.robustness, &self.ledger);
        span.end();
        result
    }

    /// [`StoreCluster::traced`], chasing `NotOwner` redirects: each hint
    /// teaches the cluster one node's post-migration owner, then the whole
    /// `body` retries against the corrected map. Bounded by
    /// [`MAX_REDIRECTS`] so a contradictory redirect cycle errors instead
    /// of hanging. The envelope of the ops a server can redirect (fetch,
    /// sample, update); the ingest broadcasts and `migrate_node` are never
    /// answered `NotOwner` and use `traced` directly.
    fn op<T>(
        &mut self,
        name: &'static str,
        mut body: impl FnMut(&mut Self) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        self.traced(name, |c| {
            let mut redirects = 0u32;
            loop {
                match body(c) {
                    Err(StoreError::NotOwner { node, owner }) if redirects < MAX_REDIRECTS => {
                        c.learn_owner(node, owner);
                        redirects += 1;
                    }
                    other => return other,
                }
            }
        })
    }

    /// Group `nodes` by primary owner, keeping each node's position.
    pub fn group_by_owner(&self, nodes: &[NodeId]) -> Result<OwnerGroups, StoreError> {
        let mut groups = OwnerGroups::new();
        for (i, &v) in nodes.iter().enumerate() {
            let entry = groups.entry(self.owner_of(v)?).or_default();
            entry.0.push(i);
            entry.1.push(v);
        }
        Ok(groups)
    }

    /// The one place a logical operation becomes per-server requests: each
    /// `(server, request, context)` target is sent through `rpc` and its
    /// outcome handed to `on_reply` with its context. Requests are
    /// *modelled* as parallel — the returned elapsed is the max over
    /// targets — but *issued* one at a time in iteration order, and the
    /// first error `on_reply` returns stops the fan-out: the fault
    /// injector's request counter, the sequential clock and the event
    /// trace all depend on that order.
    pub(crate) fn fan_out<R: Borrow<Message>, T>(
        &mut self,
        from: usize,
        rpc: Rpc,
        targets: impl IntoIterator<Item = (usize, R, T)>,
        mut on_reply: impl FnMut(T, Result<Message, StoreError>) -> Result<(), StoreError>,
    ) -> Result<SimTime, StoreError> {
        let mut elapsed: SimTime = 0;
        for (server, req, ctx) in targets {
            let resp = rpc(self, from, server, req.borrow()).map(|(resp, t)| {
                elapsed = elapsed.max(t);
                resp
            });
            on_reply(ctx, resp)?;
        }
        Ok(elapsed)
    }

    /// One request attempt from location `from` to server `to`: the fault
    /// injector decides its fate, every byte that moves is charged to the
    /// ledger *and* to the sequential clock. Returns the decoded response
    /// and the attempt's simulated wire time.
    fn rpc_attempt(
        &mut self,
        from: usize,
        to: usize,
        req: &Message,
    ) -> Result<(Message, SimTime), StoreError> {
        if to >= self.transport.num_servers() {
            return Err(StoreError::InvalidServer(to));
        }
        let req_frame = req.encode()?;
        let clock = self.clock;
        let mut action = FaultAction::Deliver { latency_mult: 1.0 };
        let mut injected_down = false;
        let mut fired = Vec::new();
        if let Some(inj) = self.injector.as_mut() {
            action = inj.on_request(to, clock);
            fired = inj.take_fired();
            injected_down = inj.is_down(to, clock);
        }
        for c in fired {
            self.events.push(RobustEvent::Crashed { server: c.server, at_request: c.at_request });
        }
        if let FaultAction::Drop = action {
            // The request leaves the wire and vanishes: the caller pays the
            // request's transfer time to find out nothing came back.
            let t = self.ledger.record(&self.net, from, to, req_frame.len());
            self.clock += t;
            self.robustness.drops += 1;
            return Err(StoreError::RequestDropped(to));
        }
        let latency_mult = match action {
            FaultAction::Deliver { latency_mult }
            | FaultAction::CorruptResponse { latency_mult } => latency_mult,
            FaultAction::Drop => unreachable!(),
        };
        if injected_down {
            // Dead host inside an injected crash window: the request still
            // crosses the wire before the failure is observed.
            let t = self.ledger.record_scaled(&self.net, from, to, req_frame.len(), latency_mult);
            self.clock += t;
            return Err(StoreError::ServerDown(to));
        }
        let t_req = self.ledger.record_scaled(&self.net, from, to, req_frame.len(), latency_mult);
        self.clock += t_req;
        let resp_frame = self.transport.call(to, req_frame)?;
        let t_resp =
            self.ledger.record_scaled(&self.net, to, from, resp_frame.len(), latency_mult);
        self.clock += t_resp;
        if let FaultAction::CorruptResponse { .. } = action {
            // Modeled as an integrity-check failure: the bytes crossed the
            // wire (both directions are charged) but the frame is unusable.
            self.robustness.corrupt_frames += 1;
            return Err(StoreError::CorruptFrame(to));
        }
        let resp = Message::decode(resp_frame)?;
        Ok((resp, t_req + t_resp))
    }

    /// One *logical* request to the partition owned by `primary`: a retry
    /// ladder per replica, failover along the replica chain, circuit
    /// breakers gating each server, all under the retry deadline. Returns
    /// the response and the total simulated time this logical request
    /// consumed (wire + backoff across every attempt).
    pub(crate) fn rpc_robust(
        &mut self,
        from: usize,
        primary: usize,
        req: &Message,
    ) -> Result<(Message, SimTime), StoreError> {
        if self.transport.num_servers() == 0 {
            return Err(StoreError::EmptyCluster);
        }
        let start = self.clock;
        let chain = self.replica_chain(primary);
        let mut last_err = StoreError::ServerDown(primary);
        for (ci, &srv) in chain.iter().enumerate() {
            if ci > 0 {
                self.robustness.failovers += 1;
                self.events.push(RobustEvent::FailedOver { from: chain[ci - 1], to: srv });
            }
            let was_open = self.breakers[srv].state() == BreakerState::Open;
            if !self.breakers[srv].allows(self.clock) {
                // Breaker open: route around this replica without paying a
                // doomed attempt's wire time.
                last_err = StoreError::ServerDown(srv);
                continue;
            }
            if was_open {
                self.robustness.breaker_probes += 1;
                self.events.push(RobustEvent::BreakerProbed { server: srv });
            }
            let mut attempt = 0u32;
            loop {
                match self.rpc_attempt(from, srv, req) {
                    Ok((resp, _)) => {
                        if let Some(outage) = self.breakers[srv].on_success(self.clock) {
                            self.robustness.recovery_time += outage;
                            self.events.push(RobustEvent::BreakerClosed { server: srv });
                        }
                        return Ok((resp, self.clock - start));
                    }
                    Err(e) => {
                        let transient = e.is_transient();
                        if transient && self.breakers[srv].on_failure(self.clock) {
                            self.robustness.breaker_opens += 1;
                            self.events.push(RobustEvent::BreakerOpened { server: srv });
                        }
                        if !transient {
                            // Protocol misuse or bad arguments: retrying
                            // repeats the same failure.
                            return Err(e);
                        }
                        last_err = e;
                        if self.retry.deadline_exceeded(self.clock - start) {
                            self.robustness.deadline_misses += 1;
                            return Err(StoreError::DeadlineExceeded);
                        }
                        if attempt >= self.retry.max_retries
                            || !self.breakers[srv].allows(self.clock)
                        {
                            break; // fail over to the next replica
                        }
                        let wait = self.retry.backoff(attempt);
                        self.clock += wait;
                        self.robustness.backoff_time += wait;
                        self.robustness.retries += 1;
                        self.events.push(RobustEvent::Retried { server: srv, attempt });
                        attempt += 1;
                    }
                }
            }
        }
        if chain.len() > 1 {
            Err(StoreError::AllReplicasFailed { node_owner: primary })
        } else {
            Err(last_err)
        }
    }

    /// One logical request to exactly `srv` — retry ladder only, NO
    /// failover. The write path uses this: an update must land on the
    /// named replica itself, not on whoever else answers.
    pub(crate) fn rpc_retrying(
        &mut self,
        from: usize,
        srv: usize,
        req: &Message,
    ) -> Result<(Message, SimTime), StoreError> {
        let start = self.clock;
        let mut attempt = 0u32;
        loop {
            match self.rpc_attempt(from, srv, req) {
                Ok((resp, _)) => return Ok((resp, self.clock - start)),
                Err(e) => {
                    if !e.is_transient() {
                        return Err(e);
                    }
                    if self.retry.deadline_exceeded(self.clock - start) {
                        self.robustness.deadline_misses += 1;
                        return Err(StoreError::DeadlineExceeded);
                    }
                    if attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    let wait = self.retry.backoff(attempt);
                    self.clock += wait;
                    self.robustness.backoff_time += wait;
                    self.robustness.retries += 1;
                    self.events.push(RobustEvent::Retried { server: srv, attempt });
                    attempt += 1;
                }
            }
        }
    }

    /// Durably overwrite feature rows (`rows` is `nodes.len() × dim`, in
    /// `nodes` order) on behalf of a requester at location `from`.
    ///
    /// Writes are **write-all**: every replica in the owning partition's
    /// chain must ack (each ack means WAL-fsync-durable on that replica)
    /// before the update counts as applied. There is deliberately no
    /// failover — skipping a replica would let the chain diverge, and a
    /// later read that fails over would return different bytes. Each
    /// replica gets its own retry ladder for transient faults; requests are
    /// idempotent full-row writes, so at-least-once retry is safe. Returns
    /// `(rows applied, simulated elapsed)`.
    pub fn update_features(
        &mut self,
        nodes: &[NodeId],
        rows: &[f32],
        from: usize,
    ) -> Result<(u32, SimTime), StoreError> {
        self.op("store.update_features", |c| c.update_features_inner(nodes, rows, from))
    }

    fn update_features_inner(
        &mut self,
        nodes: &[NodeId],
        rows: &[f32],
        from: usize,
    ) -> Result<(u32, SimTime), StoreError> {
        let dim = self.transport.features_dim()?;
        if nodes.is_empty() {
            return Ok((0, 0));
        }
        if dim == 0 || rows.len() != nodes.len() * dim {
            return Err(StoreError::Malformed("update rows mismatch count×dim"));
        }
        // One request per owner group, sent to every replica of its chain.
        let reqs: Vec<(usize, usize, Message)> = self
            .group_by_owner(nodes)?
            .into_iter()
            .map(|(primary, (positions, ids))| {
                let rows = positions.iter().flat_map(|&i| &rows[i * dim..(i + 1) * dim]);
                let rows = rows.copied().collect();
                (primary, ids.len(), Message::FeatureUpdateReq { dim: dim as u32, nodes: ids, rows })
            })
            .collect();
        let targets: Vec<(usize, &Message, usize)> = reqs
            .iter()
            .flat_map(|(primary, n, req)| {
                self.replica_chain(*primary).into_iter().map(move |srv| (srv, req, *n))
            })
            .collect();
        let elapsed = self.fan_out(from, Self::rpc_retrying, targets, |n, resp| {
            let Message::FeatureUpdateResp { applied } = resp? else {
                return Err(Message::unexpected());
            };
            if applied as usize != n {
                return Err(StoreError::Malformed("partial update ack"));
            }
            Ok(())
        })?;
        Ok((nodes.len() as u32, elapsed))
    }

    /// Ingest a batch of undirected edges into the live graph on behalf of
    /// a requester at location `from`.
    ///
    /// Every server holds the full adjacency (a sampler answers for any
    /// node it serves out of the shared structure), so edge inserts are
    /// **broadcast write-all**: every server must ack before the batch
    /// counts as applied, and there is deliberately no failover — skipping
    /// a server would let live graph views diverge. Each server gets its
    /// own retry ladder; the request is idempotent (an existing edge is a
    /// counted rejection, never a double insert), so at-least-once retry
    /// on the same server is safe. Returns `(applied, rejected, elapsed)`
    /// from the first server's ack — a server that already held part of a
    /// retried batch reports more rejects, which is the idempotence
    /// working, not divergence.
    ///
    /// **Partial-broadcast invariant.** Write-all is *not* atomic across
    /// servers: when the broadcast fails at server `k > 0`, servers
    /// `0..k` have already applied the batch and keep it — there is no
    /// rollback. What makes this safe is idempotent re-apply: broadcasting
    /// the identical request again converges every server to the same
    /// state without double-counting (an edge already present is a counted
    /// rejection, never a second arc; a node append with the same id is a
    /// re-ack; a feature update is a full-row overwrite). A failed
    /// broadcast therefore leaves the cluster *behind*, never *diverged*
    /// beyond re-apply — the caller retries the same batch until every
    /// server acks, and the first server's rising reject count is the
    /// proof the invariant held.
    pub fn ingest_add_edges(
        &mut self,
        edges: &[(NodeId, NodeId)],
        from: usize,
    ) -> Result<(u32, u32, SimTime), StoreError> {
        self.traced("store.ingest_add_edges", |c| c.ingest_add_edges_inner(edges, from))
    }

    fn ingest_add_edges_inner(
        &mut self,
        edges: &[(NodeId, NodeId)],
        from: usize,
    ) -> Result<(u32, u32, SimTime), StoreError> {
        let k = self.transport.num_servers();
        if k == 0 {
            return Err(StoreError::EmptyCluster);
        }
        if edges.is_empty() {
            return Ok((0, 0, 0));
        }
        let n = self.total_nodes();
        for &(u, v) in edges {
            let bad = if (u as usize) >= n {
                Some(u)
            } else if (v as usize) >= n {
                Some(v)
            } else {
                None
            };
            if let Some(w) = bad {
                return Err(StoreError::InvalidNode(w));
            }
        }
        let req = Message::AddEdgeReq { edges: edges.to_vec() };
        let mut first: Option<(u32, u32)> = None;
        let broadcast = (0..k).map(|srv| (srv, &req, ()));
        let elapsed = self.fan_out(from, Self::rpc_retrying, broadcast, |(), resp| {
            let Message::AddEdgeResp { applied, rejected } = resp? else {
                return Err(Message::unexpected());
            };
            if applied as usize + rejected as usize != edges.len() {
                return Err(StoreError::Malformed("partial edge ack"));
            }
            first.get_or_insert((applied, rejected));
            Ok(())
        })?;
        let (applied, rejected) = first.expect("k > 0 servers acked");
        Ok((applied, rejected, elapsed))
    }

    /// Ingest one new node with primary `owner` and feature row `row`,
    /// returning its cluster-assigned dense id.
    ///
    /// The coordinator (this cluster) assigns the id — the next dense one
    /// — and broadcasts it to every server write-all, so a retried append
    /// is an idempotent re-ack and server views cannot diverge. The
    /// routing map's ingest extension grows only after every server acked.
    pub fn ingest_add_node(
        &mut self,
        owner: u32,
        row: &[f32],
        from: usize,
    ) -> Result<(NodeId, SimTime), StoreError> {
        self.traced("store.ingest_add_node", |c| c.ingest_add_node_inner(owner, row, from))
    }

    fn ingest_add_node_inner(
        &mut self,
        owner: u32,
        row: &[f32],
        from: usize,
    ) -> Result<(NodeId, SimTime), StoreError> {
        let k = self.transport.num_servers();
        if k == 0 {
            return Err(StoreError::EmptyCluster);
        }
        if (owner as usize) >= k {
            return Err(StoreError::InvalidServer(owner as usize));
        }
        let dim = self.transport.features_dim()?;
        if row.len() != dim {
            return Err(StoreError::Malformed("add-node row dim mismatch"));
        }
        let id = u32::try_from(self.total_nodes())
            .map_err(|_| StoreError::TooLarge("node id space"))?;
        let req = Message::AddNodeReq { id, owner, row: row.to_vec() };
        let broadcast = (0..k).map(|srv| (srv, &req, ()));
        let elapsed = self.fan_out(from, Self::rpc_retrying, broadcast, |(), resp| {
            let Message::AddNodeResp { id: got } = resp? else {
                return Err(Message::unexpected());
            };
            if got != id {
                return Err(StoreError::Malformed("node append ack mismatch"));
            }
            Ok(())
        })?;
        self.owner_ext.push(owner);
        Ok((id, elapsed))
    }

    /// Distributed multi-hop neighbor sampling (paper Fig. 1 stage 1).
    ///
    /// The sampler is colocated with server `home`: requests for nodes
    /// owned by `home` are intra-server (shared memory), requests to any
    /// other server cross the network. Per hop, requests to distinct
    /// servers proceed in parallel, so the hop's elapsed time is the
    /// maximum RPC time. Groups are keyed by *primary* owner; failover to
    /// a replica keeps the group intact because the whole group shares one
    /// primary.
    pub fn sample_batch(
        &mut self,
        fanouts: &[usize],
        seeds: &[NodeId],
        home: usize,
    ) -> Result<(MiniBatch, SampleTiming), StoreError> {
        self.op("store.sample_batch", |c| c.sample_batch_inner(fanouts, seeds, home, None))
    }

    /// Like [`StoreCluster::sample_batch`], but every node's fanout picks
    /// come from a `(salt, hop, node)`-keyed RNG on the server instead of
    /// the server's shared sequential stream. The sampled lists therefore
    /// do not depend on how seeds are grouped into batches, on request
    /// order, or on which replica answers — the property the serving
    /// path's batched-vs-serial bitwise-identity guarantee rests on.
    pub fn sample_batch_seeded(
        &mut self,
        fanouts: &[usize],
        seeds: &[NodeId],
        home: usize,
        salt: u64,
    ) -> Result<(MiniBatch, SampleTiming), StoreError> {
        self.op("store.sample_batch", |c| c.sample_batch_inner(fanouts, seeds, home, Some(salt)))
    }

    fn sample_batch_inner(
        &mut self,
        fanouts: &[usize],
        seeds: &[NodeId],
        home: usize,
        salt: Option<u64>,
    ) -> Result<(MiniBatch, SampleTiming), StoreError> {
        if self.transport.num_servers() == 0 {
            return Err(StoreError::EmptyCluster);
        }
        let mut timing = SampleTiming::default();
        let mut blocks_rev: Vec<LayerBlock> = Vec::with_capacity(fanouts.len());
        let mut dst: Vec<NodeId> = seeds.to_vec();
        for (hop, &fanout) in fanouts.iter().enumerate() {
            let groups = self.group_by_owner(&dst)?.into_iter().map(|(server, (positions, nodes))| {
                if server == home {
                    timing.local_requests += 1;
                } else {
                    timing.remote_requests += 1;
                }
                let req = match salt {
                    // Per-hop salt: a node reached at hop 0 and again at
                    // hop 1 samples independently per hop, but identically
                    // across batches that reach it at the same hop.
                    Some(s) => Message::NeighborReqSeeded {
                        fanout: fanout as u32,
                        salt: crate::wire::mix64(s, hop as u64),
                        nodes,
                    },
                    None => Message::NeighborReq { fanout: fanout as u32, nodes },
                };
                (server, req, positions)
            });
            let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); dst.len()];
            let hop_elapsed = self.fan_out(home, Self::rpc_robust, groups, |positions, resp| {
                let Message::NeighborResp { lists: got } = resp? else {
                    return Err(Message::unexpected());
                };
                if got.len() != positions.len() {
                    return Err(StoreError::Malformed("wrong list count"));
                }
                for (list, pos) in got.into_iter().zip(positions) {
                    lists[pos] = list;
                }
                Ok(())
            })?;
            timing.per_hop.push(hop_elapsed);
            timing.elapsed += hop_elapsed;
            let edges = lists.iter().map(Vec::len).sum();
            blocks_rev.push(LayerBlock::from_lists(&dst, edges, |d, out| {
                out.extend_from_slice(&lists[d])
            }));
            dst = blocks_rev.last().unwrap().src_nodes.clone();
        }
        blocks_rev.reverse();
        Ok((
            MiniBatch { seeds: seeds.to_vec(), blocks: blocks_rev },
            timing,
        ))
    }

    /// Fetch feature rows for `nodes` on behalf of a requester at location
    /// `from` (use [`StoreCluster::worker_location`] for a worker machine).
    /// Rows come back as a [`FeatureBlock`] indexed in `nodes` order:
    /// each per-server response buffer is adopted as a block segment at
    /// the precision it travelled at — decoded once off the wire, then
    /// *referenced* (not re-copied, not widened) by downstream consumers.
    /// Elapsed is the max over the parallel per-server RPCs.
    ///
    /// With [`StoreCluster::with_degraded_features`] on, a group whose
    /// every replica fails transiently (or whose budget ran out) is left
    /// as zero rows (the block's unplaced-row semantic) and counted in
    /// [`RobustnessStats::degraded_rows`] instead of failing the batch.
    /// Degradation is recorded only by a fetch that returns `Ok` — the
    /// counters and `Degraded` events (which follow the fetch's other
    /// events) say how many zero rows a caller actually received; a fetch
    /// that fails on another group hands out no rows and records none.
    pub fn fetch_features(
        &mut self,
        nodes: &[NodeId],
        from: usize,
    ) -> Result<(FeatureBlock, SimTime), StoreError> {
        self.op("store.fetch_features", |c| c.fetch_features_inner(nodes, from))
    }

    fn fetch_features_inner(
        &mut self,
        nodes: &[NodeId],
        from: usize,
    ) -> Result<(FeatureBlock, SimTime), StoreError> {
        let dim = self.transport.features_dim()?;
        if nodes.is_empty() {
            return Ok((FeatureBlock::new(dim, 0), 0));
        }
        let (degrade, precision) = (self.degrade_features, self.feature_precision);
        let mut out = FeatureBlock::new(dim, nodes.len());
        // Degradation is tallied here and committed only by the pass that
        // returns `Ok`: a later group's `NotOwner` re-runs this whole
        // function, and the rows must not be counted once per pass.
        let mut degraded: Vec<(usize, u64)> = Vec::new();
        let groups = self.group_by_owner(nodes)?.into_iter().map(|(server, (positions, ids))| {
            let req = match precision {
                FeaturePrecision::F32 => Message::FeatureReq { nodes: ids },
                FeaturePrecision::F16 => Message::FeatureReqF16 { nodes: ids },
            };
            (server, req, (server, positions))
        });
        let elapsed = self.fan_out(from, Self::rpc_robust, groups, |(server, positions), resp| {
            // Adopt the decoded payload into the block as it is, f32
            // scalars or f16 bits: no per-row reassembly copy and no
            // conversion happens here.
            let (d, rows): (u32, RowBuf) = match resp {
                Ok(Message::FeatureResp { dim, rows }) => (dim, rows.into()),
                Ok(Message::FeatureRespF16 { dim, rows }) => (dim, rows.into()),
                Ok(_) => return Err(Message::unexpected()),
                Err(e) if degrade && degradable(&e) => {
                    // Every replica failed within budget: leave this group's
                    // positions unplaced (zero rows) rather than stalling
                    // the training step.
                    degraded.push((server, positions.len() as u64));
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            if d as usize != dim || rows.len() != positions.len() * dim {
                return Err(StoreError::Malformed("bad feature payload"));
            }
            let seg = out.adopt_segment(rows);
            for (j, &pos) in positions.iter().enumerate() {
                out.place(pos, seg, j);
            }
            Ok(())
        })?;
        if !degraded.is_empty() {
            self.robustness.degraded_batches += 1;
        }
        for (server, rows) in degraded {
            self.robustness.degraded_rows += rows;
            self.events.push(RobustEvent::Degraded { server, rows });
        }
        Ok((out, elapsed))
    }
}

/// Whether an exhausted-retry error may be absorbed by graceful
/// degradation: transient failures and spent budgets qualify; protocol
/// misuse and bad arguments never do.
fn degradable(e: &StoreError) -> bool {
    e.is_transient()
        || matches!(
            e,
            StoreError::DeadlineExceeded | StoreError::AllReplicasFailed { .. }
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_partition::{Partitioner, RoundRobinPartitioner};
    use bgl_sim::MILLISECOND;

    fn setup(k: usize) -> (Arc<Csr>, StoreCluster) {
        let g = Arc::new(bgl_graph::generate::barabasi_albert(200, 4, 3));
        let f = Arc::new(FeatureStore::zeros(200, 4));
        let p = RoundRobinPartitioner.partition(&g, &[], k);
        let cluster =
            StoreCluster::new(g.clone(), f, &p, NetworkModel::paper_fabric(), 11);
        (g, cluster)
    }

    #[test]
    fn sampled_batch_is_valid() {
        let (g, mut cluster) = setup(4);
        let (mb, timing) = cluster.sample_batch(&[3, 2], &[0, 1, 2], 0).unwrap();
        assert_eq!(mb.blocks.len(), 2);
        assert_eq!(mb.blocks.last().unwrap().dst_nodes, vec![0, 1, 2]);
        for b in &mb.blocks {
            assert_eq!(&b.src_nodes[..b.num_dst()], &b.dst_nodes[..]);
            for d in 0..b.num_dst() {
                for &sl in b.neighbors_of(d) {
                    assert!(g.has_edge(b.dst_nodes[d], b.src_nodes[sl as usize]));
                }
            }
        }
        assert!(timing.elapsed > 0);
        assert_eq!(timing.per_hop.len(), 2);
        assert!(!cluster.robustness.any_faults());
    }

    #[test]
    fn seeded_sampling_is_composition_independent() {
        let (_, mut cluster) = setup(4);
        let salt = 0xA11CE;
        // Same seed in three different batch compositions → identical
        // sampled blocks for that seed's own single-seed batch.
        let (solo, _) = cluster.sample_batch_seeded(&[3, 2], &[7], 0, salt).unwrap();
        let (again, _) = cluster.sample_batch_seeded(&[3, 2], &[7], 0, salt).unwrap();
        assert_eq!(solo.blocks, again.blocks);
        // Interleave unrelated batches; the solo result must not move
        // (the shared-stream sampler would reshuffle here).
        cluster.sample_batch_seeded(&[3, 2], &[1, 2, 3], 0, salt).unwrap();
        let (third, _) = cluster.sample_batch_seeded(&[3, 2], &[7], 0, salt).unwrap();
        assert_eq!(solo.blocks, third.blocks);
        // A different salt produces a different sample.
        let (moved, _) = cluster
            .sample_batch_seeded(&[3, 2], &[7], 0, salt ^ 1)
            .unwrap();
        assert_ne!(solo.blocks, moved.blocks);
        // The unseeded path still consumes the shared stream.
        let (a, _) = cluster.sample_batch(&[3, 2], &[7], 0).unwrap();
        let (b, _) = cluster.sample_batch(&[3, 2], &[7], 0).unwrap();
        assert_ne!(a.blocks, b.blocks);
    }

    #[test]
    fn attached_metrics_mirror_ledger_and_spans() {
        use bgl_obs::Ledger;
        let (_, mut cluster) = setup(4);
        let reg = bgl_obs::Registry::enabled();
        cluster.attach_metrics(&reg);
        cluster.sample_batch(&[3, 2], &[0, 1, 2], 0).unwrap();
        let nodes: Vec<NodeId> = (0..8).collect();
        cluster.fetch_features(&nodes, cluster.worker_location()).unwrap();
        assert!(cluster.ledger.remote.bytes > 0);
        let counters: std::collections::BTreeMap<_, _> = reg.counters().into_iter().collect();
        let mirrored = (RobustnessStats::FIELDS.iter().zip(cluster.robustness.to_array()))
            .chain(TrafficLedger::FIELDS.iter().zip(cluster.ledger.to_array()));
        for (field, value) in mirrored {
            assert_eq!(counters[&format!("store.{field}")], value, "{field}");
        }
        let names: Vec<String> = reg.spans().iter().map(|s| s.name.to_string()).collect();
        assert!(names.contains(&"store.sample_batch".to_string()));
        assert!(names.contains(&"store.fetch_features".to_string()));
    }

    #[test]
    fn local_partition_avoids_remote_traffic() {
        // Single partition: everything is local.
        let (_, mut cluster) = setup(1);
        let (_, timing) = cluster.sample_batch(&[3], &[5, 6], 0).unwrap();
        assert_eq!(timing.remote_requests, 0);
        assert!(timing.local_requests > 0);
        assert_eq!(cluster.ledger.remote.messages, 0);
    }

    #[test]
    fn round_robin_partition_forces_remote_traffic() {
        let (_, mut cluster) = setup(4);
        // Round-robin scatters every neighborhood: expect remote requests.
        let (_, timing) = cluster.sample_batch(&[5, 5], &[0, 1, 2, 3], 0).unwrap();
        assert!(timing.remote_requests > 0);
        assert!(cluster.ledger.remote.bytes > 0);
    }

    #[test]
    fn features_in_order_from_worker() {
        let g = Arc::new(bgl_graph::generate::barabasi_albert(50, 3, 5));
        let mut f = FeatureStore::zeros(50, 2);
        for v in 0..50u32 {
            f.row_mut(v).copy_from_slice(&[v as f32, v as f32 + 0.5]);
        }
        let p = RoundRobinPartitioner.partition(&g, &[], 2);
        let mut cluster = StoreCluster::new(
            g,
            Arc::new(f),
            &p,
            NetworkModel::paper_fabric(),
            1,
        );
        let w = cluster.worker_location();
        let (rows, elapsed) = cluster.fetch_features(&[7, 3, 10], w).unwrap();
        assert_eq!(rows.to_vec(), vec![7.0, 7.5, 3.0, 3.5, 10.0, 10.5]);
        assert!(elapsed > 0);
        // Worker traffic is always remote.
        assert_eq!(cluster.ledger.local.messages, 0);
    }

    #[test]
    fn f16_precision_halves_feature_response_bytes() {
        let g = Arc::new(bgl_graph::generate::barabasi_albert(50, 3, 5));
        let mut f = FeatureStore::zeros(50, 4);
        for v in 0..50u32 {
            // Values exact in binary16, so the fetched rows match bitwise.
            for (j, x) in f.row_mut(v).iter_mut().enumerate() {
                *x = v as f32 + j as f32 * 0.25;
            }
        }
        let f = Arc::new(f);
        let p = RoundRobinPartitioner.partition(&g, &[], 2);
        let fetch_bytes = |precision: FeaturePrecision| {
            let mut cluster = StoreCluster::new(
                g.clone(),
                f.clone(),
                &p,
                NetworkModel::paper_fabric(),
                1,
            )
            .with_feature_precision(precision);
            let w = cluster.worker_location();
            let (rows, _) = cluster.fetch_features(&[7, 3, 10, 21], w).unwrap();
            (rows.to_vec(), cluster.ledger.remote.bytes)
        };
        let (rows32, bytes32) = fetch_bytes(FeaturePrecision::F32);
        let (rows16, bytes16) = fetch_bytes(FeaturePrecision::F16);
        // Same values (exact in f16), half the response payload. Request
        // frames are identical in size, and each of the 2 contacted servers
        // returns 9 bytes of header either way.
        assert_eq!(rows32, rows16);
        let row_payload32 = 4 * 4 * 4; // 4 nodes × dim 4 × 4 B
        assert_eq!(bytes32 - bytes16, (row_payload32 / 2) as u64);
    }

    #[test]
    fn down_server_surfaces_error() {
        let (_, mut cluster) = setup(2);
        cluster.set_server_down(1, true).unwrap();
        let err = cluster.sample_batch(&[3], &[1], 0).unwrap_err();
        assert_eq!(err, StoreError::ServerDown(1));
        cluster.set_server_down(1, false).unwrap();
        assert!(cluster.sample_batch(&[3], &[1], 0).is_ok());
    }

    #[test]
    fn request_load_is_tracked() {
        let (_, mut cluster) = setup(2);
        cluster.sample_batch(&[2], &[0, 1, 2, 3], 0).unwrap();
        let reqs = cluster.requests_per_server();
        assert_eq!(reqs.len(), 2);
        assert!(reqs.iter().sum::<u64>() > 0);
    }

    #[test]
    fn out_of_range_indices_error_instead_of_panicking() {
        let (_, mut cluster) = setup(2);
        assert_eq!(cluster.owner_of(100_000), Err(StoreError::InvalidNode(100_000)));
        assert_eq!(
            cluster.set_server_down(9, true),
            Err(StoreError::InvalidServer(9))
        );
        assert_eq!(
            cluster.sample_batch(&[2], &[100_000], 0).unwrap_err(),
            StoreError::InvalidNode(100_000)
        );
        let w = cluster.worker_location();
        assert_eq!(
            cluster.fetch_features(&[100_000], w).unwrap_err(),
            StoreError::InvalidNode(100_000)
        );
    }

    #[test]
    fn empty_cluster_errors_instead_of_panicking() {
        let g = Arc::new(bgl_graph::generate::barabasi_albert(10, 2, 1));
        let f = Arc::new(FeatureStore::zeros(10, 2));
        let p = Partition { k: 0, assignment: vec![] };
        let mut cluster =
            StoreCluster::new(g, f, &p, NetworkModel::paper_fabric(), 1);
        assert_eq!(cluster.fetch_features(&[0], 0).unwrap_err(), StoreError::EmptyCluster);
        assert_eq!(
            cluster.sample_batch(&[2], &[0], 0).unwrap_err(),
            StoreError::EmptyCluster
        );
    }

    #[test]
    fn replicas_of_walks_the_successor_chain() {
        let (_, cluster) = setup(4);
        let cluster = cluster.with_replication(2);
        // Node 1 is primary-owned by server 1 (round-robin).
        assert_eq!(cluster.replicas_of(1).unwrap(), vec![1, 2]);
        // The chain wraps the ring.
        assert_eq!(cluster.replicas_of(3).unwrap(), vec![3, 0]);
        assert!(cluster.replicas_of(100_000).is_err());
    }

    #[test]
    fn failover_to_replica_when_primary_is_down() {
        let (_, mut cluster) = setup(2);
        cluster = cluster.with_replication(2);
        cluster.set_server_down(1, true).unwrap();
        // Node 1's primary (server 1) is down; its replica (server 0)
        // serves the request.
        let (mb, _) = cluster.sample_batch(&[3], &[1], 0).unwrap();
        assert_eq!(mb.seeds, vec![1]);
        assert!(cluster.robustness.failovers > 0);
        assert!(cluster
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::FailedOver { from: 1, to: 0 })));
        let w = cluster.worker_location();
        assert!(cluster.fetch_features(&[1, 2], w).is_ok());
    }

    #[test]
    fn retry_recovers_from_transient_drops() {
        // Drop probability below 1 with retries on: the batch eventually
        // lands, and the retry accounting shows the recovered attempts.
        let (_, cluster) = setup(2);
        let mut cluster = cluster
            .with_fault_plan(FaultPlan::new(5).drops(0.3))
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                deadline: None,
                ..RetryPolicy::default()
            })
            // A high threshold keeps the breaker out of the way so the
            // ladder alone absorbs the drops.
            .with_breaker(CircuitBreaker::new(1_000, MILLISECOND));
        for s in 0..8u32 {
            cluster.sample_batch(&[3, 2], &[s, s + 1], 0).unwrap();
        }
        assert!(cluster.robustness.drops > 0);
        assert!(cluster.robustness.retries > 0);
        assert!(cluster.robustness.backoff_time > 0);
    }

    #[test]
    fn degraded_features_fall_back_to_zeros() {
        let (_, mut cluster) = setup(2);
        cluster = cluster.with_degraded_features(true);
        cluster.set_server_down(1, true).unwrap();
        let w = cluster.worker_location();
        // Nodes 1 and 3 live on the downed server: their rows degrade to
        // zeros; nodes on server 0 are served normally.
        let (rows, _) = cluster.fetch_features(&[0, 1, 3], w).unwrap();
        assert_eq!((rows.len(), rows.dim()), (3, 4));
        // The degraded positions read as zero rows (unplaced in the block).
        assert!(rows.row(1).iter().all(|&x| x == 0.0));
        assert!(rows.row(2).iter().all(|&x| x == 0.0));
        assert_eq!(cluster.robustness.degraded_rows, 2);
        assert_eq!(cluster.robustness.degraded_batches, 1);
        assert!(cluster
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::Degraded { server: 1, rows: 2 })));
        // Sampling still fails hard — degradation is a feature-path policy.
        assert!(cluster.sample_batch(&[2], &[1], 0).is_err());
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_recovers() {
        let (_, mut cluster) = setup(2);
        cluster = cluster.with_retry_policy(RetryPolicy {
            max_retries: 5,
            deadline: None,
            ..RetryPolicy::default()
        });
        cluster.set_server_down(1, true).unwrap();
        assert!(cluster.sample_batch(&[2], &[1], 0).is_err());
        assert!(cluster.robustness.breaker_opens > 0);
        assert!(cluster
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::BreakerOpened { server: 1 })));
        // Bring the server back; advance past the cooldown so the breaker
        // admits a half-open probe, which closes it.
        cluster.set_server_down(1, false).unwrap();
        cluster.clock += 10 * MILLISECOND;
        assert!(cluster.sample_batch(&[2], &[1], 0).is_ok());
        assert!(cluster.robustness.breaker_probes > 0);
        assert!(cluster.robustness.recovery_time > 0);
        assert!(cluster
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::BreakerClosed { server: 1 })));
    }

    #[test]
    fn deadline_bounds_the_retry_ladder() {
        let (_, mut cluster) = setup(2);
        cluster = cluster
            .with_retry_policy(RetryPolicy {
                max_retries: 1_000,
                deadline: Some(MILLISECOND),
                ..RetryPolicy::default()
            })
            .with_breaker(CircuitBreaker::new(1_000, MILLISECOND));
        cluster.set_server_down(1, true).unwrap();
        let err = cluster.sample_batch(&[2], &[1], 0).unwrap_err();
        assert_eq!(err, StoreError::DeadlineExceeded);
        assert_eq!(cluster.robustness.deadline_misses, 1);
    }

    #[test]
    fn all_replicas_failed_when_chain_is_exhausted() {
        let (_, mut cluster) = setup(2);
        cluster = cluster.with_replication(2);
        cluster.set_server_down(0, true).unwrap();
        cluster.set_server_down(1, true).unwrap();
        let err = cluster.sample_batch(&[2], &[1], 0).unwrap_err();
        assert_eq!(err, StoreError::AllReplicasFailed { node_owner: 1 });
    }

    /// Stand up a cluster whose every server has a durable disk tier, so
    /// the update path has a WAL to land on. Returns the tier directories
    /// for post-hoc inspection.
    fn setup_durable(k: usize, tag: &str) -> (StoreCluster, Vec<std::path::PathBuf>) {
        use crate::tier::{DiskTierConfig, DurableFeatures};
        let g = Arc::new(bgl_graph::generate::barabasi_albert(60, 3, 2));
        let mut f = FeatureStore::zeros(60, 2);
        for v in 0..60u32 {
            f.row_mut(v).copy_from_slice(&[v as f32, v as f32 + 0.5]);
        }
        let f = Arc::new(f);
        let owner: Arc<Vec<u32>> = Arc::new((0..60u32).map(|v| v % k as u32).collect());
        let transport = InProcessTransport::new(g, f.clone(), owner.clone(), k, 5);
        let mut dirs = Vec::new();
        for i in 0..k {
            let mut dir = std::env::temp_dir();
            dir.push(format!("bgl-cluster-disk-{}-{}-{}", std::process::id(), tag, i));
            let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(8);
            let tier = DurableFeatures::create(&dir, &f, cfg).unwrap();
            transport.server(i).unwrap().attach_disk_tier(tier);
            dirs.push(dir);
        }
        let cluster = StoreCluster::with_transport(
            Box::new(transport),
            owner,
            NetworkModel::paper_fabric(),
        );
        (cluster, dirs)
    }

    #[test]
    fn update_features_lands_on_every_replica() {
        use crate::tier::{DiskTierConfig, DurableFeatures};
        let (cluster, dirs) = setup_durable(2, "writeall");
        let mut cluster = cluster.with_replication(2);
        let w = cluster.worker_location();
        // Node 3 (server 1 primary, server 0 replica) and node 4 (server 0
        // primary, server 1 replica): both chains span both servers.
        let (applied, elapsed) = cluster
            .update_features(&[3, 4], &[30.0, 31.0, 40.0, 41.0], w)
            .unwrap();
        assert_eq!(applied, 2);
        assert!(elapsed > 0);
        // Reads (which may land on either replica) see the new rows.
        let (rows, _) = cluster.fetch_features(&[3, 4], w).unwrap();
        assert_eq!(rows.to_vec(), vec![30.0, 31.0, 40.0, 41.0]);
        drop(cluster);
        // Both replicas hold the update WAL-durably: reopen each tier cold.
        for dir in &dirs {
            let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(8);
            let (mut tier, report) = DurableFeatures::open(dir, cfg).unwrap();
            assert_eq!(report.replayed_updates, 2, "each server acked both rows");
            let mut out = Vec::new();
            tier.read_row_into(3, &mut out).unwrap();
            tier.read_row_into(4, &mut out).unwrap();
            assert_eq!(out, vec![30.0, 31.0, 40.0, 41.0]);
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn update_features_retries_transient_drops_without_failover() {
        let (cluster, dirs) = setup_durable(2, "retry");
        let mut cluster = cluster
            .with_replication(2)
            .with_fault_plan(FaultPlan::new(5).drops(0.3))
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                deadline: None,
                ..RetryPolicy::default()
            })
            .with_breaker(CircuitBreaker::new(1_000, MILLISECOND));
        let w = cluster.worker_location();
        for v in 0..10u32 {
            let (applied, _) = cluster
                .update_features(&[v], &[v as f32 * 2.0, 0.0], w)
                .unwrap();
            assert_eq!(applied, 1);
        }
        assert!(cluster.robustness.drops > 0, "the plan actually dropped requests");
        assert!(cluster.robustness.retries > 0, "the ladder absorbed them");
        // Write-all never fails over: a dropped request is retried on the
        // SAME replica.
        assert_eq!(cluster.robustness.failovers, 0);
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn update_features_validates_shape_and_tier_presence() {
        // No disk tier attached: a hard Storage error, not a retry storm.
        let (_, mut cluster) = setup(2);
        let w = cluster.worker_location();
        assert_eq!(
            cluster.update_features(&[0], &[0.0; 4], w).unwrap_err(),
            StoreError::Storage("no disk tier attached")
        );
        // Shape mismatch is rejected before any RPC.
        let (mut cluster, dirs) = setup_durable(2, "shape");
        let w = cluster.worker_location();
        assert_eq!(
            cluster.update_features(&[0], &[1.0], w).unwrap_err(),
            StoreError::Malformed("update rows mismatch count×dim")
        );
        assert_eq!(cluster.update_features(&[], &[], w).unwrap(), (0, 0));
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn ingest_broadcasts_to_every_server_and_routes_new_nodes() {
        let (_, mut cluster) = setup(2);
        let w = cluster.worker_location();
        let base_nodes = cluster.total_nodes();
        let base_edges = cluster.in_process_server(0).unwrap().num_edges();
        // Coordinator assigns the next dense id and every server holds it.
        let (id, elapsed) = cluster.ingest_add_node(1, &[9.0; 4], w).unwrap();
        assert_eq!(id as usize, base_nodes);
        assert!(elapsed > 0);
        assert_eq!(cluster.total_nodes(), base_nodes + 1);
        assert_eq!(cluster.owner_of(id).unwrap(), 1);
        for i in 0..2 {
            let srv = cluster.in_process_server(i).unwrap();
            assert_eq!(srv.num_nodes(), base_nodes + 1, "server {} holds the node", i);
            // Full-graph replication means every server HOLDS the node;
            // only its primary SERVES it (replication is 1 here).
            assert_eq!(srv.owns(id), i == 1);
            assert_eq!(srv.serves(id), i == 1);
        }
        // Edge batch: one new edge plus an in-batch duplicate.
        let (applied, rejected, _) = cluster
            .ingest_add_edges(&[(id, 2), (id, 2)], w)
            .unwrap();
        assert_eq!((applied, rejected), (1, 1));
        for i in 0..2 {
            let srv = cluster.in_process_server(i).unwrap();
            assert_eq!(srv.num_edges(), base_edges + 2, "both arcs on server {}", i);
        }
        // The appended node is fully routable: features and sampling.
        let (rows, _) = cluster.fetch_features(&[id], w).unwrap();
        assert_eq!(rows.to_vec(), vec![9.0; 4]);
        let (mb, _) = cluster.sample_batch(&[2], &[id], w).unwrap();
        assert_eq!(mb.seeds, vec![id]);
        // Validation happens before any RPC mutates state.
        assert_eq!(
            cluster.ingest_add_edges(&[(0, 100_000)], w).unwrap_err(),
            StoreError::InvalidNode(100_000)
        );
        assert_eq!(
            cluster.ingest_add_node(9, &[0.0; 4], w).unwrap_err(),
            StoreError::InvalidServer(9)
        );
        assert_eq!(
            cluster.ingest_add_node(0, &[0.0; 3], w).unwrap_err(),
            StoreError::Malformed("add-node row dim mismatch")
        );
        assert_eq!(cluster.ingest_add_edges(&[], w).unwrap(), (0, 0, 0));
    }

    #[test]
    fn ingest_is_wal_durable_on_every_server() {
        use crate::tier::{DiskTierConfig, DurableFeatures};
        let (cluster, dirs) = setup_durable(2, "ingest");
        // Replication 2 puts both servers on the new node's update chain,
        // so the overwrite below lands (and journals) everywhere too.
        let mut cluster = cluster.with_replication(2);
        let w = cluster.worker_location();
        let (id, _) = cluster.ingest_add_node(0, &[7.0, 7.5], w).unwrap();
        cluster.ingest_add_edges(&[(id, 5)], w).unwrap();
        // Overwrite the appended row: journaled as a second NodeAppend.
        cluster.update_features(&[id], &[70.0, 70.5], w).unwrap();
        let (rows, _) = cluster.fetch_features(&[id], w).unwrap();
        assert_eq!(rows.to_vec(), vec![70.0, 70.5]);
        drop(cluster);
        // Every server's WAL replays the append and the edge cold.
        for dir in &dirs {
            let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(8);
            let (tier, report) = DurableFeatures::open(dir, cfg).unwrap();
            assert_eq!(report.replayed_nodes, 2, "append + overwrite");
            assert_eq!(report.replayed_edges, 1);
            assert_eq!(tier.pending_edges(), &[(id, 5)]);
            let last = tier.pending_nodes().last().unwrap();
            assert_eq!(last, &(id, 0u32, vec![70.0, 70.5]));
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn partial_broadcast_reapply_converges_without_double_counting() {
        // The partial-broadcast invariant (see `ingest_add_edges` docs):
        // write-all failing at server k>0 leaves servers 0..k applied, and
        // idempotent re-apply of the identical batch converges every view.
        let (g, mut cluster) = setup(2);
        let w = cluster.worker_location();
        let u: NodeId = 0;
        let v = (1..200u32).find(|&v| !g.has_edge(u, v)).unwrap();
        let base_edges = cluster.in_process_server(0).unwrap().num_edges();
        let base_nodes = cluster.total_nodes();
        // Server 1 dies mid-broadcast: server 0 already applied the edge.
        cluster.set_server_down(1, true).unwrap();
        assert_eq!(
            cluster.ingest_add_edges(&[(u, v)], w).unwrap_err(),
            StoreError::ServerDown(1)
        );
        assert_eq!(cluster.in_process_server(0).unwrap().num_edges(), base_edges + 2);
        assert_eq!(cluster.in_process_server(1).unwrap().num_edges(), base_edges);
        // Re-apply the identical batch: server 0 counts a rejection (the
        // idempotence working), server 1 applies, views converge.
        cluster.set_server_down(1, false).unwrap();
        let (applied, rejected, _) = cluster.ingest_add_edges(&[(u, v)], w).unwrap();
        assert_eq!((applied, rejected), (0, 1));
        for i in 0..2 {
            assert_eq!(
                cluster.in_process_server(i).unwrap().num_edges(),
                base_edges + 2,
                "server {} converged with exactly one copy of the edge",
                i
            );
        }
        // Node appends hold the same invariant: the id is not consumed on
        // a failed broadcast, so the retry re-acks on server 0 and applies
        // on server 1 — no double append, no id gap.
        cluster.set_server_down(1, true).unwrap();
        assert_eq!(
            cluster.ingest_add_node(0, &[5.0; 4], w).unwrap_err(),
            StoreError::ServerDown(1)
        );
        assert_eq!(cluster.total_nodes(), base_nodes, "routing map did not grow");
        cluster.set_server_down(1, false).unwrap();
        let (id, _) = cluster.ingest_add_node(0, &[5.0; 4], w).unwrap();
        assert_eq!(id as usize, base_nodes);
        for i in 0..2 {
            assert_eq!(cluster.in_process_server(i).unwrap().num_nodes(), base_nodes + 1);
        }
        assert_eq!(cluster.total_nodes(), base_nodes + 1);
    }

    #[test]
    fn stale_owner_map_redirects_instead_of_hanging() {
        let (_, mut cluster) = setup(2);
        let reg = bgl_obs::Registry::enabled();
        cluster.attach_metrics(&reg);
        let v: NodeId = 1; // round-robin: owned by server 1
        // Flip ownership behind the cluster's back (as a peer planner
        // would): both servers commit v → server 0, this cluster's map
        // stays stale.
        let commit = Message::CommitMigrateReq { node: v, owner: 0 }.encode().unwrap();
        for i in 0..2 {
            cluster.in_process_server(i).unwrap().handle(commit.clone()).unwrap();
        }
        assert_eq!(cluster.owner_of(v).unwrap(), 1, "map is stale");
        // The stale fetch hits server 1, learns the NotOwner hint, and
        // lands on server 0 — one redirect, no hang, no error.
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[v], w).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(cluster.robustness.redirects, 1);
        assert!(cluster
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::Redirected { node: 1, owner: 0 })));
        assert_eq!(cluster.owner_of(v).unwrap(), 0, "the hint stuck");
        // Sampling takes the same redirect path with a fresh stale node.
        let commit = Message::CommitMigrateReq { node: 3, owner: 0 }.encode().unwrap();
        for i in 0..2 {
            cluster.in_process_server(i).unwrap().handle(commit.clone()).unwrap();
        }
        let (mb, _) = cluster.sample_batch(&[2], &[3], 0).unwrap();
        assert_eq!(mb.seeds, vec![3]);
        assert_eq!(cluster.robustness.redirects, 2);
        // An operator watching the registry sees the stale map being chased.
        assert_eq!(reg.counter("store.redirects").get(), 2);
    }

    #[test]
    fn degraded_rows_count_once_when_a_later_group_redirects() {
        let (_, cluster) = setup(3);
        let mut cluster = cluster.with_degraded_features(true);
        // Node 1 moves 1 -> 2 behind the cluster's back, then server 0 dies:
        // group 0 degrades *before* group 1 answers `NotOwner`, and the
        // redirect re-runs the whole fetch.
        let commit = Message::CommitMigrateReq { node: 1, owner: 2 }.encode().unwrap();
        for i in 0..3 {
            cluster.in_process_server(i).unwrap().handle(commit.clone()).unwrap();
        }
        cluster.set_server_down(0, true).unwrap();
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[0, 3, 1], w).unwrap();
        assert!(rows.row(0).iter().chain(rows.row(1)).all(|&x| x == 0.0));
        assert_eq!(cluster.robustness.redirects, 1);
        assert_eq!(cluster.robustness.degraded_rows, 2, "the dead group's rows, once");
        assert_eq!(cluster.robustness.degraded_batches, 1);
        let degraded: Vec<_> = cluster
            .events
            .iter()
            .filter(|e| matches!(e, RobustEvent::Degraded { .. }))
            .collect();
        assert_eq!(degraded, vec![&RobustEvent::Degraded { server: 0, rows: 2 }]);
    }

    #[test]
    fn a_failed_fetch_records_no_degradation() {
        let (_, cluster) = setup(3);
        let mut cluster = cluster.with_degraded_features(true);
        // The map wrongly sends node 1 to server 2, which never committed
        // the move: it answers `NotOwned` — not degradable, not a redirect —
        // after the dead group 0 was already absorbed.
        cluster.hint_owner(1, 2);
        cluster.set_server_down(0, true).unwrap();
        let w = cluster.worker_location();
        assert_eq!(
            cluster.fetch_features(&[0, 3, 1], w).unwrap_err(),
            StoreError::NotOwned { node: 1, server: 2 }
        );
        // No caller received a zero row, so none is counted.
        assert_eq!(cluster.robustness.degraded_rows, 0);
        assert_eq!(cluster.robustness.degraded_batches, 0);
        assert!(!cluster.events.iter().any(|e| matches!(e, RobustEvent::Degraded { .. })));
    }

    #[test]
    fn injected_crash_window_heals_with_time() {
        let (_, cluster) = setup(2);
        // Server 1 crashes at the very first request, for 1 ms of
        // simulated time; retries with backoff outlast the window.
        let mut cluster = cluster
            .with_fault_plan(FaultPlan::new(9).crash(1, 1, MILLISECOND))
            .with_retry_policy(RetryPolicy { deadline: None, ..RetryPolicy::default() })
            .with_replication(2);
        let (mb, _) = cluster.sample_batch(&[3, 3], &[1, 2, 3], 0).unwrap();
        assert_eq!(mb.seeds, vec![1, 2, 3]);
        assert!(cluster
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::Crashed { server: 1, .. })));
    }
}
