//! One graph store server: owns a partition, serves neighbor-sampling and
//! feature RPCs through the wire codec.
//!
//! Samplers run on the CPUs of the graph store servers (paper §3.1), which
//! is why the *server* performs the fanout sampling: a request for a node's
//! neighbors returns an already-sampled list, not the full adjacency.
//!
//! The server is internally synchronized (`handle` takes `&self`): the TCP
//! runtime in `bgl-net` serves one `GraphStoreServer` from many connection
//! threads at once, so the request/served counters are atomics and the
//! sampling RNG sits behind a mutex. The in-process transport drives the
//! same interface single-threaded and pays only uncontended atomic ops.

use crate::pager::DiskError;
use crate::tier::DurableFeatures;
use crate::wire::Message;
use crate::StoreError;
use bgl_graph::half::{RowBuf, RowRef};
use bgl_graph::{Csr, DynamicGraph, FeaturePrecision, FeatureStore, NodeId};
use bytes::Bytes;
use rand::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A graph store server owning one partition (and, with replication on,
/// holding replicas of its predecessor partitions).
pub struct GraphStoreServer {
    id: usize,
    /// The live graph: the frozen CSR everyone shared at construction,
    /// overlaid with ingest mutations. Read-locked per sampling request,
    /// write-locked only by ingest arms and re-merge.
    graph: RwLock<DynamicGraph>,
    features: Arc<FeatureStore>,
    /// `owner[v]` is the server owning node `v` (shared partition map,
    /// covering the frozen base ids).
    owner: Arc<Vec<u32>>,
    /// Owners of nodes appended by ingest (`owner_ext[i]` is the owner of
    /// node `owner.len() + i`). Pushed *last* in the add-node arm, so a
    /// node passing [`GraphStoreServer::serves`] always has its graph
    /// entry and feature row in place.
    owner_ext: RwLock<Vec<u32>>,
    /// Feature rows of appended nodes, dense `dim`-wide rows indexed by
    /// `v - features.num_nodes()`.
    feat_ext: RwLock<Vec<f32>>,
    /// Replication factor: this server also serves nodes whose primary is
    /// one of its `replication − 1` predecessors (successor-chain layout).
    replication: AtomicUsize,
    /// Cluster size, needed to wrap the successor chain.
    num_servers: AtomicUsize,
    /// Fanout-sampling RNG. One lock per neighbor request keeps a whole
    /// request's picks contiguous in the stream, so a single-threaded
    /// caller sequence is deterministic regardless of transport.
    rng: Mutex<StdRng>,
    /// Failure injection: a down server rejects every request.
    down: AtomicBool,
    /// Requests served (for load-balance accounting, Table 3's imbalance).
    requests_served: AtomicU64,
    /// Nodes sampled locally by this server's colocated sampler.
    nodes_sampled: AtomicU64,
    /// Optional durable disk tier. When attached, feature reads go through
    /// its buffer pool and feature updates go WAL-first (DESIGN.md §11).
    disk: Mutex<Option<DurableFeatures>>,
    /// Committed migration owner flips, overriding the shared base map
    /// (and `owner_ext`). Consulted *first* by [`owner_primary`], so
    /// `serves` reflects a migration the moment its commit lands here.
    /// Journaled to the WAL before insertion when a tier is attached.
    ///
    /// [`owner_primary`]: GraphStoreServer::owner_primary
    owner_override: RwLock<HashMap<NodeId, u32>>,
    /// Nodes whose source copy this server retired after a committed
    /// migration (phase 4). Logical retirement: `serves` already rejects
    /// post-commit; the set keeps retirement idempotent across retries.
    tombstoned: RwLock<HashSet<NodeId>>,
}

/// Flatten a [`DiskError`] into the store's wire-expressible error space.
/// Transient I/O was already retried inside the tier, so everything that
/// escapes is a hard storage fault.
fn storage_err(e: DiskError) -> StoreError {
    StoreError::Storage(match e {
        DiskError::Io(_) => "i/o failure",
        DiskError::TransientIo(_) => "transient i/o retries exhausted",
        DiskError::BadMagic { .. } => "bad magic",
        DiskError::BadVersion { .. } => "unsupported version",
        DiskError::Truncated(_) => "truncated file",
        DiskError::ChecksumMismatch { .. } => "checksum mismatch",
        DiskError::Invariant(_) => "storage invariant violated",
        DiskError::AllFramesPinned => "buffer pool exhausted",
    })
}

impl GraphStoreServer {
    pub fn new(
        id: usize,
        graph: Arc<Csr>,
        features: Arc<FeatureStore>,
        owner: Arc<Vec<u32>>,
        seed: u64,
    ) -> Self {
        GraphStoreServer {
            id,
            graph: RwLock::new(DynamicGraph::new(graph)),
            features,
            owner,
            owner_ext: RwLock::new(Vec::new()),
            feat_ext: RwLock::new(Vec::new()),
            replication: AtomicUsize::new(1),
            num_servers: AtomicUsize::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(
                seed ^ (id as u64).wrapping_mul(0x9E3779B9),
            )),
            down: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            nodes_sampled: AtomicU64::new(0),
            disk: Mutex::new(None),
            owner_override: RwLock::new(HashMap::new()),
            tombstoned: RwLock::new(HashSet::new()),
        }
    }

    /// Attach a durable disk tier: feature reads now come from its buffer
    /// pool, and feature updates are accepted, WAL-first. Owner flips and
    /// tombstones the tier's WAL replayed are folded back into the live
    /// maps, so a crashed server rejoins with its post-migration view
    /// wherever its tier reattaches.
    pub fn attach_disk_tier(&self, tier: DurableFeatures) {
        {
            let mut ov = self.owner_override.write().unwrap_or_else(|p| p.into_inner());
            for &(node, owner) in tier.pending_owner_sets() {
                ov.insert(node, owner);
            }
            let mut ts = self.tombstoned.write().unwrap_or_else(|p| p.into_inner());
            for &(node, _) in tier.pending_tombstones() {
                ts.insert(node);
            }
        }
        *self.disk.lock().unwrap_or_else(|p| p.into_inner()) = Some(tier);
    }

    /// Detach and return the disk tier (e.g. to crash it in a chaos test).
    pub fn detach_disk_tier(&self) -> Option<DurableFeatures> {
        self.disk.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    /// Checkpoint the attached tier (flush + sync pages, then reset the
    /// WAL). No-op without a tier.
    pub fn checkpoint_disk(&self) -> Result<(), StoreError> {
        match self.disk.lock().unwrap_or_else(|p| p.into_inner()).as_mut() {
            Some(tier) => tier.checkpoint().map_err(storage_err),
            None => Ok(()),
        }
    }

    /// Mirror the tier's `store.disk.*` counters into its registry.
    pub fn publish_disk_metrics(&self) {
        if let Some(tier) = self.disk.lock().unwrap_or_else(|p| p.into_inner()).as_mut() {
            tier.publish_metrics();
        }
    }

    /// Enable r-replica serving: this server also answers for nodes whose
    /// primary is one of its `r − 1` predecessors in the ring of
    /// `num_servers` servers.
    pub fn set_replication(&self, replication: usize, num_servers: usize) {
        self.replication.store(replication.max(1), Ordering::Relaxed);
        self.num_servers.store(num_servers, Ordering::Relaxed);
    }

    /// Server index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Ring size this server was told about (0 until
    /// [`GraphStoreServer::set_replication`] runs).
    pub fn cluster_size(&self) -> usize {
        self.num_servers.load(Ordering::Relaxed)
    }

    /// Mark the server down/up (failure injection).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }

    /// Requests this server has answered (including failed decodes).
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Nodes fanout-sampled by this server's colocated sampler.
    pub fn nodes_sampled(&self) -> u64 {
        self.nodes_sampled.load(Ordering::Relaxed)
    }

    /// Primary owner of `v`: the migration override map first (committed
    /// moves beat every static map), then the frozen base map, then the
    /// ingest extension for appended ids.
    fn owner_primary(&self, v: NodeId) -> Option<u32> {
        if let Some(&o) = self
            .owner_override
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&v)
        {
            return Some(o);
        }
        let base = self.owner.len();
        if (v as usize) < base {
            self.owner.get(v as usize).copied()
        } else {
            self.owner_ext
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .get(v as usize - base)
                .copied()
        }
    }

    /// This server's authoritative owner view for `v` — what `OwnerReq`
    /// answers and what repair trusts.
    pub fn owner_view(&self, v: NodeId) -> Option<u32> {
        self.owner_primary(v)
    }

    /// Whether this server holds a committed migration override for `v`.
    pub fn owner_override_of(&self, v: NodeId) -> Option<u32> {
        self.owner_override
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&v)
            .copied()
    }

    /// Whether this server tombstoned its source copy of `v`.
    pub fn is_tombstoned(&self, v: NodeId) -> bool {
        self.tombstoned.read().unwrap_or_else(|p| p.into_inner()).contains(&v)
    }

    /// The serve-check failure for `v`: a [`StoreError::NotOwner`] carrying
    /// the post-migration owner when this server committed a move for `v`
    /// (the hint lets clients redirect without another RPC), else the
    /// classic [`StoreError::NotOwned`].
    fn not_served_err(&self, v: NodeId) -> StoreError {
        if let Some(owner) = self.owner_override_of(v) {
            return StoreError::NotOwner { node: v, owner };
        }
        StoreError::NotOwned { node: v, server: self.id }
    }

    /// Total nodes this server knows about (frozen base + ingest appends).
    pub fn num_nodes(&self) -> usize {
        self.graph.read().unwrap_or_else(|p| p.into_inner()).num_nodes()
    }

    /// Directed arcs in the live graph (base + ingest delta).
    pub fn num_edges(&self) -> usize {
        self.graph.read().unwrap_or_else(|p| p.into_inner()).num_edges()
    }

    /// Nodes whose neighborhood changed since the last re-merge — what the
    /// ingest layer feeds to cache invalidation and PO reordering.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        self.graph.read().unwrap_or_else(|p| p.into_inner()).dirty_nodes()
    }

    /// Re-merge: compact the ingest delta into a fresh frozen base and
    /// return it. Sampling results are unchanged by construction — the
    /// merged view and the compacted CSR hold identical neighbor lists —
    /// so this is purely a locality/maintenance operation.
    pub fn remerge(&self) -> Arc<Csr> {
        self.graph.write().unwrap_or_else(|p| p.into_inner()).snapshot()
    }

    /// Whether this server is the primary owner of `v`.
    pub fn owns(&self, v: NodeId) -> bool {
        matches!(self.owner_primary(v), Some(o) if o as usize == self.id)
    }

    /// Whether this server serves `v` — as its primary, or as one of the
    /// `replication − 1` successor replicas of `v`'s primary.
    pub fn serves(&self, v: NodeId) -> bool {
        let Some(primary) = self.owner_primary(v) else {
            return false;
        };
        let primary = primary as usize;
        if primary == self.id {
            return true;
        }
        let replication = self.replication.load(Ordering::Relaxed);
        let num_servers = self.num_servers.load(Ordering::Relaxed);
        if replication <= 1 || num_servers == 0 {
            return false;
        }
        // id ∈ {primary + 1, …, primary + r − 1} (mod n)?
        let offset = (self.id + num_servers - primary) % num_servers;
        offset < replication
    }

    /// Feature dimensionality of the store this server fronts.
    pub fn features_dim(&self) -> usize {
        self.features.dim()
    }

    /// Handle an encoded request frame, producing an encoded response.
    /// This is the server's entire external surface — everything crosses
    /// the codec.
    pub fn handle(&self, frame: Bytes) -> Result<Bytes, StoreError> {
        if self.down.load(Ordering::Relaxed) {
            return Err(StoreError::ServerDown(self.id));
        }
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        match Message::decode(frame)? {
            Message::NeighborReq { fanout, nodes } => {
                // One lock for the whole request keeps its picks contiguous
                // in the RNG stream; one graph read lock keeps the view
                // consistent across the batch.
                let g = self.graph.read().unwrap_or_else(|p| p.into_inner());
                let mut rng = self.rng.lock().unwrap_or_else(|p| p.into_inner());
                let mut scratch = Vec::new();
                let mut lists = Vec::with_capacity(nodes.len());
                for &v in &nodes {
                    if !self.serves(v) {
                        return Err(self.not_served_err(v));
                    }
                    lists.push(self.sample_neighbors(&mut rng, &g, &mut scratch, v, fanout as usize));
                }
                Message::NeighborResp { lists }.encode()
            }
            Message::NeighborReqSeeded { fanout, salt, nodes } => {
                // No shared RNG stream: node `v`'s picks come from a fresh
                // RNG seeded by mix64(salt, v), so the sample depends only
                // on (salt, v) — not on request composition, issue order,
                // or which replica serves it. The online-serving path
                // leans on this for batched-vs-serial bitwise identity.
                let g = self.graph.read().unwrap_or_else(|p| p.into_inner());
                let mut scratch = Vec::new();
                let mut lists = Vec::with_capacity(nodes.len());
                for &v in &nodes {
                    if !self.serves(v) {
                        return Err(self.not_served_err(v));
                    }
                    let mut rng =
                        StdRng::seed_from_u64(crate::wire::mix64(salt, v as u64));
                    lists.push(self.sample_neighbors(&mut rng, &g, &mut scratch, v, fanout as usize));
                }
                Message::NeighborResp { lists }.encode()
            }
            Message::FeatureReq { nodes } => self.feature_resp(&nodes, FeaturePrecision::F32),
            // The response frame carries binary16, halving the feature
            // bytes this RPC puts on the wire (and therefore the D_II the
            // network model charges). An f16 disk tier's stored bits are
            // copied into it; any f32 source is narrowed row by row.
            Message::FeatureReqF16 { nodes } => self.feature_resp(&nodes, FeaturePrecision::F16),
            Message::FeatureUpdateReq { dim, nodes, rows } => {
                if dim as usize != self.features.dim() {
                    return Err(StoreError::Malformed("feature update dim mismatch"));
                }
                let mut disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
                let tier = disk
                    .as_mut()
                    .ok_or(StoreError::Storage("no disk tier attached"))?;
                for &v in &nodes {
                    if !self.serves(v) {
                        return Err(self.not_served_err(v));
                    }
                }
                let base_nodes = self.features.num_nodes();
                for (i, &v) in nodes.iter().enumerate() {
                    let row = &rows[i * dim as usize..(i + 1) * dim as usize];
                    if (v as usize) < base_nodes {
                        // Ack point: update_row returns only after the WAL
                        // record is fsync-durable.
                        tier.update_row(v, row).map_err(storage_err)?;
                    } else {
                        // Appended node: journal the full row (same
                        // idempotent semantics), then refresh the overlay.
                        let owner = self.owner_primary(v).unwrap_or(self.id as u32);
                        tier.append_node(v, owner, row).map_err(storage_err)?;
                        let mut ext = self.feat_ext.write().unwrap_or_else(|p| p.into_inner());
                        let at = (v as usize - base_nodes) * dim as usize;
                        ext[at..at + dim as usize].copy_from_slice(row);
                    }
                }
                let applied = u32::try_from(nodes.len())
                    .map_err(|_| StoreError::TooLarge("feature update ack count"))?;
                Message::FeatureUpdateResp { applied }.encode()
            }
            Message::AddEdgeReq { edges } => {
                // One write lock for the whole batch: sampling requests see
                // either none or all of it.
                let mut g = self.graph.write().unwrap_or_else(|p| p.into_inner());
                let n = g.num_nodes();
                for &(u, v) in &edges {
                    let bad = if (u as usize) >= n { Some(u) } else if (v as usize) >= n { Some(v) } else { None };
                    if let Some(w) = bad {
                        return Err(StoreError::InvalidNode(w));
                    }
                }
                let mut disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
                let mut applied = 0u32;
                let mut rejected = 0u32;
                for &(u, v) in &edges {
                    let dup = g.has_arc(u, v) && (u == v || g.has_arc(v, u));
                    if dup {
                        // Idempotent: a retried batch re-acks without
                        // double-inserting (or re-journaling) the edge.
                        rejected += 1;
                        continue;
                    }
                    // WAL first — the ack point — then the live view.
                    if let Some(tier) = disk.as_mut() {
                        tier.insert_edge(u, v).map_err(storage_err)?;
                    }
                    g.add_edge(u, v);
                    applied += 1;
                }
                Message::AddEdgeResp { applied, rejected }.encode()
            }
            Message::AddNodeReq { id, owner, row } => {
                if row.len() != self.features.dim() {
                    return Err(StoreError::Malformed("add-node row dim mismatch"));
                }
                let mut g = self.graph.write().unwrap_or_else(|p| p.into_inner());
                let next = g.num_nodes() as u32;
                if id < next {
                    // Coordinator-assigned ids make retries idempotent: the
                    // node is already here, ack it again.
                    return Message::AddNodeResp { id }.encode();
                }
                if id > next {
                    return Err(StoreError::Malformed("add-node id gap"));
                }
                if let Some(tier) =
                    self.disk.lock().unwrap_or_else(|p| p.into_inner()).as_mut()
                {
                    tier.append_node(id, owner, &row).map_err(storage_err)?;
                }
                // Order matters for lock-free readers: feature row first,
                // then the graph entry, then the owner entry that makes
                // `serves` admit the node.
                self.feat_ext
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend_from_slice(&row);
                g.add_node();
                drop(g);
                self.owner_ext
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(owner);
                Message::AddNodeResp { id }.encode()
            }
            Message::PrepareMigrateReq { node, dest } => {
                // Phase 1: only the current owner can snapshot a node for
                // migration, and moving a node onto its own owner is
                // protocol misuse.
                if !self.owns(node) {
                    return Err(self.not_served_err(node));
                }
                if dest as usize == self.id {
                    return Err(StoreError::Malformed("migrate to current owner"));
                }
                let num_servers = self.num_servers.load(Ordering::Relaxed);
                if num_servers > 0 && dest as usize >= num_servers {
                    return Err(StoreError::InvalidServer(dest as usize));
                }
                let RowBuf::F32(row) = self.gather_rows(&[node], FeaturePrecision::F32)? else {
                    unreachable!("gathered at f32");
                };
                let mut neighbors = Vec::new();
                {
                    let g = self.graph.read().unwrap_or_else(|p| p.into_inner());
                    match g.clean_neighbors(node) {
                        Some(s) => neighbors.extend_from_slice(s),
                        None => g.neighbors_into(node, &mut neighbors),
                    }
                }
                Message::PrepareMigrateResp { node, owner: self.id as u32, row, neighbors }
                    .encode()
            }
            Message::MigrateCopyReq { node, dest: _, row, neighbors } => {
                // Phase 2: install the authoritative bytes. Deliberately
                // NOT gated on `serves` — the point is to land data on a
                // chain that does not serve the node yet, and the write is
                // inert until a commit makes it visible. Idempotent: a
                // re-copy overwrites with the same bytes.
                let dim = self.features.dim();
                if row.len() != dim {
                    return Err(StoreError::Malformed("migrate row dim mismatch"));
                }
                {
                    // Cross-check the shipped adjacency against the local
                    // merged view: every server applied the same broadcast
                    // mutation stream, so a disagreement means a corrupt
                    // frame or a protocol bug — refuse the copy.
                    let g = self.graph.read().unwrap_or_else(|p| p.into_inner());
                    if (node as usize) >= g.num_nodes() {
                        return Err(StoreError::InvalidNode(node));
                    }
                    let mut local = Vec::new();
                    match g.clean_neighbors(node) {
                        Some(s) => local.extend_from_slice(s),
                        None => g.neighbors_into(node, &mut local),
                    }
                    let mut shipped = neighbors.clone();
                    shipped.sort_unstable();
                    local.sort_unstable();
                    if shipped != local {
                        return Err(StoreError::Malformed("migrate adjacency mismatch"));
                    }
                }
                let base_nodes = self.features.num_nodes();
                let mut disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
                if (node as usize) < base_nodes {
                    // Base rows diverge only through the durable tier (the
                    // in-RAM base image is immutable), so that is the only
                    // thing a copy must refresh.
                    if let Some(tier) = disk.as_mut() {
                        tier.update_row(node, &row).map_err(storage_err)?;
                    }
                } else {
                    // Appended rows live in the per-server overlay: journal
                    // (when durable) and refresh it so this chain serves
                    // the source's exact bytes after commit.
                    if let Some(tier) = disk.as_mut() {
                        let owner = self.owner_primary(node).unwrap_or(self.id as u32);
                        tier.append_node(node, owner, &row).map_err(storage_err)?;
                    }
                    let mut ext = self.feat_ext.write().unwrap_or_else(|p| p.into_inner());
                    let at = (node as usize - base_nodes) * dim;
                    let slot = ext
                        .get_mut(at..at + dim)
                        .ok_or(StoreError::InvalidNode(node))?;
                    slot.copy_from_slice(&row);
                }
                Message::MigrateCopyResp { node }.encode()
            }
            Message::CommitMigrateReq { node, owner } => {
                // Phase 3: flip the owner. WAL-journaled before the live
                // map when durable, so a crashed server replays to the
                // committed mapping; idempotent so the coordinator can
                // re-drive a partially-broadcast commit.
                let num_servers = self.num_servers.load(Ordering::Relaxed);
                if num_servers > 0 && owner as usize >= num_servers {
                    return Err(StoreError::InvalidServer(owner as usize));
                }
                if self.owner_primary(node).is_none() {
                    return Err(StoreError::InvalidNode(node));
                }
                if self.owner_override_of(node) != Some(owner) {
                    if let Some(tier) =
                        self.disk.lock().unwrap_or_else(|p| p.into_inner()).as_mut()
                    {
                        tier.set_owner(node, owner).map_err(storage_err)?;
                    }
                    self.owner_override
                        .write()
                        .unwrap_or_else(|p| p.into_inner())
                        .insert(node, owner);
                }
                Message::CommitMigrateResp { node, owner }.encode()
            }
            Message::OwnerReq { node } => {
                let owner = self.owner_primary(node).ok_or(StoreError::InvalidNode(node))?;
                Message::OwnerResp { node, owner }.encode()
            }
            Message::TombstoneReq { node, old_owner } => {
                // Phase 4: retire the source copy. Logical retirement —
                // `serves` already rejects post-commit — journaled for
                // idempotence across crashes.
                if !self.is_tombstoned(node) {
                    if self.owner_override_of(node).is_none() {
                        // Retiring an authoritative copy would lose the
                        // node: a tombstone is only legal after the commit
                        // is visible here.
                        return Err(StoreError::Malformed("tombstone before commit"));
                    }
                    if let Some(tier) =
                        self.disk.lock().unwrap_or_else(|p| p.into_inner()).as_mut()
                    {
                        tier.tombstone(node, old_owner).map_err(storage_err)?;
                    }
                    self.tombstoned
                        .write()
                        .unwrap_or_else(|p| p.into_inner())
                        .insert(node);
                }
                Message::TombstoneResp { node }.encode()
            }
            Message::NeighborResp { .. }
            | Message::FeatureResp { .. }
            | Message::FeatureRespF16 { .. }
            | Message::FeatureUpdateResp { .. }
            | Message::AddEdgeResp { .. }
            | Message::AddNodeResp { .. }
            | Message::PrepareMigrateResp { .. }
            | Message::MigrateCopyResp { .. }
            | Message::CommitMigrateResp { .. }
            | Message::OwnerResp { .. }
            | Message::TombstoneResp { .. } => {
                Err(StoreError::Malformed("response sent to server"))
            }
        }
    }

    /// Answer a feature request at the wire precision it asked for.
    fn feature_resp(
        &self,
        nodes: &[NodeId],
        precision: FeaturePrecision,
    ) -> Result<Bytes, StoreError> {
        let dim = self.features.dim() as u32;
        match self.gather_rows(nodes, precision)? {
            RowBuf::F32(rows) => Message::FeatureResp { dim, rows },
            RowBuf::F16(rows) => Message::FeatureRespF16 { dim, rows },
        }
        .encode()
    }

    /// Gather the feature rows for `nodes` at `precision` (from the disk
    /// tier when one is attached, else the in-memory store; appended nodes
    /// come from the ingest overlay either way), validating ownership. Each
    /// row is copied from its source's representation: bits when the source
    /// is already at `precision`, one conversion when it is not.
    fn gather_rows(
        &self,
        nodes: &[NodeId],
        precision: FeaturePrecision,
    ) -> Result<RowBuf, StoreError> {
        let dim = self.features.dim();
        let base_nodes = self.features.num_nodes();
        let mut rows = RowBuf::with_capacity(precision, nodes.len() * dim);
        let mut disk = self.disk.lock().unwrap_or_else(|p| p.into_inner());
        for &v in nodes {
            if !self.serves(v) {
                return Err(self.not_served_err(v));
            }
            if (v as usize) >= base_nodes {
                let ext = self.feat_ext.read().unwrap_or_else(|p| p.into_inner());
                let at = (v as usize - base_nodes) * dim;
                let row = ext.get(at..at + dim).ok_or(StoreError::InvalidNode(v))?;
                rows.push_row(RowRef::F32(row));
                continue;
            }
            match disk.as_mut() {
                Some(tier) => tier.read_row(v, &mut rows).map_err(storage_err)?,
                None => rows.push_row(RowRef::F32(self.features.row(v))),
            }
        }
        Ok(rows)
    }

    /// Fanout-sample `v`'s neighbors (all of them when degree ≤ fanout)
    /// from the live graph view. Untouched nodes stay on the zero-copy
    /// base slice; delta-touched and appended nodes merge into `scratch`.
    fn sample_neighbors(
        &self,
        rng: &mut StdRng,
        g: &DynamicGraph,
        scratch: &mut Vec<NodeId>,
        v: NodeId,
        fanout: usize,
    ) -> Vec<NodeId> {
        self.nodes_sampled.fetch_add(1, Ordering::Relaxed);
        let nbrs: &[NodeId] = match g.clean_neighbors(v) {
            Some(s) => s,
            None => {
                g.neighbors_into(v, scratch);
                scratch
            }
        };
        let mut out = Vec::with_capacity(fanout.min(nbrs.len()));
        bgl_sampler::pick(nbrs, fanout, rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::generate;

    fn setup(k: usize) -> (Arc<Csr>, Arc<FeatureStore>, Arc<Vec<u32>>) {
        let g = Arc::new(generate::barabasi_albert(100, 4, 1));
        let f = Arc::new(FeatureStore::zeros(100, 4));
        let owner = Arc::new((0..100u32).map(|v| v % k as u32).collect());
        (g, f, owner)
    }

    #[test]
    fn serves_owned_neighbors() {
        let (g, f, owner) = setup(2);
        let s = GraphStoreServer::new(0, g.clone(), f, owner, 7);
        let req = Message::NeighborReq { fanout: 3, nodes: vec![2, 4] }.encode().unwrap();
        let resp = Message::decode(s.handle(req).unwrap()).unwrap();
        match resp {
            Message::NeighborResp { lists } => {
                assert_eq!(lists.len(), 2);
                for (i, list) in lists.iter().enumerate() {
                    let v = [2u32, 4][i];
                    assert!(list.len() <= 3);
                    for &u in list {
                        assert!(g.has_edge(v, u));
                    }
                }
            }
            other => panic!("unexpected response {:?}", other),
        }
        assert_eq!(s.requests_served(), 1);
        assert_eq!(s.nodes_sampled(), 2);
    }

    #[test]
    fn seeded_samples_ignore_request_composition() {
        let (g, f, owner) = setup(2);
        let s = GraphStoreServer::new(0, g.clone(), f.clone(), owner.clone(), 7);
        let ask = |s: &GraphStoreServer, nodes: Vec<u32>| -> Vec<Vec<u32>> {
            let req = Message::NeighborReqSeeded { fanout: 3, salt: 0xC0FFEE, nodes }
                .encode()
                .unwrap();
            match Message::decode(s.handle(req).unwrap()).unwrap() {
                Message::NeighborResp { lists } => lists,
                other => panic!("unexpected {:?}", other),
            }
        };
        // The same node sampled alone, batched with others, and repeatedly
        // must yield the identical list: the RNG is (salt, node)-local.
        let alone = ask(&s, vec![2]);
        let batched = ask(&s, vec![8, 2, 4]);
        assert_eq!(alone[0], batched[1]);
        assert_eq!(ask(&s, vec![2])[0], alone[0]);
        // A replica holding the same partition produces the same lists,
        // even with a different server-local RNG seed.
        let r = GraphStoreServer::new(1, g, f, owner, 99);
        r.set_replication(2, 2);
        assert_eq!(ask(&r, vec![2]), alone);
        // A different salt moves the sample (fanout 3 of ≥4 neighbors, so
        // a collision across all tested nodes is vanishingly unlikely).
        let resalted = Message::NeighborReqSeeded {
            fanout: 3,
            salt: 0xBEEF,
            nodes: vec![2, 4, 8],
        }
        .encode()
        .unwrap();
        match Message::decode(s.handle(resalted).unwrap()).unwrap() {
            Message::NeighborResp { lists } => {
                assert_ne!(lists[0], alone[0]);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn rejects_foreign_nodes() {
        let (g, f, owner) = setup(2);
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        let req = Message::NeighborReq { fanout: 3, nodes: vec![1] }.encode().unwrap(); // odd -> server 1
        assert_eq!(
            s.handle(req),
            Err(StoreError::NotOwned { node: 1, server: 0 })
        );
    }

    #[test]
    fn down_server_rejects() {
        let (g, f, owner) = setup(2);
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        s.set_down(true);
        let req = Message::FeatureReq { nodes: vec![2] }.encode().unwrap();
        assert_eq!(s.handle(req), Err(StoreError::ServerDown(0)));
        s.set_down(false);
        assert!(s.handle(Message::FeatureReq { nodes: vec![2] }.encode().unwrap()).is_ok());
    }

    #[test]
    fn feature_rows_in_request_order() {
        let (g, _, owner) = setup(2);
        let mut fs = FeatureStore::zeros(100, 2);
        for v in 0..100u32 {
            fs.row_mut(v).copy_from_slice(&[v as f32, -(v as f32)]);
        }
        let s = GraphStoreServer::new(0, g, Arc::new(fs), owner, 7);
        let req = Message::FeatureReq { nodes: vec![6, 2] }.encode().unwrap();
        match Message::decode(s.handle(req).unwrap()).unwrap() {
            Message::FeatureResp { dim, rows } => {
                assert_eq!(dim, 2);
                assert_eq!(rows, vec![6.0, -6.0, 2.0, -2.0]);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn replica_serves_predecessor_nodes() {
        let (g, f, owner) = setup(4);
        // Server 1 replicates server 0's partition (r = 2 on 4 servers).
        let s = GraphStoreServer::new(1, g, f, owner, 7);
        s.set_replication(2, 4);
        assert!(s.serves(1)); // own partition (1 % 4 == 1)
        assert!(s.serves(0)); // replica of server 0's nodes
        assert!(!s.serves(2)); // server 2's nodes: not in the chain
        assert!(!s.owns(0)); // replica, not primary
        let req = Message::NeighborReq { fanout: 2, nodes: vec![0, 4] }.encode().unwrap();
        assert!(s.handle(req).is_ok());
        let foreign = Message::FeatureReq { nodes: vec![2] }.encode().unwrap();
        assert_eq!(
            s.handle(foreign),
            Err(StoreError::NotOwned { node: 2, server: 1 })
        );
    }

    #[test]
    fn replication_chain_wraps_the_ring() {
        let (g, f, owner) = setup(4);
        // Server 0 with r = 2: replica of server 3 (its ring predecessor).
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        s.set_replication(2, 4);
        assert!(s.serves(3)); // owner 3, successor (3+1)%4 == 0
        assert!(!s.serves(1));
        assert!(!s.serves(2));
    }

    #[test]
    fn out_of_range_nodes_are_never_served() {
        let (g, f, owner) = setup(2);
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        assert!(!s.owns(10_000));
        assert!(!s.serves(10_000));
    }

    #[test]
    fn rejects_response_frames() {
        let (g, f, owner) = setup(1);
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        let bogus = Message::NeighborResp { lists: vec![] }.encode().unwrap();
        assert!(matches!(s.handle(bogus), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn updates_without_a_disk_tier_are_a_storage_error() {
        let (g, f, owner) = setup(1);
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        let req = Message::FeatureUpdateReq { dim: 4, nodes: vec![2], rows: vec![0.0; 4] };
        assert_eq!(
            s.handle(req.encode().unwrap()),
            Err(StoreError::Storage("no disk tier attached"))
        );
    }

    #[test]
    fn disk_tier_serves_reads_and_accepts_wal_first_updates() {
        use crate::tier::{DiskTierConfig, DurableFeatures};
        let (g, _, owner) = setup(1);
        let mut fs = FeatureStore::zeros(100, 2);
        for v in 0..100u32 {
            fs.row_mut(v).copy_from_slice(&[v as f32, -(v as f32)]);
        }
        let fs = Arc::new(fs);
        let s = GraphStoreServer::new(0, g, fs.clone(), owner, 7);
        let mut dir = std::env::temp_dir();
        dir.push(format!("bgl-server-disk-test-{}", std::process::id()));
        let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(4);
        s.attach_disk_tier(DurableFeatures::create(&dir, &fs, cfg).unwrap());

        // Reads come from the buffer pool and match the RAM image.
        let req = Message::FeatureReq { nodes: vec![6, 2] }.encode().unwrap();
        match Message::decode(s.handle(req).unwrap()).unwrap() {
            Message::FeatureResp { dim, rows } => {
                assert_eq!(dim, 2);
                assert_eq!(rows, vec![6.0, -6.0, 2.0, -2.0]);
            }
            other => panic!("unexpected {:?}", other),
        }

        // An update acks, then reads back through the tier.
        let upd = Message::FeatureUpdateReq {
            dim: 2,
            nodes: vec![6],
            rows: vec![50.0, 60.0],
        };
        match Message::decode(s.handle(upd.encode().unwrap()).unwrap()).unwrap() {
            Message::FeatureUpdateResp { applied } => assert_eq!(applied, 1),
            other => panic!("unexpected {:?}", other),
        }
        let req = Message::FeatureReq { nodes: vec![6] }.encode().unwrap();
        match Message::decode(s.handle(req).unwrap()).unwrap() {
            Message::FeatureResp { rows, .. } => assert_eq!(rows, vec![50.0, 60.0]),
            other => panic!("unexpected {:?}", other),
        }

        // The update is WAL-durable: a fresh tier over the same directory
        // replays it.
        let tier = s.detach_disk_tier().unwrap();
        drop(tier);
        let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(4);
        let (mut reopened, report) = DurableFeatures::open(&dir, cfg).unwrap();
        assert_eq!(report.replayed_updates, 1);
        let mut out = Vec::new();
        reopened.read_row_into(6, &mut out).unwrap();
        assert_eq!(out, vec![50.0, 60.0]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ingest_appends_nodes_and_edges_through_the_wire() {
        let (g, f, owner) = setup(2);
        let s = GraphStoreServer::new(0, g, f, owner, 7);
        let ask = |req: Message| Message::decode(s.handle(req.encode().unwrap()).unwrap()).unwrap();

        // Append node 100 (next dense id), owned by this server.
        let resp = ask(Message::AddNodeReq { id: 100, owner: 0, row: vec![9.0; 4] });
        assert_eq!(resp, Message::AddNodeResp { id: 100 });
        assert_eq!(s.num_nodes(), 101);
        assert!(s.owns(100) && s.serves(100));
        // A retried append of the same id is an idempotent ack.
        assert_eq!(
            ask(Message::AddNodeReq { id: 100, owner: 0, row: vec![9.0; 4] }),
            Message::AddNodeResp { id: 100 }
        );
        assert_eq!(s.num_nodes(), 101);
        // Gapped ids and wrong-dim rows are typed rejections.
        assert_eq!(
            s.handle(Message::AddNodeReq { id: 105, owner: 0, row: vec![0.0; 4] }.encode().unwrap()),
            Err(StoreError::Malformed("add-node id gap"))
        );
        assert_eq!(
            s.handle(Message::AddNodeReq { id: 101, owner: 0, row: vec![0.0; 2] }.encode().unwrap()),
            Err(StoreError::Malformed("add-node row dim mismatch"))
        );

        // Edge batch: one fresh insert, one duplicate of it.
        let resp = ask(Message::AddEdgeReq { edges: vec![(100, 2), (100, 2)] });
        assert_eq!(resp, Message::AddEdgeResp { applied: 1, rejected: 1 });
        // Out-of-range endpoints are typed, and reject the whole batch
        // before any mutation.
        assert_eq!(
            s.handle(Message::AddEdgeReq { edges: vec![(0, 5000)] }.encode().unwrap()),
            Err(StoreError::InvalidNode(5000))
        );

        // The appended node's features and merged neighborhood are served.
        match ask(Message::FeatureReq { nodes: vec![100] }) {
            Message::FeatureResp { dim, rows } => {
                assert_eq!(dim, 4);
                assert_eq!(rows, vec![9.0; 4]);
            }
            other => panic!("unexpected {:?}", other),
        }
        match ask(Message::NeighborReq { fanout: 8, nodes: vec![100] }) {
            Message::NeighborResp { lists } => assert_eq!(lists, vec![vec![2]]),
            other => panic!("unexpected {:?}", other),
        }

        // Dirty set covers both churn endpoints; re-merge folds the delta
        // into a fresh base and clears it, leaving sampling unchanged.
        assert_eq!(s.dirty_nodes(), vec![2, 100]);
        let merged = s.remerge();
        assert!(merged.has_edge(100, 2) && merged.has_edge(2, 100));
        assert!(s.dirty_nodes().is_empty());
        match ask(Message::NeighborReq { fanout: 8, nodes: vec![100] }) {
            Message::NeighborResp { lists } => assert_eq!(lists, vec![vec![2]]),
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn ingest_journals_wal_first_and_replays_on_reopen() {
        use crate::tier::{DiskTierConfig, DurableFeatures};
        let (g, f, owner) = setup(1);
        let s = GraphStoreServer::new(0, g, f.clone(), owner, 7);
        let mut dir = std::env::temp_dir();
        dir.push(format!("bgl-server-ingest-wal-{}", std::process::id()));
        let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(4);
        s.attach_disk_tier(DurableFeatures::create(&dir, &f, cfg).unwrap());

        let ask = |req: Message| Message::decode(s.handle(req.encode().unwrap()).unwrap()).unwrap();
        ask(Message::AddNodeReq { id: 100, owner: 0, row: vec![7.0; 4] });
        ask(Message::AddEdgeReq { edges: vec![(100, 3)] });
        // Updating the appended node's row re-journals it (idempotent
        // full-row record) and refreshes the served overlay.
        ask(Message::FeatureUpdateReq { dim: 4, nodes: vec![100], rows: vec![70.0; 4] });
        match ask(Message::FeatureReq { nodes: vec![100] }) {
            Message::FeatureResp { rows, .. } => assert_eq!(rows, vec![70.0; 4]),
            other => panic!("unexpected {:?}", other),
        }

        drop(s.detach_disk_tier());
        let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(4);
        let (tier, report) = DurableFeatures::open(&dir, cfg).unwrap();
        assert_eq!(report.replayed_nodes, 2, "append + full-row update");
        assert_eq!(report.replayed_edges, 1);
        assert_eq!(tier.pending_edges(), &[(100, 3)]);
        // Folding keeps the last row per id.
        assert_eq!(tier.pending_nodes().last().unwrap(), &(100, 0, vec![70.0; 4]));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn migration_phases_flip_ownership_and_stay_idempotent() {
        let (g, f, owner) = setup(2);
        let s0 = GraphStoreServer::new(0, g.clone(), f.clone(), owner.clone(), 7);
        let s1 = GraphStoreServer::new(1, g, f, owner, 8);
        s0.set_replication(1, 2);
        s1.set_replication(1, 2);
        let ask = |s: &GraphStoreServer, req: Message| {
            Message::decode(s.handle(req.encode().unwrap()).unwrap()).unwrap()
        };

        // Phase 1 on the owner: snapshot row + adjacency for node 2 -> 1.
        let (row, neighbors) =
            match ask(&s0, Message::PrepareMigrateReq { node: 2, dest: 1 }) {
                Message::PrepareMigrateResp { node, owner, row, neighbors } => {
                    assert_eq!((node, owner), (2, 0));
                    assert!(!neighbors.is_empty());
                    (row, neighbors)
                }
                other => panic!("unexpected {:?}", other),
            };
        // Prepare misuse is typed: non-owners refuse, and so does a
        // move onto the current owner.
        assert_eq!(
            s1.handle(Message::PrepareMigrateReq { node: 2, dest: 0 }.encode().unwrap()),
            Err(StoreError::NotOwned { node: 2, server: 1 })
        );
        assert_eq!(
            s0.handle(Message::PrepareMigrateReq { node: 2, dest: 0 }.encode().unwrap()),
            Err(StoreError::Malformed("migrate to current owner"))
        );
        // A tombstone before the commit would lose the node.
        assert_eq!(
            s0.handle(Message::TombstoneReq { node: 2, old_owner: 0 }.encode().unwrap()),
            Err(StoreError::Malformed("tombstone before commit"))
        );

        // Phase 2 on the destination: idempotent (copy twice), and an
        // adjacency that disagrees with the local view is refused.
        for _ in 0..2 {
            assert_eq!(
                ask(&s1, Message::MigrateCopyReq {
                    node: 2,
                    dest: 1,
                    row: row.clone(),
                    neighbors: neighbors.clone(),
                }),
                Message::MigrateCopyResp { node: 2 }
            );
        }
        assert_eq!(
            s1.handle(
                Message::MigrateCopyReq { node: 2, dest: 1, row: row.clone(), neighbors: vec![99] }
                    .encode()
                    .unwrap()
            ),
            Err(StoreError::Malformed("migrate adjacency mismatch"))
        );

        // Phase 3 everywhere: both servers flip node 2's owner to 1.
        for s in [&s0, &s1] {
            for _ in 0..2 {
                // Idempotent re-commit re-acks.
                assert_eq!(
                    ask(s, Message::CommitMigrateReq { node: 2, owner: 1 }),
                    Message::CommitMigrateResp { node: 2, owner: 1 }
                );
            }
            assert_eq!(ask(s, Message::OwnerReq { node: 2 }), Message::OwnerResp {
                node: 2,
                owner: 1
            });
        }
        assert!(!s0.serves(2) && s1.owns(2));
        // The stale path now redirects with a hint instead of NotOwned.
        assert_eq!(
            s0.handle(Message::FeatureReq { nodes: vec![2] }.encode().unwrap()),
            Err(StoreError::NotOwner { node: 2, owner: 1 })
        );
        assert!(s1.handle(Message::FeatureReq { nodes: vec![2] }.encode().unwrap()).is_ok());

        // Phase 4 on the source: retire, idempotently.
        for _ in 0..2 {
            assert_eq!(
                ask(&s0, Message::TombstoneReq { node: 2, old_owner: 0 }),
                Message::TombstoneResp { node: 2 }
            );
        }
        assert!(s0.is_tombstoned(2));
    }

    /// Satellite: the counters must stay exact when one server is hammered
    /// from many threads at once — the TCP runtime's actual shape.
    #[test]
    fn concurrent_handlers_count_exactly() {
        let (g, f, owner) = setup(1);
        let s = Arc::new(GraphStoreServer::new(0, g, f, owner, 7));
        const THREADS: usize = 8;
        const REQS: usize = 50;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..REQS {
                        let v = ((t * REQS + i) % 100) as u32;
                        let req = Message::NeighborReq { fanout: 2, nodes: vec![v] }.encode().unwrap();
                        let resp = s.handle(req).expect("request served");
                        assert!(matches!(
                            Message::decode(resp),
                            Ok(Message::NeighborResp { .. })
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.requests_served(), (THREADS * REQS) as u64);
        assert_eq!(s.nodes_sampled(), (THREADS * REQS) as u64);
    }
}
