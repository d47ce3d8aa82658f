//! Owner migration: the crash-safe data-movement protocol behind partition
//! rebalancing.
//!
//! PR 9's streaming refinement moved the *logical* partition map only — a
//! node's row and adjacency stayed wherever the initial partitioning put
//! them, so the computed edge-cut gains never reached the wire. This module
//! closes that gap: [`StoreCluster::migrate_node`] physically moves one
//! node's row and merged adjacency from its current owner to a destination
//! server's replica chain, then flips ownership everywhere, in four
//! WAL-journaled idempotent phases:
//!
//! 1. **Prepare** — the current owner snapshots the node's feature row and
//!    merged adjacency (base CSR + live ingest deltas) and returns them.
//!    Pure read: repeating it is free.
//! 2. **Copy** — the snapshot is installed on every server of the
//!    destination's replica chain. Installed state is *inert* until commit
//!    (the destination does not serve the node yet), so a partial copy is
//!    harmless and a repeated copy is an overwrite with identical bytes.
//! 3. **Commit** — `CommitMigrate` lands on the **source first**: the
//!    source's WAL-fsynced owner flip is the protocol's single commit
//!    point. The cluster's own routing map flips the instant the source
//!    acks; the flip then broadcasts to every other server (idempotent
//!    re-acks on repeat).
//! 4. **Tombstone** — the source logically retires the node. Its bytes
//!    remain on disk but every serve-path check now redirects via the
//!    override map; replay of the tombstone record restores the same state
//!    after a crash.
//!
//! **Abort rule**: any failure *before* the source's commit ack leaves the
//! old owner authoritative on every server — the copy is inert, nothing
//! moved, the planner just drops the move and refinement re-discovers it.
//! Any failure *after* the commit point is repaired forward by
//! [`StoreCluster::repair_migration`]: it asks the source-side chain who
//! owns the node and either re-drives the idempotent commit broadcast +
//! tombstone (commit happened) or confirms the abort (it did not). Between
//! a partial commit and its repair, a server that missed the broadcast
//! still answers `NotOwner` from the *source* (which did commit), so
//! in-flight requests redirect rather than read stale state — a stale read
//! requires losing the source *and* a missed-broadcast replica at once.
//!
//! Cache invalidation is **commit-first**: callers holding feature caches
//! (the serving tier, ingest's re-merge loop) invalidate a migrated node's
//! cache entry only after `migrate_node` returns — the entry stays valid
//! right up to the commit because the bytes on both owners are identical
//! by then.

use crate::cluster::StoreCluster;
use crate::wire::Message;
use crate::StoreError;
use bgl_graph::NodeId;
use bgl_sim::SimTime;

/// Where a migration stands in the protocol. Phases advance strictly
/// left-to-right; chaos harnesses kill servers *between* phases and assert
/// recovery from every boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigratePhase {
    /// Nothing moved yet; the next step snapshots the source.
    Prepare,
    /// Snapshot taken; the next step installs it on the destination chain.
    Copy,
    /// Copy installed (inert); the next step flips ownership.
    Commit,
    /// Ownership flipped everywhere; the next step retires the source.
    Tombstone,
    /// Protocol complete.
    Done,
}

/// One in-flight migration, stepped phase by phase so failure can be
/// injected at every protocol boundary. [`StoreCluster::migrate_node`]
/// drives all four steps; chaos tests drive them one at a time.
#[derive(Clone, Debug)]
pub struct Migration {
    /// The node being moved.
    pub node: NodeId,
    /// Owner at `begin_migration` time (authoritative until commit).
    pub source: u32,
    /// Owner after commit.
    pub dest: u32,
    /// Next phase to run.
    pub phase: MigratePhase,
    /// Payload bytes shipped to the destination chain during copy.
    pub copy_bytes: u64,
    /// Simulated time spent in each completed phase, in protocol order:
    /// `[prepare, copy, commit, tombstone]`.
    pub phase_times: [SimTime; 4],
    row: Vec<f32>,
    neighbors: Vec<NodeId>,
}

impl Migration {
    /// Phase 1: snapshot the row and merged adjacency from the source.
    /// Retry ladder only, no failover — the snapshot must come from the
    /// authoritative owner itself.
    pub fn step_prepare(&mut self, cluster: &mut StoreCluster) -> Result<(), StoreError> {
        self.expect_phase(MigratePhase::Prepare)?;
        let from = cluster.worker_location();
        let req = Message::PrepareMigrateReq { node: self.node, dest: self.dest };
        let (resp, t) = cluster.rpc_retrying(from, self.source as usize, &req)?;
        let Message::PrepareMigrateResp { node, owner, row, neighbors } = resp else {
            return Err(Message::unexpected());
        };
        if (node, owner) != (self.node, self.source) {
            return Err(StoreError::Malformed("migrate prepare ack mismatch"));
        }
        self.row = row;
        self.neighbors = neighbors;
        self.phase_times[0] = t;
        self.phase = MigratePhase::Copy;
        Ok(())
    }

    /// Phase 2: install the snapshot on every server of the destination's
    /// replica chain (write-all, same discipline as feature updates — a
    /// skipped replica would let the chain diverge). Installed state is
    /// inert until commit.
    pub fn step_copy(&mut self, cluster: &mut StoreCluster) -> Result<(), StoreError> {
        self.expect_phase(MigratePhase::Copy)?;
        let from = cluster.worker_location();
        let req = Message::MigrateCopyReq {
            node: self.node,
            dest: self.dest,
            row: self.row.clone(),
            neighbors: self.neighbors.clone(),
        };
        let payload = req.encode()?.len() as u64;
        let chain = cluster.replica_chain(self.dest as usize).into_iter().map(|srv| (srv, &req, ()));
        self.phase_times[1] = cluster.fan_out(from, StoreCluster::rpc_retrying, chain, |(), resp| {
            let Message::MigrateCopyResp { node } = resp? else {
                return Err(Message::unexpected());
            };
            if node != self.node {
                return Err(StoreError::Malformed("migrate copy ack mismatch"));
            }
            self.copy_bytes += payload;
            Ok(())
        })?;
        self.phase = MigratePhase::Commit;
        Ok(())
    }

    /// Phase 3: flip ownership. The source acks first — that WAL-fsynced
    /// ack is the commit point; the cluster's routing map flips on it
    /// immediately, then the flip broadcasts to every other server.
    pub fn step_commit(&mut self, cluster: &mut StoreCluster) -> Result<(), StoreError> {
        self.expect_phase(MigratePhase::Commit)?;
        let from = cluster.worker_location();
        let req = Message::CommitMigrateReq { node: self.node, owner: self.dest };
        let (resp, t) = cluster.rpc_retrying(from, self.source as usize, &req)?;
        check_commit_ack(resp, self.node, self.dest)?;
        // Commit point reached: from here the migration only completes
        // (possibly via repair) — it can no longer abort.
        cluster.hint_owner(self.node, self.dest);
        let others = (0..cluster.num_servers()).filter(|&s| s != self.source as usize);
        let others = others.map(|srv| (srv, &req, ()));
        let broadcast = cluster.fan_out(from, StoreCluster::rpc_retrying, others, |(), resp| {
            check_commit_ack(resp?, self.node, self.dest)
        })?;
        self.phase_times[2] = t.max(broadcast);
        self.phase = MigratePhase::Tombstone;
        Ok(())
    }

    /// Phase 4: logically retire the node on the source. Idempotent — a
    /// repeated tombstone re-acks.
    pub fn step_tombstone(&mut self, cluster: &mut StoreCluster) -> Result<(), StoreError> {
        self.expect_phase(MigratePhase::Tombstone)?;
        let from = cluster.worker_location();
        let req = Message::TombstoneReq { node: self.node, old_owner: self.source };
        let (resp, t) = cluster.rpc_retrying(from, self.source as usize, &req)?;
        check_tombstone_ack(resp, self.node)?;
        self.phase_times[3] = t;
        self.phase = MigratePhase::Done;
        Ok(())
    }

    /// Total simulated time across completed phases.
    pub fn total_time(&self) -> SimTime {
        self.phase_times.iter().sum()
    }

    fn expect_phase(&self, want: MigratePhase) -> Result<(), StoreError> {
        if self.phase != want {
            return Err(StoreError::Malformed("migration phase out of order"));
        }
        Ok(())
    }
}

fn check_commit_ack(resp: Message, node: NodeId, owner: u32) -> Result<(), StoreError> {
    let Message::CommitMigrateResp { node: n, owner: o } = resp else {
        return Err(Message::unexpected());
    };
    if (n, o) != (node, owner) {
        return Err(StoreError::Malformed("migrate commit ack mismatch"));
    }
    Ok(())
}

fn check_tombstone_ack(resp: Message, node: NodeId) -> Result<(), StoreError> {
    let Message::TombstoneResp { node: n } = resp else {
        return Err(Message::unexpected());
    };
    if n != node {
        return Err(StoreError::Malformed("migrate tombstone ack mismatch"));
    }
    Ok(())
}

impl StoreCluster {
    /// Validate and stage a migration of `node` to server `dest` without
    /// touching any server. The returned [`Migration`] is stepped through
    /// its four phases (or all at once via
    /// [`StoreCluster::migrate_node`]).
    pub fn begin_migration(&self, node: NodeId, dest: u32) -> Result<Migration, StoreError> {
        let k = self.num_servers();
        if k == 0 {
            return Err(StoreError::EmptyCluster);
        }
        if (dest as usize) >= k {
            return Err(StoreError::InvalidServer(dest as usize));
        }
        let source = self.owner_of(node)? as u32;
        if source == dest {
            return Err(StoreError::Malformed("migrate to current owner"));
        }
        Ok(Migration {
            node,
            source,
            dest,
            phase: MigratePhase::Prepare,
            copy_bytes: 0,
            phase_times: [0; 4],
            row: Vec::new(),
            neighbors: Vec::new(),
        })
    }

    /// Move `node` to server `dest`: prepare → copy → commit → tombstone.
    ///
    /// On `Err` the caller must assume nothing about which phase failed;
    /// run [`StoreCluster::repair_migration`] to converge (it either
    /// completes a committed move or confirms the abort). An error with no
    /// repair is still *consistent* pre-commit — the old owner stayed
    /// authoritative — because the commit point is the very first
    /// owner-visible write.
    pub fn migrate_node(&mut self, node: NodeId, dest: u32) -> Result<Migration, StoreError> {
        // No redirect chase here: a `NotOwner` from the source means this
        // cluster's map was stale, which the caller settles through repair.
        self.traced("store.migrate_node", |c| {
            let mut m = c.begin_migration(node, dest)?;
            m.step_prepare(c)?;
            m.step_copy(c)?;
            m.step_commit(c)?;
            m.step_tombstone(c)?;
            Ok(m)
        })
    }

    /// Converge after a failed [`StoreCluster::migrate_node`]: ask the
    /// source-side replica chain who owns `node`. If the commit point was
    /// reached (the chain answers `dest`), re-drive the idempotent commit
    /// broadcast and tombstone so every server flips; otherwise the old
    /// owner is still authoritative and the inert copy needs no undo.
    /// Either way the cluster's own routing map is reset to the
    /// authoritative answer. Returns `true` if the migration completed,
    /// `false` if it aborted.
    pub fn repair_migration(
        &mut self,
        node: NodeId,
        source: u32,
        dest: u32,
    ) -> Result<bool, StoreError> {
        let from = self.worker_location();
        let req = Message::OwnerReq { node };
        let (resp, _) = self.rpc_robust(from, source as usize, &req)?;
        let Message::OwnerResp { node: n, owner } = resp else {
            return Err(Message::unexpected());
        };
        if n != node {
            return Err(StoreError::Malformed("migrate owner ack mismatch"));
        }
        // Whatever the authoritative chain says is what we route by —
        // including a pre-commit abort, where the answer is the owner the
        // node had before this migration began (not necessarily the base
        // map: earlier committed moves stay in force).
        self.hint_owner(node, owner);
        if owner != dest {
            return Ok(false);
        }
        let commit = Message::CommitMigrateReq { node, owner: dest };
        let broadcast = (0..self.num_servers()).map(|srv| (srv, &commit, ()));
        self.fan_out(from, Self::rpc_retrying, broadcast, |(), resp| {
            check_commit_ack(resp?, node, dest)
        })?;
        let tomb = Message::TombstoneReq { node, old_owner: source };
        let (resp, _) = self.rpc_retrying(from, source as usize, &tomb)?;
        check_tombstone_ack(resp, node)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::FeatureStore;
    use bgl_partition::{Partitioner, RoundRobinPartitioner};
    use bgl_sim::network::NetworkModel;
    use std::sync::Arc;

    fn setup(k: usize) -> StoreCluster {
        let g = Arc::new(bgl_graph::generate::barabasi_albert(80, 3, 7));
        let mut f = FeatureStore::zeros(80, 2);
        for v in 0..80u32 {
            f.row_mut(v).copy_from_slice(&[v as f32, v as f32 + 0.5]);
        }
        let p = RoundRobinPartitioner.partition(&g, &[], k);
        StoreCluster::new(g, Arc::new(f), &p, NetworkModel::paper_fabric(), 3)
    }

    #[test]
    fn migrate_node_moves_data_and_flips_every_view() {
        let mut cluster = setup(3);
        let v: bgl_graph::NodeId = 4; // round-robin: owned by server 1
        assert_eq!(cluster.owner_of(v).unwrap(), 1);
        let m = cluster.migrate_node(v, 2).unwrap();
        assert_eq!(m.phase, MigratePhase::Done);
        assert_eq!((m.source, m.dest), (1, 2));
        assert!(m.copy_bytes > 0);
        assert!(m.total_time() > 0);
        // Routing map and every server's view agree on the new owner.
        assert_eq!(cluster.owner_of(v).unwrap(), 2);
        for i in 0..3 {
            let srv = cluster.in_process_server(i).unwrap();
            assert_eq!(srv.owner_view(v), Some(2), "server {} view", i);
            assert_eq!(srv.serves(v), i == 2);
        }
        assert!(cluster.in_process_server(1).unwrap().is_tombstoned(v));
        // Reads and samples follow the flip; the row is byte-identical.
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[v], w).unwrap();
        assert_eq!(rows.to_vec(), vec![4.0, 4.5]);
        let (mb, _) = cluster.sample_batch(&[2], &[v], 0).unwrap();
        assert_eq!(mb.seeds, vec![v]);
        // No redirects: this cluster drove the commit, so its map was
        // never stale.
        assert_eq!(cluster.robustness.redirects, 0);
    }

    #[test]
    fn begin_migration_validates_before_any_rpc() {
        let cluster = setup(2);
        assert_eq!(
            cluster.begin_migration(1, 1).unwrap_err(),
            StoreError::Malformed("migrate to current owner")
        );
        assert_eq!(
            cluster.begin_migration(1, 9).unwrap_err(),
            StoreError::InvalidServer(9)
        );
        assert_eq!(
            cluster.begin_migration(100_000, 0).unwrap_err(),
            StoreError::InvalidNode(100_000)
        );
        // Steps refuse to run out of order.
        let mut cluster = setup(2);
        let mut m = cluster.begin_migration(1, 0).unwrap();
        assert_eq!(
            m.step_commit(&mut cluster).unwrap_err(),
            StoreError::Malformed("migration phase out of order")
        );
    }

    #[test]
    fn pre_commit_failure_aborts_with_old_owner_authoritative() {
        let mut cluster = setup(2);
        let v = 3; // owned by server 1
        let mut m = cluster.begin_migration(v, 0).unwrap();
        m.step_prepare(&mut cluster).unwrap();
        // Destination dies before the copy lands.
        cluster.set_server_down(0, true).unwrap();
        assert!(m.step_copy(&mut cluster).is_err());
        cluster.set_server_down(0, false).unwrap();
        // Repair confirms the abort: commit never happened, old owner
        // stands, the node serves from where it always did.
        assert!(!cluster.repair_migration(v, m.source, m.dest).unwrap());
        assert_eq!(cluster.owner_of(v).unwrap(), 1);
        assert!(cluster.in_process_server(1).unwrap().serves(v));
        assert!(!cluster.in_process_server(0).unwrap().serves(v));
        assert!(!cluster.in_process_server(1).unwrap().is_tombstoned(v));
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[v], w).unwrap();
        assert_eq!(rows.to_vec(), vec![3.0, 3.5]);
    }

    #[test]
    fn post_commit_failure_repairs_forward_to_the_new_owner() {
        let mut cluster = setup(3);
        let v = 7; // owned by server 1
        let mut m = cluster.begin_migration(v, 0).unwrap();
        m.step_prepare(&mut cluster).unwrap();
        m.step_copy(&mut cluster).unwrap();
        // Kill a broadcast bystander (server 2) so commit lands on the
        // source, flips the cluster map, then fails mid-broadcast.
        cluster.set_server_down(2, true).unwrap();
        assert!(m.step_commit(&mut cluster).is_err());
        assert_eq!(cluster.owner_of(v).unwrap(), 0, "commit point reached");
        assert_eq!(cluster.in_process_server(2).unwrap().owner_view(v), Some(1), "stale");
        cluster.set_server_down(2, false).unwrap();
        // Repair re-drives the idempotent commit broadcast + tombstone.
        assert!(cluster.repair_migration(v, m.source, m.dest).unwrap());
        for i in 0..3 {
            assert_eq!(cluster.in_process_server(i).unwrap().owner_view(v), Some(0));
        }
        assert!(cluster.in_process_server(1).unwrap().is_tombstoned(v));
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[v], w).unwrap();
        assert_eq!(rows.to_vec(), vec![7.0, 7.5]);
        // Repair of an already-complete migration is an idempotent no-op
        // that still reports completion.
        assert!(cluster.repair_migration(v, m.source, m.dest).unwrap());
    }

    #[test]
    fn chained_migrations_keep_the_latest_owner_authoritative() {
        let mut cluster = setup(3);
        let v = 1; // server 1 → 2 → 0
        cluster.migrate_node(v, 2).unwrap();
        cluster.migrate_node(v, 0).unwrap();
        assert_eq!(cluster.owner_of(v).unwrap(), 0);
        // An abort of a further move keeps the *chained* owner, not the
        // base map.
        let m = cluster.begin_migration(v, 1).unwrap();
        assert!(!cluster.repair_migration(v, m.source, m.dest).unwrap());
        assert_eq!(cluster.owner_of(v).unwrap(), 0);
    }
}
