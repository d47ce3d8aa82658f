//! Socket-level integration tests over 127.0.0.1: handshake, request /
//! response, pipelining, control plane, failure handling, deadlines, and
//! counter reconciliation.

use bgl_graph::{generate, FeatureStore};
use bgl_net::{
    spawn_loopback_cluster, ControlOp, LoopbackCluster, NetClient, NetClientConfig,
    NetServerConfig, NetError,
};
use bgl_obs::Registry;
use bgl_store::wire::Message;
use bgl_store::{GraphStoreServer, StoreError};
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 120;
const DIM: usize = 3;

fn dataset(k: usize) -> (Arc<bgl_graph::Csr>, Arc<FeatureStore>, Arc<Vec<u32>>) {
    let graph = Arc::new(generate::barabasi_albert(NODES, 3, 7));
    let features = Arc::new(FeatureStore::from_raw(
        DIM,
        (0..NODES * DIM).map(|i| i as f32 * 0.5).collect(),
    ));
    let owner = Arc::new((0..NODES as u32).map(|v| v % k as u32).collect::<Vec<u32>>());
    (graph, features, owner)
}

fn cluster(k: usize, config: NetServerConfig, reg: &Registry) -> LoopbackCluster {
    let (graph, features, owner) = dataset(k);
    spawn_loopback_cluster(graph, features, owner, k, 42, config, reg).expect("spawn cluster")
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn handshake_reports_identity_and_shape() {
    let reg = Registry::enabled();
    let lc = cluster(4, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    for s in 0..4 {
        let ack = client.handshake(s).expect("handshake");
        assert_eq!(ack.server_id as usize, s);
        assert_eq!(ack.num_servers, 0, "ring size unset until replication is configured");
        assert_eq!(ack.feature_dim as usize, DIM);
    }
    assert_eq!(counter(&reg, "net.connects"), 4);
    assert_eq!(counter(&reg, "net.server.handshakes"), 4);
    lc.shutdown();
}

#[test]
fn feature_fetch_over_tcp_matches_in_process() {
    let reg = Registry::disabled();
    let lc = cluster(2, NetServerConfig::default(), &reg);
    let (graph, features, owner) = dataset(2);
    let local = GraphStoreServer::new(0, graph, features, owner, 42);

    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    let req = Message::FeatureReq { nodes: vec![0, 2, 4, 8] };
    let over_tcp = client.request(0, req.encode().unwrap()).expect("tcp fetch");
    let in_proc = local.handle(req.encode().unwrap()).expect("local fetch");
    assert_eq!(over_tcp.to_vec(), in_proc.to_vec());
    lc.shutdown();
}

#[test]
fn neighbor_sampling_over_tcp_matches_in_process_sequence() {
    // Same seed, same sequential request order → the server-side RNG
    // walks identically, so sampled neighborhoods match bit for bit.
    let reg = Registry::disabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let (graph, features, owner) = dataset(1);
    let local = GraphStoreServer::new(0, graph, features, owner, 42);

    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    for round in 0..5u32 {
        let req = Message::NeighborReq { fanout: 3, nodes: vec![round, round + 10, round + 20] };
        let over_tcp = client.request(0, req.encode().unwrap()).expect("tcp sample");
        let in_proc = local.handle(req.encode().unwrap()).expect("local sample");
        assert_eq!(over_tcp.to_vec(), in_proc.to_vec(), "round {}", round);
    }
    lc.shutdown();
}

#[test]
fn pipelined_requests_return_in_request_order() {
    let reg = Registry::enabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();

    let payloads: Vec<bytes::Bytes> = (0..16u32)
        .map(|i| Message::FeatureReq { nodes: vec![i] }.encode().unwrap())
        .collect();
    let replies = client.request_pipelined(0, &payloads).expect("pipeline");
    assert_eq!(replies.len(), 16);
    for (i, reply) in replies.into_iter().enumerate() {
        let msg = Message::decode(reply.expect("per-slot ok")).unwrap();
        match msg {
            Message::FeatureResp { dim, rows } => {
                assert_eq!(dim as usize, DIM);
                assert_eq!(rows[0], i as f32 * DIM as f32 * 0.5);
            }
            other => panic!("unexpected reply {:?}", other),
        }
    }
    lc.shutdown();
}

#[test]
fn pipelined_store_errors_surface_per_slot() {
    let reg = Registry::disabled();
    let lc = cluster(2, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    // Node 1 is owned by server 1; asking server 0 for it must fail that
    // slot only.
    let payloads = vec![
        Message::FeatureReq { nodes: vec![0] }.encode().unwrap(),
        Message::FeatureReq { nodes: vec![1] }.encode().unwrap(),
        Message::FeatureReq { nodes: vec![2] }.encode().unwrap(),
    ];
    let replies = client.request_pipelined(0, &payloads).expect("pipeline");
    assert!(replies[0].is_ok());
    assert_eq!(
        replies[1].as_ref().unwrap_err(),
        &NetError::Store(StoreError::NotOwned { node: 1, server: 0 })
    );
    assert!(replies[2].is_ok());
    lc.shutdown();
}

#[test]
fn set_down_control_injects_typed_failures() {
    let reg = Registry::disabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    let req = Message::FeatureReq { nodes: vec![0] }.encode().unwrap();

    assert!(client.request(0, req.clone()).is_ok());
    client.control(0, ControlOp::SetDown(true)).expect("control");
    assert_eq!(
        client.request(0, req.clone()).unwrap_err(),
        NetError::Store(StoreError::ServerDown(0))
    );
    client.control(0, ControlOp::SetDown(false)).expect("control");
    assert!(client.request(0, req).is_ok());
    lc.shutdown();
}

#[test]
fn stats_control_reports_request_counts() {
    let reg = Registry::disabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    for i in 0..7u32 {
        client
            .request(0, Message::NeighborReq { fanout: 2, nodes: vec![i] }.encode().unwrap())
            .expect("request");
    }
    let stats = client.control(0, ControlOp::Stats).expect("stats").expect("reply");
    assert_eq!(stats.requests_served, 7);
    assert_eq!(stats.nodes_sampled, 7);
    lc.shutdown();
}

#[test]
fn replication_control_propagates_to_the_store() {
    let reg = Registry::disabled();
    let lc = cluster(2, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    // Without replication server 1 refuses server 0's node...
    let req = Message::FeatureReq { nodes: vec![0] }.encode().unwrap();
    assert!(matches!(
        client.request(1, req.clone()).unwrap_err(),
        NetError::Store(StoreError::NotOwned { .. })
    ));
    // ...and serves it once it becomes a replica.
    client
        .control(1, ControlOp::SetReplication { replication: 2, num_servers: 2 })
        .expect("control");
    assert!(client.request(1, req).is_ok());
    lc.shutdown();
}

/// A layout that does not fit the control frame's u32 fields is a typed
/// error at the sender — it used to be narrowed with `as` and sent — and no
/// server is told any part of it.
#[cfg(target_pointer_width = "64")]
#[test]
fn oversized_replication_layout_is_refused_before_any_frame_is_sent() {
    use bgl_store::StoreTransport;
    let reg = Registry::enabled();
    let lc = cluster(2, NetServerConfig::default(), &reg);
    let mut transport =
        bgl_net::TcpTransport::connect(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    let sent = counter(&reg, "net.frames_sent");
    for (r, n) in [(u32::MAX as usize + 1, 2), (2, u32::MAX as usize + 3)] {
        assert_eq!(
            transport.set_replication(r, n),
            Err(StoreError::TooLarge("replication layout"))
        );
    }
    assert_eq!(counter(&reg, "net.frames_sent"), sent, "nothing reached the wire");
    assert_eq!(transport.set_replication(2, 2), Ok(()));
    lc.shutdown();
}

#[test]
fn killed_server_fails_fast_and_reconnect_is_counted() {
    let reg = Registry::enabled();
    let mut lc = cluster(2, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    let req = Message::FeatureReq { nodes: vec![0] }.encode().unwrap();
    assert!(client.request(0, req.clone()).is_ok());

    lc.kill(0);
    // The pooled connection dies mid-conversation; the failure must be a
    // transport error (mapping to a transient ServerDown upstream).
    let e = client.request(0, req.clone()).unwrap_err();
    assert!(
        !matches!(e, NetError::Store(_)),
        "expected a transport-level failure, got {:?}",
        e
    );
    assert_eq!(e.into_store_error(0), StoreError::ServerDown(0));

    // Subsequent attempts redial (and fail): reconnect work is visible.
    let _ = client.request(0, req.clone());
    assert!(counter(&reg, "net.reconnects") >= 1);
    assert!(counter(&reg, "net.connect_failures") >= 1);

    // The other server is untouched.
    assert!(client.request(1, Message::FeatureReq { nodes: vec![1] }.encode().unwrap()).is_ok());
    lc.shutdown();
}

#[test]
fn version_mismatch_is_refused_at_the_handshake() {
    let reg = Registry::enabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let config = NetClientConfig { protocol_version: 99, ..NetClientConfig::default() };
    let mut client = NetClient::new(&lc.addrs(), config, &reg).unwrap();
    let err = client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .unwrap_err();
    assert!(
        matches!(err, NetError::Handshake(_)),
        "expected handshake refusal, got {:?}",
        err
    );
    // Both sides counted it.
    assert!(counter(&reg, "net.handshake_failures") >= 1);
    // Give the server thread a beat to record its side.
    std::thread::sleep(Duration::from_millis(50));
    assert!(counter(&reg, "net.server.handshake_failures") >= 1);
    lc.shutdown();
}

#[test]
fn connection_bound_refuses_the_excess_client() {
    let reg = Registry::enabled();
    let config = NetServerConfig { max_connections: 1, ..NetServerConfig::default() };
    let lc = cluster(1, config, &reg);

    let mut first = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    assert!(first
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .is_ok());

    let mut second = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    let err = second
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .unwrap_err();
    assert!(
        matches!(err, NetError::Handshake(_)),
        "refused connection surfaces as a failed handshake, got {:?}",
        err
    );
    assert!(counter(&reg, "net.server.rejected") >= 1);

    // The first client is unaffected.
    assert!(first
        .request(0, Message::FeatureReq { nodes: vec![1] }.encode().unwrap())
        .is_ok());
    lc.shutdown();
}

#[test]
fn slow_server_trips_the_client_read_deadline() {
    let reg = Registry::disabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let config = NetClientConfig {
        read_timeout: Duration::from_millis(60),
        ..NetClientConfig::default()
    };
    let mut client = NetClient::new(&lc.addrs(), config, &reg).unwrap();
    client
        .control(0, ControlOp::SetSlow { micros: 400_000 })
        .expect("control is never delayed");
    let err = client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .unwrap_err();
    assert_eq!(err, NetError::Timeout("response read"));
    assert!(err.into_store_error(0).is_transient());

    // Clearing the delay restores service on a fresh connection.
    client.control(0, ControlOp::SetSlow { micros: 0 }).expect("control");
    assert!(client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .is_ok());
    lc.shutdown();
}

#[test]
fn idle_connections_are_closed_by_the_server_deadline() {
    let reg = Registry::enabled();
    let config = NetServerConfig {
        idle_timeout: Some(Duration::from_millis(60)),
        ..NetServerConfig::default()
    };
    let lc = cluster(1, config, &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    assert!(client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .is_ok());
    std::thread::sleep(Duration::from_millis(250));
    assert!(counter(&reg, "net.server.idle_closed") >= 1);
    // The stale pooled connection surfaces a transient failure (the
    // cluster's retry layer owns retries, not the pool)…
    let err = client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .unwrap_err();
    assert!(err.into_store_error(0).is_transient());
    // …and the very next call redials successfully.
    assert!(client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .is_ok());
    assert!(counter(&reg, "net.reconnects") >= 1);
    lc.shutdown();
}

#[test]
fn wire_byte_counters_reconcile_across_both_sides() {
    let reg = Registry::enabled();
    let lc = cluster(2, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    for i in 0..10u32 {
        let s = (i % 2) as usize;
        client
            .request(s, Message::FeatureReq { nodes: vec![i] }.encode().unwrap())
            .expect("request");
    }
    // Every request was answered, so both directions have fully drained:
    // the client's writes are the servers' reads and vice versa.
    assert_eq!(
        counter(&reg, "net.bytes_sent"),
        counter(&reg, "net.server.bytes_received")
    );
    assert_eq!(
        counter(&reg, "net.bytes_received"),
        counter(&reg, "net.server.bytes_sent")
    );
    assert_eq!(
        counter(&reg, "net.frames_sent"),
        counter(&reg, "net.server.frames_received")
    );
    assert_eq!(
        counter(&reg, "net.frames_received"),
        counter(&reg, "net.server.frames_sent")
    );
    assert_eq!(counter(&reg, "net.server.requests"), 10);
    lc.shutdown();
}

#[test]
fn graceful_shutdown_answers_before_closing() {
    let reg = Registry::enabled();
    let lc = cluster(1, NetServerConfig::default(), &reg);
    let mut client = NetClient::new(&lc.addrs(), NetClientConfig::default(), &reg).unwrap();
    // A full pipelined batch answered, then shutdown: nothing lost.
    let payloads: Vec<bytes::Bytes> = (0..8u32)
        .map(|i| Message::FeatureReq { nodes: vec![i] }.encode().unwrap())
        .collect();
    let replies = client.request_pipelined(0, &payloads).expect("pipeline");
    assert!(replies.iter().all(|r| r.is_ok()));
    lc.shutdown();
    // After shutdown the port is gone: reconnect fails cleanly.
    let err = client
        .request(0, Message::FeatureReq { nodes: vec![0] }.encode().unwrap())
        .unwrap_err();
    assert!(err.into_store_error(0).is_transient());
}
