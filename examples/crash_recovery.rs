//! Durability demo: crash a machine mid-transaction and recover it from
//! the NVRAM logs (§4.6, Figure 7).
//!
//! Two scenarios are exercised:
//! 1. crash *before* the HTM region commits — the lock-ahead log lets a
//!    survivor release the stranded remote locks; no update appears;
//! 2. crash *after* the HTM region commits but before any write-back —
//!    the write-ahead log (atomic with `XEND`) lets the survivor redo
//!    the remote updates exactly once.
//!
//! Run with: `cargo run --example crash_recovery`

use std::sync::Arc;

use drtm::htm::{Executor, HtmStats};
use drtm::memstore::{Arena, ClusterHash};
use drtm::rdma::{Cluster, ClusterConfig};
use drtm::txn::{
    CrashPoint, DrTm, DrTmConfig, LockState, NodeLayout, SoftTimer, TxnError, TxnSpec,
};
use drtm::workloads::resolve::Table;

fn build(crash: Option<CrashPoint>) -> (Arc<DrTm>, Table) {
    let mut cfg = DrTmConfig { logging: true, crash_point: crash, ..Default::default() };
    cfg.htm = Default::default();
    let cluster =
        Cluster::new(ClusterConfig { nodes: 2, region_size: 8 << 20, ..Default::default() });
    let mut layouts = Vec::new();
    let mut shards = Vec::new();
    for n in 0..2u16 {
        let mut arena = Arena::new(0, 8 << 20);
        layouts.push(NodeLayout::reserve(&mut arena, 1));
        let t = ClusterHash::create(&mut arena, n, 64, 100, 8);
        let exec = Executor::new(cfg.htm.clone(), Arc::new(HtmStats::new()));
        t.insert(&exec, cluster.node(n).region(), 0, &100u64.to_le_bytes()).unwrap();
        shards.push(Arc::new(t));
    }
    let timer = SoftTimer::start(cluster.clone(), std::time::Duration::from_micros(200));
    std::mem::forget(timer); // keep ticking for the example's lifetime
    (DrTm::new(cluster, cfg, layouts), Table::new(shards))
}

fn balance(sys: &Arc<DrTm>, table: &Table, node: u16) -> u64 {
    let w = sys.worker(node, 0);
    let rec = table.try_resolve(&w, 1, 0).expect("resolve against a crashed node").unwrap();
    let mut b = [0u8; 8];
    sys.cluster().node(1).region().read_nt(rec.addr.offset + 32, &mut b);
    u64::from_le_bytes(b)
}

fn run_scenario(crash: CrashPoint) {
    println!("--- scenario: {crash:?} ---");
    let (sys, table) = build(Some(crash));
    let mut w = sys.worker(0, 0);
    let rec = table.try_resolve(&w, 1, 0).expect("resolve against a crashed node").unwrap();
    let spec = TxnSpec { remote_writes: vec![rec], ..Default::default() };
    let r: Result<(), _> = w.execute(&spec, |ctx| {
        let v = u64::from_le_bytes(ctx.remote_write_cur(0)[..8].try_into().unwrap());
        ctx.remote_write(0, (v + 11).to_le_bytes().to_vec());
        Ok(())
    });
    assert_eq!(r, Err(TxnError::SimulatedCrash));
    let st = LockState(sys.cluster().node(1).region().read_u64_nt(rec.addr.offset));
    println!(
        "machine 0 crashed; remote record locked = {}, balance = {}",
        st.is_write_locked(),
        balance(&sys, &table, 1)
    );

    // A survivor (machine 1) recovers machine 0 from its NVRAM logs.
    let report = sys.recover(0, 1).expect("recovery from a live survivor");
    println!("recovery report: {report:?}");
    let st = LockState(sys.cluster().node(1).region().read_u64_nt(rec.addr.offset));
    let b = balance(&sys, &table, 1);
    println!("after recovery: locked = {}, balance = {}", st.is_write_locked(), b);
    assert!(st.is_init(), "all stranded locks released");
    match crash {
        CrashPoint::BeforeHtmCommit => assert_eq!(b, 100, "uncommitted update must vanish"),
        _ => assert_eq!(b, 111, "committed update must be redone"),
    }
    // Idempotence: running recovery again changes nothing.
    let again = sys.recover(0, 1).expect("recovery from a live survivor");
    assert_eq!(again.redone_updates, 0);
    println!("recovery is idempotent\n");
}

fn main() {
    run_scenario(CrashPoint::BeforeHtmCommit);
    run_scenario(CrashPoint::AfterHtmCommit);
    run_scenario(CrashPoint::MidWriteBack);
    println!("all crash/recovery scenarios passed");
}
