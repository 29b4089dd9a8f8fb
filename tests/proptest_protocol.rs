//! Protocol-level property test: random transfer workloads over a
//! random cluster shape always conserve value and leave no stray locks.

use std::sync::Arc;

use proptest::prelude::*;

use drtm::htm::{Executor, HtmStats};
use drtm::memstore::{Arena, ClusterHash};
use drtm::rdma::{Cluster, ClusterConfig, LatencyProfile};
use drtm::txn::{DrTm, DrTmConfig, LockState, NodeLayout, SoftTimer, TxnSpec};
use drtm::workloads::resolve::Table;

const PER_NODE: u64 = 16;
const INIT: u64 = 1_000;

/// One randomly generated transfer: (src node, src key, dst node, dst
/// key, amount).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    src_node: u16,
    src_key: u64,
    dst_node: u16,
    dst_key: u64,
    amount: u64,
}

fn transfer(nodes: u16) -> impl Strategy<Value = Transfer> {
    (0..nodes, 0..PER_NODE, 0..nodes, 0..PER_NODE, 1u64..50).prop_map(|(sn, sk, dn, dk, amount)| {
        Transfer { src_node: sn, src_key: sk, dst_node: dn, dst_key: dk, amount }
    })
}

fn build(nodes: usize) -> (Arc<DrTm>, Arc<Table>, SoftTimer) {
    let cluster = Cluster::new(ClusterConfig {
        nodes,
        region_size: 8 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let cfg = DrTmConfig::default();
    let mut layouts = Vec::new();
    let mut shards = Vec::new();
    for n in 0..nodes as u16 {
        let mut arena = Arena::new(0, 8 << 20);
        layouts.push(NodeLayout::reserve(&mut arena, 2));
        let t = ClusterHash::create(&mut arena, n, 16, 2 * PER_NODE as usize, 8);
        let exec = Executor::new(cfg.htm.clone(), Arc::new(HtmStats::new()));
        for k in 0..PER_NODE {
            let gid = n as u64 * PER_NODE + k;
            t.insert(&exec, cluster.node(n).region(), gid, &INIT.to_le_bytes()).unwrap();
        }
        shards.push(Arc::new(t));
    }
    let timer = SoftTimer::start(cluster.clone(), std::time::Duration::from_micros(200));
    (DrTm::new(cluster, cfg, layouts), Arc::new(Table::new(shards)), timer)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Any random batch of transfers, split across two concurrent
    /// workers on different machines, conserves the global total and
    /// releases every exclusive lock.
    #[test]
    fn random_transfers_conserve_and_unlock(
        nodes in 2usize..4,
        batch_a in proptest::collection::vec(transfer(3), 1..25),
        batch_b in proptest::collection::vec(transfer(3), 1..25),
    ) {
        let (sys, table, _timer) = build(nodes);
        let run_batch = |worker_node: u16, wid: usize, batch: Vec<Transfer>| {
            let sys = sys.clone();
            let table = table.clone();
            move || {
                let mut w = sys.worker(worker_node, wid);
                for t in batch {
                    let sn = t.src_node % nodes as u16;
                    let dn = t.dst_node % nodes as u16;
                    let src = sn as u64 * PER_NODE + t.src_key;
                    let dst = dn as u64 * PER_NODE + t.dst_key;
                    if src == dst {
                        continue;
                    }
                    let src_rec = table.try_resolve(&w, sn, src).unwrap().expect("populated");
                    let dst_rec = table.try_resolve(&w, dn, dst).unwrap().expect("populated");
                    let mut spec = TxnSpec::default();
                    let src_local = sn == worker_node;
                    let dst_local = dn == worker_node;
                    let src_ix = if src_local {
                        spec.local_writes.push(src_rec);
                        (true, spec.local_writes.len() - 1)
                    } else {
                        spec.remote_writes.push(src_rec);
                        (false, spec.remote_writes.len() - 1)
                    };
                    let dst_ix = if dst_local {
                        spec.local_writes.push(dst_rec);
                        (true, spec.local_writes.len() - 1)
                    } else {
                        spec.remote_writes.push(dst_rec);
                        (false, spec.remote_writes.len() - 1)
                    };
                    let amount = t.amount;
                    w.execute(&spec, |ctx| {
                        let get = |ctx: &mut drtm::txn::TxnCtx<'_>, ix: (bool, usize)| {
                            Ok::<u64, drtm::htm::Abort>(if ix.0 {
                                u64::from_le_bytes(
                                    ctx.local_write_cur(ix.1)?[..8].try_into().expect("u64"),
                                )
                            } else {
                                u64::from_le_bytes(
                                    ctx.remote_write_cur(ix.1)[..8].try_into().expect("u64"),
                                )
                            })
                        };
                        let sv = get(ctx, src_ix)?;
                        let dv = get(ctx, dst_ix)?;
                        if src_ix.0 {
                            ctx.local_write(src_ix.1, &sv.wrapping_sub(amount).to_le_bytes())?;
                        } else {
                            ctx.remote_write(src_ix.1, sv.wrapping_sub(amount).to_le_bytes().to_vec());
                        }
                        if dst_ix.0 {
                            ctx.local_write(dst_ix.1, &dv.wrapping_add(amount).to_le_bytes())?;
                        } else {
                            ctx.remote_write(dst_ix.1, dv.wrapping_add(amount).to_le_bytes().to_vec());
                        }
                        Ok(())
                    })
                    .expect("transfer commits");
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(run_batch(0, 0, batch_a));
            s.spawn(run_batch((nodes - 1) as u16, 1, batch_b));
        });
        // Conservation + no stray exclusive locks.
        let w = sys.worker(0, 0);
        let mut total = 0u64;
        for n in 0..nodes as u16 {
            for k in 0..PER_NODE {
                let gid = n as u64 * PER_NODE + k;
                let rec = table.try_resolve(&w, n, gid).unwrap().expect("populated");
                let region = sys.cluster().node(n).region();
                let st = LockState(region.read_u64_nt(rec.addr.offset));
                prop_assert!(!st.is_write_locked(), "stray lock on ({n},{k})");
                let mut b = [0u8; 8];
                region.read_nt(rec.addr.offset + 32, &mut b);
                total = total.wrapping_add(u64::from_le_bytes(b));
            }
        }
        prop_assert_eq!(total, nodes as u64 * PER_NODE * INIT);
    }
}
