//! The three benchmark workloads, built through the public `workloads`
//! constructors and driven one per-type call at a time.

use std::sync::Arc;

use drtm_core::{DrTm, DrTmConfig, TxnError};
use drtm_memstore::CacheStats;
use drtm_rdma::NodeId;
use drtm_workloads::resolve::Table;
use drtm_workloads::smallbank::{SmallBank, SmallBankConfig, SmallBankWorker, INIT_BALANCE};
use drtm_workloads::tpcc::{Tpcc, TpccConfig, TpccWorker};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-C, TPC-C's default remote shares, logging off (Fig. 12).
    TpccLocal,
    /// TPC-C, 30 % remote new-order lines, 50 % remote payments,
    /// logging on (Table 6).
    TpccDist,
    /// SmallBank with a hot set, 5 % distributed, logging on (Fig. 15).
    SmallBankHot,
}

/// TPC-C transaction types, in mix order.
pub const TPCC_LABELS: [&str; 5] =
    ["new_order", "payment", "order_status", "delivery", "stock_level"];
/// TPC-C standard mix weights (percent).
const TPCC_MIX: [u32; 5] = [45, 43, 4, 4, 4];

/// SmallBank transaction types, in mix order.
pub const SMALLBANK_LABELS: [&str; 6] = [
    "send_payment",
    "balance",
    "deposit_checking",
    "withdraw_from_checking",
    "transfer_to_savings",
    "amalgamate",
];
/// SmallBank mix weights (percent).
const SMALLBANK_MIX: [u32; 6] = [25, 15, 15, 15, 15, 15];

/// Every workload, in the order the benchmark lists them.
pub const ALL: [Workload; 3] = [Workload::TpccLocal, Workload::TpccDist, Workload::SmallBankHot];

/// Cluster geometry and the fixed per-round run length.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Simulated machines.
    pub nodes: usize,
    /// Logical workers per machine.
    pub workers: usize,
    /// Warmup transactions per logical worker (its own driver pass).
    pub warmup: u64,
    /// Measured transactions per logical worker.
    pub iters: u64,
    /// Scaled-down population for the self-tests.
    pub small: bool,
}

impl Shape {
    /// A two-machine, two-worker shape with a tiny population.
    #[cfg(test)]
    pub fn tiny(self, warmup: u64, iters: u64) -> Shape {
        Shape { nodes: 2, workers: 2, warmup, iters, small: true }
    }

    /// Logical workers in the cluster.
    pub fn lanes(&self) -> usize {
        self.nodes * self.workers
    }
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccLocal => "tpcc-local",
            Workload::TpccDist => "tpcc-dist",
            Workload::SmallBankHot => "smallbank-hot",
        }
    }

    /// Transaction-type labels, in mix order.
    pub fn labels(self) -> &'static [&'static str] {
        match self {
            Workload::TpccLocal | Workload::TpccDist => &TPCC_LABELS,
            Workload::SmallBankHot => &SMALLBANK_LABELS,
        }
    }

    /// Mix weights, parallel to [`Workload::labels`].
    pub fn weights(self) -> &'static [u32] {
        match self {
            Workload::TpccLocal | Workload::TpccDist => &TPCC_MIX,
            Workload::SmallBankHot => &SMALLBANK_MIX,
        }
    }

    /// Full-size geometry and run length. TPC-C inserts orders as it
    /// runs, so its per-txn cost depends on run length: the length is
    /// fixed here, never derived from the time budget.
    pub fn shape(self) -> Shape {
        match self {
            Workload::TpccLocal | Workload::TpccDist => {
                Shape { nodes: 6, workers: 8, warmup: 60, iters: 300, small: false }
            }
            Workload::SmallBankHot => {
                Shape { nodes: 6, workers: 4, warmup: 400, iters: 2_000, small: false }
            }
        }
    }

    fn tpcc_config(self, shape: &Shape) -> TpccConfig {
        let (remote_new_order, remote_payment, logging) = match self {
            Workload::TpccLocal => (0.01, 0.15, false),
            _ => (0.30, 0.50, true),
        };
        let per_node_txns = shape.workers as u64 * (shape.warmup + shape.iters);
        let (customers, items, region) =
            if shape.small { (30, 200, 24 << 20) } else { (60, 1_000, 24 << 20) };
        TpccConfig {
            nodes: shape.nodes,
            workers: shape.workers,
            customers_per_district: customers,
            items,
            cross_warehouse_new_order: remote_new_order,
            cross_warehouse_payment: remote_payment,
            // Room for every transaction of a round to be a new-order.
            max_new_orders_per_node: per_node_txns as usize + 64,
            region_size: region,
            drtm: DrTmConfig { logging, ..Default::default() },
            ..Default::default()
        }
    }

    fn smallbank_config(self, shape: &Shape) -> SmallBankConfig {
        let (accounts, region) = if shape.small { (400, 4 << 20) } else { (5_000, 8 << 20) };
        SmallBankConfig {
            nodes: shape.nodes,
            workers: shape.workers,
            accounts_per_node: accounts,
            hot_per_node: 100.min(accounts / 4),
            hot_prob: 0.25,
            dist_prob: 0.05,
            region_size: region,
            drtm: DrTmConfig { logging: true, ..Default::default() },
            ..Default::default()
        }
    }

    /// Threads the program itself starts per deployment: the softtime
    /// timer, plus one scan service per TPC-C machine.
    pub fn program_threads(self, shape: &Shape) -> usize {
        match self {
            Workload::TpccLocal | Workload::TpccDist => 1 + shape.nodes,
            Workload::SmallBankHot => 1,
        }
    }
}

/// A built deployment.
pub enum Deployment {
    /// A TPC-C cluster.
    Tpcc(Arc<Tpcc>),
    /// A SmallBank cluster.
    SmallBank(Arc<SmallBank>),
}

impl Deployment {
    /// Builds the cluster, its regions, population and service threads.
    pub fn build(workload: Workload, shape: &Shape) -> Deployment {
        match workload {
            Workload::TpccLocal | Workload::TpccDist => {
                Deployment::Tpcc(Arc::new(Tpcc::build(workload.tpcc_config(shape))))
            }
            Workload::SmallBankHot => {
                Deployment::SmallBank(Arc::new(SmallBank::build(workload.smallbank_config(shape))))
            }
        }
    }

    /// The transaction system.
    pub fn sys(&self) -> &Arc<DrTm> {
        match self {
            Deployment::Tpcc(t) => &t.sys,
            Deployment::SmallBank(s) => &s.sys,
        }
    }

    /// The tables the workloads resolve on other machines: TPC-C's
    /// stock (remote supply lines) and customer (remote payments),
    /// SmallBank's checking (the second account of send-payment and
    /// amalgamate). Every other table is only resolved on the worker's
    /// own machine, so its location caches never see a lookup.
    fn remote_tables(&self) -> Vec<&Table> {
        match self {
            Deployment::Tpcc(t) => vec![&t.stock, &t.customer],
            Deployment::SmallBank(s) => vec![&s.checking],
        }
    }

    /// Location-cache counters summed over every remotely resolved table
    /// and every (client, server) pair of distinct machines.
    ///
    /// `Table::cache` creates a missing cache sized to the whole remote
    /// bucket array; reading the never-used caches of local-only tables
    /// would allocate hundreds of MB to sum zeros, so they are skipped.
    pub fn cache_stats(&self) -> CacheStats {
        let nodes = self.sys().cluster().num_nodes() as NodeId;
        let mut sum = CacheStats::default();
        for table in self.remote_tables() {
            for client in 0..nodes {
                for server in (0..nodes).filter(|&s| s != client) {
                    let s = table.cache(client, server).stats();
                    sum.hits += s.hits;
                    sum.misses += s.misses;
                    sum.fetches += s.fetches;
                    sum.invalidations += s.invalidations;
                    sum.migration_invalidations += s.migration_invalidations;
                    sum.forced_misses += s.forced_misses;
                }
            }
        }
        sum
    }

    /// The per-worker client of logical worker `(node, worker)`.
    pub fn client(&self, node: NodeId, worker: usize) -> Client {
        match self {
            Deployment::Tpcc(t) => Client::Tpcc(t.worker(node, worker)),
            Deployment::SmallBank(s) => Client::SmallBank(s.worker(node, worker)),
        }
    }

    /// SmallBank's total of every balance (`None` for TPC-C).
    pub fn total_balance(&self) -> Option<u64> {
        match self {
            Deployment::Tpcc(_) => None,
            Deployment::SmallBank(s) => Some(s.total_balance()),
        }
    }

    /// Checks the freshly built population.
    pub fn check_population(&self) -> Result<(), String> {
        match self {
            Deployment::Tpcc(_) => self.check_tpcc(),
            Deployment::SmallBank(s) => {
                let want = 2 * s.cfg.nodes as u64 * s.cfg.accounts_per_node * INIT_BALANCE;
                let got = s.total_balance();
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "populated total balance {got} != 2 x accounts x INIT_BALANCE = {want}"
                    ))
                }
            }
        }
    }

    /// TPC-C consistency conditions 1 and 2 (a no-op for SmallBank,
    /// whose oracle needs the issued call sequences).
    pub fn check_tpcc(&self) -> Result<(), String> {
        let Deployment::Tpcc(t) = self else { return Ok(()) };
        if !t.check_ytd_consistency() {
            return Err("TPC-C W_YTD != sum of D_YTD".into());
        }
        if !t.check_order_consistency() {
            return Err("TPC-C next_o_id disagrees with the new-order index".into());
        }
        Ok(())
    }
}

/// One logical worker's handle into the deployment.
pub enum Client {
    /// A TPC-C terminal bound to one home warehouse.
    Tpcc(TpccWorker),
    /// A SmallBank client.
    SmallBank(SmallBankWorker),
}

impl Client {
    /// Issues one transaction of type `kind` (an index into the
    /// workload's labels) through the public per-type method.
    ///
    /// TPC-C's specified new-order rollback is a completed outcome; a
    /// typed [`TxnError`] is a failed one. The TPC-C read-write methods
    /// have no typed form and panic on a failure instead.
    pub fn call(&mut self, kind: usize) -> Result<(), TxnError> {
        match self {
            Client::Tpcc(w) => {
                match kind {
                    0 => w.new_order(),
                    1 => w.payment(),
                    2 => return w.try_order_status().map(|_| ()),
                    3 => w.delivery(),
                    4 => w.stock_level(),
                    _ => unreachable!("TPC-C has five transaction types"),
                };
                Ok(())
            }
            Client::SmallBank(w) => match kind {
                0 => w.try_send_payment(),
                1 => w.try_balance(),
                2 => w.try_deposit_checking(),
                3 => w.try_withdraw_from_checking(),
                4 => w.try_transfer_to_savings(),
                5 => w.try_amalgamate(),
                _ => unreachable!("SmallBank has six transaction types"),
            },
        }
    }
}
