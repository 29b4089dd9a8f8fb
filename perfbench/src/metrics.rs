//! End-to-end and per-layer metrics, computed from rounds.

use drtm_core::{AbortCause, Phase, CAUSE_NAMES};

use crate::round::RoundOut;
use crate::trace::Attrs;
use crate::workload::{SMALLBANK_LABELS, TPCC_LABELS};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value; 0 for a label the workload does not run.
    pub value: f64,
    /// How many samples the value summarizes, and of what.
    pub samples: String,
    /// Whether `BENCHMARK.json` lists it (and the result line reports it).
    pub listed: bool,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: String) -> Metric {
    Metric { name: name.into(), unit, value, samples, listed: true }
}

/// A metric printed for reading but left out of `BENCHMARK.json`.
fn unlisted(name: &str, unit: &'static str, value: f64, samples: String) -> Metric {
    Metric { listed: false, ..metric(name, unit, value, samples) }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Midpoint median (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mid-distribution quantile `q` of an ascending-sorted slice (0 if
/// empty).
///
/// Virtual latencies are sums of fixed modelled costs, so many samples
/// tie exactly and a nearest-rank percentile sits on one tied value run
/// after run. The mid-distribution quantile (Parzen 2004; Ma, Genton and
/// Parzen 2011) places each distinct value `v` at the middle of its
/// probability mass, `F(v-) + P(v)/2`, and interpolates linearly between
/// neighbouring distinct values, so it follows how the mass between
/// them shifts. Without ties it is the usual interpolated percentile.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let (mut prev, mut i) = (None::<(f64, f64)>, 0);
    while i < sorted.len() {
        let v = sorted[i];
        let j = i + sorted[i..].partition_point(|&x| x == v);
        let mid = (i as f64 + (j - i) as f64 / 2.0) / n;
        let here = (v as f64, mid);
        if q <= mid {
            return match prev {
                Some((pv, pm)) => pv + (q - pm) / (mid - pm) * (here.0 - pv),
                None => here.0,
            };
        }
        prev = Some(here);
        i = j;
    }
    prev.map_or(0.0, |(v, _)| v)
}

/// Per-round throughput: txns ÷ mean per-worker virtual seconds.
pub fn throughput_tps(r: &RoundOut) -> f64 {
    let workers = r.report.workers.len() as f64;
    let vtime_s: f64 = r.report.workers.iter().map(|w| w.vtime_ns as f64).sum::<f64>() / 1e9;
    ratio(r.txns() as f64, vtime_s / workers)
}

/// Per-round host wall µs per txn of the measured window.
pub fn host_us_per_txn(r: &RoundOut) -> f64 {
    ratio(r.wall_s * 1e6, r.txns() as f64)
}

/// Per-round host CPU µs per txn of the measured window, every thread
/// of the process (excludes time the host's hypervisor stole).
pub fn host_cpu_us_per_txn(r: &RoundOut) -> f64 {
    ratio(r.cpu_s * 1e6, r.txns() as f64)
}

/// Every measured txn latency (virtual ns) of `rounds`, sorted,
/// optionally only those labelled `label`.
fn latencies(rounds: &[&RoundOut], label: Option<&str>) -> Vec<u64> {
    let mut v: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.report.workers.iter().flat_map(|w| w.samples.iter()))
        .filter(|(l, _)| label.is_none_or(|want| *l == want))
        .map(|&(_, ns)| ns)
        .collect();
    v.sort_unstable();
    v
}

/// The end-to-end metrics (untraced rounds only): the eight the
/// benchmark defines plus host CPU per txn.
///
/// Three are printed but not listed in `BENCHMARK.json`:
/// - `failed_ratio` is 0 on these fault-free workloads, and a bound that
///   is a share of the median cannot gate a zero (failures still count
///   in the result line's `failed`);
/// - `host_us_per_txn` (wall) moves with the CPU time a virtual
///   machine's hypervisor steals;
/// - `host_cpu_us_per_txn` excludes stolen time but still moves with the
///   load other tenants put on shared caches and memory: on TPC-C its
///   quartile spread over ten seeds reached 0.26, above the largest
///   bound a metric may carry.
///
/// `peak_rss_mb` is the process's peak after its first round: later
/// rounds repeat the same work on a heap holding the previous rounds'
/// freed memory, so their peak depends on the allocator's state and on
/// how many rounds fit in the time budget.
pub fn end_to_end(rounds: &[&RoundOut], first: &RoundOut) -> Vec<Metric> {
    let n = rounds.len();
    let txns: u64 = rounds.iter().map(|r| r.txns()).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let per_round =
        |f: fn(&RoundOut) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let lat = latencies(rounds, None);
    let lat_samples = format!("{} txns", lat.len());
    let us = |q| percentile(&lat, q) / 1e3;
    vec![
        metric(
            "throughput_tps",
            "1/s",
            per_round(throughput_tps),
            format!("median of {n} rounds, {txns} txns"),
        ),
        metric("latency_p50_us", "us", us(0.5), lat_samples.clone()),
        metric("latency_p99_us", "us", us(0.99), lat_samples.clone()),
        metric("latency_p999_us", "us", us(0.999), lat_samples),
        unlisted(
            "host_us_per_txn",
            "us",
            per_round(host_us_per_txn),
            format!("median of {n} rounds"),
        ),
        unlisted(
            "host_cpu_us_per_txn",
            "us",
            per_round(host_cpu_us_per_txn),
            format!("median of {n} rounds"),
        ),
        unlisted(
            "failed_ratio",
            "ratio",
            ratio(failed as f64, txns as f64),
            format!("{txns} txns"),
        ),
        metric("setup_s", "s", per_round(|r| r.setup_s), format!("median of {n} builds")),
        metric("peak_rss_mb", "MB", first.peak_rss_mb, "first round of 1 process".into()),
    ]
}

/// Every per-layer metric. Counter-based metrics pool every round;
/// host-time metrics come from the traced rounds; `overhead_us` is the
/// traced minus untraced host CPU µs per txn.
pub fn per_layer(
    all: &[&RoundOut],
    traced: &[&RoundOut],
    os_threads: usize,
    overhead_us: f64,
) -> Vec<Metric> {
    let txns: u64 = all.iter().map(|r| r.txns()).sum();
    let t = txns as f64;
    let pooled = format!("{txns} txns, {} rounds", all.len());
    let mut out = Vec::new();

    // workloads::driver
    let busy_share: Vec<f64> = traced
        .iter()
        .map(|r| {
            let busy: u64 = r.txn_spans.iter().flatten().map(|s| s.duration_ns()).sum();
            1.0 - ratio(busy as f64, r.wall_s * 1e9 * os_threads as f64)
        })
        .collect();
    out.push(metric(
        "driver.self_wall_share",
        "ratio",
        median(&busy_share),
        format!("median of {} traced rounds", traced.len()),
    ));
    let spread: Vec<f64> = all
        .iter()
        .map(|r| {
            let v: Vec<f64> = r.report.workers.iter().map(|w| w.vtime_ns as f64).collect();
            let (lo, hi) = v.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            ratio(hi - lo, v.iter().sum::<f64>() / v.len() as f64)
        })
        .collect();
    out.push(metric(
        "driver.worker_vtime_spread",
        "ratio",
        median(&spread),
        format!("median of {} rounds", all.len()),
    ));

    // workloads: per transaction type
    for label in TPCC_LABELS.iter().chain(SMALLBANK_LABELS.iter()) {
        let lat = latencies(all, Some(label));
        let mut host: Vec<u64> = traced
            .iter()
            .flat_map(|r| r.txn_spans.iter().flatten())
            .filter(|s| matches!(s.attrs, Attrs::Txn { label: l, .. } if l == *label))
            .map(|s| s.duration_ns())
            .collect();
        host.sort_unstable();
        let (n, h) = (format!("{} txns", lat.len()), format!("{} traced txns", host.len()));
        let us = |v: &[u64], q| percentile(v, q) / 1e3;
        out.push(metric(format!("txn.{label}.vtime_us_p50"), "us", us(&lat, 0.5), n.clone()));
        out.push(metric(format!("txn.{label}.vtime_us_p99"), "us", us(&lat, 0.99), n));
        out.push(metric(format!("txn.{label}.host_us_p50"), "us", us(&host, 0.5), h));
    }

    // core: phases, as virtual ns per txn
    let sum = |f: &dyn Fn(&RoundOut) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
    let worker_ns = sum(&|r| r.report.workers.iter().map(|w| w.vtime_ns).sum());
    let mut attributed = 0.0;
    for phase in [Phase::Start, Phase::LocalTx, Phase::Commit, Phase::Fallback] {
        let ns = ratio(sum(&|r| r.diag.phases.get(phase).vtime_ns), t);
        attributed += ns;
        out.push(metric(format!("core.phase.{}_ns", phase.name()), "ns", ns, pooled.clone()));
    }
    out.push(metric("core.phase.other_ns", "ns", ratio(worker_ns, t) - attributed, pooled.clone()));

    // core: aborts
    let aborts = sum(&|r| r.diag.causes.total());
    let committed = sum(&|r| r.diag.txn.committed);
    out.push(metric("core.aborts_per_txn", "count", ratio(aborts, t), pooled.clone()));
    out.push(metric(
        "core.commit_yield",
        "ratio",
        ratio(committed, committed + aborts),
        pooled.clone(),
    ));
    out.push(metric(
        "core.fallback_share",
        "ratio",
        ratio(sum(&|r| r.diag.txn.fallback_committed), committed),
        pooled.clone(),
    ));
    let mut listed = 0.0;
    for cause in REPORTED_CAUSES {
        let i = cause.index();
        let n = sum(&|r| r.diag.causes.counts[i]);
        listed += n;
        out.push(metric(
            format!("core.abort.{}", CAUSE_NAMES[i]),
            "1/ktxn",
            ratio(n * 1e3, t),
            pooled.clone(),
        ));
    }
    out.push(metric(
        "core.abort.other",
        "1/ktxn",
        ratio((aborts - listed) * 1e3, t),
        pooled.clone(),
    ));

    // core: log and read-only
    out.push(metric(
        "core.log.bytes_per_txn",
        "B",
        ratio(sum(&|r| r.diag.txn.log_bytes), t),
        pooled.clone(),
    ));
    out.push(metric(
        "core.log.writes_per_txn",
        "count",
        ratio(sum(&|r| r.diag.txn.log_writes), t),
        pooled.clone(),
    ));
    out.push(metric(
        "core.ro.retries_per_ro_commit",
        "count",
        ratio(sum(&|r| r.diag.txn.ro_retries), sum(&|r| r.diag.txn.ro_committed)),
        pooled.clone(),
    ));

    // htm
    let htm_commits = sum(&|r| r.diag.htm.commits);
    let htm_aborts = sum(&|r| r.diag.htm.total_aborts());
    out.push(metric(
        "htm.attempts_per_commit",
        "count",
        ratio(htm_commits + htm_aborts, htm_commits),
        pooled.clone(),
    ));
    out.push(metric(
        "htm.abort_rate",
        "ratio",
        ratio(htm_aborts, htm_commits + htm_aborts),
        pooled.clone(),
    ));
    out.push(metric(
        "htm.fallbacks_per_ktxn",
        "1/ktxn",
        ratio(sum(&|r| r.diag.htm.fallbacks) * 1e3, t),
        pooled.clone(),
    ));

    // rdma
    let one_sided = sum(&|r| r.diag.rdma.one_sided());
    out.push(metric(
        "rdma.reads_per_txn",
        "count",
        ratio(sum(&|r| r.diag.rdma.reads), t),
        pooled.clone(),
    ));
    out.push(metric(
        "rdma.writes_per_txn",
        "count",
        ratio(sum(&|r| r.diag.rdma.writes), t),
        pooled.clone(),
    ));
    out.push(metric(
        "rdma.cas_per_txn",
        "count",
        ratio(sum(&|r| r.diag.rdma.cas), t),
        pooled.clone(),
    ));
    out.push(metric(
        "rdma.sends_per_txn",
        "count",
        ratio(sum(&|r| r.diag.rdma.sends), t),
        pooled.clone(),
    ));
    let bytes = sum(&|r| r.diag.rdma.read_bytes + r.diag.rdma.write_bytes + r.diag.rdma.send_bytes);
    out.push(metric("rdma.bytes_per_txn", "B", ratio(bytes, t), pooled.clone()));
    out.push(metric(
        "rdma.ops_per_doorbell",
        "count",
        ratio(sum(&|r| r.diag.rdma.fabric_ops()), sum(&|r| r.diag.rdma.doorbells)),
        pooled.clone(),
    ));
    out.push(metric(
        "rdma.ns_per_op",
        "ns",
        ratio(sum(&|r| r.diag.rdma.fabric_ns), one_sided),
        pooled.clone(),
    ));

    // memstore: location cache
    let hits = sum(&|r| r.cache.hits);
    let misses = sum(&|r| r.cache.misses);
    out.push(metric(
        "memstore.cache.hit_rate",
        "ratio",
        ratio(hits, hits + misses),
        pooled.clone(),
    ));
    out.push(metric("memstore.cache.misses_per_txn", "count", ratio(misses, t), pooled.clone()));
    out.push(metric(
        "memstore.cache.invalidations_per_ktxn",
        "1/ktxn",
        ratio(sum(&|r| r.cache.invalidations + r.cache.migration_invalidations) * 1e3, t),
        pooled,
    ));

    out.push(metric(
        "trace.overhead_cpu_us_per_txn",
        "us",
        overhead_us,
        format!(
            "traced minus untraced medians, {} + {} rounds",
            traced.len(),
            all.len() - traced.len()
        ),
    ));
    out
}

/// Abort causes reported one by one; every other cause is summed into
/// `core.abort.other` so the parts add up to `core.aborts_per_txn`.
pub const REPORTED_CAUSES: [AbortCause; 10] = [
    AbortCause::HtmConflict,
    AbortCause::HtmCapacity,
    AbortCause::HtmLocked,
    AbortCause::HtmLeased,
    AbortCause::StartWriteLocked { owner: 0 },
    AbortCause::StartLeased { end_us: 0 },
    AbortCause::StartAmbiguous,
    AbortCause::LeaseConfirmFail,
    AbortCause::FallbackWait,
    AbortCause::UserAbort,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_quantile_interpolates_between_tied_values() {
        // Without ties: the interpolated percentile.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 25.0);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.0), 10.0);
        assert_eq!(percentile(&[10, 20, 30, 40], 1.0), 40.0);
        // 10 holds mass 0.6 (mid 0.3), 20 holds 0.4 (mid 0.8): the median
        // sits 0.2 / 0.5 of the way from 10 to 20.
        let tied = [10, 10, 10, 10, 10, 10, 20, 20, 20, 20];
        assert!((percentile(&tied, 0.5) - 14.0).abs() < 1e-9);
        // Shifting one sample of mass moves it.
        let shifted = [10, 10, 10, 10, 10, 20, 20, 20, 20, 20];
        assert!((percentile(&shifted, 0.5) - 15.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7, 7, 7], 0.99), 7.0);
    }
}
