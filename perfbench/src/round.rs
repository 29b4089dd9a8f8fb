//! One measurement round: build a fresh deployment, warm it up in its
//! own driver pass, measure a second pass between two counter
//! snapshots, then check the final state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use drtm_core::StatsReport;
use drtm_htm::vtime;
use drtm_memstore::CacheStats;
use drtm_workloads::driver::{run_pipelined, Report};

use crate::cpu::process_cpu_ns;
use crate::mix::Mix;
use crate::trace::{Attrs, Span, Tracer};
use crate::workload::{Client, Deployment, Shape, Workload};

/// One logical worker: its client, its type stream and what it issued.
struct Lane {
    client: Client,
    mix: Mix,
    node: u16,
    worker: usize,
    weights: &'static [u32],
    labels: &'static [&'static str],
    /// Every type issued, warmup included, in order.
    kinds: Vec<u8>,
    /// Calls that returned a typed error, warmup included.
    failed: u64,
    /// Spans of the current pass (traced rounds only).
    spans: Option<Vec<Span>>,
    parent: u64,
}

impl Lane {
    fn step(&mut self, tracer: Option<&Tracer>) -> &'static str {
        let kind = self.mix.pick(self.weights);
        self.kinds.push(kind as u8);
        let label = self.labels[kind];
        let failed = match (tracer, self.spans.as_mut()) {
            (Some(t), Some(spans)) => {
                let v0 = vtime::read();
                let start_ns = t.now_ns();
                let r = self.client.call(kind);
                let end_ns = t.now_ns();
                let attrs = Attrs::Txn {
                    label,
                    node: self.node,
                    worker: self.worker,
                    vtime_ns: vtime::read() - v0,
                };
                spans.push(Span { id: t.id(), parent: self.parent, start_ns, end_ns, attrs });
                r.is_err()
            }
            _ => self.client.call(kind).is_err(),
        };
        self.failed += failed as u64;
        label
    }
}

/// What one round measured.
#[derive(Debug)]
pub struct RoundOut {
    /// Wall seconds of the deployment build.
    pub setup_s: f64,
    /// The measured driver pass.
    pub report: Report,
    /// Host wall seconds of the measured pass.
    pub wall_s: f64,
    /// Process CPU seconds of the measured pass, every thread.
    pub cpu_s: f64,
    /// Counter diff over the measured pass.
    pub diag: StatsReport,
    /// Location-cache counter diff over the measured pass.
    pub cache: CacheStats,
    /// Measured calls that returned a typed error.
    pub failed: u64,
    /// Transaction spans of the measured pass (traced rounds only); the
    /// caller moves them into the tracer once it has summarized them.
    pub txn_spans: Option<Vec<Span>>,
    /// OS threads of the process once the deployment was built.
    pub threads_after_build: usize,
    /// Peak resident set (VmHWM, MB) when the round ended.
    pub peak_rss_mb: f64,
}

impl RoundOut {
    /// Transactions the measured pass issued.
    pub fn txns(&self) -> u64 {
        self.report.total_txns()
    }
}

/// The process's current OS thread count (`Threads:` in
/// `/proc/self/status`; 0 where unavailable).
fn os_threads_now() -> usize {
    proc_status_field("Threads:").unwrap_or(0) as usize
}

/// A numeric field of `/proc/self/status`.
fn proc_status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Snapshots every counter layer at once.
fn snapshot(dep: &Deployment) -> (StatsReport, CacheStats) {
    (dep.sys().stats_report(), dep.cache_stats())
}

fn cache_since(a: &CacheStats, b: &CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        fetches: a.fetches - b.fetches,
        invalidations: a.invalidations - b.invalidations,
        migration_invalidations: a.migration_invalidations - b.migration_invalidations,
        forced_misses: a.forced_misses - b.forced_misses,
    }
}

/// Runs one round. `tracer` is `Some` for a traced round; `Err` carries
/// a failed correctness check.
pub fn run_round(
    workload: Workload,
    shape: &Shape,
    os_threads: usize,
    seed: u64,
    round: usize,
    tracer: Option<&Tracer>,
) -> Result<RoundOut, String> {
    let noop = Tracer::default();
    let t = tracer.unwrap_or(&noop);
    let round_id = t.id();
    let traced = tracer.is_some();
    t.span_with_id(round_id, 0, Attrs::Round { round }, || {
        let t0 = Instant::now();
        let dep = t.span(round_id, Attrs::Setup, || Deployment::build(workload, shape));
        let setup_s = t0.elapsed().as_secs_f64();
        let threads_after_build = os_threads_now();
        t.span(round_id, Attrs::Check, || dep.check_population())?;
        let initial_balance = dep.total_balance();

        let lanes: Vec<Mutex<Lane>> = (0..shape.nodes as u16)
            .flat_map(|node| (0..shape.workers).map(move |worker| (node, worker)))
            .map(|(node, worker)| {
                Mutex::new(Lane {
                    client: dep.client(node, worker),
                    mix: Mix::new(seed, round, node, worker),
                    node,
                    worker,
                    weights: workload.weights(),
                    labels: workload.labels(),
                    kinds: Vec::with_capacity((shape.warmup + shape.iters) as usize),
                    failed: 0,
                    spans: None,
                    parent: 0,
                })
            })
            .collect();
        let pass = |name: &'static str, iters: u64| -> (Report, f64, f64, Vec<Span>) {
            let run_id = t.id();
            for lane in &lanes {
                let mut l = lane.lock().expect("lane poisoned");
                l.parent = run_id;
                l.spans = traced.then(|| Vec::with_capacity(iters as usize));
            }
            let attrs = Attrs::Run { pass: name, txns_per_worker: iters, os_threads };
            let (w0, c0) = (Instant::now(), process_cpu_ns());
            let report = t.span_with_id(run_id, round_id, attrs, || {
                run_pipelined(
                    shape.nodes,
                    shape.workers,
                    iters,
                    |node, worker| {
                        let lane = &lanes[node as usize * shape.workers + worker];
                        move |_| lane.lock().expect("lane poisoned").step(tracer)
                    },
                    0,
                    os_threads,
                )
            });
            let wall_s = w0.elapsed().as_secs_f64();
            let cpu_s = (process_cpu_ns() - c0) as f64 / 1e9;
            let spans = lanes
                .iter()
                .flat_map(|lane| {
                    lane.lock().expect("lane poisoned").spans.take().unwrap_or_default()
                })
                .collect();
            (report, wall_s, cpu_s, spans)
        };

        let (_, _, _, warm_spans) = pass("warmup", shape.warmup);
        t.push(warm_spans);
        let failed_sum =
            || -> u64 { lanes.iter().map(|l| l.lock().expect("lane poisoned").failed).sum() };
        let failed_in_warmup = failed_sum();
        let before = t.span(round_id, Attrs::Snapshot { at: "before" }, || snapshot(&dep));
        let (report, wall_s, cpu_s, txn_spans) = pass("measured", shape.iters);
        let after = t.span(round_id, Attrs::Snapshot { at: "after" }, || snapshot(&dep));
        let failed = failed_sum() - failed_in_warmup;
        let kinds: Vec<Vec<u8>> =
            lanes.into_iter().map(|l| l.into_inner().expect("lane poisoned").kinds).collect();

        t.span(round_id, Attrs::Check, || {
            dep.check_tpcc()?;
            if let Some(initial) = initial_balance {
                let all_failed = failed_in_warmup + failed;
                check_smallbank_total(&dep, shape, os_threads, initial, &kinds, all_failed)?;
            }
            Ok::<(), String>(())
        })?;
        Ok(RoundOut {
            setup_s,
            report,
            wall_s,
            cpu_s,
            diag: after.0.since(&before.0),
            cache: cache_since(&after.1, &before.1),
            failed,
            txn_spans: traced.then_some(txn_spans),
            threads_after_build,
            peak_rss_mb: proc_status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0,
        })
    })
}

/// SmallBank's conservation oracle for the full six-type mix.
///
/// Send-payment and amalgamate conserve the total balance; deposit,
/// withdraw and transfer-to-savings move it by amounts drawn from each
/// client's own parameter stream, so the total's movement depends only
/// on each worker's call sequence, never on how the workers
/// interleaved. A second closed-loop execution of every worker's exact
/// call sequence on fresh clients (same parameter streams) must move
/// the total by exactly what the measured run moved it by; a lost or
/// doubled update in either execution breaks the equality. Arithmetic
/// is modulo 2^64, like `total_balance`.
fn check_smallbank_total(
    dep: &Deployment,
    shape: &Shape,
    os_threads: usize,
    initial: u64,
    kinds: &[Vec<u8>],
    failed: u64,
) -> Result<(), String> {
    if failed > 0 {
        return Err(format!(
            "{failed} SmallBank calls failed; the balance oracle needs all to commit"
        ));
    }
    let after_run = dep.total_balance().expect("SmallBank deployment");
    let replay_failed = AtomicU64::new(0);
    run_pipelined(
        shape.nodes,
        shape.workers,
        kinds[0].len() as u64,
        |node, worker| {
            let mut client = dep.client(node, worker);
            let seq = &kinds[node as usize * shape.workers + worker];
            let replay_failed = &replay_failed;
            move |k| {
                if client.call(seq[k as usize] as usize).is_err() {
                    replay_failed.fetch_add(1, Ordering::Relaxed);
                }
                "replay"
            }
        },
        0,
        os_threads,
    );
    let replay_failed = replay_failed.into_inner();
    if replay_failed > 0 {
        return Err(format!("{replay_failed} SmallBank calls failed in the replay"));
    }
    let after_replay = dep.total_balance().expect("SmallBank deployment");
    let run_delta = after_run.wrapping_sub(initial);
    let replay_delta = after_replay.wrapping_sub(after_run);
    if run_delta == replay_delta {
        Ok(())
    } else {
        Err(format!(
            "SmallBank balance moved by {} in the run but {} in the replay",
            run_delta as i64, replay_delta as i64
        ))
    }
}
