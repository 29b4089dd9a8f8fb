//! Accounting self-tests: the benchmark's own arithmetic, checked on
//! tiny deployments.

use crate::metrics::{per_layer, ratio};
use crate::round::{run_round, RoundOut};
use crate::trace::Tracer;
use crate::workload::Workload;

fn tiny_round(wl: Workload, seed: u64, tracer: Option<&Tracer>) -> RoundOut {
    let shape = wl.shape().tiny(5, 40);
    run_round(wl, &shape, 2, seed, 0, tracer).expect("correctness gate")
}

fn value(metrics: &[crate::metrics::Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no metric {name}")).value
}

#[test]
fn phases_sum_to_worker_virtual_time_per_txn() {
    for wl in [Workload::TpccDist, Workload::SmallBankHot] {
        let r = tiny_round(wl, 11, None);
        let layers = per_layer(&[&r], &[], 2, 0.0);
        let per_txn =
            ratio(r.report.workers.iter().map(|w| w.vtime_ns as f64).sum(), r.txns() as f64);
        let parts: Vec<f64> = ["start", "localtx", "commit", "fallback", "other"]
            .iter()
            .map(|p| value(&layers, &format!("core.phase.{p}_ns")))
            .collect();
        assert!(parts.iter().all(|&p| p >= 0.0), "{}: negative phase in {parts:?}", wl.name());
        let sum: f64 = parts.iter().sum();
        assert!((sum - per_txn).abs() <= 1e-6 * per_txn, "{}: {sum} != {per_txn}", wl.name());
    }
}

#[test]
fn abort_causes_sum_to_aborts_per_txn() {
    for wl in [Workload::TpccDist, Workload::SmallBankHot] {
        let r = tiny_round(wl, 12, None);
        let layers = per_layer(&[&r], &[], 2, 0.0);
        let per_ktxn: f64 =
            layers.iter().filter(|m| m.name.starts_with("core.abort.")).map(|m| m.value).sum();
        let total = value(&layers, "core.aborts_per_txn");
        assert!((per_ktxn / 1e3 - total).abs() <= 1e-9 * total.max(1.0), "{per_ktxn} vs {total}");
        assert_eq!(total, ratio(r.diag.causes.total() as f64, r.txns() as f64));
    }
}

#[test]
fn seed_fixes_the_per_label_counts() {
    let wl = Workload::SmallBankHot;
    let a = tiny_round(wl, 1, None).report.counts();
    let b = tiny_round(wl, 1, None).report.counts();
    let c = tiny_round(wl, 2, None).report.counts();
    assert_eq!(a, b, "the same seed must issue the same per-label counts");
    assert_ne!(a, c, "another seed must change them");
}

#[test]
fn traced_round_records_one_span_per_measured_txn() {
    let tracer = Tracer::default();
    let r = tiny_round(Workload::TpccLocal, 3, Some(&tracer));
    let spans = r.txn_spans.as_ref().expect("traced round keeps its spans");
    assert_eq!(spans.len() as u64, r.txns());
    let layers = per_layer(&[&r], &[&r], 2, 0.0);
    assert!(value(&layers, "txn.new_order.host_us_p50") > 0.0);
    let share = value(&layers, "driver.self_wall_share");
    assert!((0.0..1.0).contains(&share), "{share}");
}

/// The metrics `BENCHMARK.json` lists under `key`, as `(name, unit)`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section")..];
    let section = &section[..section.find(']').expect("section end")];
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    section.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let tracer = Tracer::default();
    let plain = tiny_round(Workload::TpccLocal, 5, None);
    let traced = tiny_round(Workload::TpccLocal, 5, Some(&tracer));
    let names = |ms: Vec<crate::metrics::Metric>| -> Vec<(String, String)> {
        ms.into_iter().filter(|m| m.listed).map(|m| (m.name, m.unit.to_string())).collect()
    };
    let e2e = names(crate::metrics::end_to_end(&[&plain], &plain));
    let layers = names(per_layer(&[&plain, &traced], &[&traced], 2, 0.0));
    assert_eq!(e2e, listed("end_to_end"));
    assert_eq!(layers, listed("per_layer"));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
}
