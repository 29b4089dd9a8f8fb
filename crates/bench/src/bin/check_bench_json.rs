//! CI gate over emitted `BENCH_*.json` files.
//!
//! Usage: `check_bench_json [--diff BASELINE_DIR] [FILE ...]` — with no
//! file arguments, checks every `BENCH_*.json` in the bench output
//! directory (`DRTM_BENCH_OUT` or the repo root). A file fails if it
//! does not parse, misses a required key, carries a non-numeric
//! (`null` = NaN/inf at emission time) required value, reports
//! zero/negative throughput or wall time, lacks an `extra` key its bench
//! must carry ([`REQUIRED_EXTRA`]: fig10d's resize segment, fig12's
//! doorbell ratio and membership segment, tab6's `ro_log_bytes`),
//! claims a non-zero `extra.ro_log_bytes`, records doorbell batching on
//! (`extra.rdma_batch_size` > 1) without `extra.rdma_ops_per_doorbell`
//! exceeding 1.0, carries a batched/unbatched per-op cost pair where
//! batching failed to lower the cost, carries a live-resize segment
//! whose during-resize throughput fell below [`MIN_RESIZE_RATIO`]× of
//! steady (or whose extra-hops-per-lookup breaks the split-order ≤ 1
//! invariant), or carries a membership-churn segment whose during-churn
//! throughput fell below [`MIN_MEMBERSHIP_RATIO`]× of steady (or whose
//! `extra.join_ms`/`extra.drain_ms` are non-positive) — any of which
//! means the harness produced garbage, not a slow result.
//!
//! With `--diff BASELINE_DIR`, each checked file is also compared
//! against the same-named file in `BASELINE_DIR`: a throughput drop of
//! more than 10% against the baseline fails the gate. Files whose
//! `scale` differs from the baseline's are skipped (a smoke run at
//! `DRTM_SCALE=0.01` is not comparable to a full-scale ledger), and a
//! missing baseline is a warning, not an error, so new benches can land
//! before their first baseline does.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use drtm_bench::report::{out_dir, parse, Json};

const REQUIRED_NUMERIC: &[&str] = &[
    "schema_version",
    "scale",
    "wall_seconds",
    "throughput",
    "rdma_ops_per_txn",
    "cache_hit_rate",
];

/// `extra` keys each bench's ledger must carry, by bench name. The value
/// rules in [`check`] apply wherever a key appears; this table makes the
/// segments they judge mandatory for the benches that produce them.
const REQUIRED_EXTRA: &[(&str, &[&str])] = &[
    ("fig10d_cache_size", &["resize_throughput_steady", "resize_throughput_during"]),
    (
        "fig12_tpcc_machines",
        &[
            "rdma_ops_per_doorbell",
            "membership_throughput_steady",
            "membership_throughput_during",
            "membership_throughput_ratio",
        ],
    ),
    ("tab6_durability", &["ro_log_bytes"]),
];

/// Largest tolerated fractional throughput drop against a baseline.
const MAX_REGRESSION: f64 = 0.10;

/// Floor on `resize_throughput_during / resize_throughput_steady`: an
/// online resize that halves throughput is not "online".
const MIN_RESIZE_RATIO: f64 = 0.70;

/// Floor on `membership_throughput_during / membership_throughput_steady`:
/// a journaled join/leave cycle must leave concurrent traffic most of
/// its steady-state throughput.
const MIN_MEMBERSHIP_RATIO: f64 = 0.60;

fn check_file(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    check(&parse(&text).map_err(|e| format!("invalid JSON: {e}"))?)
}

fn check(j: &Json) -> Result<(), String> {
    let bench = match j.get("bench") {
        Some(Json::Str(s)) if !s.is_empty() => s.as_str(),
        _ => return Err("missing or empty \"bench\"".into()),
    };
    for key in REQUIRED_NUMERIC {
        let v = j.get(key).ok_or(format!("missing \"{key}\""))?;
        let x = v.as_f64().ok_or(format!("\"{key}\" is not a finite number (got {v:?})"))?;
        if !x.is_finite() {
            return Err(format!("\"{key}\" is not finite"));
        }
    }
    for key in ["aborts_per_cause", "extra"] {
        match j.get(key) {
            Some(Json::Obj(m)) => {
                for (k, v) in m {
                    if v.as_f64().is_none() {
                        return Err(format!("\"{key}.{k}\" is not a finite number (got {v:?})"));
                    }
                }
            }
            other => return Err(format!("\"{key}\" must be an object (got {other:?})")),
        }
    }
    if let Some((_, keys)) = REQUIRED_EXTRA.iter().find(|(b, _)| *b == bench) {
        if let Some(key) = keys.iter().find(|k| extra_of(j, k).is_none()) {
            return Err(format!("{bench} must carry extra.{key}"));
        }
    }
    // The durable-free read-only invariant is absolute, not a threshold:
    // if a ledger carries the counter at all, it must be exactly zero.
    if let Some(bytes) = extra_of(j, "ro_log_bytes") {
        if bytes != 0.0 {
            return Err(format!("extra.ro_log_bytes must be exactly 0 (got {bytes})"));
        }
    }
    // Doorbell-batching claims: a ledger that says batching was on must
    // show real batches (>1 op per doorbell ring) ...
    if extra_of(j, "rdma_batch_size").is_some_and(|b| b > 1.0) {
        match extra_of(j, "rdma_ops_per_doorbell") {
            None => {
                return Err("extra.rdma_batch_size > 1 requires extra.rdma_ops_per_doorbell".into())
            }
            Some(ratio) if ratio <= 1.0 => {
                return Err(format!(
                    "extra.rdma_ops_per_doorbell must exceed 1.0 when batching is on (got {ratio})"
                ));
            }
            Some(_) => {}
        }
    }
    // ... and a batched-vs-unbatched cost pair must show batching
    // actually lowering the per-op virtual cost.
    if let (Some(batched), Some(unbatched)) =
        (extra_of(j, "rdma_op_cost_batched_ns"), extra_of(j, "rdma_op_cost_unbatched_ns"))
    {
        if !(batched > 0.0 && unbatched > 0.0 && batched < unbatched) {
            return Err(format!(
                "batched per-op cost must be positive and below unbatched \
                 (batched {batched} ns, unbatched {unbatched} ns)"
            ));
        }
    }
    // Live-resize segment: its during-resize throughput must hold
    // MIN_RESIZE_RATIO of steady, and the split-ordered table's resize
    // overhead must respect the ≤ 1 extra-chain-hop-per-lookup invariant.
    let steady = extra_of(j, "resize_throughput_steady");
    let during = extra_of(j, "resize_throughput_during");
    match (steady, during) {
        (Some(s), Some(d)) => {
            if !(s > 0.0 && d > 0.0) {
                return Err(format!(
                    "resize throughputs must be positive (steady {s}, during {d})"
                ));
            }
            if d < MIN_RESIZE_RATIO * s {
                return Err(format!(
                    "throughput during resize fell to {:.2}× of steady \
                     (during {d:.3} vs steady {s:.3}, floor {MIN_RESIZE_RATIO}×)",
                    d / s
                ));
            }
        }
        (None, None) => {}
        _ => {
            return Err(
                "resize_throughput_steady and resize_throughput_during must appear together".into(),
            )
        }
    }
    if let Some(h) = extra_of(j, "resize_extra_hops_per_lookup") {
        if !(0.0..=1.0).contains(&h) {
            return Err(format!(
                "extra.resize_extra_hops_per_lookup must be within [0, 1] \
                 (split-order invariant; got {h})"
            ));
        }
    }
    // Membership-churn segment: its during-churn throughput must hold
    // MIN_MEMBERSHIP_RATIO of steady, and the reconfiguration timings it
    // claims must be real (positive) measurements.
    let m_steady = extra_of(j, "membership_throughput_steady");
    let m_during = extra_of(j, "membership_throughput_during");
    match (m_steady, m_during) {
        (Some(s), Some(d)) => {
            if !(s > 0.0 && d > 0.0) {
                return Err(format!(
                    "membership throughputs must be positive (steady {s}, during {d})"
                ));
            }
            if d < MIN_MEMBERSHIP_RATIO * s {
                return Err(format!(
                    "throughput during membership churn fell to {:.2}× of steady \
                     (during {d:.3} vs steady {s:.3}, floor {MIN_MEMBERSHIP_RATIO}×)",
                    d / s
                ));
            }
            for key in ["join_ms", "drain_ms"] {
                match extra_of(j, key) {
                    Some(ms) if ms > 0.0 => {}
                    Some(ms) => {
                        return Err(format!("extra.{key} must be positive (got {ms})"));
                    }
                    None => {
                        return Err(format!("a membership-churn segment requires extra.{key}"));
                    }
                }
            }
        }
        (None, None) => {}
        _ => {
            return Err("membership_throughput_steady and membership_throughput_during \
                 must appear together"
                .into())
        }
    }
    let tput = j.get("throughput").and_then(Json::as_f64).unwrap_or(0.0);
    if tput <= 0.0 {
        return Err(format!("throughput must be positive (got {tput})"));
    }
    let wall = j.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0);
    if wall <= 0.0 {
        return Err(format!("wall_seconds must be positive (got {wall})"));
    }
    Ok(())
}

fn extra_of(j: &Json, key: &str) -> Option<f64> {
    match j.get("extra") {
        Some(Json::Obj(m)) => m.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.as_f64()),
        _ => None,
    }
}

/// Compare a fresh ledger against its committed baseline. `Ok(msg)`
/// explains what happened (compared, skipped, no baseline); `Err` is a
/// regression beyond [`MAX_REGRESSION`].
fn diff(path: &Path, baseline_dir: &Path) -> Result<String, String> {
    let name = path.file_name().ok_or("diff: path has no file name")?;
    let base_path = baseline_dir.join(name);
    let base_text = match std::fs::read_to_string(&base_path) {
        Ok(t) => t,
        Err(_) => return Ok(format!("no baseline at {}", base_path.display())),
    };
    let fresh = parse(&std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?)
        .map_err(|e| format!("invalid JSON: {e}"))?;
    let base = parse(&base_text)
        .map_err(|e| format!("baseline {}: invalid JSON: {e}", base_path.display()))?;
    let scale = |j: &Json| j.get("scale").and_then(Json::as_f64);
    let (fs, bs) = (scale(&fresh), scale(&base));
    if fs != bs {
        return Ok(format!(
            "scale mismatch (fresh {:?} vs baseline {:?}), throughput not compared",
            fs, bs
        ));
    }
    let tput = |j: &Json| j.get("throughput").and_then(Json::as_f64).unwrap_or(0.0);
    let (ft, bt) = (tput(&fresh), tput(&base));
    if bt > 0.0 && ft < (1.0 - MAX_REGRESSION) * bt {
        return Err(format!(
            "throughput regressed {:.1}% against baseline (fresh {ft:.3} vs baseline {bt:.3}, \
             tolerance {:.0}%)",
            100.0 * (1.0 - ft / bt),
            100.0 * MAX_REGRESSION
        ));
    }
    Ok(format!(
        "within {:.0}% of baseline (fresh {ft:.3} vs baseline {bt:.3})",
        100.0 * MAX_REGRESSION
    ))
}

/// Every `BENCH_*.json` directly under `dir`, sorted.
fn ledgers_in(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut args: Vec<PathBuf> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--diff" {
            match raw.next() {
                Some(d) => baseline = Some(PathBuf::from(d)),
                None => {
                    eprintln!("check_bench_json: --diff requires a baseline directory");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            args.push(PathBuf::from(a));
        }
    }
    let files = if args.is_empty() {
        let dir = out_dir();
        let found = ledgers_in(&dir);
        if found.is_empty() {
            eprintln!("check_bench_json: no BENCH_*.json under {}", dir.display());
            return ExitCode::FAILURE;
        }
        found
    } else {
        args
    };
    let mut failed = false;
    for f in &files {
        match check_file(f) {
            Ok(()) => println!("ok      {}", f.display()),
            Err(e) => {
                println!("FAILED  {}: {e}", f.display());
                failed = true;
            }
        }
        if let Some(dir) = &baseline {
            match diff(f, dir) {
                Ok(msg) => println!("diff    {}: {msg}", f.display()),
                Err(e) => {
                    println!("FAILED  {}: {e}", f.display());
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn committed_ledgers_pass() {
        let ledgers = ledgers_in(&repo_root());
        for (bench, _) in REQUIRED_EXTRA {
            let name = format!("BENCH_{bench}.json");
            assert!(ledgers.iter().any(|p| p.ends_with(&name)), "no committed {name}");
        }
        for path in &ledgers {
            check_file(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }

    #[test]
    fn each_required_extra_key_is_enforced() {
        for (bench, keys) in REQUIRED_EXTRA {
            let path = repo_root().join(format!("BENCH_{bench}.json"));
            let full = parse(&std::fs::read_to_string(&path).expect("committed ledger"))
                .expect("committed ledger parses");
            for key in *keys {
                let mut j = full.clone();
                let Json::Obj(top) = &mut j else { panic!("{bench}: ledger is not an object") };
                let Some(Json::Obj(extra)) = top.get_mut("extra") else {
                    panic!("{bench}: no extra object")
                };
                assert!(extra.remove(*key).is_some(), "{bench}: committed ledger lacks {key}");
                let err = check(&j).expect_err("a ledger without a required key must fail");
                assert_eq!(err, format!("{bench} must carry extra.{key}"));
            }
        }
    }
}
