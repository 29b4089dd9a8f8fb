//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpcc-local|tpcc-dist|smallbank-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's deployment through the public `workloads`
//! constructors, drives it closed-loop with
//! `workloads::driver::run_pipelined` on an explicit pool of `nproc`
//! threads, checks the final state, and prints every metric by name with
//! its unit and sample count. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. See
//! `perfbench/README.md`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock of 64-bit Linux");

mod cpu;
mod metrics;
mod mix;
mod round;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{host_cpu_us_per_txn, median, Metric};
use round::{run_round, RoundOut};
use trace::Tracer;
use workload::Workload;

const USAGE: &str = "usage: drtm-perfbench --workload <tpcc-local|tpcc-dist|smallbank-hot> \
                     --seed <u64> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected positive seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

/// Runs rounds until the time budget is spent; returns the exit code.
fn run(args: &Args) -> i32 {
    let wl = args.workload;
    let shape = wl.shape();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The driver pool is exactly `nproc` threads, set here rather than
    // through `default_os_threads` (which reads an environment variable
    // and clamps).
    let pool = nproc;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        wl.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "shape: {} machines x {} workers = {} logical workers, closed loop; \
         per round {} warmup + {} measured txns per worker",
        shape.nodes,
        shape.workers,
        shape.lanes(),
        shape.warmup,
        shape.iters
    );

    let tracer = Tracer::default();
    let min_rounds = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut rounds: Vec<(bool, RoundOut)> = Vec::new();
    let mut error = None;
    loop {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured in the same process.
        let traced = args.trace && rounds.len() % 2 == 1;
        let i = rounds.len();
        match run_round(wl, &shape, pool, args.seed, i, traced.then_some(&tracer)) {
            Ok(r) => {
                println!(
                    "round {i}{}: setup {:.3} s, window {:.3} s wall / {:.3} s cpu, {} txns, {} failed, correct",
                    if traced { " (traced)" } else { "" },
                    r.setup_s,
                    r.wall_s,
                    r.cpu_s,
                    r.txns(),
                    r.failed
                );
                rounds.push((traced, r));
            }
            Err(e) => {
                println!("round {i}: CORRECTNESS CHECK FAILED: {e}");
                error = Some(e);
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if rounds.len() >= min_rounds && elapsed + per_round > args.seconds {
            break;
        }
    }

    let threads_seen = rounds.first().map_or(0, |(_, r)| r.threads_after_build);
    println!(
        "cores: nproc={nproc} driver_pool={pool} program_threads={} \
         (softtime timer 1{}) process_threads_after_build={threads_seen}",
        wl.program_threads(&shape),
        match wl {
            Workload::SmallBankHot => String::new(),
            _ => format!(", scan services {}", shape.nodes),
        }
    );

    let untraced: Vec<&RoundOut> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&RoundOut> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let all: Vec<&RoundOut> = rounds.iter().map(|(_, r)| r).collect();
    let e2e = match all.first() {
        Some(first) => metrics::end_to_end(&untraced, first),
        None => Vec::new(),
    };
    print_table("end-to-end (untraced rounds)", &e2e);

    let attempted: u64 = all.iter().map(|r| r.txns()).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let reported = if args.trace {
        let host = |rs: &[&RoundOut]| {
            median(&rs.iter().map(|r| host_cpu_us_per_txn(r)).collect::<Vec<_>>())
        };
        let overhead = host(&traced) - host(&untraced);
        let layers = metrics::per_layer(&all, &traced, pool, overhead);
        print_table("per-layer (all rounds; host times from traced rounds)", &layers);
        layers
    } else {
        e2e
    };
    if args.trace {
        for (_, r) in rounds.iter_mut() {
            if let Some(spans) = r.txn_spans.take() {
                tracer.push(spans);
            }
        }
        let path = trace_path(wl);
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"driver_pool\":{pool},\"nproc\":{nproc}}}",
            wl.name(),
            args.seed
        );
        match tracer.write(&path, &header) {
            Ok(n) => println!("trace: {n} spans written to {}", path.display()),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }

    let fields: Vec<String> = reported
        .iter()
        .filter(|m| m.listed)
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        error.is_none(),
        attempted.max(1),
        failed,
        fields.join(",")
    );
    if error.is_some() {
        1
    } else {
        0
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("-- {title} --");
    println!("{:<44} {:>16} {:<7} samples", "metric", "value", "unit");
    for m in metrics {
        println!("{:<44} {:>16.4} {:<7} {}", m.name, m.value, m.unit, m.samples);
    }
}

/// Where a traced run writes its spans: beside the benchmark's sources.
fn trace_path(wl: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces").join(format!("{}.jsonl", wl.name()))
}
