//! Wall-clock benchmark of the NPSS executive.
//!
//! Four workloads run from outside the program against its public APIs:
//! `table2` (the paper's combined test through the AVS stack), `flood`
//! (a batched 2,048-variant sweep), `sessions` (an open loop into the
//! live session pool) and `recovery` (journaled crash, replay, resume).
//! A timed run (`--trace 0`) reports the end-to-end metrics; a separate
//! traced run (`--trace 1`) times each layer's public functions alone,
//! reconciles them against one echo RPC, wraps the workload's layer
//! entry points in spans, and reads the program's own counters. See
//! `NOTES.md` for what each workload and metric is for.

pub mod common;
pub mod flood;
pub mod inputs;
pub mod layers;
pub mod openloop;
pub mod proc_stat;
pub mod recovery;
pub mod report;
pub mod sessions;
pub mod stats;
pub mod table2;
pub mod tracer;

use std::path::PathBuf;

use report::{Clock, Metrics, Tally};
use tracer::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["table2", "flood", "sessions", "recovery"];

/// End-to-end metrics every workload reports on a timed run: (name,
/// unit). Each workload defines `wall_s` and `throughput_per_s` on its
/// own unit of work (see `NOTES.md`).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics every traced run reports: (name, unit, clock). A
/// row that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str, Clock); 48] = [
    ("uts.plan_encode_ns", "ns", Clock::Wall),
    ("uts.plan_decode_ns", "ns", Clock::Wall),
    ("uts.bytes_per_call", "count", Clock::Count),
    ("schooner.msg_codec_ns", "ns", Clock::Wall),
    ("netsim.send_recv_ns", "ns", Clock::Wall),
    ("netsim.handoff_rtt_us", "us", Clock::Wall),
    ("netsim.msgs", "count", Clock::Count),
    ("netsim.bytes", "count", Clock::Count),
    ("netsim.link.frames", "count", Clock::Count),
    ("netsim.link.mean_fill", "count", Clock::Count),
    ("netsim.link.credit_stalls", "count", Clock::Count),
    ("netsim.metrics.counter_add_ns", "ns", Clock::Wall),
    ("netsim.metrics.observe_ns", "ns", Clock::Wall),
    ("netsim.metrics.snapshot_us", "us", Clock::Wall),
    ("schooner.obs.span_ns", "ns", Clock::Wall),
    ("schooner.line.echo_p50_us", "us", Clock::Wall),
    ("schooner.line.echo_p99_us", "us", Clock::Wall),
    ("schooner.line.layer_sum_us", "us", Clock::Wall),
    ("schooner.line.unattributed_us", "us", Clock::Wall),
    ("schooner.line.retries", "count", Clock::Count),
    ("schooner.line.deadline_wait_s", "s", Clock::Wall),
    ("schooner.line.deadline_aborts", "count", Clock::Count),
    ("schooner.world_start_us", "us", Clock::Wall),
    ("schooner.process_start_us", "us", Clock::Wall),
    ("schooner.world_stop_us", "us", Clock::Wall),
    ("schooner.world_stop_crashed_ms", "ms", Clock::Wall),
    ("schooner.threads_per_world", "count", Clock::Count),
    ("schooner.pool.wait_p50_s", "s", Clock::Wall),
    ("schooner.pool.wait_p95_s", "s", Clock::Wall),
    ("schooner.pool.service_p50_s", "s", Clock::Wall),
    ("schooner.pool.admitted", "count", Clock::Count),
    ("schooner.pool.rejected_rate_limited", "count", Clock::Count),
    ("schooner.pool.rejected_queue_full", "count", Clock::Count),
    ("schooner.pool.gen_lag_p99_s", "s", Clock::Wall),
    ("avs.settle_ms", "ms", Clock::Wall),
    ("tess.duct_compute_us", "us", Clock::Wall),
    ("tess.local_transient_ms", "ms", Clock::Wall),
    ("npss.remote_calls", "count", Clock::Count),
    ("npss.checkpoints", "count", Clock::Count),
    ("npss.rollbacks", "count", Clock::Count),
    ("npss.sweep.rounds", "count", Clock::Count),
    ("npss.virtual_s", "s_virtual", Clock::Virtual),
    ("ledger.append_ns", "ns", Clock::Wall),
    ("ledger.records", "count", Clock::Count),
    ("ledger.bytes", "count", Clock::Count),
    ("ledger.replay_ms", "ms", Clock::Wall),
    ("bench.untraced_wall_s", "s", Clock::Wall),
    ("bench.traced_wall_s", "s", Clock::Wall),
];

/// Root of the benchmark's scratch files, inside the checkout it runs in.
pub const WORK_ROOT: &str = ".bench_work";

/// This process's scratch directory (created on demand).
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Mark the start of the measured phase: the peak resident set is reset
/// here, so `peak_rss_mb` covers the workload, not its set-up.
pub fn begin_measure() {
    // Kernels without clear_refs leave the process-wide peak in place.
    let _ = proc_stat::reset_peak_rss();
}

/// Run `workload` timed (`trace = false`) or traced; returns every metric
/// it produced and the correctness tally.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    if !trace {
        match workload {
            "table2" => table2::run(seconds, &mut m, &mut tally)?,
            "flood" => flood::run(seed, seconds, &mut m, &mut tally)?,
            "sessions" => sessions::run(seed, seconds, &mut m, &mut tally)?,
            "recovery" => recovery::run(seed, seconds, &mut m, &mut tally, None)?,
            other => return Err(format!("unknown workload '{other}'")),
        }
        let peak = proc_stat::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        m.put("peak_rss_mb", "MB", Clock::Count, peak, 0);
        return Ok((m, tally));
    }
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    layers::measure(seed, &mut m)?;
    let tracer = Tracer::new();
    begin_measure();
    let tally = match workload {
        "table2" => table2::traced(seconds, &mut m, &tracer)?,
        "flood" => flood::traced(seed, seconds, &mut m, &tracer)?,
        "sessions" => sessions::traced(seed, seconds, &mut m, &tracer)?,
        _ => {
            let mut t = Tally::default();
            recovery::run(seed, seconds, &mut m, &mut t, Some(&tracer))?;
            t
        }
    };
    print_span_summary(&tracer);
    let path = PathBuf::from(WORK_ROOT).join(format!("trace-{workload}-{seed}.jsonl"));
    std::fs::create_dir_all(WORK_ROOT).map_err(|e| e.to_string())?;
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok((m, tally))
}

fn print_span_summary(tracer: &Tracer) {
    println!("# spans: name, count, total s, self s");
    for (name, (count, total, own)) in tracer.summary() {
        println!("#   {name:<32} {count:>6} {total:>12.6} {own:>12.6}");
    }
}
