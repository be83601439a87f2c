//! The sessions ablation harness, shared by `npss-sim bench-sessions`
//! and the `ablation_sessions` criterion target.
//!
//! Two layers, mirroring the pool itself:
//!
//! 1. **Measure** — a small set of distinct seeded sessions runs through
//!    a *live* [`SessionPool`] (real OS-thread workers); each returns
//!    its deterministic **virtual-time cost**, what the session occupies
//!    the simulated testbed for.
//! 2. **Model** — a seeded arrival plan of thousands of sessions drawing
//!    from those measured costs replays through the deterministic
//!    service model ([`simulate_service`]) at each pool size. Throughput
//!    and latency come out as pure virtual-time arithmetic — repeatable
//!    to the bit, with no wall-clock noise — exactly the convention the
//!    transport ablation uses for link occupancy.
//!
//! The overload row drives the same model past capacity against a
//! bounded queue and per-tenant token buckets, showing typed load
//! shedding with bounded admitted-session latency instead of collapse.

use schooner::pool::{simulate_service, Offered, PoolConfig, SessionPool};
use testkit::SplitMix64;

use crate::engine_exec::Scheduling;
use crate::service::{run_session, SessionKnobs, SessionReport, SessionRequest, Workload};

/// Pool sizes the scaling rows sweep.
pub const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// CI floor: pool=8 must deliver at least this multiple of pool=1
/// throughput at the same offered load.
pub const SCALING_FLOOR: f64 = 3.0;

/// CI bound: admitted-session p99 under overload must stay within this
/// multiple of the unsaturated (pool=8) p99.
pub const OVERLOAD_P99_FACTOR: f64 = 2.0;

/// One pool-size row of the scaling sweep.
#[derive(Debug, Clone)]
pub struct PoolRow {
    /// Worker count.
    pub pool: usize,
    /// Offered load, sessions per virtual second.
    pub offered_per_s: f64,
    /// Sessions completed (everything is admitted in the scaling rows).
    pub completed: usize,
    /// Completed sessions per virtual second.
    pub sessions_per_s: f64,
    /// Median session latency, virtual seconds.
    pub p50_s: f64,
    /// 99th-percentile session latency, virtual seconds.
    pub p99_s: f64,
}

/// The saturation row: admission control shedding a 3x-capacity flood.
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Worker count (the full pool).
    pub pool: usize,
    /// The bounded admission queue's capacity.
    pub queue_capacity: usize,
    /// Per-tenant token refill rate, sessions per virtual second.
    pub tenant_rate: f64,
    /// Offered load, sessions per virtual second.
    pub offered_per_s: f64,
    /// Sessions admitted and completed.
    pub admitted: usize,
    /// Offers shed by the per-tenant limiter.
    pub rejected_rate_limited: usize,
    /// Offers shed by the bounded queue.
    pub rejected_queue_full: usize,
    /// Smallest retry-after hint carried by any rejection.
    pub min_retry_after_s: f64,
    /// 99th-percentile latency of *admitted* sessions.
    pub p99_s: f64,
}

/// Everything the sessions ablation reports.
#[derive(Debug, Clone)]
pub struct SessionBenchReport {
    /// Whether this was the trimmed CI-smoke run.
    pub quick: bool,
    /// Virtual cost of each measured seeded session.
    pub session_costs_s: Vec<f64>,
    /// Mean of the measured costs.
    pub mean_cost_s: f64,
    /// Sessions in the modeled arrival plan.
    pub plan_sessions: usize,
    /// The scaling rows, one per [`POOL_SIZES`] entry.
    pub rows: Vec<PoolRow>,
    /// pool=8 over pool=1 throughput.
    pub speedup: f64,
    /// The saturation row.
    pub overload: OverloadRow,
}

impl SessionBenchReport {
    /// The row for a given pool size.
    pub fn row(&self, pool: usize) -> &PoolRow {
        self.rows.iter().find(|r| r.pool == pool).expect("swept pool size")
    }

    /// The unsaturated reference p99 the overload bound compares against.
    pub fn unsaturated_p99_s(&self) -> f64 {
        self.row(8).p99_s
    }

    /// Deterministic JSON, hand-rolled like the other bench artifacts.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"bench\": \"session_pool\",\n  \"quick\": {},\n  \
             \"measured_sessions\": {},\n  \"mean_session_cost_s\": {:.6},\n  \
             \"plan_sessions\": {},\n  \"rows\": [\n",
            self.quick,
            self.session_costs_s.len(),
            self.mean_cost_s,
            self.plan_sessions,
        );
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"pool\": {}, \"offered_per_s\": {:.4}, \"completed\": {}, \
                 \"sessions_per_s\": {:.4}, \"p50_s\": {:.4}, \"p99_s\": {:.4}}}{}",
                r.pool,
                r.offered_per_s,
                r.completed,
                r.sessions_per_s,
                r.p50_s,
                r.p99_s,
                if i + 1 < self.rows.len() { "," } else { "" },
            );
        }
        let o = &self.overload;
        let _ = write!(
            out,
            "  ],\n  \"speedup\": {:.3},\n  \"floor\": {:.1},\n  \
             \"overload\": {{\"pool\": {}, \"queue_capacity\": {}, \"tenant_rate\": {:.4}, \
             \"offered_per_s\": {:.4}, \"admitted\": {}, \"rejected_rate_limited\": {}, \
             \"rejected_queue_full\": {}, \"min_retry_after_s\": {:.4}, \"p99_s\": {:.4}, \
             \"unsaturated_p99_s\": {:.4}, \"p99_factor_bound\": {:.1}}}\n}}\n",
            self.speedup,
            SCALING_FLOOR,
            o.pool,
            o.queue_capacity,
            o.tenant_rate,
            o.offered_per_s,
            o.admitted,
            o.rejected_rate_limited,
            o.rejected_queue_full,
            o.min_retry_after_s,
            o.p99_s,
            self.unsaturated_p99_s(),
            OVERLOAD_P99_FACTOR,
        );
        out
    }
}

/// The distinct seeded sessions whose virtual costs seed the model:
/// steady solves and short transients, sequential and wave-parallel,
/// batched and unbatched links — the config surface tenants would use.
pub fn measured_requests(quick: bool) -> Vec<SessionRequest> {
    let n = if quick { 4 } else { 8 };
    (0..n)
        .map(|i| {
            let seed = 0x5E55_0000_u64 + i as u64 * 0x9E37;
            let workload = if i % 2 == 0 {
                Workload::SteadyState { wf_frac: 0.94 + 0.01 * (i % 4) as f64 }
            } else {
                Workload::Transient { t_end: 0.2, dt: 0.02 }
            };
            let knobs = SessionKnobs {
                link_batching: i % 2 == 1,
                scheduling: if i % 4 >= 2 {
                    Scheduling::WaveParallel
                } else {
                    Scheduling::Sequential
                },
                crash: None,
            };
            SessionRequest { tenant: format!("tenant-{}", i % 4), seed, workload, knobs }
        })
        .collect()
}

/// Run the measured requests through a live pool and return their
/// deterministic virtual costs (plus the reports, for callers that want
/// digests).
pub fn measure_session_costs(requests: &[SessionRequest]) -> Result<Vec<SessionReport>, String> {
    let pool: SessionPool<Result<SessionReport, String>> = SessionPool::start(PoolConfig {
        workers: requests.len().clamp(1, 8),
        queue_capacity: requests.len().max(1),
        ..PoolConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let tickets: Vec<_> = requests
        .iter()
        .map(|req| {
            let tenant = req.tenant.clone();
            let req = req.clone();
            pool.submit(&tenant, move || run_session(&req))
                .map_err(|r| format!("measurement session rejected: {r}"))
        })
        .collect::<Result<_, _>>()?;
    tickets
        .into_iter()
        .map(|t| t.wait().map_err(|e| e.to_string()).and_then(|inner| inner))
        .collect()
}

/// A seeded arrival plan: `n` sessions at `offered_per_s` mean rate
/// (uniformly jittered interarrivals), tenants round-robined over a
/// small fleet, service costs drawn from the measured set.
pub fn offered_plan(seed: u64, n: usize, offered_per_s: f64, costs: &[f64]) -> Vec<Offered> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0_f64;
    (0..n)
        .map(|_| {
            t += rng.range(0.5, 1.5) / offered_per_s;
            Offered {
                arrival_s: t,
                tenant: format!("tenant-{}", rng.below(8)),
                service_s: costs[rng.below(costs.len() as u64) as usize],
            }
        })
        .collect()
}

/// The full ablation: measure live, model the scaling rows and the
/// overload row, and package the report.
pub fn run_session_bench(quick: bool) -> Result<SessionBenchReport, String> {
    let requests = measured_requests(quick);
    let reports = measure_session_costs(&requests)?;
    let session_costs_s: Vec<f64> = reports.iter().map(SessionReport::virtual_cost_s).collect();
    assert!(
        session_costs_s.iter().all(|&c| c > 0.0),
        "every session must cost virtual time: {session_costs_s:?}"
    );
    let mean_cost_s = session_costs_s.iter().sum::<f64>() / session_costs_s.len() as f64;

    // Offered load fixed across pool sizes at 90% of the full pool's
    // capacity: the 8-worker pool keeps up while every smaller pool
    // saturates, so throughput tracks worker count.
    let capacity8 = 8.0 / mean_cost_s;
    let offered_per_s = 0.9 * capacity8;
    let plan_sessions = if quick { 400 } else { 2000 };
    let plan = offered_plan(0xA11A_5E55, plan_sessions, offered_per_s, &session_costs_s);

    let rows: Vec<PoolRow> = POOL_SIZES
        .iter()
        .map(|&pool| {
            let cfg = PoolConfig {
                workers: pool,
                queue_capacity: plan_sessions,
                ..PoolConfig::default()
            };
            let out = simulate_service(&cfg, &plan);
            assert!(out.rejected.is_empty(), "scaling rows admit everything");
            PoolRow {
                pool,
                offered_per_s,
                completed: out.completed.len(),
                sessions_per_s: out.sessions_per_s(),
                p50_s: out.latency_percentile(50.0),
                p99_s: out.latency_percentile(99.0),
            }
        })
        .collect();
    let speedup = rows.last().expect("rows").sessions_per_s / rows[0].sessions_per_s;

    // Overload: 3x capacity offered by the same tenant fleet against a
    // bounded queue and a per-tenant limiter at capacity/4. The limiter
    // sheds per-tenant excess (RateLimited), the queue sheds the
    // admitted surplus (QueueFull), and what gets in finishes with
    // latency bounded by the queue depth.
    let overload_offered = 3.0 * capacity8;
    let overload_n = if quick { 600 } else { 2000 };
    let overload_plan = offered_plan(0x0DD_10AD, overload_n, overload_offered, &session_costs_s);
    let overload_cfg = PoolConfig {
        workers: 8,
        queue_capacity: 8,
        tenant_rate: capacity8 / 4.0,
        tenant_burst: 4.0,
    };
    let out = simulate_service(&overload_cfg, &overload_plan);
    let min_retry_after_s =
        out.rejected.iter().map(|(_, r)| r.retry_after_s()).fold(f64::INFINITY, f64::min);
    for (_, r) in &out.rejected {
        assert!(r.retry_after_s() > 0.0, "rejection without a usable retry hint: {r}");
    }
    let overload = OverloadRow {
        pool: overload_cfg.workers,
        queue_capacity: overload_cfg.queue_capacity,
        tenant_rate: overload_cfg.tenant_rate,
        offered_per_s: overload_offered,
        admitted: out.completed.len(),
        rejected_rate_limited: out.rejected_rate_limited(),
        rejected_queue_full: out.rejected_queue_full(),
        min_retry_after_s,
        p99_s: out.latency_percentile(99.0),
    };

    Ok(SessionBenchReport {
        quick,
        session_costs_s,
        mean_cost_s,
        plan_sessions,
        rows,
        speedup,
        overload,
    })
}

/// Render the human-readable rows (shared by the CLI and the bench's
/// stdout preamble).
pub fn render(report: &SessionBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>14} {:>10} {:>14} {:>10} {:>10}",
        "pool", "offered/s", "completed", "sessions/s", "p50 s", "p99 s"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<6} {:>14.2} {:>10} {:>14.2} {:>10.3} {:>10.3}",
            r.pool, r.offered_per_s, r.completed, r.sessions_per_s, r.p50_s, r.p99_s
        );
    }
    let o = &report.overload;
    let _ = writeln!(
        out,
        "\nscaling: pool=8 is {:.2}x pool=1 (floor {SCALING_FLOOR}x)",
        report.speedup
    );
    let _ = writeln!(
        out,
        "overload @ {:.1}/s (3x capacity), queue {}, tenant rate {:.2}/s: \
         {} admitted, {} rate-limited, {} queue-full, admitted p99 {:.3} s \
         (unsaturated {:.3} s, bound {OVERLOAD_P99_FACTOR}x)",
        o.offered_per_s,
        o.queue_capacity,
        o.tenant_rate,
        o.admitted,
        o.rejected_rate_limited,
        o.rejected_queue_full,
        o.p99_s,
        report.unsaturated_p99_s(),
    );
    out
}
