//! `sessions`: an open loop into a live two-worker `SessionPool`.
//!
//! One generator sends seeded arrivals from four tenants, drawing from
//! the run's seeded session requests (steady-state solves, 0.2 s
//! transients, 256-variant floods; sequential or wave-parallel, batched
//! or unbatched). Each session builds and tears down its own world. A
//! *nominal* phase offers [`NOMINAL_PER_S`] and an *overload* phase
//! [`OVERLOAD_PER_S`]; both rates and the pool configuration are fixed
//! here, so later changes face the same load. No request injects a
//! crash. Every completed session's digest must equal a solo
//! `run_session` of the same request, computed during set-up.

use std::time::Instant;

use npss::service::{run_session, SessionReport, SessionRequest};
use schooner::{PoolConfig, SessionPool};

use crate::common::{stop_table2_world, table2_world, Counters, SetupTimes, SETUP_FIRST};
use crate::inputs::{self, Arrival};
use crate::openloop::{drive, Offer, Outcome, Stamped};
use crate::report::{Clock, Metrics, Tally};
use crate::stats::{median, percentile};
use crate::tracer::Tracer;

/// Pool workers.
pub const WORKERS: usize = 2;
/// Admission queue bound.
pub const QUEUE_CAPACITY: usize = 8;
/// Per-tenant token refill rate, sessions/s.
pub const TENANT_RATE: f64 = 20.0;
/// Per-tenant burst.
pub const TENANT_BURST: f64 = 4.0;
/// Offered rate of the nominal phase, sessions/s.
pub const NOMINAL_PER_S: f64 = 28.0;
/// Offered rate of the overload phase, sessions/s.
pub const OVERLOAD_PER_S: f64 = 140.0;
/// Share of the run given to the nominal phase: enough sessions that ten
/// lie beyond its p95 (200 at 28/s need 7.2 s).
pub const NOMINAL_SHARE: f64 = 0.75;

/// The fixed pool configuration.
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        tenant_rate: TENANT_RATE,
        tenant_burst: TENANT_BURST,
    }
}

type Report = Result<SessionReport, String>;

/// Requests, solo references, and the set-up time.
struct Setup {
    templates: Vec<SessionRequest>,
    digests: Vec<u64>,
    counters: Vec<Counters>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let templates = inputs::session_templates(seed);
    let mut digests = Vec::new();
    let mut counters = Vec::new();
    for req in &templates {
        let solo = run_session(req)?;
        digests.push(solo.digest);
        counters.push(Counters::from_snapshot(&solo.metrics_json));
    }
    Ok(Setup { templates, digests, counters })
}

/// Time to a ready service, sampled `SETUP_FIRST` times: pool start plus
/// one session-shaped world (world, install, six lines and remote
/// processes).
fn sample_setups(setups: &mut SetupTimes) -> Result<(), String> {
    for _ in 0..SETUP_FIRST {
        setups.sample(
            || {
                let pool: SessionPool<()> =
                    SessionPool::start(pool_config()).map_err(|e| e.to_string())?;
                Ok((pool, table2_world()?))
            },
            |(mut pool, world)| {
                stop_table2_world(world);
                pool.shutdown();
            },
        )?;
    }
    Ok(())
}

fn offers(templates: &[SessionRequest], plan: &[Arrival]) -> Vec<Offer<impl FnOnce() -> Report>> {
    plan.iter()
        .map(|a| {
            let mut req = templates[a.template].clone();
            req.tenant = format!("tenant-{}", a.tenant);
            Offer { due_s: a.due_s, tenant: req.tenant.clone(), job: move || run_session(&req) }
        })
        .collect()
}

/// Check every completed session against its solo reference.
fn check(phase: &str, plan: &[Arrival], out: &[Outcome<Report>], s: &Setup, tally: &mut Tally) {
    for (i, (a, o)) in plan.iter().zip(out).enumerate() {
        let verdict = match (&o.value, &o.rejected) {
            (Some(Ok(rep)), _) if rep.digest == s.digests[a.template] => Ok(()),
            (Some(Ok(rep)), _) => Err(format!(
                "sessions/{phase}: session {i} (request {}) digest {:016x}, solo {:016x}",
                a.template, rep.digest, s.digests[a.template]
            )),
            (Some(Err(e)), _) => Err(format!("sessions/{phase}: session {i} failed: {e}")),
            // A typed refusal is the pool working as designed; in the
            // nominal phase it still counts as a latency miss.
            (None, Some(_)) => Ok(()),
            (None, None) => Err(format!("sessions/{phase}: session {i} lost (worker panic)")),
        };
        tally.record(verdict);
    }
}

/// Both phases' outcomes.
struct Phases {
    nominal: Vec<Outcome<Report>>,
    starts: [Instant; 2],
    overload: Vec<Outcome<Report>>,
    pool_counters: [(&'static str, u64); 3],
}

/// Run both phases, timing set-ups before, between and after them.
fn run_phases(
    seed: u64,
    seconds: f64,
    s: &Setup,
    tally: &mut Tally,
    setups: &mut SetupTimes,
) -> Result<Phases, String> {
    let mut pool: SessionPool<Stamped<Report>> =
        SessionPool::start(pool_config()).map_err(|e| e.to_string())?;
    let nominal_s = NOMINAL_SHARE * seconds;
    let plan_n = inputs::arrivals(seed, 1, NOMINAL_PER_S, nominal_s);
    let plan_o = inputs::arrivals(seed, 2, OVERLOAD_PER_S, seconds - nominal_s);
    sample_setups(setups)?;
    crate::begin_measure();
    let (nominal, nominal_start) = drive(&pool, offers(&s.templates, &plan_n));
    sample_setups(setups)?;
    let (overload, overload_start) = drive(&pool, offers(&s.templates, &plan_o));
    sample_setups(setups)?;
    check("nominal", &plan_n, &nominal, s, tally);
    check("overload", &plan_o, &overload, s, tally);
    let reg = pool.metrics();
    let pool_counters = [
        ("schooner.pool.admitted", reg.counter("pool.admitted")),
        ("schooner.pool.rejected_rate_limited", reg.counter("pool.rejected.rate_limited")),
        ("schooner.pool.rejected_queue_full", reg.counter("pool.rejected.queue_full")),
    ];
    pool.shutdown();
    Ok(Phases { nominal, starts: [nominal_start, overload_start], overload, pool_counters })
}

fn latencies(out: &[Outcome<Report>]) -> Vec<f64> {
    let ok = |o: &Outcome<Report>| matches!(o.value, Some(Ok(_)));
    out.iter().map(|o| o.latency_s().filter(|_| ok(o)).unwrap_or(f64::INFINITY)).collect()
}

/// The timed run.
pub fn run(seed: u64, seconds: f64, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let s = setup(seed)?;
    let mut setups = SetupTimes::default();
    let p = run_phases(seed, seconds, &s, tally, &mut setups)?;
    setups.put(m);

    let lat = latencies(&p.nominal);
    m.put("wall_s", "s", Clock::Wall, median(&lat), lat.len());
    m.put("latency_p50_s", "s", Clock::Wall, median(&lat), lat.len());
    match percentile(&lat, 95.0) {
        Ok(v) => m.put("latency_p95_s", "s", Clock::Wall, v, lat.len()),
        Err(why) => println!("# latency_p95_s not reported: {why}"),
    }
    let done: Vec<f64> = p
        .overload
        .iter()
        .filter(|o| matches!(o.value, Some(Ok(_))))
        .filter_map(|o| o.ran.map(|(_, end)| end))
        .collect();
    let span = done.iter().copied().fold(0.0, f64::max);
    if span > 0.0 {
        let rate = done.len() as f64 / span;
        m.put("sessions_per_s", "1/s", Clock::Wall, rate, done.len());
        m.put("throughput_per_s", "1/s", Clock::Wall, rate, done.len());
    }
    let refused = p.overload.iter().filter(|o| o.rejected.is_some()).count();
    m.put(
        "reject_share",
        "ratio",
        Clock::Count,
        refused as f64 / p.overload.len().max(1) as f64,
        p.overload.len(),
    );
    let cost: Vec<f64> = p
        .nominal
        .iter()
        .filter_map(|o| match &o.value {
            Some(Ok(rep)) => Some(rep.virtual_cost_s()),
            _ => None,
        })
        .collect();
    if !cost.is_empty() {
        m.put("virtual_s", "s", Clock::Virtual, median(&cost), cost.len());
    }
    Ok(())
}

/// Seconds of each stamped interval of the completed sessions.
fn stamped(out: &[&Outcome<Report>], f: impl Fn(&Outcome<Report>) -> Option<f64>) -> Vec<f64> {
    out.iter().filter(|o| matches!(o.value, Some(Ok(_)))).filter_map(|o| f(o)).collect()
}

/// The traced run: pool waits and service times from the job closures,
/// the pool's own admission counters, the generator's lateness, and the
/// transport counts of the run's requests.
pub fn traced(seed: u64, seconds: f64, m: &mut Metrics, tracer: &Tracer) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let s = setup(seed)?;
    let p = run_phases(seed, seconds, &s, &mut tally, &mut SetupTimes::default())?;
    let phases = [(p.starts[0], &p.nominal), (p.starts[1], &p.overload)];
    let tagged = phases.iter().flat_map(|(origin, out)| out.iter().map(move |o| (*origin, o)));
    for (unit, (origin, o)) in tagged.enumerate() {
        if let Some((start, end)) = o.ran {
            let at = |x: f64| origin + std::time::Duration::from_secs_f64(x);
            tracer.record("schooner.pool.queue", unit as u64, at(o.due_s + o.lag_s), at(start));
            tracer.record("npss.run_session", unit as u64, at(start), at(end));
        }
    }
    let all: Vec<&Outcome<Report>> = p.nominal.iter().chain(&p.overload).collect();
    let waits = stamped(&all, Outcome::wait_s);
    let service = stamped(&all, Outcome::service_s);
    if !waits.is_empty() {
        m.put("schooner.pool.wait_p50_s", "s", Clock::Wall, median(&waits), waits.len());
        let p95 =
            percentile(&waits, 95.0).unwrap_or_else(|_| waits.iter().copied().fold(0.0, f64::max));
        m.put("schooner.pool.wait_p95_s", "s", Clock::Wall, p95, waits.len());
        m.put("schooner.pool.service_p50_s", "s", Clock::Wall, median(&service), service.len());
    }
    for (name, v) in p.pool_counters {
        m.put(name, "count", Clock::Count, v as f64, 0);
    }
    let lags: Vec<f64> = all.iter().map(|o| o.lag_s).collect();
    let lag = percentile(&lags, 99.0).unwrap_or_else(|_| lags.iter().copied().fold(0.0, f64::max));
    m.put("schooner.pool.gen_lag_p99_s", "s", Clock::Wall, lag, lags.len());
    let n = s.counters.len() as u64;
    let total = s.counters.iter().fold(Counters::default(), |acc, c| acc.plus(c));
    crate::layers::put_unit_counters(m, &total, n);
    Ok(tally)
}
