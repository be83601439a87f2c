//! Multi-tenant session pool: admission control plus a shard of
//! OS-thread workers, each running sessions that own independent
//! deterministic worlds.
//!
//! The paper's NPSS vision is a *shared* simulation service — many
//! engineers submitting engine simulations against a pool of machines,
//! not one hand-driven run. This module is the session layer for that
//! traffic shape:
//!
//! * a [`TokenBucket`] per tenant meters submission rate;
//! * a bounded FIFO admission queue sheds load with typed
//!   [`Rejected::QueueFull`] answers instead of unbounded latency;
//! * admitted sessions shard to `N` named worker threads
//!   (`pool-worker-{i}`), whose handles are retained and joined at
//!   shutdown — a long-running service must not leak threads or lose
//!   panics silently.
//!
//! **Determinism argument.** The pool itself is wall-clock machinery,
//! but every session runs a closure that builds its *own* world
//! (per-world process counters, per-world metrics registry, seeded
//! virtual-time scheduling). No state is shared between session jobs, so
//! pool interleaving cannot perturb a session's transcript or metrics:
//! the same seeded session is bit-identical solo or under a saturated
//! pool. Pool-level telemetry (`pool.*` counters, gauges, histograms)
//! lives in the pool's own [`MetricsRegistry`], never in a session
//! world's, so world snapshots stay byte-comparable across runs.
//!
//! **One front door.** Both the live pool and the benchmark's
//! **virtual-time** service model, [`simulate_service`], admit through
//! the same private `Admission` state machine: per-tenant buckets, the
//! queue bound, config validation and the one `QueueFull` retry law. It
//! is clock-agnostic — the live pool passes wall seconds, the model
//! virtual arrival instants — so the model (earliest-free-worker FIFO)
//! runs the admission code the live pool runs and yields sessions/sec
//! and latency percentiles with no wall-clock noise, the same analytical
//! convention the transport ablation uses for link occupancy.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::error::{SchError, SchResult};
use crate::obs::MetricsRegistry;

/// A per-tenant token bucket. Pure state machine over an explicit clock:
/// callers pass `now_s` (wall seconds in the live pool, virtual seconds
/// in the service model), which is what makes the same limiter usable in
/// both and unit-testable without sleeping.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A bucket that refills at `rate` tokens/second up to `burst`
    /// capacity, starting full. `rate = f64::INFINITY` disables limiting.
    pub fn new(rate: f64, burst: f64) -> Self {
        Self { rate, burst, tokens: burst, last_s: 0.0 }
    }

    /// Take one token at time `now_s`, or report how long until one
    /// accrues. Time may not run backwards; a stale `now_s` refills
    /// nothing.
    pub fn try_take(&mut self, now_s: f64) -> Result<(), f64> {
        if self.rate.is_infinite() {
            return Ok(());
        }
        let dt = (now_s - self.last_s).max(0.0);
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last_s = self.last_s.max(now_s);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if self.rate > 0.0 {
            Err((1.0 - self.tokens) / self.rate)
        } else {
            Err(f64::INFINITY)
        }
    }
}

/// Why a session was refused at the front door. Every variant carries a
/// retry-after hint so a polite client can back off instead of spinning.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// The tenant's token bucket is empty.
    RateLimited {
        /// The tenant that was throttled.
        tenant: String,
        /// Seconds until the bucket accrues one token.
        retry_after_s: f64,
    },
    /// The admission queue is at capacity.
    QueueFull {
        /// Sessions waiting when the request arrived.
        depth: usize,
        /// The configured queue bound.
        capacity: usize,
        /// Estimated seconds until the sessions already queued have
        /// drained: the mean service time of completed sessions (0.05 s
        /// before any has completed) × max(`depth` / workers, 1).
        retry_after_s: f64,
    },
    /// The pool has been shut down and will never admit again.
    ShutDown,
}

impl Rejected {
    /// The retry-after hint, whichever variant (infinite for
    /// [`Rejected::ShutDown`]).
    pub fn retry_after_s(&self) -> f64 {
        match self {
            Self::RateLimited { retry_after_s, .. } | Self::QueueFull { retry_after_s, .. } => {
                *retry_after_s
            }
            Self::ShutDown => f64::INFINITY,
        }
    }

    /// The `pool.rejected.*` counter this refusal increments.
    fn counter(&self) -> &'static str {
        match self {
            Self::RateLimited { .. } => "pool.rejected.rate_limited",
            Self::QueueFull { .. } => "pool.rejected.queue_full",
            Self::ShutDown => "pool.rejected.shut_down",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RateLimited { tenant, retry_after_s } => {
                write!(f, "tenant '{tenant}' rate limited; retry after {retry_after_s:.3} s")
            }
            Self::QueueFull { depth, capacity, retry_after_s } => {
                write!(
                    f,
                    "admission queue full ({depth}/{capacity}); retry after {retry_after_s:.3} s"
                )
            }
            Self::ShutDown => write!(f, "session pool is shut down; it admits nothing more"),
        }
    }
}

/// Sizing and admission-control knobs for a [`SessionPool`] and for the
/// [`simulate_service`] model, which admits through the same code in
/// virtual time. Both refuse a config that breaks a rule below.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (each runs one session at a time); at least 1.
    pub workers: usize,
    /// Bound on sessions admitted but not yet started; at least 1.
    pub queue_capacity: usize,
    /// Per-tenant token refill rate (sessions/second), `>= 0`;
    /// `f64::INFINITY` disables rate limiting.
    pub tenant_rate: f64,
    /// Per-tenant burst capacity (bucket size); at least 1, or no
    /// offer could ever take a whole token.
    pub tenant_burst: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { workers: 4, queue_capacity: 64, tenant_rate: f64::INFINITY, tenant_burst: 8.0 }
    }
}

/// Fallback service-time estimate (seconds) for the queue-full
/// retry-after hint before any session has completed.
const DEFAULT_SERVICE_ESTIMATE_S: f64 = 0.05;

/// The front door of both pools: per-tenant token buckets, the queue
/// bound, and the one retry law (documented on [`Rejected::QueueFull`]).
/// Clock-agnostic — the caller passes `now_s` and the number of sessions
/// admitted but not yet started, and reports every finished session's
/// service time to [`Admission::served`].
#[derive(Debug)]
struct Admission {
    config: PoolConfig,
    buckets: BTreeMap<String, TokenBucket>,
    served_n: u64,
    served_sum_s: f64,
}

impl Admission {
    /// Validate `config` (the rules on [`PoolConfig`]'s fields) and open
    /// the door.
    fn new(config: PoolConfig) -> Result<Self, String> {
        if config.workers == 0 {
            return Err("session pool needs at least one worker".into());
        }
        if config.queue_capacity == 0 {
            return Err("session pool needs a queue capacity of at least 1".into());
        }
        if config.tenant_rate.is_nan() || config.tenant_rate < 0.0 {
            return Err(format!("tenant rate must be >= 0, got {}", config.tenant_rate));
        }
        if config.tenant_burst.is_nan() || config.tenant_burst < 1.0 {
            return Err(format!(
                "tenant burst must be >= 1 or no session is ever admitted, got {}",
                config.tenant_burst
            ));
        }
        Ok(Self { config, buckets: BTreeMap::new(), served_n: 0, served_sum_s: 0.0 })
    }

    /// Admit or refuse one session from `tenant` at `now_s`, with
    /// `depth` sessions admitted but not yet started.
    fn offer(&mut self, tenant: &str, now_s: f64, depth: usize) -> Result<(), Rejected> {
        let PoolConfig { workers, queue_capacity, tenant_rate, tenant_burst } = self.config;
        let bucket = self
            .buckets
            .entry(tenant.to_owned())
            .or_insert_with(|| TokenBucket::new(tenant_rate, tenant_burst));
        if let Err(retry_after_s) = bucket.try_take(now_s) {
            return Err(Rejected::RateLimited { tenant: tenant.to_owned(), retry_after_s });
        }
        if depth >= queue_capacity {
            let per_session = if self.served_n > 0 {
                self.served_sum_s / self.served_n as f64
            } else {
                DEFAULT_SERVICE_ESTIMATE_S
            };
            let retry_after_s = per_session * (depth as f64 / workers as f64).max(1.0);
            return Err(Rejected::QueueFull { depth, capacity: queue_capacity, retry_after_s });
        }
        Ok(())
    }

    /// Tally one finished session's service time for the retry law.
    fn served(&mut self, service_s: f64) {
        self.served_n += 1;
        self.served_sum_s += service_s;
    }
}

struct Job<R> {
    queued_at: Instant,
    run: Box<dyn FnOnce() -> R + Send>,
    done: mpsc::Sender<std::thread::Result<R>>,
}

struct State<R> {
    queue: VecDeque<Job<R>>,
    admission: Admission,
    shutdown: bool,
}

struct Shared<R> {
    state: Mutex<State<R>>,
    wake: Condvar,
    metrics: MetricsRegistry,
}

/// Take the guard even when a session job panicked while a worker held
/// the lock: queue state is a VecDeque plus the admission buckets and
/// tally, all of which are valid after any partial operation visible
/// here.
fn lock<R>(shared: &Shared<R>) -> std::sync::MutexGuard<'_, State<R>> {
    shared.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The live session pool: admission control in front of `N` OS-thread
/// workers. `R` is the session report type produced by submitted jobs.
pub struct SessionPool<R: Send + 'static> {
    shared: Arc<Shared<R>>,
    started: Instant,
    workers: Vec<JoinHandle<()>>,
}

/// A claim on one admitted session's eventual report.
pub struct SessionTicket<R> {
    tenant: String,
    rx: mpsc::Receiver<std::thread::Result<R>>,
}

impl<R> SessionTicket<R> {
    /// Block until the session finishes. [`SchError::SessionPanicked`]
    /// reports a job that panicked in its worker (the pool survives).
    pub fn wait(self) -> SchResult<R> {
        match self.rx.recv() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(_)) | Err(_) => Err(SchError::SessionPanicked { tenant: self.tenant }),
        }
    }
}

impl<R: Send + 'static> SessionPool<R> {
    /// Start the pool: spawn `config.workers` named worker threads. A
    /// config that breaks a [`PoolConfig`] rule is refused with
    /// [`SchError::Other`].
    pub fn start(config: PoolConfig) -> SchResult<Self> {
        let n = config.workers;
        let admission = Admission::new(config).map_err(SchError::Other)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), admission, shutdown: false }),
            wake: Condvar::new(),
            metrics: MetricsRegistry::new(),
        });
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("pool-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| SchError::Other(format!("spawn pool-worker-{i}: {e}")))?;
            workers.push(handle);
        }
        Ok(Self { shared, started: Instant::now(), workers })
    }

    /// Pool-level telemetry: `pool.admitted`, `pool.rejected.*`,
    /// `pool.completed` counters; `pool.queue_depth` / `pool.busy_workers`
    /// gauges; `pool.wait_s` / `pool.session_s` histograms. This registry
    /// is the pool's own — never a session world's — so world metric
    /// snapshots stay byte-comparable.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Wall seconds since the pool started (the live limiter clock).
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Offer a session job for `tenant`. On admission the job is queued
    /// for the next free worker and a ticket for its report is returned;
    /// otherwise a typed [`Rejected`] explains why and when to retry.
    /// After [`SessionPool::shutdown`] every offer is
    /// [`Rejected::ShutDown`].
    pub fn submit<F>(&self, tenant: &str, job: F) -> Result<SessionTicket<R>, Rejected>
    where
        F: FnOnce() -> R + Send + 'static,
    {
        let now = self.now_s();
        let m = &self.shared.metrics;
        let mut s = lock(&self.shared);
        let depth = s.queue.len();
        let verdict = if s.shutdown {
            Err(Rejected::ShutDown)
        } else {
            s.admission.offer(tenant, now, depth)
        };
        if let Err(r) = verdict {
            drop(s);
            m.counter_add(r.counter(), 1);
            return Err(r);
        }
        let (tx, rx) = mpsc::channel();
        s.queue.push_back(Job { queued_at: Instant::now(), run: Box::new(job), done: tx });
        m.gauge_set("pool.queue_depth", s.queue.len() as i64);
        drop(s);
        m.counter_add("pool.admitted", 1);
        self.shared.wake.notify_one();
        Ok(SessionTicket { tenant: tenant.to_owned(), rx })
    }

    /// Drain the queue, stop the workers, and join every handle. Called
    /// by `Drop` as well, so a pool can never leak its threads.
    pub fn shutdown(&mut self) {
        {
            let mut s = lock(&self.shared);
            s.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a job is a bug, but joining
            // must not cascade the panic into shutdown.
            let _ = handle.join();
        }
    }
}

impl<R: Send + 'static> Drop for SessionPool<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<R: Send + 'static>(shared: &Shared<R>) {
    loop {
        let job = {
            let mut s = lock(shared);
            loop {
                if let Some(job) = s.queue.pop_front() {
                    shared.metrics.gauge_set("pool.queue_depth", s.queue.len() as i64);
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = shared.wake.wait(s).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.metrics.observe("pool.wait_s", job.queued_at.elapsed().as_secs_f64());
        shared.metrics.gauge_add("pool.busy_workers", 1);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(job.run));
        let service_s = started.elapsed().as_secs_f64();
        shared.metrics.observe("pool.session_s", service_s);
        lock(shared).admission.served(service_s);
        shared.metrics.gauge_add("pool.busy_workers", -1);
        match &outcome {
            Ok(_) => shared.metrics.counter_add("pool.completed", 1),
            Err(_) => shared.metrics.counter_add("pool.session_panics", 1),
        }
        // A dropped ticket is fine — the session ran for its side effects.
        let _ = job.done.send(outcome);
    }
}

// ---------------------------------------------------------------------------
// Deterministic service model
// ---------------------------------------------------------------------------

/// One offered session in the virtual-time service model.
#[derive(Debug, Clone)]
pub struct Offered {
    /// Virtual arrival instant (non-decreasing across the plan).
    pub arrival_s: f64,
    /// Submitting tenant (keys the token bucket).
    pub tenant: String,
    /// Virtual service cost of the session — in this repo, the session
    /// world's own virtual-time cost, measured once per distinct seed.
    pub service_s: f64,
}

/// One admitted-and-completed session in the service model.
#[derive(Debug, Clone)]
pub struct VirtualSession {
    /// The submitting tenant.
    pub tenant: String,
    /// When it arrived.
    pub arrival_s: f64,
    /// When a worker picked it up.
    pub start_s: f64,
    /// When it finished.
    pub finish_s: f64,
}

impl VirtualSession {
    /// Queue wait plus service: the client-visible session latency.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// The outcome of replaying an offered plan through the service model.
#[derive(Debug, Clone, Default)]
pub struct ServiceOutcome {
    /// Admitted sessions with their timing.
    pub completed: Vec<VirtualSession>,
    /// Refused sessions: (arrival instant, typed rejection).
    pub rejected: Vec<(f64, Rejected)>,
    /// Virtual time from t = 0 to the last finish.
    pub makespan_s: f64,
}

impl ServiceOutcome {
    /// Completed sessions per virtual second.
    pub fn sessions_per_s(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.completed.len() as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// The `p`-th percentile (0–100) of completed-session latency,
    /// nearest-rank on the sorted latencies. 0 when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.completed.iter().map(VirtualSession::latency_s).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let idx = ((p / 100.0) * (lat.len() - 1) as f64).ceil() as usize;
        lat[idx.min(lat.len() - 1)]
    }

    /// How many offers the limiter refused.
    pub fn rejected_rate_limited(&self) -> usize {
        self.rejected_by("pool.rejected.rate_limited")
    }

    /// How many offers the bounded queue refused.
    pub fn rejected_queue_full(&self) -> usize {
        self.rejected_by("pool.rejected.queue_full")
    }

    /// How many refusals the live pool would count under `counter`.
    fn rejected_by(&self, counter: &str) -> usize {
        self.rejected.iter().filter(|(_, r)| r.counter() == counter).count()
    }
}

/// Replay an offered plan through the pool's own admission code in
/// virtual time: per-tenant token buckets refilled at arrival instants,
/// a bounded FIFO queue, and earliest-free-worker assignment. Pure
/// arithmetic over the plan — two calls with the same config and plan
/// produce identical outcomes, which is what lets the benchmark assert a
/// scaling floor with no wall-clock noise.
///
/// # Panics
///
/// On a config that [`SessionPool::start`] would refuse, with the same
/// message.
pub fn simulate_service(config: &PoolConfig, offered: &[Offered]) -> ServiceOutcome {
    let mut admission = Admission::new(config.clone()).unwrap_or_else(|e| panic!("{e}"));
    let mut plan: Vec<&Offered> = offered.iter().collect();
    plan.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("arrivals are finite"));

    let mut free_at = vec![0.0_f64; config.workers];
    // Start instants of admitted sessions, in non-decreasing order; the
    // prefix with `start <= now` has left the queue. (Starts are
    // non-decreasing because arrivals are sorted and the earliest worker
    // free time never moves backwards.)
    let mut pending_starts: VecDeque<f64> = VecDeque::new();
    // (finish, service) bit patterns of admitted sessions not yet
    // reported to `served`, earliest finish on top. Finish instants are
    // never negative, so their bit patterns order like their values.
    let mut running: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut out = ServiceOutcome::default();

    for session in plan {
        let now = session.arrival_s;
        while pending_starts.front().is_some_and(|&s| s <= now) {
            pending_starts.pop_front();
        }
        while let Some(&Reverse((finish, service))) = running.peek() {
            if f64::from_bits(finish) > now {
                break;
            }
            running.pop();
            admission.served(f64::from_bits(service));
        }
        if let Err(r) = admission.offer(&session.tenant, now, pending_starts.len()) {
            out.rejected.push((now, r));
            continue;
        }
        let (worker, &free) = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("free times are finite"))
            .expect("at least one worker");
        let start = now.max(free);
        let finish = start + session.service_s;
        free_at[worker] = finish;
        pending_starts.push_back(start);
        running.push(Reverse((finish.to_bits(), session.service_s.to_bits())));
        out.completed.push(VirtualSession {
            tenant: session.tenant.clone(),
            arrival_s: now,
            start_s: start,
            finish_s: finish,
        });
        if finish > out.makespan_s {
            out.makespan_s = finish;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_meters_and_reports_retry_after() {
        let mut b = TokenBucket::new(2.0, 2.0);
        assert!(b.try_take(0.0).is_ok());
        assert!(b.try_take(0.0).is_ok());
        let retry = b.try_take(0.0).unwrap_err();
        assert!((retry - 0.5).abs() < 1e-12, "2/s refill -> 0.5 s to one token, got {retry}");
        // After the hinted wait the take succeeds.
        assert!(b.try_take(0.5).is_ok());
        // Refill caps at burst.
        let mut b = TokenBucket::new(1.0, 3.0);
        for _ in 0..3 {
            assert!(b.try_take(100.0).is_ok());
        }
        assert!(b.try_take(100.0).is_err());
    }

    #[test]
    fn infinite_rate_never_limits() {
        let mut b = TokenBucket::new(f64::INFINITY, 1.0);
        for _ in 0..1000 {
            assert!(b.try_take(0.0).is_ok());
        }
    }

    #[test]
    fn zero_rate_reports_infinite_retry() {
        let mut b = TokenBucket::new(0.0, 1.0);
        assert!(b.try_take(0.0).is_ok());
        assert_eq!(b.try_take(0.0).unwrap_err(), f64::INFINITY);
    }

    #[test]
    fn service_model_is_deterministic_and_work_conserving() {
        let cfg = PoolConfig { workers: 2, queue_capacity: 100, ..PoolConfig::default() };
        let plan: Vec<Offered> = (0..10)
            .map(|i| Offered { arrival_s: i as f64 * 0.1, tenant: "t".into(), service_s: 1.0 })
            .collect();
        let a = simulate_service(&cfg, &plan);
        let b = simulate_service(&cfg, &plan);
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!(x.start_s.to_bits(), y.start_s.to_bits());
            assert_eq!(x.finish_s.to_bits(), y.finish_s.to_bits());
        }
        // 10 jobs of 1 s on 2 workers, arrivals staggered 0.1 s apart:
        // worker B starts 0.1 s behind A and finishes its fifth at 5.1 s.
        assert!((a.makespan_s - 5.1).abs() < 1e-9, "makespan {}", a.makespan_s);
        assert_eq!(a.rejected.len(), 0);
    }

    #[test]
    fn service_model_scales_with_workers() {
        let plan: Vec<Offered> = (0..64)
            .map(|i| Offered { arrival_s: i as f64 * 0.001, tenant: "t".into(), service_s: 0.5 })
            .collect();
        let thr = |workers: usize| {
            let cfg =
                PoolConfig { workers, queue_capacity: usize::MAX >> 1, ..PoolConfig::default() };
            simulate_service(&cfg, &plan).sessions_per_s()
        };
        let t1 = thr(1);
        let t8 = thr(8);
        assert!(t8 / t1 > 6.0, "8 workers should be ~8x one: {t1} vs {t8}");
    }

    #[test]
    fn service_model_bounds_queue_and_types_rejections() {
        // One worker at 1 session/s capacity; the flood tenant offers
        // 100/s. Its 2/s bucket sheds most offers (RateLimited), and the
        // ~2/s that pass the limiter still exceed capacity, so the
        // 4-deep queue overflows too (QueueFull).
        let plan: Vec<Offered> = (0..1000)
            .map(|i| Offered { arrival_s: i as f64 * 0.01, tenant: "flood".into(), service_s: 1.0 })
            .collect();
        let cfg = PoolConfig { workers: 1, queue_capacity: 4, tenant_rate: 2.0, tenant_burst: 4.0 };
        let out = simulate_service(&cfg, &plan);
        assert!(out.rejected_queue_full() > 0, "admitted overload must overflow the queue");
        assert!(out.rejected_rate_limited() > 0, "2/s bucket must throttle a 100/s flood");
        for (_, r) in &out.rejected {
            assert!(r.retry_after_s() > 0.0, "rejections must carry a positive retry hint: {r}");
        }
        // The bounded queue caps admitted latency: at most the running
        // session plus `capacity` queued sessions ahead of an admission.
        let worst = out.latency_percentile(100.0);
        assert!(worst <= 6.0 + 1e-9, "queue bound must cap latency, got {worst}");
    }

    #[test]
    fn live_pool_runs_thousands_of_sessions_and_counts_them() {
        let mut pool: SessionPool<u64> = SessionPool::start(PoolConfig {
            workers: 8,
            queue_capacity: 5000,
            ..PoolConfig::default()
        })
        .unwrap();
        let tickets: Vec<_> = (0..2000u64)
            .map(|i| pool.submit(&format!("tenant-{}", i % 7), move || i * i).unwrap())
            .collect();
        let mut sum = 0u64;
        for t in tickets {
            sum += t.wait().unwrap();
        }
        let expect: u64 = (0..2000u64).map(|i| i * i).sum();
        assert_eq!(sum, expect);
        let m = pool.metrics().clone();
        assert_eq!(m.counter("pool.admitted"), 2000);
        assert_eq!(m.counter("pool.completed"), 2000);
        assert_eq!(m.counter("pool.rejected.rate_limited"), 0);
        assert_eq!(m.gauge("pool.busy_workers"), 0);
        assert_eq!(m.gauge("pool.queue_depth"), 0);
        pool.shutdown();
        assert!(m.histogram("pool.session_s").unwrap().count == 2000);
    }

    #[test]
    fn live_pool_rejects_with_types_and_survives_panics() {
        let mut pool: SessionPool<()> = SessionPool::start(PoolConfig {
            workers: 1,
            queue_capacity: 2,
            tenant_rate: 0.0,
            tenant_burst: 2.0,
        })
        .unwrap();
        // Burst of 2 admits, third is rate limited.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let t1 = pool
            .submit("a", move || {
                let (l, c) = &*g;
                let mut open = l.lock().unwrap();
                while !*open {
                    open = c.wait(open).unwrap();
                }
            })
            .unwrap();
        // Wait until the worker has picked t1 up, so queue depths below
        // are deterministic.
        while pool.metrics().gauge("pool.busy_workers") < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t2 = pool.submit("a", || ()).unwrap();
        match pool.submit("a", || ()) {
            Err(Rejected::RateLimited { tenant, retry_after_s }) => {
                assert_eq!(tenant, "a");
                assert_eq!(retry_after_s, f64::INFINITY);
            }
            other => panic!("expected RateLimited, got {:?}", other.is_ok()),
        }
        // A second tenant fills the queue: the lone worker is parked on
        // the gate, so the two remaining jobs sit queued at capacity.
        let t3 = pool.submit("b", || ()).unwrap();
        match pool.submit("b", || ()) {
            Err(Rejected::QueueFull { capacity, retry_after_s, .. }) => {
                assert_eq!(capacity, 2);
                assert!(retry_after_s > 0.0);
            }
            Err(r) => panic!("expected QueueFull, got {r}"),
            Ok(_) => panic!("expected QueueFull, got an admission"),
        }
        // Open the gate; everything drains.
        {
            let (l, c) = &*gate;
            *l.lock().unwrap() = true;
            c.notify_all();
        }
        t1.wait().unwrap();
        t2.wait().unwrap();
        t3.wait().unwrap();
        // A panicking job is surfaced on its ticket and the pool survives
        // (a fresh tenant: "a" and "b" spent their zero-refill buckets).
        let boom = pool.submit("c", || panic!("session bug")).unwrap();
        match boom.wait() {
            Err(SchError::SessionPanicked { tenant }) => assert_eq!(tenant, "c"),
            other => panic!("expected SessionPanicked, got {other:?}"),
        }
        let after = pool.submit("c", || ()).unwrap();
        after.wait().unwrap();
        assert_eq!(pool.metrics().counter("pool.session_panics"), 1);
        pool.shutdown();
    }

    /// One seeded offer trace through the live pool, its workers parked
    /// on a gate, and through the model, its sessions too long to finish.
    /// With `tenant_rate: 0` no verdict depends on the clock, so both
    /// must give the same verdicts with bit-identical retry hints.
    #[test]
    fn live_pool_and_service_model_give_identical_verdicts() {
        let cfg = PoolConfig { workers: 2, queue_capacity: 3, tenant_rate: 0.0, tenant_burst: 3.0 };
        let mut rng = testkit::SplitMix64::new(0xAD31_5510);
        let tenants: Vec<String> = (0..24).map(|_| format!("tenant-{}", rng.below(4))).collect();

        let plan: Vec<Offered> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| Offered { arrival_s: i as f64, tenant: t.clone(), service_s: 1e9 })
            .collect();
        let out = simulate_service(&cfg, &plan);
        let mut model: Vec<Result<(), Rejected>> = vec![Ok(()); plan.len()];
        for (at, r) in out.rejected {
            model[at as usize] = Err(r);
        }

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (picked_tx, picked_rx) = mpsc::channel();
        let mut pool: SessionPool<()> = SessionPool::start(cfg.clone()).unwrap();
        let mut tickets = Vec::new();
        let mut live = Vec::new();
        for tenant in &tenants {
            let (g, picked) = (Arc::clone(&gate), picked_tx.clone());
            let verdict = pool.submit(tenant, move || {
                picked.send(()).unwrap();
                let (l, c) = &*g;
                let mut open = l.lock().unwrap();
                while !*open {
                    open = c.wait(open).unwrap();
                }
            });
            // As in the model, where they start on arrival, the first
            // `workers` admissions leave the queue before the next offer.
            if verdict.is_ok() && tickets.len() < cfg.workers {
                picked_rx.recv().unwrap();
            }
            live.push(verdict.map(|t| tickets.push(t)));
        }
        {
            let (l, c) = &*gate;
            *l.lock().unwrap() = true;
            c.notify_all();
        }
        for t in tickets {
            t.wait().unwrap();
        }
        pool.shutdown();

        for (i, (l, m)) in live.iter().zip(&model).enumerate() {
            assert_eq!(l, m, "offer {i} from {}", tenants[i]);
            if let (Err(l), Err(m)) = (l, m) {
                assert_eq!(l.retry_after_s().to_bits(), m.retry_after_s().to_bits(), "offer {i}");
            }
        }
        let kinds: Vec<&str> =
            model.iter().map(|v| v.as_ref().map_or_else(Rejected::counter, |_| "admit")).collect();
        for kind in ["admit", "pool.rejected.rate_limited", "pool.rejected.queue_full"] {
            assert!(kinds.contains(&kind), "trace never produced {kind}: {kinds:?}");
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let mut pool: SessionPool<u8> = SessionPool::start(PoolConfig::default()).unwrap();
        pool.shutdown();
        match pool.submit("t", || 1) {
            Err(r) => {
                assert_eq!(r, Rejected::ShutDown);
                assert_eq!(r.retry_after_s(), f64::INFINITY);
            }
            Ok(_) => panic!("a shut-down pool admitted a session no worker will run"),
        }
        assert_eq!(pool.metrics().counter("pool.rejected.shut_down"), 1);
    }

    /// Both pools refuse `cfg` with the same message, which is returned.
    fn refused(cfg: PoolConfig) -> String {
        let live = match SessionPool::<()>::start(cfg.clone()) {
            Err(SchError::Other(msg)) => msg,
            Err(e) => panic!("expected SchError::Other, got {e}"),
            Ok(_) => panic!("{cfg:?} was accepted"),
        };
        let model = catch_unwind(|| simulate_service(&cfg, &[])).expect_err("model accepted");
        assert_eq!(Some(&live), model.downcast_ref::<String>());
        live
    }

    fn accepted(cfg: PoolConfig) {
        SessionPool::<()>::start(cfg.clone()).unwrap();
        simulate_service(&cfg, &[]);
    }

    #[test]
    fn burst_below_one_is_refused() {
        let msg = refused(PoolConfig { tenant_burst: 0.5, ..PoolConfig::default() });
        assert!(msg.contains("tenant burst must be >= 1"), "{msg}");
        refused(PoolConfig { tenant_burst: f64::NAN, ..PoolConfig::default() });
        accepted(PoolConfig { tenant_burst: 1.0, ..PoolConfig::default() });
    }

    #[test]
    fn zero_workers_are_refused() {
        let msg = refused(PoolConfig { workers: 0, ..PoolConfig::default() });
        assert!(msg.contains("at least one worker"), "{msg}");
    }

    #[test]
    fn zero_queue_capacity_is_refused() {
        let msg = refused(PoolConfig { queue_capacity: 0, ..PoolConfig::default() });
        assert!(msg.contains("queue capacity"), "{msg}");
        accepted(PoolConfig { queue_capacity: 1, ..PoolConfig::default() });
    }

    #[test]
    fn negative_or_nan_rate_is_refused() {
        for rate in [-1.0, f64::NAN] {
            let msg = refused(PoolConfig { tenant_rate: rate, ..PoolConfig::default() });
            assert!(msg.contains("tenant rate must be >= 0"), "{msg}");
        }
        accepted(PoolConfig { tenant_rate: 0.0, ..PoolConfig::default() });
        accepted(PoolConfig { tenant_rate: f64::INFINITY, ..PoolConfig::default() });
    }

    #[test]
    fn shutdown_joins_named_workers() {
        let mut pool: SessionPool<usize> =
            SessionPool::start(PoolConfig { workers: 3, ..PoolConfig::default() }).unwrap();
        let names: Vec<Option<String>> =
            pool.workers.iter().map(|h| h.thread().name().map(str::to_owned)).collect();
        assert_eq!(
            names,
            vec![
                Some("pool-worker-0".into()),
                Some("pool-worker-1".into()),
                Some("pool-worker-2".into())
            ]
        );
        let t = pool.submit("t", || 7).unwrap();
        assert_eq!(t.wait().unwrap(), 7);
        pool.shutdown();
        assert!(pool.workers.is_empty(), "shutdown must join and drain every handle");
    }
}
