//! Workload inputs, generated from the benchmark seed alone.
//!
//! Every function here is a pure function of its arguments: the same
//! seed yields the same flood variants, session requests, arrival
//! schedule and crash points on every run and platform. The program under
//! test receives only these generated inputs, never the seed's origin.

use npss::engine_exec::Scheduling;
use npss::service::{SessionKnobs, SessionRequest, Workload};
use testkit::SplitMix64;

/// Tenants the session generator sends on behalf of.
pub const TENANTS: usize = 4;

/// Distinct seeded session requests per run; arrivals draw from these.
pub const SESSION_TEMPLATES: usize = 12;

fn stream(seed: u64, salt: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ salt);
    SplitMix64::new(mix.next_u64())
}

/// Seed of the flood sweep's flight-profile variants.
pub fn flood_seed(seed: u64) -> u64 {
    stream(seed, 0xF100D).next_u64()
}

/// The seeded session requests of a run. The mix follows
/// `npss::session_bench::measured_requests`: steady-state solves and
/// 0.2 s transients, sequential and wave-parallel, batched and unbatched
/// links, plus 256-variant floods over 8 lines. No request carries a
/// crash plan.
pub fn session_templates(seed: u64) -> Vec<SessionRequest> {
    let mut rng = stream(seed, 0x5E55);
    (0..SESSION_TEMPLATES)
        .map(|i| {
            let workload = match i % 3 {
                0 => Workload::SteadyState { wf_frac: rng.range(0.93, 0.97) },
                1 => Workload::Transient { t_end: 0.2, dt: 0.02 },
                _ => Workload::FloodSweep { lines: 8, variants: 256 },
            };
            let knobs = SessionKnobs {
                link_batching: (i / 3) % 2 == 1,
                scheduling: if (i / 6) % 2 == 1 {
                    Scheduling::WaveParallel
                } else {
                    Scheduling::Sequential
                },
                crash: None,
            };
            SessionRequest {
                tenant: format!("tenant-{}", i % TENANTS),
                seed: rng.next_u64(),
                workload,
                knobs,
            }
        })
        .collect()
}

/// One open-loop arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase start at which the request is due.
    pub due_s: f64,
    /// Index into the run's session templates.
    pub template: usize,
    /// Tenant it is sent for (round-robin over [`TENANTS`]).
    pub tenant: usize,
}

/// An open-loop schedule: arrivals at mean rate `per_s` (interarrival
/// gaps uniform in 0.5–1.5 of the mean) until `duration_s`. Templates are
/// dealt in seeded shuffles of the whole set, so every run offers the
/// same mix in a different order. `salt` separates the phases of a run.
pub fn arrivals(seed: u64, salt: u64, per_s: f64, duration_s: f64) -> Vec<Arrival> {
    let mut rng = stream(seed, 0xA771_0000 ^ salt);
    let mut out = Vec::new();
    let mut deck: Vec<usize> = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.range(0.5, 1.5) / per_s;
        if t >= duration_s {
            return out;
        }
        if deck.is_empty() {
            deck = (0..SESSION_TEMPLATES).collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.index(i + 1));
            }
        }
        let template = deck.pop().expect("refilled above");
        out.push(Arrival { due_s: t, template, tenant: out.len() % TENANTS });
    }
}

/// `k` crash points as fractions of the transient's virtual window, one
/// inside each of `k` equal strata of 40–70%, drawn in mirrored pairs
/// (the point in stratum `i` and the one in stratum `k-1-i` sum to 1.1).
/// Every point is seeded, yet a run's crash points always centre on 55%,
/// so the run's mean recovery length does not wander with the seed.
pub fn crash_fractions(seed: u64, k: usize) -> Vec<f64> {
    let mut rng = stream(seed, 0xC4A5);
    let mut out = vec![0.0; k];
    for i in 0..k.div_ceil(2) {
        let offset = 0.30 * (i as f64 + rng.unit()) / k as f64;
        out[i] = 0.40 + offset;
        out[k - 1 - i] = 0.70 - offset;
    }
    out
}
