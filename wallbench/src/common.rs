//! World builders and counter readers shared by the workloads.

use std::time::Instant;

use netsim::MetricsRegistry;

use crate::report::{Clock, Metrics};
use crate::stats::median;
use npss::engine_exec::Exec;
use npss::{procs, ExecutiveEngine, RemoteExec};
use schooner::{CallPolicy, Schooner};
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::{TransientResult, TransientSample};

/// The paper's transient: 1.0 s at dt 0.02 (50 Improved-Euler steps).
pub const T_END: f64 = 1.0;
/// Integrator step of every Table-2 transient.
pub const DT: f64 = 0.02;
/// Host the executive (AVS) runs on in Table 2.
pub const AVS_HOST: &str = "ua-sparc10";

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Set-ups timed before the measured window of every run.
pub const SETUP_FIRST: usize = 5;
/// Closed loops time one set-up after every this many units of work, so
/// few units follow a world's build and teardown.
pub const SETUP_EVERY: u64 = 4;
/// Most set-ups timed in one run.
const SETUP_MAX: usize = 200;

/// Set-up times of one run. Besides a few before the measured window,
/// samples are taken between units of work across the whole run, so
/// `setup_s` (their median) is not one moment's reading of the host.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Time `build` (to a ready world), then `teardown` its result
    /// outside the timer. Past [`SETUP_MAX`] samples this does nothing.
    pub fn sample<T>(
        &mut self,
        build: impl FnOnce() -> Result<T, String>,
        teardown: impl FnOnce(T),
    ) -> Result<(), String> {
        if self.0.len() >= SETUP_MAX {
            return Ok(());
        }
        let t0 = Instant::now();
        let ready = build()?;
        self.0.push(secs(t0));
        teardown(ready);
        Ok(())
    }

    /// Record `setup_s`.
    pub fn put(&self, m: &mut Metrics) {
        if !self.0.is_empty() {
            m.put("setup_s", "s", Clock::Wall, median(&self.0), self.0.len());
        }
    }
}

/// A standard world with the four adapted-module executables installed
/// on every host.
pub fn npss_world() -> Result<Schooner, String> {
    let sch = Schooner::standard().map_err(|e| e.to_string())?;
    let hosts: Vec<String> = sch.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
    let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    for (path, image) in [
        (procs::SHAFT_PATH, procs::shaft_image()),
        (procs::DUCT_PATH, procs::duct_image()),
        (procs::COMBUSTOR_PATH, procs::combustor_image()),
        (procs::NOZZLE_PATH, procs::nozzle_image()),
    ] {
        sch.install_program(path, image, &host_refs).map_err(|e| e.to_string())?;
    }
    Ok(sch)
}

/// A ready Table-2 world: world, install, six lines and remote processes.
pub fn table2_world() -> Result<(Schooner, ExecutiveEngine), String> {
    let sch = npss_world()?;
    let exec = table2_engine(&sch)?;
    Ok((sch, exec))
}

/// Tear down a [`table2_world`].
pub fn stop_table2_world((sch, mut exec): (Schooner, ExecutiveEngine)) {
    exec.shutdown();
    sch.shutdown();
}

/// The Table-2 placement as an executive engine, with checkpoint
/// barriers every five solver steps (the journaled recovery setup).
pub fn table2_engine(sch: &Schooner) -> Result<ExecutiveEngine, String> {
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 0.1);
    let mut exec = ExecutiveEngine::all_local(Turbofan::f100().map_err(|e| e.to_string())?)?;
    for (slot, path, machine) in TABLE2_SLOTS {
        let line = sch.open_line(slot, AVS_HOST).map_err(|e| e.to_string())?;
        let remote = RemoteExec::start(line, path, machine)
            .map_err(|e| e.to_string())?
            .with_policy(policy.clone());
        exec.set_remote(slot, remote)?;
    }
    exec.checkpoint_interval = 5;
    exec.max_recoveries = 20;
    Ok(exec)
}

/// (slot, executable, machine) of the Table-2 placement.
pub const TABLE2_SLOTS: [(&str, &str, &str); 6] = [
    ("combustor", procs::COMBUSTOR_PATH, "ua-sgi-4d340"),
    ("bypass duct", procs::DUCT_PATH, "lerc-cray-ymp"),
    ("tailpipe duct", procs::DUCT_PATH, "lerc-cray-ymp"),
    ("nozzle", procs::NOZZLE_PATH, "lerc-sgi-4d420"),
    ("low speed shaft", procs::SHAFT_PATH, "lerc-rs6000"),
    ("high speed shaft", procs::SHAFT_PATH, "lerc-rs6000"),
];

/// The Table-2 throttle move: 92% of design fuel, ramping to 100%
/// between 0.1 and 0.4 of the transient.
pub fn fuel_schedule(exec: &ExecutiveEngine) -> Result<Schedule, String> {
    let wf = exec.engine.design.wf;
    Schedule::new(vec![(0.0, 0.92 * wf), (0.1 * T_END, 0.92 * wf), (0.4 * T_END, wf)])
        .map_err(|e| e.to_string())
}

/// Virtual clock of the engine: the bypass-duct line's `now()`.
pub fn vnow(exec: &mut ExecutiveEngine) -> Result<f64, String> {
    match exec.exec_mut("bypass duct") {
        Some(Exec::Remote(r)) => Ok(r.line_mut().now()),
        _ => Err("bypass duct is not placed remotely".into()),
    }
}

fn sample_bits(s: &TransientSample) -> [u64; 7] {
    [s.t, s.n1, s.n2, s.wf, s.thrust, s.t4, s.w2].map(f64::to_bits)
}

/// Bit-exact comparison of two transients: `Err` names the first sample
/// that differs.
pub fn same_bits(got: &TransientResult, want: &TransientResult) -> Result<(), String> {
    if got.samples.len() != want.samples.len() {
        return Err(format!("{} samples, reference has {}", got.samples.len(), want.samples.len()));
    }
    for (i, (a, b)) in got.samples.iter().zip(&want.samples).enumerate() {
        if sample_bits(a) != sample_bits(b) {
            return Err(format!("sample {i} (t = {}) differs from the reference bit pattern", b.t));
        }
    }
    Ok(())
}

/// Sum of every counter whose name starts with `prefix`.
pub fn counter_sum(reg: &MetricsRegistry, prefix: &str) -> u64 {
    reg.counter_names(prefix).iter().map(|n| reg.counter(n)).sum()
}

/// The program's own transport/RPC counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// `net.msg.*`: logical messages.
    pub msgs: u64,
    /// `net.bytes.*`: logical payload bytes.
    pub bytes: u64,
    /// `net.batch.flushes.*`: link frames sent by the batcher.
    pub frames: u64,
    /// `net.batch.fill.*`: messages carried in those frames.
    pub fill: u64,
    /// `net.credit.stalls.*`: sends that waited for link credit.
    pub stalls: u64,
    /// `rpc.retries.policy`: call-policy retries.
    pub retries: u64,
    /// `engine.rollbacks`: checkpoint rollbacks.
    pub rollbacks: u64,
}

impl Counters {
    /// Read the counters from a live registry.
    pub fn read(reg: &MetricsRegistry) -> Self {
        Self {
            msgs: counter_sum(reg, "net.msg."),
            bytes: counter_sum(reg, "net.bytes."),
            frames: counter_sum(reg, "net.batch.flushes."),
            fill: counter_sum(reg, "net.batch.fill."),
            stalls: counter_sum(reg, "net.credit.stalls."),
            retries: reg.counter("rpc.retries.policy"),
            rollbacks: reg.counter("engine.rollbacks"),
        }
    }

    /// Read the counters from a `snapshot_json` export (a session
    /// report's metrics).
    pub fn from_snapshot(json: &str) -> Self {
        let mut c = Self::default();
        let body = json.split("\"counters\": {").nth(1).and_then(|s| s.split('}').next());
        for line in body.unwrap_or("").lines() {
            let Some((name, value)) = line.trim().trim_end_matches(',').split_once(": ") else {
                continue;
            };
            let name = name.trim_matches('"');
            let Ok(v) = value.parse::<u64>() else { continue };
            let slot = match name {
                n if n.starts_with("net.msg.") => &mut c.msgs,
                n if n.starts_with("net.bytes.") => &mut c.bytes,
                n if n.starts_with("net.batch.flushes.") => &mut c.frames,
                n if n.starts_with("net.batch.fill.") => &mut c.fill,
                n if n.starts_with("net.credit.stalls.") => &mut c.stalls,
                "rpc.retries.policy" => &mut c.retries,
                "engine.rollbacks" => &mut c.rollbacks,
                _ => continue,
            };
            *slot += v;
        }
        c
    }

    /// These counts plus `other`'s.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            msgs: self.msgs + other.msgs,
            bytes: self.bytes + other.bytes,
            frames: self.frames + other.frames,
            fill: self.fill + other.fill,
            stalls: self.stalls + other.stalls,
            retries: self.retries + other.retries,
            rollbacks: self.rollbacks + other.rollbacks,
        }
    }

    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            frames: self.frames - earlier.frames,
            fill: self.fill - earlier.fill,
            stalls: self.stalls - earlier.stalls,
            retries: self.retries - earlier.retries,
            rollbacks: self.rollbacks - earlier.rollbacks,
        }
    }
}
