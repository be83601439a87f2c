//! `table2`: the paper's combined test through the full AVS stack.
//!
//! The F100 network with `RemotePlacement::table2()` (six remote module
//! instances across both sites) balances the engine and runs a 1.0 s
//! Modified-Euler transient at dt 0.02, sequentially scheduled over the
//! plain unbatched send path. One caller repeats the run on a warm world
//! (closed loop); the all-local run of the same network, computed once,
//! is the bit-exact reference. This is the paper's fixed run: it takes no
//! seed.

use std::sync::Arc;
use std::time::Instant;

use npss::experiments::table2::TABLE2_AVS_MACHINE;
use npss::{F100Network, RemotePlacement};
use schooner::Schooner;
use tess::transient::TransientResult;

use crate::common::{same_bits, secs, Counters, SetupTimes, DT, SETUP_EVERY, SETUP_FIRST, T_END};
use crate::report::{Clock, Metrics, Tally};
use crate::stats::median;
use crate::tracer::{maybe, Tracer};

/// A warm Table-2 world.
pub struct Table2 {
    sch: Arc<Schooner>,
    net: F100Network,
    reference: TransientResult,
}

fn build(tracer: Option<&Tracer>) -> Result<(Arc<Schooner>, F100Network), String> {
    let sch =
        maybe(tracer, "schooner.world_start", Schooner::standard).map_err(|e| e.to_string())?;
    let sch = Arc::new(sch);
    // `build` installs the adapted-module executables on every host.
    let mut net =
        maybe(tracer, "avs.network_build", || F100Network::build(sch.clone(), TABLE2_AVS_MACHINE))?;
    net.apply_placement(&RemotePlacement::table2())?;
    net.set_scheduling("sequential")?;
    Ok((sch, net))
}

impl Table2 {
    /// Build the warm world and compute the all-local reference on it.
    /// The F100 network starts its six remote processes inside every
    /// run, so a ready Table-2 world holds none yet.
    pub fn setup(tracer: Option<&Tracer>) -> Result<Self, String> {
        let (sch, net) = build(tracer)?;
        let mut local = F100Network::build(sch.clone(), TABLE2_AVS_MACHINE)?;
        local.apply_placement(&RemotePlacement::all_local())?;
        let reference = local.run("Modified Euler", T_END, DT)?;
        Ok(Self { sch, net, reference })
    }

    /// One unit: balance + transient over the Table-2 placement, checked
    /// bit for bit against the all-local reference. Returns the wall
    /// seconds, the virtual makespan and the remote call count.
    pub fn unit(&mut self, tracer: Option<&Tracer>) -> Result<(f64, f64, u64), String> {
        let t0 = Instant::now();
        let result = maybe(tracer, "avs.run", || self.net.run("Modified Euler", T_END, DT))?;
        let wall = secs(t0);
        // Completed call spans accumulate in the world's sink; drop them
        // so a long run's memory does not grow with the unit count.
        self.sch.ctx().obs.clear_spans();
        self.sch.ctx().obs.clear_events();
        same_bits(&result, &self.reference).map_err(|e| format!("table2: {e}"))?;
        let remote = self.net.report().into_iter().filter(|r| r.location != "local");
        let (calls, virt) =
            remote.fold((0, 0.0_f64), |(c, v), r| (c + r.calls, v.max(r.virtual_seconds)));
        Ok((wall, virt, calls))
    }

    /// Program counters of the world so far.
    pub fn counters(&self) -> Counters {
        Counters::read(self.sch.ctx().obs.metrics())
    }

    /// Turn the world's in-memory event log on or off.
    pub fn set_events(&self, on: bool) {
        self.sch.ctx().obs.set_enabled(on);
    }
}

/// The timed run: repeat units until `seconds` have passed.
pub fn run(seconds: f64, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let mut setups = SetupTimes::default();
    for _ in 0..SETUP_FIRST {
        setups.sample(|| build(None), drop)?;
    }
    let mut w = Table2::setup(None)?;
    crate::begin_measure();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut virt = Vec::new();
    while walls.is_empty() || secs(t0) < seconds {
        match w.unit(None) {
            Ok((wall, v, _)) => {
                walls.push(wall);
                virt.push(v);
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(e)),
        }
        if tally.attempted.is_multiple_of(SETUP_EVERY) {
            setups.sample(|| build(None), drop)?;
        }
    }
    setups.put(m);
    if !walls.is_empty() {
        m.put("wall_s", "s", Clock::Wall, median(&walls), walls.len());
        // One caller in a closed loop: throughput is the inverse of the
        // median unit time.
        m.put("throughput_per_s", "1/s", Clock::Wall, 1.0 / median(&walls), walls.len());
        m.put("virtual_s", "s", Clock::Virtual, virt[0], 1);
    }
    Ok(())
}

/// The traced run: per-unit counters, spans, and the tracing overhead
/// (traced units alternate with untraced ones).
pub fn traced(seconds: f64, m: &mut Metrics, tracer: &Tracer) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut w = Table2::setup(Some(tracer))?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first = None;
    let t0 = Instant::now();
    let mut unit = 0u64;
    while traced.is_empty() || secs(t0) < seconds {
        unit += 1;
        let trace_this = unit.is_multiple_of(2);
        w.set_events(trace_this);
        let before = w.counters();
        let outcome = if trace_this {
            tracer.set_unit(unit);
            w.unit(Some(tracer))
        } else {
            w.unit(None)
        };
        match outcome {
            Ok((wall, v, calls)) => {
                tally.record(Ok(()));
                if trace_this {
                    traced.push(wall);
                } else {
                    plain.push(wall);
                }
                first.get_or_insert((w.counters().since(&before), v, calls));
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    if let Some((c, v, calls)) = first {
        crate::layers::put_unit_counters(m, &c, 1);
        m.put("npss.remote_calls", "count", Clock::Count, calls as f64, 0);
        m.put("npss.virtual_s", "s_virtual", Clock::Virtual, v, 0);
    }
    if !plain.is_empty() && !traced.is_empty() {
        m.put("bench.untraced_wall_s", "s", Clock::Wall, median(&plain), plain.len());
        m.put("bench.traced_wall_s", "s", Clock::Wall, median(&traced), traced.len());
    }
    Ok(tally)
}
