//! `flood`: a seeded 2,048-variant duct sweep over 8 lines.
//!
//! Eight lines on the UA Sparc 10 flood duct evaluations on the LeRC
//! RS6000 in split-phase waves (`issue` all, then `collect` all), with
//! default link batching on, so every round's requests coalesce into
//! shared frames. One caller repeats the sweep on a warm world (closed
//! loop). The reference checksum comes from an unbatched sweep of the
//! same seed, computed during set-up.

use std::time::Instant;

use netsim::LinkConfig;
use npss::sweep::{SweepConfig, SweepDriver};
use schooner::{Schooner, SchoonerConfig};

use crate::common::{secs, Counters, SetupTimes, SETUP_EVERY, SETUP_FIRST};
use crate::inputs;
use crate::report::{Clock, Metrics, Tally};
use crate::stats::median;
use crate::tracer::{maybe, Tracer};

/// Variants per sweep.
pub const VARIANTS: usize = 2048;
/// Parallel lines (the wave width).
pub const LINES: usize = 8;
/// Unbatched sweeps timed during set-up, for comparison only.
const UNBATCHED_SWEEPS: usize = 5;

fn config(seed: u64) -> SweepConfig {
    SweepConfig {
        lines: LINES,
        variants: VARIANTS,
        seed: inputs::flood_seed(seed),
        ..SweepConfig::default()
    }
}

fn world(batched: bool, tracer: Option<&Tracer>) -> Result<Schooner, String> {
    let config = if batched {
        SchoonerConfig::builder().link_batching(LinkConfig::default()).build()
    } else {
        SchoonerConfig::default()
    };
    maybe(tracer, "schooner.world_start", || Schooner::standard_with(config))
        .map_err(|e| e.to_string())
}

/// A ready sweep: world, install, and the lines with their duct
/// processes started.
fn ready(
    seed: u64,
    batched: bool,
    tracer: Option<&Tracer>,
) -> Result<(Schooner, SweepDriver), String> {
    let sch = world(batched, tracer)?;
    let driver = maybe(tracer, "npss.sweep_start", || SweepDriver::start(&sch, config(seed)))?;
    Ok((sch, driver))
}

fn stop((sch, mut driver): (Schooner, SweepDriver)) {
    driver.shutdown();
    sch.shutdown();
}

/// A warm batched world with the sweep's lines open.
pub struct Flood {
    sch: Schooner,
    driver: SweepDriver,
    reference: u64,
    last_makespan: f64,
}

impl Flood {
    /// Compute the unbatched reference checksum (and, for comparison
    /// with the batched units, the unbatched sweep's wall time), then
    /// build the warm batched world.
    pub fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Self, String> {
        let mut plain = ready(seed, false, None)?;
        let reference = plain.1.run()?;
        let walls: Vec<f64> = (0..UNBATCHED_SWEEPS)
            .map(|_| {
                let t0 = Instant::now();
                plain.1.run().map(|_| secs(t0))
            })
            .collect::<Result<_, _>>()?;
        println!(
            "# flood: unbatched sweep {:.6} s wall (median of {UNBATCHED_SWEEPS}), {:.6} s virtual makespan",
            median(&walls),
            reference.makespan_s
        );
        stop(plain);
        let (sch, driver) = ready(seed, true, tracer)?;
        Ok(Self { sch, driver, reference: reference.checksum, last_makespan: 0.0 })
    }

    /// One unit: a full sweep, its checksum held to the unbatched
    /// reference. Returns wall seconds and the virtual seconds the sweep
    /// added to the lines' clocks.
    pub fn unit(&mut self, tracer: Option<&Tracer>) -> Result<(f64, f64), String> {
        let t0 = Instant::now();
        let report = maybe(tracer, "npss.sweep", || self.driver.run())?;
        let wall = secs(t0);
        self.sch.ctx().obs.clear_spans();
        let virt = report.makespan_s - self.last_makespan;
        self.last_makespan = report.makespan_s;
        if report.checksum != self.reference || report.variants != VARIANTS {
            return Err(format!(
                "flood: checksum {:016x} over {} variants, unbatched reference {:016x}",
                report.checksum, report.variants, self.reference
            ));
        }
        Ok((wall, virt))
    }

    /// Program counters of the world so far.
    pub fn counters(&self) -> Counters {
        Counters::read(self.sch.ctx().obs.metrics())
    }
}

/// The timed run: repeat sweeps until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let mut setups = SetupTimes::default();
    for _ in 0..SETUP_FIRST {
        setups.sample(|| ready(seed, true, None), stop)?;
    }
    let mut w = Flood::setup(seed, None)?;
    crate::begin_measure();
    let t0 = Instant::now();
    let (mut walls, mut virt) = (Vec::new(), Vec::new());
    while walls.is_empty() || secs(t0) < seconds {
        match w.unit(None) {
            Ok((wall, v)) => {
                walls.push(wall);
                virt.push(v);
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(e)),
        }
        if tally.attempted.is_multiple_of(SETUP_EVERY) {
            setups.sample(|| ready(seed, true, None), stop)?;
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

/// The traced run: spans around each sweep, per-sweep counters.
pub fn traced(seed: u64, seconds: f64, m: &mut Metrics, tracer: &Tracer) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut w = Flood::setup(seed, Some(tracer))?;
    let t0 = Instant::now();
    let mut unit = 0u64;
    let mut first = None;
    while unit == 0 || secs(t0) < seconds {
        unit += 1;
        tracer.set_unit(unit);
        let before = w.counters();
        match w.unit(Some(tracer)) {
            Ok((_, v)) => {
                tally.record(Ok(()));
                first.get_or_insert((w.counters().since(&before), v));
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    if let Some((c, v)) = first {
        crate::layers::put_unit_counters(m, &c, 1);
        m.put("npss.remote_calls", "count", Clock::Count, VARIANTS as f64, 0);
        m.put("npss.sweep.rounds", "count", Clock::Count, VARIANTS.div_ceil(LINES) as f64, 0);
        m.put("npss.virtual_s", "s_virtual", Clock::Virtual, v, 0);
    }
    Ok(tally)
}
