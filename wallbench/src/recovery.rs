//! `recovery`: the journaled crash-and-replay flow in one process.
//!
//! A journaled Table-2 transient runs while the Cray hosting both ducts
//! crashes for good at a seeded point 40–70% into the transient's virtual
//! window (calibrated on a clean run during set-up). The run aborts with
//! a typed error. The journal is then opened and replayed, a fresh world
//! is seeded from it, and the transient is finished through
//! `recover_from_journal`; the recovered transcript must be bit-identical
//! to the uninterrupted reference.
//!
//! Each run starts [`DOOMED`] doomed transients at once, one per stratum
//! of the crash window, in worlds of their own (most of an abort is a
//! wall-clock reply deadline, so they wait side by side). It then
//! recovers from their journals in turn until the run's time is up; every
//! recovery starts from a pristine copy of its journal.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ledger::{RecordTag, Repository};
use netsim::FaultPlan;
use tess::transient::{TransientMethod, TransientResult};

use crate::common::{
    fuel_schedule, npss_world, same_bits, secs, stop_table2_world, table2_engine, table2_world,
    vnow, Counters, SetupTimes, DT, SETUP_FIRST, T_END,
};
use crate::inputs;
use crate::report::{Clock, Metrics, Tally};
use crate::stats::{mean, median};
use crate::tracer::{maybe, Tracer};

/// Doomed transients per run, one per stratum of the 40–70% window.
pub const DOOMED: usize = 8;
/// An abort at least this long waited out a reply deadline (the default
/// `reply_timeout` is 10 s; a fast abort takes well under a second).
const DEADLINE_BOUND_S: f64 = 5.0;
/// Recoveries per journal at the least, even past the run's seconds (the
/// doomed runs alone can take a 10 s deadline).
const RECOVERIES_PER_JOURNAL: usize = 3;
/// The host that crashes.
pub const CRASH_HOST: &str = "lerc-cray-ymp";

/// The clean calibration run: reference transcript, virtual window,
/// and wall time.
struct Calibration {
    reference: TransientResult,
    t_start: f64,
    t_stop: f64,
    wall_s: f64,
}

fn calibrate() -> Result<Calibration, String> {
    let sch = npss_world()?;
    let mut exec = table2_engine(&sch)?;
    let fuel = fuel_schedule(&exec)?;
    let t_start = vnow(&mut exec)?;
    let t0 = Instant::now();
    let reference = exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END)?;
    let wall_s = secs(t0);
    let t_stop = vnow(&mut exec)?;
    exec.shutdown();
    sch.shutdown();
    Ok(Calibration { reference, t_start, t_stop, wall_s })
}

/// What one doomed run left behind.
struct Doomed {
    journal: PathBuf,
    abort_s: f64,
    stop_s: f64,
    counters: Counters,
}

fn doomed(journal: PathBuf, t_crash: f64) -> Result<Doomed, String> {
    let sch = npss_world()?;
    sch.attach_journal(&journal).map_err(|e| e.to_string())?;
    let mut exec = table2_engine(&sch)?;
    exec.max_recoveries = 0;
    let fuel = fuel_schedule(&exec)?;
    sch.ctx().net.set_fault_plan(Some(FaultPlan::new(0xF100).host_crash(CRASH_HOST, t_crash)));
    let t0 = Instant::now();
    let outcome = exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END);
    let abort_s = secs(t0);
    if outcome.is_ok() {
        return Err(format!("recovery: transient survived a crash at t = {t_crash:.3} s"));
    }
    let counters = Counters::read(sch.ctx().obs.metrics());
    let t1 = Instant::now();
    drop(exec);
    sch.shutdown();
    Ok(Doomed { journal, abort_s, stop_s: secs(t1), counters })
}

/// One recovery from a pristine copy of `journal`: wall seconds, the
/// recovered transient, its virtual end, remote calls, and the replay
/// time alone.
fn recover(
    journal: &Path,
    scratch: &Path,
    tracer: Option<&Tracer>,
) -> Result<(f64, TransientResult, f64, u64, f64), String> {
    fs::copy(journal, scratch).map_err(|e| format!("copy journal: {e}"))?;
    let t0 = Instant::now();
    let repo =
        maybe(tracer, "ledger.open", || Repository::open(scratch)).map_err(|e| e.to_string())?;
    let replay_s = secs(t0);
    let sch = maybe(tracer, "schooner.world_start", npss_world)?;
    sch.resume_journal(scratch).map_err(|e| e.to_string())?;
    sch.seed_recovery(&repo);
    let mut exec = maybe(tracer, "schooner.process_start", || table2_engine(&sch))?;
    let fuel = fuel_schedule(&exec)?;
    let result = maybe(tracer, "npss.recover", || {
        exec.recover_from_journal(&repo, &fuel, TransientMethod::ImprovedEuler, DT, T_END)
    })?;
    let wall = secs(t0);
    let virt = vnow(&mut exec)?;
    let calls = exec.report_rows().iter().filter(|r| r.location != "local").map(|r| r.calls).sum();
    maybe(tracer, "schooner.world_stop", || {
        exec.shutdown();
        sch.shutdown();
    });
    Ok((wall, result, virt, calls, replay_s))
}

/// Run the workload; `tracer` adds spans and the per-layer rows.
pub fn run(
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let mut setups = SetupTimes::default();
    for _ in 0..SETUP_FIRST {
        setups.sample(table2_world, stop_table2_world)?;
    }
    let cal = calibrate()?;
    let window = cal.t_stop - cal.t_start;
    let fracs = inputs::crash_fractions(seed, DOOMED);
    let dir = crate::work_dir()?;

    crate::begin_measure();
    let t0 = Instant::now();
    let handles: Vec<_> = fracs
        .iter()
        .enumerate()
        .map(|(k, &f)| {
            let journal = dir.join(format!("doomed-{k}.journal"));
            let t_crash = cal.t_start + f * window;
            std::thread::spawn(move || doomed(journal, t_crash))
        })
        .collect();
    // The doomed runs spend most of their time waiting on a reply
    // deadline; time set-ups meanwhile, spread over the wait.
    while handles.iter().any(|h| !h.is_finished()) {
        setups.sample(table2_world, stop_table2_world)?;
        std::thread::sleep(std::time::Duration::from_millis(150));
    }
    setups.put(m);
    let mut runs = Vec::new();
    for (k, h) in handles.into_iter().enumerate() {
        let outcome = h.join().map_err(|_| format!("recovery: doomed run {k} panicked"))?;
        match outcome {
            Ok(d) => {
                tally.record(Ok(()));
                if let Some(t) = tracer {
                    let end = t0 + std::time::Duration::from_secs_f64(d.abort_s);
                    t.record("npss.doomed_transient", k as u64, t0, end);
                }
                runs.push((k, d));
            }
            Err(e) => tally.record(Err(format!("recovery: doomed run {k}: {e}"))),
        }
    }
    if runs.is_empty() {
        return Err("recovery: no doomed run left a journal".into());
    }

    // Recovery wall times per journal, and each journal's virtual end and
    // remote calls.
    let mut walls = vec![Vec::new(); runs.len()];
    let mut virts = vec![0.0; runs.len()];
    let mut calls = vec![0; runs.len()];
    let mut replays = Vec::new();
    let mut i = 0;
    while i < RECOVERIES_PER_JOURNAL * runs.len() || secs(t0) < seconds {
        let j = i % runs.len();
        let (k, d) = &runs[j];
        i += 1;
        if let Some(t) = tracer {
            t.set_unit((DOOMED + i) as u64);
        }
        let scratch = dir.join(format!("recover-{k}.journal"));
        match recover(&d.journal, &scratch, tracer) {
            Ok((wall, result, virt, c, replay_s)) => {
                let check = same_bits(&result, &cal.reference)
                    .map_err(|e| format!("recovery: journal {k}: {e}"));
                tally.record(check);
                walls[j].push(wall);
                virts[j] = virt;
                replays.push(replay_s);
                calls[j] = c;
            }
            Err(e) => tally.record(Err(format!("recovery: journal {k}: {e}"))),
        }
    }

    // Aborts are bimodal: a crash that lands while a call to the host is
    // in flight waits out the wall-clock reply deadline, one between calls
    // fails fast. The mean keeps the deadline-bound share visible.
    let aborts: Vec<f64> = runs.iter().map(|(_, d)| d.abort_s).collect();
    m.put("abort_s", "s", Clock::Wall, mean(&aborts), aborts.len());
    // `recover_s` is the mean over the journals of each journal's median:
    // the median tames host noise, and the mean over the mirrored crash
    // points keeps the figure from stepping with the seed as crash points
    // cross checkpoint barriers.
    let done: Vec<&Vec<f64>> = walls.iter().filter(|w| !w.is_empty()).collect();
    let n: usize = done.iter().map(|w| w.len()).sum();
    if n > 0 {
        let recover = mean(&done.iter().map(|w| median(w)).collect::<Vec<_>>());
        m.put("recover_s", "s", Clock::Wall, recover, n);
        m.put("wall_s", "s", Clock::Wall, recover, n);
        m.put("throughput_per_s", "1/s", Clock::Wall, 1.0 / recover, n);
        m.put("virtual_s", "s", Clock::Virtual, mean(&virts), virts.len());
    }

    if tracer.is_some() {
        let (_, first) = &runs[0];
        let repo = Repository::open(&first.journal).map_err(|e| e.to_string())?;
        let bytes = fs::metadata(&first.journal).map(|md| md.len()).unwrap_or(0);
        let barriers = repo.counts_by_tag().get(&RecordTag::Barrier).copied().unwrap_or(0);
        m.put("ledger.records", "count", Clock::Count, repo.len() as f64, 0);
        m.put("ledger.bytes", "count", Clock::Count, bytes as f64, 0);
        m.put("npss.checkpoints", "count", Clock::Count, barriers as f64, 0);
        m.put("npss.remote_calls", "count", Clock::Count, calls[0] as f64, 0);
        if !replays.is_empty() {
            m.put("ledger.replay_ms", "ms", Clock::Wall, 1e3 * median(&replays), replays.len());
        }
        m.put("npss.virtual_s", "s_virtual", Clock::Virtual, virts[0], 0);
        crate::layers::put_unit_counters(m, &first.counters, 1);
        // Clean wall time to the crash point, estimated as that share of
        // the clean run's wall time.
        let waits: Vec<f64> =
            runs.iter().map(|(k, d)| d.abort_s - cal.wall_s * fracs[*k]).collect();
        m.put("schooner.line.deadline_wait_s", "s", Clock::Wall, mean(&waits), waits.len());
        let bound = aborts.iter().filter(|&&a| a >= DEADLINE_BOUND_S).count();
        m.put("schooner.line.deadline_aborts", "count", Clock::Count, bound as f64, aborts.len());
        let stops: Vec<f64> = runs.iter().map(|(_, d)| 1e3 * d.stop_s).collect();
        m.put("schooner.world_stop_crashed_ms", "ms", Clock::Wall, median(&stops), stops.len());
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(())
}
