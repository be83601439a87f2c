//! The metrics registry is part of the deterministic surface: two
//! identical seeded runs — including fault injection and the recovery
//! machinery it triggers — must export **byte-identical** JSON
//! snapshots. The determinism CI relies on this the same way it relies
//! on the event transcripts, and the `costs --metrics` output would be
//! useless for regression diffing otherwise.
//!
//! Metric keys are aggregated per *host pair* (never per process
//! address), so respawned incarnations with fresh proc ids land in the
//! same counters on every run.

use netsim::FaultPlan;
use npss::engine_exec::Scheduling;
use npss::service::{table2_engine, table2_fuel, table2_world, vnow};
use schooner::{CallPolicy, SchoonerConfig};
use tess::transient::TransientMethod;

const T_END: f64 = 0.4;
const DT: f64 = 0.02;

/// One complete seeded faulty run in a fresh world, returning the
/// metrics snapshot taken after shutdown. The Cray crashes mid-run and
/// reboots inside the call policy's backoff budget, so the snapshot
/// covers retries, supervision probes, a respawn, and the resumed
/// transient — the full recovery surface.
fn faulty_run_snapshot(crash_window: Option<(f64, f64)>) -> (String, f64, f64) {
    let policy = CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0);
    let sch = table2_world(SchoonerConfig::default()).unwrap();
    let mut exec = table2_engine(&sch, &policy, 4, Scheduling::Sequential).unwrap();
    let t_start = vnow(&mut exec).unwrap();
    if let Some((t_crash, t_restart)) = crash_window {
        sch.ctx().net.set_fault_plan(Some(
            FaultPlan::new(0xF1D0)
                .host_crash("lerc-cray-ymp", t_crash)
                .host_restart("lerc-cray-ymp", t_restart),
        ));
    }
    let fuel = table2_fuel(&exec.engine, T_END).unwrap();
    exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END).unwrap();
    let t_stop = vnow(&mut exec).unwrap();
    exec.shutdown();
    sch.ctx().net.set_fault_plan(None);
    let snapshot = sch.ctx().obs.metrics().snapshot_json();
    sch.shutdown();
    (snapshot, t_start, t_stop)
}

/// Two independent worlds running the same seeded faulty transient must
/// export byte-identical metrics snapshots.
#[test]
fn faulty_table2_metrics_snapshots_are_byte_identical() {
    // Learn the run's virtual-time span from a clean run, then schedule
    // the crash a little past mid-run in both faulted worlds.
    let (clean, t_start, t_stop) = faulty_run_snapshot(None);
    let t_crash = t_start + 0.55 * (t_stop - t_start);
    let window = Some((t_crash, t_crash + 2.0));

    let (a, _, _) = faulty_run_snapshot(window);
    let (b, _, _) = faulty_run_snapshot(window);
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "snapshots diverge at line {i}");
    }
    assert_eq!(a, b, "seeded faulty runs must export identical metrics snapshots");

    // The faulted snapshot must actually record the fault machinery —
    // otherwise this test could pass vacuously on two empty registries.
    assert_ne!(a, clean, "the crash window must leave a mark on the metrics");
    assert!(a.contains("\"net.fault.hostdown\""), "expected host-down drops in:\n{a}");
    assert!(a.contains("\"rpc.retries.policy\""), "expected policy retries in:\n{a}");
    assert!(a.contains("\"rpc.calls\""), "expected call counters in:\n{a}");
    assert!(a.contains("\"rpc.call_s.ua-sparc10->lerc-cray-ymp\""), "expected histograms in:\n{a}");
}
