//! Tests of the benchmark's own machinery: percentiles, open-loop timing,
//! seeded inputs, the peak-RSS reset and the counter readers.

use std::time::Duration;

use netsim::MetricsRegistry;
use schooner::{PoolConfig, SessionPool};
use wallbench::common::Counters;
use wallbench::inputs::{arrivals, crash_fractions, flood_seed, session_templates};
use wallbench::openloop::{drive, Offer, Stamped};
use wallbench::proc_stat::{peak_rss_mb, reset_peak_rss, rss_mb};
use wallbench::stats::{median, percentile, MIN_TAIL};

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!(percentile(&xs, 95.0).is_err(), "p95 of 100 samples has only 5 beyond it");
    assert_eq!(percentile(&xs, 90.0), Ok(90.0), "p90 of 100 has exactly ten beyond");
    let ys: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&ys, 95.0), Ok(190.0));
    assert!(percentile(&ys[..15], 50.0).is_err(), "p50 of 15 has 7 beyond it");
    assert!(percentile(&[], 50.0).is_err());
    assert_eq!(MIN_TAIL, 10);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn open_loop_latency_runs_from_due_time_through_a_stall() {
    let pool: SessionPool<Stamped<u32>> =
        SessionPool::start(PoolConfig { workers: 1, queue_capacity: 16, ..PoolConfig::default() })
            .unwrap();
    let stall = Duration::from_millis(200);
    let offers: Vec<Offer<Box<dyn FnOnce() -> u32 + Send>>> = (0..5u32)
        .map(|i| Offer {
            due_s: 0.01 * f64::from(i),
            tenant: "t".into(),
            job: Box::new(move || {
                if i == 0 {
                    std::thread::sleep(stall);
                }
                i
            }) as Box<dyn FnOnce() -> u32 + Send>,
        })
        .collect();
    let (out, _) = drive(&pool, offers);
    assert_eq!(out.len(), 5);
    assert!(out.iter().all(|o| o.rejected.is_none()));
    for (i, o) in out.iter().enumerate().skip(1) {
        assert_eq!(o.value, Some(i as u32));
        let lat = o.latency_s().unwrap();
        // Due at 10*i ms, yet it cannot start before the stalled job ends
        // at ~200 ms: the wait the stall imposed is part of its latency.
        assert!(lat >= 0.2 - 0.01 * i as f64 - 0.005, "request {i}: latency {lat}");
        assert!(o.wait_s().unwrap() >= 0.1, "request {i} queued behind the stall");
        assert!(o.service_s().unwrap() < 0.1, "request {i} itself is quick");
    }
    assert!(out[0].service_s().unwrap() >= 0.2);
}

#[test]
fn generated_inputs_are_a_pure_function_of_the_seed() {
    assert_eq!(session_templates(7), session_templates(7));
    assert_ne!(session_templates(7), session_templates(8));
    assert_eq!(arrivals(7, 1, 28.0, 5.0), arrivals(7, 1, 28.0, 5.0));
    assert_ne!(arrivals(7, 1, 28.0, 5.0), arrivals(7, 2, 28.0, 5.0));
    assert_eq!(crash_fractions(7, 4), crash_fractions(7, 4));
    assert_ne!(crash_fractions(7, 4), crash_fractions(8, 4));
    assert_eq!(flood_seed(7), flood_seed(7));
    assert_ne!(flood_seed(7), flood_seed(8));
    for seed in 0..50 {
        let f = crash_fractions(seed, 8);
        for (k, x) in f.iter().enumerate() {
            let lo = 0.40 + 0.0375 * k as f64;
            assert!((lo..=lo + 0.0375).contains(x), "seed {seed}: point {k} = {x}");
            assert!((x + f[7 - k] - 1.1).abs() < 1e-12, "seed {seed}: points mirror");
        }
        let plan = arrivals(seed, 1, 28.0, 10.0);
        assert!(plan.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(plan.iter().all(|a| a.due_s < 10.0));
    }
}

#[test]
fn peak_rss_reset_forgets_an_earlier_peak() {
    const MB: usize = 1 << 20;
    let block = vec![1u8; 96 * MB];
    std::hint::black_box(&block);
    let with_block = peak_rss_mb().unwrap();
    drop(block);
    reset_peak_rss().expect("clear_refs is writable for this process");
    let after = peak_rss_mb().unwrap();
    assert!(after < with_block - 48.0, "peak {with_block} MB before the reset, {after} MB after");
    assert!(after <= rss_mb().unwrap() + 48.0);
}

#[test]
fn snapshot_counters_match_the_live_registry() {
    let reg = MetricsRegistry::new();
    reg.counter_add("net.msg.a->b", 3);
    reg.counter_add("net.msg.b->a", 2);
    reg.counter_add("net.bytes.a->b", 100);
    reg.counter_add("net.batch.flushes.a->b", 1);
    reg.counter_add("net.batch.fill.a->b", 3);
    reg.counter_add("rpc.retries.policy", 4);
    reg.observe("rpc.call_s.a->b", 1e-3);
    let live = Counters::read(&reg);
    assert_eq!(live, Counters::from_snapshot(&reg.snapshot_json()));
    assert_eq!((live.msgs, live.bytes, live.frames, live.fill, live.retries), (5, 100, 1, 3, 4));
}
