//! Per-layer rows, each timed alone through the layer's public function,
//! and their reconciliation against one echo RPC.
//!
//! Every row is a median over batches after a warm-up batch. The echo
//! RPC (one line, `ua-sparc10` -> `lerc-rs6000`, a procedure with the
//! duct's signature that returns its flow argument) is then compared with
//! the sum of the rows one call passes through; what the rows do not
//! explain is printed as `schooner.line.unattributed_us`.

use std::fs;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ledger::{Journal, RecordKind};
use netsim::{MetricsRegistry, Network};
use npss::sweep::flight_profile;
use npss::{
    procs, ComponentCall, ExecutiveEngine, F100Network, LocalExec, RemoteExec, RemotePlacement,
};
use schooner::message::Msg;
use schooner::stub::CompiledStub;
use schooner::{FnProcedure, Obs, Phase, ProgramImage, Schooner};
use tess::engine::Turbofan;
use tess::transient::TransientMethod;
use uts::{Architecture, Value, WIRE_V2};

use crate::common::{fuel_schedule, npss_world, secs, Counters, AVS_HOST, DT, TABLE2_SLOTS, T_END};
use crate::inputs;
use crate::proc_stat;
use crate::report::{Clock, Metrics};
use crate::stats::{median, percentile};

/// Batches per row (after one warm-up batch).
const BATCHES: usize = 15;
/// Echo calls timed one by one.
const ECHO_CALLS: usize = 3000;
/// Where the echo procedure runs.
const ECHO_HOST: &str = "lerc-rs6000";

/// Median per-operation nanoseconds of `op(i)`, `reps` operations per
/// batch.
fn per_op_ns(reps: usize, mut op: impl FnMut(usize)) -> (f64, usize) {
    let mut batch = |base: usize| {
        let t0 = Instant::now();
        for i in 0..reps {
            op(base + i);
        }
        t0.elapsed().as_nanos() as f64 / reps as f64
    };
    batch(0);
    let samples: Vec<f64> = (1..=BATCHES).map(|b| batch(b * reps)).collect();
    (median(&samples), samples.len())
}

/// Per-unit transport and RPC counts.
pub fn put_unit_counters(m: &mut Metrics, c: &Counters, units: u64) {
    let per = |x: u64| x as f64 / units.max(1) as f64;
    m.put("netsim.msgs", "count", Clock::Count, per(c.msgs), 0);
    m.put("netsim.bytes", "count", Clock::Count, per(c.bytes), 0);
    m.put("netsim.link.frames", "count", Clock::Count, per(c.frames), 0);
    let fill = if c.frames > 0 { c.fill as f64 / c.frames as f64 } else { 0.0 };
    m.put("netsim.link.mean_fill", "count", Clock::Count, fill, 0);
    m.put("netsim.link.credit_stalls", "count", Clock::Count, per(c.stalls), 0);
    m.put("schooner.line.retries", "count", Clock::Count, per(c.retries), 0);
    m.put("npss.rollbacks", "count", Clock::Count, per(c.rollbacks), 0);
}

fn echo_image() -> Result<ProgramImage, String> {
    let spec = r#"export echo prog(
        "flow"   val array[4] of float,
        "dpfrac" val float,
        "q"      val float,
        "out"    res array[4] of float)"#;
    ProgramImage::new("echo", spec)
        .and_then(|img| {
            img.with_procedure("echo", || {
                Box::new(FnProcedure::new(|args: &[Value]| Ok(vec![args[0].clone()])))
            })
        })
        .map_err(|e| e.to_string())
}

/// Time every layer row and the echo RPC, then reconcile.
pub fn measure(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let points = flight_profile(inputs::flood_seed(seed), 64);
    let args: Vec<Vec<Value>> = points.iter().map(|p| p.duct_args()).collect();

    // uts: the duct's compiled plan, ieee_be (Sparc) -> cray.
    let spec = uts::parse_spec_file(procs::DUCT_SPEC).map_err(|e| e.to_string())?;
    let stub = CompiledStub::compile(spec.find("duct").ok_or("duct spec")?);
    let encode = |a: &[Value]| stub.marshal_inputs_wire(a, Architecture::SunSparc10, WIRE_V2);
    let wires: Vec<Bytes> =
        args.iter().map(|a| encode(a)).collect::<Result<_, _>>().map_err(|e| e.to_string())?;
    let (enc_ns, n) = per_op_ns(2000, |i| {
        std::hint::black_box(encode(&args[i % args.len()]).ok());
    });
    m.put("uts.plan_encode_ns", "ns", Clock::Wall, enc_ns, n);
    let (dec_ns, n) = per_op_ns(2000, |i| {
        let w = wires[i % wires.len()].clone();
        std::hint::black_box(stub.unmarshal_inputs_any(w, Architecture::CrayYmp).ok());
    });
    m.put("uts.plan_decode_ns", "ns", Clock::Wall, dec_ns, n);
    m.put("uts.bytes_per_call", "count", Clock::Count, wires[0].len() as f64, 0);

    // schooner: one call request through the message codec.
    let msgs: Vec<Msg> = wires
        .iter()
        .enumerate()
        .map(|(i, w)| Msg::CallRequest {
            call: i as u64,
            line: 1,
            proc_name: "duct".into(),
            args: w.clone(),
            reply_to: format!("{AVS_HOST}:line-1"),
        })
        .collect();
    let (codec_ns, n) = per_op_ns(2000, |i| {
        let bytes = msgs[i % msgs.len()].encode();
        std::hint::black_box(Msg::decode(bytes).ok());
    });
    m.put("schooner.msg_codec_ns", "ns", Clock::Wall, codec_ns, n);

    // netsim: send + receive on one thread, then a cross-thread echo.
    let net = Network::new(netsim::npss_testbed());
    let a = net.register(format!("{AVS_HOST}:bench-a")).map_err(|e| e.to_string())?;
    let b = net.register(format!("{ECHO_HOST}:bench-b")).map_err(|e| e.to_string())?;
    let payload = msgs[0].encode();
    let (send_ns, n) = per_op_ns(2000, |_| {
        a.send(b.addr(), payload.clone(), 0.0).expect("testbed route");
        std::hint::black_box(b.recv(Duration::from_secs(1)).ok());
    });
    m.put("netsim.send_recv_ns", "ns", Clock::Wall, send_ns, n);
    let a_addr = a.addr().to_owned();
    let echo = std::thread::spawn(move || {
        while let Ok(env) = b.recv(Duration::from_secs(5)) {
            if env.payload.is_empty() {
                break;
            }
            let _ = b.send(&a_addr, env.payload, env.arrive_at);
        }
    });
    let b_addr = format!("{ECHO_HOST}:bench-b");
    let (rtt_ns, n) = per_op_ns(500, |_| {
        a.send(&b_addr, payload.clone(), 0.0).expect("testbed route");
        std::hint::black_box(a.recv(Duration::from_secs(5)).ok());
    });
    let _ = a.send(&b_addr, Bytes::new(), 0.0);
    echo.join().map_err(|_| "netsim echo thread panicked")?;
    m.put("netsim.handoff_rtt_us", "us", Clock::Wall, rtt_ns / 1e3, n);

    // netsim metrics registry: the hot-path calls.
    let reg = MetricsRegistry::new();
    let (from, to) = (AVS_HOST.to_owned(), ECHO_HOST.to_owned());
    let (add_ns, n) = per_op_ns(5000, |_| reg.counter_add(&format!("net.msg.{from}->{to}"), 1));
    m.put("netsim.metrics.counter_add_ns", "ns", Clock::Wall, add_ns, n);
    let (obs_ns, n) =
        per_op_ns(5000, |i| reg.observe("rpc.call_s.ua-sparc10->lerc-rs6000", i as f64 * 1e-9));
    m.put("netsim.metrics.observe_ns", "ns", Clock::Wall, obs_ns, n);

    // schooner obs: a call span's open, one phase, close.
    let obs = Obs::new();
    let (span_ns, n) = per_op_ns(2000, |i| {
        let call = i as u64;
        obs.span_start(1, call, "duct", AVS_HOST, "lerc-cray-ymp", 0.0);
        obs.span_phase(1, call, Phase::Marshal, 1e-6);
        obs.span_end(1, call, 1e-3);
        if i % 1000 == 999 {
            obs.clear_spans();
        }
    });
    m.put("schooner.obs.span_ns", "ns", Clock::Wall, span_ns, n);

    // ledger: appends of a transient sample to a scratch journal.
    let dir = crate::work_dir()?;
    let path = dir.join("append.journal");
    let journal = Journal::create(&path).map_err(|e| e.to_string())?;
    let (append_ns, n) = per_op_ns(2000, |i| {
        let values = vec![i as f64 * 0.02, 0.9, 0.95, 1.1, 11_000.0, 2_700.0, 220.0];
        journal.append(i as f64 * 0.02, RecordKind::Sample { values }).expect("journal append");
    });
    drop(journal);
    let _ = fs::remove_file(&path);
    m.put("ledger.append_ns", "ns", Clock::Wall, append_ns, n);

    // tess: the duct physics through the local executor.
    let mut duct = LocalExec::new(&procs::duct_image())?;
    let (duct_ns, n) = per_op_ns(2000, |i| {
        std::hint::black_box(duct.call("duct", &args[i % args.len()]).ok());
    });
    m.put("tess.duct_compute_us", "us", Clock::Wall, duct_ns / 1e3, n);

    // tess and avs: the all-local transient, bare and through the network.
    let mut bare = Vec::new();
    let mut through_avs = Vec::new();
    let sch = std::sync::Arc::new(Schooner::standard().map_err(|e| e.to_string())?);
    let mut local_net = F100Network::build(sch.clone(), AVS_HOST)?;
    local_net.apply_placement(&RemotePlacement::all_local())?;
    for _ in 0..6 {
        let mut exec = ExecutiveEngine::all_local(Turbofan::f100().map_err(|e| e.to_string())?)?;
        let fuel = fuel_schedule(&exec)?;
        let t0 = Instant::now();
        exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END)?;
        bare.push(secs(t0));
        let t0 = Instant::now();
        local_net.run("Modified Euler", T_END, DT)?;
        through_avs.push(secs(t0));
    }
    drop(local_net);
    let (bare, through_avs) = (median(&bare[1..]), median(&through_avs[1..]));
    m.put("tess.local_transient_ms", "ms", Clock::Wall, 1e3 * bare, 5);
    m.put("avs.settle_ms", "ms", Clock::Wall, 1e3 * (through_avs - bare), 5);

    // schooner world lifecycle, with the Table-2 processes.
    let mut world_start = Vec::new();
    let mut process_start = Vec::new();
    let mut world_stop = Vec::new();
    let mut snapshot = Vec::new();
    let mut threads = 0.0;
    for _ in 0..5 {
        let before = proc_stat::threads().unwrap_or(0);
        let t0 = Instant::now();
        let w = Schooner::standard().map_err(|e| e.to_string())?;
        world_start.push(secs(t0));
        w.shutdown();
        let w = npss_world()?;
        let mut exec = ExecutiveEngine::all_local(Turbofan::f100().map_err(|e| e.to_string())?)?;
        for (slot, path, machine) in TABLE2_SLOTS {
            let t0 = Instant::now();
            let line = w.open_line(slot, AVS_HOST).map_err(|e| e.to_string())?;
            let remote = RemoteExec::start(line, path, machine).map_err(|e| e.to_string())?;
            process_start.push(secs(t0));
            exec.set_remote(slot, remote)?;
        }
        threads = proc_stat::threads().unwrap_or(0).saturating_sub(before) as f64;
        exec.balance(0.95 * exec.engine.design.wf)?;
        let registry = w.ctx().obs.metrics();
        let (snap_ns, _) = per_op_ns(20, |_| {
            std::hint::black_box(registry.snapshot_json());
        });
        snapshot.push(snap_ns);
        let t0 = Instant::now();
        exec.shutdown();
        w.shutdown();
        world_stop.push(secs(t0));
    }
    m.put("schooner.world_start_us", "us", Clock::Wall, 1e6 * median(&world_start), 5);
    m.put(
        "schooner.process_start_us",
        "us",
        Clock::Wall,
        1e6 * median(&process_start),
        process_start.len(),
    );
    m.put("schooner.world_stop_us", "us", Clock::Wall, 1e6 * median(&world_stop), 5);
    m.put("schooner.threads_per_world", "count", Clock::Count, threads, 0);
    m.put("netsim.metrics.snapshot_us", "us", Clock::Wall, median(&snapshot) / 1e3, snapshot.len());

    // The echo RPC itself, call by call.
    let echo_world = Schooner::standard().map_err(|e| e.to_string())?;
    echo_world
        .install_program("/bench/echo", echo_image()?, &[ECHO_HOST])
        .map_err(|e| e.to_string())?;
    let mut line = echo_world.open_line("echo", AVS_HOST).map_err(|e| e.to_string())?;
    line.start_remote("/bench/echo", ECHO_HOST).map_err(|e| e.to_string())?;
    let mut echo_us = Vec::with_capacity(ECHO_CALLS);
    for i in 0..ECHO_CALLS + 300 {
        let t0 = Instant::now();
        line.call("echo", &args[i % args.len()]).map_err(|e| e.to_string())?;
        if i >= 300 {
            echo_us.push(1e6 * secs(t0));
        }
        if i % 500 == 0 {
            echo_world.ctx().obs.clear_spans();
        }
    }
    drop(line);
    echo_world.shutdown();
    let echo_p50 = median(&echo_us);
    m.put("schooner.line.echo_p50_us", "us", Clock::Wall, echo_p50, echo_us.len());
    m.put(
        "schooner.line.echo_p99_us",
        "us",
        Clock::Wall,
        percentile(&echo_us, 99.0)?,
        echo_us.len(),
    );

    // Reconciliation: what one echo call passes through. Arguments and
    // results are each encoded once and decoded once (the result has the
    // argument's flow shape); request and reply each cross the message
    // codec once; the cross-thread round trip carries both transport
    // sends (with their keyed counters); the line bumps five counters
    // and opens, phases and closes one span.
    let terms = [
        ("2 x uts.plan_encode_ns", 2.0 * enc_ns / 1e3),
        ("2 x uts.plan_decode_ns", 2.0 * dec_ns / 1e3),
        ("2 x schooner.msg_codec_ns", 2.0 * codec_ns / 1e3),
        ("1 x netsim.handoff_rtt_us", rtt_ns / 1e3),
        ("5 x netsim.metrics.counter_add_ns", 5.0 * add_ns / 1e3),
        ("1 x schooner.obs.span_ns", span_ns / 1e3),
    ];
    let sum: f64 = terms.iter().map(|t| t.1).sum();
    println!("# echo reconciliation (us, medians):");
    for (name, us) in terms {
        println!("#   {name:<36} {us:>10.3}");
    }
    println!("#   {:<36} {sum:>10.3}", "sum of layer rows");
    println!("#   {:<36} {echo_p50:>10.3}", "schooner.line.echo_p50_us");
    println!("#   {:<36} {:>10.3}", "schooner.line.unattributed_us", echo_p50 - sum);
    m.put("schooner.line.layer_sum_us", "us", Clock::Wall, sum, 0);
    m.put("schooner.line.unattributed_us", "us", Clock::Wall, echo_p50 - sum, 0);
    let _ = fs::remove_dir_all(&dir);
    Ok(())
}
