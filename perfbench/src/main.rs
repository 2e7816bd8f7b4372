//! One benchmark for what `rtpserved` clients wait for.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload check-tcp|matrix-stdio|edit-stdio --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. The command builds the real
//! `rtpserved` binary from source, starts it, sets its sessions up, drives
//! it from this one process in a closed loop, checks every answer against
//! a reference computed without the code under test, and prints the
//! metrics as the last line of standard output, one JSON object. With
//! `--trace 0` those are the end-to-end metrics; with `--trace 1` the run
//! also replays every op in-process, layer by layer, and prints the
//! per-layer metrics. See `perfbench/README.md`.

mod check_tcp;
mod edit_stdio;
mod json;
mod matrix_stdio;
mod replay;
mod stats;
mod sys;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use regtree_core::api::{Json, PROTOCOL_VERSION};

use crate::replay::{Order, Replayed, Replayer, Samples};
use crate::stats::{beyond, median, quantile, tail_quantile};
use crate::sys::Usage;
use crate::trace::{Span, Tracer};
use crate::wire::{frame, result_of, Conn, Server, Transport};
use crate::workload::{OpClass, Workload};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_REPS.0`, more while they have taken under `SETUP_SECONDS`, at
/// most `SETUP_REPS.1`. Cheap set-ups are repeated more, so their median
/// is as steady as that of expensive ones.
const SETUP_REPS: (usize, usize) = (3, 100);
const SETUP_SECONDS: f64 = 3.0;
/// In the traced phase, one `server/stats` null RPC per this many ops.
const NULL_RPC_EVERY: u64 = 4;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("server_cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server.null_rpc_p50_us", "us"),
    ("serve.server.overhead_us", "us"),
    ("serve.server.wire_share", "ratio"),
    ("serve.server.ctx_switches_per_op", "count"),
    ("serve.rpc.frame_read_us", "us"),
    ("serve.rpc.frame_write_us", "us"),
    ("serve.rpc.bytes_in_per_op", "bytes"),
    ("serve.rpc.bytes_out_per_op", "bytes"),
    ("core.api.json_parse_us", "us"),
    ("core.api.json_emit_us", "us"),
    ("core.textfd.parse_fd_us", "us"),
    ("pattern.corexpath.parse_us", "us"),
    ("core.analyzer.compile_us", "us"),
    ("core.analyzer.cache_miss_ratio", "ratio"),
    ("core.lazy_ic.search_us", "us"),
    ("core.lazy_ic.states_interned", "count"),
    ("core.lazy_ic.transitions_fired", "count"),
    ("core.lazy_ic.guard_intersections", "count"),
    ("core.lazy_ic.frontier_pushes", "count"),
    ("core.lazy_ic.memo_hit_ratio", "ratio"),
    ("core.matrix.us_per_cell", "us"),
    ("core.matrix.computed_ratio", "ratio"),
    ("core.matrix.verdicts_reused", "count"),
    ("core.matrix.wire_share", "ratio"),
    ("core.fdset.minimize_us", "us"),
    ("core.fdset.rows_implied", "count"),
    ("core.satisfy.check_us", "us"),
    ("core.satisfy.dfa_steps", "count"),
    ("core.incremental.recheck_us", "us"),
    ("core.incremental.localized_ratio", "ratio"),
    ("core.incremental.deltas_applied", "count"),
    ("xml.parse.parse_us", "us"),
    ("xml.parse.nodes_per_s", "1/s"),
    ("xml.versioned.index_build_us", "us"),
    ("hedge.schema.compile_us", "us"),
    ("hedge.schema.validate_us", "us"),
    ("serve.service.dispatch_us", "us"),
    ("serve.service.self_us", "us"),
    ("trace.unaccounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds `rtpserved` with the repository's own workspace settings and
/// returns the path of the binary.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "regtree-serve", "--bin", "rtpserved"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rtpserved failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("rtpserved");
    bin.is_file()
        .then_some(bin)
        .ok_or_else(|| "the build produced no rtpserved binary".to_string())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the sources the daemon is built from, for checkouts that
/// carry no git metadata.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn provenance(root: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into());
    // Only the checkout's own repository counts, not one enclosing it.
    let commit = command_line("git", &["rev-parse", "--show-toplevel", "HEAD"], root)
        .and_then(|out| {
            let (top, head) = out.split_once('\n')?;
            (Path::new(top) == root).then(|| head.to_string())
        })
        .unwrap_or_else(|| "unknown (no git metadata)".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", commit),
        ("sources", format!("{:016x}", source_fingerprint(root))),
    ]
}

/// A daemon after set-up, with one open session per connection.
struct Ready {
    server: Server,
    conns: Vec<Conn>,
    sids: Vec<u64>,
    /// Per connection, the request bodies set-up sent (for the replay).
    sent: Vec<Vec<Vec<u8>>>,
    seconds: f64,
}

fn set_up(bin: &Path, workload: &dyn Workload) -> Result<Ready, String> {
    let sessions = workload.sessions();
    let start = Instant::now();
    let (server, stdio) =
        Server::spawn(bin, workload.transport()).map_err(|e| format!("spawn: {e}"))?;
    let conns: Result<Vec<Conn>, _> = match stdio {
        Some(conn) => Ok(vec![conn]),
        None => (0..sessions.len()).map(|_| server.connect()).collect(),
    };
    let mut conns = match conns {
        Ok(c) => c,
        Err(e) => {
            server.kill();
            return Err(format!("connect: {e}"));
        }
    };
    let mut sids = Vec::new();
    let mut sent = Vec::new();
    for (conn, session) in conns.iter_mut().zip(sessions) {
        let mut bodies = Vec::new();
        let mut call = |conn: &mut Conn, body: Vec<u8>| -> Result<Json, String> {
            let ex = conn.exchange(&frame(&body)).map_err(|e| e.to_string())?;
            bodies.push(body);
            result_of(&ex.response).map_err(|e| e.0)
        };
        let init = Json::Obj(vec![(
            "protocolVersion".into(),
            Json::str(PROTOCOL_VERSION),
        )]);
        let init = conn.request_body("initialize", init);
        let open = match &session.schema {
            Some(s) => Json::Obj(vec![("schema".into(), Json::str(s))]),
            None => Json::Obj(vec![]),
        };
        let open = conn.request_body("session/open", open);
        let outcome = call(conn, init)
            .and_then(|_| call(conn, open))
            .and_then(|r| {
                let sid = r
                    .get("sessionId")
                    .and_then(Json::as_u64)
                    .ok_or("no sessionId")?;
                for load in &session.loads {
                    let body = conn.session_body("document/load", sid, load);
                    call(conn, body)?;
                }
                Ok(sid)
            });
        match outcome {
            Ok(sid) => sids.push(sid),
            Err(e) => {
                server.kill();
                return Err(format!("set-up failed: {e}"));
            }
        }
        sent.push(bodies);
    }
    Ok(Ready {
        server,
        conns,
        sids,
        sent,
        seconds: start.elapsed().as_secs_f64(),
    })
}

#[derive(Clone, Copy)]
struct Phase {
    traced: bool,
    budget_ns: u64,
    /// (daemon pid, ops): connection 0 reads the daemon's peak memory
    /// once it has sent this many ops of the phase.
    rss_probe: Option<(u32, usize)>,
}

struct OpRecord {
    label: &'static str,
    class: OpClass,
    wire_ns: u64,
    traced: bool,
}

/// One traced op's accounting: wire latency against the replay.
struct Account {
    wire_ns: u64,
    rep: Replayed,
}

#[derive(Default)]
struct ConnOutcome {
    /// Timed ops.
    ops: Vec<OpRecord>,
    /// Client-observed op time of the first phase.
    busy_ns: u64,
    /// The daemon's peak memory at the phase's `rss_probe`, in KiB.
    rss_kib: Option<u64>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    requests: usize,
    spans: Vec<Span>,
    samples: Samples,
    accounts: Vec<Account>,
    null_rpc_ns: Vec<u64>,
}

fn drive(
    conn: &mut Conn,
    sid: u64,
    workload: &dyn Workload,
    index: usize,
    set_up_bodies: &[Vec<u8>],
    phases: &[Phase],
    epoch: Instant,
) -> Result<ConnOutcome, String> {
    let mut out = ConnOutcome::default();
    let mut stream = workload.stream(index);
    let traced_run = phases.iter().any(|p| p.traced);
    let mut replayer = traced_run.then(Replayer::new);
    let mut tracer = Tracer::new(epoch, (index as u64 + 1) << 40);
    // Set-up and warm-up replays bring the mirrors to the daemon's state;
    // only the set-up ones are kept (schema compile and document ingest
    // happen nowhere else), the warm-up ones are discarded.
    let mut discard = (Tracer::new(epoch, 0), Samples::default());
    if let Some(r) = replayer.as_mut() {
        for body in set_up_bodies {
            r.replay(&mut tracer, &mut out.samples, 0, 0, body, None, Order::Both)?;
        }
    }
    let io = |e: std::io::Error| format!("connection {index}: {e}");
    let mut seq = 0u64;
    let warmup = stream.warmup_ops();
    for (p, phase) in std::iter::once(None)
        .chain(phases.iter().map(Some))
        .enumerate()
    {
        let mut busy = 0u64;
        let mut done = 0;
        let block = stream.block_len();
        loop {
            match phase {
                None if done == warmup => break,
                // A phase ends only after whole blocks of the op mix.
                Some(ph) if done % block == 0 && busy >= ph.budget_ns => break,
                _ => {}
            }
            done += 1;
            let op = stream.next_op();
            let body = conn.session_body(op.method, sid, &op.params);
            let ex = conn.exchange(&frame(&body)).map_err(io)?;
            out.requests += 1;
            let wire_ns = ex.wire_ns();
            let reply = result_of(&ex.response);
            let verdict = stream.verify(&op, reply.as_ref().map_err(|e| e.0.as_str()));
            out.attempted += 1;
            if let Err(reason) = verdict {
                out.failed += 1;
                if out.failures.len() < 5 {
                    out.failures.push(format!("{}: {reason}", op.method));
                }
            }
            let reply = reply.as_ref().ok();
            let Some(phase) = phase else {
                if let Some(r) = replayer.as_mut() {
                    let (tracer, samples) = (&mut discard.0, &mut discard.1);
                    r.replay(tracer, samples, 0, 0, &body, reply, Order::Both)?;
                    discard.0.spans.clear();
                }
                continue;
            };
            busy += wire_ns;
            if let (0, Some((pid, n))) = (index, phase.rss_probe) {
                if done == n {
                    out.rss_kib = sys::peak_rss_kib(pid).ok();
                }
            }
            out.ops.push(OpRecord {
                label: op.label,
                class: op.class,
                wire_ns,
                traced: phase.traced,
            });
            if !phase.traced {
                continue;
            }
            seq += 1;
            let op_id = ((index as u64 + 1) << 32) | seq;
            let root = tracer.record("client.op", 0, op_id, ex.sent, ex.received, 1);
            tracer.record("client.frame_write", root, op_id, ex.sent, ex.written, 1);
            tracer.record("client.frame_read", root, op_id, ex.written, ex.received, 1);
            let r = replayer.as_mut().expect("traced runs have a replayer");
            let order = if seq.is_multiple_of(2) {
                Order::DispatchFirst
            } else {
                Order::LayersFirst
            };
            let samples = &mut out.samples;
            let rep = r.replay(&mut tracer, samples, op_id, root, &body, reply, order)?;
            out.accounts.push(Account { wire_ns, rep });
            if seq.is_multiple_of(NULL_RPC_EVERY) {
                let body = conn.request_body("server/stats", Json::Null);
                let ex = conn.exchange(&frame(&body)).map_err(io)?;
                out.requests += 1;
                result_of(&ex.response).map_err(|e| format!("server/stats: {}", e.0))?;
                tracer.record("serve.server.null_rpc", 0, op_id, ex.sent, ex.received, 1);
                out.null_rpc_ns.push(ex.wire_ns());
            }
        }
        if p == 1 {
            out.busy_ns = busy;
        }
    }
    for reason in stream.finish() {
        out.failed += 1;
        if out.failures.len() < 5 {
            out.failures.push(reason);
        }
    }
    out.spans = tracer.spans;
    Ok(out)
}

/// The share of CPU time stolen between two [`cpu_jiffies`] readings.
fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    }
}

/// Cumulative `cpu` jiffies of `/proc/stat`: (steal, total).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

struct Measured {
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured phase: wall-clock latencies inflate with it.
    steal: Option<f64>,
    setup_s: Vec<f64>,
    setup_usage: Vec<Usage>,
    usage: Usage,
    cpu_ns: u64,
    conns: Vec<ConnOutcome>,
}

fn measure(bin: &Path, workload: &dyn Workload, args: &Args) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut setup_usage = Vec::new();
    let ready = loop {
        let r = set_up(bin, workload)?;
        setup_s.push(r.seconds);
        let (min, max) = SETUP_REPS;
        let n = setup_s.len();
        if n >= max || (n >= min && setup_s.iter().sum::<f64>() >= SETUP_SECONDS) {
            break r;
        }
        let usage = r.server.shutdown(r.conns).map_err(|e| e.to_string())?;
        setup_usage.push(usage);
    };
    let Ready {
        server,
        mut conns,
        sids,
        sent,
        ..
    } = ready;
    let budget_ns = (args.seconds * 1e9) as u64;
    let phases: Vec<Phase> = if args.trace {
        vec![
            Phase {
                traced: true,
                budget_ns: budget_ns / 2,
                rss_probe: None,
            },
            Phase {
                traced: false,
                budget_ns: budget_ns / 2,
                rss_probe: None,
            },
        ]
    } else {
        // Peak memory grows with the ops served, so it is read after a
        // fixed op count, not after however many whole blocks fit in the
        // budget: half the nominal count, which slow runs reach too.
        let per_conn = workload.nominal_ops() / 2 / sids.len().max(1);
        vec![Phase {
            traced: false,
            budget_ns,
            rss_probe: Some((server.pid(), per_conn)),
        }]
    };
    let cpu_start = server
        .cpu_ns()
        .map_err(|e| format!("reading daemon CPU: {e}"))?;
    let jiffies_start = cpu_jiffies();
    let epoch = Instant::now();
    let results: Vec<Result<ConnOutcome, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let (sid, bodies, phases) = (sids[i], &sent[i], &phases);
                s.spawn(move || drive(conn, sid, workload, i, bodies, phases, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cpu_end = server
        .cpu_ns()
        .map_err(|e| format!("reading daemon CPU: {e}"));
    let steal = steal_share(jiffies_start, cpu_jiffies());
    let outcomes: Result<Vec<ConnOutcome>, String> = results.into_iter().collect();
    let (outcomes, cpu_end) = match (outcomes, cpu_end) {
        (Ok(o), Ok(c)) => (o, c),
        (Err(e), _) | (_, Err(e)) => {
            server.kill();
            return Err(e);
        }
    };
    let usage = server.shutdown(conns).map_err(|e| e.to_string())?;
    Ok(Measured {
        steal,
        setup_s,
        setup_usage,
        usage,
        cpu_ns: cpu_end - cpu_start,
        conns: outcomes,
    })
}

fn ms(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e6).collect()
}

fn end_to_end(m: &Measured, tail_q: f64) -> Vec<(&'static str, f64)> {
    let wire: Vec<f64> = m
        .conns
        .iter()
        .flat_map(|c| &c.ops)
        .map(|o| o.wire_ns as f64)
        .collect();
    let of_class = |class: OpClass| -> Vec<f64> {
        let v: Vec<f64> = m
            .conns
            .iter()
            .flat_map(|c| &c.ops)
            .filter(|o| o.class == class)
            .map(|o| o.wire_ns as f64)
            .collect();
        ms(&v)
    };
    let throughput: f64 = m
        .conns
        .iter()
        .map(|c| c.ops.len() as f64 / (c.busy_ns as f64 / 1e9))
        .sum();
    vec![
        ("setup_s", median(&m.setup_s)),
        ("op_p50_ms", median(&ms(&wire))),
        ("op_tail_ms", quantile(&ms(&wire), tail_q)),
        ("throughput_ops_s", throughput),
        (
            // Every request after set-up, warm-up included, used this CPU.
            "server_cpu_ms_per_op",
            m.cpu_ns as f64 / 1e6 / m.conns.iter().map(|c| c.requests).sum::<usize>() as f64,
        ),
        (
            // A run too short to reach the probe reports the whole run.
            "peak_rss_mb",
            m.conns[0].rss_kib.unwrap_or(m.usage.max_rss_kib) as f64 / 1024.0,
        ),
        ("read_p50_ms", median(&of_class(OpClass::Read))),
        ("write_p50_ms", median(&of_class(OpClass::Write))),
    ]
}

fn per_layer(m: &Measured) -> Vec<(&'static str, f64)> {
    let mut samples = Samples::default();
    let mut accounts = Vec::new();
    let mut null_rpc = Vec::new();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut requests = 0;
    for c in &m.conns {
        accounts.extend(c.accounts.iter());
        null_rpc.extend(c.null_rpc_ns.iter().map(|&v| v as f64));
        requests += c.requests;
        for o in &c.ops {
            if o.traced { &mut traced } else { &mut untraced }.push(o.wire_ns as f64);
        }
        for (k, v) in &c.samples.0 {
            samples.0.entry(k).or_default().extend(v);
        }
    }
    let null_ns = median(&null_rpc);
    // Wire-side shares use ops whose dispatch replay ran warm; the others
    // use ops whose layer replay ran warm.
    let per_account = |keep: &dyn Fn(&Replayed) -> bool, f: &dyn Fn(&Account) -> f64| -> f64 {
        let values: Vec<f64> = accounts
            .iter()
            .filter(|a| keep(&a.rep))
            .map(|a| f(a))
            .collect();
        median(&values)
    };
    let overhead = |a: &Account| a.wire_ns.saturating_sub(a.rep.dispatch_ns) as f64;
    let sample = |name: &str| samples.0.get(name).map_or(0.0, |v| median(v));
    // Service self time: per op, dispatch minus the layer calls it makes.
    // The pass that runs first is slower (up to ~1 ms on a 16 ms op), so
    // the estimate averages the medians of the two replay orders, where
    // that cost falls on either side. It can read slightly below 0 when
    // the service's own work is smaller than the replay's noise.
    let self_of = |dispatch_warm: bool| {
        let v: Vec<f64> = accounts
            .iter()
            .filter(|a| a.rep.dispatch_warm == dispatch_warm)
            .map(|a| (a.rep.dispatch_ns as f64 - a.rep.inside_ns as f64) / 1e3)
            .collect();
        median(&v)
    };
    let self_us = (self_of(true) + self_of(false)) / 2.0;
    let setup_ctx: Vec<f64> = m
        .setup_usage
        .iter()
        .map(|u| u.ctx_switches as f64)
        .collect();
    let mut derived: Vec<(&'static str, f64)> = vec![
        ("serve.server.null_rpc_p50_us", null_ns / 1e3),
        (
            "serve.server.overhead_us",
            per_account(&|r| r.dispatch_warm, &|a| overhead(a) / 1e3),
        ),
        (
            "serve.server.wire_share",
            per_account(&|r| r.dispatch_warm, &|a| overhead(a) / a.wire_ns as f64),
        ),
        (
            "serve.server.ctx_switches_per_op",
            (m.usage.ctx_switches as f64 - median(&setup_ctx)).max(0.0) / requests as f64,
        ),
        (
            "core.matrix.wire_share",
            per_account(&|r| r.layers_warm && r.matrix_ns > 0, &|a| {
                a.rep.matrix_ns as f64 / a.wire_ns as f64
            }),
        ),
        ("serve.service.self_us", self_us),
        (
            // The share of an op's wire time that transport (a null RPC's
            // round trip), the service's own time and the op's layer calls
            // leave unexplained.
            "trace.unaccounted_ratio",
            per_account(&|r| r.layers_warm, &|a| {
                let covered = null_ns + self_us.max(0.0) * 1e3 + a.rep.layers_ns as f64;
                (a.wire_ns as f64 - covered) / a.wire_ns as f64
            }),
        ),
        ("trace.overhead_ratio", median(&traced) / median(&untraced)),
    ];
    for &(name, _) in PER_LAYER {
        if !derived.iter().any(|(n, _)| *n == name) {
            derived.push((name, sample(name)));
        }
    }
    derived
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
    units: &[(&str, &str)],
) -> String {
    let metrics = units
        .iter()
        .map(|&(name, unit)| {
            let v = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(format!("{v}"))),
                    ("unit".into(), Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::usize(attempted)),
        ("failed".into(), Json::usize(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/serve/Cargo.toml").is_file() {
        return Err("run from the root of a regtree checkout".into());
    }
    let bin = build_daemon(&root)?;
    let t = Instant::now();
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "check-tcp" => {
            Box::new(check_tcp::CheckTcp::new(&root, args.seed).map_err(|e| e.to_string())?)
        }
        "matrix-stdio" => Box::new(matrix_stdio::MatrixStdio::new(args.seed)),
        "edit-stdio" => {
            Box::new(edit_stdio::EditStdio::new(&root, args.seed).map_err(|e| e.to_string())?)
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (check-tcp | matrix-stdio | edit-stdio)"
            ))
        }
    };
    let reference_s = t.elapsed().as_secs_f64();
    let m = measure(&bin, &*workload, &args)?;

    let tail_q = tail_quantile(workload.nominal_ops());
    let ops: usize = m.conns.iter().map(|c| c.ops.len()).sum();
    let attempted: usize = m.conns.iter().map(|c| c.attempted).sum();
    let failed: usize = m.conns.iter().map(|c| c.failed).sum();
    let writes = m
        .conns
        .iter()
        .flat_map(|c| &c.ops)
        .filter(|o| o.class == OpClass::Write)
        .count();
    let transport = match workload.transport() {
        Transport::Stdio => "stdio",
        Transport::Tcp => "tcp",
    };
    println!(
        "# workload {} ({transport}): {}",
        args.workload,
        workload.describe()
    );
    println!(
        "# seed {}, seconds {}, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in provenance(&root) {
        println!("# {k}: {v}");
    }
    println!(
        "# ops: {attempted} attempted ({} warm-up), {ops} timed ({} reads, {writes} writes), \
         {failed} failed, failed_ratio {}",
        attempted - ops,
        ops - writes,
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "# op_tail_ms is p{:.1}: fixed from {} nominal ops; {} of {ops} timed ops lie beyond it",
        tail_q * 100.0,
        workload.nominal_ops(),
        beyond(ops, tail_q)
    );
    println!(
        "# setup_s: {} set-ups, min {:.4} s, median {:.4} s, max {:.4} s; references built in \
         {reference_s:.2} s (untimed)",
        m.setup_s.len(),
        quantile(&m.setup_s, 0.0),
        median(&m.setup_s),
        quantile(&m.setup_s, 1.0)
    );
    let mut labels: Vec<&str> = m
        .conns
        .iter()
        .flat_map(|c| &c.ops)
        .map(|o| o.label)
        .collect();
    labels.sort_unstable();
    labels.dedup();
    for label in labels {
        let wire: Vec<f64> = m
            .conns
            .iter()
            .flat_map(|c| &c.ops)
            .filter(|o| o.label == label)
            .map(|o| o.wire_ns as f64 / 1e6)
            .collect();
        println!(
            "# {label}: {} timed, p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
            wire.len(),
            median(&wire),
            quantile(&wire, 0.9),
            quantile(&wire, 1.0)
        );
    }
    if let Some(steal) = m.steal {
        println!(
            "# host steal: {:.1}% of CPU time during the measured phase",
            steal * 100.0
        );
    }
    for f in m.conns.iter().flat_map(|c| &c.failures) {
        println!("# failure: {f}");
    }
    let (metrics, units) = if args.trace {
        let threads: Vec<Vec<Span>> = m.conns.iter().map(|c| c.spans.clone()).collect();
        let path = root
            .join(".bench_out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        trace::write_chrome_trace(&path, &threads).map_err(|e| format!("writing trace: {e}"))?;
        println!(
            "# spans: {} written to {}",
            threads.iter().map(Vec::len).sum::<usize>(),
            path.display()
        );
        (per_layer(&m), PER_LAYER)
    } else {
        (end_to_end(&m, tail_q), END_TO_END)
    };
    for (name, v) in &metrics {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        println!("# {name} = {v:.4} {unit}");
    }
    println!(
        "{}",
        result_json(failed == 0, attempted, failed, &metrics, units)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
