//! The `serve` workload: `primacy-serve` in its own process, loaded by
//! `nproc` closed-loop connections. Each connection sends a seeded sequence
//! of PRIMACY compress requests, each followed by a decompress request for
//! its result.

use crate::inputs;
use crate::report::{self, metric, Args, OpCount, Outcome};
use crate::SETUP_REPS;
use primacy_core::{PrimacyCompressor, PrimacyConfig};
use primacy_datagen::Rng;
use primacy_serve::protocol::{Op, Request, ServeCodec, Status};
use primacy_serve::ServeClient;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Untimed compress/decompress pairs each connection sends first.
pub const WARMUP_PAIRS: usize = 16;
/// How long to wait for the server to print its address and accept.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `primacy-serve` process. Dropping it kills the process and
/// waits for it to end.
pub struct ServerProcess {
    child: Child,
    /// Drains the server's stdout; ends when the process closes it.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Start `bin` on an ephemeral localhost port with `workers` workers
    /// and return once a connection has been accepted and answered.
    pub fn start(bin: &Path, workers: usize) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        // The address line is read on a helper thread so a server that
        // never prints cannot hang the benchmark; the thread then drains
        // stdout until the process ends.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut server = ServerProcess {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = match rx.recv_timeout(START_TIMEOUT) {
            Ok(Some(Ok(line))) => line,
            other => return Err(format!("server printed no address: {other:?}")),
        };
        server.addr = line
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let answered = ServeClient::connect(server.addr)
                .and_then(|mut c| c.ping(0, 0))
                .map(|r| r.status == Status::Ok);
            if let Ok(true) = answered {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(format!("server at {} never answered", server.addr));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        report::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The payloads requests are drawn from, with the library's own
/// compression of each computed outside any timed window.
pub struct Pool {
    pub payloads: Vec<Vec<u8>>,
    pub reference: Vec<Vec<u8>>,
}

impl Pool {
    /// Slice the pool from `source` and compress each payload through the
    /// library. Fails if a reference does not decode back to its payload.
    pub fn new(seed: u64, source: &[u8]) -> Result<Pool, String> {
        let compressor = PrimacyCompressor::new(PrimacyConfig::default());
        let payloads = inputs::payload_pool(seed, source);
        let mut reference = Vec::with_capacity(payloads.len());
        for p in &payloads {
            let c = compressor.compress_bytes(p).map_err(|e| e.to_string())?;
            if compressor.decompress_bytes(&c).map_err(|e| e.to_string())? != *p {
                return Err("library round trip of a payload is not exact".into());
            }
            reference.push(c);
        }
        Ok(Pool {
            payloads,
            reference,
        })
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the response was read, seconds after the timed window opened.
    pub end_s: f64,
    pub latency_us: f64,
    pub op: Op,
    /// Uncompressed bytes: the payload sent, or the payload restored.
    pub raw_bytes: u64,
    /// Compressed bytes: the result returned, or the input sent.
    pub compressed_bytes: u64,
}

/// Everything one closed-loop load measured and checked.
#[derive(Debug, Default)]
pub struct Load {
    /// Every successful timed request.
    pub samples: Vec<Sample>,
    pub compress_ops: OpCount,
    pub decompress_ops: OpCount,
    /// Outputs that differed from the expected bytes.
    pub wrong_outputs: u64,
    /// Payload index of every timed pair, per connection, in order.
    pub sequence: Vec<Vec<usize>>,
}

/// Medians over one-second windows of a load: each window's latency
/// percentiles, completed requests per second and per-request MB/s, so a
/// few seconds of a slow machine move a run's figures less.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub windows: usize,
    pub p50_us: f64,
    pub p95_us: f64,
    pub ops_per_s: f64,
    pub compress_mbps: f64,
    pub decompress_mbps: f64,
}

impl Load {
    /// Round-trip latencies of every timed request, µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_us).collect()
    }

    /// Statistics of each whole second of the `duration` the load ran.
    pub fn windowed(&self, duration: Duration) -> Result<Windowed, String> {
        let windows = (duration.as_secs_f64().floor() as usize).max(1);
        let mut per: Vec<Vec<&Sample>> = vec![Vec::new(); windows];
        for s in &self.samples {
            if let Some(w) = per.get_mut(s.end_s as usize) {
                w.push(s);
            }
        }
        let (mut p50, mut p95, mut ops, mut cmb, mut dmb) =
            (vec![], vec![], vec![], vec![], vec![]);
        for w in &per {
            let lat: Vec<f64> = w.iter().map(|s| s.latency_us).collect();
            let rate = |op: Op| {
                let of_op = w.iter().filter(|s| s.op == op);
                let bytes: u64 = of_op.clone().map(|s| s.raw_bytes).sum();
                let us: f64 = of_op.map(|s| s.latency_us).sum();
                bytes as f64 / us
            };
            let (c, d) = (rate(Op::Compress), rate(Op::Decompress));
            if lat.is_empty() || !c.is_finite() || !d.is_finite() {
                return Err("a one-second window completed no request of some kind".into());
            }
            p50.push(report::percentile(&lat, 50.0));
            p95.push(report::percentile(&lat, 95.0));
            ops.push(lat.len() as f64);
            cmb.push(c);
            dmb.push(d);
        }
        Ok(Windowed {
            windows,
            p50_us: report::median(&p50),
            p95_us: report::median(&p95),
            ops_per_s: report::median(&ops),
            compress_mbps: report::median(&cmb),
            decompress_mbps: report::median(&dmb),
        })
    }
}

/// Per-connection state of a closed loop.
struct Conn {
    client: ServeClient,
    rng: Rng,
    next_id: u64,
    tenant: u64,
}

impl Conn {
    fn send(&mut self, op: Op, payload: Vec<u8>) -> (Option<Vec<u8>>, Duration) {
        self.next_id += 1;
        let request = Request {
            op,
            codec: ServeCodec::Primacy,
            request_id: self.next_id,
            tenant: self.tenant,
            payload,
        };
        let t = Instant::now();
        let response = self.client.request(&request);
        let dt = t.elapsed();
        match response {
            Ok(r) if r.status == Status::Ok && r.request_id == self.next_id => {
                (Some(r.payload), dt)
            }
            Ok(r) => {
                eprintln!("request {} answered {}", self.next_id, r.status);
                (None, dt)
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", self.next_id);
                (None, dt)
            }
        }
    }
}

/// One compress request for payload `i` and one decompress request for its
/// result. Checks outside the timed requests: the compressed bytes must
/// decode through the library to the payload (compared with the library's
/// reference first, decoded only when they differ), and the decompressed
/// bytes must equal the payload. `window` is the timed window's start, or
/// `None` for an untimed pair.
fn pair(conn: &mut Conn, pool: &Pool, i: usize, load: &mut Load, window: Option<Instant>) {
    let payload = &pool.payloads[i];
    let (compressed, dt) = conn.send(Op::Compress, payload.clone());
    load.compress_ops.record(compressed.is_some());
    let Some(compressed) = compressed else {
        load.decompress_ops.record(false);
        return;
    };
    if compressed != pool.reference[i] {
        let decoded =
            PrimacyCompressor::new(PrimacyConfig::default()).decompress_bytes(&compressed);
        if decoded.as_deref().ok() != Some(payload.as_slice()) {
            load.wrong_outputs += 1;
        }
    }
    let (raw, packed) = (payload.len() as u64, compressed.len() as u64);
    if let Some(start) = window {
        load.samples.push(Sample {
            end_s: start.elapsed().as_secs_f64(),
            latency_us: dt.as_secs_f64() * 1e6,
            op: Op::Compress,
            raw_bytes: raw,
            compressed_bytes: packed,
        });
    }
    let (restored, dt) = conn.send(Op::Decompress, compressed);
    load.decompress_ops.record(restored.is_some());
    let Some(restored) = restored else { return };
    if restored != *payload {
        load.wrong_outputs += 1;
    }
    if let Some(start) = window {
        load.samples.push(Sample {
            end_s: start.elapsed().as_secs_f64(),
            latency_us: dt.as_secs_f64() * 1e6,
            op: Op::Decompress,
            raw_bytes: restored.len() as u64,
            compressed_bytes: packed,
        });
    }
}

/// Drive `conns` closed-loop connections against `addr` for `duration`,
/// after [`WARMUP_PAIRS`] untimed pairs each. Every connection sends whole
/// compress/decompress pairs, so `attempted` is always even per kind.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    seed: u64,
    duration: Duration,
) -> Result<Load, String> {
    let mut clients = Vec::with_capacity(conns);
    for c in 0..conns {
        let client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_timeouts(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeouts: {e}"))?;
        clients.push(Conn {
            client,
            rng: Rng::seed_from_u64(inputs::subseed(seed, 0x5E_0000 + c as u64)),
            next_id: 0,
            tenant: c as u64 + 1,
        });
    }
    let barrier = std::sync::Barrier::new(conns + 1);
    let loads = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut conn| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut load = Load::default();
                    for _ in 0..WARMUP_PAIRS {
                        let i = conn.rng.gen_range(0..pool.payloads.len());
                        pair(&mut conn, pool, i, &mut load, None);
                    }
                    barrier.wait();
                    let started = Instant::now();
                    let mut sequence = Vec::new();
                    while started.elapsed() < duration {
                        let i = conn.rng.gen_range(0..pool.payloads.len());
                        sequence.push(i);
                        pair(&mut conn, pool, i, &mut load, Some(started));
                    }
                    load.sequence.push(sequence);
                    load
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<Load>>()
    });
    let mut total = Load {
        compress_ops: OpCount::new("serve_compress"),
        decompress_ops: OpCount::new("serve_decompress"),
        ..Load::default()
    };
    for l in loads {
        total.samples.extend(l.samples);
        total.compress_ops.attempted += l.compress_ops.attempted;
        total.compress_ops.failed += l.compress_ops.failed;
        total.decompress_ops.attempted += l.decompress_ops.attempted;
        total.decompress_ops.failed += l.decompress_ops.failed;
        total.wrong_outputs += l.wrong_outputs;
        total.sequence.extend(l.sequence);
    }
    Ok(total)
}

/// The checkpoint variables the serve payloads are sliced from.
pub fn source(seed: u64) -> Vec<u8> {
    inputs::checkpoint(seed, inputs::SERVE_FIELD_ELEMS)
}

/// Run the `serve` workload for `args.seconds`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .server_bin
        .as_deref()
        .ok_or("the serve workload needs --server-bin")?;
    let workers = crate::nproc();
    let set_up = |setup_s: &mut Vec<f64>| -> Result<(Vec<u8>, ServerProcess), String> {
        let t = Instant::now();
        let src = source(args.seed);
        let server = ServerProcess::start(bin, workers)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok((src, server))
    };
    // Half the set-ups come before the load and half after it, so their
    // median samples the machine at both ends of the run. Each server is
    // stopped before the next set-up is timed.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut set = set_up(&mut setup_s)?;
    while setup_s.len() < SETUP_REPS.div_ceil(2) {
        drop(set);
        set = set_up(&mut setup_s)?;
    }
    let (src, server) = set;
    let pool = Pool::new(args.seed, &src)?;
    let load = closed_loop(server.addr, &pool, workers, args.seed, args.seconds)?;
    let peak_rss = server.peak_rss_mb().ok_or("server VmHWM unreadable")?;
    drop(server);
    let mut same_inputs = true;
    while setup_s.len() < SETUP_REPS {
        let (again, _server) = set_up(&mut setup_s)?;
        same_inputs &= again == src;
    }
    if !same_inputs {
        eprintln!("set-up gave another input for the same seed");
    }
    let w = load.windowed(args.seconds)?;
    let compress = load.samples.iter().filter(|s| s.op == Op::Compress);
    let raw: u64 = compress.clone().map(|s| s.raw_bytes).sum();
    let packed: u64 = compress.map(|s| s.compressed_bytes).sum();
    Ok(Outcome {
        correct: load.wrong_outputs == 0 && same_inputs,
        metrics: vec![
            metric("setup_s", report::median(&setup_s), "s"),
            metric("write_mbps", w.compress_mbps, "MB/s"),
            metric("read_mbps", w.decompress_mbps, "MB/s"),
            metric("ratio", raw as f64 / packed as f64, "x"),
            metric("small_op_p50_us", w.p50_us, "us"),
            metric("small_op_p95_us", w.p95_us, "us"),
            metric("small_ops_per_s", w.ops_per_s, "ops/s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
        inputs: vec![
            ("source_bytes", src.len() as u64),
            ("payloads", pool.payloads.len() as u64),
            ("payload_small_bytes", inputs::PAYLOAD_SIZES[0] as u64),
            ("payload_large_bytes", inputs::PAYLOAD_SIZES[1] as u64),
            ("connections", workers as u64),
            ("server_workers", workers as u64),
            ("timed_requests", load.samples.len() as u64),
            ("windows", w.windows as u64),
        ],
        ops: vec![load.compress_ops, load.decompress_ops],
    })
}
