//! Traced runs of the benchmark of record: the per-layer metrics.
//!
//! ```text
//! recordbench-layers --workload checkpoint|incompressible|serve --seed N
//!                    --seconds S --server-bin PATH
//! ```
//!
//! The program is not instrumented for this. Every chunk of the workload's
//! input is replayed through the public stage functions of `primacy-core`
//! and `primacy-codecs` — split, frequency table and ID map, linearization,
//! the codec on the hi and lo streams, ISOBAR, CRC — and each call is timed
//! from outside. The sum is reconciled against the single-thread
//! `compress_bytes`/`decompress_bytes` wall time of the same input, and the
//! replayed output bytes against the container the program writes. The
//! archive layer (overlapped writer, reader) and the serve layer (codec,
//! protocol, residual) are timed on the same input.
//!
//! One figure is the program's own: `archive.range_decoded_per_returned`
//! reads the `decompress.bytes_out` trace counter around a range-read plan,
//! so a reader that decodes less shows there. Tracing is therefore on in
//! this binary; its records are a few per chunk, not per byte.
//!
//! Every workload reports every layer: a layer is measured on that
//! workload's own input even where the workload's end-to-end path does not
//! use it (README.md maps each layer to the workload where it matters).
//! Passes repeat until `--seconds` is spent; each metric is the median of
//! its per-pass values.

use primacy_codecs::checksum::crc32;
use primacy_codecs::{Codec, CodecScratch};
use primacy_core::freq::FreqTable;
use primacy_core::idmap::IdMap;
use primacy_core::isobar;
use primacy_core::linearize::{to_columns, to_rows};
use primacy_core::split::{join_hi_lo, split_hi_lo};
use primacy_core::{ArchiveReader, DecodeScratch, PrimacyCompressor, PrimacyConfig};
use primacy_recordbench::archive::{self, Workload};
use primacy_recordbench::inputs::{self, ReadSkew};
use primacy_recordbench::report::{self, metric, Args, Metric, OpCount, Outcome};
use primacy_recordbench::serve::{self, Pool, ServerProcess};
use primacy_serve::protocol::{
    split_frame, Op, Request, Response, ServeCodec, Status, DEFAULT_MAX_FRAME,
};
use primacy_trace::{self as trace, Collector};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Sink of the program's own trace records. The only figure read from it is
/// [`DECODED_BYTES`]; the stage times are taken from outside.
static TRACE: Collector = Collector::new();

/// Trace counter to which every chunk decode adds its plaintext bytes.
const DECODED_BYTES: &str = "decompress.bytes_out";

/// Closed-loop window of the serve layer in each pass.
const SERVE_WINDOW: Duration = Duration::from_millis(1000);

/// Every per-layer metric and its unit, in report order.
const LAYER_METRICS: [(&str, &str); 37] = [
    ("split.compress_s", "s"),
    ("split.decompress_s", "s"),
    ("freq.compress_s", "s"),
    ("idmap.compress_s", "s"),
    ("idmap.decompress_s", "s"),
    ("idmap.index_bytes", "bytes"),
    ("idmap.distinct_hi", "count"),
    ("linearize.compress_s", "s"),
    ("linearize.decompress_s", "s"),
    ("codec_hi.compress_s", "s"),
    ("codec_hi.decompress_s", "s"),
    ("codec_hi.in_bytes", "bytes"),
    ("codec_hi.out_bytes", "bytes"),
    ("codec_lo.compress_s", "s"),
    ("codec_lo.decompress_s", "s"),
    ("codec_lo.in_bytes", "bytes"),
    ("codec_lo.out_bytes", "bytes"),
    ("isobar.compress_s", "s"),
    ("isobar.decompress_s", "s"),
    ("isobar.raw_bytes", "bytes"),
    ("crc.compress_s", "s"),
    ("crc.decompress_s", "s"),
    ("pipeline.compress_s", "s"),
    ("pipeline.decompress_s", "s"),
    ("layers.compress_residual_pct", "%"),
    ("layers.decompress_residual_pct", "%"),
    ("layers.unaccounted_bytes", "bytes"),
    ("archive.append_s", "s"),
    ("archive.finish_s", "s"),
    ("archive.write_parallel_efficiency", "x"),
    ("archive.open_s", "s"),
    ("archive.read_parallel_efficiency", "x"),
    ("archive.range_decoded_per_returned", "x"),
    ("serve.codec_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.residual_us", "us"),
    ("datagen.s", "s"),
];

/// Compress-side and decompress-side stage times that must add up to the
/// pipeline's wall time.
const COMPRESS_STAGES: [&str; 8] = [
    "split.compress_s",
    "freq.compress_s",
    "idmap.compress_s",
    "linearize.compress_s",
    "codec_hi.compress_s",
    "isobar.compress_s",
    "codec_lo.compress_s",
    "crc.compress_s",
];
const DECOMPRESS_STAGES: [&str; 7] = [
    "split.decompress_s",
    "idmap.decompress_s",
    "linearize.decompress_s",
    "codec_hi.decompress_s",
    "isobar.decompress_s",
    "codec_lo.decompress_s",
    "crc.decompress_s",
];

/// One pass's values by metric name.
#[derive(Default)]
struct Pass(BTreeMap<&'static str, f64>);

impl Pass {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Run `f`, adding its wall time to `key`.
    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = black_box(f());
        self.add(key, t.elapsed().as_secs_f64());
        r
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replay one chunk through every stage and its inverse. Returns whether
/// the replayed round trip restored the chunk, and the bytes of chunk
/// section payload it produced (index, hi and lo codec output, raw
/// columns).
fn replay_chunk(
    chunk: &[u8],
    cfg: &PrimacyConfig,
    codec: &dyn Codec,
    scratch: &mut CodecScratch,
    p: &mut Pass,
) -> Result<(bool, u64), String> {
    let (es, hb, lo_cols) = (cfg.element_size, cfg.hi_bytes, cfg.lo_bytes());
    let n = chunk.len() / es;

    let (mut hi, lo) = p
        .time("split.compress_s", || split_hi_lo(chunk, es, hb))
        .map_err(err)?;
    // `IdMap::from_freq` is `from_ranked(freq.ranked())`: the ranking is
    // timed with the table in `freq`, the ID table's fill in `idmap`.
    let ranked = p.time("freq.compress_s", || {
        FreqTable::from_hi_matrix(&hi, hb).ranked()
    });
    p.add("idmap.distinct_hi", ranked.len() as f64);
    let (map, index) = p
        .time("idmap.compress_s", || {
            let map = IdMap::from_ranked(ranked, hb)?;
            map.encode_hi(&mut hi)?;
            let mut index = Vec::with_capacity(map.serialized_len());
            map.serialize(&mut index);
            Ok::<_, primacy_core::PrimacyError>((map, index))
        })
        .map_err(err)?;
    p.add("idmap.index_bytes", index.len() as f64);
    let hi_lin = p.time("linearize.compress_s", || to_columns(&hi, n, hb));
    let hi_comp = p
        .time("codec_hi.compress_s", || {
            codec.compress_with(&hi_lin, scratch)
        })
        .map_err(err)?;
    p.add("codec_hi.in_bytes", hi_lin.len() as f64);
    p.add("codec_hi.out_bytes", hi_comp.len() as f64);
    let (mask, compressible, incompressible) = p.time("isobar.compress_s", || {
        let report = isobar::analyze(&lo, n, lo_cols, &cfg.isobar);
        let (c, i) = isobar::partition(&lo, n, lo_cols, report.mask);
        (report.mask, c, i)
    });
    p.add("isobar.raw_bytes", incompressible.len() as f64);
    // Timed like the pipeline times it: the emptiness test is part of the
    // lo codec step, so a chunk with no compressible column costs ~0 here.
    let lo_comp = p
        .time("codec_lo.compress_s", || {
            if compressible.is_empty() {
                Ok(Vec::new())
            } else {
                codec.compress_with(&compressible, scratch)
            }
        })
        .map_err(err)?;
    p.add("codec_lo.in_bytes", compressible.len() as f64);
    p.add("codec_lo.out_bytes", lo_comp.len() as f64);
    let crc = p.time("crc.compress_s", || crc32(chunk));
    let payload = index.len() + hi_comp.len() + lo_comp.len() + incompressible.len();

    let mut hi_lin = Vec::new();
    p.time("codec_hi.decompress_s", || {
        codec.decompress_into(&hi_comp, scratch, &mut hi_lin)
    })
    .map_err(err)?;
    let mut hi = p.time("linearize.decompress_s", || to_rows(&hi_lin, n, hb));
    p.time("idmap.decompress_s", || {
        IdMap::deserialize(&index, map.len(), hb).and_then(|m| m.decode_hi(&mut hi))
    })
    .map_err(err)?;
    let mut compressible = Vec::new();
    p.time("codec_lo.decompress_s", || {
        if lo_comp.is_empty() {
            Ok(())
        } else {
            codec.decompress_into(&lo_comp, scratch, &mut compressible)
        }
    })
    .map_err(err)?;
    let lo = p.time("isobar.decompress_s", || {
        isobar::unpartition(&compressible, &incompressible, n, lo_cols, mask)
    });
    let restored = p
        .time("split.decompress_s", || join_hi_lo(&hi, &lo, es, hb))
        .map_err(err)?;
    let restored_crc = p.time("crc.decompress_s", || crc32(&restored));
    Ok((restored == chunk && restored_crc == crc, payload as u64))
}

/// The archive layer on `input`: overlapped write split into append and
/// finish, open, parallel and serial reads, and the bytes a range-read plan
/// decodes per byte it returns. Returns the archive's length.
fn archive_layer(
    input: &[u8],
    seed: u64,
    skew: ReadSkew,
    threads: usize,
    p: &mut Pass,
    ops: &mut [OpCount; 3],
) -> Result<(bool, u64), String> {
    let cfg = PrimacyConfig::default();
    let t = Instant::now();
    let mut writer =
        primacy_core::ArchiveWriter::with_overlap(Vec::new(), cfg.clone(), threads).map_err(err)?;
    let appended = writer.append(input);
    let append_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let written = appended.and_then(|()| writer.finish());
    let finish_s = t.elapsed().as_secs_f64();
    ops[0].record(written.is_ok());
    let archive = written.map_err(err)?;
    p.set("archive.append_s", append_s);
    p.set("archive.finish_s", finish_s);
    let t = Instant::now();
    black_box(PrimacyCompressor::new(cfg).compress_bytes(input)).map_err(err)?;
    let serial_write_s = t.elapsed().as_secs_f64();
    p.set(
        "archive.write_parallel_efficiency",
        serial_write_s / (threads as f64 * (append_s + finish_s)),
    );

    let t = Instant::now();
    let reader = ArchiveReader::open(&archive);
    p.set("archive.open_s", t.elapsed().as_secs_f64());
    let reader = reader.map_err(err)?;
    let t = Instant::now();
    let all = reader.read_all_parallel(threads);
    let parallel_s = t.elapsed().as_secs_f64();
    ops[1].record(all.is_ok());
    let correct = all.map_err(err)? == input;
    let t = Instant::now();
    let (mut scratch, mut chunk) = (DecodeScratch::new(), Vec::new());
    for i in 0..reader.chunk_count() {
        reader
            .read_chunk_with(i, &mut scratch, &mut chunk)
            .map_err(err)?;
    }
    let serial_s = t.elapsed().as_secs_f64();
    p.set(
        "archive.read_parallel_efficiency",
        serial_s / (threads as f64 * parallel_s),
    );

    // Round 0's range-read plan, run through `read_elements`. The bytes it
    // decodes are the program's own `decompress.bytes_out` trace counter,
    // which every chunk decode adds its plaintext length to.
    let spans = archive::chunk_spans(&reader);
    let mut correct_ranges = true;
    let mut returned = 0u64;
    trace::flush_thread();
    let before = TRACE.snapshot().counter(DECODED_BYTES);
    for r in inputs::range_plan(seed, 0, &spans, skew) {
        let got = reader.read_elements(r.start, r.count);
        ops[2].record(got.is_ok());
        correct_ranges &= got.map_err(err)? == archive::expected_range(input, &r);
        returned += r.count as u64 * 8;
    }
    trace::flush_thread();
    let decoded = TRACE.snapshot().counter(DECODED_BYTES) - before;
    p.set(
        "archive.range_decoded_per_returned",
        decoded as f64 / returned as f64,
    );
    Ok((correct && correct_ranges, archive.len() as u64))
}

/// The serve layer: a closed-loop window gives the round-trip p50; the
/// same requests are then run through the library (codec) and through the
/// frame encoders and decoders of both directions (protocol), untimed by
/// the loop.
fn serve_layer(
    server: &ServerProcess,
    pool: &Pool,
    seed: u64,
    p: &mut Pass,
    ops: &mut [OpCount; 2],
) -> Result<bool, String> {
    let load = serve::closed_loop(
        server.addr,
        pool,
        primacy_recordbench::nproc(),
        seed,
        SERVE_WINDOW,
    )?;
    for (op, got) in ops
        .iter_mut()
        .zip([&load.compress_ops, &load.decompress_ops])
    {
        op.attempted += got.attempted;
        op.failed += got.failed;
    }
    let round_trip_p50 = report::median(&load.latencies_us());
    let compressor = PrimacyCompressor::new(PrimacyConfig::default());
    let (mut codec_us, mut protocol_us) = (Vec::new(), Vec::new());
    for &i in load.sequence.iter().flatten() {
        let (payload, compressed) = (&pool.payloads[i], &pool.reference[i]);
        for (op, input, output) in [
            (Op::Compress, payload, compressed),
            (Op::Decompress, compressed, payload),
        ] {
            let t = Instant::now();
            let got = match op {
                Op::Compress => compressor.compress_bytes(input),
                _ => compressor.decompress_bytes(input),
            };
            codec_us.push(t.elapsed().as_secs_f64() * 1e6);
            if got.map_err(err)? != *output {
                return Ok(false);
            }

            let request = Request {
                op,
                codec: ServeCodec::Primacy,
                request_id: 1,
                tenant: 1,
                payload: input.clone(),
            };
            let response = Response {
                status: Status::Ok,
                op_echo: op.to_byte(),
                codec_echo: ServeCodec::Primacy.to_byte(),
                request_id: 1,
                tenant: 1,
                payload: output.clone(),
            };
            let t = Instant::now();
            let frame = request.encode_frame().map_err(err)?;
            let (body, _) = split_frame(&frame, DEFAULT_MAX_FRAME)
                .map_err(err)?
                .ok_or("short request frame")?;
            black_box(Request::decode(body).map_err(err)?);
            let frame = response.encode_frame().map_err(err)?;
            let (body, _) = split_frame(&frame, usize::MAX)
                .map_err(err)?
                .ok_or("short response frame")?;
            black_box(Response::decode(body).map_err(err)?);
            protocol_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let codec_p50 = report::median(&codec_us);
    let protocol_p50 = report::median(&protocol_us);
    p.set("serve.codec_us", codec_p50);
    p.set("serve.protocol_us", protocol_p50);
    p.set(
        "serve.residual_us",
        round_trip_p50 - codec_p50 - protocol_p50,
    );
    Ok(load.wrong_outputs == 0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let bin = args
        .server_bin
        .as_deref()
        .ok_or("traced runs need --server-bin")?;
    let threads = primacy_recordbench::nproc();
    let archive_workload = Workload::from_name(&args.workload);
    if archive_workload.is_none() && args.workload != "serve" {
        return Err(format!("unknown workload {:?}", args.workload));
    }

    // The workload's input. For `serve` it is the checkpoint the payloads
    // are sliced from, and the pipeline runs once per payload, as the
    // server does; for the archive workloads it runs once on the input.
    let t = Instant::now();
    let input = match archive_workload {
        Some(w) => w.input(args.seed),
        None => serve::source(args.seed),
    };
    let datagen_s = t.elapsed().as_secs_f64();
    let pool = Pool::new(args.seed, &input)?;
    let streams: Vec<&[u8]> = match archive_workload {
        Some(_) => vec![&input],
        None => pool.payloads.iter().map(Vec::as_slice).collect(),
    };
    let skew = archive_workload.map_or(ReadSkew::Uniform, Workload::skew);
    let server = ServerProcess::start(bin, threads)?;

    let cfg = PrimacyConfig::default();
    let chunk_bytes = cfg.chunk_elements() * cfg.element_size;
    let codec = cfg.codec.build();
    let compressor = PrimacyCompressor::new(cfg.clone());
    let mut replay = OpCount::new("replay_chunk");
    let mut pipeline = OpCount::new("pipeline_round_trip");
    let mut archive_ops = [
        OpCount::new("archive_write"),
        OpCount::new("archive_read_all"),
        OpCount::new("range_read"),
    ];
    let mut serve_ops = [
        OpCount::new("serve_compress"),
        OpCount::new("serve_decompress"),
    ];
    let mut correct = true;
    let mut passes: Vec<Pass> = Vec::new();
    let mut chunks = 0u64;
    while passes.is_empty() || started.elapsed() < args.seconds {
        let mut p = Pass::default();
        let mut scratch = CodecScratch::new();
        let mut accounted = 0u64;
        chunks = 0;
        for chunk in streams.iter().flat_map(|s| s.chunks(chunk_bytes)) {
            let replayed = replay_chunk(chunk, &cfg, codec.as_ref(), &mut scratch, &mut p);
            replay.record(replayed.is_ok());
            let (ok, bytes) = replayed?;
            correct &= ok;
            accounted += bytes;
            chunks += 1;
        }
        p.set(
            "idmap.distinct_hi",
            p.get("idmap.distinct_hi") / chunks as f64,
        );

        let mut stream_bytes = 0u64;
        for s in &streams {
            let compressed = p
                .time("pipeline.compress_s", || compressor.compress_bytes(s))
                .map_err(err);
            let restored = compressed.as_ref().map_err(Clone::clone).and_then(|c| {
                p.time("pipeline.decompress_s", || compressor.decompress_bytes(c))
                    .map_err(err)
            });
            pipeline.record(restored.is_ok());
            correct &= restored? == *s;
            stream_bytes += compressed?.len() as u64;
        }
        for (side, stages, key) in [
            (
                "pipeline.compress_s",
                &COMPRESS_STAGES[..],
                "layers.compress_residual_pct",
            ),
            (
                "pipeline.decompress_s",
                &DECOMPRESS_STAGES[..],
                "layers.decompress_residual_pct",
            ),
        ] {
            let wall = p.get(side);
            let staged: f64 = stages.iter().map(|s| p.get(s)).sum();
            p.set(key, (wall - staged) / wall * 100.0);
        }

        let (archive_ok, archive_bytes) =
            archive_layer(&input, args.seed, skew, threads, &mut p, &mut archive_ops)?;
        correct &= archive_ok;
        // The container the replayed chunks are reconciled against: the
        // archive for the archive workloads, the per-request streams for
        // `serve`.
        let container = if archive_workload.is_some() {
            archive_bytes
        } else {
            stream_bytes
        };
        p.set(
            "layers.unaccounted_bytes",
            container as f64 - accounted as f64,
        );
        correct &= serve_layer(
            &server,
            &pool,
            inputs::subseed(args.seed, passes.len() as u64),
            &mut p,
            &mut serve_ops,
        )?;
        p.set("datagen.s", datagen_s);
        passes.push(p);
    }
    drop(server);

    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
            metric(name, report::median(&values), unit)
        })
        .collect();
    metrics.push(metric("trace.wall_s", started.elapsed().as_secs_f64(), "s"));
    Ok(Outcome {
        correct,
        ops: [replay, pipeline]
            .into_iter()
            .chain(archive_ops)
            .chain(serve_ops)
            .collect(),
        metrics,
        inputs: vec![
            ("input_bytes", input.len() as u64),
            ("replayed_chunks", chunks),
            ("passes", passes.len() as u64),
            ("threads", threads as u64),
        ],
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match report::parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("recordbench-layers: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = trace::install(&TRACE) {
        eprintln!("recordbench-layers: {e}");
        return ExitCode::FAILURE;
    }
    match run(&args).and_then(|o| report::print_outcome("layers", &args, &o, started.elapsed())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("recordbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}
