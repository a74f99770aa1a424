//! The archive workloads, `checkpoint` and `incompressible`: write the
//! whole input through the overlapped `ArchiveWriter`, read it back with
//! `read_all_parallel`, then make seeded `read_elements` range reads —
//! in rounds, until the run's time is up.
//!
//! The range reads open the archive once per round; that open is not
//! timed, and an open that fails fails every range read of the round.

use crate::inputs::{self, RangeRead, ReadSkew};
use crate::report::{self, metric, Args, OpCount, Outcome};
use crate::SETUP_REPS;
use primacy_core::{ArchiveReader, ArchiveWriter, PrimacyConfig};
use std::time::Instant;

/// Full reads per round: a full read takes a fraction of a write, so it is
/// repeated to give its median as many samples.
pub const FULL_READS_PER_ROUND: usize = 3;

/// Which archive workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Structured multi-variable checkpoint, reads skewed to hot chunks.
    Checkpoint,
    /// Uniformly random 64-bit patterns, reads spread uniformly.
    Incompressible,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "checkpoint" => Some(Workload::Checkpoint),
            "incompressible" => Some(Workload::Incompressible),
            _ => None,
        }
    }

    /// The workload's input for `seed`.
    pub fn input(self, seed: u64) -> Vec<u8> {
        match self {
            Workload::Checkpoint => inputs::checkpoint(seed, inputs::CHECKPOINT_FIELD_ELEMS),
            Workload::Incompressible => inputs::random_patterns(seed, inputs::RANDOM_ELEMS),
        }
    }

    pub fn skew(self) -> ReadSkew {
        match self {
            Workload::Checkpoint => ReadSkew::Hot,
            Workload::Incompressible => ReadSkew::Uniform,
        }
    }
}

/// Write `input` as one `append` through the overlapped writer with
/// `threads` workers into an in-memory sink, as `primacy archive` does.
pub fn write_archive(input: &[u8], threads: usize) -> primacy_core::Result<Vec<u8>> {
    let mut writer = ArchiveWriter::with_overlap(Vec::new(), PrimacyConfig::default(), threads)?;
    writer.append(input)?;
    writer.finish()
}

/// `(first element, elements)` of every chunk in the archive's directory.
pub fn chunk_spans(reader: &ArchiveReader<'_>) -> Vec<(u64, u64)> {
    let mut first = 0;
    (0..reader.chunk_count())
        .filter_map(|i| reader.entry(i))
        .map(|e| {
            let span = (first, e.elements);
            first += e.elements;
            span
        })
        .collect()
}

/// The slice of `input` a range read must return.
pub fn expected_range<'a>(input: &'a [u8], r: &RangeRead) -> &'a [u8] {
    let start = r.start as usize * 8;
    &input[start..start + r.count * 8]
}

/// Run an archive workload for `args.seconds`.
pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let threads = crate::nproc();
    let t = Instant::now();
    let input = workload.input(args.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    // The other set-ups are spread evenly over the run, between rounds, so
    // their median samples the machine over the whole run as the other
    // metrics do. Each must give the same input again.
    let set_up_again = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let again = workload.input(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        if again != input {
            eprintln!("set-up gave another input for the same seed");
        }
        again == input
    };
    let mb = input.len() as f64 / 1e6;

    let mut write = OpCount::new("archive_write");
    let mut read = OpCount::new("archive_read_all");
    let mut range = OpCount::new("range_read");
    let mut correct = true;
    let (mut write_mbps, mut read_mbps, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    // Each round's range-read median, 95th percentile (of 64 reads, the
    // fourth slowest) and reads per second. The metrics are medians over
    // rounds, so a slow stretch of the machine moves a run's figures little.
    let mut range_samples = 0u64;
    let (mut round_p50_us, mut round_p95_us) = (Vec::new(), Vec::new());
    let mut round_ops_per_s = Vec::new();
    let mut chunks = 0;
    let mut round = 0u64;
    let started = Instant::now();
    // Whole rounds only: every round attempts one write, the same number
    // of full reads and the same number of range reads, whatever fails.
    while round == 0 || started.elapsed() < args.seconds {
        let due = args
            .seconds
            .mul_f64(setup_s.len() as f64 / SETUP_REPS as f64);
        if setup_s.len() < SETUP_REPS && started.elapsed() >= due {
            correct &= set_up_again(&mut setup_s);
        }
        let t = Instant::now();
        let written = write_archive(&input, threads);
        let write_s = t.elapsed().as_secs_f64();
        write.record(written.is_ok());
        let archive = match written {
            Ok(a) => a,
            Err(e) => {
                eprintln!("round {round}: archive write failed: {e}");
                for _ in 0..FULL_READS_PER_ROUND {
                    read.record(false);
                }
                for _ in 0..inputs::RANGE_READS_PER_ROUND {
                    range.record(false);
                }
                round += 1;
                continue;
            }
        };
        write_mbps.push(mb / write_s);
        ratio.push(input.len() as f64 / archive.len() as f64);

        for _ in 0..FULL_READS_PER_ROUND {
            let t = Instant::now();
            let all = ArchiveReader::open(&archive).and_then(|r| r.read_all_parallel(threads));
            let read_s = t.elapsed().as_secs_f64();
            read.record(all.is_ok());
            match all {
                Ok(all) => {
                    read_mbps.push(mb / read_s);
                    if all != input {
                        eprintln!("round {round}: full read-back differs from the input");
                        correct = false;
                    }
                }
                Err(e) => eprintln!("round {round}: full read failed: {e}"),
            }
        }

        let reader = ArchiveReader::open(&archive);
        let Ok(reader) = reader else {
            for _ in 0..inputs::RANGE_READS_PER_ROUND {
                range.record(false);
            }
            round += 1;
            continue;
        };
        let spans = chunk_spans(&reader);
        chunks = spans.len();
        let mut this_round = Vec::with_capacity(inputs::RANGE_READS_PER_ROUND);
        for r in inputs::range_plan(args.seed, round, &spans, workload.skew()) {
            let t = Instant::now();
            let got = reader.read_elements(r.start, r.count);
            let dt = t.elapsed();
            range.record(got.is_ok());
            match got {
                Ok(bytes) => {
                    this_round.push(dt.as_secs_f64() * 1e6);
                    if bytes != expected_range(&input, &r) {
                        eprintln!("round {round}: range {r:?} differs from the input");
                        correct = false;
                    }
                }
                Err(e) => eprintln!("round {round}: range {r:?} failed: {e}"),
            }
        }
        if !this_round.is_empty() {
            round_p50_us.push(report::median(&this_round));
            round_p95_us.push(report::percentile(&this_round, 95.0));
            round_ops_per_s.push(this_round.len() as f64 * 1e6 / this_round.iter().sum::<f64>());
            range_samples += this_round.len() as u64;
        }
        round += 1;
    }
    while setup_s.len() < SETUP_REPS {
        correct &= set_up_again(&mut setup_s);
    }
    if write_mbps.is_empty() || read_mbps.is_empty() || round_p50_us.is_empty() {
        return Err("no operation of some kind succeeded; nothing to report".into());
    }

    Ok(Outcome {
        correct,
        ops: vec![write, read, range],
        metrics: vec![
            metric("setup_s", report::median(&setup_s), "s"),
            metric("write_mbps", report::median(&write_mbps), "MB/s"),
            metric("read_mbps", report::median(&read_mbps), "MB/s"),
            metric("ratio", report::median(&ratio), "x"),
            metric("small_op_p50_us", report::median(&round_p50_us), "us"),
            metric("small_op_p95_us", report::median(&round_p95_us), "us"),
            metric("small_ops_per_s", report::median(&round_ops_per_s), "ops/s"),
            metric(
                "peak_rss_mb",
                report::peak_rss_mb(None).ok_or("VmHWM unreadable")?,
                "MB",
            ),
        ],
        inputs: vec![
            ("input_bytes", input.len() as u64),
            ("input_elements", input.len() as u64 / 8),
            ("chunks", chunks as u64),
            ("rounds", round),
            ("full_reads_per_round", FULL_READS_PER_ROUND as u64),
            (
                "range_reads_per_round",
                inputs::RANGE_READS_PER_ROUND as u64,
            ),
            ("range_samples", range_samples),
            ("threads", threads as u64),
        ],
    })
}
