//! Command line, statistics and the report lines every run prints.
//!
//! A run prints two informational JSON lines (`provenance`, `operations`)
//! and then, as its last line, the result object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name: `checkpoint`, `incompressible` or `serve`.
    pub workload: String,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Path of the `primacy-serve` executable.
    pub server_bin: Option<PathBuf>,
}

/// Parse `--workload W --seed N --seconds S [--server-bin PATH]`.
pub fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut server_bin = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        server_bin,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Attempted and failed counts of one kind of operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCount {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl OpCount {
    pub fn new(kind: &'static str) -> Self {
        OpCount {
            kind,
            attempted: 0,
            failed: 0,
        }
    }

    /// Record one attempt of this kind.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a workload hands back to be reported.
#[derive(Debug)]
pub struct Outcome {
    /// Every output that came back matched what the benchmark computed.
    pub correct: bool,
    pub ops: Vec<OpCount>,
    pub metrics: Vec<Metric>,
    /// Input make-up for the provenance line: `(name, value)`.
    pub inputs: Vec<(&'static str, u64)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Size of the last-level cache as the kernel reports it for CPU 0.
fn llc_size() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(l, s)| format!("L{l} {s}"))
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Print the provenance line, the per-kind operation line and the result
/// line. Fails, printing nothing, when a metric is not a finite number.
pub fn print_outcome(
    binary: &str,
    args: &Args,
    outcome: &Outcome,
    wall: Duration,
) -> Result<(), String> {
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut prov = String::new();
    let _ = write!(
        prov,
        "{{\"provenance\": {{\"binary\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"commit\": {}, \"source_sha256\": {}, \"profile\": {}, \"nproc\": {}, \"llc\": {}, \
         \"wall_s\": {}, \"inputs\": {{",
        json_str(binary),
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs_f64(),
        json_str(&env("RECORDBENCH_COMMIT")),
        json_str(&env("RECORDBENCH_SOURCE_SHA256")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        crate::nproc(),
        json_str(&llc_size()),
        wall.as_secs_f64(),
    );
    for (i, (k, v)) in outcome.inputs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(prov, "{sep}{}: {v}", json_str(k));
    }
    prov.push_str("}}}");
    println!("{prov}");

    let mut ops = String::from("{\"operations\": {");
    for (i, op) in outcome.ops.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            ops,
            "{sep}{}: {{\"attempted\": {}, \"failed\": {}}}",
            json_str(op.kind),
            op.attempted,
            op.failed
        );
    }
    ops.push_str("}}");
    println!("{ops}");

    let attempted: u64 = outcome.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcome.ops.iter().map(|o| o.failed).sum();
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        outcome.correct
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
