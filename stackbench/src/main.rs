//! Whole-stack benchmark. Each workload is one dataset shape (`wikitalk` or
//! `sparse`) taken through the whole stack in one process: first the
//! embedded engine (insert, query, scan, delete; see [`ingest`]), then
//! pipelined RESP reads against the durable server with a snapshot, shutdown
//! and recovery (see [`serve`]). `serve_write`, durable writes only, is a
//! diagnostic outside the manifest.
//!
//! ```text
//! stackbench --workload <wikitalk|sparse|serve_write> [--seed N]
//!            [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints notes and the host fingerprint, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` the per-layer metrics, and
//! writes the run's spans to `.bench_trace/`. Exits non-zero when any
//! checked operation disagreed with the benchmark's model.

mod ingest;
mod report;
mod rng;
mod serve;
mod trace;
mod wire;

use ingest::IngestSize;
use report::Outcome;
use serve::{Mix, ServeSize};
use std::path::Path;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Run length used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 50.0;
/// Scratch directory for the durable servers' files, relative to the
/// working directory; removed when the run ends.
const DATA_DIR: &str = ".bench_data";
/// Where traced runs write their spans.
const TRACE_DIR: &str = ".bench_trace";
/// Share of `--seconds` given to the ingest part; serving gets the rest.
const INGEST_SHARE: f64 = 0.7;

/// A workload of the manifest: one dataset shape through both parts.
struct Workload {
    name: &'static str,
    ingest: IngestSize,
    serve: ServeSize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "wikitalk",
        ingest: ingest::WIKITALK,
        serve: serve::READ,
    },
    Workload {
        name: "sparse",
        ingest: ingest::SPARSE,
        serve: serve::READ_SPARSE,
    },
];

impl Workload {
    /// Runs the ingest part, then the serving part, in this process.
    fn run(&self, seed: u64, seconds: f64, trace: bool, data: &Path) -> Outcome {
        let mut out = ingest::run(seed, seconds * INGEST_SHARE, trace, self.ingest);
        let rest = seconds * (1.0 - INGEST_SHARE);
        out.absorb(serve::run(Mix::Read, seed, rest, trace, self.serve, data));
        finish(&mut out, trace);
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("bad --seconds {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_fingerprint());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let data = Path::new(DATA_DIR);
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let outcome = if let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) {
        w.run(seed, seconds, trace, data)
    } else if args.workload == "serve_write" {
        let mut out = serve::run(Mix::Write, seed, seconds, trace, serve::WRITE, data);
        finish(&mut out, trace);
        out
    } else {
        eprintln!(
            "stackbench: unknown workload '{}' (wikitalk, sparse, serve_write)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Only remove the scratch directory if no other run is using it.
    let _ = std::fs::remove_dir(data);
    for (part, tracer) in &outcome.traces {
        let path = Path::new(TRACE_DIR).join(format!(
            "{}-{part}-seed{}-{}.tsv",
            args.workload,
            args.seed,
            std::process::id()
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("stackbench: writing spans failed: {e}"),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds the whole-run metrics: set-up summed over the parts and the peak
/// resident set once every part has run one round.
fn finish(out: &mut Outcome, trace: bool) {
    if trace {
        return;
    }
    out.push("setup_s", "s", out.setup_s);
    out.push("peak_rss_mb", "MiB", out.peak_rss_mb);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one section of `BENCHMARK.json` at
    /// the repository root (units empty for workloads).
    fn manifest(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
        let body = &body[..body.find(']').expect("end of section")];
        let field = |entry: &str, key: &str| {
            let start = entry
                .find(&format!("\"{key}\": \""))
                .map(|i| i + key.len() + 5);
            start.map_or(String::new(), |i| {
                entry[i..i + entry[i..].find('"').expect("closing quote")].to_string()
            })
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_reports_every_metric_of_the_manifest() {
        let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        let listed: Vec<String> = manifest("workloads").into_iter().map(|e| e.0).collect();
        assert_eq!(names, listed);
        let data = std::env::temp_dir().join(format!("stackbench-main-{}", std::process::id()));
        for w in &WORKLOADS {
            let tiny = Workload {
                name: w.name,
                ingest: IngestSize {
                    scale: w.ingest.scale / 50.0,
                    scan_rounds: 1,
                    setups: 1,
                    ..w.ingest
                },
                serve: ServeSize {
                    preload_scale: w.serve.preload_scale / 40.0,
                    bursts: 40,
                    ..w.serve
                },
            };
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let out = tiny.run(2, 0.0, trace, &data);
                assert_eq!(out.failed, 0, "{} trace={trace}: {:?}", w.name, out.notes);
                let mut got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                let mut want = manifest(section);
                got.sort();
                want.sort();
                assert_eq!(got, want, "{} trace={trace}", w.name);
            }
        }
        let _ = std::fs::remove_dir_all(&data);
    }
}
