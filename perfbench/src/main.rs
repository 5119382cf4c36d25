//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host and configuration record, every metric by name with
//! its unit, the oracle check, and (traced) the per-layer self-time
//! tables; writes the same as a report, and the spans as a Chrome trace,
//! under `out/` in the package directory. The last line of standard
//! output is the result object.
//!
//! A run is one process: `setup_reps` set-ups (their median is
//! `setup_s`), then timed passes until the next one would take the timed
//! work past `--seconds`; each timed metric is the median over the passes.

use perfbench::metrics::{end_to_end, is_listed, layer_table, per_layer, program_table, totals};
use perfbench::report::{host_record, json_num, json_str, result_line, Metric};
use perfbench::trace::chrome_json;
use perfbench::workload::{run, Params, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <suite-batch|many-small|edit-requery> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run reports.
struct Outcome {
    text: String,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Measures the workload.
fn measure(args: &Args, params: &Params) -> (Outcome, Option<String>) {
    let r = run(args.workload, params, args.seed, args.seconds, args.trace);
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    let (queries, completed) = totals(&r);
    let t = &r.tally;
    let failed = t.mismatches + t.andersen_violations;

    let mut text = String::new();
    let walls: Vec<String> = r
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    let setups: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let _ = writeln!(
        text,
        "passes {} (traced {}), queries {queries}, completed {completed}, \
         out_of_budget {}, failed_frac {:.6}\npass wall_s [{}]\nsetup_s [{}]",
        r.passes.len(),
        r.passes.iter().filter(|p| p.traced).count(),
        queries - completed,
        (queries - completed + t.mismatches) as f64 / queries.max(1) as f64,
        walls.join(", "),
        setups.join(", "),
    );
    let _ = writeln!(
        text,
        "check: oracle compared {} (units reused by digest {}), oracle step-cap skips {}, \
         mismatches {}, andersen checked {}, violations {}",
        t.compared,
        t.reused,
        t.skipped_cap,
        t.mismatches,
        t.andersen_checked,
        t.andersen_violations
    );
    text.push_str(&metric_lines(&metrics));
    if args.trace {
        text.push_str(&layer_table(&r));
        if args.workload == Workload::SuiteBatch {
            text.push_str(&program_table(&r));
        }
    }
    let chrome = args.trace.then(|| chrome_json(r.tracer.spans()));
    let outcome = Outcome {
        text,
        metrics,
        attempted: queries,
        failed,
        correct: failed == 0,
    };
    (outcome, chrome)
}

fn metric_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let kind = if m.exact { "exact" } else { "noisy" };
        let _ = writeln!(
            out,
            "metric {:<28} {:>22} {:<6} {kind}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params::standard();
    let mut config = params.record();
    config.extend([
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
    ]);
    let host = host_record(&config);
    println!("host {host}");

    let (outcome, chrome) = measure(&args, &params);
    print!("{}", outcome.text);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
    );
    let listed: Vec<Metric> = outcome
        .metrics
        .iter()
        .filter(|m| is_listed(&m.name))
        .cloned()
        .collect();
    let line = result_line(outcome.correct, outcome.attempted, outcome.failed, &listed);
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut files = vec![(
        format!("{stem}.txt"),
        format!("host {host}\n{}{line}\n", outcome.text),
    )];
    if let Some(chrome) = chrome {
        files.push((format!("{stem}.chrome.json"), chrome));
    }
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, body)| std::fs::write(out_dir.join(name), body))
    });
    if let Err(e) = written {
        eprintln!(
            "could not write the report under {}: {e}",
            out_dir.display()
        );
    }
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("answers disagree with the oracle");
        ExitCode::FAILURE
    }
}
