//! `bench_e2e` — end-to-end benchmark of the simulator's host time.
//!
//! One invocation runs one workload on one thread in this process: it
//! repeats set-up and the timed region, checks the simulated outputs, and
//! prints every end-to-end metric (or, with `--trace 1`, the per-layer
//! metrics of one extra traced rep) as the last stdout line.
//! See README.md for the workloads, metrics and layer map.

mod args;
mod compare;
mod digest;
mod dss;
mod metrics;
mod serving;
mod stats;
mod trace;
mod workload;

use args::{Command, Opts};
use metrics::{END_TO_END, FAIL_FRAC, PER_LAYER};
use stats::{median, tail_mean, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;
use trace::Tracer;
use workload::{Kind, Rep, Runner};

/// Upper bound on repetitions, whatever `--seconds` asks for.
const MAX_REPS: usize = 50;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args::parse(&args) {
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{}", args::USAGE);
            2
        }
        Ok(Command::Compare(a, b)) => match compare::run(&a, &b) {
            Ok(any_worse) => i32::from(any_worse),
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                2
            }
        },
        Ok(Command::Run(opts)) => match run(&opts) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

/// Everything one invocation measured.
pub struct Outcome {
    pub reps: Vec<Rep>,
    /// The traced rep and its spans (with `--trace 1`).
    pub traced: Option<(Rep, Tracer)>,
    /// All reps, traced or not, produced the same simulated outputs and
    /// cut the same units.
    pub deterministic: bool,
}

/// Run `kind`'s reps: at least `min_reps`, then more while another rep of
/// average length still ends within `seconds`; then one traced rep if
/// asked.
pub fn measure(
    kind: Kind,
    seed: u64,
    smoke: bool,
    min_reps: usize,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut runner = Runner::new(kind, seed, smoke)?;
    let start = Instant::now();
    let mut untraced = Tracer::new(false);
    let mut reps = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let fits = spent + spent / reps.len().max(1) as f64 <= seconds;
        if reps.len() >= min_reps && (reps.len() >= MAX_REPS || !fits) {
            break;
        }
        reps.push(runner.rep(&mut untraced)?);
    }
    let traced = if trace {
        let mut tr = Tracer::new(true);
        let rep = runner.rep(&mut tr)?;
        Some((rep, tr))
    } else {
        None
    };
    let same = |r: &Rep| r.digest == reps[0].digest && r.units_ms.len() == reps[0].units_ms.len();
    let deterministic = reps.iter().all(same) && traced.as_ref().is_none_or(|(r, _)| same(r));
    Ok(Outcome {
        reps,
        traced,
        deterministic,
    })
}

/// The end-to-end values of one invocation. The reps do identical work,
/// so unit `i` is the same work in every rep; the timings take each unit's
/// median over the reps, which drops a burst of host noise unit by unit.
pub fn e2e_values(reps: &[Rep], rss_mb: f64, fail_frac: f64) -> BTreeMap<&'static str, f64> {
    let over_reps = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    let n = reps[0].units_ms.len();
    let unit_ms: Vec<f64> = (0..n).map(|i| over_reps(&|r| r.units_ms[i])).collect();
    let between_units = over_reps(&|r| r.wall_s - r.units_ms.iter().sum::<f64>() / 1e3);
    BTreeMap::from([
        ("wall_s", unit_ms.iter().sum::<f64>() / 1e3 + between_units),
        ("setup_s", over_reps(&|r| r.setup_s)),
        ("unit_p50_ms", median(&unit_ms)),
        ("unit_tail_ms", tail_mean(&unit_ms, tail_percentile(n))),
        ("peak_rss_mb", rss_mb),
        (FAIL_FRAC, fail_frac),
    ])
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Units attempted and failed over the counted reps and the traced one.
/// At the default seed the digest must equal the committed artifacts'
/// (`Kind::expected_digest`), or every unit counts as failed.
fn tally(o: &Opts, out: &Outcome) -> (usize, usize) {
    let all = || out.reps.iter().chain(out.traced.as_ref().map(|(r, _)| r));
    let attempted = all().map(|r| r.units_ms.len()).sum();
    let (digest, expected) = (out.reps[0].digest, o.workload.expected_digest());
    if !o.smoke && o.seed == o.workload.default_seed() && digest != expected {
        eprintln!("bench_e2e: digest {digest:#018x} != expected {expected:#018x}");
        return (attempted, attempted);
    }
    (attempted, all().map(|r| r.failed_units).sum())
}

/// `"name": {"value": v, "unit": u}` for each metric, comma-separated.
fn value_fields<'a>(
    defs: impl Iterator<Item = &'a metrics::Def>,
    values: &BTreeMap<&str, f64>,
) -> String {
    defs.map(|d| {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, values[d.name], d.unit
        )
    })
    .collect::<Vec<_>>()
    .join(", ")
}

fn run(o: &Opts) -> Result<(), String> {
    let out = measure(o.workload, o.seed, o.smoke, o.reps, o.seconds, o.trace)?;
    if !out.deterministic {
        return Err("repetitions disagree on the simulated outputs".into());
    }
    let (attempted, failed) = tally(o, &out);
    let digest = out.reps[0].digest;
    let head = format!(
        "\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}",
        failed == 0
    );
    println!("{}", out.reps[0].table);
    if o.smoke {
        println!("{{{head}, \"smoke\": true, \"digest\": \"{digest:#018x}\"}}");
        return Ok(());
    }

    let values = e2e_values(
        &out.reps,
        peak_rss_mb()?,
        failed as f64 / attempted.max(1) as f64,
    );
    let layers = out
        .traced
        .as_ref()
        .map(|(rep, tr)| metrics::per_layer(tr, &rep.extras, rep.wall_s / values["wall_s"] - 1.0));

    if let (Some(dir), Some((_, tr))) = (&o.spans, &out.traced) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.spans.jsonl", o.workload.name()));
        std::fs::write(&path, tr.jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &o.out {
        // The full report: machine, digest, every end-to-end value with its
        // bound, the raw per-rep timings, and the traced rep's per-layer
        // metrics and self time per span name.
        let mut line = format!(
            "{{{}, \"workload\": \"{}\", \"seed\": {}, \"reps\": {}, \"digest\": \"{digest:#018x}\", {head}, \"metrics\": {{",
            bench::meta::machine_json("").replace('\n', ""),
            o.workload.name(),
            o.seed,
            out.reps.len(),
        );
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    values[d.name],
                    d.unit,
                    d.better.label(),
                    d.bound
                )
            })
            .collect();
        let list = |f: fn(&Rep) -> f64| {
            out.reps
                .iter()
                .map(|r| f(r).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = write!(
            line,
            "{}}}, \"per_rep\": {{\"wall_s\": [{}], \"setup_s\": [{}]}}",
            e2e.join(", "),
            list(|r| r.wall_s),
            list(|r| r.setup_s)
        );
        if let (Some(layers), Some((_, tr))) = (&layers, &out.traced) {
            let selfs: Vec<String> = tr
                .self_secs()
                .into_iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = write!(
                line,
                ", \"per_layer\": {{{}}}, \"self_s\": {{{}}}",
                value_fields(PER_LAYER.iter(), layers),
                selfs.join(", ")
            );
        }
        line.push_str("}\n");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The summary line: end-to-end metrics, or the traced rep's per-layer
    // metrics. `fail_frac` travels as `failed`/`attempted`.
    let metrics = match &layers {
        None => value_fields(END_TO_END.iter().filter(|d| d.name != FAIL_FRAC), &values),
        Some(layers) => value_fields(PER_LAYER.iter(), layers),
    };
    println!("{{{head}, \"metrics\": {{{metrics}}}}}");
    Ok(())
}

#[cfg(test)]
mod tests;
