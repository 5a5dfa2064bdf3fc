//! Strict command-line parsing: an unknown flag, a repeated flag, a missing
//! value or an unparseable number is an error, never a silent default.

use crate::workload::Kind;
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
                 [--reps <n>] [--out <file.jsonl>] [--spans <dir>] [--smoke]
       bench_e2e --compare <a.jsonl> <b.jsonl>";

#[derive(Debug, PartialEq)]
pub struct Opts {
    pub workload: Kind,
    pub seed: u64,
    /// After `reps` repetitions, add more while another of average length
    /// still ends within this many seconds.
    pub seconds: f64,
    /// Run one extra, uncounted traced rep and report per-layer metrics.
    pub trace: bool,
    pub reps: usize,
    /// Append the full report as one JSON line.
    pub out: Option<PathBuf>,
    /// Write `<workload>.spans.jsonl` here (needs `--trace 1`).
    pub spans: Option<PathBuf>,
    pub smoke: bool,
}

#[derive(Debug, PartialEq)]
pub enum Command {
    Run(Opts),
    Compare(PathBuf, PathBuf),
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut seen: Vec<&str> = Vec::new();
    let (mut workload, mut seed, mut compare) = (None, None, None);
    let (mut seconds, mut trace, mut reps) = (0.0, false, 3);
    let (mut out, mut spans, mut smoke) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => workload = Some(Kind::parse(value()?)?),
            "--seed" => seed = Some(number::<u64>(flag, value()?)?),
            "--seconds" => {
                seconds = number::<f64>(flag, value()?)?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("{flag} must be a finite number ≥ 0"));
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("{flag} takes 0 or 1, not `{v}`")),
                }
            }
            "--reps" => {
                reps = number(flag, value()?)?;
                if reps == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some((a, b)) = compare {
        if seen.len() > 1 {
            return Err("--compare takes no other arguments".into());
        }
        return Ok(Command::Compare(a, b));
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if spans.is_some() && !trace {
        return Err("--spans needs --trace 1".into());
    }
    if smoke && out.is_some() {
        return Err("--smoke output is never a metric; drop --out".into());
    }
    Ok(Command::Run(Opts {
        workload,
        seed,
        seconds,
        trace,
        reps,
        out,
        spans,
        smoke,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn full_invocation_parses() {
        let Command::Run(o) =
            parse_str("--workload ycsb_a_update --seed 7 --seconds 20 --trace 1").unwrap()
        else {
            panic!("expected a run");
        };
        assert_eq!(o.workload, Kind::YcsbAUpdate);
        assert_eq!((o.seed, o.seconds, o.trace, o.reps), (7, 20.0, true, 3));
    }

    #[test]
    fn bad_input_is_an_error() {
        for bad in [
            "--workload tpch_1tb --seed 1",
            "--workload tpch_16tb --seed x",
            "--workload tpch_16tb --seed -1",
            "--workload tpch_16tb --seed 1 --reps 0",
            "--workload tpch_16tb --seed 1 --seconds nan",
            "--workload tpch_16tb --seed 1 --trace 2",
            "--workload tpch_16tb --seed 1 --frobnicate",
            "--workload tpch_16tb --seed 1 --seed 2",
            "--workload tpch_16tb",
            "--seed 1",
            "--workload tpch_16tb --seed 1 --spans dir",
            "--workload tpch_16tb --seed 1 --smoke --out x",
            "--workload tpch_16tb --seed",
            "--compare a.jsonl",
            "--compare a b --seed 1",
        ] {
            assert!(parse_str(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn compare_takes_two_files() {
        assert_eq!(
            parse_str("--compare a.jsonl b.jsonl").unwrap(),
            Command::Compare("a.jsonl".into(), "b.jsonl".into())
        );
    }
}
