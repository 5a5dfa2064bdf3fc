//! Shared helpers for the `repro_*` binaries.

#![forbid(unsafe_code)]

pub mod dss;
pub mod figures;
pub mod meta;

use std::str::FromStr;
use ycsb::workload::Workload;

/// The value of `--key value`: `Ok(None)` when the flag is absent, an
/// error when it is present but its value is missing or does not parse.
fn parse_arg<T: FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let Some(v) = args.get(i + 1) else {
        return Err(format!("{key} needs a value"));
    };
    v.parse()
        .map(Some)
        .map_err(|_| format!("{key}: cannot parse {v:?}"))
}

/// The comma-separated values of `--key a,b,c`: `Ok(None)` when the flag
/// is absent, an error when its value is missing or any entry does not
/// parse (an entry is never dropped).
fn parse_list<T: FromStr>(args: &[String], key: &str) -> Result<Option<Vec<T>>, String> {
    let Some(list) = parse_arg::<String>(args, key)? else {
        return Ok(None);
    };
    list.split(',')
        .map(|v| v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// `q` as a TPC-H query number: an integer in 1..=22.
fn tpch_query(what: &str, q: usize) -> Result<usize, String> {
    if (1..=22).contains(&q) {
        Ok(q)
    } else {
        Err(format!("{what}: TPC-H has queries 1..=22, got {q}"))
    }
}

/// `--queries` as TPC-H query numbers.
fn parse_queries(args: &[String]) -> Result<Option<Vec<usize>>, String> {
    let Some(queries) = parse_list(args, "--queries")? else {
        return Ok(None);
    };
    queries
        .into_iter()
        .map(|q| tpch_query("--queries", q))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// The positional query of `explain 5 --sf 0.02`; absent (no first
/// argument, or a flag in its place) means Q5.
fn parse_query(args: &[String]) -> Result<usize, String> {
    match args.get(1) {
        Some(v) if !v.starts_with("--") => {
            let q = v
                .parse()
                .map_err(|_| format!("query: cannot parse {v:?}"))?;
            tpch_query("query", q)
        }
        _ => Ok(5),
    }
}

/// A YCSB workload letter (`A`–`E`, either case); `None` means A.
fn parse_workload(letter: Option<&str>) -> Result<Workload, String> {
    match letter {
        None | Some("A") | Some("a") => Ok(Workload::A),
        Some("B") | Some("b") => Ok(Workload::B),
        Some("C") | Some("c") => Ok(Workload::C),
        Some("D") | Some("d") => Ok(Workload::D),
        Some("E") | Some("e") => Ok(Workload::E),
        Some(other) => Err(format!("--workload: unknown workload {other:?} (A–E)")),
    }
}

/// Print a usage error and exit with status 2.
fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Parse `--key value` style args with a default; a present flag whose
/// value is missing or malformed is a usage error (exit 2).
pub fn arg_f64(args: &[String], key: &str, default: f64) -> f64 {
    parse_arg(args, key)
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or(default)
}

pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    parse_arg(args, key)
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or(default)
}

/// `--key a,b,c` (e.g. `--scales 250,1000`); `None` when absent. A missing
/// value or an entry that does not parse is a usage error (exit 2).
pub fn arg_list<T: FromStr>(args: &[String], key: &str) -> Option<Vec<T>> {
    parse_list(args, key).unwrap_or_else(|e| usage_error(e))
}

/// `--queries 1,5,19`; `None` when absent. An entry that is not an integer
/// in 1..=22 is a usage error (exit 2).
pub fn arg_queries(args: &[String]) -> Option<Vec<usize>> {
    parse_queries(args).unwrap_or_else(|e| usage_error(e))
}

/// The positional TPC-H query (`explain 9`), Q5 when absent; anything but
/// an integer in 1..=22 is a usage error (exit 2).
pub fn arg_query(args: &[String]) -> usize {
    parse_query(args).unwrap_or_else(|e| usage_error(e))
}

/// `--workload X` (default A); an unknown letter is a usage error (exit 2).
pub fn arg_workload(args: &[String]) -> Workload {
    parse_workload(arg_str(args, "--workload").as_deref()).unwrap_or_else(|e| usage_error(e))
}

pub fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Parse a `--key value` string argument (e.g. `--trace out.json`).
pub fn arg_str(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--sf", "0.05", "--fast"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_f64(&args, "--sf", 0.02), 0.05);
        assert_eq!(arg_f64(&args, "--missing", 7.0), 7.0);
        assert!(has_flag(&args, "--fast"));
        assert!(!has_flag(&args, "--slow"));
        assert_eq!(arg_str(&args, "--sf").as_deref(), Some("0.05"));
        assert_eq!(arg_str(&args, "--missing"), None);
    }

    #[test]
    fn malformed_or_missing_values_are_errors_not_defaults() {
        let args: Vec<String> = ["prog", "--windows", "abc", "--k", "2500", "--target"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_arg::<f64>(&args, "--k"), Ok(Some(2500.0)));
        assert_eq!(parse_arg::<usize>(&args, "--absent"), Ok(None));
        assert!(parse_arg::<usize>(&args, "--windows")
            .unwrap_err()
            .contains("\"abc\""));
        assert!(parse_arg::<f64>(&args, "--target")
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_arg::<usize>(&["--k".into(), "2.5".into()], "--k").is_err());
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn malformed_list_entries_are_errors_not_dropped() {
        assert_eq!(
            parse_list::<f64>(&args(&["--scales", "250,16000"]), "--scales"),
            Ok(Some(vec![250.0, 16000.0]))
        );
        assert_eq!(parse_list::<f64>(&args(&[]), "--scales"), Ok(None));
        assert!(parse_list::<f64>(&args(&["--scales", "250,,1000"]), "--scales").is_err());
        assert_eq!(
            parse_queries(&args(&["--queries", "1,5,19"])),
            Ok(Some(vec![1, 5, 19]))
        );
        assert_eq!(parse_queries(&args(&[])), Ok(None));
        assert!(parse_queries(&args(&["--queries", "1,x"]))
            .unwrap_err()
            .contains("\"x\""));
        assert!(parse_queries(&args(&["--queries", "1.5"]))
            .unwrap_err()
            .contains("\"1.5\""));
        for out_of_range in ["0", "23", "5,23"] {
            assert!(parse_queries(&args(&["--queries", out_of_range]))
                .unwrap_err()
                .contains("1..=22"));
        }
    }

    #[test]
    fn positional_query_is_strict_and_defaults_to_q5() {
        assert_eq!(parse_query(&args(&["explain"])), Ok(5));
        assert_eq!(parse_query(&args(&["explain", "--sf", "0.01"])), Ok(5));
        assert_eq!(parse_query(&args(&["explain", "9", "--sf", "0.01"])), Ok(9));
        assert_eq!(parse_query(&args(&["critpath", "22"])), Ok(22));
        for bad in ["x", "1.5", "5,6", "-1"] {
            assert!(parse_query(&args(&["explain", bad]))
                .unwrap_err()
                .contains(&format!("{bad:?}")));
        }
        for out_of_range in ["0", "23"] {
            assert!(parse_query(&args(&["explain", out_of_range]))
                .unwrap_err()
                .contains("1..=22"));
        }
    }

    #[test]
    fn workload_letters_parse_in_either_case() {
        assert_eq!(parse_workload(None), Ok(Workload::A));
        assert_eq!(parse_workload(Some("d")), Ok(Workload::D));
        assert_eq!(parse_workload(Some("E")), Ok(Workload::E));
        assert!(parse_workload(Some("F")).unwrap_err().contains("\"F\""));
    }
}
