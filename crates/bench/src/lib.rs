//! Shared helpers for the `repro_*` binaries.

#![forbid(unsafe_code)]

pub mod fanout;
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

    #[test]
    fn workload_letters_parse_in_either_case() {
        assert_eq!(parse_workload(None), Ok(Workload::A));
        assert_eq!(parse_workload(Some("d")), Ok(Workload::D));
        assert_eq!(parse_workload(Some("E")), Ok(Workload::E));
        assert!(parse_workload(Some("F")).unwrap_err().contains("\"F\""));
    }
}
