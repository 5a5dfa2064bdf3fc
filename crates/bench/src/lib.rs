//! Shared helpers for the `repro_*` binaries.

#![forbid(unsafe_code)]

pub mod fanout;
pub mod figures;
pub mod meta;

/// Parse `--key value` style args with a default.
pub fn arg_f64(args: &[String], key: &str, default: f64) -> f64 {
    args.windows(2)
        .find(|w| w[0] == key)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    args.windows(2)
        .find(|w| w[0] == key)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
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
}
