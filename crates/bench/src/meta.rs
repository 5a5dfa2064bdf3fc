//! Shared machine/config metadata for the `results/BENCH_*.json` files.
//!
//! Benchmark artifacts are trajectory points, not diff-gated fixtures:
//! their timings change host to host and run to run. For a timing to be
//! interpretable later, the artifact must say *where* it was measured and
//! *how* — core count, optimisation profile, iteration policy. Every
//! bench bin embeds the same `"machine"` / `"config"` objects via
//! [`machine_json`] and [`config_json`] so the files stay mutually
//! comparable and schema-checkable (`validate_bench` enforces presence
//! and types in CI).

/// The `"machine"` metadata object: stable facts about the host and build
/// that scale raw timings. Fields:
///
/// * `cores` — logical CPUs visible to the process (what the fan-out
///   runner parallelises over),
/// * `opt_level` — `"release"` or `"debug"`, from the compiled profile,
/// * `arch` / `os` — compile-target triple components.
pub fn machine_json(indent: &str) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let opt_level = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{indent}\"machine\": {{\n\
         {indent}  \"cores\": {cores},\n\
         {indent}  \"opt_level\": \"{opt_level}\",\n\
         {indent}  \"arch\": \"{}\",\n\
         {indent}  \"os\": \"{}\"\n\
         {indent}}}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

/// The `"config"` metadata object: how the timings were taken.
/// `iters` is the measurement repeat count and `timing` names the
/// aggregation policy applied over those repeats (the repo convention is
/// `"best_of_n_wall_clock"`: report the minimum, the least-noisy
/// estimator of the code's true cost on a quiet machine). A bench that
/// reports a ratio of two timings uses
/// `"median_of_n_alternating_wall_clock"` instead: the two sides alternate
/// in every round and each reports its median, so a noisy stretch of the
/// host lands on both sides rather than on one.
pub fn config_json(indent: &str, iters: usize, timing: &str) -> String {
    format!(
        "{indent}\"config\": {{\n\
         {indent}  \"iters\": {iters},\n\
         {indent}  \"timing\": \"{timing}\"\n\
         {indent}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_json_is_valid_and_complete() {
        let j = format!("{{\n{}\n}}", machine_json("  "));
        let v = obs::json::parse(&j).expect("machine metadata parses");
        let m = v.get("machine").expect("machine key");
        assert!(m.get("cores").and_then(|c| c.as_f64()).unwrap_or(0.0) >= 1.0);
        let opt = m.get("opt_level").and_then(|o| o.as_str()).unwrap();
        assert!(opt == "debug" || opt == "release");
        assert!(m.get("arch").and_then(|a| a.as_str()).is_some());
        assert!(m.get("os").and_then(|o| o.as_str()).is_some());
    }

    #[test]
    fn config_json_is_valid_and_complete() {
        let j = format!("{{\n{}\n}}", config_json("  ", 5, "best_of_n_wall_clock"));
        let v = obs::json::parse(&j).expect("config metadata parses");
        let c = v.get("config").expect("config key");
        assert_eq!(c.get("iters").and_then(|i| i.as_f64()), Some(5.0));
        assert_eq!(
            c.get("timing").and_then(|t| t.as_str()),
            Some("best_of_n_wall_clock")
        );
    }
}
