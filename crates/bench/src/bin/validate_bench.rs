//! Schema gate for the perf-trajectory artifacts. `BENCH_*.json` files
//! are exempt from the byte-diff gate (timings are host-dependent by
//! design), so this is the check that keeps them honest instead: every
//! committed bench artifact must parse, carry the machine/config
//! annotations that make a timing interpretable later, and have the
//! per-bench fields the trajectory docs read. One deterministic work
//! counter is bounded too: the kernel bench's YCSB point must scan at most
//! `MAX_SCAN_PER_POP` calendar-queue entries per pop. Run by
//! `scripts/ci.sh` after the benches regenerate in smoke mode.
//!
//! Usage: `validate_bench <file.json>...` — exits non-zero listing every
//! violation.

use obs::json::{parse, Json};
use simkit::sched::MAX_SCAN_PER_POP;

/// One failed expectation about one file.
struct Violation {
    file: String,
    what: String,
}

/// Require `path` (dot-separated) to exist; returns the node.
fn need<'a>(root: &'a Json, path: &str, out: &mut Vec<String>) -> Option<&'a Json> {
    let mut cur = root;
    for part in path.split('.') {
        match cur.get(part) {
            Some(next) => cur = next,
            None => {
                out.push(format!("missing field `{path}`"));
                return None;
            }
        }
    }
    Some(cur)
}

/// Require `path` to be a finite number.
fn need_num(root: &Json, path: &str, out: &mut Vec<String>) {
    if let Some(v) = need(root, path, out) {
        match v.as_f64() {
            Some(n) if n.is_finite() => {}
            _ => out.push(format!("field `{path}` is not a finite number")),
        }
    }
}

/// Require `path` to be a non-empty string.
fn need_str(root: &Json, path: &str, out: &mut Vec<String>) {
    if let Some(v) = need(root, path, out) {
        match v.as_str() {
            Some(s) if !s.is_empty() => {}
            _ => out.push(format!("field `{path}` is not a non-empty string")),
        }
    }
}

/// Common envelope every bench artifact carries: the bench name plus the
/// machine/config annotations (cores, opt level, iteration count) that
/// make a committed timing comparable across PRs.
fn check_envelope(root: &Json, out: &mut Vec<String>) {
    need_str(root, "bench", out);
    need_num(root, "machine.cores", out);
    need_str(root, "machine.opt_level", out);
    need_str(root, "machine.arch", out);
    need_str(root, "machine.os", out);
    need_num(root, "config.iters", out);
    need_str(root, "config.timing", out);
    if let Some(Json::Str(s)) = root.get("machine").and_then(|m| m.get("opt_level")) {
        if s != "release" {
            out.push(format!(
                "machine.opt_level is `{s}`, committed benches must be release builds"
            ));
        }
    }
}

/// The YCSB engine point's calendar-queue work must stay under the bound
/// the queue recalibrates at: a closed-loop serving run whose pops scan
/// more than [`MAX_SCAN_PER_POP`] bucket entries on average means a few
/// far timers have set the bucket width for everything else again. The
/// counter is deterministic, so unlike the timings it can gate exactly.
fn check_ycsb_scan(points: &[Json], out: &mut Vec<String>) {
    let ycsb = points
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("ycsb_workload_a"));
    let Some(point) = ycsb else {
        out.push("`engine_points` has no `ycsb_workload_a` point".into());
        return;
    };
    if let Some(scan) = point.get("scan_per_pop").and_then(|v| v.as_f64()) {
        if scan > MAX_SCAN_PER_POP as f64 {
            out.push(format!(
                "ycsb_workload_a scans {scan} bucket entries per pop, over the queue's \
                 bound of {MAX_SCAN_PER_POP}"
            ));
        }
    }
}

/// Per-bench body checks, keyed by the `bench` field.
fn check_body(root: &Json, out: &mut Vec<String>) {
    let Some(kind) = root.get("bench").and_then(|b| b.as_str()) else {
        return; // already reported by the envelope check
    };
    match kind {
        "kernel" => {
            need_str(root, "headline.workload", out);
            need_num(root, "headline.events_per_sec", out);
            match need(root, "workloads", out).and_then(|w| w.as_arr()) {
                Some(ws) if !ws.is_empty() => {
                    for w in ws {
                        need_str(w, "name", out);
                        match need(w, "kernels", out).and_then(|k| k.as_arr()) {
                            Some(ks) if !ks.is_empty() => {
                                for k in ks {
                                    need_str(k, "kernel", out);
                                    need_num(k, "events", out);
                                    need_num(k, "secs", out);
                                    need_num(k, "events_per_sec", out);
                                }
                            }
                            _ => out.push("workload without a non-empty `kernels` array".into()),
                        }
                    }
                }
                _ => out.push("`workloads` is not a non-empty array".into()),
            }
            match need(root, "engine_points", out).and_then(|e| e.as_arr()) {
                Some(es) if !es.is_empty() => {
                    for e in es {
                        need_str(e, "name", out);
                        need_num(e, "events_per_sec", out);
                        need_num(e, "scan_per_pop", out);
                    }
                    check_ycsb_scan(es, out);
                }
                _ => out.push("`engine_points` is not a non-empty array".into()),
            }
            for p in [
                "fanout.jobs",
                "fanout.threads",
                "fanout.serial_secs",
                "fanout.parallel_secs",
            ] {
                need_num(root, p, out);
            }
        }
        "scan_decode" => {
            need_str(root, "table", out);
            need_num(root, "sf", out);
            need_num(root, "rows", out);
            match need(root, "formats", out).and_then(|f| f.as_arr()) {
                Some(fs) if !fs.is_empty() => {
                    for f in fs {
                        need_str(f, "format", out);
                        need_num(f, "stored_bytes", out);
                        need_num(f, "rows_per_sec", out);
                        need_num(f, "mb_per_sec", out);
                    }
                }
                _ => out.push("`formats` is not a non-empty array".into()),
            }
        }
        "obs_overhead" => {
            need_num(root, "query", out);
            need_num(root, "sf", out);
            match need(root, "engines", out).and_then(|e| e.as_arr()) {
                Some(es) if !es.is_empty() => {
                    for e in es {
                        need_str(e, "name", out);
                        for p in [
                            "events_bare",
                            "events_probed",
                            "sim_secs",
                            "probe_events",
                            "spans",
                            "bare_secs",
                            "probed_secs",
                            "overhead_pct",
                        ] {
                            need_num(e, p, out);
                        }
                        // The committed artifact must embody the passivity
                        // proof, not just gesture at it.
                        if let (Some(b), Some(p)) = (
                            e.get("events_bare").and_then(Json::as_f64),
                            e.get("events_probed").and_then(Json::as_f64),
                        ) {
                            if b != p {
                                out.push(format!(
                                    "probed event count {p} differs from bare {b} — probes must be passive"
                                ));
                            }
                        }
                    }
                }
                _ => out.push("`engines` is not a non-empty array".into()),
            }
        }
        "simlint_workspace" => {
            for p in [
                "files",
                "lines",
                "fns",
                "rules",
                "best_secs",
                "lines_per_sec",
            ] {
                need_num(root, p, out);
            }
        }
        other => out.push(format!("unknown bench kind `{other}`")),
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    assert!(
        !files.is_empty(),
        "usage: validate_bench <results/BENCH_*.json>..."
    );
    let mut violations: Vec<Violation> = Vec::new();
    for file in &files {
        let mut out = Vec::new();
        match std::fs::read_to_string(file) {
            Err(e) => out.push(format!("unreadable: {e}")),
            Ok(text) => match parse(&text) {
                Err(e) => out.push(format!("invalid JSON: {e}")),
                Ok(root) => {
                    check_envelope(&root, &mut out);
                    check_body(&root, &mut out);
                }
            },
        }
        violations.extend(out.into_iter().map(|what| Violation {
            file: file.clone(),
            what,
        }));
    }
    if violations.is_empty() {
        println!("validate_bench: {} file(s) OK", files.len());
        return;
    }
    for v in &violations {
        eprintln!("validate_bench: {}: {}", v.file, v.what);
    }
    std::process::exit(1);
}
