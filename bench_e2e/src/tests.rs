//! Whole-workload tests on the smoke configuration (TPC-H at SF 0.005, one
//! YCSB target measured for 1 s). They check outputs and tracing, never
//! timings.

use super::*;
use obs::json::Json;

fn smoke(kind: Kind, seed: u64, reps: usize, trace: bool) -> Outcome {
    let out = measure(kind, seed, true, reps, 0.0, trace).expect("smoke run");
    for r in &out.reps {
        assert_eq!(r.failed_units, 0, "{}: failed units", kind.name());
        assert!(!r.units_ms.is_empty());
    }
    out
}

#[test]
fn digest_repeats_tracing_is_passive_and_seed_changes_outputs() {
    for kind in Kind::ALL {
        let seed = kind.default_seed();
        // Two untraced reps plus a traced one (wrapping Store, recorded
        // phases, probes): `deterministic` holds only if all three agree.
        let a = smoke(kind, seed, 2, true);
        assert!(a.deterministic, "{}: digests differ", kind.name());
        let (traced, tr) = a.traced.as_ref().expect("traced rep");
        assert_eq!(traced.failed_units, 0, "{}: traced rep failed", kind.name());
        check_spans(kind, tr);
        check_layers(kind, tr, &traced.extras);

        let b = smoke(kind, seed + 1, 1, false);
        assert_ne!(
            a.reps[0].digest,
            b.reps[0].digest,
            "{}: the seed must reach the inputs",
            kind.name()
        );
    }
}

/// The span file parses, ids are positions, and children nest in parents.
fn check_spans(kind: Kind, tr: &Tracer) {
    let text = tr.jsonl();
    let mut bounds: Vec<(f64, f64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let v = obs::json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}: {line}"));
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{k}: {line}"))
        };
        assert_eq!(num("id"), i as f64);
        assert!(v.get("name").and_then(Json::as_str).is_some());
        assert!(v.get("unit").is_some() && v.get("ref").is_some());
        num("count");
        let (start, end) = (num("start_ns"), num("end_ns"));
        assert!(
            start <= end,
            "{}: span ends before it starts: {line}",
            kind.name()
        );
        if let Some(p) = v.get("parent").and_then(Json::as_f64) {
            let (ps, pe) = bounds[p as usize];
            assert!(
                ps <= start && end <= pe,
                "{}: span outside its parent: {line}",
                kind.name()
            );
        }
        bounds.push((start, end));
    }
    assert!(bounds.len() > 3, "{}: too few spans", kind.name());
}

fn check_layers(kind: Kind, tr: &Tracer, extras: &BTreeMap<&'static str, f64>) {
    for k in extras.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *k),
            "extra `{k}` is not a per-layer metric"
        );
    }
    let layers = metrics::per_layer(tr, extras, 0.0);
    assert_eq!(
        layers.len(),
        PER_LAYER.len(),
        "derived names outside the catalogue"
    );
    for d in &PER_LAYER {
        assert!(
            layers[d.name].is_finite(),
            "{}: {} not finite",
            kind.name(),
            d.name
        );
    }
    for must in [
        "setup.data_s",
        "setup.nosql_s",
        "setup.sql_s",
        "run.nosql_s",
        "run.sql_s",
    ] {
        assert!(layers[must] > 0.0, "{}: {must} not measured", kind.name());
    }
    assert!(layers["run.kernel_s"] > 0.0 && layers["simkit.events"] > 0.0);
}

#[test]
fn unit_medians_drop_a_burst_in_one_rep() {
    let rep = |units_ms: Vec<f64>, wall_s: f64| Rep {
        setup_s: 0.5,
        wall_s,
        units_ms,
        failed_units: 0,
        digest: 0,
        table: String::new(),
        extras: BTreeMap::new(),
    };
    // Three reps of four units; rep 2 has a 100 ms burst in unit 0, rep 3
    // one in unit 3. Every rep spends 10 ms outside its units.
    let reps = [
        rep(vec![10.0, 20.0, 30.0, 40.0], 0.110),
        rep(vec![110.0, 20.0, 30.0, 40.0], 0.210),
        rep(vec![10.0, 20.0, 30.0, 140.0], 0.210),
    ];
    let v = e2e_values(&reps, 300.0, 0.0);
    assert!((v["wall_s"] - 0.110).abs() < 1e-12, "{}", v["wall_s"]);
    assert_eq!(v["unit_p50_ms"], 25.0);
    assert_eq!(v["unit_tail_ms"], 40.0); // the one unit beyond p75 of 4
    assert_eq!(
        (v["setup_s"], v["peak_rss_mb"], v[FAIL_FRAC]),
        (0.5, 300.0, 0.0)
    );
}

/// `BENCHMARK.json` lists exactly this binary's workloads and metrics.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let v = obs::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names("workloads"), kinds);

    let e2e: Vec<&metrics::Def> = END_TO_END.iter().filter(|d| d.name != FAIL_FRAC).collect();
    assert_eq!(
        names("end_to_end"),
        e2e.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names("per_layer"), layers);

    for (key, defs) in [
        ("end_to_end", e2e),
        ("per_layer", PER_LAYER.iter().collect()),
    ] {
        for (m, d) in v.get(key).and_then(Json::as_arr).unwrap().iter().zip(defs) {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.label()),
                "{}",
                d.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    Some(d.bound),
                    "{}",
                    d.name
                );
            }
        }
    }
}
