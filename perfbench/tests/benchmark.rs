//! The benchmark's own tests: a tiny run of every workload in both modes,
//! a deliberately wrong echo that must fail the run, the tiling of one
//! operation's traced stages, the run guard, and agreement between the
//! emitted metrics and `BENCHMARK.json`.

use heidl_perfbench::{manifest, result_json, run, Config, Report, Workload};
use std::process::Command;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config { workload, seed: 7, seconds: 0.4, trace, corrupt_echo: false, spans_path: None }
}

fn names(report: &Report) -> Vec<(&'static str, &'static str)> {
    report.metrics.iter().map(|&(n, u, _)| (n, u)).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        let r = run(&tiny(w, false)).expect("run");
        assert!(r.correct, "{}: {:#?}", w.name(), r.lines);
        assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), r.lines);
        assert!(r.attempted > 0);
        assert_eq!(names(&r), manifest::END_TO_END, "{}", w.name());
        for (name, _, value) in &r.metrics {
            assert!(value.is_finite() && *value > 0.0, "{} {name} = {value}", w.name());
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for w in Workload::ALL {
        let r = run(&tiny(w, true)).expect("run");
        assert!(r.correct, "{}: {:#?}", w.name(), r.lines);
        assert_eq!(names(&r), manifest::PER_LAYER, "{}", w.name());
        assert_eq!(r.tiling_violations, 0, "{}", w.name());
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).expect(n).2;
        assert_eq!(get("fail_ratio"), 0.0);
        assert!(get("floor.rtt_p50_us") > 0.0 && get("wire.frame_bytes") > 0.0);
        assert!(get("call.request_path_us") > 0.0 && get("call.reply_path_us") > 0.0);
        match w {
            Workload::Routed => {
                assert_eq!(get("replay.executions_per_token"), 1.0);
                assert!(get("router.tokened_p50_us") > 0.0 && get("router.plain_p50_us") > 0.0);
            }
            Workload::Bulk => {
                assert!(get("stream.chunks_per_op") > 0.0 && get("orb.oneway_send_us") > 0.0);
                assert!(get("stream.high_water_bytes") > 0.0);
            }
            Workload::Echo => assert_eq!(get("router.tokened_p50_us"), 0.0),
        }
    }
}

#[test]
fn traced_stages_of_an_operation_sum_to_its_latency() {
    let r = run(&tiny(Workload::Echo, true)).expect("run");
    assert!(r.tiling.len() > 100, "{} traced operations", r.tiling.len());
    let mut gaps: Vec<u64> = r
        .tiling
        .iter()
        .map(|&(stages, latency)| {
            assert!(stages <= latency, "stages {stages} ns exceed latency {latency} ns");
            latency - stages
        })
        .collect();
    gaps.sort_unstable();
    // What the stages leave out is only the caller's own clock reads
    // around the operation: well under a microsecond for a typical call.
    let median_gap = gaps[gaps.len() / 2];
    assert!(median_gap < 1_000, "median untiled time {median_gap} ns");
}

fn bench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_heidl-perfbench"));
    cmd.args(args);
    for var in ["HEIDL_TRANSPORT", "HEIDL_FAULT_PLAN", "HEIDL_BENCH_HEARTBEAT"] {
        cmd.env_remove(var);
    }
    cmd
}

#[test]
fn a_wrong_echo_fails_the_run() {
    let out = bench(&["--workload", "echo", "--seed", "3", "--seconds", "0.3", "--corrupt-echo"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let last = json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(last.get("correct"), Some(&json::Value::Bool(false)));
    assert!(matches!(last.get("failed"), Some(json::Value::Num(n)) if *n > 0.0));
}

#[test]
fn the_run_guard_refuses_engine_and_fault_overrides() {
    for var in ["HEIDL_TRANSPORT", "HEIDL_FAULT_PLAN", "HEIDL_BENCH_HEARTBEAT"] {
        let out = bench(&["--workload", "echo", "--seed", "1", "--seconds", "1", "--trace", "0"])
            .env(var, "1")
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let out = bench(&["--workload", "echo", "--seed", "4", "--seconds", "0.3", "--trace", "0"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = json::parse(stdout.lines().last().expect("a result line"));
    let json::Value::Obj(fields) = &last else { panic!("not an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(json::Value::Obj(metrics)) = last.get("metrics") else { panic!("no metrics") };
    for ((name, unit), (key, value)) in manifest::END_TO_END.iter().zip(metrics) {
        assert_eq!(name, key);
        assert_eq!(value.get("unit"), Some(&json::Value::Str((*unit).into())));
    }
    let report = run(&tiny(Workload::Echo, false)).expect("run");
    json::parse(&result_json(&report));
}

#[test]
fn benchmark_json_names_every_workload_and_metric_with_its_unit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text);
    let list = |key: &str| match doc.get(key) {
        Some(json::Value::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let str_of = |v: &json::Value, k: &str| match v.get(k) {
        Some(json::Value::Str(s)) => s.clone(),
        other => panic!("{k}: {other:?}"),
    };
    let workloads: Vec<String> = list("workloads").iter().map(|w| str_of(w, "name")).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
    for (key, expected) in
        [("end_to_end", manifest::END_TO_END), ("per_layer", manifest::PER_LAYER)]
    {
        let listed: Vec<(String, String)> =
            list(key).iter().map(|m| (str_of(m, "name"), str_of(m, "unit"))).collect();
        let ours: Vec<(String, String)> =
            expected.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(listed, ours, "{key}");
    }
    let setup =
        list("end_to_end").into_iter().find(|m| str_of(m, "name") == "setup_s").expect("setup_s");
    let bound = |m: &json::Value| match m.get("bound") {
        Some(json::Value::Num(b)) => *b,
        other => panic!("bound: {other:?}"),
    };
    for m in list("end_to_end") {
        assert!(bound(&m) <= bound(&setup) && bound(&m) <= 0.25);
    }
}

/// Just enough JSON to read `BENCHMARK.json` and the result line.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Value {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, b: u8) {
            self.ws();
            assert_eq!(self.s.get(self.i), Some(&b), "expected {:?} at {}", b as char, self.i);
            self.i += 1;
        }

        fn value(&mut self) -> Value {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Value::Obj(fields);
                    }
                    loop {
                        self.ws();
                        let Value::Str(k) = self.value() else { panic!("object key") };
                        self.eat(b':');
                        fields.push((k, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Value::Obj(fields);
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Value::Arr(items);
                    }
                    loop {
                        items.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b']' {
                            return Value::Arr(items);
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                        self.i += 1;
                    }
                    self.i += 1;
                    Value::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf8"))
                }
                b't' | b'f' | b'n' => {
                    for (word, v) in [
                        ("true", Value::Bool(true)),
                        ("false", Value::Bool(false)),
                        ("null", Value::Null),
                    ] {
                        if self.s[self.i..].starts_with(word.as_bytes()) {
                            self.i += word.len();
                            return v;
                        }
                    }
                    panic!("bad literal at {}", self.i)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                    Value::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
                }
            }
        }
    }
}
