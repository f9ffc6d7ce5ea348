//! Storm harness for the tuning daemon: hammer an in-process
//! `peak-serve` instance with a seeded mix of valid, malformed, slow,
//! panicking, and overloading requests and assert the crash-safety
//! contract:
//!
//! * the daemon never dies — every request (including garbage) answers
//!   exactly one structured JSONL response;
//! * panicking jobs are retried and reported, and the shared pool stays
//!   healthy for the jobs after them;
//! * valid jobs' results are **bit-identical** to offline
//!   [`peak_core::tune_with_options`] with default options — serving
//!   adds failure handling, never answer drift;
//! * `stats` and `health` answer on a second connection while the job
//!   queue is saturated, and panicking jobs leave post-mortem artifacts
//!   behind.
//!
//! ```text
//! cargo run --release -p peak-bench --bin serve_storm [-- --jobs N] [--seed S]
//! ```
//!
//! Exits non-zero on any contract violation (CI runs a short storm).

use peak_core::{consult, Pool};
use peak_obs::Tracer;
use peak_serve::{RetryPolicy, ServeConfig};
use peak_util::{Json, ToJson};
use peak_workloads::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

/// Valid-job menu: figure-7 benchmarks on both machines.
const BENCHMARKS: &[&str] = &["SWIM", "MGRID", "ART", "EQUAKE"];
const MACHINES: &[&str] = &["SPARC-II", "Pentium-IV"];
const METHODS: &[Option<&str>] = &[Some("CBR"), Some("RBR"), None];

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &std::path::Path) -> Client {
        let stream = UnixStream::connect(socket).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send request");
        self.stream.flush().expect("flush request");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection (daemon death?)");
        peak_util::from_str(line.trim_end()).expect("response must be valid JSON")
    }

    /// Send many lines, then collect one response per line (any order),
    /// returned as (id → response).
    fn roundtrip(&mut self, lines: &[String]) -> Vec<Json> {
        for line in lines {
            self.send(line);
        }
        (0..lines.len()).map(|_| self.recv()).collect()
    }
}

fn str_field<'j>(j: &'j Json, key: &str) -> &'j str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {}", j.compact()))
}

fn assert_structured(responses: &[Json]) {
    const KINDS: &[&str] = &[
        "malformed",
        "unknown_benchmark",
        "unknown_machine",
        "unknown_method",
        "panicked",
        "deadline_exceeded",
        "cancelled",
        "overloaded",
        "shutdown",
    ];
    for r in responses {
        match str_field(r, "status") {
            "ok" => {}
            "error" => {
                let kind = str_field(r, "error");
                assert!(KINDS.contains(&kind), "unknown error kind in {}", r.compact());
            }
            other => panic!("bad status {other:?} in {}", r.compact()),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs: usize = arg_value(&args, "--jobs").map_or(6, |v| v.parse().expect("--jobs N"));
    let seed: u64 =
        arg_value(&args, "--seed").map_or(0x5702, |v| v.parse().expect("--seed S"));
    let mut rng = StdRng::seed_from_u64(seed);

    let dir = std::env::temp_dir().join(format!("peak-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create storm dir");
    let socket = dir.join("peak.sock");
    let mut config = ServeConfig::new(&socket, dir.join("store"));
    config.workers = 2;
    config.queue_cap = jobs.max(8);
    config.retry = RetryPolicy { max_retries: 2, base_backoff_ms: 1, factor: 2 };
    let handle = peak_serve::start(config, Tracer::disabled()).expect("start daemon");
    println!("serve_storm: daemon up on {} (seed {seed:#x}, {jobs} valid jobs)", socket.display());

    // ── Phase 1: adversarial barrage ────────────────────────────────
    // Malformed garbage, spec errors, panics, blown deadlines, and an
    // overload burst. Every line must answer; the daemon must live.
    let mut adversarial: Vec<String> = vec![
        "complete garbage".into(),
        r#"{"kind":"tune","benchmark":"SWIM","machine":"SPARC-II"}"#.into(), // no id
        r#"{"id":"a0","kind":"dance"}"#.into(),
        r#"{"id":"a1","kind":"tune","benchmark":"NOPE","machine":"SPARC-II"}"#.into(),
        r#"{"id":"a2","kind":"tune","benchmark":"SWIM","machine":"vax"}"#.into(),
        r#"{"id":"a3","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","method":"best"}"#
            .into(),
    ];
    for k in 0..3 {
        adversarial.push(format!(
            r#"{{"id":"panic{k}","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","inject":"panic"}}"#
        ));
    }
    for k in 0..2 {
        adversarial.push(format!(
            r#"{{"id":"dead{k}","kind":"tune","benchmark":"ART","machine":"Pentium-IV","inject":"slow:30000","deadline_ms":{}}}"#,
            20 + rng.gen_range(0..30)
        ));
    }
    // Deterministic shuffle of the barrage order.
    for i in (1..adversarial.len()).rev() {
        adversarial.swap(i, rng.gen_range(0..=i));
    }
    let mut client = Client::connect(&socket);
    let responses = client.roundtrip(&adversarial);
    assert_structured(&responses);
    let panics =
        responses.iter().filter(|r| r.get("error").and_then(Json::as_str) == Some("panicked"));
    assert_eq!(panics.count(), 3, "all injected panics must report");
    println!("serve_storm: adversarial barrage ok ({} responses, all structured)", responses.len());

    // Overload burst on a dedicated connection: more slow jobs than
    // queue_cap + workers can hold must shed at least one. While the
    // burst is still queued, a *second* connection probes `stats` and
    // `health` — both are answered inline on the connection thread, so
    // they must keep working while the workers are drowning.
    let burst: Vec<String> = (0..config_burst(jobs))
        .map(|k| {
            format!(
                r#"{{"id":"burst{k}","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","inject":"slow:300","deadline_ms":400}}"#
            )
        })
        .collect();
    for line in &burst {
        client.send(line);
    }
    let mut probe = Client::connect(&socket);
    let under_load = probe.roundtrip(&[
        r#"{"id":"p-stats","kind":"stats"}"#.to_owned(),
        r#"{"id":"p-health","type":"health"}"#.to_owned(),
    ]);
    for r in &under_load {
        assert_eq!(
            str_field(r, "status"),
            "ok",
            "stats/health must answer under overload: {}",
            r.compact()
        );
    }
    let health = under_load
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("p-health"))
        .expect("health response");
    assert_eq!(health.get("healthy").and_then(Json::as_bool), Some(true));
    assert!(health.get("queue_depth").and_then(Json::as_u64).is_some());
    let probed_stats = under_load
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("p-stats"))
        .expect("stats response");
    assert!(
        probed_stats.get("metrics").is_some(),
        "stats under load must still carry the metrics snapshot"
    );
    println!("serve_storm: stats+health answered while the queue was saturated");
    let burst_responses: Vec<Json> = (0..burst.len()).map(|_| client.recv()).collect();
    assert_structured(&burst_responses);
    let shed = burst_responses
        .iter()
        .filter(|r| r.get("error").and_then(Json::as_str) == Some("overloaded"))
        .count();
    assert!(shed >= 1, "overload burst must shed");
    println!("serve_storm: overload burst ok ({} sent, {shed} shed)", burst.len());

    // Daemon still alive?
    let ping = client.roundtrip(&[r#"{"id":"alive1","kind":"ping"}"#.to_owned()]);
    assert_eq!(str_field(&ping[0], "status"), "ok", "daemon died during the barrage");

    // ── Phase 2: valid jobs, bit-identical to offline tuning ────────
    let mut specs: Vec<(usize, &str, &str, Option<&str>)> = (0..jobs)
        .map(|k| {
            (
                k,
                BENCHMARKS[rng.gen_range(0..BENCHMARKS.len())],
                MACHINES[rng.gen_range(0..MACHINES.len())],
                METHODS[rng.gen_range(0..METHODS.len())],
            )
        })
        .collect();
    specs.sort();
    let lines: Vec<String> = specs
        .iter()
        .map(|(k, bench, machine, method)| match method {
            Some(m) => format!(
                r#"{{"id":"v{k}","kind":"tune","benchmark":"{bench}","machine":"{machine}","method":"{m}"}}"#
            ),
            None => format!(
                r#"{{"id":"v{k}","kind":"tune","benchmark":"{bench}","machine":"{machine}"}}"#
            ),
        })
        .collect();
    let responses = client.roundtrip(&lines);
    assert_structured(&responses);

    let pool = Pool::from_env();
    let mut compared = 0;
    for (k, bench, machine, method) in &specs {
        let id = format!("v{k}");
        let response = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(id.as_str()))
            .unwrap_or_else(|| panic!("no response for {id}"));
        assert_eq!(str_field(response, "status"), "ok", "valid job failed: {}", response.compact());
        let served = response.get("result").expect("ok tune carries result").compact();
        // Offline reference: the exact same job through the library API.
        let workload = peak_workloads::workload_by_name(bench).expect("storm benchmark");
        let spec = peak_core::machine_spec_by_name(machine).expect("storm machine");
        let m = match method {
            Some(name) => peak_core::method_by_name(name).expect("storm method"),
            None => consult(workload.as_ref(), &spec).order[0],
        };
        let offline = peak_core::tune_with_options(
            workload.as_ref(),
            &spec,
            m,
            Dataset::Train,
            Tracer::disabled(),
            &pool,
            &peak_core::TuneOptions::default(),
        );
        assert_eq!(
            served,
            offline.to_json().compact(),
            "served result for {bench}/{machine}/{m:?} drifted from offline tuning"
        );
        compared += 1;
    }
    println!("serve_storm: {compared} valid jobs bit-identical to offline tuning");

    // ── Wind down ───────────────────────────────────────────────────
    let stats = client.roundtrip(&[r#"{"id":"st","kind":"stats"}"#.to_owned()]);
    let ok_jobs = stats[0].get("jobs_ok").and_then(Json::as_u64).unwrap_or(0);
    assert!(ok_jobs >= compared as u64, "stats must count completed jobs: {}", stats[0].compact());
    // Every panicking job dies with a post-mortem on disk.
    let postmortems = stats[0].get("postmortems").and_then(Json::as_u64).unwrap_or(0);
    assert!(postmortems >= 3, "3 panicked jobs must leave post-mortems: {}", stats[0].compact());
    let dumped = std::fs::read_dir(dir.join("store").join("postmortem"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert!(dumped as u64 >= postmortems, "post-mortem files must exist ({dumped} on disk)");
    println!("serve_storm: {postmortems} post-mortems recorded, {dumped} artifacts on disk");
    let bye = client.roundtrip(&[r#"{"id":"bye","kind":"shutdown"}"#.to_owned()]);
    assert_eq!(str_field(&bye[0], "status"), "ok");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "STORM: OK ({compared} valid jobs bit-identical, {} adversarial responses structured, 0 daemon deaths)",
        adversarial.len() + burst.len()
    );
}

/// Overload burst size: comfortably past queue + workers.
fn config_burst(jobs: usize) -> usize {
    jobs.max(8) + 6
}
