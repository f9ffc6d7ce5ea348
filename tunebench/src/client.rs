//! The closed-loop load generator and the untraced run.
//!
//! One process, at most `connections` Unix-socket connections, one
//! outstanding `tune` per connection; monitoring polls ride the same
//! connections and are matched to their responses by id.

use crate::{copy_store, Env, Report};
use peak_util::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tunebench::{
    check_poll_response, check_tune_response, geomean, mean, median, percentile, round_list, Poll,
    Request, Tally, Verdict,
};

/// Daemon launches timed before the measured rounds (`setup_s` is the
/// median over these and every round's own launch).
const SETUP_PROBES: usize = 50;
/// Longest wait for a freshly launched daemon's first `health` reply.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon process. Dropping it kills and reaps the process if
/// it has not been shut down.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Put the workload's store in place at `dir/store`, launch a daemon
    /// there, and wait for its first `health` reply. Returns the daemon
    /// and the launch-to-health time in seconds.
    pub fn launch(env: &Env, dir: &Path) -> Result<(Daemon, f64), String> {
        let store = dir.join("store");
        let _ = std::fs::remove_dir_all(dir);
        match &env.store_template {
            Some(t) => copy_store(t, &store)?,
            None => std::fs::create_dir_all(&store)
                .map_err(|e| format!("cannot create {}: {e}", store.display()))?,
        }
        let socket = dir.join("d.sock");
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let start = Instant::now();
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot launch daemon: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        loop {
            if let Ok(mut conn) = Conn::open(&daemon.socket) {
                let reply = conn.call(&Poll::Health.request_line("setup"))?;
                if !check_poll_response(&reply, "setup") {
                    return Err(format!("daemon answered health with {reply}"));
                }
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err("daemon did not answer health in time".into());
            }
            // Spin rather than sleep: a sleep's wake-up delay would land
            // in the measured set-up time.
            std::thread::yield_now();
        }
    }

    /// The daemon's socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self
            .child
            .as_ref()
            .map(Child::id)
            .ok_or("daemon already stopped")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("daemon status carries no VmHWM")?;
        Ok(kb / 1024.0)
    }

    /// One `stats` round-trip on a fresh connection.
    pub fn stats(&self) -> Result<Json, String> {
        let reply = Conn::open(&self.socket)?.call(&Poll::Stats.request_line("stats"))?;
        peak_util::from_str(&reply).map_err(|e| format!("unparseable stats reply: {e}"))
    }

    /// Graceful shutdown; waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let line = r#"{"id":"bye","kind":"shutdown"}"#;
        let sent = Conn::open(&self.socket).and_then(|mut c| c.call(line));
        let mut child = self.child.take().expect("daemon running until shutdown");
        if sent.is_err() {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("cannot reap daemon: {e}"))?;
        match sent {
            Ok(_) if status.success() => Ok(()),
            Ok(_) => Err(format!("daemon exited with {status}")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: write a line, read one line back.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    /// Connect to `socket`.
    pub fn open(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("cannot connect: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("cannot clone socket: {e}"))?,
        );
        Ok(Conn { writer, reader })
    }

    /// Send `line` and read one response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(response.trim_end().to_owned()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }
}

/// One answered `tune` request.
pub struct JobSample {
    /// Index into the request list.
    pub index: usize,
    /// Send-to-response time, seconds.
    pub latency_s: f64,
    /// Output-check verdict.
    pub verdict: Verdict,
}

/// What one closed-loop pass over a request list observed.
#[derive(Default)]
pub struct Drive {
    /// Answered `tune` requests.
    pub jobs: Vec<JobSample>,
    /// Poll round-trip times, seconds.
    pub poll_s: Vec<f64>,
    /// Polls that were not answered `ok`.
    pub poll_failures: u64,
    /// Wall time from the first send to the last response, seconds.
    pub wall_s: f64,
}

/// Send every request of `list` over `connections` connections, closed
/// loop. `poll_every_job` adds a `health` poll after jobs that carry no
/// poll of their own.
pub fn drive(
    env: &Env,
    socket: &Path,
    list: &[Request],
    poll_every_job: bool,
) -> Result<Drive, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Result<Drive, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..env.meta.connections)
            .map(|_| {
                s.spawn(|| -> Result<Drive, String> {
                    let mut conn = Conn::open(socket)?;
                    let mut part = Drive::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = list.get(index) else {
                            return Ok(part);
                        };
                        let sent = Instant::now();
                        let response = conn.call(&r.spec.request_line(&r.id))?;
                        let latency_s = sent.elapsed().as_secs_f64();
                        let verdict = check_tune_response(&response, &r.id, &r.spec, &env.expected);
                        part.jobs.push(JobSample {
                            index,
                            latency_s,
                            verdict,
                        });
                        let poll = r.poll.or(poll_every_job.then_some(Poll::Health));
                        if let Some(p) = poll {
                            let id = format!("{}-poll", r.id);
                            let sent = Instant::now();
                            let response = conn.call(&p.request_line(&id))?;
                            part.poll_s.push(sent.elapsed().as_secs_f64());
                            if !check_poll_response(&response, &id) {
                                part.poll_failures += 1;
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load-generator thread panicked".into()))
            })
            .collect()
    });
    let mut all = Drive {
        wall_s: start.elapsed().as_secs_f64(),
        ..Drive::default()
    };
    for part in parts {
        let part = part?;
        all.jobs.extend(part.jobs);
        all.poll_s.extend(part.poll_s);
        all.poll_failures += part.poll_failures;
    }
    all.jobs.sort_by_key(|j| j.index);
    Ok(all)
}

/// Print failed verdicts, given as (list index, verdict), so a failing
/// run explains itself.
pub fn report_failures<'a>(list: &[Request], verdicts: impl Iterator<Item = (usize, &'a Verdict)>) {
    for (i, v) in verdicts {
        if !matches!(v, Verdict::Ok(_)) {
            eprintln!("failed: {} {}: {v:?}", list[i].id, list[i].spec.key());
        }
    }
}

/// The untraced run: setup probes, then the workload's rounds for
/// `--seconds`. Each round is a fresh daemon serving a whole request
/// list (round 0's is `list`; later rounds reshuffle).
pub fn run(env: &Env, list: &[Request]) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    for k in 0..SETUP_PROBES {
        let (daemon, t) = Daemon::launch(env, &env.dir.join(format!("probe{k}")))?;
        setup_s.push(t);
        daemon.shutdown()?;
    }
    let mut rounds: Vec<(Vec<Request>, Drive, f64)> = Vec::new();
    for k in 0..env.workload.rounds(env.meta.seconds) {
        let list = match k {
            0 => list.to_vec(),
            _ => round_list(env.workload, env.meta.seed, k),
        };
        let (daemon, t) = Daemon::launch(env, &env.dir.join(format!("round{k}")))?;
        setup_s.push(t);
        let d = drive(env, daemon.socket(), &list, false)?;
        let rss = daemon.peak_rss_mb()?;
        daemon.shutdown()?;
        rounds.push((list, d, rss));
    }

    let mut tally = Tally::default();
    let mut latency = Vec::new();
    let mut speedups = Vec::new();
    let mut mcycles = Vec::new();
    let mut wall = 0.0;
    let mut by_pair: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (list, d, _) in &rounds {
        wall += d.wall_s;
        tally.poll_failures += d.poll_failures;
        report_failures(list, d.jobs.iter().map(|j| (j.index, &j.verdict)));
        for j in &d.jobs {
            tally.add(&j.verdict);
            latency.push(j.latency_s);
            let spec = &list[j.index].spec;
            by_pair.entry(spec.key()).or_default().push(j.latency_s);
            if let Verdict::Ok(f) = &j.verdict {
                if spec.variant.is_cold() {
                    speedups.push(f.speedup());
                    mcycles.push(f.tuning_cycles as f64 / 1e6);
                }
            }
        }
    }
    let rss: Vec<f64> = rounds.iter().map(|(_, _, r)| *r).collect();
    let metric = |name: &str, v: Option<f64>, unit: &str| {
        (name.to_owned(), v.unwrap_or(0.0), unit.to_owned())
    };
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "jobs_per_s",
            Some(tally.ok as f64 / wall.max(1e-9)),
            "jobs/s",
        ),
        metric("job_latency_p50_s", percentile(&latency, 0.5), "s"),
        metric("job_latency_p90_s", percentile(&latency, 0.9), "s"),
        metric("tuned_speedup_geomean", geomean(&speedups), "ratio"),
        metric("tuning_mcycles_per_job", mean(&mcycles), "Mcycles"),
        metric("peak_rss_mb", median(&rss), "MB"),
    ];
    let rows = by_pair
        .iter()
        .map(|(pair, l)| {
            Json::obj(vec![
                ("pair", Json::Str(pair.clone())),
                ("n", Json::U(l.len() as u64)),
                ("latency_p50_s", Json::F(median(l).unwrap_or(0.0))),
            ])
        })
        .collect();
    let notes = vec![format!(
        "{} round(s), {} latency samples, {} setup samples, timed wall {:.3} s",
        rounds.len(),
        latency.len(),
        setup_s.len(),
        wall
    )];
    Ok(Report {
        tally,
        metrics,
        rows,
        notes,
    })
}
