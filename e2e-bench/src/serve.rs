//! `serve-jobs`: a closed loop of 2 client threads against an in-process
//! `rex_serve::Server` with 1 worker. Each client submits a `digits-mlp`
//! job at budget 100 with rexd's default checkpoint cadence, follows the
//! job's NDJSON trace stream to its end while reading the job's status
//! until it is terminal, and submits the next job.
//!
//! The server follows a live trace by re-reading the file every 20 ms, so
//! the end of a stream comes up to 20 ms after the job is done: latencies
//! to the end of the stream are quantised by that poll. The status reads
//! give the latency to the job's terminal state, which is not.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rex_serve::client::request;
use rex_serve::{ServeConfig, Server};
use rex_telemetry::json::{parse_object, Value};
use rex_telemetry::{JsonlSink, Recorder};
use rex_tensor::DType;
use rex_train::settings::load_setting;
use rex_train::{FtConfig, OptimizerKind};

use crate::common::{mix, peak_rss_mb, Opts, SETUP_BEFORE, SETUP_REPS};
use crate::report::Report;
use crate::stats::{self, Samples};

/// Client threads (= connections in flight).
pub const CLIENTS: usize = 2;
/// Jobs per slice of the measured window; at 100 a slice's p90 has ten
/// jobs beyond it.
pub const SLICE: usize = 100;
/// Jobs a run must complete at least.
pub const MIN_JOBS: usize = 3 * SLICE;
/// Job budget, percent.
pub const BUDGET: u32 = 100;
/// Checkpoint cadence of every job, in optimizer steps: rexd's default
/// (`ServeConfig::default().default_checkpoint_every`), so a job writes a
/// REXSTATE1 snapshot every 5 of its 64 steps.
pub const CHECKPOINT_EVERY: u64 = 5;
/// Pause between two status reads of a running job.
pub const STATUS_POLL: Duration = Duration::from_millis(2);
/// The server's stream poll: a live trace is re-read this often.
const STREAM_POLL: Duration = Duration::from_millis(20);
/// Job states that never change again.
const TERMINAL: [&str; 3] = ["done", "failed", "canceled"];
/// Distinct job specs a run cycles through (each gets one twin).
pub const DISTINCT: usize = 16;
/// Training samples one job consumes: 120 digits × 8 epochs.
pub const SAMPLES_PER_JOB: u64 = 120 * 8;

const TIMEOUT: Duration = Duration::from_secs(60);

/// The schedule names jobs cycle through: the paper schedules a
/// checkpointed job can run (decay-on-plateau reacts to validation
/// feedback, which a snapshot cannot capture, so the server refuses to
/// checkpoint it).
const SCHEDULES: [&str; 7] = ["none", "step", "cosine", "onecycle", "linear", "exp", "rex"];

/// One distinct job spec: schedule name and seed, with the trace every
/// job of this spec must stream.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Schedule name as the server parses it.
    pub schedule: &'static str,
    /// Job seed (below 2^53: the server reads JSON numbers as f64).
    pub seed: u64,
    /// The in-process twin's trace.
    pub twin: Vec<u8>,
}

/// The distinct job specs of a run, derived from the workload seed, with
/// their twins computed in `dir` — before any measured window.
pub fn specs(seed: u64, dir: &Path) -> Vec<JobSpec> {
    (0..DISTINCT)
        .map(|k| {
            let schedule = SCHEDULES[(k + mix(seed) as usize) % SCHEDULES.len()];
            let job_seed = mix(seed ^ (k as u64 + 1)) >> 16;
            JobSpec {
                schedule,
                seed: job_seed,
                twin: twin_trace(dir, schedule, job_seed),
            }
        })
        .collect()
}

impl JobSpec {
    fn body(&self) -> String {
        format!(
            "{{\"setting\":\"digits-mlp\",\"budget\":{BUDGET},\"schedule\":\"{}\",\
             \"optimizer\":\"sgdm\",\"seed\":{},\"checkpoint_every\":{CHECKPOINT_EVERY}}}",
            self.schedule, self.seed
        )
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into [`specs`].
    pub spec: usize,
    /// Server-assigned id.
    pub id: String,
    /// Submit → end of the trace stream.
    pub total: Duration,
    /// Submit → the first status read that shows a terminal state.
    pub done: Duration,
    /// Submit round trip (to the 202).
    pub submit: Duration,
    /// 202 → first streamed trace bytes: the open delay, the queue wait
    /// and the stream poll.
    pub first_line: Duration,
    /// 202 → end of the trace stream.
    pub stream: Duration,
    /// Bytes of the streamed trace.
    pub trace_bytes: usize,
    /// Whether the streamed trace equals the spec's twin byte for byte.
    pub trace_matches: bool,
    /// The job's last state as its status reports it.
    pub state: String,
    /// HTTP requests made for this job.
    pub requests: u64,
    /// Responses outside 2xx.
    pub non2xx: u64,
    /// When the client was done with the job.
    pub finished: Instant,
}

/// Starts a server with one worker on `data_dir` and waits until
/// `/readyz` answers 200; returns it with the time that took.
pub fn start(data_dir: &Path) -> (Server, Duration) {
    let t0 = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir.to_path_buf(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("the server starts on an ephemeral port");
    loop {
        match request(server.addr(), "GET", "/readyz", None, TIMEOUT) {
            Ok(r) if r.status == 200 => break,
            _ => std::thread::sleep(Duration::from_micros(20)),
        }
    }
    (server, t0.elapsed())
}

/// Reads a chunked response body, noting when the first data arrived.
fn read_chunked(r: &mut impl BufRead, first: &mut Option<Instant>) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        let size = line.trim().split(';').next().unwrap_or("");
        let size = usize::from_str_radix(size, 16)
            .map_err(|_| std::io::Error::other(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            // trailer section up to the terminating blank line
            loop {
                line.clear();
                if r.read_line(&mut line)? == 0 || line.trim().is_empty() {
                    return Ok(body);
                }
            }
        }
        let at = body.len();
        body.resize(at + size, 0);
        r.read_exact(&mut body[at..])?;
        first.get_or_insert_with(Instant::now);
        line.clear();
        r.read_line(&mut line)?;
    }
}

/// Follows a job's trace stream to its end: (status, body, first data).
fn follow(addr: SocketAddr, id: &str) -> std::io::Result<(u16, Vec<u8>, Option<Instant>)> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    let mut w = stream.try_clone()?;
    write!(
        w,
        "GET /v1/jobs/{id}/trace HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    w.flush()?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    loop {
        line.clear();
        r.read_line(&mut line)?;
        if line.trim().is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        chunked |= lower.starts_with("transfer-encoding:") && lower.contains("chunked");
    }
    let mut first = None;
    let body = if chunked {
        read_chunked(&mut r, &mut first)?
    } else {
        let mut b = Vec::new();
        r.read_to_end(&mut b)?;
        b
    };
    Ok((status, body, first))
}

fn field(body: &[u8], key: &str) -> Option<String> {
    let obj = parse_object(String::from_utf8_lossy(body).trim()).ok()?;
    match obj.get(key)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// How long after the 202 the client of the `n`-th job opens its trace
/// stream: uniform below [`STREAM_POLL`], drawn from the job's seed and
/// number. The server's polls then fall at a random phase of each job, so
/// the wait they add is spread over 0–20 ms. Opened at once, every stream
/// polls at the same offsets from its submit, job latency snaps to 20 ms
/// steps, and a run settles on one step or the next from run to run.
fn open_delay(seed: u64, n: usize) -> Duration {
    STREAM_POLL.mul_f64((mix(seed ^ n as u64) % 1000) as f64 / 1000.0)
}

/// Runs the `n`-th job of a loop, of spec `k`, through the client protocol.
fn one_job(addr: SocketAddr, n: usize, k: usize, spec: &JobSpec) -> Job {
    let mut job = Job {
        spec: k,
        id: String::new(),
        total: Duration::ZERO,
        done: Duration::ZERO,
        submit: Duration::ZERO,
        first_line: Duration::ZERO,
        stream: Duration::ZERO,
        trace_bytes: 0,
        trace_matches: false,
        state: "unsubmitted".to_owned(),
        requests: 0,
        non2xx: 0,
        finished: Instant::now(),
    };
    let t0 = Instant::now();
    let resp = request(addr, "POST", "/v1/jobs", Some(&spec.body()), TIMEOUT);
    job.requests += 1;
    let accepted = Instant::now();
    job.submit = accepted - t0;
    let id = match resp {
        Ok(r) if r.status == 202 => field(&r.body, "id"),
        Ok(r) => {
            job.non2xx += 1;
            job.state = format!("submit answered {}", r.status);
            None
        }
        Err(e) => {
            job.state = format!("submit failed: {e}");
            None
        }
    };
    let Some(id) = id else {
        job.finished = Instant::now();
        return job;
    };
    job.id = id;
    job.requests += 1;
    let (streamed, done) = std::thread::scope(|s| {
        let id = job.id.clone();
        let reader = s.spawn(move || {
            std::thread::sleep(open_delay(spec.seed, n));
            follow(addr, &id).map(|r| (r, Instant::now()))
        });
        let done = poll_status(addr, &mut job);
        (
            reader.join().expect("the stream reader does not panic"),
            done,
        )
    });
    if let Some(done) = done {
        job.done = done - t0;
    }
    match streamed {
        Ok(((status, body, first), end)) => {
            job.total = end - t0;
            job.stream = end - accepted;
            job.first_line = first.map_or(job.stream, |f| f - accepted);
            job.trace_bytes = body.len();
            job.trace_matches = !body.is_empty() && body == spec.twin;
            if !(200..300).contains(&status) {
                job.non2xx += 1;
            }
        }
        Err(e) => job.state = format!("stream failed: {e}"),
    }
    job.finished = Instant::now();
    job
}

/// Reads the job's status every [`STATUS_POLL`] until it is terminal;
/// returns when the terminal state was read.
fn poll_status(addr: SocketAddr, job: &mut Job) -> Option<Instant> {
    let path = format!("/v1/jobs/{}", job.id);
    let t0 = Instant::now();
    loop {
        job.requests += 1;
        match request(addr, "GET", &path, None, TIMEOUT) {
            Ok(r) if r.status == 200 => {
                job.state = field(&r.body, "state").unwrap_or_else(|| "unparsed".to_owned());
                if TERMINAL.contains(&job.state.as_str()) {
                    return Some(Instant::now());
                }
            }
            Ok(r) => {
                job.non2xx += 1;
                job.state = format!("status answered {}", r.status);
                return None;
            }
            Err(e) => {
                job.state = format!("status failed: {e}");
                return None;
            }
        }
        if t0.elapsed() > TIMEOUT {
            job.state = format!("still {} after {TIMEOUT:?}", job.state);
            return None;
        }
        std::thread::sleep(STATUS_POLL);
    }
}

/// What a closed loop returns: the jobs in completion order, when the
/// loop started, and the peak RSS when the `min_jobs`-th job finished —
/// a point that does not move with throughput, unlike the end of the
/// window (the server keeps a record of every job it ran).
pub struct Loop {
    /// Jobs in completion order.
    pub jobs: Vec<Job>,
    /// Start of the loop.
    pub start: Instant,
    /// Peak RSS at the `min_jobs`-th completion, MB.
    pub rss_mb: f64,
}

/// Drives the closed loop until `seconds` have passed and at least
/// `min_jobs` jobs finished.
pub fn closed_loop(
    addr: SocketAddr,
    specs: &[JobSpec],
    seconds: Duration,
    min_jobs: usize,
) -> Loop {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let rss = Mutex::new(f64::NAN);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let finished = done.lock().expect("no client panicked").len();
                if t0.elapsed() >= seconds && finished >= min_jobs {
                    return;
                }
                let j = next.fetch_add(1, Ordering::Relaxed);
                let k = j % specs.len();
                let job = one_job(addr, j, k, &specs[k]);
                let mut done = done.lock().expect("no client panicked");
                done.push(job);
                if done.len() == min_jobs {
                    *rss.lock().expect("no client panicked") = peak_rss_mb();
                }
            });
        }
    });
    Loop {
        jobs: done.into_inner().expect("no client panicked"),
        start: t0,
        rss_mb: rss.into_inner().expect("no client panicked"),
    }
}

/// The trace a job must stream: the same cell run in-process through
/// `SettingSpec::run_ft` with the same checkpoint cadence.
fn twin_trace(dir: &Path, schedule: &str, seed: u64) -> Vec<u8> {
    let trace = dir.join(format!("twin-{seed}.jsonl"));
    let ckpt = dir.join(format!("twin-{seed}.state"));
    let sink = JsonlSink::create(&trace).expect("twin trace file");
    let mut rec = Recorder::new(Box::new(sink));
    let setting = load_setting("digits-mlp", seed).expect("catalogued setting");
    let optimizer = OptimizerKind::sgdm();
    let result = setting.run_ft(
        BUDGET,
        optimizer,
        schedule.parse().expect("paper schedule names parse"),
        setting.default_lr(&optimizer),
        seed,
        DType::F32,
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(ckpt.clone()),
            ..FtConfig::default()
        },
        &mut rec,
    );
    rec.flush();
    drop(rec);
    let bytes = if result.is_ok() {
        std::fs::read(&trace).unwrap_or_default()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);
    bytes
}

/// Checks every job ended `done` with a trace byte-identical to its twin;
/// records one outcome per job.
pub fn check_jobs(jobs: &[Job], specs: &[JobSpec], rep: &mut Report) {
    for job in jobs {
        let spec = &specs[job.spec];
        let mut ok = job.non2xx == 0;
        if job.state != "done" {
            rep.fail(format!(
                "job {} ({} seed {}) ended {:?}",
                job.id, spec.schedule, spec.seed, job.state
            ));
            ok = false;
        } else if !job.trace_matches {
            rep.fail(format!(
                "job {}: streamed trace ({} bytes) differs from its in-process twin ({} bytes)",
                job.id,
                job.trace_bytes,
                spec.twin.len()
            ));
            ok = false;
        }
        rep.outcome(ok);
    }
}

/// The end-to-end run.
pub fn run(o: &Opts, rep: &mut Report) {
    let root = crate::common::scratch("serve");
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    for r in 0..SETUP_BEFORE {
        let (s, dt) = start(&root.join(format!("data-{r}")));
        setup_times.push(dt.as_secs_f64());
        if let Some(prev) = served.replace(s) {
            prev.shutdown();
        }
    }
    let served = served.expect("SETUP_BEFORE > 0");
    let addr = served.addr();
    let specs = specs(o.seed, &root);
    // warm up: one job per client, outside the measured window
    closed_loop(addr, &specs, Duration::ZERO, CLIENTS);

    let Loop {
        jobs,
        start: t0,
        rss_mb: rss,
    } = closed_loop(addr, &specs, o.seconds, MIN_JOBS);
    served.shutdown();
    for r in SETUP_BEFORE..SETUP_REPS {
        let (s, dt) = start(&root.join(format!("data-{r}")));
        setup_times.push(dt.as_secs_f64());
        s.shutdown();
    }

    check_jobs(&jobs, &specs, rep);
    let _ = std::fs::remove_dir_all(&root);

    // slices of SLICE consecutive completions: rates and percentiles are
    // taken per slice and reported as their median over slices
    let mut slices: Vec<[f64; 4]> = Vec::new();
    let mut start = t0;
    for chunk in jobs.chunks_exact(SLICE) {
        let end = chunk.iter().map(|j| j.finished).max().expect("SLICE > 0");
        let mut latency = Samples::default();
        let mut done = Samples::default();
        for job in chunk {
            latency.push(job.total.as_secs_f64());
            done.push(job.done.as_secs_f64());
        }
        slices.push([
            SLICE as f64 / (end - start).as_secs_f64(),
            latency.pct(50),
            latency.pct(90),
            done.pct(50),
        ]);
        start = end;
    }
    let per_slice = |k: usize| stats::median(&slices.iter().map(|s| s[k]).collect::<Vec<_>>());
    let n = jobs.len();
    rep.notes.push(format!(
        "{n} jobs by {CLIENTS} clients on 1 worker in {} slices of {SLICE} \
         (rates and percentiles: median over slices); traces checked against \
         {DISTINCT} in-process twins; peak RSS read at job {MIN_JOBS}",
        slices.len(),
    ));
    rep.set("setup_s", stats::median(&setup_times), setup_times.len());
    rep.set("samples_per_s", per_slice(0) * SAMPLES_PER_JOB as f64, n);
    rep.set("cells_per_s", per_slice(0), n);
    rep.set("cell_s_p50", per_slice(1), n);
    rep.set("cell_s_p90", per_slice(2), n);
    rep.set("done_s_p50", per_slice(3), n);
    rep.set("peak_rss_mb", rss, 1);
}
