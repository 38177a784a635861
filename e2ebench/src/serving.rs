//! The two serving workloads: `serve_mixed` (DLinear on a 20,000-point
//! Gorilla series with one 16-point write in every 8 requests) and
//! `serve_heavy` (GRU on a 2000-point series, forecasts only).
//!
//! Both run an in-process `Server` with the default `ServeConfig` and
//! drive it over loopback TCP from two connections, each on its own
//! thread, sending open-loop on a fixed schedule. Every latency is timed
//! from the moment its request was due, so a stall also charges the
//! requests queued behind it. Every forecast reply is checked bitwise
//! against offline `Forecaster::predict` on the window the series held.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evalcore::artifact::{ArtifactKey, ArtifactStore};
use forecast::{build_model, BuildOptions, Forecaster, ModelKind, Profile};
use serve::registry::{ModelSpec, RegistryConfig};
use serve::{Client, ModelRegistry, ServeConfig, ServeError, Server};
use tsdata::datasets::{generate, DatasetKind, GenOptions};
use tsdata::split::{split, SplitSpec};

use crate::layers::{self, LayerInputs, ServeObservations};
use crate::util::{cpu_seconds, host_ticks, median, peak_rss_mb, quantile, sorted};
use crate::util::{steal_share_since, Metric, Ops, Outcome};

const INPUT_LEN: usize = 96;
const HORIZON: usize = 24;
const MODEL_SEED: u64 = 40;
const TRAIN_SEED: u64 = 0x5EED;
const SERIES: u64 = 1;
/// Seconds between points (the ETT 15-minute cadence).
const CADENCE: i64 = 900;
/// Points in one write request.
const WRITE_POINTS: usize = 16;
/// A forecast meets its limit when it completes within this many
/// seconds of its due time.
const LIMIT_S: f64 = 0.010;
/// The generator counts a send as late past this many seconds.
const LATE_S: f64 = 0.001;
/// Connections (and load threads): at most `nproc` on the 2-core host.
const CONNECTIONS: usize = 2;
const SETUP_REPS: usize = 5;
/// Forecasts sent during set-up to warm the request path.
const WARM_UP: usize = 20;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    Mixed,
    Heavy,
}

impl Serve {
    pub fn name(self) -> &'static str {
        match self {
            Serve::Mixed => "serve_mixed",
            Serve::Heavy => "serve_heavy",
        }
    }

    fn model(self) -> ModelKind {
        match self {
            Serve::Mixed => ModelKind::DLinear,
            Serve::Heavy => ModelKind::Gru,
        }
    }

    /// Points pre-ingested before traffic starts.
    fn series_len(self) -> usize {
        match self {
            Serve::Mixed => 20_000,
            Serve::Heavy => 2_000,
        }
    }

    fn writes(self) -> bool {
        self == Serve::Mixed
    }

    /// The fixed offered rate (requests/s, both connections together)
    /// at which latency is reported.
    fn reference_rate(self) -> f64 {
        match self {
            Serve::Mixed => 200.0,
            Serve::Heavy => 200.0,
        }
    }
}

/// The series content as a function of position: the pre-ingested
/// values, continued cyclically by the writes.
struct SeriesData {
    base: Vec<f64>,
}

impl SeriesData {
    fn value(&self, pos: usize) -> f64 {
        self.base[pos % self.base.len()]
    }

    fn points(&self, from: usize, n: usize) -> Vec<(i64, f64)> {
        (from..from + n).map(|p| (p as i64 * CADENCE, self.value(p))).collect()
    }

    fn window(&self, len: usize) -> Vec<f64> {
        (len - INPUT_LEN..len).map(|p| self.value(p)).collect()
    }
}

/// What the load threads share: where to send, what to ask for, and
/// how long the series is.
struct Load {
    addr: std::net::SocketAddr,
    spec: ModelSpec,
    data: SeriesData,
    /// Series length acknowledged by the server.
    acked: AtomicU64,
    /// Series length including writes in flight.
    sent: AtomicU64,
}

/// One live server with everything it was set up with.
struct Rig {
    server: Server,
    model: Box<dyn Forecaster>,
    load: Load,
    dir: PathBuf,
    generate_s: f64,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Scratch directory for artifacts, inside the benchmark's own tree.
fn work_dir(rep: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("serve-{}-{rep}", std::process::id()))
}

/// Set-up: fit, save, open and warm the registry, start the server,
/// pre-ingest the series and warm the request path.
fn set_up(kind: Serve, seed: u64, rep: usize) -> Rig {
    let dir = work_dir(rep);
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    // The model is a fixed fixture: its training data does not depend on
    // the seed, so set-up time does not either. The seed drives the
    // served series and with it every request.
    let train = generate(
        DatasetKind::ETTm1,
        GenOptions { len: Some(1_500), channels: Some(1), seed: TRAIN_SEED },
    );
    let served = generate(
        DatasetKind::ETTm1,
        GenOptions { len: Some(kind.series_len()), channels: Some(1), seed: seed ^ 0x5E21E },
    );
    let generate_s = t.elapsed().as_secs_f64();
    let s = split(&train, SplitSpec::default()).expect("1500 points split cleanly");
    let season = Some(DatasetKind::ETTm1.samples_per_day() as usize);
    let opts = BuildOptions {
        input_len: INPUT_LEN,
        horizon: HORIZON,
        season,
        seed: MODEL_SEED,
        profile: Profile::Fast,
    };
    let mut model = build_model(kind.model(), opts);
    model.fit(&s.train, &s.val).expect("model fit succeeds");
    let key = ArtifactKey {
        dataset: "ETTm1".into(),
        model: kind.model().name().into(),
        seed: MODEL_SEED,
        profile: "Fast".into(),
        method: None,
        eps_bits: None,
        input_len: INPUT_LEN,
        horizon: HORIZON,
        len: Some(1_500),
        channels: Some(1),
        data_seed: TRAIN_SEED,
    };
    let store = ArtifactStore::open(&dir).expect("open artifact store");
    store.save(&key, &model.save_state().expect("state export")).expect("artifact save");
    let registry =
        Arc::new(ModelRegistry::open(&dir, RegistryConfig::default()).expect("open registry"));
    registry.warm(1).expect("warm the model");
    let server = Server::start(ServeConfig::default(), registry).expect("server starts");
    let data = SeriesData { base: served.target().values().to_vec() };
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let n = kind.series_len();
    for from in (0..n).step_by(4096) {
        client.ingest(SERIES, 0, 0.0, &data.points(from, 4096.min(n - from))).expect("ingest");
    }
    let load = Load {
        addr: server.local_addr(),
        spec: ModelSpec::from_key(&key),
        data,
        acked: AtomicU64::new(n as u64),
        sent: AtomicU64::new(n as u64),
    };
    for _ in 0..WARM_UP {
        client.forecast(&load.spec, SERIES).expect("warm-up forecast");
    }
    Rig { server, model, load, dir, generate_s }
}

/// One request's record.
struct Sample {
    forecast: bool,
    /// Seconds from the phase start to the due time.
    due_s: f64,
    /// Seconds from due time to reply.
    latency: f64,
    /// Seconds from send to reply.
    service: f64,
    /// Seconds the send left after its due time although the
    /// connection was free (the generator's own lateness).
    gen_late: f64,
    /// Seconds the send left after its due time for any reason.
    send_delay: f64,
    status: Status,
    /// Forecast reply and the series lengths it may have been read at.
    reply: Option<(Vec<f64>, usize, usize)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Failed,
    Refused,
}

/// Everything one open-loop phase observed.
struct Phase {
    rate: f64,
    samples: Vec<Sample>,
    /// Requests scheduled but never sent because the phase fell too far
    /// behind and was cut.
    unsent_forecasts: u64,
    unsent_writes: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn forecasts(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.forecast)
    }

    fn forecast_latencies(&self) -> Vec<f64> {
        sorted(&self.forecasts().map(|s| s.latency).collect::<Vec<_>>())
    }

    fn ingest_latencies(&self) -> Vec<f64> {
        sorted(&self.samples.iter().filter(|s| !s.forecast).map(|s| s.latency).collect::<Vec<_>>())
    }

    /// Requests completed per second, from the first due time to the
    /// last reply.
    fn achieved_rate(&self) -> f64 {
        let end = self.samples.iter().map(|s| s.due_s + s.latency).fold(0.0, f64::max);
        if end > 0.0 {
            self.samples.len() as f64 / end
        } else {
            0.0
        }
    }

    fn late_share(&self) -> f64 {
        let late = self.samples.iter().filter(|s| s.gen_late > LATE_S).count();
        late as f64 / self.samples.len().max(1) as f64
    }

    fn late_max_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.gen_late).fold(0.0, f64::max) * 1e3
    }

    /// Share of the forecasts scheduled that completed OK within the
    /// limit; failed, refused and unsent ones miss it.
    fn in_time_share(&self) -> f64 {
        let scheduled = self.forecasts().count() as u64 + self.unsent_forecasts;
        let in_time =
            self.forecasts().filter(|s| s.status == Status::Ok && s.latency <= LIMIT_S).count();
        in_time as f64 / scheduled.max(1) as f64
    }

    /// The generator kept its schedule and no backlog built up: nothing
    /// was cut and the last sends left on time.
    ///
    /// The generator fell behind when its typical send was late with the
    /// connection free; scattered late wake-ups (a host stall) are not
    /// falling behind, and they stay visible in `late_share`.
    fn steady(&self) -> bool {
        let tail: Vec<f64> = self.samples.iter().rev().take(20).map(|s| s.send_delay).collect();
        let gen_late: Vec<f64> = self.samples.iter().map(|s| s.gen_late).collect();
        self.unsent_forecasts + self.unsent_writes == 0
            && median(&tail) <= LIMIT_S
            && median(&gen_late) <= LATE_S
    }

    /// The ladder rule: the median forecast scheduled completes OK
    /// within the limit, with the generator on schedule and no growing
    /// backlog.
    fn meets_limit(&self) -> bool {
        self.in_time_share() >= 0.5 && self.steady()
    }

    /// The stricter tail rule, reported alongside: 99% within the limit.
    fn meets_tail_limit(&self) -> bool {
        self.in_time_share() >= 0.99 && self.steady()
    }
}

/// Runs one open-loop phase at `rate` requests/s for `seconds`.
fn run_phase(load: &Load, writes: bool, rate: f64, seconds: f64) -> Phase {
    let addr = load.addr;
    let mut clients: Vec<Client> =
        (0..CONNECTIONS).map(|_| Client::connect(addr).expect("connect")).collect();
    let c0 = cpu_seconds();
    let t0 = Instant::now() + Duration::from_millis(2);
    let per_conn: Vec<(Vec<Sample>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || connection_loop(load, client, c, writes, rate, seconds, t0))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - c0;
    let mut phase =
        Phase { rate, samples: Vec::new(), unsent_forecasts: 0, unsent_writes: 0, wall_s, cpu_s };
    for (samples, unsent_f, unsent_w) in per_conn {
        phase.samples.extend(samples);
        phase.unsent_forecasts += unsent_f;
        phase.unsent_writes += unsent_w;
    }
    phase.samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    phase
}

/// A phase is cut once sends fall this far behind schedule.
const CUT_S: f64 = 0.25;

fn connection_loop(
    load: &Load,
    client: &mut Client,
    conn: usize,
    writes: bool,
    rate: f64,
    seconds: f64,
    t0: Instant,
) -> (Vec<Sample>, u64, u64) {
    let total = (rate * seconds).floor() as usize;
    let mut samples = Vec::with_capacity(total / CONNECTIONS + 1);
    let mut unsent = (0u64, 0u64);
    let mut free_at = t0;
    // One write in every 8 requests overall, all on the last connection
    // so the series grows in a single, known order.
    let is_write = |j: usize| writes && conn == CONNECTIONS - 1 && j % 4 == 3;
    let mut j = 0usize;
    loop {
        let k = j * CONNECTIONS + conn;
        if k >= total {
            break;
        }
        let write = is_write(j);
        j += 1;
        let due_s = k as f64 / rate;
        let due = t0 + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent_at = Instant::now();
        let send_delay = sent_at.saturating_duration_since(due).as_secs_f64();
        if send_delay > CUT_S {
            // Too far behind: count the rest of the schedule as unsent.
            for rest in j - 1.. {
                let k = rest * CONNECTIONS + conn;
                if k >= total {
                    break;
                }
                if is_write(rest) {
                    unsent.1 += 1;
                } else {
                    unsent.0 += 1;
                }
            }
            break;
        }
        let gen_late = sent_at.saturating_duration_since(due.max(free_at)).as_secs_f64();
        let (status, reply) = if write {
            let from = load.sent.fetch_add(WRITE_POINTS as u64, Ordering::SeqCst) as usize;
            let result = client.ingest(SERIES, 0, 0.0, &load.data.points(from, WRITE_POINTS));
            if result.is_ok() {
                load.acked.store((from + WRITE_POINTS) as u64, Ordering::SeqCst);
            }
            (status_of(&result), None)
        } else {
            let lo = load.acked.load(Ordering::SeqCst) as usize;
            let result = client.forecast(&load.spec, SERIES);
            let hi = load.sent.load(Ordering::SeqCst) as usize;
            let status = status_of(&result);
            (status, result.ok().map(|v| (v, lo, hi)))
        };
        let done = Instant::now();
        free_at = done;
        samples.push(Sample {
            forecast: !write,
            due_s,
            latency: done.duration_since(due).as_secs_f64(),
            service: done.duration_since(sent_at).as_secs_f64(),
            gen_late,
            send_delay,
            status,
            reply,
        });
    }
    (samples, unsent.0, unsent.1)
}

fn status_of<T>(r: &Result<T, ServeError>) -> Status {
    match r {
        Ok(_) => Status::Ok,
        Err(ServeError::Overloaded { .. }) => Status::Refused,
        Err(_) => Status::Failed,
    }
}

/// Checks every forecast reply bitwise against offline `predict` on a
/// window the series held while the request was in flight. Returns the
/// number of wrong replies.
fn verify(rig: &Rig, phase: &Phase, cache: &mut HashMap<usize, Vec<u64>>) -> u64 {
    let mut wrong = 0;
    for s in phase.forecasts() {
        let Some((values, lo, hi)) = &s.reply else { continue };
        let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let matches = (*lo..=*hi).any(|len| {
            let want = cache.entry(len).or_insert_with(|| {
                let window = rig.load.data.window(len);
                let pred =
                    rig.model.predict(std::slice::from_ref(&window)).expect("offline predict");
                pred.iter().map(|v| v.to_bits()).collect()
            });
            *want == got
        });
        if !matches {
            wrong += 1;
        }
    }
    wrong
}

/// The phase's operation counts, one row per request type.
fn account(phase: &Phase, label: &str) -> Vec<Ops> {
    let mut ops = [
        Ops::new(format!("{label} {:.0}/s forecast", phase.rate)),
        Ops::new(format!("{label} {:.0}/s ingest", phase.rate)),
    ];
    for s in &phase.samples {
        let o = &mut ops[usize::from(!s.forecast)];
        o.attempted += 1;
        match s.status {
            Status::Ok => o.succeeded += 1,
            Status::Failed => o.failed += 1,
            Status::Refused => o.refused += 1,
        }
    }
    ops.into_iter().filter(|o| o.attempted > 0).collect()
}

/// Lowest rate of the doubling ladder (requests/s).
const LADDER_START: f64 = 100.0;
/// Highest rate the ladder offers.
const LADDER_CAP: f64 = 12_800.0;
/// Ladder steps (doubling, bisection and retries) in one run.
const LADDER_STEPS: usize = 10;
/// Reference-rate windows in one run.
const REF_WINDOWS: usize = 6;

/// The rate ladder: offered rates double from [`LADDER_START`] until one
/// misses the limit, then bisect between the best rate met and the one
/// missed. A miss at a rate the server still kept up with (a host stall
/// rather than a backlog) is run once more before it counts, so a lone
/// stall does not end the ladder early.
struct Ladder {
    /// Highest rate met, and the lowest rate missed once bisecting.
    lo: f64,
    hi: Option<f64>,
    next: f64,
    retrying: bool,
    steps: usize,
}

impl Ladder {
    fn new() -> Ladder {
        Ladder { lo: 0.0, hi: None, next: LADDER_START, retrying: false, steps: 0 }
    }

    /// The next rate to offer, or `None` when the ladder is done.
    fn next_rate(&self) -> Option<f64> {
        (self.steps < LADDER_STEPS && self.next <= LADDER_CAP).then_some(self.next)
    }

    /// Records a step at `rate`: whether it met the limit, and whether
    /// the server completed at least 95% of the offered rate.
    fn record(&mut self, rate: f64, met: bool, kept_up: bool) {
        self.steps += 1;
        if !met && kept_up && !self.retrying {
            self.retrying = true;
            return;
        }
        self.retrying = false;
        if met {
            self.lo = rate;
        } else {
            self.hi = Some(rate);
        }
        self.next = match self.hi {
            None => rate * 2.0,
            Some(hi) if self.lo > 0.0 => (self.lo + hi) / 2.0,
            // Nothing met: the ladder is over.
            Some(_) => f64::INFINITY,
        };
    }

    /// The highest offered rate that met the limit.
    fn best(&self) -> f64 {
        self.lo
    }
}

pub fn run(kind: Serve, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let _ = std::fs::create_dir_all(work_dir(0).parent().expect("work dir has a parent"));
    // Set up several times and keep the last rig; earlier ones stop on drop.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(set_up(kind, seed, rep));
        setups.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("set up at least once");
    let setup_s = median(&setups);

    let mut cache = HashMap::new();
    let mut wrong = 0;
    let mut phases: Vec<(&str, Phase)> = Vec::new();
    let ref_rate = kind.reference_rate();

    let outcome_metrics;
    let report;
    if trace {
        // Untraced then traced reference phases: the difference is the
        // tracing overhead; the traced one feeds the layer split.
        let plain = run_phase(&rig.load, kind.writes(), ref_rate, seconds * 0.45);
        let stats_before = stats(&rig);
        telemetry::set_enabled(true);
        let traced = run_phase(&rig.load, kind.writes(), ref_rate, seconds * 0.45);
        telemetry::set_enabled(false);
        let stats_after = stats(&rig);
        let obs = ServeObservations {
            server: &rig.server,
            spec: &rig.load.spec,
            model: rig.model.as_ref(),
            series: &rig.load.data.base,
            series_len: rig.load.acked.load(Ordering::SeqCst) as usize,
            input_len: INPUT_LEN,
            horizon: HORIZON,
            forecasts: traced.forecasts().count() as u64,
            service_s: traced.forecasts().map(|s| s.service).sum::<f64>(),
            untraced_p50_s: quantile(&plain.forecast_latencies(), 0.5),
            traced_p50_s: quantile(&traced.forecast_latencies(), 0.5),
            late_share: traced.late_share(),
            late_max_ms: traced.late_max_ms(),
            stats_before,
            stats_after,
            generate_s: rig.generate_s,
        };
        let inputs = LayerInputs {
            workload: kind.name(),
            wall_s: traced.wall_s,
            untraced_wall_s: plain.wall_s,
            reps: 1,
            threads: CONNECTIONS,
            shap_rows: None,
            cell_transform_s: 0.0,
            serve: Some(&obs),
        };
        let m = layers::collect(&inputs);
        report = m.clone();
        outcome_metrics = m;
        phases.push(("untraced", plain));
        phases.push(("traced", traced));
    } else {
        // Reference windows interleave with ladder steps, so a host stall
        // lasting a few seconds hits a minority of windows; each reference
        // figure is the median over windows.
        let ref_s = seconds * 0.35 / REF_WINDOWS as f64;
        let step_s = seconds * 0.6 / LADDER_STEPS as f64;
        let mut refs: Vec<Phase> = Vec::new();
        let mut steps: Vec<Phase> = Vec::new();
        let mut ladder = Ladder::new();
        let host = host_ticks();
        loop {
            let more_refs = refs.len() < REF_WINDOWS;
            if more_refs {
                refs.push(run_phase(&rig.load, kind.writes(), ref_rate, ref_s));
            }
            match ladder.next_rate() {
                Some(rate) => {
                    let phase = run_phase(&rig.load, kind.writes(), rate, step_s);
                    let kept_up = phase.achieved_rate() >= 0.95 * rate;
                    ladder.record(rate, phase.meets_limit(), kept_up);
                    steps.push(phase);
                }
                None if !more_refs => break,
                None => {}
            }
        }
        let best = ladder.best();
        // The rate the server actually sustained on the best step met.
        let max_rate = steps
            .iter()
            .filter(|p| p.rate == best && p.meets_limit())
            .map(Phase::achieved_rate)
            .fold(0.0, f64::max);
        let tail_rate =
            steps.iter().filter(|p| p.meets_tail_limit()).map(|p| p.rate).fold(0.0, f64::max);
        let over_windows =
            |f: &dyn Fn(&Phase) -> f64| median(&refs.iter().map(f).collect::<Vec<_>>());
        let p50 = over_windows(&|p| quantile(&p.forecast_latencies(), 0.5)) * 1e3;
        let p90 = over_windows(&|p| quantile(&p.forecast_latencies(), 0.9)) * 1e3;
        let cpu_ms = over_windows(&|p| p.cpu_s / p.samples.len().max(1) as f64) * 1e3;
        let ingest_p50 = over_windows(&|p| quantile(&p.ingest_latencies(), 0.5)) * 1e3;
        let forecasts: usize = refs.iter().map(|p| p.forecasts().count()).sum();
        let late_share = over_windows(&Phase::late_share);
        let late_max_ms = refs.iter().map(Phase::late_max_ms).fold(0.0, f64::max);
        let rss = peak_rss_mb();
        outcome_metrics = vec![
            Metric::new("cpu_ms_per_op", "ms", cpu_ms),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", rss),
        ];
        let mut r = vec![
            Metric::new("forecast_p50_ms", "ms", p50),
            Metric::new("forecast_p90_ms", "ms", p90),
            Metric::new("forecast_samples", "count", forecasts as f64),
        ];
        if kind.writes() {
            r.push(Metric::new("ingest_p50_ms", "ms", ingest_p50));
        }
        r.extend([
            Metric::new("max_rate_rps", "req/s", max_rate),
            Metric::new("max_rate_rps.p99_rule", "req/s", tail_rate),
            Metric::new("cpu_ms_per_request", "ms", cpu_ms),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", rss),
            Metric::new("bench.gen.late_share", "share", late_share),
            Metric::new("bench.gen.late_max_ms", "ms", late_max_ms),
            Metric::new("reference_rate", "req/s", ref_rate),
            Metric::new("host.steal_share", "share", steal_share_since(host)),
        ]);
        for p in &steps {
            eprintln!(
                "[e2ebench] ladder {:>8.1} req/s (achieved {:.1}): {} requests, p50 {:.3} p90 {:.3} p99 {:.3} ms, \
                 in time {:.4}, late {:.3}, {}{}",
                p.rate,
                p.achieved_rate(),
                p.samples.len(),
                quantile(&p.forecast_latencies(), 0.5) * 1e3,
                quantile(&p.forecast_latencies(), 0.9) * 1e3,
                quantile(&p.forecast_latencies(), 0.99) * 1e3,
                p.in_time_share(),
                p.late_share(),
                if p.meets_limit() { "meets limit" } else { "misses" },
                if p.meets_tail_limit() { " (99% rule too)" } else { "" }
            );
        }
        report = r;
        phases.extend(refs.into_iter().map(|p| ("reference", p)));
        phases.extend(steps.into_iter().map(|p| ("ladder", p)));
    }
    let mut ops = Vec::new();
    for (label, p) in &phases {
        ops.extend(account(p, label));
        wrong += verify(&rig, p, &mut cache);
    }
    drop(rig);
    let mut outcome = Outcome { correct: wrong == 0, ops, wrong, metrics: outcome_metrics, report };
    if !trace {
        let error_rate = outcome.error_rate();
        outcome.report.push(Metric::new("error_rate", "share", error_rate));
    }
    outcome
}

/// The server's `stats` counters as key/value pairs.
fn stats(rig: &Rig) -> HashMap<String, u64> {
    let mut client = Client::connect(rig.server.local_addr()).expect("connect");
    let text = client.stats().expect("stats");
    text.lines()
        .filter_map(|l| l.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the ladder against a server whose capacity is `capacity`,
    /// with stalls at the listed step indices.
    fn climb(capacity: f64, stalls: &[usize]) -> (f64, Vec<f64>) {
        let mut ladder = Ladder::new();
        let mut offered = Vec::new();
        while let Some(rate) = ladder.next_rate() {
            let stalled = stalls.contains(&offered.len());
            offered.push(rate);
            let met = rate <= capacity && !stalled;
            ladder.record(rate, met, rate <= capacity);
        }
        (ladder.best(), offered)
    }

    #[test]
    fn ladder_doubles_then_bisects() {
        let (best, offered) = climb(1_300.0, &[]);
        assert_eq!(&offered[..6], &[100.0, 200.0, 400.0, 800.0, 1_600.0, 1_200.0]);
        assert_eq!(offered.len(), LADDER_STEPS);
        assert!((1_200.0..=1_300.0).contains(&best), "{best}");
    }

    #[test]
    fn a_lone_stall_is_run_again() {
        let (best, offered) = climb(1_300.0, &[1]);
        assert_eq!(&offered[..3], &[100.0, 200.0, 200.0]);
        assert!(best >= 800.0, "{best}");
    }

    #[test]
    fn nothing_met_ends_at_zero() {
        let (best, offered) = climb(50.0, &[]);
        assert_eq!(best, 0.0);
        assert_eq!(offered, vec![100.0]);
    }
}
