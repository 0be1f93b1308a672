//! Load generation over the wire protocol.
//!
//! The open-loop driver sends each request at its scheduled time whether or
//! not earlier answers came back, and times every request from that *due*
//! time, so a stall also charges the requests queued behind it.  One thread
//! drives one connection: it pipelines requests (distinct ids) and reads
//! answers between sends.  The closed-loop driver is the public
//! [`Client`]: each connection sends its next request only after the
//! previous answer.

use perfxplain_server::{Client, WireRequest, WireResponse};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Send offsets (seconds from the phase start) of a Poisson arrival process
/// at `rate` per second over `duration` seconds, conditioned on its
/// expected count: `round(rate * duration)` arrivals at sorted uniform
/// times.  A run therefore always has the same number of requests, and the
/// same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = (rate * duration).round() as usize;
    let mut schedule: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * duration).collect();
    schedule.sort_by(f64::total_cmp);
    schedule
}

/// Send offsets of a fixed-rate stream: one every `1 / rate` seconds.
pub fn fixed_schedule(rate: f64, duration: f64) -> Vec<f64> {
    let count = (rate * duration).floor() as usize;
    (0..count).map(|i| (i as f64 + 0.5) / rate).collect()
}

/// How long before a send the driver stops waiting on the socket and
/// sleeps instead.
const SEND_MARGIN: Duration = Duration::from_millis(2);

/// One request of an open-loop stream: its wire frame and due offset.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Seconds after the phase start at which the request is due.
    pub due_s: f64,
    /// The request; its `id` is set by the driver.
    pub request: WireRequest,
}

/// What happened to one planned request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// How late the driver sent it, in milliseconds.
    pub lag_ms: f64,
    /// Due-to-answer latency in milliseconds; `INFINITY` when the request
    /// failed, was shed, expired or was never answered.
    pub latency_ms: f64,
    /// The answer, when one arrived.
    pub response: Option<WireResponse>,
    /// Bytes of the request line sent.
    pub frame_bytes: usize,
}

impl Outcome {
    /// Whether the request was answered successfully.
    pub fn ok(&self) -> bool {
        self.response.as_ref().is_some_and(WireResponse::is_ok)
    }
}

/// Encodes a request as one protocol line, exactly as [`Client::send`]
/// does.
pub fn frame_line(request: &WireRequest) -> String {
    let mut line = serde_json::to_string(request).expect("wire requests always serialize");
    line.push('\n');
    line
}

/// Drives one connection open-loop through `plan`, starting at `start`.
///
/// `max_outstanding` bounds the requests in flight: `usize::MAX` pipelines
/// freely; `1` waits for each answer before sending the next request (which
/// is then sent late if the answer was slow, and timed from its due time
/// all the same).  `after_answer(index, response)` runs on the driving
/// thread after each answer, before anything else is sent.  Requests not
/// answered by `give_up` after the last due time count as failed.
pub fn run_open_loop(
    addr: &str,
    plan: &[Planned],
    start: Instant,
    max_outstanding: usize,
    give_up: Duration,
    mut after_answer: impl FnMut(usize, &WireResponse),
) -> std::io::Result<Vec<Outcome>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|_| Outcome {
            lag_ms: 0.0,
            latency_ms: f64::INFINITY,
            response: None,
            frame_bytes: 0,
        })
        .collect();
    let last_due = plan.last().map_or(0.0, |p| p.due_s);
    let deadline = start + Duration::from_secs_f64(last_due) + give_up;
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut line: Vec<u8> = Vec::new();
    loop {
        let now = Instant::now();
        while next < plan.len()
            && outstanding < max_outstanding
            && start + Duration::from_secs_f64(plan[next].due_s) <= now
        {
            let mut request = plan[next].request.clone();
            request.id = Some(next as u64);
            let frame = frame_line(&request);
            let sent = Instant::now();
            writer.write_all(frame.as_bytes())?;
            let due = start + Duration::from_secs_f64(plan[next].due_s);
            outcomes[next].lag_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
            outcomes[next].frame_bytes = frame.len();
            outstanding += 1;
            next += 1;
        }
        if next == plan.len() && outstanding == 0 {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = if next < plan.len() && outstanding < max_outstanding {
            start + Duration::from_secs_f64(plan[next].due_s)
        } else {
            deadline
        };
        let wait = wake.saturating_duration_since(now);
        // Socket timeouts are coarse; the last stretch before a send is
        // slept precisely instead.
        if outstanding == 0 || wait <= SEND_MARGIN {
            std::thread::sleep(wait);
            continue;
        }
        reader
            .get_ref()
            .set_read_timeout(Some(wait - SEND_MARGIN))?;
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(_) if line.ends_with(b"\n") => {
                let done = Instant::now();
                let response: WireResponse = serde_json::from_slice(&line)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                line.clear();
                let index = response
                    .id
                    .map(|id| id as usize)
                    .filter(|&i| i < next && outcomes[i].response.is_none())
                    .ok_or_else(|| {
                        std::io::Error::new(ErrorKind::InvalidData, "answer with an unknown id")
                    })?;
                outstanding -= 1;
                if response.is_ok() {
                    let due = start + Duration::from_secs_f64(plan[index].due_s);
                    outcomes[index].latency_ms =
                        done.saturating_duration_since(due).as_secs_f64() * 1e3;
                }
                after_answer(index, &response);
                outcomes[index].response = Some(response);
            }
            // A partial line stays in `line` until the rest arrives.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(outcomes)
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    /// Requests sent.
    pub attempted: u64,
    /// Requests not answered successfully.
    pub failed: u64,
    /// Successful answers per second of the phase.
    pub answers_per_s: f64,
    /// Admission cost units finally charged to the answered requests.
    pub charged_units: u64,
}

/// Runs `connections` closed-loop clients for `duration`; `make(c, s)`
/// builds the `s`-th request of connection `c`.
pub fn run_closed_loop(
    addr: &str,
    connections: usize,
    duration: Duration,
    make: impl Fn(usize, usize) -> WireRequest + Sync,
) -> std::io::Result<ClosedLoop> {
    let start = Instant::now();
    let per_connection: Vec<std::io::Result<(u64, u64, u64)>> = std::thread::scope(|scope| {
        let make = &make;
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || -> std::io::Result<(u64, u64, u64)> {
                    let mut client = Client::connect(addr)?;
                    let (mut sent, mut ok, mut units) = (0u64, 0u64, 0u64);
                    while start.elapsed() < duration {
                        let mut request = make(c, sent as usize);
                        request.id = Some(sent);
                        sent += 1;
                        let response = client.call(&request)?;
                        if response.is_ok() {
                            ok += 1;
                            units += response.cost_units.unwrap_or(0);
                        }
                    }
                    Ok((sent, ok, units))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut result = ClosedLoop::default();
    let mut ok = 0;
    for outcome in per_connection {
        let (sent, answered, units) = outcome?;
        result.attempted += sent;
        ok += answered;
        result.charged_units += units;
    }
    result.failed = result.attempted - ok;
    result.answers_per_s = ok as f64 / elapsed;
    Ok(result)
}

/// Reads the server's `status` probe.
pub fn status(client: &mut Client) -> std::io::Result<WireResponse> {
    client.call(&WireRequest {
        target: Some("status".to_string()),
        ..WireRequest::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed() {
        let a = poisson_schedule(11, 20.0, 30.0);
        let b = poisson_schedule(11, 20.0, 30.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(12, 20.0, 30.0));
        // Increasing, inside the window, and about rate x duration long.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..30.0).contains(&t)));
        assert_eq!(a.len(), 600);
        // Gaps look exponential: their mean is about 1 / rate.
        let mean_gap = (a[599] - a[0]) / 599.0;
        assert!((0.045..0.055).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn fixed_schedule_is_evenly_spaced() {
        let s = fixed_schedule(4.0, 2.0);
        assert_eq!(
            s,
            vec![0.125, 0.375, 0.625, 0.875, 1.125, 1.375, 1.625, 1.875]
        );
    }
}
