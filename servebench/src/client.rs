//! The open-loop TCP client. Each connection thread sends its events at
//! their due times whatever the server's pace, and every timestamp is
//! kept, so latency is measured from the due time (a stall charges every
//! event queued behind it) and the sender's own lateness is visible.
//! Replies are read in full; community lines are hashed for checking,
//! which happens after the run.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::inputs::{Event, Kind};
use crate::reference::{Answer, LineHash};

/// How an event ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// Not started: the saturate phase ended first.
    NotSent,
    Ok,
    /// The server answered `ERR` (the line is kept).
    Err(String),
    /// The connection failed.
    Io,
}

/// One event's timestamps (ns since the run's origin) and answers.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub due: u64,
    /// First byte of the first step written.
    pub sent: u64,
    /// Sessions: the `NEXT 1` reply read; other events: `done`.
    pub first: u64,
    /// Update events: the `COMMIT` line written.
    pub commit_sent: u64,
    /// Last reply read.
    pub done: u64,
    pub status: Status,
    /// `QUERY`: one; `BATCH`: one per slot; session: the whole stream.
    pub answers: Vec<Answer>,
    /// `BATCH` slots that answered `ERR`.
    pub slot_errors: u32,
    /// Update events: the generation the `COMMIT` acknowledged.
    pub generation: u64,
    /// Reply bytes read.
    pub bytes: u64,
}

impl Outcome {
    fn pending(due: u64) -> Outcome {
        Outcome {
            due,
            sent: 0,
            first: 0,
            commit_sent: 0,
            done: 0,
            status: Status::NotSent,
            answers: Vec::new(),
            slot_errors: 0,
            generation: 0,
            bytes: 0,
        }
    }

    pub fn ok(&self) -> bool {
        self.status == Status::Ok && self.slot_errors == 0
    }

    pub fn attempted(&self) -> bool {
        self.status != Status::NotSent
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// Verbs whose `OK` reply continues until an `END` line.
fn multiline(verb: &str) -> bool {
    matches!(
        verb,
        "QUERY" | "BATCH" | "NEXT" | "STATS" | "METRICS" | "GRAPHS" | "SLOWLOG"
    )
}

impl Conn {
    /// Connects and consumes the banner.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        };
        conn.read_line()?;
        Ok(conn)
    }

    fn read_line(&mut self) -> io::Result<usize> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = self.line.trim_end().len();
        self.line.truncate(trimmed);
        Ok(n)
    }

    /// Sends one line and reads its whole reply. `C` lines go into the
    /// last hash of `slots`; each `R <i> OK` line of a `BATCH` opens a new
    /// slot. Returns the first reply line, bytes read and `ERR` slots.
    pub fn exchange(
        &mut self,
        request: &str,
        slots: &mut Vec<LineHash>,
    ) -> io::Result<(String, u64, u32)> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.extend_from_slice(request.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut bytes = self.read_line()? as u64;
        let first = self.line.clone();
        let verb = request.split_ascii_whitespace().next().unwrap_or("");
        let mut slot_errors = 0;
        if first.starts_with("OK") && multiline(verb) {
            loop {
                bytes += self.read_line()? as u64;
                let line = self.line.as_str();
                if line == "END" {
                    break;
                }
                if line.starts_with("C ") {
                    if slots.is_empty() {
                        slots.push(LineHash::default());
                    }
                    if let Some(slot) = slots.last_mut() {
                        slot.push(line);
                    }
                } else if line.starts_with("R ") {
                    slots.push(LineHash::default());
                    if line.split_ascii_whitespace().nth(2) != Some("OK") {
                        slot_errors += 1;
                    }
                }
            }
        }
        Ok((first, bytes, slot_errors))
    }

    /// A request whose reply must be `OK`; the first line is returned.
    pub fn ok(&mut self, request: &str) -> io::Result<String> {
        let (first, _, _) = self.exchange(request, &mut Vec::new())?;
        if first.starts_with("OK") {
            Ok(first)
        } else {
            Err(io::Error::other(format!("{request:?} answered {first:?}")))
        }
    }

    /// A multi-line request's full reply, for counter scrapes.
    pub fn text(&mut self, request: &str) -> io::Result<Vec<String>> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            self.read_line()?;
            if self.line == "END" {
                return Ok(lines);
            }
            let err = self.line.starts_with("ERR");
            lines.push(self.line.clone());
            if err {
                return Ok(lines);
            }
        }
    }
}

/// Value of `key=` in a reply line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn run_event(conn: &mut Conn, ev: &Event, out: &mut Outcome, origin: Instant) -> io::Result<()> {
    let mut session = String::new();
    let mut slots: Vec<LineHash> = Vec::new();
    out.sent = ns_since(origin);
    for (i, step) in ev.steps.iter().enumerate() {
        let line = if step.contains("$S") {
            step.replace("$S", &session)
        } else {
            step.clone()
        };
        let verb = line.split_ascii_whitespace().next().unwrap_or("");
        if verb == "COMMIT" {
            out.commit_sent = ns_since(origin);
        }
        if (verb == "QUERY" || verb == "NEXT") && slots.is_empty() {
            slots.push(LineHash::default());
        }
        let (first, bytes, slot_errors) = conn.exchange(&line, &mut slots)?;
        out.bytes += bytes;
        out.slot_errors += slot_errors;
        if !first.starts_with("OK") {
            out.status = Status::Err(first);
            out.done = ns_since(origin);
            return Ok(());
        }
        match verb {
            "OPEN" => session = field(&first, "session").unwrap_or("").to_string(),
            "NEXT" if i == 1 => out.first = ns_since(origin),
            "COMMIT" => {
                out.generation = field(&first, "generation")
                    .and_then(|g| g.parse().ok())
                    .unwrap_or(0)
            }
            _ => {}
        }
    }
    out.done = ns_since(origin);
    if ev.kind != Kind::Session {
        out.first = out.done;
    }
    out.answers = slots
        .iter()
        .map(|s| Answer {
            count: s.lines(),
            hash: s.finish(),
        })
        .collect();
    out.status = Status::Ok;
    Ok(())
}

/// What one phase produced.
pub struct PhaseRun {
    pub outcomes: Vec<Outcome>,
    /// Phase start, ns since the origin (due times count from here).
    pub start: u64,
    /// Last reply read, ns since the origin.
    pub end: u64,
    /// Most threads the server process had at any sample.
    pub threads_peak: u64,
}

/// Runs `events` open-loop over `conns` connections. Update events all
/// go to connection 0, in order, so each graph's updates and commits
/// apply exactly in generation order; the rest are dealt round-robin.
/// With `stop_after`, no event starts after that long into the phase.
pub fn run_phase(
    addr: &str,
    events: &[Event],
    conns: usize,
    origin: Instant,
    stop_after: Option<Duration>,
    server_pid: u32,
) -> io::Result<PhaseRun> {
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); conns];
    let mut rr = 0;
    for (i, e) in events.iter().enumerate() {
        let c = if e.kind == Kind::Update {
            0
        } else {
            rr += 1;
            (rr - 1) % conns
        };
        lanes[c].push(i);
    }
    let mut connections = Vec::with_capacity(conns);
    for _ in 0..conns {
        connections.push(Conn::connect(addr)?);
    }
    // a short runway so every thread is parked on its first due time
    let t0 = Instant::now() + Duration::from_millis(20);
    let start = t0.duration_since(origin).as_nanos() as u64;
    let mut results: Vec<(Vec<(usize, Outcome)>, u64)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = connections
            .into_iter()
            .zip(&lanes)
            .enumerate()
            .map(|(c, (conn, lane))| {
                s.spawn(move || {
                    drive(
                        addr,
                        conn,
                        events,
                        lane,
                        t0,
                        start,
                        origin,
                        stop_after,
                        (c == 0).then_some(server_pid),
                    )
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("client thread"));
        }
    });
    let mut outcomes: Vec<Outcome> = events
        .iter()
        .map(|e| Outcome::pending(start + e.due_us * 1000))
        .collect();
    let mut threads_peak = 0;
    for (list, peak) in results {
        threads_peak = threads_peak.max(peak);
        for (i, o) in list {
            outcomes[i] = o;
        }
    }
    let end = outcomes
        .iter()
        .map(|o| o.done)
        .max()
        .unwrap_or(start)
        .max(start);
    Ok(PhaseRun {
        outcomes,
        start,
        end,
        threads_peak,
    })
}

/// Sleeps until shortly before `deadline`, then spins, so an event is
/// sent on time rather than a timer wake-up late.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        }
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    addr: &str,
    conn: Conn,
    events: &[Event],
    lane: &[usize],
    t0: Instant,
    start: u64,
    origin: Instant,
    stop_after: Option<Duration>,
    sample_pid: Option<u32>,
) -> (Vec<(usize, Outcome)>, u64) {
    let mut conn = Some(conn);
    let mut out = Vec::with_capacity(lane.len());
    let mut peak = 0;
    let mut last_sample: Option<Instant> = None;
    for &i in lane {
        let ev = &events[i];
        let due = t0 + Duration::from_micros(ev.due_us);
        if let Some(stop) = stop_after {
            if Instant::now() >= t0 + stop {
                break;
            }
        }
        if let Some(pid) = sample_pid {
            if last_sample.is_none_or(|t| t.elapsed() >= Duration::from_millis(20)) {
                peak = peak.max(crate::server::proc_status(pid, "Threads").unwrap_or(0));
                last_sample = Some(Instant::now());
            }
        }
        wait_until(due);
        let mut o = Outcome::pending(start + ev.due_us * 1000);
        if conn.is_none() {
            conn = Conn::connect(addr).ok();
        }
        match conn.as_mut() {
            Some(c) => {
                if run_event(c, ev, &mut o, origin).is_err() {
                    o.status = Status::Io;
                    o.done = ns_since(origin);
                    conn = None;
                }
            }
            None => {
                o.status = Status::Io;
                o.sent = ns_since(origin);
                o.done = o.sent;
            }
        }
        out.push((i, o));
    }
    (out, peak)
}
