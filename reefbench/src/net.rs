//! The load generator's network side: raw v2 connections to the daemons,
//! all driven from the calling thread by one epoll set.
//!
//! `reef_wire::Client` spawns a reader thread per connection; the
//! generator is held to `nproc` threads in total, so it speaks the
//! protocol itself with the crate's own `Frame`/`FrameDecoder`/
//! `BinaryCodec` over nonblocking sockets instead. A timerfd in the same
//! epoll set wakes the loop at the next due time with sub-millisecond
//! precision, which `epoll_wait`'s millisecond timeout cannot give.

use reef_pubsub::PublishedEvent;
use reef_wire::codec::BinaryCodec;
use reef_wire::poll::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use reef_wire::{ClientFrame, FeedChange, FrameDecoder, Request, Response, ServerFrame, WireCodec};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::time::{Duration, Instant};

/// How long a blocking set-up request may wait for its reply.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// The loop sleeps until this long before a due time, then polls without
/// blocking until the time comes: a timer wake-up alone runs tens of µs
/// late, and every µs of lateness is charged to the operation.
const SPIN: Duration = Duration::from_micros(150);

/// Token of the timerfd in the epoll set; connections use their index.
const TIMER_TOKEN: u64 = u64::MAX;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct ITimerSpec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const ITimerSpec,
        old_value: *mut ITimerSpec,
    ) -> c_int;
}

const CLOCK_MONOTONIC: c_int = 1;
const TFD_NONBLOCK: c_int = 0o4000;
const TFD_CLOEXEC: c_int = 0o2000000;

/// A one-shot monotonic timer readable through epoll.
struct Timer {
    file: File,
}

impl Timer {
    fn new() -> io::Result<Timer> {
        // SAFETY: timerfd_create takes no pointers; a negative return is
        // an error and anything else is a fresh descriptor we own.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by timerfd_create and nothing
        // else owns it; the File closes it on drop.
        Ok(Timer {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// Fire once after `after` (a zero duration fires as soon as possible).
    fn arm(&self, after: Duration) -> io::Result<()> {
        let after = after.max(Duration::from_nanos(1));
        let spec = ITimerSpec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: `spec` is a valid itimerspec that outlives the call and
        // a null old_value is allowed.
        let rc = unsafe { timerfd_settime(self.file.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

/// A delivery as it reached the generator.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// When the read that carried it returned.
    pub at: Instant,
    /// When its frame started decoding.
    pub decode_start: Instant,
    /// When its frame finished decoding.
    pub decoded: Instant,
    /// The delivered event.
    pub event: PublishedEvent,
}

/// Timing of one request as it left the generator.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Correlation id the reply will carry.
    pub corr: u64,
    /// Before encoding started.
    pub start: Instant,
    /// After the frame was encoded.
    pub encoded: Instant,
    /// After the socket write returned.
    pub written: Instant,
}

/// One raw v2 connection.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    next_corr: u64,
    interest: u32,
    /// Replies by correlation id, with their arrival time.
    pub replies: HashMap<u64, (Instant, Response)>,
    /// Deliveries in arrival order.
    pub deliveries: VecDeque<Arrival>,
    /// Autosub feed-change notices in arrival order.
    pub feed_changes: VecDeque<(Instant, FeedChange)>,
}

/// Every connection of one workload plus the epoll set and timer that
/// drive them.
pub struct Net {
    epoll: Epoll,
    timer: Timer,
    events: Vec<EpollEvent>,
    conns: Vec<Conn>,
    buf: Vec<u8>,
}

impl Net {
    /// An empty set.
    pub fn new() -> io::Result<Net> {
        let epoll = Epoll::new()?;
        let timer = Timer::new()?;
        epoll.add(timer.file.as_raw_fd(), EPOLLIN, TIMER_TOKEN)?;
        Ok(Net {
            epoll,
            timer,
            events: vec![EpollEvent::default(); 16],
            conns: Vec::new(),
            buf: vec![0; 256 * 1024],
        })
    }

    /// Connect to `addr` and complete the v2 `Hello`; returns the
    /// connection's index.
    pub fn connect(&mut self, addr: SocketAddr, name: &str) -> io::Result<usize> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let index = self.conns.len();
        self.epoll.add(stream.as_raw_fd(), EPOLLIN, index as u64)?;
        self.conns.push(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            next_corr: 1,
            interest: EPOLLIN,
            replies: HashMap::new(),
            deliveries: VecDeque::new(),
            feed_changes: VecDeque::new(),
        });
        let hello = self.call(
            index,
            Request::Hello {
                version: BinaryCodec.version(),
                client: name.to_owned(),
            },
        )?;
        match hello {
            Response::Hello { .. } => Ok(index),
            other => Err(io::Error::other(format!(
                "unexpected Hello reply: {other:?}"
            ))),
        }
    }

    /// Connection `index`.
    pub fn conn(&mut self, index: usize) -> &mut Conn {
        &mut self.conns[index]
    }

    /// Encode `request` onto connection `index` and write as much as the
    /// socket takes; the rest goes out as the socket drains.
    pub fn send(&mut self, index: usize, request: Request) -> io::Result<Sent> {
        let conn = &mut self.conns[index];
        let corr = conn.next_corr;
        conn.next_corr += 1;
        let start = Instant::now();
        let frame = BinaryCodec
            .encode_client(&ClientFrame { corr, request })
            .map_err(|e| io::Error::other(e.to_string()))?;
        let encoded = Instant::now();
        frame
            .write_to(&mut conn.out)
            .map_err(|e| io::Error::other(e.to_string()))?;
        conn.flush()?;
        let written = Instant::now();
        self.update_interest(index)?;
        Ok(Sent {
            corr,
            start,
            encoded,
            written,
        })
    }

    /// Send `request` and wait for its reply (set-up path; deliveries and
    /// notices that arrive meanwhile are queued as usual).
    pub fn call(&mut self, index: usize, request: Request) -> io::Result<Response> {
        let corr = self.send(index, request)?.corr;
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            if let Some((_, response)) = self.conns[index].replies.remove(&corr) {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no reply within the call timeout",
                ));
            }
            self.poll(Some(deadline))?;
        }
    }

    /// Wait until a socket is ready or `deadline` passes, then read and
    /// write everything that is ready.
    pub fn poll(&mut self, deadline: Option<Instant>) -> io::Result<()> {
        let timeout_ms = match deadline {
            Some(deadline) => {
                self.timer
                    .arm(deadline.saturating_duration_since(Instant::now()))?;
                -1
            }
            None => 0,
        };
        let n = self.epoll.wait(&mut self.events, timeout_ms)?;
        for i in 0..n {
            let (token, ready) = (self.events[i].data(), self.events[i].readiness());
            if token == TIMER_TOKEN {
                self.timer.drain();
                continue;
            }
            let index = token as usize;
            if ready & EPOLLOUT != 0 {
                self.conns[index].flush()?;
                self.update_interest(index)?;
            }
            if ready & !EPOLLOUT != 0 {
                self.conns[index].read_ready(&mut self.buf)?;
            }
        }
        Ok(())
    }

    /// Like [`Net::poll`], for a loop that must act at `due`: sleeps
    /// until just before it, then returns without blocking so the caller
    /// can spin the last stretch.
    pub fn poll_before(&mut self, due: Instant) -> io::Result<()> {
        match due.checked_sub(SPIN) {
            Some(wake) if wake > Instant::now() => self.poll(Some(wake)),
            _ => self.poll(None),
        }
    }

    fn update_interest(&mut self, index: usize) -> io::Result<()> {
        let conn = &mut self.conns[index];
        let want = if conn.out.is_empty() {
            EPOLLIN
        } else {
            EPOLLIN | EPOLLOUT
        };
        if want != conn.interest {
            self.epoll
                .modify(conn.stream.as_raw_fd(), want, index as u64)?;
            conn.interest = want;
        }
        Ok(())
    }
}

impl Conn {
    fn flush(&mut self) -> io::Result<()> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..written);
        Ok(())
    }

    fn read_ready(&mut self, buf: &mut [u8]) -> io::Result<()> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Ok(n) => {
                    let at = Instant::now();
                    self.decoder.extend(&buf[..n]);
                    self.decode_all(at)?;
                    if n < buf.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn decode_all(&mut self, at: Instant) -> io::Result<()> {
        let bad =
            |e: reef_wire::WireError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        loop {
            let decode_start = Instant::now();
            let Some(frame) = self.decoder.next_frame().map_err(bad)? else {
                return Ok(());
            };
            match BinaryCodec.decode_server(&frame).map_err(bad)? {
                ServerFrame::Reply { corr, response } => {
                    self.replies.insert(corr, (at, response));
                }
                ServerFrame::Deliver(deliver) => self.deliveries.push_back(Arrival {
                    at,
                    decode_start,
                    decoded: Instant::now(),
                    event: deliver.event,
                }),
                ServerFrame::FeedChanged(change) => self.feed_changes.push_back((at, change)),
            }
        }
    }
}
