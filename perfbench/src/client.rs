//! A minimal keep-alive HTTP/1.1 client for the daemon's loopback socket.
//!
//! One `Client` is one caller: it reuses its connection until the daemon
//! answers `Connection: close` (the keep-alive budget) and then reconnects
//! on the next request. A refused connect, a read or write error, or a
//! close before the full response counts as a dropped exchange.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one exchange may block before it counts as dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Client-side exchange counts, cross-checked against the daemon's `/stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub sent: u64,
    pub status_2xx: u64,
    pub status_4xx: u64,
    pub status_5xx: u64,
    pub dropped: u64,
}

impl Counts {
    pub fn merge(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.status_2xx += o.status_2xx;
        self.status_4xx += o.status_4xx;
        self.status_5xx += o.status_5xx;
        self.dropped += o.dropped;
    }
}

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub counts: Counts,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, buf: Vec::new(), counts: Counts::default() }
    }

    /// Sends one request and waits for its response. `Err` means the
    /// exchange was dropped; the next call reconnects.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<Reply> {
        self.counts.sent += 1;
        let out = self.exchange(method, target, headers, body);
        match &out {
            Ok(r) if r.status < 400 => self.counts.status_2xx += 1,
            Ok(r) if r.status < 500 => self.counts.status_4xx += 1,
            Ok(_) => self.counts.status_5xx += 1,
            Err(_) => {
                self.counts.dropped += 1;
                self.stream = None;
            }
        }
        out
    }

    pub fn post(&mut self, target: &str, body: &str) -> io::Result<Reply> {
        self.request("POST", target, &[], body.as_bytes())
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<Reply> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n");
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;

        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end])
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 head"))?;
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status"))?;
                let field = |name: &str| {
                    head.lines()
                        .filter_map(|l| l.split_once(':'))
                        .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
                        .map(|(_, v)| v.trim().to_owned())
                };
                let len: usize = field("content-length")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no length"))?;
                let close = field("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
                let total = end + 4 + len;
                if self.buf.len() >= total {
                    let body = self.buf[end + 4..total].to_vec();
                    self.buf.drain(..total);
                    if close {
                        self.stream = None;
                        self.buf.clear();
                    }
                    return Ok(Reply { status, body });
                }
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
