//! The load generator's HTTP/1.1 client.
//!
//! Every request leaves in a single `write` on a socket with
//! `TCP_NODELAY` set, so the client never waits on its own Nagle
//! buffer or provokes a delayed ACK from the server: any 40 ms stall a
//! measurement shows is on the server's side of the connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request, with its timing from just before the write.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    /// The body, de-chunked.
    pub body: Vec<u8>,
    /// Until the first response byte arrived.
    pub ttfb: Duration,
    /// Until the last response byte arrived.
    pub total: Duration,
}

impl Response {
    /// A header's value (case-insensitive name), or "".
    pub fn header(&self, name: &str) -> &str {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map_or("", |(_, v)| v.as_str())
    }
}

/// A keep-alive connection that reconnects when the server closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Send one request and read its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let result = self.round_trip(&wire);
        if !matches!(&result, Ok(r) if !r.header("Connection").eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        result
    }

    fn round_trip(&mut self, wire: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        let start = Instant::now();
        stream.write_all(wire)?;
        let mut ttfb = None;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, headers, body, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                let total = start.elapsed();
                return Ok(Response {
                    status,
                    headers,
                    body,
                    ttfb: ttfb.unwrap_or(total),
                    total,
                });
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            ttfb.get_or_insert_with(|| start.elapsed());
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

type Parsed = (u16, Vec<(String, String)>, Vec<u8>, usize);

/// Parse one complete response off the front of `buf`: `None` while
/// more bytes are needed, with the bytes it used when complete.
fn parse_response(buf: &[u8]) -> io::Result<Option<Parsed>> {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let get = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    let mut at = head_end + 4;
    if get("Transfer-Encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let mut body = Vec::new();
        loop {
            let Some(line_end) = find(&buf[at..], b"\r\n") else {
                return Ok(None);
            };
            let size_text = std::str::from_utf8(&buf[at..at + line_end])
                .map_err(|_| malformed("bad chunk size"))?;
            let size = usize::from_str_radix(size_text.trim(), 16)
                .map_err(|_| malformed("bad chunk size"))?;
            let data = at + line_end + 2;
            if buf.len() < data + size + 2 {
                return Ok(None);
            }
            if size == 0 {
                return Ok(Some((status, headers, body, data + 2)));
            }
            body.extend_from_slice(&buf[data..data + size]);
            at = data + size + 2;
        }
    }
    let len = match get("Content-Length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| malformed("bad Content-Length"))?,
        None => 0,
    };
    if buf.len() < at + len {
        return Ok(None);
    }
    let body = buf[at..at + len].to_vec();
    Ok(Some((status, headers, body, at + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_fixed_and_chunked_bodies_incrementally() {
        let fixed = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello";
        for cut in 0..fixed.len() {
            assert!(parse_response(&fixed[..cut]).unwrap().is_none());
        }
        let (status, headers, body, used) = parse_response(fixed).unwrap().unwrap();
        assert_eq!(
            (status, body.as_slice(), used),
            (200, &b"hello"[..], fixed.len())
        );
        assert_eq!(headers[1], ("X-A".to_string(), "b".to_string()));

        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\nNEXT";
        let end = chunked.len() - 4;
        for cut in 0..end {
            assert!(parse_response(&chunked[..cut]).unwrap().is_none());
        }
        let (_, _, body, used) = parse_response(chunked).unwrap().unwrap();
        assert_eq!((body.as_slice(), used), (&b"abcde"[..], end));
    }

    /// Against a responder that answers in one write, a keep-alive
    /// round trip finishes far inside the 40 ms delayed-ACK window, so
    /// the client adds no Nagle stall of its own.
    #[test]
    fn round_trip_to_a_one_write_responder_is_far_below_delayed_ack() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const TRIPS: usize = 40;
        let responder = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for _ in 0..TRIPS {
                // Read one request: head plus its Content-Length body.
                loop {
                    if let Some(end) = find(&buf, b"\r\n\r\n") {
                        let head = std::str::from_utf8(&buf[..end])
                            .unwrap()
                            .to_ascii_lowercase();
                        let len: usize = head
                            .lines()
                            .find_map(|l| l.strip_prefix("content-length:"))
                            .map_or(0, |v| v.trim().parse().unwrap());
                        if buf.len() >= end + 4 + len {
                            buf.drain(..end + 4 + len);
                            break;
                        }
                    }
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        let mut client = Client::new(addr);
        let body = vec![b'x'; 300];
        let mut ms: Vec<f64> = (0..TRIPS)
            .map(|_| {
                let r = client.request("POST", "/run", &body).unwrap();
                assert_eq!((r.status, r.body.as_slice()), (200, &b"ok"[..]));
                r.total.as_secs_f64() * 1e3
            })
            .collect();
        responder.join().unwrap();
        ms.sort_by(f64::total_cmp);
        let p50 = ms[TRIPS / 2];
        assert!(
            p50 < 5.0,
            "median round trip {p50:.2} ms is not far below 40 ms"
        );
    }
}
