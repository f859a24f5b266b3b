//! A minimal HTTP/1.1 keep-alive client for the closed-loop load: one
//! connection, `Content-Length` framing, reconnect when the server closes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response off the wire.
pub struct Response {
    pub status: u16,
    pub body: String,
}

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened (the first one included).
    pub connects: u64,
}

/// Full request bytes for `method path` with `body`.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
            connects: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.buf.clear();
            self.connects += 1;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends pre-rendered request bytes and reads one response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        let out = self.exchange(request);
        if out.is_err() {
            self.stream = None;
        }
        out
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream()?.write_all(request)?;
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head".into()))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad length".into()))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + length {
            self.fill(&mut chunk)?;
        }
        let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
            .map_err(|_| bad("non-UTF-8 body".into()))?;
        self.buf.drain(..head_end + length);
        if close {
            self.stream = None;
        }
        Ok(Response { status, body })
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let n = self.stream()?.read(chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// The `cores` values of a `/predict` or `/predict/batch` reply, in order.
pub fn cores_in(body: &str) -> Vec<usize> {
    body.match_indices("\"cores\":")
        .filter_map(|(i, key)| {
            let rest = body[i + key.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_are_read_in_order() {
        let body = r#"{"count":2,"results":[{"cores":3,"class":2},{"cores": 8,"class":7}]}"#;
        assert_eq!(cores_in(body), vec![3, 8]);
        assert!(cores_in("{}").is_empty());
    }
}
