//! Incremental HTTP/1.1 request parsing for non-blocking sockets.
//!
//! Readiness delivers bytes in arbitrary fragments, so [`HttpParser`]
//! buffers them: feed what the socket had, then [`take`] either yields a
//! complete [`Request`], asks for more bytes, or fails with a
//! [`RequestError`]. How the bytes were split never changes the outcome.
//!
//! [`take`]: HttpParser::take

/// One parsed request: method, path, body, client's connection wish.
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
    /// `true` when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without requesting keep-alive).
    pub close: bool,
}

/// Why a request could not be read off the wire.
pub enum RequestError {
    /// Clean end of stream between requests (normal keep-alive end).
    Eof,
    /// The declared `Content-Length` exceeds the configured cap; nothing
    /// was allocated for it.
    TooLarge { length: usize, limit: usize },
    /// The request line or headers do not parse as HTTP.
    Malformed(&'static str),
    /// The stream ended mid-body.
    Io,
}

/// Result of one [`HttpParser::take`] attempt.
pub enum Parsed {
    /// The buffer does not hold a complete request yet; feed more bytes
    /// (never returned once EOF has been fed).
    NeedMore,
    Request(Request),
    Failed(RequestError),
}

/// Header bytes a single request may occupy before it is refused — the
/// equivalent allocation guard to the `Content-Length` cap, since a
/// readiness parser must buffer heads it has not finished parsing.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// A parsed request line and the headers read so far.
struct Head {
    method: String,
    path: String,
    content_length: usize,
    close: bool,
}

enum State {
    /// Waiting for the request line.
    Line,
    /// Request line parsed; accumulating headers.
    Headers(Head),
    /// Headers done; waiting for `content_length` body bytes.
    Body(Head),
}

pub struct HttpParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by the parser.
    pos: usize,
    /// Bytes past `pos` already scanned and known to hold no `\n`.
    scanned: usize,
    /// Head bytes of the current request consumed so far.
    head: usize,
    state: State,
    eof: bool,
}

impl Default for HttpParser {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpParser {
    pub fn new() -> Self {
        HttpParser {
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            head: 0,
            state: State::Line,
            eof: false,
        }
    }

    /// Appends bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Marks end of stream; the next [`take`] classifies any partial
    /// request instead of asking for more bytes.
    ///
    /// [`take`]: HttpParser::take
    pub fn feed_eof(&mut self) {
        self.eof = true;
    }

    /// `true` when bytes are buffered beyond the last complete request —
    /// a request is part-way through arriving (or pipelined ahead).
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len() || !matches!(self.state, State::Line)
    }

    /// Pops one full line (without its `\n`, trailing whitespace
    /// trimmed); at EOF the un-terminated remainder counts as a final
    /// line. The scan resumes where the last one stopped, so a line that
    /// arrives one byte per read costs linear time. A head that outgrows
    /// [`MAX_HEAD_BYTES`] is refused whether or not its last line is
    /// complete yet.
    fn next_line(&mut self) -> Result<Option<String>, RequestError> {
        let rest = &self.buf[self.pos..];
        let (raw_end, consume) = match rest[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(i) => (self.scanned + i, self.scanned + i + 1),
            None if self.eof => (rest.len(), rest.len()),
            None => (rest.len(), 0),
        };
        if self.head + raw_end > MAX_HEAD_BYTES {
            return Err(RequestError::Malformed("request head too large"));
        }
        if consume == 0 {
            self.scanned = rest.len();
            return Ok(None);
        }
        let mut end = raw_end;
        while end > 0 && rest[end - 1].is_ascii_whitespace() {
            end -= 1;
        }
        let line = String::from_utf8_lossy(&rest[..end]).into_owned();
        self.pos += consume;
        self.head += consume;
        self.scanned = 0;
        Ok(Some(line))
    }

    /// Drops consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 8 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Parks `state` and asks for more bytes.
    fn need_more(&mut self, state: State) -> Parsed {
        self.state = state;
        self.compact();
        Parsed::NeedMore
    }

    fn fail(&mut self, err: RequestError) -> Parsed {
        // A parse failure poisons the connection (the caller answers with
        // a final response and closes); drop the buffer.
        self.buf.clear();
        self.pos = 0;
        self.scanned = 0;
        self.head = 0;
        self.state = State::Line;
        Parsed::Failed(err)
    }

    /// Attempts to produce one request from the buffered bytes.
    pub fn take(&mut self, max_body: usize) -> Parsed {
        loop {
            match std::mem::replace(&mut self.state, State::Line) {
                State::Line => {
                    let line = match self.next_line() {
                        Ok(Some(line)) => line,
                        // With EOF fed, `next_line` already surrendered
                        // any partial remainder: a clean close.
                        Ok(None) if self.eof => return Parsed::Failed(RequestError::Eof),
                        Ok(None) => return self.need_more(State::Line),
                        Err(e) => return self.fail(e),
                    };
                    match parse_request_line(&line) {
                        Ok(head) => self.state = State::Headers(head),
                        Err(e) => return self.fail(e),
                    }
                }
                State::Headers(mut head) => {
                    let line = match self.next_line() {
                        Ok(Some(line)) => line,
                        Ok(None) if self.eof => {
                            return self.fail(RequestError::Malformed("headers truncated"))
                        }
                        Ok(None) => return self.need_more(State::Headers(head)),
                        Err(e) => return self.fail(e),
                    };
                    if !line.is_empty() {
                        if let Err(e) = parse_header(&line, &mut head) {
                            return self.fail(e);
                        }
                        self.state = State::Headers(head);
                    } else if head.content_length > max_body {
                        // Refuse attacker-controlled allocations: check the
                        // declared length against the cap before reserving
                        // a single byte for the body.
                        return self.fail(RequestError::TooLarge {
                            length: head.content_length,
                            limit: max_body,
                        });
                    } else {
                        self.state = State::Body(head);
                    }
                }
                State::Body(head) => {
                    let end = self.pos + head.content_length;
                    if self.buf.len() < end {
                        if self.eof {
                            // A transport error, not a 400.
                            return self.fail(RequestError::Io);
                        }
                        return self.need_more(State::Body(head));
                    }
                    let body = String::from_utf8_lossy(&self.buf[self.pos..end]).into_owned();
                    self.pos = end;
                    self.head = 0;
                    self.compact();
                    let Head {
                        method,
                        path,
                        close,
                        ..
                    } = head;
                    return Parsed::Request(Request {
                        method,
                        path,
                        body,
                        close,
                    });
                }
            }
        }
    }
}

fn parse_request_line(line: &str) -> Result<Head, RequestError> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Malformed(
            "request line needs `METHOD PATH HTTP/x.y`",
        ));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/") {
        return Err(RequestError::Malformed(
            "request line needs `METHOD PATH HTTP/x.y`",
        ));
    }
    if !path.starts_with('/') {
        return Err(RequestError::Malformed("path must start with `/`"));
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        content_length: 0,
        close: version == "HTTP/1.0",
    })
}

fn parse_header(line: &str, head: &mut Head) -> Result<(), RequestError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(RequestError::Malformed("header without `:`"));
    };
    let value = value.trim();
    if name.eq_ignore_ascii_case("content-length") {
        head.content_length = value
            .parse()
            .map_err(|_| RequestError::Malformed("unparseable Content-Length"))?;
    } else if name.eq_ignore_ascii_case("connection") {
        if value.eq_ignore_ascii_case("close") {
            head.close = true;
        } else if value.eq_ignore_ascii_case("keep-alive") {
            head.close = false;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn take_all(text: &str, max_body: usize) -> Parsed {
        let mut p = HttpParser::new();
        p.feed(text.as_bytes());
        p.feed_eof();
        p.take(max_body)
    }

    #[test]
    fn byte_at_a_time_arrival_still_parses() {
        let raw = "POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let mut p = HttpParser::new();
        for b in raw.as_bytes() {
            match p.take(1024) {
                Parsed::NeedMore => {}
                _ => panic!("complete before all bytes arrived"),
            }
            p.feed(std::slice::from_ref(b));
        }
        match p.take(1024) {
            Parsed::Request(r) => {
                assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/predict"));
                assert_eq!(r.body, "abcd");
                assert!(!r.close);
            }
            _ => panic!("expected a complete request"),
        }
        assert!(!p.has_partial());
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let mut p = HttpParser::new();
        p.feed(b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n");
        let Parsed::Request(first) = p.take(1024) else {
            panic!("first request");
        };
        assert_eq!(first.path, "/healthz");
        assert!(p.has_partial());
        let Parsed::Request(second) = p.take(1024) else {
            panic!("second request");
        };
        assert_eq!(second.path, "/metrics");
        assert!(!p.has_partial());
        assert!(matches!(p.take(1024), Parsed::NeedMore));
    }

    #[test]
    fn eof_classification_matches_the_blocking_reader() {
        // Clean EOF between requests.
        assert!(matches!(
            take_all("", 1024),
            Parsed::Failed(RequestError::Eof)
        ));
        // EOF mid-headers: 400 material, not a clean close.
        for raw in ["GET /x HTTP/1.1\r\n", "GET /x HTTP/1.1\r\nA: b\r\n"] {
            assert!(
                matches!(
                    take_all(raw, 1024),
                    Parsed::Failed(RequestError::Malformed("headers truncated"))
                ),
                "eof mid-head misclassified for {raw:?}"
            );
        }
        // A request line cut short by EOF parses as a final short line.
        assert!(matches!(
            take_all("GET /x", 1024),
            Parsed::Failed(RequestError::Malformed(
                "request line needs `METHOD PATH HTTP/x.y`"
            ))
        ));
        // EOF mid-body: transport error, not a 400.
        assert!(matches!(
            take_all("POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", 1024),
            Parsed::Failed(RequestError::Io)
        ));
    }

    #[test]
    fn oversized_declared_bodies_are_refused_before_arrival() {
        let mut p = HttpParser::new();
        p.feed(b"POST /p HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
        // No body bytes arrived at all — the declared length is enough.
        match p.take(256) {
            Parsed::Failed(RequestError::TooLarge { length, limit }) => {
                assert_eq!((length, limit), (4096, 256));
            }
            _ => panic!("expected TooLarge"),
        }
    }

    #[test]
    fn unbounded_heads_are_refused() {
        let mut p = HttpParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_HEAD_BYTES + 1024];
        p.feed(&filler); // one endless header line, no newline in sight
        assert!(matches!(
            p.take(1024),
            Parsed::Failed(RequestError::Malformed("request head too large"))
        ));
    }

    /// The requests a stream yields and how it ends, fed one-shot
    /// (`cuts` empty) or piece by piece between the `cuts` offsets.
    fn outcome(stream: &[u8], cuts: &[usize], max_body: usize) -> (Vec<String>, String) {
        let mut p = HttpParser::new();
        let mut requests = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&stream.len()]) {
            p.feed(&stream[from..to]);
            from = to;
            if to == stream.len() {
                p.feed_eof();
            }
            loop {
                match p.take(max_body) {
                    Parsed::NeedMore => break,
                    Parsed::Request(r) => {
                        requests.push(format!("{} {} {:?} {}", r.method, r.path, r.body, r.close))
                    }
                    Parsed::Failed(e) => {
                        let end = match e {
                            RequestError::Eof => "eof".to_string(),
                            RequestError::Io => "io".to_string(),
                            RequestError::TooLarge { length, limit } => {
                                format!("too large {length} {limit}")
                            }
                            RequestError::Malformed(why) => format!("malformed: {why}"),
                        };
                        return (requests, end);
                    }
                }
            }
        }
        unreachable!("an EOF-fed parser always resolves")
    }

    /// A random stream: a few pipelined requests, then maybe a broken
    /// tail — truncated, garbage, an oversized body, or a head near,
    /// at or past `MAX_HEAD_BYTES` in one line or in many.
    fn arb_stream(rng: &mut StdRng) -> Vec<u8> {
        let request = |rng: &mut StdRng| {
            let body = "b".repeat(rng.gen_range(0..40));
            let version = ["HTTP/1.1", "HTTP/1.0"][rng.gen_range(0..2)];
            let conn = ["", "Connection: close\r\n", "connection: Keep-Alive\r\n"];
            format!(
                "POST /p{} {version}\r\nHost: t \r\n{}Content-Length: {}\r\n\r\n{body}",
                rng.gen_range(0..9),
                conn[rng.gen_range(0..3)],
                body.len()
            )
        };
        let mut s = String::new();
        for _ in 0..rng.gen_range(0..4) {
            s += &request(rng);
        }
        match rng.gen_range(0..8) {
            0 => {
                let r = request(rng);
                s += &r[..rng.gen_range(0..r.len())];
            }
            1 => {
                s += [
                    "garbage\r\n\r\n",
                    "GET x HTTP/1.1\r\n\r\n",
                    "GET / HTTP/1.1\nnope\n\n",
                ][rng.gen_range(0..3)]
            }
            2 => s += "POST /big HTTP/1.1\r\nContent-Length: 99999\r\n\r\nxyz",
            3 => {
                let pad = MAX_HEAD_BYTES - 40 + rng.gen_range(0..60);
                s += &format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(pad));
            }
            4 => {
                s += "GET / HTTP/1.1\r\n";
                for _ in 0..rng.gen_range(60..70) {
                    s += &format!("X: {}\r\n", "a".repeat(1000));
                }
                s += "\r\n";
            }
            _ => {}
        }
        s.into_bytes()
    }

    #[test]
    fn any_split_of_any_stream_parses_like_one_shot() {
        let mut rng = StdRng::seed_from_u64(0x5eed_4e77);
        let mut ends = std::collections::BTreeSet::new();
        for case in 0..400 {
            let stream = arb_stream(&mut rng);
            let whole = outcome(&stream, &[], 64);
            let mut cuts: Vec<usize> = if stream.len() < 400 && case % 4 == 0 {
                (1..stream.len()).collect() // one byte per read
            } else {
                let n = rng.gen_range(1..40);
                (0..n).map(|_| rng.gen_range(0..stream.len() + 1)).collect()
            };
            cuts.sort_unstable();
            assert_eq!(
                outcome(&stream, &cuts, 64),
                whole,
                "case {case}, cuts {cuts:?}"
            );
            ends.insert(whole.1);
        }
        // Every class of ending was reached.
        for end in [
            "eof",
            "io",
            "too large 99999 64",
            "malformed: request head too large",
        ] {
            assert!(ends.contains(end), "{end} never reached: {ends:?}");
        }
        assert!(ends.len() >= 7, "{ends:?}");
    }
}
