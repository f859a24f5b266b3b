//! The socket-free connection core of the serve event loop.
//!
//! [`ConnCore`] owns every connection's life cycle and performs no I/O.
//! The event loop reports what happened — a connection was accepted
//! ([`ConnCore::accept`]), a drain started ([`ConnCore::drain`]), or an
//! [`Input`] arrived on one connection — and then carries out, in order,
//! the [`Action`]s the core queued. The core owns the phase, the slab with
//! its generation tokens, the bounded active set, deadlines, the
//! keep-alive cap, shedding and drain.
//!
//! Deadlines are cancelled lazily: the connection's own deadline is
//! authoritative, so clearing one needs no action, and a timer that fires
//! for a deadline the connection no longer holds is ignored.

use super::{render_response, ServeOptions};
use crate::net::{HttpParser, Interest, Parsed, Request, RequestError};
use std::collections::VecDeque;

/// Where a connection is in its life cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Accumulating request bytes; holds a slot and a deadline.
    Reading,
    /// The request is with the worker pool; interest is muted so a
    /// pipelining peer cannot spin the event loop.
    Dispatched,
    /// Flushing a response; holds a deadline.
    Writing,
    /// Parked keep-alive connection between requests: no slot, no deadline.
    Idle,
}

/// What happened on one connection.
pub(super) enum Input<'a, M> {
    /// Bytes read off the socket.
    Read(&'a [u8]),
    /// The peer closed its sending side.
    Eof,
    /// The socket failed mid-read.
    ReadError,
    /// The socket took this many bytes of [`ConnCore::pending`].
    Wrote(usize),
    /// The socket's send buffer is full.
    WouldBlock,
    /// The socket failed mid-write.
    WriteError,
    /// A worker finished the dispatched request: the response's bytes,
    /// whether the connection stays open after them, and its trace.
    Completed { bytes: Vec<u8>, keep: bool, meta: M },
    /// The timer armed for this deadline (ms) fired.
    Timer(u64),
}

/// One parsed request on its way to a worker.
pub(super) struct Job {
    pub token: u64,
    pub req: Request,
    /// First byte of the request (accept time on a fresh connection), µs
    /// on the core's clock: the `read` span runs from here to dispatch.
    pub started_us: u64,
    /// 1-based request ordinal on its connection.
    pub index: usize,
    /// The keep-alive cap and the client let the connection stay open.
    pub keep: bool,
}

/// What the event loop must do next.
pub(super) enum Action<M> {
    /// Hand the job to the worker pool.
    Dispatch(Job),
    /// Write [`ConnCore::pending`] and report the outcome.
    Send(u64),
    /// Change the socket's readiness interest.
    Interest(u64, Interest),
    /// Schedule a timer for the token at this deadline (ms).
    Arm(u64, u64),
    /// A routed response is over, flushed or not: record its trace.
    Finish(M),
    /// Deregister and drop the socket; the token is dead.
    Close(u64),
    /// Count a connection shed with 503.
    Shed,
    /// Count a `read` or `write` deadline that fired.
    TimedOut(&'static str),
}

struct Conn<M> {
    phase: Phase,
    parser: HttpParser,
    /// The readiness interest last asked of the event loop.
    interest: Interest,
    /// Requests dispatched on this connection so far.
    served: usize,
    /// First byte of the current request, µs on the caller's clock.
    started_us: u64,
    /// Authoritative armed deadline (ms).
    deadline_ms: Option<u64>,
    /// This connection holds one of the bounded active slots.
    holds_slot: bool,
    /// Response bytes in flight and the write cursor.
    out: Vec<u8>,
    out_pos: usize,
    keep: bool,
    /// The routed response's trace, finalised when the response ends.
    meta: Option<M>,
}

/// Every connection of one server, with `M` the trace a routed response
/// carries until it is finalised.
pub(super) struct ConnCore<M> {
    /// Connection slab; tokens embed `(generation << 32) | index` so stale
    /// timers and events for a recycled index are ignored.
    conns: Vec<Option<Conn<M>>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    /// Connections in the bounded active set (admission to flushed reply).
    active: usize,
    capacity: usize,
    /// Dispatched requests whose completion has not come back.
    inflight: usize,
    draining: bool,
    timeout_ms: u64,
    max_body: usize,
    keepalive_max: usize,
    /// The 503 + `Retry-After` every shed connection gets.
    shed_reply: Vec<u8>,
    actions: VecDeque<Action<M>>,
}

impl<M> ConnCore<M> {
    pub(super) fn new(opts: &ServeOptions) -> Self {
        let retry_after = opts.retry_after_secs.to_string();
        Self {
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open: 0,
            active: 0,
            capacity: opts.workers.max(1) + opts.queue_depth.max(1),
            inflight: 0,
            draining: false,
            timeout_ms: opts.timeout_ms.max(1),
            max_body: opts.max_body_bytes,
            keepalive_max: opts.keepalive_max_requests.max(1),
            shed_reply: render_response(
                503,
                "server overloaded, retry later\n",
                "text/plain; charset=utf-8",
                false,
                &[("Retry-After", &retry_after)],
            ),
            actions: VecDeque::new(),
        }
    }

    /// Size of the active set: `workers + queue_depth`.
    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(super) fn open(&self) -> usize {
        self.open
    }

    pub(super) fn active(&self) -> usize {
        self.active
    }

    /// The next action to carry out, oldest first.
    pub(super) fn next_action(&mut self) -> Option<Action<M>> {
        self.actions.pop_front()
    }

    /// The readiness interest of a live connection.
    pub(super) fn interest(&self, token: u64) -> Option<Interest> {
        self.live(token).map(|idx| self.conn(idx).interest)
    }

    /// The response bytes still to be written.
    pub(super) fn pending(&self, token: u64) -> &[u8] {
        let rest = |idx| &self.conn(idx).out[self.conn(idx).out_pos..];
        self.live(token).map_or(&[], rest)
    }

    fn live(&self, token: u64) -> Option<usize> {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        (self.conns.get(idx)?.is_some() && self.gens[idx] == gen).then_some(idx)
    }

    fn token(&self, idx: usize) -> u64 {
        (u64::from(self.gens[idx]) << 32) | idx as u64
    }

    fn conn(&self, idx: usize) -> &Conn<M> {
        self.conns[idx].as_ref().expect("live connection")
    }

    fn conn_mut(&mut self, idx: usize) -> &mut Conn<M> {
        self.conns[idx].as_mut().expect("live connection")
    }

    /// A connection was accepted; it starts with read interest (the caller
    /// registers it so) and is admitted or shed. Returns its token.
    pub(super) fn accept(&mut self, now_us: u64) -> u64 {
        let conn = Conn {
            phase: Phase::Reading,
            parser: HttpParser::new(),
            interest: Interest::Read,
            served: 0,
            started_us: now_us,
            deadline_ms: None,
            holds_slot: false,
            out: Vec::new(),
            out_pos: 0,
            keep: false,
            meta: None,
        };
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        self.conns[idx] = Some(conn);
        self.open += 1;
        self.admit(idx, now_us);
        self.token(idx)
    }

    /// Begins the graceful drain: parked idle and silent fresh connections
    /// close now; everything mid-request runs to completion under its
    /// normal deadlines and closes after its response.
    pub(super) fn drain(&mut self) {
        self.draining = true;
        for idx in 0..self.conns.len() {
            let quiet = self.conns[idx].as_ref().is_some_and(|c| {
                matches!(c.phase, Phase::Reading | Phase::Idle) && !c.parser.has_partial()
            });
            if quiet {
                self.close(idx);
            }
        }
    }

    /// Feeds one input for `token`; inputs for a dead token are ignored.
    pub(super) fn handle(&mut self, now_us: u64, token: u64, input: Input<'_, M>) {
        let Some(idx) = self.live(token) else {
            return;
        };
        let phase = self.conn(idx).phase;
        match input {
            Input::Read(bytes) => {
                // The first byte on an idle connection re-enters admission.
                if phase == Phase::Idle && !self.admit(idx, now_us) {
                    return;
                }
                self.conn_mut(idx).parser.feed(bytes);
                if self.conn(idx).phase == Phase::Reading {
                    self.pump(idx, now_us);
                }
            }
            // An idle connection holds no bytes, so EOF closes it cleanly;
            // a half-close while dispatched or writing lets the response
            // go out first.
            Input::Eof => {
                self.conn_mut(idx).parser.feed_eof();
                if matches!(phase, Phase::Reading | Phase::Idle) {
                    self.pump(idx, now_us);
                }
            }
            // A dispatched connection stays until its completion arrives,
            // so its slot keeps bounding the job queue; the response's
            // write then meets the broken socket.
            Input::ReadError if phase != Phase::Dispatched => self.close(idx),
            Input::Wrote(n) if phase == Phase::Writing => {
                let c = self.conn_mut(idx);
                c.out_pos += n;
                if c.out_pos < c.out.len() {
                    self.actions.push_back(Action::Send(token));
                } else {
                    self.written(idx, now_us);
                }
            }
            Input::WouldBlock if phase == Phase::Writing => self.set_interest(idx, Interest::Write),
            Input::WriteError if phase == Phase::Writing => self.close(idx),
            Input::Completed { bytes, keep, meta } if phase == Phase::Dispatched => {
                self.inflight -= 1;
                self.respond(idx, now_us, bytes, keep, Some(meta));
            }
            // Only `Reading` and `Writing` hold deadlines.
            Input::Timer(at_ms) if self.conn(idx).deadline_ms == Some(at_ms) => {
                if phase == Phase::Reading {
                    self.actions.push_back(Action::TimedOut("read"));
                    self.refuse(idx, now_us, 408, "request deadline exceeded\n");
                } else {
                    self.actions.push_back(Action::TimedOut("write"));
                    self.close(idx);
                }
            }
            _ => {}
        }
    }

    /// Tries to complete one request out of the parse buffer.
    fn pump(&mut self, idx: usize, now_us: u64) {
        let max_body = self.max_body;
        match self.conn_mut(idx).parser.take(max_body) {
            Parsed::NeedMore => {}
            Parsed::Request(req) => self.dispatch(idx, req),
            Parsed::Failed(RequestError::Eof | RequestError::Io) => self.close(idx),
            Parsed::Failed(RequestError::TooLarge { length, limit }) => {
                let body = format!("body of {length} bytes exceeds the {limit}-byte limit\n");
                self.refuse(idx, now_us, 413, &body);
            }
            Parsed::Failed(RequestError::Malformed(why)) => {
                self.refuse(idx, now_us, 400, &format!("malformed request: {why}\n"));
            }
        }
    }

    fn dispatch(&mut self, idx: usize, req: Request) {
        let token = self.token(idx);
        let keepalive_max = self.keepalive_max;
        let c = self.conn_mut(idx);
        c.phase = Phase::Dispatched;
        c.deadline_ms = None;
        c.served += 1;
        let (started_us, index) = (c.started_us, c.served);
        let keep = !req.close && index < keepalive_max;
        self.inflight += 1;
        self.set_interest(idx, Interest::None);
        self.actions.push_back(Action::Dispatch(Job {
            token,
            req,
            started_us,
            index,
            keep,
        }));
    }

    /// Starts a response. Every response starts here: routed ones from a
    /// completion, and the core's own 400/408/413/503s.
    fn respond(&mut self, idx: usize, now_us: u64, bytes: Vec<u8>, keep: bool, meta: Option<M>) {
        let c = self.conn_mut(idx);
        c.phase = Phase::Writing;
        c.out = bytes;
        c.out_pos = 0;
        c.keep = keep;
        c.meta = meta;
        self.set_interest(idx, Interest::None);
        self.arm(idx, now_us);
        self.actions.push_back(Action::Send(self.token(idx)));
    }

    /// Answers with a transport-level error and closes once it is out.
    fn refuse(&mut self, idx: usize, now_us: u64, status: u16, body: &str) {
        let bytes = render_response(status, body, "text/plain; charset=utf-8", false, &[]);
        self.respond(idx, now_us, bytes, false, None);
    }

    /// The response is fully flushed: release the active slot, then park
    /// the connection idle or close it.
    fn written(&mut self, idx: usize, now_us: u64) {
        self.end_response(idx);
        self.release(idx);
        if !self.conn(idx).keep || self.draining {
            return self.close(idx);
        }
        self.conn_mut(idx).phase = Phase::Idle;
        self.set_interest(idx, Interest::Read);
        // Pipelined bytes that arrived with the previous request may
        // already hold the next one.
        if self.conn(idx).parser.has_partial() && self.admit(idx, now_us) {
            self.pump(idx, now_us);
        }
    }

    /// Ends the current response, flushed or not. A routed response's
    /// trace is finalised here and nowhere else.
    fn end_response(&mut self, idx: usize) {
        let c = self.conns[idx].as_mut().expect("live connection");
        c.deadline_ms = None;
        c.out = Vec::new();
        c.out_pos = 0;
        if let Some(meta) = c.meta.take() {
            self.actions.push_back(Action::Finish(meta));
        }
    }

    /// Removes a connection: ends its response, releases its slot and
    /// recycles the slab entry under a new generation.
    fn close(&mut self, idx: usize) {
        self.end_response(idx);
        self.release(idx);
        let token = self.token(idx);
        self.conns[idx] = None;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.open -= 1;
        self.actions.push_back(Action::Close(token));
    }

    /// Admits a fresh connection, or an idle one whose next request
    /// began, into the active set with a read deadline. When the set is
    /// full it is shed instead (`false`): both kinds get the same 503.
    fn admit(&mut self, idx: usize, now_us: u64) -> bool {
        if self.active == self.capacity {
            self.actions.push_back(Action::Shed);
            self.respond(idx, now_us, self.shed_reply.clone(), false, None);
            return false;
        }
        self.active += 1;
        let c = self.conn_mut(idx);
        c.holds_slot = true;
        c.phase = Phase::Reading;
        c.started_us = now_us;
        self.arm(idx, now_us);
        true
    }

    fn release(&mut self, idx: usize) {
        let c = self.conns[idx].as_mut().expect("live connection");
        if c.holds_slot {
            c.holds_slot = false;
            self.active -= 1;
        }
    }

    /// Arms the connection's deadline, `timeout_ms` from now.
    fn arm(&mut self, idx: usize, now_us: u64) {
        let at_ms = now_us / 1000 + self.timeout_ms;
        self.conn_mut(idx).deadline_ms = Some(at_ms);
        self.actions.push_back(Action::Arm(self.token(idx), at_ms));
    }

    fn set_interest(&mut self, idx: usize, interest: Interest) {
        let token = self.token(idx);
        let c = self.conns[idx].as_mut().expect("live connection");
        if c.interest != interest {
            c.interest = interest;
            self.actions.push_back(Action::Interest(token, interest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    const TIMEOUT_MS: u64 = 50;
    const MAX_BODY: usize = 64;

    /// One connection as its peer sees it.
    struct Peer {
        /// Every byte the peer will send, and how many it has sent.
        wire: Vec<u8>,
        sent: usize,
        /// The peer closed its sending side.
        eof: bool,
        /// The interest the core last asked for.
        interest: Interest,
    }

    /// The event loop and the worker pool, played by a seeded random
    /// driver: no sockets, no threads.
    struct Model {
        core: ConnCore<u64>,
        rng: StdRng,
        now_us: u64,
        peers: BTreeMap<u64, Peer>,
        /// Dispatched jobs: `(token, request id, keep)`.
        jobs: Vec<(u64, u64, bool)>,
        /// Armed timers `(token, deadline)`, each fires once.
        timers: Vec<(u64, u64)>,
        closed: BTreeSet<u64>,
        next_id: u64,
        completed: BTreeSet<u64>,
        finished: BTreeMap<u64, usize>,
        /// Write outcomes are all full writes (the final flush).
        settle: bool,
        /// How often each interleaving of interest was reached.
        seen: BTreeMap<&'static str, usize>,
    }

    /// A peer's byte stream: pipelined requests, then maybe a truncated,
    /// oversized or malformed one.
    fn wire(rng: &mut StdRng) -> Vec<u8> {
        let mut s = String::new();
        for _ in 0..rng.gen_range(1..6) {
            let body = "b".repeat(rng.gen_range(0..20));
            let close = ["", "", "", "Connection: close\r\n"][rng.gen_range(0..4)];
            let n = body.len();
            s += &format!("POST /p HTTP/1.1\r\n{close}Content-Length: {n}\r\n\r\n{body}");
        }
        match rng.gen_range(0..12) {
            0 => s += "POST /p HTTP/1.1\r\nContent-Le",
            1 => s += "POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc",
            2 => {
                s += &format!(
                    "POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY + 1
                )
            }
            3 => s += "garbage\r\n\r\n",
            4 if rng.gen_range(0..4) == 0 => {
                s += &format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(70_000));
            }
            _ => {}
        }
        s.into_bytes()
    }

    impl Model {
        fn new(seed: u64) -> Self {
            let opts = ServeOptions {
                workers: 1,
                queue_depth: 2,
                timeout_ms: TIMEOUT_MS,
                max_body_bytes: MAX_BODY,
                keepalive_max_requests: 4,
                ..ServeOptions::default()
            };
            Model {
                core: ConnCore::new(&opts),
                rng: StdRng::seed_from_u64(seed),
                now_us: 0,
                peers: BTreeMap::new(),
                jobs: Vec::new(),
                timers: Vec::new(),
                closed: BTreeSet::new(),
                next_id: 0,
                completed: BTreeSet::new(),
                finished: BTreeMap::new(),
                settle: false,
                seen: BTreeMap::new(),
            }
        }

        fn phase(&self, token: u64) -> Option<Phase> {
            self.core.live(token).map(|idx| self.core.conn(idx).phase)
        }

        fn see(&mut self, what: &'static str) {
            *self.seen.entry(what).or_default() += 1;
        }

        fn feed(&mut self, token: u64, input: Input<'_, u64>) {
            self.core.handle(self.now_us, token, input);
            self.apply();
        }

        /// Carries out every queued action, as the event loop does.
        fn apply(&mut self) {
            while let Some(action) = self.core.next_action() {
                let token = match &action {
                    Action::Dispatch(job) => Some(job.token),
                    Action::Send(t) | Action::Interest(t, _) | Action::Arm(t, _) => Some(*t),
                    Action::Close(t) => Some(*t),
                    _ => None,
                };
                if let Some(t) = token {
                    assert!(!self.closed.contains(&t), "an action after Close");
                }
                match action {
                    Action::Dispatch(job) => {
                        self.next_id += 1;
                        self.jobs.push((job.token, self.next_id, job.keep));
                        if job.index > 1 {
                            self.see("keep-alive reuse");
                        }
                    }
                    Action::Send(t) => {
                        let reply = String::from_utf8_lossy(self.core.pending(t)).into_owned();
                        for what in ["400", "408", "413"] {
                            if reply.starts_with(&format!("HTTP/1.1 {what}")) {
                                self.see(what);
                            }
                        }
                        if reply.ends_with("request head too large\n") {
                            self.see("head too large");
                        }
                        self.write(t);
                    }
                    Action::Interest(t, interest) => {
                        self.peers.get_mut(&t).expect("open peer").interest = interest;
                    }
                    Action::Arm(t, at_ms) => self.timers.push((t, at_ms)),
                    Action::Finish(id) => {
                        assert!(self.completed.contains(&id), "finished before completed");
                        *self.finished.entry(id).or_default() += 1;
                    }
                    Action::Close(t) => {
                        self.peers.remove(&t).expect("open peer");
                        self.closed.insert(t);
                    }
                    Action::Shed => self.see("shed"),
                    Action::TimedOut(kind) => self.see(kind),
                }
            }
        }

        /// One write attempt: all, part, none or a broken socket.
        fn write(&mut self, token: u64) {
            let pending = self.core.pending(token).len();
            assert!(pending > 0, "a write with nothing to send");
            let input = match self.rng.gen_range(0..20) {
                _ if self.settle => Input::Wrote(pending),
                0..=3 => Input::Wrote(self.rng.gen_range(1..pending + 1)),
                4..=6 => Input::WouldBlock,
                7 => Input::WriteError,
                _ => Input::Wrote(pending),
            };
            self.core.handle(self.now_us, token, input);
            if self
                .core
                .actions
                .iter()
                .any(|a| matches!(a, Action::Dispatch(_)))
            {
                self.see("pipelined");
            }
        }

        fn fire_timers(&mut self) {
            let now_ms = self.now_us / 1000;
            let (due, later) = self.timers.iter().partition(|&&(_, at)| at <= now_ms);
            self.timers = later;
            for (token, at_ms) in due {
                self.feed(token, Input::Timer(at_ms));
            }
        }

        fn complete(&mut self, i: usize) {
            let (token, id, keep) = self.jobs.swap_remove(i);
            assert_eq!(
                self.phase(token),
                Some(Phase::Dispatched),
                "completion lost its conn"
            );
            let bytes = format!("response {id}").into_bytes();
            let keep = keep && self.rng.gen_range(0..10) > 0;
            self.completed.insert(id);
            self.feed(
                token,
                Input::Completed {
                    bytes,
                    keep,
                    meta: id,
                },
            );
        }

        fn random_peer(&mut self) -> Option<u64> {
            let tokens: Vec<u64> = self.peers.keys().copied().collect();
            (!tokens.is_empty()).then(|| tokens[self.rng.gen_range(0..tokens.len())])
        }

        fn step(&mut self) {
            match self.rng.gen_range(0..100) {
                0..=9 if self.peers.len() < 6 && !self.core.draining => {
                    let token = self.core.accept(self.now_us);
                    let wire = wire(&mut self.rng);
                    let peer = Peer {
                        wire,
                        sent: 0,
                        eof: false,
                        interest: Interest::Read,
                    };
                    assert!(self.peers.insert(token, peer).is_none());
                    self.apply();
                }
                10..=51 => {
                    // Bytes arrive in fragments of any size: mostly when the
                    // core asks for them, sometimes in any other phase.
                    let Some(mut token) = self.random_peer() else {
                        return;
                    };
                    let readers: Vec<u64> = self
                        .peers
                        .iter()
                        .filter(|(_, p)| p.interest == Interest::Read && p.sent < p.wire.len())
                        .map(|(&t, _)| t)
                        .collect();
                    if !readers.is_empty() && self.rng.gen_range(0..3) > 0 {
                        token = readers[self.rng.gen_range(0..readers.len())];
                    }
                    let phase = self.phase(token).expect("open peer");
                    let peer = &self.peers[&token];
                    let left = peer.wire.len() - peer.sent;
                    if peer.eof || left == 0 {
                        return;
                    }
                    let big = if left > 4096 {
                        65_536
                    } else {
                        [8, 64][self.rng.gen_range(0..2)]
                    };
                    let n = self.rng.gen_range(1..big).min(left);
                    let bytes = peer.wire[peer.sent..peer.sent + n].to_vec();
                    self.peers.get_mut(&token).expect("open peer").sent += n;
                    self.see(match phase {
                        Phase::Reading => "read while reading",
                        Phase::Dispatched => "read while dispatched",
                        Phase::Writing => "read while writing",
                        Phase::Idle => "read while idle",
                    });
                    self.feed(token, Input::Read(&bytes));
                }
                52..=54 => {
                    // Half-close, with or without bytes still unsent.
                    let Some(token) = self.random_peer() else {
                        return;
                    };
                    match self.phase(token) {
                        Some(Phase::Dispatched) => self.see("half-close while dispatched"),
                        Some(Phase::Reading) => self.see("truncated"),
                        _ => {}
                    }
                    self.peers.get_mut(&token).expect("open peer").eof = true;
                    self.feed(token, Input::Eof);
                }
                55 => {
                    if let Some(token) = self.random_peer() {
                        self.feed(token, Input::ReadError);
                    }
                }
                56..=71 if !self.jobs.is_empty() => {
                    let i = self.rng.gen_range(0..self.jobs.len());
                    let token = self.jobs[i].0;
                    if self.rng.gen_range(0..3) == 0 {
                        // A timer fires as the completion arrives.
                        self.now_us += self.rng.gen_range(0..2 * TIMEOUT_MS * 1000);
                        let due = self
                            .timers
                            .iter()
                            .any(|&(t, at)| t == token && at <= self.now_us / 1000);
                        if due {
                            self.see("timer as completion arrives");
                        }
                        self.fire_timers();
                        self.complete(i);
                        self.fire_timers();
                    } else {
                        self.complete(i);
                    }
                }
                72..=81 => {
                    let writers: Vec<u64> = self
                        .peers
                        .iter()
                        .filter(|(_, p)| p.interest == Interest::Write)
                        .map(|(&t, _)| t)
                        .collect();
                    if let Some(&token) = writers.first() {
                        self.write(token);
                        self.apply();
                    }
                }
                82..=95 => {
                    self.now_us += self.rng.gen_range(0..TIMEOUT_MS * 200);
                    self.fire_timers();
                }
                96 if !self.core.draining && self.rng.gen_range(0..8) == 0 => self.drain(),
                _ => {
                    // Inputs for a dead token change nothing.
                    if let Some(&token) = self.closed.iter().next() {
                        for input in [Input::Read(b"GET / HTTP/1.1\r\n\r\n"), Input::Eof] {
                            self.core.handle(self.now_us, token, input);
                        }
                        self.core.handle(self.now_us, token, Input::Timer(u64::MAX));
                        assert!(self.core.next_action().is_none(), "a dead token acted");
                    }
                }
            }
        }

        fn drain(&mut self) {
            if self
                .peers
                .keys()
                .any(|&t| self.phase(t) == Some(Phase::Writing))
            {
                self.see("drain mid-write");
            }
            self.core.drain();
            self.apply();
        }

        /// The invariants that hold between any two steps.
        fn check(&self) {
            let core = &self.core;
            let live: Vec<&Conn<u64>> = core.conns.iter().flatten().collect();
            assert_eq!(core.open, live.len());
            assert_eq!(core.open, self.peers.len());
            assert_eq!(core.active, live.iter().filter(|c| c.holds_slot).count());
            assert!(core.active <= core.capacity);
            assert_eq!(core.inflight, self.jobs.len());
            // Each queued job holds a slot, so the job queue never overflows.
            assert!(core.inflight <= core.active, "a job without a slot");
            for (&token, peer) in &self.peers {
                let c = core.conn(core.live(token).expect("open peer is live"));
                assert_eq!(c.interest, peer.interest);
                match c.phase {
                    Phase::Idle => assert!(!c.holds_slot),
                    Phase::Dispatched => {
                        assert!(self.jobs.iter().any(|j| j.0 == token), "no job")
                    }
                    Phase::Reading | Phase::Writing => {
                        let at = c.deadline_ms.expect("a deadline");
                        assert!(self.timers.contains(&(token, at)), "deadline not armed");
                    }
                }
            }
        }
    }

    #[test]
    fn random_event_sequences_keep_the_core_invariants() {
        let mut seen = BTreeMap::new();
        for seed in 0..128 {
            let mut m = Model::new(seed);
            for _ in 0..500 {
                m.step();
                m.check();
            }
            if !m.core.draining {
                m.drain();
            }
            // Settle: every job completes, writes flush, peers hang up and
            // deadlines fire until every connection is gone.
            m.settle = true;
            for _ in 0..50 {
                while !m.jobs.is_empty() {
                    m.complete(0);
                }
                let tokens: Vec<u64> = m.peers.keys().copied().collect();
                for token in tokens {
                    if m.peers
                        .get(&token)
                        .is_some_and(|p| p.interest == Interest::Write)
                    {
                        m.write(token);
                        m.apply();
                    } else if m.phase(token) == Some(Phase::Reading) {
                        m.feed(token, Input::Eof);
                    }
                }
                m.now_us += (TIMEOUT_MS + 1) * 1000;
                m.fire_timers();
                m.check();
            }
            assert!(m.peers.is_empty(), "seed {seed}: connections left open");
            assert_eq!((m.core.open, m.core.active, m.core.inflight), (0, 0, 0));
            // Every dispatched request got exactly one response.
            assert_eq!(m.finished.len() as u64, m.next_id, "seed {seed}");
            assert!(m.finished.values().all(|&n| n == 1), "seed {seed}");
            for (what, n) in m.seen {
                *seen.entry(what).or_insert(0) += n;
            }
        }
        for what in [
            "read while reading",
            "read while dispatched",
            "read while writing",
            "read while idle",
            "half-close while dispatched",
            "timer as completion arrives",
            "drain mid-write",
            "keep-alive reuse",
            "pipelined",
            "truncated",
            "400",
            "408",
            "413",
            "head too large",
            "shed",
            "read",
            "write",
        ] {
            assert!(
                seen.get(what).is_some_and(|&n| n > 0),
                "{what} never happened: {seen:?}"
            );
        }
    }
}
