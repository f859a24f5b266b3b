//! Std-only readiness-driven networking primitives for the serving tier.
//!
//! The workspace is dependency-free (everything under `vendor/` is a stub),
//! so this module talks to the kernel the same way `serve`'s signal shim
//! does: thin `extern "C"` declarations against the platform C library that
//! std already links. Three pieces:
//!
//! - [`poller`] — a readiness [`Poller`] over `epoll(7)` on Linux with a
//!   portable `poll(2)` fallback elsewhere, plus an eventfd [`Waker`] so
//!   worker threads can interrupt a blocked wait.
//! - [`timer`] — a hashed [`TimerWheel`] for connection deadlines:
//!   non-blocking sockets cannot time out on their own, so the event loop
//!   arms wheel entries instead.
//! - [`http`] — an incremental HTTP/1.1 parser ([`HttpParser`]) that
//!   accepts bytes as readiness delivers them and yields at most one
//!   request at a time, or a [`RequestError`].

pub mod http;
pub mod poller;
pub mod timer;

pub use http::{HttpParser, Parsed, Request, RequestError};
pub use poller::{raw_fd, Event, Interest, Poller, Waker};
pub use timer::TimerWheel;
