//! `pulp_cli` output into a pipe whose reader goes away, as in
//! `pulp_cli repro | head -1` or `pulp_cli repro table1_energy_model |
//! true`: the command stops writing and exits 0,
//! with no panic. SIGPIPE stays ignored (the server relies on it), so the
//! closed pipe reaches the command as a `BrokenPipe` write error.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn pulp_cli(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pulp_cli"));
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::piped());
    cmd
}

fn assert_clean_exit(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{what}: {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn a_listing_into_a_closed_pipe_exits_cleanly() {
    // The reader is gone before the command starts, so its first write
    // already fails.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = pulp_cli(&["repro"])
        .stdout(writer)
        .output()
        .expect("pulp_cli runs");
    assert_clean_exit("repro", &out);
}

#[test]
fn an_experiment_table_into_a_closed_pipe_exits_cleanly() {
    // The experiments print their tables through the same writer as
    // `main`, so a closed pipe ends the run instead of panicking.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = pulp_cli(&["repro", "table1_energy_model", "--quiet", "--no-manifest"])
        .stdout(writer)
        .output()
        .expect("pulp_cli runs");
    assert_clean_exit("repro table1_energy_model", &out);
}

#[test]
fn a_reader_that_stops_after_one_line_ends_a_long_listing_cleanly() {
    // A text trace is far larger than a pipe buffer, so the command is
    // still writing when the reader closes.
    let mut child = pulp_cli(&["trace", "fir", "--size", "512", "--team", "4"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("pulp_cli runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(!first.is_empty(), "the trace printed nothing");
    let out = child.wait_with_output().expect("pulp_cli exits");
    assert_clean_exit("trace", &out);
}
