//! Child processes: the benchmark re-runs its own executable as the
//! server or build process, talks to it over line-based stdin/stdout,
//! and reads its peak resident set size from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// First argument that selects a child role.
pub const CHILD_FLAG: &str = "--child";

/// A running child process of the benchmark executable.
#[derive(Debug)]
pub struct Child {
    child: std::process::Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// When the child was spawned.
    pub spawned: Instant,
}

impl Child {
    /// Spawns the benchmark executable in child role `role`.
    pub fn spawn(role: &str, args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(role)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {role}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().ok_or("child stdout missing")?);
        Ok(Child {
            child,
            stdin,
            stdout,
            spawned,
        })
    }

    /// Reads lines until one starts with `key`; returns the arrival
    /// time and the whitespace-separated fields after the key.
    pub fn expect(&mut self, key: &str) -> Result<(Instant, Vec<String>), String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading child output: {e}"))?;
            let at = Instant::now();
            if n == 0 {
                return Err(format!("child exited before reporting {key}"));
            }
            let mut fields = line.split_whitespace();
            if fields.next() == Some(key) {
                return Ok((at, fields.map(str::to_string).collect()));
            }
        }
    }

    /// Sends one command line to the child.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to child: {e}"))
    }

    /// Peak resident set size of the child in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes the child's stdin, waits for it to exit and checks its
    /// status.
    pub fn finish(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for child: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // Reached only when `finish` was not: stop the child and reap
        // it so no process outlives the run.
        if let Ok(None) = self.child.try_wait() {
            let _kill = self.child.kill();
        }
        let _reaped = self.child.wait();
    }
}

/// `VmHWM` (peak resident set size) of a `/proc/<pid>/status` file, in
/// MiB.
pub fn peak_rss_mib(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Parses field `i` of a child report.
pub fn field<T: std::str::FromStr>(fields: &[String], i: usize) -> Result<T, String> {
    fields
        .get(i)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("child report field {i} missing or malformed in {fields:?}"))
}
