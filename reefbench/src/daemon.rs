//! Daemons under test: this binary re-executed with `--serve`, so the
//! benchmark always measures the daemon code it was built with.
//!
//! Each daemon is a `BrokerServer` with the default transport and routing
//! mode on a loopback ephemeral port. The child prints `PORT <n>` once it
//! listens, and shuts down cleanly when its stdin reaches EOF.

use reef_wire::{AutosubOptions, BrokerServer};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times; 100 on every
/// Linux architecture the benchmark runs on.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// What a daemon is started with; everything else is the default.
#[derive(Debug, Clone, Default)]
pub struct DaemonSpec {
    /// Broker name.
    pub name: String,
    /// Peer to dial at start-up.
    pub peer: Option<SocketAddr>,
    /// Click-store directory (in-memory store when `None`).
    pub data_dir: Option<PathBuf>,
    /// Autosub refresh cadence (library default when `None`).
    pub autosub_refresh: Option<Duration>,
}

impl DaemonSpec {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec!["--serve".to_owned(), "--name".to_owned(), self.name.clone()];
        if let Some(peer) = self.peer {
            args.extend(["--peer".to_owned(), peer.to_string()]);
        }
        if let Some(dir) = &self.data_dir {
            args.extend(["--data-dir".to_owned(), dir.display().to_string()]);
        }
        if let Some(refresh) = self.autosub_refresh {
            args.extend([
                "--autosub-refresh-ms".to_owned(),
                refresh.as_millis().to_string(),
            ]);
        }
        args
    }

    fn from_args(args: &[String]) -> Result<DaemonSpec, String> {
        let mut spec = DaemonSpec::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--name" => spec.name = value()?.clone(),
                "--peer" => spec.peer = Some(value()?.parse().map_err(|e| format!("--peer: {e}"))?),
                "--data-dir" => spec.data_dir = Some(PathBuf::from(value()?)),
                "--autosub-refresh-ms" => {
                    let ms: u64 = value()?
                        .parse()
                        .map_err(|e| format!("--autosub-refresh-ms: {e}"))?;
                    spec.autosub_refresh = Some(Duration::from_millis(ms));
                }
                other => return Err(format!("unknown daemon flag {other}")),
            }
        }
        Ok(spec)
    }
}

/// Child-process mode: serve until stdin closes.
pub fn serve(args: &[String]) -> Result<(), String> {
    let spec = DaemonSpec::from_args(args)?;
    let mut builder = BrokerServer::builder().name(spec.name.clone());
    if let Some(peer) = spec.peer {
        builder = builder.peer(peer.to_string());
    }
    if let Some(dir) = &spec.data_dir {
        builder = builder.data_dir(dir);
    }
    if let Some(refresh) = spec.autosub_refresh {
        builder = builder.autosub(AutosubOptions::default().refresh_interval(refresh));
    }
    let server = builder
        .bind("127.0.0.1:0")
        .map_err(|e| format!("daemon {} failed to start: {e}", spec.name))?;
    println!("PORT {}", server.local_addr().port());
    io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon and wait until it listens.
    pub fn spawn(spec: &DaemonSpec) -> io::Result<Daemon> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(spec.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let port = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("PORT ")?.parse::<u16>().ok());
        match port {
            Some(port) => Ok(Daemon {
                child,
                addr: SocketAddr::from(([127, 0, 0, 1], port)),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "daemon {} did not announce a port",
                    spec.name
                )))
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line"))
    }

    /// CPU time (user + system, all threads) the daemon has used, in
    /// seconds.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 12th and 13th of them, in clock ticks.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| io::Error::other("malformed stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed stat"))
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_SEC)
    }

    /// Close stdin and wait for a clean exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached without `stop` (an error path): do not leave the
        // child running.
        if self.child.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_flags_round_trip() {
        let spec = DaemonSpec {
            name: "b".into(),
            peer: Some("127.0.0.1:4000".parse().unwrap()),
            data_dir: Some(PathBuf::from(".reefbench/tmp/x")),
            autosub_refresh: Some(Duration::from_millis(50)),
        };
        let args = spec.to_args();
        assert_eq!(args[0], "--serve");
        let back = DaemonSpec::from_args(&args[1..]).unwrap();
        assert_eq!(back.name, "b");
        assert_eq!(back.peer, spec.peer);
        assert_eq!(back.data_dir, spec.data_dir);
        assert_eq!(back.autosub_refresh, spec.autosub_refresh);
    }
}
