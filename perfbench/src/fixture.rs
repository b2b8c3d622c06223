//! The daemon processes a workload runs against: `sigserve` shards built
//! from this checkout, optionally fronted by `sigrouter`.

use std::fs::File;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sigserve::protocol::{Request, Response, StatsReply};

use crate::client::{warm, Conn};
use crate::workload::{Plan, Workload, MODELS};

/// Longest a daemon set may take to come up and answer its warm-up.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Where binaries, models and logs live.
pub struct Env {
    /// Directory holding the release `sigserve` and `sigrouter` binaries.
    pub bin_dir: PathBuf,
    /// The daemons' `--models-dir` (trained `ci` caches).
    pub models_dir: PathBuf,
    /// Daemon stderr logs, one file per process role.
    pub log_dir: PathBuf,
}

/// The `sigserve` flags every shard of `workload` runs with (besides its
/// address and models directory).
pub fn daemon_flags(workload: Workload) -> Vec<String> {
    let preload = workload
        .libraries()
        .iter()
        .map(|&lib| {
            if lib == "nor-only" {
                MODELS.to_string()
            } else {
                format!("{MODELS}/{lib}")
            }
        })
        .collect::<Vec<_>>()
        .join(",");
    vec!["--workers".into(), "1".into(), "--preload".into(), preload]
}

/// A child process that is killed and reaped when dropped.
struct Proc {
    child: Child,
    addr: String,
    role: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Proc {
    fn spawn(mut cmd: Command, addr: String, role: String, env: &Env) -> io::Result<Self> {
        let log = File::create(env.log_dir.join(format!("{role}.log")))?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        Ok(Self { child, addr, role })
    }

    /// Waits until the process accepts connections; fails early if it
    /// exits instead.
    fn wait_listening(&mut self, deadline: Instant) -> io::Result<()> {
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "{} exited during start-up ({status}); see its log",
                    self.role
                )));
            }
            if TcpStream::connect(&self.addr).is_ok() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{} never listened on {}", self.role, self.addr),
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("no VmHWM for {}", self.role)))
    }
}

/// A loopback address with a port free at the time of the call.
fn free_addr() -> io::Result<String> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    Ok(listener.local_addr()?.to_string())
}

/// A running daemon set.
pub struct Fixture {
    shards: Vec<Proc>,
    router: Option<Proc>,
    routed: bool,
}

impl Fixture {
    /// Spawns the workload's shards (with `SIG_OBS=trace` when `traced`,
    /// else the default counters mode), plus a router when `with_router`
    /// or the workload is routed, and waits for the warm-up frames to be
    /// answered on the served address. Returns the set-up time in
    /// seconds: spawn to last warm-up answer.
    ///
    /// # Errors
    ///
    /// Spawn, start-up or warm-up failures.
    pub fn start(
        env: &Env,
        plan: &Plan,
        traced: bool,
        with_router: bool,
    ) -> io::Result<(Self, f64)> {
        let workload = plan.workload;
        let started = Instant::now();
        let deadline = started + START_TIMEOUT;
        let tag = if traced { "-traced" } else { "" };
        let mut shards = Vec::new();
        for shard in 0..workload.shards() {
            let addr = free_addr()?;
            let mut cmd = Command::new(env.bin_dir.join("sigserve"));
            cmd.args(daemon_flags(workload))
                .args(["--addr", &addr, "--models-dir"])
                .arg(&env.models_dir);
            if traced {
                cmd.env("SIG_OBS", "trace");
            } else {
                cmd.env_remove("SIG_OBS");
            }
            let role = format!("{}-shard{shard}{tag}", workload.name());
            shards.push(Proc::spawn(cmd, addr, role, env)?);
        }
        let router = if with_router || workload.routed() {
            let addr = free_addr()?;
            let upstream: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
            let mut cmd = Command::new(env.bin_dir.join("sigrouter"));
            cmd.args(["--addr", &addr, "--shards", &upstream.join(",")]);
            let role = format!("{}-router{tag}", workload.name());
            Some(Proc::spawn(cmd, addr, role, env)?)
        } else {
            None
        };
        let mut fixture = Self {
            shards,
            router,
            routed: workload.routed(),
        };
        for proc in fixture.shards.iter_mut().chain(fixture.router.as_mut()) {
            proc.wait_listening(deadline)?;
        }
        let mut conn = Conn::connect_by(fixture.served_addr(), deadline)?;
        warm(&mut conn, &plan.warmup_requests())?;
        Ok((fixture, started.elapsed().as_secs_f64()))
    }

    /// The address clients of the workload connect to.
    pub fn served_addr(&self) -> &str {
        match (&self.router, self.routed) {
            (Some(router), true) => &router.addr,
            _ => &self.shards[0].addr,
        }
    }

    /// The router's address (when one runs).
    pub fn router_addr(&self) -> Option<&str> {
        self.router.as_ref().map(|r| r.addr.as_str())
    }

    /// The shards' addresses, by shard number.
    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// `stats` of every shard, fetched directly (not through the router).
    ///
    /// # Errors
    ///
    /// Socket errors or a non-stats answer.
    pub fn stats(&self) -> io::Result<Vec<StatsReply>> {
        self.shards
            .iter()
            .map(
                |s| match Conn::connect(&s.addr)?.call(&Request::Stats { id: 1 })? {
                    Response::Stats { stats, .. } => Ok(stats),
                    other => Err(io::Error::other(format!("stats answered {other:?}"))),
                },
            )
            .collect()
    }

    /// Sum of `VmHWM` over the daemon processes (shards and router), MiB.
    ///
    /// # Errors
    ///
    /// When a process status cannot be read.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kib = 0;
        for proc in self.shards.iter().chain(self.router.as_ref()) {
            kib += proc.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }
}
