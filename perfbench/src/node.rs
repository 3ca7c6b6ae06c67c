//! Shard servers in child processes of the benchmark binary.
//!
//! The core's worker pool is process-wide. A gateway and its shard servers
//! in one process therefore share it: a pool worker blocked on a shard's
//! socket can be the very worker that shard's pipelined probe batch waits
//! for, and both stall. Separate processes, one per shard node as in a real
//! cluster, each have their own pool.
//!
//! A node reads `<length>\n<serialized model>` on stdin, serves it with
//! [`serve`], prints its address on stdout, and shuts down when stdin
//! closes.

use crate::workloads::LOOPBACK;
use entropydb_core::prelude::{MaxEntSummary, QueryEngine};
use entropydb_core::serialize;
use entropydb_server::serve;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};

/// The flag that starts a node instead of a benchmark run.
pub const NODE_FLAG: &str = "--shard-node";

/// Largest serialized model a node accepts.
const MAX_MODEL_BYTES: usize = 1 << 30;

/// A running shard node; dropping it stops the process and waits for it.
pub struct ShardNode {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ShardNode {
    /// Starts a node serving `model`.
    pub fn spawn(model: &MaxEntSummary) -> io::Result<ShardNode> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(NODE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let text = serialize::to_string(model);
        let started = (|| -> io::Result<SocketAddr> {
            writeln!(stdin, "{}", text.len())?;
            stdin.write_all(text.as_bytes())?;
            stdin.flush()?;
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line)?;
            line.trim().parse().map_err(io::Error::other)
        })();
        let node = |addr| ShardNode {
            child,
            stdin: Some(stdin),
            addr,
        };
        match started {
            Ok(addr) => Ok(node(addr)),
            Err(e) => {
                // Dropping the node closes stdin and reaps the child.
                drop(node(SocketAddr::from(([127, 0, 0, 1], 0))));
                Err(e)
            }
        }
    }

    /// The node's server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ShardNode {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// Body of a node process.
pub fn node_main() -> ExitCode {
    let run = || -> io::Result<()> {
        let mut stdin = BufReader::new(io::stdin().lock());
        let mut line = String::new();
        stdin.read_line(&mut line)?;
        let len: usize = line.trim().parse().map_err(io::Error::other)?;
        if len > MAX_MODEL_BYTES {
            return Err(io::Error::other(format!(
                "model of {len} bytes is too large"
            )));
        }
        let mut text = vec![0u8; len];
        stdin.read_exact(&mut text)?;
        let text = String::from_utf8(text).map_err(io::Error::other)?;
        let model = serialize::from_str(&text).map_err(io::Error::other)?;
        let server = serve(QueryEngine::new(model), LOOPBACK)?;
        let mut stdout = io::stdout().lock();
        writeln!(stdout, "{}", server.local_addr())?;
        stdout.flush()?;
        io::copy(&mut stdin, &mut io::sink())?;
        server.shutdown();
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard node: {e}");
            ExitCode::FAILURE
        }
    }
}
