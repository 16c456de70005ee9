//! Plumbing shared by every workload: the `hydra-serve` child process,
//! raw wire readers that hash bytes without decoding them, the in-process
//! reference hashes they are checked against, and small statistics helpers.

use hydra_datagen::generator::DynamicGenerator;
use hydra_datagen::sink::TupleSink;
use hydra_pgwire::codec::{encode_startup, read_backend_message, write_frontend};
use hydra_pgwire::{BackendMessage, FrontendMessage, PgRowSink, StartupPacket};
use hydra_service::protocol::{write_frame, Request, Response, StreamRequest, StreamStats};
use hydra_service::{FrameSink, HydraClient};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type BenchResult<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's string error.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness, so one seed fixes
/// every input the server receives.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

// ---------------------------------------------------------------------------
// Byte hashing
// ---------------------------------------------------------------------------

/// A fast, order-sensitive 64-bit hash over whole messages.  Each message is
/// hashed in one call, so the result does not depend on how the socket
/// split the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub messages: u64,
    pub bytes: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0x243f_6a88_85a3_08d3,
            messages: 0,
            bytes: 0,
        }
    }
}

impl Digest {
    pub fn add(&mut self, message: &[u8]) {
        const K: u64 = 0x9fb2_1c65_1e98_df25;
        let mut h = (message.len() as u64).wrapping_mul(K);
        let mut chunks = message.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(K).rotate_left(29);
        }
        for &b in chunks.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(K);
        }
        self.hash = (self.hash ^ h).wrapping_mul(K).rotate_left(31) ^ (h >> 17);
        self.messages += 1;
        self.bytes += message.len() as u64;
    }
}

/// Which messages of a byte stream a [`MessageHasher`] digests.
#[derive(Debug, Clone, Copy)]
enum Framing {
    /// Frame protocol: `u32` length + JSON payload; `StreamEnd` (which
    /// carries a wall-clock time) is skipped.
    Frames,
    /// PostgreSQL backend messages: tag byte + `i32` length; only
    /// `RowDescription` and `DataRow` are digested.
    Pg,
}

/// A `Write` sink that splits what an in-process encoder writes into
/// messages and digests them exactly as the raw socket readers do.
#[derive(Debug)]
pub struct MessageHasher {
    framing: Framing,
    buf: Vec<u8>,
    pub digest: Digest,
}

impl MessageHasher {
    fn new(framing: Framing) -> Self {
        MessageHasher {
            framing,
            buf: Vec::new(),
            digest: Digest::default(),
        }
    }

    fn drain(&mut self) {
        let mut at = 0;
        loop {
            let rest = &self.buf[at..];
            let (total, keep) = match self.framing {
                Framing::Frames => {
                    let Some(h) = rest.first_chunk::<4>() else {
                        break;
                    };
                    let total = 4 + u32::from_be_bytes(*h) as usize;
                    (
                        total,
                        rest.len() >= total && !is_stream_end(&rest[4..total]),
                    )
                }
                Framing::Pg => {
                    if rest.len() < 5 {
                        break;
                    }
                    let total =
                        1 + u32::from_be_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
                    (total, matches!(rest[0], b'T' | b'D'))
                }
            };
            if rest.len() < total {
                break;
            }
            if keep {
                self.digest.add(&rest[..total]);
            }
            at += total;
        }
        self.buf.drain(..at);
    }
}

impl Write for MessageHasher {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= 1 << 16 {
            self.drain();
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.drain();
        Ok(())
    }
}

fn is_stream_end(payload: &[u8]) -> bool {
    payload.starts_with(b"{\"StreamEnd\"")
}

/// Reference digest of a frame `Stream` of `table` rows `[start, end)` in
/// batches of `batch_rows`: the in-process `FrameSink` over the same range.
pub fn frame_reference(
    generator: &DynamicGenerator,
    table: &str,
    (start, end): (u64, u64),
    batch_rows: u64,
) -> BenchResult<Digest> {
    let schema_table = generator
        .schema
        .table(table)
        .ok_or_else(|| format!("no table {table}"))?
        .clone();
    let mut hasher = MessageHasher::new(Framing::Frames);
    {
        let mut sink = FrameSink::new(&mut hasher, batch_rows, (start, end));
        sink.begin(&schema_table, end - start);
        let mut stream = generator
            .stream_range(table, start..end)
            .map_err(err("stream_range"))?;
        while let Some(block) = stream.next_block(u64::MAX) {
            sink.write_block(&block);
        }
        sink.finish();
        if let Some(e) = sink.into_error() {
            return Err(format!("reference FrameSink: {e}"));
        }
    }
    hasher.flush().ok();
    Ok(hasher.digest)
}

/// Reference digest of a pg `SELECT * FROM table`: the in-process
/// `PgRowSink` over the whole relation (`RowDescription` + `DataRow`s).
pub fn pg_reference(generator: &DynamicGenerator, table: &str) -> BenchResult<(Digest, u64)> {
    let schema_table = generator
        .schema
        .table(table)
        .ok_or_else(|| format!("no table {table}"))?
        .clone();
    let mut hasher = MessageHasher::new(Framing::Pg);
    let rows;
    {
        let mut sink = PgRowSink::new(&mut hasher, 1024);
        let mut stream = generator.stream(table).map_err(err("stream"))?;
        sink.begin(&schema_table, 0);
        while let Some(block) = stream.next_block(u64::MAX) {
            sink.write_block(&block);
        }
        sink.finish();
        rows = sink.rows;
        if let Some(e) = sink.error.take() {
            return Err(format!("reference PgRowSink: {e}"));
        }
    }
    hasher.flush().ok();
    Ok((hasher.digest, rows))
}

// ---------------------------------------------------------------------------
// Raw wire readers
// ---------------------------------------------------------------------------

/// One frame stream read off the socket without decoding a single value.
#[derive(Debug)]
pub struct RawStream {
    pub digest: Digest,
    pub stats: StreamStats,
    pub elapsed: Duration,
}

/// Sends a `Stream` request on a fresh connection and digests every frame
/// up to (not including) `StreamEnd`.
pub fn frame_stream_raw(addr: &str, request: StreamRequest) -> BenchResult<RawStream> {
    let started = Instant::now();
    let mut socket = TcpStream::connect(addr).map_err(err("connect frame"))?;
    socket.set_nodelay(true).ok();
    let mut out = Vec::new();
    write_frame(&mut out, &Request::Stream(request)).map_err(err("encode stream request"))?;
    socket.write_all(&out).map_err(err("send stream request"))?;
    let mut reader = BufReader::with_capacity(1 << 20, socket);
    let mut digest = Digest::default();
    // Grown to the largest frame seen and never cleared: each frame is read
    // over the previous one's bytes.
    let mut buf: Vec<u8> = vec![0; 1 << 18];
    loop {
        reader
            .read_exact(&mut buf[..4])
            .map_err(err("read frame header"))?;
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if buf.len() < 4 + len {
            buf.resize(4 + len, 0);
        }
        let frame = &mut buf[..4 + len];
        reader
            .read_exact(&mut frame[4..])
            .map_err(err("read frame payload"))?;
        let payload = &frame[4..];
        if is_stream_end(payload) {
            let text = std::str::from_utf8(payload).map_err(err("StreamEnd utf8"))?;
            let response: Response = serde_json::from_str(text).map_err(err("StreamEnd json"))?;
            let Response::StreamEnd(stats) = response else {
                return Err("malformed StreamEnd".into());
            };
            return Ok(RawStream {
                digest,
                stats,
                elapsed: started.elapsed(),
            });
        }
        if payload.starts_with(b"{\"Error\"") {
            return Err(format!(
                "stream refused: {}",
                String::from_utf8_lossy(payload)
            ));
        }
        digest.add(frame);
    }
}

/// One pg simple-query scan read off the socket without decoding values.
#[derive(Debug)]
pub struct RawScan {
    pub digest: Digest,
    pub tag: String,
    pub elapsed: Duration,
}

/// Connects to the pg listener bound to `database`, runs `sql` and digests
/// the `RowDescription` and `DataRow` messages.
pub fn pg_scan_raw(addr: &str, database: &str, sql: &str) -> BenchResult<RawScan> {
    let started = Instant::now();
    let mut socket = TcpStream::connect(addr).map_err(err("connect pg"))?;
    socket.set_nodelay(true).ok();
    let mut out = Vec::new();
    encode_startup(
        &StartupPacket::Startup {
            major: 3,
            minor: 0,
            params: vec![
                ("user".to_string(), "perfbench".to_string()),
                ("database".to_string(), database.to_string()),
            ],
        },
        &mut out,
    );
    socket.write_all(&out).map_err(err("pg startup"))?;
    let mut reader = BufReader::with_capacity(1 << 20, socket.try_clone().map_err(err("clone"))?);
    loop {
        match read_backend_message(&mut reader).map_err(err("pg handshake"))? {
            Some(BackendMessage::ReadyForQuery { .. }) => break,
            Some(e @ BackendMessage::ErrorResponse { .. }) => {
                return Err(format!("pg startup: {e:?}"))
            }
            Some(_) => {}
            None => return Err("pg closed during startup".into()),
        }
    }
    write_frontend(
        &mut socket,
        &FrontendMessage::Query {
            sql: sql.to_string(),
        },
    )
    .map_err(err("pg query"))?;
    let mut digest = Digest::default();
    // Reused like the frame reader's buffer: grown, never cleared.
    let mut buf: Vec<u8> = vec![0; 1 << 12];
    let mut tag = String::new();
    loop {
        reader.read_exact(&mut buf[..5]).map_err(err("pg header"))?;
        let len = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        if buf.len() < 1 + len {
            buf.resize(1 + len, 0);
        }
        let message = &mut buf[..1 + len];
        reader
            .read_exact(&mut message[5..])
            .map_err(err("pg body"))?;
        match message[0] {
            b'T' | b'D' => digest.add(message),
            b'C' => tag = String::from_utf8_lossy(&message[5..message.len() - 1]).into_owned(),
            b'E' => {
                return Err(format!(
                    "pg error: {}",
                    String::from_utf8_lossy(&message[5..])
                ))
            }
            b'Z' => break,
            _ => {}
        }
    }
    write_frontend(&mut socket, &FrontendMessage::Terminate).ok();
    Ok(RawScan {
        digest,
        tag,
        elapsed: started.elapsed(),
    })
}

// ---------------------------------------------------------------------------
// The server child process
// ---------------------------------------------------------------------------

/// A running `hydra-serve`, owned by the benchmark and always reaped.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
    pub pg_addr: String,
    pub spawned: Instant,
}

/// The release `hydra-serve` binary: `$HYDRA_SERVE`, which `run.sh` sets
/// after building it.
pub fn server_binary() -> BenchResult<PathBuf> {
    std::env::var_os("HYDRA_SERVE")
        .map(PathBuf::from)
        .ok_or_else(|| "HYDRA_SERVE is not set; run the benchmark through run.sh".into())
}

impl Server {
    /// Spawns `hydra-serve` on ephemeral loopback ports with a WAL in
    /// `wal_dir`, returning once both listeners are up.
    pub fn spawn(wal_dir: &Path) -> BenchResult<Server> {
        let binary = server_binary()?;
        let spawned = Instant::now();
        let mut child = Command::new(&binary)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--pg-addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ])
            .arg("--wal-dir")
            .arg(wal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child: Some(child),
            stdout: Some(reader),
            addr: String::new(),
            pg_addr: String::new(),
            spawned,
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        while server.addr.is_empty() || server.pg_addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "hydra-serve did not report its listeners".to_string())?;
            if let Some(a) = line.strip_prefix("hydra-serve listening on ") {
                server.addr = a.trim().to_string();
            } else if let Some(a) = line.strip_prefix("hydra-serve pg listening on ") {
                server.pg_addr = a.trim().to_string();
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> BenchResult<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(err("read /proc status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    pub fn client(&self) -> BenchResult<HydraClient> {
        HydraClient::connect(self.addr.as_str()).map_err(err("connect"))
    }

    /// Sends a frame `Shutdown` and waits for a clean exit.
    pub fn shutdown(mut self) -> BenchResult<()> {
        self.client()?.shutdown().map_err(err("shutdown"))?;
        let status = self
            .child
            .take()
            .expect("child")
            .wait()
            .map_err(err("wait"))?;
        if let Some(reader) = self.stdout.take() {
            reader.join().ok();
        }
        if !status.success() {
            return Err(format!("hydra-serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        if let Some(reader) = self.stdout.take() {
            reader.join().ok();
        }
    }
}

/// Sums every sample of `name` in a `Stats` snapshot (all label values).
pub fn stat(samples: &[hydra_service::protocol::MetricSample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// One labelled sample of a `Stats` snapshot (0 when absent).
pub fn stat_labeled(
    samples: &[hydra_service::protocol::MetricSample],
    name: &str,
    label_value: &str,
) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && s.label_value == label_value)
        .map(|s| s.value)
        .sum()
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
