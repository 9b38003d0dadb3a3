//! Multi-process TCP ring transport with a rank-0 rendezvous server.
//!
//! This is the backend that lets the SPMD trainers in `spdkfac-core` run
//! unchanged across OS processes (one rank per process, `spdkfac_node`
//! launcher in `spdkfac-bench`): the ring algorithms see the exact same
//! [`Transport`] contract as the in-process channels, so a TCP run is
//! bit-identical to a thread run.
//!
//! ## Wire framing
//!
//! Each [`RingMsg`] is one length-prefixed frame, all little-endian. The
//! body is the encoded [`WirePayload`](crate::wire::WirePayload) and the
//! tag names its format (0 = f64, 1 = f32, 2 = f16, 3 = sparse), so a
//! receiver never needs out-of-band format agreement and relays can
//! forward frames verbatim:
//!
//! ```text
//! +---------------+----------+---------------+------------------------+
//! | origin: u64   | tag: u8  | nbytes: u64   | nbytes encoded payload |
//! +---------------+----------+---------------+------------------------+
//! ```
//!
//! Frames are written through a `BufWriter` and flushed once per message
//! (one syscall per ring hop, `TCP_NODELAY` set), and read through a
//! `BufReader` with `read_exact` — partial reads cannot tear a frame.
//!
//! ## Rendezvous protocol
//!
//! Group formation is a one-shot star through a rendezvous server (hosted
//! by rank 0, or by a launcher parent). Little-endian binary, one TCP
//! connection per joining rank:
//!
//! 1. client → server: `HELLO_MAGIC: u64`, a length-prefixed **auth
//!    token** (the shared secret from `SPDKFAC_TOKEN`; both sides empty
//!    disables the check — a mismatch is answered with a `REJECT` frame
//!    and the connection closed, without consuming a world slot), then
//!    `proposed_rank: i64` (`-1` = assign for me), `addr_len: u32`,
//!    `addr_len` UTF-8 bytes of the client's ring listener address
//!    (`ip:port`), then one more length-prefixed string: the client's
//!    **auxiliary service address** (empty = none; rank 0 advertises its
//!    telemetry collector here).
//! 2. Server waits until exactly `world` clients registered, assigns ranks
//!    (explicit claims win, duplicates are an error; unclaimed slots fill
//!    in arrival order), then answers every client:
//!    server → client: `ASSIGN_MAGIC: u64`, `rank: u32`, `world: u32`,
//!    then `world` × (`addr_len: u32` + bytes) — the ring listener
//!    addresses in rank order — then `world` × length-prefixed strings:
//!    the auxiliary addresses in rank order.
//! 3. Each rank dials its **right** neighbour's listener (connect retried
//!    with exponential backoff — peers may still be starting), writes a
//!    16-byte `(membership_epoch, rank)` handshake, and accepts exactly
//!    one connection from its **left** neighbour, validating both fields
//!    (the epoch check keeps a stale pre-resize dial from wiring into a
//!    new epoch's ring). The one-shot server always forms epoch 0. With
//!    `world == 1` no sockets are made at all
//!    ([`crate::transport::LoopbackTransport`]).
//!
//! Every blocking step (rendezvous dial, neighbour dial, accept, handshake
//! read) is bounded by [`TcpConfig`] deadlines, so a missing peer surfaces
//! as [`CommError::Timeout`] instead of a hang.
//!
//! ## Elastic rendezvous
//!
//! [`ElasticRendezvous`] is the long-lived variant serving successive
//! **membership epochs** for world resize: `REJOIN` frames open a
//! transition window after a rank death (or a voluntary leave), `HELLO`s
//! arriving after epoch 0 queue as pending joiners, and `POLL` answers a
//! non-blocking status query. Each transition re-ranks survivors in old
//! rank order, appends joiners, bumps the epoch, and distributes
//! `EASSIGN` frames (epoch, rank, world, state-source rank, peer + aux
//! tables). See the type-level docs for the full protocol.

use crate::error::CommError;
use crate::ring::RingMsg;
use crate::transport::Transport;
use crate::wire::WirePayload;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

const HELLO_MAGIC: u64 = 0x5350_444b_4641_4331; // "SPDKFAC1"
const ASSIGN_MAGIC: u64 = 0x5350_444b_4641_4332; // "SPDKFAC2"
const REJOIN_MAGIC: u64 = 0x5350_444b_4641_4333; // "SPDKFAC3"
const POLL_MAGIC: u64 = 0x5350_444b_4641_4334; // "SPDKFAC4"
const REJECT_MAGIC: u64 = 0x5350_444b_4641_4335; // "SPDKFAC5"
const POLL_REPLY_MAGIC: u64 = 0x5350_444b_4641_4336; // "SPDKFAC6"
const EASSIGN_MAGIC: u64 = 0x5350_444b_4641_4337; // "SPDKFAC7"

/// Environment variable carrying the shared rendezvous secret. Every HELLO /
/// REJOIN / POLL frame carries the client's token; the server rejects
/// mismatches with a [`CommError::Rendezvous`] before any rank is assigned.
/// Unset (or empty) on both sides disables the check.
pub const TOKEN_ENV: &str = "SPDKFAC_TOKEN";

/// The ambient shared secret: `SPDKFAC_TOKEN`, or empty when unset.
pub fn env_token() -> String {
    std::env::var(TOKEN_ENV).unwrap_or_default()
}

/// Configuration of a TCP-backed group member.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Rendezvous server address (`host:port`). With
    /// [`TcpConfig::host_rendezvous`] set this rank binds and serves it;
    /// otherwise it dials it (with retry — the server may start late).
    pub rendezvous: String,
    /// Rank to claim at rendezvous; `None` lets the server assign one in
    /// arrival order.
    pub rank: Option<usize>,
    /// Host the rendezvous server from this process (conventionally rank
    /// 0, or a launcher parent that is not itself a rank).
    pub host_rendezvous: bool,
    /// Local IP the ring listener binds to (an ephemeral port is chosen).
    pub bind_ip: String,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Additional connect attempts after the first failure.
    pub connect_retries: u32,
    /// Initial retry backoff; doubles per attempt, capped at one second.
    pub connect_backoff: Duration,
    /// Overall deadline for group formation (rendezvous + neighbour
    /// handshake).
    pub handshake_timeout: Duration,
    /// Socket read timeout for ring frames; `None` blocks forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for ring frames; `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Auxiliary service address advertised through the rendezvous (e.g.
    /// rank 0's telemetry collector). Every member learns the whole aux
    /// table from the assignment reply ([`TcpJoin::aux_addrs`]).
    pub aux_addr: Option<String>,
    /// Shared rendezvous secret sent with every HELLO / REJOIN / POLL.
    /// `None` falls back to [`env_token`] (`SPDKFAC_TOKEN`); the server
    /// rejects mismatches with [`CommError::Rendezvous`].
    pub token: Option<String>,
}

impl TcpConfig {
    /// Defaults tuned for single-machine loopback rings: 1 s per connect
    /// attempt, 100 retries from 10 ms backoff, 30 s frame timeouts.
    pub fn new(rendezvous: impl Into<String>) -> Self {
        TcpConfig {
            rendezvous: rendezvous.into(),
            rank: None,
            host_rendezvous: false,
            bind_ip: "127.0.0.1".into(),
            connect_timeout: Duration::from_secs(1),
            connect_retries: 100,
            connect_backoff: Duration::from_millis(10),
            handshake_timeout: Duration::from_secs(30),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            aux_addr: None,
            token: None,
        }
    }

    /// The token this member presents at the rendezvous: the explicit
    /// override, or the ambient `SPDKFAC_TOKEN`.
    pub fn effective_token(&self) -> String {
        self.token.clone().unwrap_or_else(env_token)
    }

    /// Claims an explicit rank (and hosts the rendezvous when it is 0 —
    /// the paper-style convention; clear [`TcpConfig::host_rendezvous`]
    /// afterwards if a separate launcher hosts it).
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self.host_rendezvous = rank == 0;
        self
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

fn write_frame(w: &mut impl Write, msg: &RingMsg) -> std::io::Result<()> {
    let body_len = msg.payload.wire_bytes();
    let mut buf = Vec::with_capacity(17 + body_len);
    buf.extend_from_slice(&(msg.origin as u64).to_le_bytes());
    buf.push(msg.payload.tag());
    buf.extend_from_slice(&(body_len as u64).to_le_bytes());
    match &msg.payload {
        WirePayload::F64(v) => {
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        WirePayload::F32(b)
        | WirePayload::F16(b)
        | WirePayload::Sparse(b)
        | WirePayload::PackedSym(b) => {
            buf.extend_from_slice(b);
        }
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Frame-body bytes reserved before any arrive. The length header is
/// untrusted, so a larger body grows (by doubling) as its bytes are
/// actually read. The benchmark's ring chunks stay below this and take one
/// allocation; an f64 chunk of a factor with d ≳ 512 at world 2 does not,
/// and pays a few reallocations.
const FRAME_PREALLOC: usize = 1 << 20;

fn read_frame(r: &mut impl Read) -> std::io::Result<RingMsg> {
    let mut hdr = [0u8; 17];
    r.read_exact(&mut hdr)?;
    let origin = u64::from_le_bytes(hdr[..8].try_into().expect("8 bytes")) as usize;
    let tag = hdr[8];
    let claimed = u64::from_le_bytes(hdr[9..].try_into().expect("8 bytes"));
    let mut bytes = Vec::with_capacity(claimed.min(FRAME_PREALLOC as u64) as usize);
    r.by_ref().take(claimed).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != claimed {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("frame body ended after {} of {claimed} bytes", bytes.len()),
        ));
    }
    let nbytes = bytes.len();
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let payload = match tag {
        0 => {
            if !nbytes.is_multiple_of(8) {
                return Err(bad(format!("f64 frame body of {nbytes} bytes")));
            }
            WirePayload::F64(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            )
        }
        1 => WirePayload::F32(bytes),
        2 => WirePayload::F16(bytes),
        3 => WirePayload::Sparse(bytes),
        4 => WirePayload::PackedSym(bytes),
        t => return Err(bad(format!("unknown wire payload tag {t}"))),
    };
    Ok(RingMsg { origin, payload })
}

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_str(w: &mut impl Write, s: &str) -> std::io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut impl Read) -> std::io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 4096 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("rendezvous string of {len} bytes exceeds protocol limit"),
        ));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

// ---------------------------------------------------------------------------
// Rendezvous server
// ---------------------------------------------------------------------------

/// One-shot rendezvous: accepts `world` registrations, assigns ranks, and
/// sends every member the full peer-address table.
#[derive(Debug)]
pub struct RendezvousServer {
    listener: TcpListener,
    world: usize,
    token: String,
}

impl RendezvousServer {
    /// Binds the rendezvous listener for a `world`-rank group. The expected
    /// shared secret is the ambient `SPDKFAC_TOKEN` (override with
    /// [`RendezvousServer::with_token`]).
    pub fn bind(addr: &str, world: usize) -> Result<Self, CommError> {
        assert!(world > 0, "rendezvous for a zero-rank group");
        let listener = TcpListener::bind(addr)
            .map_err(|e| CommError::from_io(&format!("bind rendezvous {addr}"), e))?;
        Ok(RendezvousServer {
            listener,
            world,
            token: env_token(),
        })
    }

    /// Overrides the expected shared secret (empty disables the check).
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Serves exactly one group formation, then returns the rank-ordered
    /// ring listener addresses. Registration reads are bounded by a 30 s
    /// per-client timeout.
    pub fn serve(self) -> Result<Vec<String>, CommError> {
        let world = self.world;
        let mut clients: Vec<(TcpStream, Option<usize>, String, String)> =
            Vec::with_capacity(world);
        while clients.len() < world {
            let (stream, peer) = self
                .listener
                .accept()
                .map_err(|e| CommError::from_io("rendezvous accept", e))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| CommError::from_io("rendezvous set timeout", e))?;
            let mut stream = stream;
            let ctx = format!("rendezvous registration from {peer}");
            let magic = read_u64(&mut stream).map_err(|e| CommError::from_io(&ctx, e))?;
            if magic != HELLO_MAGIC {
                return Err(CommError::Rendezvous(format!(
                    "{ctx}: bad magic {magic:#x}"
                )));
            }
            let token = read_str(&mut stream).map_err(|e| CommError::from_io(&ctx, e))?;
            let proposed = read_u64(&mut stream).map_err(|e| CommError::from_io(&ctx, e))? as i64;
            let addr = read_str(&mut stream).map_err(|e| CommError::from_io(&ctx, e))?;
            let aux = read_str(&mut stream).map_err(|e| CommError::from_io(&ctx, e))?;
            if token != self.token {
                // Auth failure: reject this client without consuming a
                // world slot, and keep waiting for authorized members.
                eprintln!("rendezvous: rejecting {peer}: bad token");
                let _ = reject(&mut stream, "rendezvous token mismatch");
                continue;
            }
            let claim = if proposed < 0 {
                None
            } else if (proposed as usize) < world {
                Some(proposed as usize)
            } else {
                return Err(CommError::Rendezvous(format!(
                    "{ctx}: rank {proposed} out of range for world {world}"
                )));
            };
            clients.push((stream, claim, addr, aux));
        }
        // Assign ranks: explicit claims first, then fill free slots in
        // arrival order.
        let mut taken = vec![false; world];
        let mut ranks = vec![usize::MAX; world]; // client index -> rank
        for (i, (_, claim, _, _)) in clients.iter().enumerate() {
            if let Some(r) = claim {
                if taken[*r] {
                    return Err(CommError::Rendezvous(format!(
                        "rank {r} claimed by two members"
                    )));
                }
                taken[*r] = true;
                ranks[i] = *r;
            }
        }
        let mut free = (0..world).filter(|&r| !taken[r]);
        for (i, (_, claim, _, _)) in clients.iter().enumerate() {
            if claim.is_none() {
                ranks[i] = free.next().expect("free slot per unclaimed member");
            }
        }
        let mut peers = vec![String::new(); world];
        let mut auxes = vec![String::new(); world];
        for (i, (_, _, addr, aux)) in clients.iter().enumerate() {
            peers[ranks[i]] = addr.clone();
            auxes[ranks[i]] = aux.clone();
        }
        for (i, (stream, _, _, _)) in clients.iter_mut().enumerate() {
            let ctx = "rendezvous assignment reply";
            write_u64(stream, ASSIGN_MAGIC).map_err(|e| CommError::from_io(ctx, e))?;
            write_u32(stream, ranks[i] as u32).map_err(|e| CommError::from_io(ctx, e))?;
            write_u32(stream, world as u32).map_err(|e| CommError::from_io(ctx, e))?;
            for p in &peers {
                write_str(stream, p).map_err(|e| CommError::from_io(ctx, e))?;
            }
            for a in &auxes {
                write_str(stream, a).map_err(|e| CommError::from_io(ctx, e))?;
            }
            stream.flush().map_err(|e| CommError::from_io(ctx, e))?;
        }
        Ok(peers)
    }

    /// Binds `addr` and serves one group formation on a background thread.
    /// Returns the bound address immediately; the thread exits after the
    /// group forms (or the formation fails — members see the error through
    /// their own deadlines).
    pub fn spawn(addr: &str, world: usize) -> Result<SocketAddr, CommError> {
        let server = RendezvousServer::bind(addr, world)?;
        let bound = server.local_addr();
        std::thread::Builder::new()
            .name("spdkfac-rendezvous".into())
            .spawn(move || {
                if let Err(e) = server.serve() {
                    eprintln!("rendezvous server failed: {e}");
                }
            })
            .map_err(|e| CommError::Io(format!("spawn rendezvous thread: {e}")))?;
        Ok(bound)
    }
}

/// Writes a rejection frame (magic + reason) to a client and flushes.
fn reject(stream: &mut TcpStream, reason: &str) -> std::io::Result<()> {
    write_u64(stream, REJECT_MAGIC)?;
    write_str(stream, reason)?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Group member connection
// ---------------------------------------------------------------------------

fn resolve(addr: &str) -> Result<SocketAddr, CommError> {
    addr.to_socket_addrs()
        .map_err(|e| CommError::Io(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| CommError::Io(format!("resolve {addr}: no addresses")))
}

/// Dials `addr` with per-attempt timeout and exponential backoff — the
/// peer (rendezvous server or ring neighbour) may not be listening yet.
fn connect_retry(addr: &str, cfg: &TcpConfig, what: &str) -> Result<TcpStream, CommError> {
    let target = resolve(addr)?;
    let mut delay = cfg.connect_backoff.max(Duration::from_millis(1));
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..=cfg.connect_retries {
        match TcpStream::connect_timeout(&target, cfg.connect_timeout) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
        if attempt < cfg.connect_retries {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(1));
        }
    }
    let last = last.expect("at least one attempt");
    Err(CommError::Timeout(format!(
        "connect to {what} {addr} failed after {} attempts: {last}",
        cfg.connect_retries + 1
    )))
}

/// Accepts one connection, polling until `deadline`.
fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
    what: &str,
) -> Result<TcpStream, CommError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| CommError::from_io("listener set_nonblocking", e))?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| CommError::from_io("accepted stream set_blocking", e))?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(CommError::Timeout(format!("accept from {what} timed out")));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(CommError::from_io(&format!("accept from {what}"), e)),
        }
    }
}

/// The fully-connected TCP transport of one rank: a framed writer to the
/// right neighbour and a framed reader from the left neighbour. Error
/// contexts carry the peer *rank*, precomputed at connect time, so a
/// poisoning log line names the broken ring edge without a trace.
#[derive(Debug)]
pub struct TcpTransport {
    to_right: BufWriter<TcpStream>,
    from_left: BufReader<TcpStream>,
    send_ctx: String,
    recv_ctx: String,
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: RingMsg) -> Result<(), CommError> {
        write_frame(&mut self.to_right, &msg).map_err(|e| CommError::from_io(&self.send_ctx, e))
    }

    fn recv(&mut self) -> Result<RingMsg, CommError> {
        read_frame(&mut self.from_left).map_err(|e| CommError::from_io(&self.recv_ctx, e))
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

/// The result of joining a TCP group: the assigned rank, the connected
/// ring transport, and the rendezvous-distributed auxiliary address table
/// (rank-indexed; empty string = that rank advertised nothing).
#[derive(Debug)]
pub struct TcpJoin {
    /// The rank the rendezvous assigned (or confirmed).
    pub rank: usize,
    /// The connected ring transport.
    pub transport: Box<dyn Transport>,
    /// Per-rank auxiliary service addresses ([`TcpConfig::aux_addr`]);
    /// `aux_addrs[0]` is where rank 0's telemetry collector listens.
    pub aux_addrs: Vec<String>,
}

/// Joins a `world`-rank TCP group: hosts/dials the rendezvous, exchanges
/// listener addresses, and wires up the ring neighbours. Returns the
/// assigned rank, the connected transport, and the aux-address table
/// (`world == 1` short-circuits to a loopback with no sockets).
pub fn connect(cfg: &TcpConfig, world: usize) -> Result<TcpJoin, CommError> {
    assert!(world > 0, "tcp::connect: zero-rank group");
    if world == 1 {
        return Ok(TcpJoin {
            rank: cfg.rank.unwrap_or(0),
            transport: Box::new(crate::transport::LoopbackTransport::default()),
            aux_addrs: vec![cfg.aux_addr.clone().unwrap_or_default()],
        });
    }
    let deadline = Instant::now() + cfg.handshake_timeout;
    if cfg.host_rendezvous {
        RendezvousServer::spawn(&cfg.rendezvous, world)?;
    }

    // Ring listener first, so its address can be registered.
    let listener = TcpListener::bind((cfg.bind_ip.as_str(), 0))
        .map_err(|e| CommError::from_io(&format!("bind ring listener on {}", cfg.bind_ip), e))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| CommError::from_io("ring listener addr", e))?
        .to_string();

    // Register at the rendezvous and learn (rank, peer table).
    let mut rdv = connect_retry(&cfg.rendezvous, cfg, "rendezvous server")?;
    rdv.set_read_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| CommError::from_io("rendezvous set timeout", e))?;
    let reg = "rendezvous registration";
    write_u64(&mut rdv, HELLO_MAGIC).map_err(|e| CommError::from_io(reg, e))?;
    write_str(&mut rdv, &cfg.effective_token()).map_err(|e| CommError::from_io(reg, e))?;
    let proposed = cfg.rank.map(|r| r as i64).unwrap_or(-1);
    write_u64(&mut rdv, proposed as u64).map_err(|e| CommError::from_io(reg, e))?;
    write_str(&mut rdv, &my_addr).map_err(|e| CommError::from_io(reg, e))?;
    write_str(&mut rdv, cfg.aux_addr.as_deref().unwrap_or(""))
        .map_err(|e| CommError::from_io(reg, e))?;
    rdv.flush().map_err(|e| CommError::from_io(reg, e))?;
    let asn = "rendezvous assignment";
    let magic = read_u64(&mut rdv).map_err(|e| CommError::from_io(asn, e))?;
    if magic == REJECT_MAGIC {
        let reason = read_str(&mut rdv).unwrap_or_else(|_| "no reason given".into());
        return Err(CommError::Rendezvous(format!(
            "rendezvous rejected this member: {reason}"
        )));
    }
    if magic != ASSIGN_MAGIC {
        return Err(CommError::Rendezvous(format!(
            "{asn}: bad magic {magic:#x}"
        )));
    }
    let rank = read_u32(&mut rdv).map_err(|e| CommError::from_io(asn, e))? as usize;
    let got_world = read_u32(&mut rdv).map_err(|e| CommError::from_io(asn, e))? as usize;
    if got_world != world {
        return Err(CommError::Rendezvous(format!(
            "server formed a {got_world}-rank group, expected {world}"
        )));
    }
    if let Some(claimed) = cfg.rank {
        if claimed != rank {
            return Err(CommError::Rendezvous(format!(
                "claimed rank {claimed} but was assigned {rank}"
            )));
        }
    }
    let mut peers = Vec::with_capacity(world);
    for _ in 0..world {
        peers.push(read_str(&mut rdv).map_err(|e| CommError::from_io(asn, e))?);
    }
    let mut aux_addrs = Vec::with_capacity(world);
    for _ in 0..world {
        aux_addrs.push(read_str(&mut rdv).map_err(|e| CommError::from_io(asn, e))?);
    }
    drop(rdv);

    let transport = wire_ring(cfg, &listener, deadline, rank, world, 0, &peers)?;
    Ok(TcpJoin {
        rank,
        transport,
        aux_addrs,
    })
}

/// Dials the right neighbour, accepts the left, and exchanges
/// `(epoch, rank)` handshakes — the shared ring-wiring step of both the
/// one-shot and the elastic connect paths. The epoch in the handshake keeps
/// a stale dial from a previous membership epoch from being mistaken for
/// the current left neighbour.
fn wire_ring(
    cfg: &TcpConfig,
    listener: &TcpListener,
    deadline: Instant,
    rank: usize,
    world: usize,
    epoch: u64,
    peers: &[String],
) -> Result<Box<dyn Transport>, CommError> {
    let right_rank = (rank + 1) % world;
    let left_rank = (rank + world - 1) % world;
    let mut right = connect_retry(&peers[right_rank], cfg, "right neighbour")?;
    write_u64(&mut right, epoch)
        .and_then(|()| write_u64(&mut right, rank as u64))
        .and_then(|()| right.flush())
        .map_err(|e| CommError::from_io("handshake to right neighbour", e))?;
    let mut left = accept_deadline(listener, deadline, "left neighbour")?;
    left.set_read_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| CommError::from_io("handshake set timeout", e))?;
    let peer_epoch = read_u64(&mut left).map_err(|e| CommError::from_io("left handshake", e))?;
    let who = read_u64(&mut left).map_err(|e| CommError::from_io("left handshake", e))? as usize;
    if peer_epoch != epoch || who != left_rank {
        return Err(CommError::Rendezvous(format!(
            "rank {rank} epoch {epoch}: expected left neighbour {left_rank}, \
             got rank {who} of epoch {peer_epoch}"
        )));
    }

    // Steady-state frame timeouts.
    right
        .set_write_timeout(cfg.write_timeout)
        .map_err(|e| CommError::from_io("set write timeout", e))?;
    left.set_read_timeout(cfg.read_timeout)
        .map_err(|e| CommError::from_io("set read timeout", e))?;
    Ok(Box::new(TcpTransport {
        to_right: BufWriter::new(right),
        from_left: BufReader::new(left),
        send_ctx: format!("send to right neighbour (rank {right_rank})"),
        recv_ctx: format!("recv from left neighbour (rank {left_rank})"),
    }))
}

// ---------------------------------------------------------------------------
// Elastic rendezvous: membership epochs, rejoin, and world resize
// ---------------------------------------------------------------------------

/// What a member tells the elastic rendezvous when it (re-)connects.
#[derive(Debug, Clone)]
pub enum JoinIntent {
    /// First contact: a founder of epoch 0 (rank claims honored there), or
    /// a late joiner queued for the next membership epoch.
    Fresh { claim: Option<usize> },
    /// A member of membership epoch `epoch` reporting for the next epoch
    /// after a resize trigger (peer death or a pending joiner). Survivors
    /// keep their relative rank order; the lowest surviving old rank
    /// becomes the state source (new rank 0).
    Rejoin { epoch: u64, old_rank: usize },
}

/// The result of joining (or rejoining) an elastic TCP group.
#[derive(Debug)]
pub struct ElasticJoin {
    /// The membership epoch this assignment belongs to (monotonically
    /// increasing; 0 is the founding epoch).
    pub epoch: u64,
    /// The rank assigned within this epoch.
    pub rank: usize,
    /// World size of this epoch.
    pub world: usize,
    /// The rank holding authoritative training state for this epoch
    /// (always 0 when any prior-epoch survivor is present); `None` on a
    /// fresh start with no state to hand off.
    pub state_source: Option<usize>,
    /// The connected ring transport.
    pub transport: Box<dyn Transport>,
    /// Per-rank auxiliary service addresses, re-distributed every epoch.
    pub aux_addrs: Vec<String>,
}

/// A non-blocking view of the elastic rendezvous, answered to `POLL`
/// requests and exposed by [`ElasticHandle`] for in-process launchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticStatus {
    /// Current membership epoch.
    pub epoch: u64,
    /// World size of the current epoch (0 before epoch 0 forms).
    pub world: usize,
    /// Joiners queued for the next epoch.
    pub pending: usize,
}

/// Handle to a spawned [`ElasticRendezvous`]: the bound address plus live
/// epoch/world/pending counters (shared with the serving thread), and a
/// stop flag for clean teardown in tests.
#[derive(Debug, Clone)]
pub struct ElasticHandle {
    addr: SocketAddr,
    epoch: std::sync::Arc<std::sync::atomic::AtomicU64>,
    world: std::sync::Arc<std::sync::atomic::AtomicU64>,
    pending: std::sync::Arc<std::sync::atomic::AtomicU64>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl ElasticHandle {
    /// The rendezvous address members dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live status, mirrored by the serving thread after every transition.
    pub fn status(&self) -> ElasticStatus {
        use std::sync::atomic::Ordering;
        ElasticStatus {
            epoch: self.epoch.load(Ordering::SeqCst),
            world: self.world.load(Ordering::SeqCst) as usize,
            pending: self.pending.load(Ordering::SeqCst) as usize,
        }
    }

    /// Asks the serving thread to exit at its next poll tick.
    pub fn stop(&self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

/// A member connection held by the elastic server until its epoch forms.
#[derive(Debug)]
struct HeldMember {
    stream: TcpStream,
    /// Rank claim (founders only) or old rank (rejoiners).
    old_rank: Option<usize>,
    addr: String,
    aux: String,
}

/// Long-lived rendezvous serving successive membership epochs.
///
/// Epoch 0 forms exactly like the one-shot server: `initial_world`
/// authorized HELLOs arrive, ranks are assigned (claims honored), and the
/// peer table is distributed — with the epoch and a state-source marker
/// prepended. The server then stays up:
///
/// - a `HELLO` after epoch 0 queues the client as a **pending joiner**
///   (its reply is deferred to the next epoch transition);
/// - a `REJOIN` from a current member opens a **transition window**
///   ([`ElasticRendezvous::with_rejoin_window`]); the next epoch forms
///   when every current member has rejoined or the window expires —
///   members that never rejoined are declared dead;
/// - a `POLL` is answered immediately with (epoch, world, pending), so
///   rank 0 can piggyback a "resize pending" flag onto the training loop
///   without blocking.
///
/// Survivors are re-ranked in old-rank order (so the lowest surviving rank
/// becomes rank 0, the state source); pending joiners are appended behind
/// them. A `REJOIN` carrying a stale epoch — a member that missed a
/// transition because it was blocked past the window — is demoted to a
/// pending joiner: it re-enters at the next transition and receives the
/// authoritative state broadcast like any fresh member.
#[derive(Debug)]
pub struct ElasticRendezvous {
    listener: TcpListener,
    initial_world: usize,
    token: String,
    rejoin_window: Duration,
}

impl ElasticRendezvous {
    /// Binds the elastic rendezvous for a group founding at
    /// `initial_world` ranks. Token defaults to the ambient
    /// `SPDKFAC_TOKEN`; the rejoin window defaults to 5 s.
    pub fn bind(addr: &str, initial_world: usize) -> Result<Self, CommError> {
        assert!(
            initial_world > 0,
            "elastic rendezvous for a zero-rank group"
        );
        let listener = TcpListener::bind(addr)
            .map_err(|e| CommError::from_io(&format!("bind elastic rendezvous {addr}"), e))?;
        Ok(ElasticRendezvous {
            listener,
            initial_world,
            token: env_token(),
            rejoin_window: Duration::from_secs(5),
        })
    }

    /// Overrides the expected shared secret (empty disables the check).
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// Overrides the transition window: after the first REJOIN of a
    /// transition, members have this long to report before being declared
    /// dead. Must exceed the members' frame read timeout, or a rank blocked
    /// in a collective when a peer dies can miss the window.
    pub fn with_rejoin_window(mut self, window: Duration) -> Self {
        self.rejoin_window = window;
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Serves membership epochs on a background thread until the handle's
    /// stop flag is raised (or the process exits).
    pub fn spawn(self) -> Result<ElasticHandle, CommError> {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        use std::sync::Arc;
        let handle = ElasticHandle {
            addr: self.local_addr(),
            epoch: Arc::new(AtomicU64::new(0)),
            world: Arc::new(AtomicU64::new(0)),
            pending: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let mirror = handle.clone();
        std::thread::Builder::new()
            .name("spdkfac-elastic-rendezvous".into())
            .spawn(move || {
                if let Err(e) = self.serve_loop(&mirror) {
                    eprintln!("elastic rendezvous failed: {e}");
                }
            })
            .map_err(|e| CommError::Io(format!("spawn elastic rendezvous thread: {e}")))?;
        Ok(handle)
    }

    /// Reads one registration frame; replies + closes for POLL, rejects on
    /// auth failure. Returns the held member and whether it is a rejoin.
    fn register(
        &self,
        mut stream: TcpStream,
        status: ElasticStatus,
    ) -> Option<(HeldMember, Option<u64>)> {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        let magic = read_u64(&mut stream).ok()?;
        let token = read_str(&mut stream).ok()?;
        if magic == POLL_MAGIC {
            if token != self.token {
                let _ = reject(&mut stream, "rendezvous token mismatch");
                return None;
            }
            let _ = write_u64(&mut stream, POLL_REPLY_MAGIC)
                .and_then(|()| write_u64(&mut stream, status.epoch))
                .and_then(|()| write_u32(&mut stream, status.world as u32))
                .and_then(|()| write_u32(&mut stream, status.pending as u32))
                .and_then(|()| stream.flush());
            return None;
        }
        if token != self.token {
            eprintln!("elastic rendezvous: rejecting member: bad token");
            let _ = reject(&mut stream, "rendezvous token mismatch");
            return None;
        }
        match magic {
            HELLO_MAGIC => {
                let proposed = read_u64(&mut stream).ok()? as i64;
                let addr = read_str(&mut stream).ok()?;
                let aux = read_str(&mut stream).ok()?;
                let claim = (proposed >= 0).then_some(proposed as usize);
                Some((
                    HeldMember {
                        stream,
                        old_rank: claim,
                        addr,
                        aux,
                    },
                    None,
                ))
            }
            REJOIN_MAGIC => {
                let old_epoch = read_u64(&mut stream).ok()?;
                let old_rank = read_u64(&mut stream).ok()? as usize;
                let addr = read_str(&mut stream).ok()?;
                let aux = read_str(&mut stream).ok()?;
                Some((
                    HeldMember {
                        stream,
                        old_rank: Some(old_rank),
                        addr,
                        aux,
                    },
                    Some(old_epoch),
                ))
            }
            m => {
                let _ = reject(&mut stream, &format!("bad magic {m:#x}"));
                None
            }
        }
    }

    /// Replies to every member of a freshly formed epoch. Write failures
    /// are logged and skipped — a member that died between registering and
    /// assignment will be shed by the next transition.
    fn assign_epoch(
        epoch: u64,
        members: &mut [HeldMember],
        state_source: i64,
    ) -> Result<(), CommError> {
        let world = members.len();
        let peers: Vec<String> = members.iter().map(|m| m.addr.clone()).collect();
        let auxes: Vec<String> = members.iter().map(|m| m.aux.clone()).collect();
        for (rank, m) in members.iter_mut().enumerate() {
            let reply = (|| -> std::io::Result<()> {
                write_u64(&mut m.stream, EASSIGN_MAGIC)?;
                write_u64(&mut m.stream, epoch)?;
                write_u32(&mut m.stream, rank as u32)?;
                write_u32(&mut m.stream, world as u32)?;
                write_u64(&mut m.stream, state_source as u64)?;
                for p in &peers {
                    write_str(&mut m.stream, p)?;
                }
                for a in &auxes {
                    write_str(&mut m.stream, a)?;
                }
                m.stream.flush()
            })();
            if let Err(e) = reply {
                eprintln!(
                    "elastic rendezvous: epoch {epoch} assignment to rank {rank} failed: {e}"
                );
            }
        }
        Ok(())
    }

    fn serve_loop(self, handle: &ElasticHandle) -> Result<(), CommError> {
        use std::sync::atomic::Ordering;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| CommError::from_io("elastic listener set_nonblocking", e))?;
        let mut epoch: u64 = 0;
        let mut world: usize = 0; // 0 until epoch 0 forms
        let mut founders: Vec<HeldMember> = Vec::new();
        let mut pending: Vec<HeldMember> = Vec::new();
        let mut rejoined: Vec<HeldMember> = Vec::new();
        let mut window_ends: Option<Instant> = None;
        loop {
            if handle.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let status = ElasticStatus {
                        epoch,
                        world,
                        pending: pending.len(),
                    };
                    if let Some((member, rejoin_epoch)) = self.register(stream, status) {
                        match rejoin_epoch {
                            None if world == 0 => founders.push(member),
                            None => pending.push(member),
                            Some(e) if world > 0 && e == epoch => {
                                if window_ends.is_none() {
                                    window_ends = Some(Instant::now() + self.rejoin_window);
                                }
                                rejoined.push(member);
                            }
                            // Stale rejoin (missed a transition) or rejoin
                            // before any epoch formed: demote to joiner —
                            // it re-enters with handed-off state.
                            Some(_) if world == 0 => founders.push(member),
                            Some(_) => pending.push(member),
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(CommError::from_io("elastic rendezvous accept", e)),
            }

            // Epoch 0: founders assemble exactly like the one-shot server.
            if world == 0 && founders.len() == self.initial_world {
                let n = founders.len();
                // Honor explicit claims; out-of-range or duplicate claims
                // demote to arrival-order assignment of the free slots.
                let mut ordered: Vec<Option<HeldMember>> = (0..n).map(|_| None).collect();
                let mut unclaimed = Vec::new();
                for m in founders.drain(..) {
                    match m.old_rank {
                        Some(r) if r < n && ordered[r].is_none() => ordered[r] = Some(m),
                        _ => unclaimed.push(m),
                    }
                }
                let mut free = (0..n).filter(|&r| ordered[r].is_none()).collect::<Vec<_>>();
                free.reverse();
                for m in unclaimed {
                    let slot = free.pop().expect("free slot per unclaimed founder");
                    ordered[slot] = Some(m);
                }
                let mut members: Vec<HeldMember> = ordered
                    .into_iter()
                    .map(|m| m.expect("slot filled"))
                    .collect();
                world = n;
                // Mirror before replying so a member that returns from
                // connect never observes a stale status.
                handle.world.store(world as u64, Ordering::SeqCst);
                Self::assign_epoch(0, &mut members, -1)?;
            }

            // Transition: complete when all members rejoined or the window
            // expired (absentees are dead).
            let complete = match window_ends {
                Some(ends) => rejoined.len() >= world || Instant::now() >= ends,
                None => false,
            };
            if complete {
                rejoined.sort_by_key(|m| m.old_rank.unwrap_or(usize::MAX));
                let survivors = rejoined.len();
                let mut members: Vec<HeldMember> = std::mem::take(&mut rejoined);
                members.append(&mut pending);
                epoch += 1;
                world = members.len();
                let state_source = if survivors > 0 { 0 } else { -1 };
                eprintln!(
                    "elastic rendezvous: epoch {epoch} formed — {survivors} survivors, \
                     {} joiners, world {world}",
                    world - survivors
                );
                handle.epoch.store(epoch, Ordering::SeqCst);
                handle.world.store(world as u64, Ordering::SeqCst);
                Self::assign_epoch(epoch, &mut members, state_source)?;
                window_ends = None;
            }
            handle.pending.store(pending.len() as u64, Ordering::SeqCst);
        }
    }
}

/// Polls the elastic rendezvous without blocking group formation: returns
/// the current (epoch, world, pending-joiner count). Rank 0 calls this from
/// the training loop to detect planned grows.
pub fn elastic_poll(cfg: &TcpConfig) -> Result<ElasticStatus, CommError> {
    let mut s = connect_retry(&cfg.rendezvous, cfg, "elastic rendezvous")?;
    s.set_read_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| CommError::from_io("poll set timeout", e))?;
    let ctx = "elastic poll";
    write_u64(&mut s, POLL_MAGIC).map_err(|e| CommError::from_io(ctx, e))?;
    write_str(&mut s, &cfg.effective_token()).map_err(|e| CommError::from_io(ctx, e))?;
    s.flush().map_err(|e| CommError::from_io(ctx, e))?;
    let magic = read_u64(&mut s).map_err(|e| CommError::from_io(ctx, e))?;
    if magic == REJECT_MAGIC {
        let reason = read_str(&mut s).unwrap_or_else(|_| "no reason given".into());
        return Err(CommError::Rendezvous(format!("poll rejected: {reason}")));
    }
    if magic != POLL_REPLY_MAGIC {
        return Err(CommError::Rendezvous(format!(
            "{ctx}: bad magic {magic:#x}"
        )));
    }
    let epoch = read_u64(&mut s).map_err(|e| CommError::from_io(ctx, e))?;
    let world = read_u32(&mut s).map_err(|e| CommError::from_io(ctx, e))? as usize;
    let pending = read_u32(&mut s).map_err(|e| CommError::from_io(ctx, e))? as usize;
    Ok(ElasticStatus {
        epoch,
        world,
        pending,
    })
}

/// Joins (or rejoins) an elastic TCP group: registers the intent at the
/// long-lived rendezvous, blocks until the membership epoch forms, and
/// wires the epoch's ring. Unlike [`connect`], the world size is decided by
/// the server — a single-member epoch degenerates to a socketless loopback.
pub fn elastic_connect(cfg: &TcpConfig, intent: &JoinIntent) -> Result<ElasticJoin, CommError> {
    let deadline = Instant::now() + cfg.handshake_timeout;

    // Ring listener first, so its address can be registered.
    let listener = TcpListener::bind((cfg.bind_ip.as_str(), 0))
        .map_err(|e| CommError::from_io(&format!("bind ring listener on {}", cfg.bind_ip), e))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| CommError::from_io("ring listener addr", e))?
        .to_string();

    let mut rdv = connect_retry(&cfg.rendezvous, cfg, "elastic rendezvous")?;
    rdv.set_read_timeout(Some(cfg.handshake_timeout))
        .map_err(|e| CommError::from_io("rendezvous set timeout", e))?;
    let reg = "elastic registration";
    match intent {
        JoinIntent::Fresh { claim } => {
            write_u64(&mut rdv, HELLO_MAGIC).map_err(|e| CommError::from_io(reg, e))?;
            write_str(&mut rdv, &cfg.effective_token()).map_err(|e| CommError::from_io(reg, e))?;
            let proposed = claim.map(|r| r as i64).unwrap_or(-1);
            write_u64(&mut rdv, proposed as u64).map_err(|e| CommError::from_io(reg, e))?;
        }
        JoinIntent::Rejoin { epoch, old_rank } => {
            write_u64(&mut rdv, REJOIN_MAGIC).map_err(|e| CommError::from_io(reg, e))?;
            write_str(&mut rdv, &cfg.effective_token()).map_err(|e| CommError::from_io(reg, e))?;
            write_u64(&mut rdv, *epoch).map_err(|e| CommError::from_io(reg, e))?;
            write_u64(&mut rdv, *old_rank as u64).map_err(|e| CommError::from_io(reg, e))?;
        }
    }
    write_str(&mut rdv, &my_addr).map_err(|e| CommError::from_io(reg, e))?;
    write_str(&mut rdv, cfg.aux_addr.as_deref().unwrap_or(""))
        .map_err(|e| CommError::from_io(reg, e))?;
    rdv.flush().map_err(|e| CommError::from_io(reg, e))?;

    let asn = "elastic assignment";
    let magic = read_u64(&mut rdv).map_err(|e| CommError::from_io(asn, e))?;
    if magic == REJECT_MAGIC {
        let reason = read_str(&mut rdv).unwrap_or_else(|_| "no reason given".into());
        return Err(CommError::Rendezvous(format!(
            "elastic rendezvous rejected this member: {reason}"
        )));
    }
    if magic != EASSIGN_MAGIC {
        return Err(CommError::Rendezvous(format!(
            "{asn}: bad magic {magic:#x}"
        )));
    }
    let epoch = read_u64(&mut rdv).map_err(|e| CommError::from_io(asn, e))?;
    let rank = read_u32(&mut rdv).map_err(|e| CommError::from_io(asn, e))? as usize;
    let world = read_u32(&mut rdv).map_err(|e| CommError::from_io(asn, e))? as usize;
    let source = read_u64(&mut rdv).map_err(|e| CommError::from_io(asn, e))? as i64;
    let mut peers = Vec::with_capacity(world);
    for _ in 0..world {
        peers.push(read_str(&mut rdv).map_err(|e| CommError::from_io(asn, e))?);
    }
    let mut aux_addrs = Vec::with_capacity(world);
    for _ in 0..world {
        aux_addrs.push(read_str(&mut rdv).map_err(|e| CommError::from_io(asn, e))?);
    }
    drop(rdv);

    let transport: Box<dyn Transport> = if world == 1 {
        Box::new(crate::transport::LoopbackTransport::default())
    } else {
        wire_ring(cfg, &listener, deadline, rank, world, epoch, &peers)?
    };
    Ok(ElasticJoin {
        epoch,
        rank,
        world,
        state_source: (source >= 0).then_some(source as usize),
        transport,
        aux_addrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let msg = RingMsg::f64(3, vec![1.5, -2.25, f64::MIN_POSITIVE, 0.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        assert_eq!(buf.len(), 17 + 8 * 4);
        let got = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got.origin, 3);
        assert_eq!(got.payload, msg.payload);
    }

    #[test]
    fn oversized_length_header_is_an_error_not_an_allocation() {
        // A corrupt header claiming 2^62 body bytes, then EOF.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn encoded_frames_round_trip_verbatim() {
        // Non-f64 payloads travel as opaque bytes with their format tag.
        let (payload, _) = crate::wire::encode(
            crate::wire::WireFormat::F16,
            vec![1.0, -2.0, 0.5, 1024.0, -0.25],
        );
        let msg = RingMsg { origin: 2, payload };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        assert_eq!(buf.len(), 17 + 2 * 5);
        let got = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got, msg);

        // Unknown tags are rejected, not misread.
        buf[8] = 9;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_frame_round_trips() {
        let msg = RingMsg::f64(0, vec![]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let got = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got.payload.elems(), 0);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let msg = RingMsg::f64(1, vec![4.0, 5.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_rendezvous_string_rejected() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 1 << 20).unwrap();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_str(&mut &buf[..]).is_err());
    }

    #[test]
    fn rendezvous_assigns_explicit_and_auto_ranks() {
        let server = RendezvousServer::bind("127.0.0.1:0", 3).unwrap();
        let addr = server.local_addr();
        let serve = std::thread::spawn(move || server.serve());
        // Register sequentially (the server reads each registration as it
        // accepts, so arrival order is the connect order), then read the
        // replies — the server only replies once the whole group is present.
        let register = |proposed: i64, my: &str, aux: &str| -> TcpStream {
            let mut s = TcpStream::connect(addr).unwrap();
            write_u64(&mut s, HELLO_MAGIC).unwrap();
            write_str(&mut s, "").unwrap(); // no token configured
            write_u64(&mut s, proposed as u64).unwrap();
            write_str(&mut s, my).unwrap();
            write_str(&mut s, aux).unwrap();
            s.flush().unwrap();
            s
        };
        let assignment = |mut s: TcpStream| -> (usize, Vec<String>, Vec<String>) {
            assert_eq!(read_u64(&mut s).unwrap(), ASSIGN_MAGIC);
            let rank = read_u32(&mut s).unwrap() as usize;
            let world = read_u32(&mut s).unwrap() as usize;
            let peers = (0..world).map(|_| read_str(&mut s).unwrap()).collect();
            let auxes = (0..world).map(|_| read_str(&mut s).unwrap()).collect();
            (rank, peers, auxes)
        };
        // Claim rank 2 explicitly; the other two auto-assign to 0 and 1 in
        // arrival order. The first arrival (assigned rank 0) advertises a
        // telemetry address; everyone must see it at slot 0.
        let sc = register(2, "c:2", "");
        let sa = register(-1, "a:1", "telemetry:9");
        let sb = register(-1, "b:1", "");
        let (r2, _, aux2) = assignment(sc);
        assert_eq!(r2, 2);
        assert_eq!(
            aux2,
            vec!["telemetry:9".to_string(), String::new(), String::new()]
        );
        let (ra, _, _) = assignment(sa);
        assert_eq!(ra, 0);
        let (rb, peers, auxes) = assignment(sb);
        assert_eq!(rb, 1);
        assert_eq!(peers, vec!["a:1".to_string(), "b:1".into(), "c:2".into()]);
        assert_eq!(auxes[0], "telemetry:9");
        let served = serve.join().unwrap().unwrap();
        assert_eq!(served.len(), 3);
    }

    #[test]
    fn connect_forms_a_two_rank_ring() {
        let server = RendezvousServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.serve().unwrap());
        let addr1 = addr.clone();
        let peer = std::thread::spawn(move || {
            let cfg = TcpConfig::new(addr1);
            let join = connect(&cfg, 2).unwrap();
            let (rank, mut t) = (join.rank, join.transport);
            // Echo service: receive one frame, send one frame.
            let got = t.recv().unwrap();
            let (vals, _) = crate::wire::decode(got.payload);
            t.send(RingMsg::f64(rank, vals.iter().map(|v| v * 2.0).collect()))
                .unwrap();
            rank
        });
        let mut cfg = TcpConfig::new(addr);
        cfg.aux_addr = Some("me:1234".into());
        let join = connect(&cfg, 2).unwrap();
        let (rank, mut t) = (join.rank, join.transport);
        // The aux table is rank-indexed and carries this member's entry.
        assert_eq!(join.aux_addrs.len(), 2);
        assert_eq!(join.aux_addrs[rank], "me:1234");
        t.send(RingMsg::f64(rank, vec![1.0, 2.0])).unwrap();
        let back = t.recv().unwrap();
        assert_eq!(back.payload, WirePayload::F64(vec![2.0, 4.0]));
        let peer_rank = peer.join().unwrap();
        assert_ne!(rank, peer_rank);
        assert_eq!(t.kind(), "tcp");
    }

    #[test]
    fn world_one_needs_no_sockets() {
        let cfg = TcpConfig::new("127.0.0.1:1"); // never dialled
        let join = connect(&cfg, 1).unwrap();
        assert_eq!(join.rank, 0);
        assert_eq!(join.transport.kind(), "loopback");
        assert_eq!(join.aux_addrs, vec![String::new()]);
    }

    #[test]
    fn rendezvous_rejects_token_mismatch() {
        // A wrong token is refused with a Rendezvous error and does NOT
        // consume a world slot: the correctly-authed pair still forms.
        let server = RendezvousServer::bind("127.0.0.1:0", 2)
            .unwrap()
            .with_token("sesame");
        let addr = server.local_addr().to_string();
        let serve = std::thread::spawn(move || server.serve());

        let mut bad = TcpConfig::new(addr.clone());
        bad.token = Some("wrong".into());
        match connect(&bad, 2) {
            Err(CommError::Rendezvous(msg)) => {
                assert!(msg.contains("token mismatch"), "unexpected reason: {msg}")
            }
            other => panic!("expected Rendezvous rejection, got {other:?}"),
        }

        let addr1 = addr.clone();
        let peer = std::thread::spawn(move || {
            let mut cfg = TcpConfig::new(addr1);
            cfg.token = Some("sesame".into());
            connect(&cfg, 2).unwrap().rank
        });
        let mut cfg = TcpConfig::new(addr);
        cfg.token = Some("sesame".into());
        let join = connect(&cfg, 2).unwrap();
        let peer_rank = peer.join().unwrap();
        assert_ne!(join.rank, peer_rank);
        assert_eq!(serve.join().unwrap().unwrap().len(), 2);
    }

    /// Founds a 2-member elastic epoch 0 over loopback.
    fn found_elastic_pair(addr: &str) -> (ElasticJoin, ElasticJoin) {
        let a1 = addr.to_string();
        let t = std::thread::spawn(move || {
            let cfg = TcpConfig::new(a1);
            elastic_connect(&cfg, &JoinIntent::Fresh { claim: None }).unwrap()
        });
        let cfg = TcpConfig::new(addr.to_string());
        let mine = elastic_connect(&cfg, &JoinIntent::Fresh { claim: Some(0) }).unwrap();
        let theirs = t.join().unwrap();
        (mine, theirs)
    }

    #[test]
    fn elastic_epochs_form_shrink_and_grow() {
        let handle = ElasticRendezvous::bind("127.0.0.1:0", 2)
            .unwrap()
            .with_rejoin_window(Duration::from_millis(600))
            .spawn()
            .unwrap();
        let addr = handle.addr().to_string();

        // Epoch 0: two founders; the explicit claim is honored and there is
        // no state to hand off.
        let (j0, j1) = found_elastic_pair(&addr);
        assert_eq!((j0.epoch, j0.rank, j0.world), (0, 0, 2));
        assert_eq!((j1.epoch, j1.rank, j1.world), (0, 1, 2));
        assert_eq!(j0.state_source, None);
        assert_eq!(handle.status().epoch, 0);
        assert_eq!(handle.status().world, 2);

        // Rank 0 "dies" (drops its transport); rank 1 rejoins alone. The
        // window expires, forming a shrunk single-rank epoch 1 whose
        // survivor is the state source.
        drop(j0);
        let cfg = TcpConfig::new(addr.clone());
        let e1 = elastic_connect(
            &cfg,
            &JoinIntent::Rejoin {
                epoch: 0,
                old_rank: 1,
            },
        )
        .unwrap();
        assert_eq!((e1.epoch, e1.rank, e1.world), (1, 0, 1));
        assert_eq!(e1.state_source, Some(0));
        assert_eq!(e1.transport.kind(), "loopback");
        assert_eq!(
            handle.status(),
            ElasticStatus {
                epoch: 1,
                world: 1,
                pending: 0
            }
        );

        // A replacement HELLOs in: it queues as pending (visible to POLL),
        // and the survivor's next rejoin forms epoch 2 at world 2 with the
        // survivor as rank 0 / state source.
        let a1 = addr.clone();
        let joiner = std::thread::spawn(move || {
            let cfg = TcpConfig::new(a1);
            elastic_connect(&cfg, &JoinIntent::Fresh { claim: None }).unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while elastic_poll(&cfg).unwrap().pending == 0 {
            assert!(Instant::now() < deadline, "joiner never became pending");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(e1);
        let e2 = elastic_connect(
            &cfg,
            &JoinIntent::Rejoin {
                epoch: 1,
                old_rank: 0,
            },
        )
        .unwrap();
        let joined = joiner.join().unwrap();
        assert_eq!((e2.epoch, e2.rank, e2.world), (2, 0, 2));
        assert_eq!((joined.epoch, joined.rank, joined.world), (2, 1, 2));
        assert_eq!(e2.state_source, Some(0));
        assert_eq!(joined.state_source, Some(0));
        assert_eq!(handle.status().epoch, 2);

        // The epoch-2 ring actually carries frames.
        let mut ta = e2.transport;
        let mut tb = joined.transport;
        let echo = std::thread::spawn(move || {
            let got = tb.recv().unwrap();
            tb.send(got).unwrap();
        });
        ta.send(RingMsg::f64(0, vec![7.0, 8.0])).unwrap();
        assert_eq!(ta.recv().unwrap().payload, WirePayload::F64(vec![7.0, 8.0]));
        echo.join().unwrap();
        handle.stop();
    }

    #[test]
    fn stale_rejoin_is_demoted_to_joiner() {
        // A member that missed a transition (its rejoin carries an old
        // epoch) must not corrupt the current epoch: it queues as pending.
        let handle = ElasticRendezvous::bind("127.0.0.1:0", 2)
            .unwrap()
            .with_rejoin_window(Duration::from_millis(400))
            .spawn()
            .unwrap();
        let addr = handle.addr().to_string();
        let (j0, j1) = found_elastic_pair(&addr);
        drop(j1);
        let cfg = TcpConfig::new(addr.clone());
        // Rank 0 rejoins alone → epoch 1, world 1.
        drop(j0);
        let e1 = elastic_connect(
            &cfg,
            &JoinIntent::Rejoin {
                epoch: 0,
                old_rank: 0,
            },
        )
        .unwrap();
        assert_eq!((e1.epoch, e1.world), (1, 1));
        // The long-dead rank 1 now rejoins claiming epoch 0: stale, so it
        // becomes a pending joiner for epoch 2.
        let a1 = addr.clone();
        let stale = std::thread::spawn(move || {
            let cfg = TcpConfig::new(a1);
            elastic_connect(
                &cfg,
                &JoinIntent::Rejoin {
                    epoch: 0,
                    old_rank: 1,
                },
            )
            .unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while elastic_poll(&cfg).unwrap().pending == 0 {
            assert!(
                Instant::now() < deadline,
                "stale rejoin never became pending"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(e1);
        let e2 = elastic_connect(
            &cfg,
            &JoinIntent::Rejoin {
                epoch: 1,
                old_rank: 0,
            },
        )
        .unwrap();
        let back = stale.join().unwrap();
        assert_eq!((e2.epoch, e2.rank, e2.world), (2, 0, 2));
        assert_eq!((back.epoch, back.rank), (2, 1));
        handle.stop();
    }
}
