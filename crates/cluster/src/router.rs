//! The shard router: one listener fanning each client connection out
//! across N engine nodes by MAC hash.

use crate::accept::{AcceptLoop, POLL};
use crate::codec::{
    encode_request, encode_response, DrainReply, FrameKind, RequestDecoder, RequestFrame,
    ResponseDecoder, ResponseFrame, ResponseStatus,
};
use crate::stats::ClusterStats;
use deepcsi_serve::{shard_of, Backpressure};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a drain fan-out waits for each node's reply before
/// merging what it has.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`"127.0.0.1:9700"`; port `0` picks a free
    /// port).
    pub listen: String,
    /// Engine-node addresses; `shard_of(mac, nodes.len())` picks the
    /// target. Order is the shard order and must match across
    /// restarts for snapshot compatibility.
    pub nodes: Vec<String>,
    /// Bounded per-node forward queue, per client connection.
    pub queue_capacity: usize,
    /// Full-queue policy, mirroring the engine's:
    /// [`Backpressure::Block`] stalls the client socket (lossless);
    /// [`Backpressure::DropNewest`] sheds the report and answers an
    /// explicit `BUSY` response.
    pub backpressure: Backpressure,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".to_string(),
            nodes: Vec::new(),
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
        }
    }
}

/// A listener that speaks the same wire protocol as an [`crate::EngineNode`]
/// but forwards every report to one of N nodes by
/// [`deepcsi_serve::shard_of`] — the engine's *thread*-level shard
/// function reused at the *process* level, so per-stream ordering is
/// preserved twice over (per-node queue here, per-shard queue there).
///
/// `DRAIN`/`SHUTDOWN` requests fan out to every node **behind** any
/// queued reports (same ordered queues), and the per-node replies
/// merge into a single ack: counters sum, disjoint decision lists
/// concatenate and sort by MAC.
pub struct ShardRouter {
    shutdown: Arc<AtomicBool>,
    conns: AcceptLoop,
}

impl ShardRouter {
    /// Binds the listen address and starts routing. Node connections
    /// are made lazily, one set per accepted client.
    ///
    /// # Errors
    ///
    /// Returns the bind error. An empty `cfg.nodes` is a usage error
    /// and panics.
    pub fn start(cfg: RouterConfig, stats: Arc<ClusterStats>) -> io::Result<ShardRouter> {
        assert!(!cfg.nodes.is_empty(), "router needs at least one node");
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = {
            let shutdown = Arc::clone(&shutdown);
            let listen = cfg.listen.clone();
            AcceptLoop::bind(&listen, "router", move |stream, stop| {
                route_conn(stream, &cfg, &stats, stop, &shutdown);
            })?
        };
        Ok(ShardRouter { shutdown, conns })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    /// `true` once a client's `SHUTDOWN` has been fanned out, merged
    /// and acked — the host process should [`ShardRouter::stop`].
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Stops accepting and joins every connection.
    pub fn stop(self) {
        self.conns.stop();
    }
}

/// Everything one client connection holds per node.
struct NodeLink {
    /// Bounded forward queue into the writer thread.
    tx: SyncSender<Vec<u8>>,
    /// The node-side socket (shut down to unblock threads at close).
    stream: TcpStream,
    writer: JoinHandle<()>,
    relay: JoinHandle<()>,
}

/// One client connection: fan reports out, relay failures back, merge
/// drains.
fn route_conn(
    client: TcpStream,
    cfg: &RouterConfig,
    stats: &ClusterStats,
    stop: &AtomicBool,
    shutdown: &AtomicBool,
) {
    let track = stats.open_conn();
    let _ = client.set_nodelay(true);
    let _ = client.set_read_timeout(Some(POLL));
    // Relay threads and the request loop both write to the client;
    // frame writes are made atomic by this mutex.
    let client_w = Arc::new(Mutex::new(match client.try_clone() {
        Ok(s) => s,
        Err(_) => {
            stats.close_conn(&track);
            return;
        }
    }));
    // Per-drain coordination: each relay forwards its node's
    // drain/shutdown acks here.
    let (coord_tx, coord_rx) = mpsc::channel::<DrainReply>();
    let done = Arc::new(AtomicBool::new(false));
    let mut links = Vec::with_capacity(cfg.nodes.len());
    for addr in &cfg.nodes {
        match connect_node(addr, cfg.queue_capacity, &client_w, &coord_tx, &done, stats) {
            Ok(link) => links.push(link),
            Err(e) => {
                eprintln!("router: connecting node {addr}: {e}");
                // Without a full shard set the routing function is
                // wrong for every report; refuse the client.
                teardown(links, &done);
                stats.close_conn(&track);
                return;
            }
        }
    }

    let mut client_r = client;
    let mut decoder = RequestDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    let busy_here = AtomicU64::new(0);
    'conn: loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match client_r.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                decoder.push(&buf[..n]);
                loop {
                    match decoder.try_next() {
                        Ok(Some(frame)) => {
                            stats.frames_in.fetch_add(1, Ordering::Relaxed);
                            if !route_frame(
                                &frame, cfg, &links, stats, &track, &busy_here, &client_w,
                                &coord_rx, shutdown,
                            ) {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            stats.codec_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = write_client(
                                &client_w,
                                stats,
                                &ResponseFrame {
                                    kind: FrameKind::Report,
                                    status: ResponseStatus::Reject,
                                    seq: 0,
                                    payload: Vec::new(),
                                },
                            );
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    teardown(links, &done);
    stats.close_conn(&track);
}

/// Routes one decoded client frame; `false` ends the connection.
#[allow(clippy::too_many_arguments)]
fn route_frame(
    frame: &RequestFrame,
    cfg: &RouterConfig,
    links: &[NodeLink],
    stats: &ClusterStats,
    track: &crate::stats::ConnTrack,
    busy_here: &AtomicU64,
    client_w: &Mutex<TcpStream>,
    coord_rx: &Receiver<DrainReply>,
    shutdown: &AtomicBool,
) -> bool {
    match frame.kind {
        FrameKind::Report => {
            stats.reports_in.fetch_add(1, Ordering::Relaxed);
            track.reports.fetch_add(1, Ordering::Relaxed);
            let shard = shard_of(frame.mac, links.len());
            stats.record_shard(shard);
            let bytes = encode_request(frame);
            match cfg.backpressure {
                Backpressure::Block => links[shard].tx.send(bytes).is_ok(),
                Backpressure::DropNewest => match links[shard].tx.try_send(bytes) {
                    Ok(()) => true,
                    Err(TrySendError::Full(_)) => {
                        stats.busy.fetch_add(1, Ordering::Relaxed);
                        busy_here.fetch_add(1, Ordering::Relaxed);
                        track.refused.fetch_add(1, Ordering::Relaxed);
                        write_client(
                            client_w,
                            stats,
                            &ResponseFrame {
                                kind: FrameKind::Report,
                                status: ResponseStatus::Busy,
                                seq: frame.seq,
                                payload: Vec::new(),
                            },
                        )
                        .is_ok()
                    }
                    Err(TrySendError::Disconnected(_)) => false,
                },
            }
        }
        FrameKind::Drain | FrameKind::Shutdown => {
            // Fan out behind every queued report (same ordered
            // queues), then merge one reply per node.
            let bytes = encode_request(frame);
            let mut expected = 0usize;
            for link in links {
                if link.tx.send(bytes.clone()).is_ok() {
                    expected += 1;
                }
            }
            let mut merged = DrainReply::default();
            for _ in 0..expected {
                match coord_rx.recv_timeout(DRAIN_TIMEOUT) {
                    Ok(reply) => merged.merge(reply),
                    Err(_) => break, // merge what we have
                }
            }
            merged.stats.busy += busy_here.load(Ordering::Relaxed);
            // Raise the flag *before* acking, so a client that saw the
            // ack observes `shutdown_requested() == true`.
            if frame.kind == FrameKind::Shutdown {
                shutdown.store(true, Ordering::Relaxed);
            }
            let ok = write_client(
                client_w,
                stats,
                &ResponseFrame {
                    kind: frame.kind,
                    status: ResponseStatus::Ack,
                    seq: frame.seq,
                    payload: crate::codec::encode_drain_reply(&merged),
                },
            )
            .is_ok();
            if frame.kind == FrameKind::Shutdown {
                return false;
            }
            ok
        }
    }
}

/// Opens one node connection and spawns its writer + relay threads.
fn connect_node(
    addr: &str,
    queue_capacity: usize,
    client_w: &Arc<Mutex<TcpStream>>,
    coord_tx: &mpsc::Sender<DrainReply>,
    done: &Arc<AtomicBool>,
    stats: &ClusterStats,
) -> io::Result<NodeLink> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(queue_capacity.max(1));
    let writer = {
        let mut w = stream.try_clone()?;
        std::thread::Builder::new()
            .name(format!("router-write-{addr}"))
            .spawn(move || {
                // Blocking writes to the node socket are the Block
                // backpressure path: a slow node fills its receive
                // window, this thread stalls, the bounded queue
                // fills, and the client stalls (or gets BUSY).
                while let Ok(bytes) = rx.recv() {
                    if w.write_all(&bytes).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn router writer")
    };
    let relay = {
        let mut r = stream.try_clone()?;
        let _ = r.set_read_timeout(Some(POLL));
        let client_w = Arc::clone(client_w);
        let coord_tx = coord_tx.clone();
        let done = Arc::clone(done);
        let addr = addr.to_string();
        std::thread::Builder::new()
            .name(format!("router-relay-{addr}"))
            .spawn(move || {
                let mut decoder = ResponseDecoder::new();
                let mut buf = [0u8; 16 * 1024];
                loop {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    match r.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => {
                            decoder.push(&buf[..n]);
                            loop {
                                match decoder.try_next() {
                                    Ok(Some(resp)) => match resp.kind {
                                        // Per-report failures pass
                                        // straight through to the
                                        // client.
                                        FrameKind::Report => {
                                            let mut w = client_w.lock().unwrap();
                                            let _ = w.write_all(&encode_response(&resp));
                                        }
                                        FrameKind::Drain | FrameKind::Shutdown => {
                                            if let Ok(reply) =
                                                crate::codec::decode_drain_reply(&resp.payload)
                                            {
                                                let _ = coord_tx.send(reply);
                                            }
                                        }
                                    },
                                    Ok(None) => break,
                                    Err(e) => {
                                        eprintln!("router: node {addr} sent garbage: {e}");
                                        return;
                                    }
                                }
                            }
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn router relay")
    };
    // Forwarded bytes are accounted once, at enqueue time, by the
    // frame reader; socket-level bytes_out would double-count.
    let _ = stats;
    Ok(NodeLink {
        tx,
        stream,
        writer,
        relay,
    })
}

/// Drops queues, shuts node sockets down, and joins the per-node
/// threads.
fn teardown(links: Vec<NodeLink>, done: &AtomicBool) {
    done.store(true, Ordering::Relaxed);
    for link in links {
        drop(link.tx); // writer exits on channel close
        let _ = link.stream.shutdown(std::net::Shutdown::Both);
        let _ = link.writer.join();
        let _ = link.relay.join();
    }
}

fn write_client(
    stream: &Mutex<TcpStream>,
    stats: &ClusterStats,
    frame: &ResponseFrame,
) -> io::Result<()> {
    let bytes = encode_response(frame);
    stats
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    stream.lock().unwrap().write_all(&bytes)
}
