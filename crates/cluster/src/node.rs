//! The engine node: a TCP listener multiplexing many client
//! connections into one [`Engine`].

use crate::accept::{AcceptLoop, POLL};
use crate::codec::{
    encode_drain_reply, encode_response, DrainReply, FrameKind, RequestDecoder, RequestFrame,
    ResponseFrame, ResponseStatus, WireDecision, WireStats,
};
use crate::stats::ClusterStats;
use deepcsi_serve::{Engine, IngestOutcome};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A TCP listener feeding one engine.
///
/// Each accepted connection gets a handler thread that reads wire
/// frames ([`crate::codec`]) and hands report payloads straight to
/// [`Engine::ingest_frame`]. Backpressure extends across the wire:
///
/// * [`deepcsi_serve::Backpressure::Block`] (the node default in
///   `deepcsi-clusterd`) — a full shard queue blocks the handler, the
///   socket's receive window fills, and the sender stalls. Lossless.
/// * [`deepcsi_serve::Backpressure::DropNewest`] — the engine sheds
///   the report and the node answers an explicit `DROP` response, so
///   the sender can account the loss (reconciled into
///   [`deepcsi_serve::EngineStats::dropped`]).
///
/// `DRAIN` requests flush the engine and reply with counters plus
/// per-device decisions; `SHUTDOWN` additionally raises
/// [`EngineNode::shutdown_requested`] so the host process can stop.
/// A codec error tears only the offending connection down.
pub struct EngineNode {
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    conns: AcceptLoop,
}

impl EngineNode {
    /// Binds `listen` (port `0` picks a free port) and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(
        listen: &str,
        engine: Arc<Engine>,
        stats: Arc<ClusterStats>,
    ) -> io::Result<EngineNode> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            AcceptLoop::bind(listen, "cluster", move |stream, stop| {
                handle_conn(stream, &engine, &stats, stop, &shutdown);
            })?
        };
        Ok(EngineNode {
            engine,
            shutdown,
            conns,
        })
    }

    /// The bound address (read the ephemeral port back).
    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    /// The engine this node feeds.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// `true` once a client sent `SHUTDOWN` (already acked with a
    /// final drain reply). The host process should [`EngineNode::stop`]
    /// and tear its engine down.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Stops accepting, joins every connection handler, and returns.
    /// The engine is left running (snapshot/shutdown it separately).
    pub fn stop(self) {
        self.conns.stop();
    }
}

/// Builds the drain reply for this node's engine.
fn drain_reply(engine: &Engine) -> DrainReply {
    engine.drain();
    let stats = WireStats::from_engine(&engine.stats());
    let mut decisions: Vec<WireDecision> = engine
        .decisions()
        .iter()
        .map(WireDecision::from_engine)
        .collect();
    decisions.sort_by_key(|d| d.mac.octets());
    DrainReply { stats, decisions }
}

fn send(stream: &mut TcpStream, stats: &ClusterStats, frame: &ResponseFrame) -> io::Result<()> {
    let bytes = encode_response(frame);
    stats
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    stream.write_all(&bytes)
}

/// One connection's read → decode → ingest loop.
fn handle_conn(
    mut stream: TcpStream,
    engine: &Engine,
    stats: &ClusterStats,
    stop: &AtomicBool,
    shutdown: &AtomicBool,
) {
    let track = stats.open_conn();
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut decoder = RequestDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    'conn: loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                decoder.push(&buf[..n]);
                loop {
                    match decoder.try_next() {
                        Ok(Some(frame)) => {
                            stats.frames_in.fetch_add(1, Ordering::Relaxed);
                            if !handle_frame(&frame, &mut stream, engine, stats, shutdown, &track) {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Hostile or corrupt stream: answer REJECT
                            // (best effort) and tear the connection
                            // down. The decoder is poisoned; nothing
                            // more can be parsed.
                            stats.codec_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = send(
                                &mut stream,
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
    stats.close_conn(&track);
}

/// Processes one decoded frame; `false` ends the connection.
fn handle_frame(
    frame: &RequestFrame,
    stream: &mut TcpStream,
    engine: &Engine,
    stats: &ClusterStats,
    shutdown: &AtomicBool,
    track: &crate::stats::ConnTrack,
) -> bool {
    match frame.kind {
        FrameKind::Report => {
            stats.reports_in.fetch_add(1, Ordering::Relaxed);
            track.reports.fetch_add(1, Ordering::Relaxed);
            let workers = engine.config().workers;
            stats.record_shard(deepcsi_serve::shard_of(frame.mac, workers));
            match engine.ingest_frame(&frame.payload) {
                IngestOutcome::Enqueued => true, // happy path is silent
                IngestOutcome::Dropped => {
                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                    track.refused.fetch_add(1, Ordering::Relaxed);
                    send(
                        stream,
                        stats,
                        &ResponseFrame {
                            kind: FrameKind::Report,
                            status: ResponseStatus::Drop,
                            seq: frame.seq,
                            payload: Vec::new(),
                        },
                    )
                    .is_ok()
                }
                IngestOutcome::DecodeError => send(
                    stream,
                    stats,
                    &ResponseFrame {
                        kind: FrameKind::Report,
                        status: ResponseStatus::Reject,
                        seq: frame.seq,
                        payload: Vec::new(),
                    },
                )
                .is_ok(),
            }
        }
        FrameKind::Drain | FrameKind::Shutdown => {
            let reply = drain_reply(engine);
            // Raise the flag *before* acking, so a client that saw the
            // ack observes `shutdown_requested() == true`.
            if frame.kind == FrameKind::Shutdown {
                shutdown.store(true, Ordering::Relaxed);
            }
            send(
                stream,
                stats,
                &ResponseFrame {
                    kind: frame.kind,
                    status: ResponseStatus::Ack,
                    seq: frame.seq,
                    payload: encode_drain_reply(&reply),
                },
            )
            .is_ok()
        }
    }
}
