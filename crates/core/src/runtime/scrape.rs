//! Control-plane stats scrape client.
//!
//! The observability counterpart of the attach handshake: where HELLO
//! asks a producer "describe yourself", [`scrape_stats`] asks "report
//! your metrics". Same stateless pattern on the same channels — a
//! [`crate::protocol::messages::CtrlMsg::StatsRequest`] is pushed to the
//! base control endpoint and the producer answers with a
//! [`crate::protocol::messages::DataMsg::Stats`] on the one-shot reply
//! topic, from whatever wait loop it happens to be in (mid-epoch, at an
//! epoch barrier, or draining final acks). The request is re-sent every
//! poll round, so replies lost to subscription propagation on remote
//! transports are simply answered again.
//!
//! The scraped [`StatsPayload`] carries the producer context's *entire*
//! metrics registry — counters, gauges and the per-stage latency
//! histograms with their full bucket lists — deterministically sorted by
//! name. All shards of a group share one registry (per-shard metrics are
//! name-spaced, e.g. `stage.s1.publish_ack_ns`), so scraping the base
//! endpoint observes the whole group. This is what the `ts-top` CLI and
//! the counter-coherence tests consume; it needs no consumer attach, no
//! join, and leaves no trace in the producer's consumer state.

use crate::protocol::messages::{
    topics, CtrlMsg, DataMsg, StatsPayload, TracePayload, STATS_VERSION, TRACE_VERSION,
};
use crate::runtime::consumer::rand_id;
use crate::runtime::context::TsContext;
use crate::{Result, TsError};
use std::time::{Duration, Instant};
use ts_socket::{Endpoint, EndpointMap, Multipart, PushSocket, RecvError, SubSocket};

/// Scrapes the metrics registry of the producer listening on `endpoint`
/// (the same base URI consumers attach to — as a string or a parsed
/// [`Endpoint`] — over any transport).
///
/// Returns within `timeout` or fails with [`TsError::Timeout`] — a
/// producer that already published `End` and shut down no longer
/// answers. The producer keeps serving batches while answering; a scrape
/// is a read-only snapshot, never an attach.
pub fn scrape_stats<E>(ctx: &TsContext, endpoint: E, timeout: Duration) -> Result<StatsPayload>
where
    E: TryInto<Endpoint>,
    E::Error: Into<TsError>,
{
    let endpoint = endpoint.try_into().map_err(Into::into)?.to_string();
    let map = EndpointMap::new(&endpoint, 1);
    let token = rand_id();
    let sub = SubSocket::connect(&ctx.sockets, &map.data(0));
    sub.subscribe(&topics::stats(token));
    let push = PushSocket::connect(&ctx.sockets, &map.ctrl(0));
    let dup_counter = ctx.metrics.counter("producer.stats_dup");
    let deadline = Instant::now() + timeout;
    // Each re-sent request carries a fresh sequence stamp, and only the
    // reply echoing the *in-flight* stamp is accepted. Without it, a late
    // duplicate snapshot from round N (the request is re-sent every 50ms,
    // and remote transports can hold a reply past the next resend) would
    // be read as round N+1's answer — a stale snapshot served as fresh.
    let mut seq: u32 = 0;
    loop {
        // A send failure only means the producer is not reachable *yet*
        // (bind/connect order is free on every transport): keep retrying
        // until the deadline.
        seq = seq.wrapping_add(1);
        let request = CtrlMsg::StatsRequest {
            token,
            version: STATS_VERSION,
            seq,
        }
        .encode();
        let _ = push.send(Multipart::single(request));
        match sub.recv_timeout(Duration::from_millis(50)) {
            Ok((_, msg)) => {
                if let Some(frame) = msg.frames().first() {
                    if let Ok(DataMsg::Stats {
                        token: t,
                        seq: s,
                        payload,
                    }) = DataMsg::decode(frame)
                    {
                        // A stamp mismatch is a stale round's late
                        // duplicate: drop it, count it.
                        if t == token && s == seq {
                            return check_version("stats", payload.version, STATS_VERSION)
                                .map(|()| payload);
                        }
                        if t == token {
                            dup_counter.inc();
                        }
                    }
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Closed) => {
                return Err(TsError::Socket(
                    "producer disconnected during stats scrape".into(),
                ))
            }
        }
        if Instant::now() > deadline {
            return Err(TsError::Timeout("stats snapshot"));
        }
    }
}

/// Scrapes the batch flight recorder of the producer listening on
/// `endpoint`: the last `max` (clamped to 256 by the producer) completed
/// per-batch trace records, newest last, plus the recorder's current
/// clock so callers can place the records in time.
///
/// Same stateless control-plane pattern as [`scrape_stats`] — a
/// [`crate::protocol::messages::CtrlMsg::TraceRequest`] is re-sent every
/// poll round and only the reply echoing the in-flight stamp is
/// accepted. All shards of a group share one flight recorder, so
/// scraping the base endpoint observes every shard's spans. This is what
/// `ts-top --trace` renders into a Chrome trace-event file.
pub fn scrape_trace<E>(
    ctx: &TsContext,
    endpoint: E,
    max: u32,
    timeout: Duration,
) -> Result<TracePayload>
where
    E: TryInto<Endpoint>,
    E::Error: Into<TsError>,
{
    let endpoint = endpoint.try_into().map_err(Into::into)?.to_string();
    let map = EndpointMap::new(&endpoint, 1);
    let token = rand_id();
    let sub = SubSocket::connect(&ctx.sockets, &map.data(0));
    sub.subscribe(&topics::trace(token));
    let push = PushSocket::connect(&ctx.sockets, &map.ctrl(0));
    let dup_counter = ctx.metrics.counter("producer.trace_dup");
    let deadline = Instant::now() + timeout;
    let mut seq: u32 = 0;
    loop {
        seq = seq.wrapping_add(1);
        let request = CtrlMsg::TraceRequest {
            token,
            version: TRACE_VERSION,
            seq,
            max,
        }
        .encode();
        let _ = push.send(Multipart::single(request));
        match sub.recv_timeout(Duration::from_millis(50)) {
            Ok((_, msg)) => {
                if let Some(frame) = msg.frames().first() {
                    if let Ok(DataMsg::Trace {
                        token: t,
                        seq: s,
                        payload,
                    }) = DataMsg::decode(frame)
                    {
                        if t == token && s == seq {
                            return check_version("trace", payload.version, TRACE_VERSION)
                                .map(|()| payload);
                        }
                        if t == token {
                            dup_counter.inc();
                        }
                    }
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Closed) => {
                return Err(TsError::Socket(
                    "producer disconnected during trace scrape".into(),
                ))
            }
        }
        if Instant::now() > deadline {
            return Err(TsError::Timeout("trace snapshot"));
        }
    }
}

/// Refuses a scrape reply whose version differs from this build's: the
/// layout is single-version, so any other version cannot be read.
fn check_version(what: &str, theirs: u32, ours: u32) -> Result<()> {
    if theirs == ours {
        Ok(())
    } else {
        Err(TsError::Wire(format!(
            "{what} reply version {theirs}, this build reads {ours}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_of_another_version_are_refused() {
        assert!(check_version("stats", STATS_VERSION, STATS_VERSION).is_ok());
        assert!(matches!(
            check_version("stats", STATS_VERSION + 1, STATS_VERSION),
            Err(TsError::Wire(_))
        ));
    }
}
