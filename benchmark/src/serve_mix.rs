//! The `serve_warm_mix` load: a seeded, fixed sequence of `GET /query`
//! requests sent in a closed loop by two client threads, each of which waits
//! for its reply before taking the next request — every connection carries
//! one request and the callers of a query service wait for their answers.

use crate::fixture::{LineHasher, Oracle, STREAM_PATTERN};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use subgraph_graph::rng::Rng;
use subgraph_serve::client;

/// Client threads (= connections in flight) of the closed loop.
pub const CLIENTS: usize = 2;

/// Requests in one block, the repetition of this workload: 60 % light,
/// 20 % stream, 20 % heavy, so the 90th percentile of a block's latencies
/// lands in the middle of the heavy class and not on a class boundary.
pub const BLOCK: usize = 160;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Cached plan + serial kernel: HTTP framing dominates.
    Light,
    /// Enumerate streamed as CSV through the serializing sink.
    Stream,
    /// The map-reduce path (64 reducers) on the server's shared pool.
    Heavy,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Light, Class::Stream, Class::Heavy];

    pub fn name(self) -> &'static str {
        match self {
            Class::Light => "serve.light",
            Class::Stream => "serve.stream",
            Class::Heavy => "serve.heavy",
        }
    }

    pub fn target(self) -> String {
        match self {
            Class::Light => "/query?pattern=triangle&reducers=1".to_string(),
            Class::Stream => {
                format!("/query?pattern={STREAM_PATTERN}&mode=enumerate&format=csv&reducers=1")
            }
            Class::Heavy => "/query?pattern=triangle".to_string(),
        }
    }
}

/// The request sequence of one block: the exact 60/20/20 mix in an order
/// shuffled from `seed` (Fisher–Yates over the in-repo generator).
pub fn sequence(seed: u64) -> Vec<Class> {
    let mut sequence: Vec<Class> = (0..BLOCK)
        .map(|i| match i * 5 / BLOCK {
            0..=2 => Class::Light,
            3 => Class::Stream,
            _ => Class::Heavy,
        })
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..sequence.len()).rev() {
        sequence.swap(i, rng.gen_index(i + 1));
    }
    sequence
}

/// One request as the client saw it, connect to last byte.
pub struct Reply {
    pub class: Class,
    /// Which client thread sent it.
    pub client: usize,
    pub start: Instant,
    pub secs: f64,
    pub ok: bool,
    /// `elapsed_micros` of the response envelope (count queries).
    pub engine_micros: Option<f64>,
}

/// The number after `"key":` in a flat JSON document.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn send(addr: &SocketAddr, class: Class, client: usize, oracle: &Oracle) -> Reply {
    let start = Instant::now();
    let response = client::get(addr, &class.target());
    let secs = start.elapsed().as_secs_f64();
    let mut engine_micros = None;
    let ok = match response {
        Ok(response) if response.status == 200 => match class {
            Class::Light | Class::Heavy => {
                let body = String::from_utf8_lossy(&response.body);
                engine_micros = json_number(&body, "elapsed_micros");
                json_number(&body, "count") == Some(oracle.count as f64)
            }
            Class::Stream => {
                let mut hasher = LineHasher::default();
                hasher
                    .write_all(&response.body)
                    .expect("hashing never fails");
                (hasher.lines, hasher.hash) == (oracle.lines, oracle.hash)
            }
        },
        _ => false,
    };
    Reply {
        class,
        client,
        start,
        secs,
        ok,
        engine_micros,
    }
}

/// Sends `sequence` once: the client threads take requests off it in order,
/// each sending its next one only after the previous reply is complete.
pub fn run_block(addr: &SocketAddr, sequence: &[Class], oracle: &Oracle) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    while let Some(&class) = sequence.get(next.fetch_add(1, Ordering::Relaxed)) {
                        replies.push(send(addr, class, client, oracle));
                    }
                    replies
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_sequences_and_other_seeds_differ() {
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
    }

    #[test]
    fn every_sequence_carries_the_exact_mix() {
        for seed in 0..5 {
            let sequence = sequence(seed);
            let count = |class| sequence.iter().filter(|&&c| c == class).count();
            assert_eq!(
                (
                    count(Class::Light),
                    count(Class::Stream),
                    count(Class::Heavy)
                ),
                (96, 32, 32)
            );
        }
    }

    #[test]
    fn json_number_reads_envelope_fields() {
        let body = "{\"pattern\":\"triangle\",\"count\":167,\"elapsed_micros\":2031}\n";
        assert_eq!(json_number(body, "count"), Some(167.0));
        assert_eq!(json_number(body, "elapsed_micros"), Some(2031.0));
        assert_eq!(json_number(body, "missing"), None);
    }
}
