//! Property tests for the request boundary. Whatever bytes arrive,
//! `http::read_request` answers without panicking and never returns more
//! body than was sent or than `MAX_BODY_BYTES`; whatever bad body a
//! `POST /attack` carries, the server answers 400 and builds nothing.

use deepsplit_core::config::AttackConfig;
use deepsplit_core::store::MemoryModelStore;
use deepsplit_defense::eval::EvalConfig;
use deepsplit_defense::service::{
    AttackRequest, MAX_BATCH_SIZE, MAX_CANDIDATES, MAX_EPOCHS, MAX_IMAGE_PX, MAX_IMAGE_SCALES,
    MAX_TRAIN_BENCHMARKS,
};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_serve::http::{read_request, MAX_BODY_BYTES};
use deepsplit_serve::{AttackServer, Request, ServeConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// A garbled request and, when it is well formed, the body it carries.
///
/// The request line is valid, of another protocol or missing; the
/// `Content-Length` is the body's, anything in `u64`, small, or not a
/// number; a header of printable or of arbitrary (maybe non-UTF-8) bytes
/// follows; and two cases in three are cut at an arbitrary byte.
fn arb_wire() -> impl Strategy<Value = (Vec<u8>, Option<Vec<u8>>)> {
    (
        (0usize..4, 0usize..4, any::<u64>()),
        (any::<bool>(), vec(any::<u8>(), 0..48)),
        vec(any::<u8>(), 0..256),
        any::<usize>(),
    )
        .prop_map(
            |((line, length, declared), (printable, mut junk), body, cut)| {
                if printable {
                    junk.iter_mut().for_each(|b| *b = b' ' + *b % 95);
                }
                let mut wire = match line {
                    0 => b"POST /attack HTTP/1.1\r\n".to_vec(),
                    1 => b"GET /healthz HTTP/1.0\r\n".to_vec(),
                    2 => b"PUT /models/x SPDY/3\r\n".to_vec(),
                    _ => b"\r\n".to_vec(),
                };
                let length = match length {
                    0 => body.len().to_string(),
                    1 => declared.to_string(),
                    2 => (declared % 512).to_string(),
                    _ => "-1".to_string(),
                };
                wire.extend(format!("Content-Length: {length}\r\nX-Junk: ").bytes());
                wire.extend(&junk);
                wire.extend(b"\r\n\r\n");
                wire.extend(&body);
                let whole = cut % 3 == 0;
                let clean_junk = !junk.contains(&b'\n') && std::str::from_utf8(&junk).is_ok();
                let expected =
                    (whole && line < 2 && length == body.len().to_string() && clean_junk)
                        .then(|| body.clone());
                if !whole {
                    wire.truncate(cut % (wire.len() + 1));
                }
                (wire, expected)
            },
        )
}

/// The tiny protocol of `serve_suite`, valid as it stands.
fn tiny_request() -> AttackRequest {
    AttackRequest {
        eval: EvalConfig {
            attack: AttackConfig {
                use_images: false,
                candidates: 8,
                epochs: 4,
                batch_size: 16,
                ..AttackConfig::fast()
            },
            scale: 0.4,
            train_benchmarks: vec![Benchmark::C880],
            train_query_cap: 150,
            ..EvalConfig::fast()
        },
        top_k: 3,
        ..AttackRequest::fast(Benchmark::C432)
    }
}

/// The tiny request with knob `knob` set out of range, by an amount drawn
/// from `value`.
fn refused_spec(knob: usize, value: u64) -> AttackRequest {
    let mut spec = tiny_request();
    let low = value.is_multiple_of(2);
    // Past `max` by 1 to 64, so a list stays short.
    let past = |max: usize| max + 1 + (value % 64) as usize;
    let attack = &mut spec.eval.attack;
    match knob {
        0 => spec.benchmark = format!("x{value}"),
        1 => spec.defense.strength = 1.0 + (value % 1000 + 1) as f64 / 100.0,
        2 => spec.split_layer = if low { 0 } else { 6 + (value % 200) as u8 },
        3 => {
            attack.candidates = if low {
                (value / 2 % 2) as usize
            } else {
                past(MAX_CANDIDATES)
            }
        }
        4 => attack.epochs = if low { 0 } else { past(MAX_EPOCHS) },
        5 => attack.batch_size = if low { 0 } else { past(MAX_BATCH_SIZE) },
        6 => attack.image_px = if low { 0 } else { past(MAX_IMAGE_PX) },
        7 if low => attack.image_scales_um = vec![0.1; past(MAX_IMAGE_SCALES)],
        7 => attack.image_scales_um[(value % 3) as usize] = -((value % 100) as f64) / 10.0,
        8 => {
            spec.eval.scale = if low {
                0.0
            } else {
                100.0 + (value % 1000 + 1) as f64
            }
        }
        _ if low => spec.eval.train_benchmarks = vec![Benchmark::C432],
        _ => spec.eval.train_benchmarks = vec![Benchmark::C880; past(MAX_TRAIN_BENCHMARKS)],
    }
    spec
}

/// A bad `POST /attack` body: arbitrary bytes, a strict prefix of a valid
/// body, a valid body made non-UTF-8, or a well-formed spec with one knob
/// out of range.
fn arb_bad_body() -> impl Strategy<Value = Vec<u8>> {
    let valid = serde_json::to_string(&tiny_request())
        .expect("serialise request")
        .into_bytes();
    (
        0usize..4,
        vec(any::<u8>(), 0..512),
        any::<usize>(),
        (0usize..10, any::<u64>()),
    )
        .prop_map(move |(kind, bytes, at, (knob, value))| match kind {
            0 => bytes,
            1 => valid[..at % valid.len()].to_vec(),
            2 => {
                let mut body = valid.clone();
                body.insert(at % (body.len() + 1), 0xff);
                body
            }
            _ => serde_json::to_string(&refused_spec(knob, value))
                .expect("serialise request")
                .into_bytes(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the parser or yield a body longer than
    /// the bytes sent.
    #[test]
    fn read_request_survives_arbitrary_bytes(bytes in vec(any::<u8>(), 0..1024)) {
        if let Ok(Some(request)) = read_request(&mut bytes.as_slice()) {
            prop_assert!(request.body.len() <= bytes.len().min(MAX_BODY_BYTES));
        }
    }

    /// Truncated heads, huge or bogus `Content-Length`s and non-UTF-8
    /// headers are refused or read within bounds; a well-formed request
    /// reads back the body it carried.
    #[test]
    fn read_request_bounds_garbled_requests(case in arb_wire()) {
        let (wire, expected) = case;
        let read = read_request(&mut wire.as_slice());
        if let Ok(Some(request)) = &read {
            prop_assert!(request.body.len() <= wire.len().min(MAX_BODY_BYTES));
        }
        if let Some(body) = expected {
            prop_assert_eq!(read.map(|r| r.map(|r| r.body)), Ok(Some(body)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every bad `/attack` body is answered 400 before any model, layout
    /// or victim is built.
    #[test]
    fn bad_attack_bodies_answer_400_and_build_nothing(body in arb_bad_body()) {
        let server = AttackServer::new(&ServeConfig::default(), Arc::new(MemoryModelStore::new()));
        let response = server.handle(&Request {
            method: "POST".to_string(),
            path: "/attack".to_string(),
            body,
            peer: None,
        });
        prop_assert_eq!(response.status, 400, "{}", String::from_utf8_lossy(&response.body));
        let snapshot = server.metrics_snapshot();
        prop_assert_eq!(snapshot.models_trained, 0);
        prop_assert_eq!(snapshot.store.misses, 0);
        prop_assert_eq!(snapshot.victim_cache.misses + snapshot.layout_cache.misses, 0);
    }
}
