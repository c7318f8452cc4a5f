//! STB cross-version compatibility battery.
//!
//! The v2 codec revision (condvar/barrier op tags, 4-bit tag field, 7-field
//! header hint) must leave v1 byte streams meaning exactly what they always
//! meant, in both directions:
//!
//! * **Golden v1 bytes** committed below — produced by the v1 writer at the
//!   revision that introduced v2 — decode byte-for-byte identically to the
//!   traces that produced them, forever. The writer also still *emits*
//!   exactly these bytes for v1-expressible traces, so archived recordings
//!   diff clean against fresh ones.
//! * **Truncation fuzz** — every single-byte truncation of a stream
//!   containing every v2 op tag is a precise error, never a panic or a
//!   silent short decode (extending the v1-only fuzz in `binary.rs`).
//! * **Corruption fuzz** — every single-byte *bit flip* of a v2 stream
//!   either fails to decode or decodes to a well-formed trace; it must
//!   never panic.

use smarttrack_trace::binary::{
    from_stb_bytes, to_stb_bytes, StbError, StbReader, STB_VERSION, STB_VERSION_2,
};
use smarttrack_trace::gen::RandomTraceSpec;
use smarttrack_trace::{
    paper, BarrierId, CondId, Event, Loc, LockId, Op, ThreadId, Trace, TraceBuilder, VarId,
};

/// `paper::figure1()` as written by the v1 encoder (34 bytes, header hint
/// included). Committed so that a future revision that changes what these
/// bytes decode to — or what the writer emits for this trace — fails here.
const FIGURE1_V1: &[u8] = &[
    0x89, 0x53, 0x54, 0x42, 0x01, 0x01, 0x08, 0x02, 0x03, 0x01, 0x00, 0x14, 0x08, 0x00, 0x04, 0x08,
    0x00, 0x0a, 0x02, 0x29, 0x02, 0x0b, 0x02, 0x01, 0x04, 0x0a, 0x02, 0x28, 0x02, 0x0b, 0x02, 0x39,
    0x02, 0x00,
];

/// `paper::figure3()` as written by the v1 encoder (64 bytes).
const FIGURE3_V1: &[u8] = &[
    0x89, 0x53, 0x54, 0x42, 0x01, 0x01, 0x16, 0x03, 0x03, 0x03, 0x00, 0x32, 0x16, 0x00, 0x07, 0x0a,
    0x00, 0x2a, 0x02, 0x28, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x18, 0x02, 0x1b, 0x02, 0x01, 0x08, 0x2a,
    0x02, 0x28, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x2a, 0x02, 0x28, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x02,
    0x07, 0x3a, 0x02, 0x4a, 0x02, 0x08, 0x00, 0x09, 0x00, 0x0b, 0x00, 0x3b, 0x02, 0x39, 0x02, 0x00,
];

/// A compact trace containing every v2-only op tag (wait, notify,
/// notifyAll, barrier enter, barrier exit) plus every v1 tag.
fn all_tags_trace() -> Trace {
    let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
    let (c0, c1) = (CondId::new(0), CondId::new(1));
    let m = LockId::new(0);
    let bar = BarrierId::new(0);
    let mut b = TraceBuilder::new();
    b.push(t0, Op::Fork(t1)).unwrap();
    b.push(t0, Op::Fork(t2)).unwrap();
    b.push(t0, Op::Write(VarId::new(0))).unwrap();
    b.push(t0, Op::VolatileWrite(VarId::new(0))).unwrap();
    b.push(t1, Op::VolatileRead(VarId::new(0))).unwrap();
    b.push(t0, Op::Notify(c0)).unwrap();
    b.push(t0, Op::NotifyAll(c1)).unwrap();
    b.push(t1, Op::Acquire(m)).unwrap();
    b.push(t1, Op::Wait(c0, m)).unwrap();
    b.push(t1, Op::Read(VarId::new(0))).unwrap();
    b.push(t1, Op::Release(m)).unwrap();
    b.push(t1, Op::BarrierEnter(bar)).unwrap();
    b.push(t2, Op::BarrierEnter(bar)).unwrap();
    b.push(t1, Op::BarrierExit(bar)).unwrap();
    b.push(t2, Op::BarrierExit(bar)).unwrap();
    b.push(t0, Op::Join(t2)).unwrap();
    b.finish()
}

#[test]
fn golden_v1_bytes_decode_identically_under_the_v2_reader() {
    for (name, golden, trace) in [
        ("figure1", FIGURE1_V1, paper::figure1()),
        ("figure3", FIGURE3_V1, paper::figure3()),
    ] {
        assert_eq!(golden[4], STB_VERSION, "{name}: golden bytes are v1");
        let decoded = from_stb_bytes(golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, trace, "{name}: golden decode drifted");
        let reader = StbReader::new(golden).unwrap();
        let hint = reader.header().hint.expect("golden streams carry hints");
        assert_eq!(hint.events, trace.len() as u64, "{name}");
        assert_eq!(hint.condvars, 0, "{name}: v1 hints decode zero condvars");
        assert_eq!(hint.barriers, 0, "{name}: v1 hints decode zero barriers");
    }
}

#[test]
fn writer_still_emits_the_golden_v1_bytes() {
    assert_eq!(
        to_stb_bytes(&paper::figure1()),
        FIGURE1_V1,
        "figure1 encoding drifted from the committed v1 bytes"
    );
    assert_eq!(
        to_stb_bytes(&paper::figure3()),
        FIGURE3_V1,
        "figure3 encoding drifted from the committed v1 bytes"
    );
}

#[test]
fn every_new_op_tag_round_trips_in_v2() {
    let trace = all_tags_trace();
    let bytes = to_stb_bytes(&trace);
    assert_eq!(bytes[4], STB_VERSION_2);
    assert_eq!(from_stb_bytes(&bytes).unwrap(), trace);
}

#[test]
fn truncation_anywhere_in_a_v2_stream_is_a_precise_error() {
    let bytes = to_stb_bytes(&all_tags_trace());
    for cut in 0..bytes.len() {
        match from_stb_bytes(&bytes[..cut]) {
            Err(StbError::Truncated { offset, .. }) => {
                assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
            Ok(_) => panic!("cut at {cut}: truncated stream decoded"),
        }
    }
}

#[test]
fn truncation_fuzz_over_random_sync_traces_and_chunk_sizes() {
    use smarttrack_trace::binary::{StbHint, StbWriter};
    for seed in 0..3u64 {
        let trace = RandomTraceSpec::tiny_sync().generate(seed);
        for chunk in [1, 7, 64] {
            let mut w =
                StbWriter::with_hint(Vec::new(), StbHint::of_trace(&trace)).chunk_events(chunk);
            for e in trace.events() {
                w.write(e).unwrap();
            }
            let bytes = w.finish().unwrap();
            for cut in 0..bytes.len() {
                match from_stb_bytes(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(_) => panic!("seed {seed} chunk {chunk}: cut {cut} decoded"),
                }
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_the_v2_decoder() {
    let bytes = to_stb_bytes(&all_tags_trace());
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            // Any outcome but a panic is acceptable: a precise error, or a
            // decode to some other well-formed trace.
            let _ = from_stb_bytes(&mutated);
        }
    }
}

#[test]
fn v2_streams_skip_chunks_with_sync_ops() {
    use smarttrack_trace::binary::{StbHint, StbWriter};
    let trace = RandomTraceSpec::tiny_sync().generate(9);
    let mut w = StbWriter::with_hint(Vec::new(), StbHint::of_trace(&trace)).chunk_events(8);
    for e in trace.events() {
        w.write(e).unwrap();
    }
    let bytes = w.finish().unwrap();
    let mut reader = StbReader::new(&bytes[..]).unwrap();
    let skipped = reader.skip_chunk().unwrap().expect("first chunk");
    assert_eq!(skipped, 8);
    let rest: Result<Vec<_>, _> = (&mut reader).collect();
    assert_eq!(rest.unwrap(), &trace.events()[8..]);
}

#[test]
fn sessions_presize_from_v2_hints() {
    // The v2 header's condvar/barrier cardinalities flow into StreamHint.
    let trace = all_tags_trace();
    let bytes = to_stb_bytes(&trace);
    let reader = StbReader::new(&bytes[..]).unwrap();
    let hint = smarttrack_detect::StreamHint::of_stb_header(reader.header());
    assert_eq!(hint.condvars, Some(trace.num_condvars()));
    assert_eq!(hint.barriers, Some(trace.num_barriers()));
    // And a session fed from the reader matches whole-trace analysis.
    let config = smarttrack::AnalysisConfig::table1()[0];
    let engine = smarttrack::Engine::for_config(config).unwrap();
    let mut session = engine.open_with_hint(hint);
    for event in StbReader::new(&bytes[..]).unwrap() {
        session.feed(event.unwrap()).unwrap();
    }
    let streamed = session.finish_one().report;
    let whole = smarttrack::analyze(&trace, config).report;
    assert_eq!(streamed, whole);
}

/// Values at the LEB128 one/two/three-byte edges and the top of the id
/// range.
const EDGES: [u32; 6] = [0, 127, 128, 16383, 16384, u32::MAX];

/// Events whose thread ids, target ids, deltas (both signs) and locations
/// sit on the varint edges. `Loc` reserves `u32::MAX` for "unknown", so
/// locations stop one below it.
fn edge_events(rw_ops: bool) -> Vec<Event> {
    let loc = |v: u32| Loc::new(v.min(u32::MAX - 1));
    let mut events = Vec::new();
    let mut ramp = 0u32;
    for (i, &a) in EDGES.iter().enumerate() {
        let b = EDGES[EDGES.len() - 1 - i];
        // Deltas of exactly 0, 127, 128, 16383 and 16384 on the var register.
        ramp = ramp.wrapping_add(a.min(16384));
        for (tid, op, at) in [
            (a, Op::Write(VarId::new(a)), Some(loc(a))),
            (a, Op::Read(VarId::new(b)), Some(loc(b))),
            (a, Op::Acquire(LockId::new(b)), None),
            (b, Op::Read(VarId::new(ramp)), Some(loc(ramp))),
            (b, Op::VolatileWrite(VarId::new(a)), Some(loc(a))),
            (b, Op::Release(LockId::new(a)), Some(loc(0))),
        ] {
            let tid = ThreadId::new(tid);
            events.push(match at {
                Some(l) => Event::with_loc(tid, op, l),
                None => Event::new(tid, op),
            });
        }
        if rw_ops {
            let (t, m) = (ThreadId::new(b), LockId::new(a));
            events.push(Event::with_loc(t, Op::AcqRead(m), loc(b)));
            events.push(Event::new(t, Op::Wait(CondId::new(b), LockId::new(b))));
            events.push(Event::new(t, Op::TryAcqFail(LockId::new(0))));
        }
    }
    events
}

fn encode(events: &[Event], rw_ops: bool, chunk: usize) -> Vec<u8> {
    use smarttrack_trace::binary::StbWriter;
    let w = if rw_ops {
        StbWriter::v3(Vec::new())
    } else {
        StbWriter::new(Vec::new())
    };
    let mut w = w.chunk_events(chunk);
    for e in events {
        w.write(e).unwrap();
    }
    w.finish().unwrap()
}

/// What each decoder makes of `bytes`: the events, or the first error.
fn decode_both(bytes: &[u8]) -> (Result<Vec<Event>, StbError>, Result<Vec<Event>, StbError>) {
    use smarttrack_trace::binary::StbAssembler;
    let reader = StbReader::new(bytes).and_then(|r| r.collect());
    let assembled = (|| {
        let mut asm = StbAssembler::new();
        let mut events = Vec::new();
        // Odd-sized pushes, so frames straddle push boundaries.
        for piece in bytes.chunks(7) {
            asm.push(piece)?;
            events.extend(std::iter::from_fn(|| asm.next_event()));
        }
        asm.close()?;
        Ok(events)
    })();
    (reader, assembled)
}

fn read_leb(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    value
}

fn push_leb(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// FNV-1a, to pin a long list of decoder outcomes in one constant.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Varint edges round-trip through both decoders at every chunk size, and
/// every cut — of the stream, and of a chunk payload inside each byte of
/// its varints — fails at the same offset with the same error in both.
/// The digest pins every outcome (offsets, contexts, messages), so a
/// decoder change that moves any error fails here; flipping the high bit of
/// each payload byte adds the corrupt paths to the list.
#[test]
fn varint_edges_round_trip_and_cut_errors_are_pinned() {
    let mut outcomes = String::new();
    for rw_ops in [false, true] {
        let events = edge_events(rw_ops);
        for chunk in [1, 3, 5, 64] {
            let bytes = encode(&events, rw_ops, chunk);
            let (reader, assembled) = decode_both(&bytes);
            assert_eq!(reader.unwrap(), events, "reader, chunk {chunk}");
            assert_eq!(assembled.unwrap(), events, "assembler, chunk {chunk}");
        }

        // Whole-stream cuts: every one is Truncated exactly at the cut.
        let bytes = encode(&events, rw_ops, 5);
        assert_eq!(bytes[4], if rw_ops { 3 } else { 1 });
        for cut in 0..bytes.len() {
            let (reader, assembled) = decode_both(&bytes[..cut]);
            let (r, a) = (reader.unwrap_err(), assembled.unwrap_err());
            assert!(
                matches!(r, StbError::Truncated { offset, .. } if offset == cut as u64),
                "cut {cut}: {r:?}"
            );
            assert_eq!(format!("{r:?}"), format!("{a:?}"), "cut {cut}");
            outcomes += &format!("{rw_ops} stream {cut} {r:?}\n");
        }

        // One-chunk stream, re-framed with its payload cut to every length:
        // the decode itself runs out of bytes, inside or between varints.
        let bytes = encode(&events, rw_ops, events.len());
        let mut pos = 6; // magic, version, flags; no hint
        let len = read_leb(&bytes, &mut pos) as usize;
        let count = read_leb(&bytes, &mut pos);
        let payload = &bytes[pos..pos + len];
        for k in 1..len {
            let mut cut = bytes[..6].to_vec();
            push_leb(&mut cut, k as u64);
            push_leb(&mut cut, count);
            let base = cut.len() as u64;
            cut.extend_from_slice(&payload[..k]);
            cut.push(0);
            let (reader, assembled) = decode_both(&cut);
            let (r, a) = (reader.unwrap_err(), assembled.unwrap_err());
            if k as u64 >= count {
                assert!(
                    matches!(r, StbError::Truncated { offset, .. } if offset == base + k as u64),
                    "payload cut {k}: {r:?}"
                );
            }
            assert_eq!(format!("{r:?}"), format!("{a:?}"), "payload cut {k}");
            outcomes += &format!("{rw_ops} payload {k} {r:?}\n");
        }

        // Corrupt paths: flip the continuation bit of every payload byte.
        for i in 0..len {
            let mut flipped = bytes.clone();
            flipped[pos + i] ^= 0x80;
            let (reader, assembled) = decode_both(&flipped);
            let (r, a) = (format!("{reader:?}"), format!("{assembled:?}"));
            assert_eq!(r, a, "flip {i}");
            outcomes += &format!("{rw_ops} flip {i} {r}\n");
        }
    }
    assert_eq!(
        (outcomes.lines().count(), fnv1a(&outcomes)),
        (1774, 0x33c2_93ed_dc29_0dd3),
        "decoder outcomes drifted:\n{outcomes}"
    );
}
