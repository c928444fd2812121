use super::column::{body_len, body_lens, emit_body, varint_len};
use super::*;
use proptest::prelude::*;

fn scalar(idx: u32, ts: u64, v: f64) -> Reading {
    Reading::new(
        SensorId::new(SensorType::Temperature, idx),
        ts,
        Value::from_f64(v),
    )
}

#[test]
fn varint_roundtrips_edge_values() {
    for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());
    }
}

#[test]
fn varint_rejects_overlong_and_truncated() {
    assert!(matches!(
        get_varint(&[0x80; 11], &mut 0),
        Err(Error::Malformed { .. })
    ));
    assert!(matches!(
        get_varint(&[0x80, 0x80], &mut 0),
        Err(Error::UnexpectedEof { .. })
    ));
    // 10th byte may only contribute one bit.
    let mut overflow = vec![0xFF; 9];
    overflow.push(0x02);
    assert!(matches!(
        get_varint(&overflow, &mut 0),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn zigzag_roundtrips_extremes() {
    for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4711, -4711] {
        assert_eq!(unzigzag(zigzag(v)), v);
    }
}

#[test]
fn every_technique_roundtrips_every_shape() {
    let shapes: Vec<Vec<u64>> = vec![
        vec![],
        vec![42],
        vec![7; 100],
        (0..100u64).map(|i| 900 * i).collect(),
        vec![u64::MAX, 0, u64::MAX, 1],
        (0..50u64).map(|i| (i * i) ^ 0xABCD).collect(),
    ];
    for technique in Technique::ALL {
        for values in &shapes {
            let mut buf = Vec::new();
            encode_column_as(technique, values, &mut buf);
            let mut pos = 0;
            let (t, back) = decode_column(&buf, &mut pos, values.len() as u64)
                .unwrap_or_else(|e| panic!("{technique:?} over {values:?}: {e}"));
            assert_eq!(t, technique);
            assert_eq!(&back, values, "{technique:?}");
            assert_eq!(pos, buf.len());
        }
    }
}

/// The frame `encode_column_as` writes is `tag | varint body_len | body`.
fn forced_body_len(technique: Technique, values: &[u64]) -> usize {
    let mut frame = Vec::new();
    encode_column_as(technique, values, &mut frame);
    let mut pos = 1;
    let declared = get_varint(&frame, &mut pos).unwrap() as usize;
    assert_eq!(frame.len() - pos, declared, "{technique:?} frame header");
    declared
}

fn assert_costs_match_bodies(values: &[u64]) {
    let mut dict = DictProbe::default();
    for technique in Technique::ALL {
        assert_eq!(
            body_len(technique, values, &mut dict, usize::MAX),
            forced_body_len(technique, values),
            "{technique:?} over {values:?}"
        );
    }
}

/// The probe as it was: one sizing pass per technique, in probe
/// order, each length the bytes of that technique's body, `Dict`
/// probed against the best so far. Returns the choice and every
/// length (`Dict`'s as probed).
fn five_pass_probe(values: &[u64]) -> (Technique, [usize; 6]) {
    let mut dict = DictProbe::default();
    let mut lens = [0; 6];
    let mut best = Technique::Raw;
    let mut best_len = usize::MAX;
    for technique in Technique::ALL {
        let len = if technique == Technique::Dict {
            dict.probe(values, best_len)
        } else {
            let mut body = Vec::new();
            emit_body(technique, values, &dict, &mut body);
            body.len()
        };
        lens[technique.tag() as usize] = len;
        if len < best_len {
            best = technique;
            best_len = len;
        }
    }
    (best, lens)
}

fn assert_one_pass_probe_matches_five(values: &[u64]) {
    let (model_choice, model_lens) = five_pass_probe(values);
    let mut lens = body_lens(values);
    // `Dict` as `probe_column` probes it: against the best of the
    // techniques before it.
    let bound = lens[..Technique::Dict.tag() as usize]
        .iter()
        .copied()
        .min()
        .unwrap();
    lens[Technique::Dict.tag() as usize] = DictProbe::default().probe(values, bound);
    assert_eq!(lens, model_lens, "lengths over {values:?}");
    let mut frame = Vec::new();
    assert_eq!(
        encode_column(values, &mut frame),
        model_choice,
        "{values:?}"
    );
    let mut model_frame = Vec::new();
    encode_column_as(model_choice, values, &mut model_frame);
    assert_eq!(frame, model_frame, "frame over {values:?}");
}

#[test]
fn one_pass_probe_matches_five_passes_on_edge_columns() {
    let wrapping: Vec<u64> = vec![u64::MAX, 0, u64::MAX - 1, 1, u64::MAX, 0];
    let edges: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        vec![u64::MAX],
        vec![7, 7],
        vec![0, u64::MAX],
        vec![u64::MAX, 0],
        vec![u64::MAX; 50],
        vec![3; 500],
        wrapping,
        (0..300u64).map(|i| u64::MAX - 900 * i).collect(),
        (0..300u64).map(|i| 1_000_000 + 900 * i + i % 3).collect(),
    ];
    for values in &edges {
        assert_one_pass_probe_matches_five(values);
    }
}

#[test]
fn size_only_costs_match_bodies_on_edge_columns() {
    assert_costs_match_bodies(&[]);
    for v in [0, 1, 127, 128, u64::MAX] {
        assert_eq!(varint_len(v), forced_body_len(Technique::Raw, &[v]));
        assert_costs_match_bodies(&[v]);
    }
    assert_costs_match_bodies(&[u64::MAX, 0, u64::MAX, 1]);
}

proptest! {
    #[test]
    fn size_only_costs_match_bodies_on_arbitrary_columns(
        wide in proptest::collection::vec(any::<u64>(), 0..200),
        narrow in proptest::collection::vec(0u64..6, 0..200),
    ) {
        assert_costs_match_bodies(&wide);
        assert_costs_match_bodies(&narrow);
    }

    #[test]
    fn one_pass_probe_matches_five_passes_on_arbitrary_columns(
        wide in proptest::collection::vec(any::<u64>(), 0..200),
        narrow in proptest::collection::vec(0u64..6, 0..200),
        start in any::<u64>(),
        steps in proptest::collection::vec(-3i64..4, 0..200),
    ) {
        assert_one_pass_probe_matches_five(&wide);
        assert_one_pass_probe_matches_five(&narrow);
        // A drifting cadence that may wrap past either end.
        let drift: Vec<u64> = steps
            .iter()
            .scan(start, |v, &s| {
                *v = v.wrapping_add((900 + s) as u64);
                Some(*v)
            })
            .collect();
        assert_one_pass_probe_matches_five(&drift);
    }

    #[test]
    fn a_dictionary_probe_that_bails_out_would_not_have_won(
        pool in proptest::collection::vec(any::<u64>(), 1..12),
        picks in proptest::collection::vec(0usize..1024, 0..200),
        noise in proptest::collection::vec(any::<u64>(), 0..8),
        limit in 0usize..600,
    ) {
        // Mostly repeats from a small pool (where the dictionary is
        // in contention), a little noise, and any limit.
        let mut values: Vec<u64> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        values.extend(noise);
        let mut dict = DictProbe::default();
        let exact = dict.probe(&values, usize::MAX);
        let bounded = dict.probe(&values, limit);
        prop_assert!(bounded <= exact, "a bound above the body: {} > {}", bounded, exact);
        if exact < limit {
            // It would have won: the probe must run to the end.
            prop_assert_eq!(bounded, exact);
            let mut body = Vec::new();
            dict.emit(&mut body);
            prop_assert_eq!(body.len(), exact);
        } else {
            prop_assert!(bounded >= limit, "bailed below the limit: {} < {}", bounded, limit);
        }
    }
}

#[test]
fn probe_picks_dod_for_regular_timestamps_and_rle_for_runs() {
    let ts: Vec<u64> = (0..500u64).map(|i| 1_000_000 + 900 * i).collect();
    let mut buf = Vec::new();
    assert_eq!(encode_column(&ts, &mut buf), Technique::DeltaOfDelta);
    let runs = vec![3u64; 500];
    let mut buf2 = Vec::new();
    assert_eq!(encode_column(&runs, &mut buf2), Technique::Rle);
    // A regular period costs ~1 byte per record (zero residuals);
    // a constant run collapses to one (value, run) pair.
    assert!(
        buf.len() < 520 && buf2.len() < 10,
        "{} / {}",
        buf.len(),
        buf2.len()
    );
}

#[test]
fn stream_roundtrips_and_dictionary_persists() {
    let mut enc = StreamEncoder::new();
    let mut dec = StreamDecoder::new();
    let wave =
        |t: u64| -> Vec<Reading> { (0..40).map(|i| scalar(i, t, 20.0 + i as f64)).collect() };
    let first = enc.encode_batch(&wave(900)).unwrap();
    let second = enc.encode_batch(&wave(1800)).unwrap();
    assert_eq!(enc.dict_len(), 40);
    assert!(
        second.len() < first.len(),
        "second batch must ride the dictionary ({} vs {})",
        second.len(),
        first.len()
    );
    assert_eq!(dec.decode_batch(&first).unwrap(), wave(900));
    assert_eq!(dec.decode_batch(&second).unwrap(), wave(1800));
    assert_eq!(dec.dict_len(), 40);
}

/// An irregular value, one its type's shape does not admit, no
/// longer rides a DEFLATE fallback: the batch is refused and the
/// first such record is named.
#[test]
fn irregular_values_ride_the_fallback() {
    // A parking spot shipping a scalar contradicts its shape; the
    // batch's first record is fine and the second is named.
    let mut enc = StreamEncoder::new();
    let odd = vec![
        Reading::new(
            SensorId::new(SensorType::ParkingSpot, 0),
            900,
            Value::Flag(true),
        ),
        Reading::new(
            SensorId::new(SensorType::ParkingSpot, 1),
            900,
            Value::Scalar(200),
        ),
    ];
    assert!(matches!(
        enc.encode_batch(&odd),
        Err(Error::UnshippableRecord { record: 1, .. })
    ));
    assert_eq!(enc.dict_len(), 0);
    // A composite past the columnar limit is refused the same way.
    let wide = vec![Reading::new(
        SensorId::new(SensorType::Weather, 0),
        900,
        Value::Composite(vec![0; MAX_COMPOSITE_FIELDS as usize + 1]),
    )];
    assert!(matches!(
        enc.encode_batch(&wide),
        Err(Error::UnshippableRecord { record: 0, .. })
    ));
    assert_eq!(enc.dict_len(), 0);
}

/// The refusal that took the fallback's place commits no dictionary
/// state: a `commit` after it keeps `dict_len`, and the next batch
/// decodes against a decoder that saw only the committed ones.
#[test]
fn fallback_commits_no_dictionary_state() {
    let mut enc = StreamEncoder::new();
    let mut dec = StreamDecoder::new();
    let first = vec![scalar(0, 900, 20.0)];
    assert_eq!(
        dec.decode_batch(&enc.encode_batch(&first).unwrap()),
        Ok(first.clone())
    );
    assert_eq!(enc.dict_len(), 1);
    let odd = vec![
        scalar(1, 1800, 21.0),
        Reading::new(
            SensorId::new(SensorType::ParkingSpot, 1),
            1800,
            Value::Scalar(200),
        ),
    ];
    assert!(enc.stage_batch(&odd).is_err());
    enc.commit();
    assert_eq!(enc.dict_len(), 1);
    let next = vec![scalar(0, 2700, 20.5), scalar(2, 2700, 22.0)];
    assert_eq!(
        dec.decode_batch(&enc.encode_batch(&next).unwrap()),
        Ok(next)
    );
    assert_eq!((enc.dict_len(), dec.dict_len()), (2, 2));
    let mut fresh = StreamEncoder::new();
    assert!(fresh.stage_batch(&odd).is_err());
    fresh.commit();
    assert_eq!(fresh.dict_len(), 0);
    let packed = fresh.encode_batch(&first).unwrap();
    assert_eq!(StreamDecoder::new().decode_batch(&packed), Ok(first));
}

#[test]
fn empty_batch_roundtrips() {
    let packed = encode_once(&[]).unwrap();
    assert_eq!(decode_once(&packed).unwrap(), Vec::<Reading>::new());
}

#[test]
fn decoder_rejects_bad_magic_and_bitflips() {
    let batch: Vec<Reading> = (0..20)
        .map(|i| scalar(i, 900 * u64::from(i), 21.0))
        .collect();
    let packed = encode_once(&batch).unwrap();
    let mut wrong = packed.clone();
    wrong[0] = b'X';
    assert!(matches!(decode_once(&wrong), Err(Error::BadMagic { .. })));
    for i in 4..packed.len() {
        let mut flipped = packed.clone();
        flipped[i] ^= 0x10;
        assert!(decode_once(&flipped).is_err(), "flip at {i} must fail");
    }
}

#[test]
fn decoder_rejects_every_truncation() {
    let batch: Vec<Reading> = (0..20)
        .map(|i| scalar(i, 900 * u64::from(i), 21.0))
        .collect();
    let packed = encode_once(&batch).unwrap();
    for len in 0..packed.len() {
        assert!(
            decode_once(&packed[..len]).is_err(),
            "prefix {len} must fail"
        );
    }
}

#[test]
fn mixed_type_batch_roundtrips() {
    let mut batch = Vec::new();
    for i in 0..10u32 {
        batch.push(Reading::new(
            SensorId::new(SensorType::ParkingSpot, i),
            900,
            Value::Flag(i % 2 == 0),
        ));
        batch.push(Reading::new(
            SensorId::new(SensorType::Traffic, i),
            900,
            Value::Counter(u64::from(i) * 17),
        ));
        batch.push(Reading::new(
            SensorId::new(SensorType::ContainerGlass, i),
            901,
            Value::Level((i % 100) as u8),
        ));
        batch.push(Reading::new(
            SensorId::new(SensorType::Weather, i),
            902,
            Value::Composite(vec![2100 + i64::from(i), -50, 10_132]),
        ));
    }
    let packed = encode_once(&batch).unwrap();
    assert_eq!(packed[4], MODE_COLUMNAR);
    assert_eq!(decode_once(&packed).unwrap(), batch);
}

#[test]
fn type_frames_and_shared_bytes_make_up_the_payload() {
    let batch: Vec<Reading> = (0..10u32)
        .flat_map(|i| {
            [
                scalar(i, 900 + u64::from(i), f64::from(i) * 0.5),
                Reading::new(
                    SensorId::new(SensorType::Traffic, i),
                    900,
                    Value::Counter(u64::from(i) * 17),
                ),
                Reading::new(
                    SensorId::new(SensorType::Weather, i),
                    902,
                    Value::Composite(vec![2100 + i64::from(i), -50, 10_132]),
                ),
            ]
        })
        .collect();
    let mut encoder = StreamEncoder::new();
    let mut decoder = StreamDecoder::new();
    let packed = encoder.encode_batch(&batch).unwrap();
    decoder.decode_batch(&packed).unwrap();
    let present = [
        SensorType::Temperature,
        SensorType::Traffic,
        SensorType::Weather,
    ];
    for ty in SensorType::ALL {
        assert_eq!(
            decoder.type_frame_bytes(ty) > 0,
            present.contains(&ty),
            "{ty:?}"
        );
    }
    // Shared: the envelope, the record count, the dictionary block
    // and the code, section and timestamp frames.
    let body = &packed[BODY_OFFSET..packed.len() - 4];
    let mut pos = 0;
    let n = get_varint(body, &mut pos).unwrap();
    for _ in 0..get_varint(body, &mut pos).unwrap() {
        pos += 1;
        get_varint(body, &mut pos).unwrap();
    }
    for _shared in 0..3 {
        decode_column(body, &mut pos, n).unwrap();
    }
    let typed: usize = present.iter().map(|&ty| decoder.type_frame_bytes(ty)).sum();
    assert_eq!(typed + ENVELOPE_LEN + pos, packed.len());
    // The next batch of the stream holds no weather reading.
    let next = encoder.encode_batch(&batch[..2]).unwrap();
    decoder.decode_batch(&next).unwrap();
    assert!(decoder.type_frame_bytes(SensorType::Traffic) > 0);
    assert_eq!(decoder.type_frame_bytes(SensorType::Weather), 0);
}

/// What becomes of one staged batch of a stream.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// The receiver decoded it: both ends commit.
    Commit,
    /// It was lost: the sender discards, the receiver never sees it.
    Discard,
    /// It holds a value its type's shape contradicts: refused.
    Refuse,
}

/// Batch `step` of stream `stream`: every batch mixes three shapes,
/// meets new sensors and repeats, and a refused one ends on a
/// parking spot that reports a scalar.
fn stream_batch(stream: usize, step: usize, salt: u64, fate: Fate) -> Vec<Reading> {
    let t = 900 * (step as u64 + 1);
    let n = 3 + salt % 9;
    let mut batch: Vec<Reading> = (0..n)
        .map(|i| {
            let idx = (stream * 100) as u32 + ((salt / 7 + i * 3) % 14) as u32;
            match (salt + i) % 3 {
                0 => scalar(idx, t, f64::from(idx) + (salt % 5) as f64),
                1 => Reading::new(
                    SensorId::new(SensorType::Traffic, idx),
                    t + i,
                    Value::Counter(salt % 1_000 + i),
                ),
                _ => Reading::new(
                    SensorId::new(SensorType::Weather, idx),
                    t,
                    Value::Composite(vec![2_100 + (salt % 50) as i64, -50, i as i64]),
                ),
            }
        })
        .collect();
    if let Fate::Refuse = fate {
        batch.push(Reading::new(
            SensorId::new(SensorType::ParkingSpot, 7),
            t,
            Value::Scalar(1),
        ));
    }
    batch
}

/// Everything one stream's encoder and decoder produced, in order:
/// each staged payload (or refusal), and after each finished step
/// both dictionaries' sizes and every type's frame bytes.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    payloads: Vec<Result<Vec<u8>>>,
    after: Vec<(usize, usize, Vec<usize>)>,
}

/// One stream: its encoder and decoder, the steps left, and the
/// batch staged and not yet finished.
struct Pair {
    enc: StreamEncoder,
    dec: StreamDecoder,
    script: std::vec::IntoIter<(Fate, u64)>,
    step: usize,
    staged: Option<(Fate, Vec<Reading>, Result<Vec<u8>>)>,
    trace: Trace,
}

impl Pair {
    fn new(script: Vec<(Fate, u64)>) -> Self {
        Self {
            enc: StreamEncoder::new(),
            dec: StreamDecoder::new(),
            script: script.into_iter(),
            step: 0,
            staged: None,
            trace: Trace::default(),
        }
    }

    /// The stream's next half-step — stage its next batch, or finish
    /// the staged one; `false` once the script is done.
    fn advance(&mut self, stream: usize) -> bool {
        if let Some((fate, batch, payload)) = self.staged.take() {
            match (fate, &payload) {
                (Fate::Commit, Ok(bytes)) => {
                    self.enc.commit();
                    assert_eq!(self.dec.decode_batch(bytes), Ok(batch));
                }
                // A commit after a refusal commits nothing.
                (_, Err(_)) => self.enc.commit(),
                _ => self.enc.discard(),
            }
            let frames = SensorType::ALL.map(|ty| self.dec.type_frame_bytes(ty));
            self.trace
                .after
                .push((self.enc.dict_len(), self.dec.dict_len(), frames.to_vec()));
            self.trace.payloads.push(payload);
            self.step += 1;
            return true;
        }
        let Some((fate, salt)) = self.script.next() else {
            return false;
        };
        let batch = stream_batch(stream, self.step, salt, fate);
        let payload = self.enc.stage_batch(&batch);
        assert_eq!(payload.is_err(), matches!(fate, Fate::Refuse));
        self.staged = Some((fate, batch, payload));
        true
    }
}

/// Runs the three streams' scripts on this thread, stream `picks[i]`
/// taking the `i`-th half-step, then the rest round-robin.
fn interleave(scripts: &[Vec<(Fate, u64)>; 3], picks: &[usize]) -> Vec<Trace> {
    let mut pairs: Vec<Pair> = scripts.iter().cloned().map(Pair::new).collect();
    for &pick in picks {
        pairs[pick % 3].advance(pick % 3);
    }
    while pairs
        .iter_mut()
        .enumerate()
        .fold(false, |more, (s, pair)| pair.advance(s) | more)
    {}
    pairs.into_iter().map(|pair| pair.trace).collect()
}

/// Each stream alone on a fresh thread, whose scratch no other
/// stream has touched.
fn alone(scripts: &[Vec<(Fate, u64)>; 3]) -> Vec<Trace> {
    (0..3)
        .map(|s| {
            let script = scripts[s].clone();
            std::thread::spawn(move || {
                let mut pair = Pair::new(script);
                while pair.advance(s) {}
                pair.trace
            })
            .join()
            .unwrap()
        })
        .collect()
}

/// The scratch is the thread's, the staged additions the stream's:
/// stream 0 stages new sensors, stream 2 is refused and stream 1
/// stages and discards its own before stream 0 commits, and every
/// stream's payloads, dictionaries and frame bytes are the ones it
/// produces alone.
#[test]
fn streams_sharing_a_thread_encode_as_they_do_alone() {
    let scripts = [
        vec![(Fate::Commit, 11), (Fate::Commit, 40), (Fate::Commit, 3)],
        vec![(Fate::Discard, 25), (Fate::Commit, 8), (Fate::Commit, 61)],
        vec![(Fate::Refuse, 5), (Fate::Commit, 19), (Fate::Discard, 2)],
    ];
    // 0 stages; 2 stages (refused); 1 stages, discards; 2 finishes;
    // 0 commits — then the rest, round-robin.
    let picks = [0, 2, 1, 1, 2, 0];
    assert_eq!(interleave(&scripts, &picks), alone(&scripts));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn streams_interleaved_at_random_cuts_encode_as_they_do_alone(
        script in proptest::collection::vec((0u8..6, any::<u64>()), 9..18),
        picks in proptest::collection::vec(0usize..3, 0..40),
    ) {
        let fate = |f: u8| match f {
            0 => Fate::Discard,
            1 => Fate::Refuse,
            _ => Fate::Commit,
        };
        let mut scripts: [Vec<(Fate, u64)>; 3] = Default::default();
        for (i, &(f, salt)) in script.iter().enumerate() {
            scripts[i % 3].push((fate(f), salt));
        }
        prop_assert_eq!(interleave(&scripts, &picks), alone(&scripts));
    }
}
