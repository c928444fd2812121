//! Adversarial-input robustness and known-answer vectors for the
//! [`AggPartial`] wire: truncated, bit-flipped, count-lying and
//! non-canonical register blocks must decode to `Err` or to exactly what
//! the reference decoder (`reference::RefPartial`, last write wins)
//! makes of them — never panic, never allocate past
//! `2^p + O(input)` — and the frozen vectors, generated by the dense
//! implementation this wire shipped with, pin `encode` byte for byte.

mod reference;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f2c_aggregate::sketch::{AggPartial, AggState, PARTIAL_HLL_PRECISION};
use reference::{seal, sparse_block, RefPartial, MODE_AT};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const REGISTERS: usize = 1 << PARTIAL_HLL_PRECISION;

/// The first key count whose partial no longer fits the sparse form:
/// `filled(FIRST_DENSE - 1)` occupies 341 registers, `filled(FIRST_DENSE)` 342.
const FIRST_DENSE: u64 = 425;

fn filled(n: u64) -> AggPartial {
    let mut p = AggPartial::empty();
    for i in 0..n {
        p.absorb((i % 13) as f64 - 3.0, i);
    }
    p
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex literal");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Decodes `wire` under the byte counter and holds the outcome to the
/// reference: refused exactly where it refuses, and otherwise the same
/// value — which, the wire being canonical, means the same bytes back.
fn decode_checked(wire: &[u8], what: &str) -> Option<AggPartial> {
    let before = ALLOCATED.with(Cell::get);
    let got = AggPartial::decode(wire);
    let allocated = ALLOCATED.with(Cell::get) - before;
    // The entry list (4 B per 3 B entry), one dense block, and the
    // canonical form rebuilt from it.
    assert!(
        allocated <= 3 * REGISTERS + 2 * wire.len(),
        "{what}: decoding {} bytes allocated {allocated}",
        wire.len()
    );
    match (got, RefPartial::decode(wire)) {
        (Err(_), None) => None,
        (Ok(p), Some(r)) => {
            assert_eq!(hex(&p.encode()), hex(&r.encode()), "{what}");
            assert_eq!(p.distinct_estimate(), r.distinct_estimate(), "{what}");
            Some(p)
        }
        (Ok(_), None) => panic!("{what}: decoded what the reference refuses"),
        (Err(e), Some(_)) => panic!("{what}: refused ({e}) what the reference decodes"),
    }
}

/// The wire of `p` with its register block replaced by `block` (mode
/// byte included), resealed.
fn with_block(p: &AggPartial, block: &[u8]) -> Vec<u8> {
    let mut body = p.encode()[..MODE_AT].to_vec();
    body.extend_from_slice(block);
    seal(body)
}

/// Empty, small, and either side of the sparse/dense boundary.
fn samples() -> [AggPartial; 4] {
    [0, 8, FIRST_DENSE - 1, FIRST_DENSE].map(filled)
}

#[test]
fn every_truncation_fails_cleanly() {
    for p in samples() {
        let wire = p.encode();
        for len in 0..wire.len() {
            assert!(
                decode_checked(&wire[..len], "truncation").is_none(),
                "prefix of {len}/{} bytes decoded",
                wire.len()
            );
            // With a matching CRC the cut reaches the layout checks.
            decode_checked(&seal(wire[..len].to_vec()), "resealed truncation");
        }
    }
}

#[test]
fn every_bitflip_fails_cleanly_or_decodes_as_the_reference_does() {
    for p in samples() {
        let wire = p.encode();
        let body_len = wire.len() - 4;
        for i in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[i] ^= 1u8 << bit;
                assert!(
                    decode_checked(&bad, "bit flip").is_none(),
                    "flip of bit {bit} at byte {i} got past the CRC"
                );
                if i < body_len {
                    decode_checked(&seal(bad[..body_len].to_vec()), "resealed bit flip");
                }
            }
        }
    }
}

#[test]
fn a_lying_sparse_count_is_refused() {
    let p = filled(8);
    let wire = p.encode();
    let honest = &wire[MODE_AT..wire.len() - 4];
    assert_eq!(honest[..3], [1, 8, 0], "eight sparse entries");
    for lie in [0u16, 7, 9, 341, 342, u16::MAX] {
        let mut block = honest.to_vec();
        block[1..3].copy_from_slice(&lie.to_le_bytes());
        assert!(decode_checked(&with_block(&p, &block), "count lie").is_none());
    }
    // A header that promises entries and ships none, and ones cut short.
    assert!(decode_checked(&with_block(&p, &[1, 0xff, 0xff]), "count only").is_none());
    assert!(decode_checked(&with_block(&p, &[1, 8]), "half a count").is_none());
    assert!(decode_checked(&with_block(&p, &[1]), "no count").is_none());
    assert!(decode_checked(&with_block(&p, &[2]), "unknown mode").is_none());
}

#[test]
fn out_of_range_indices_are_refused() {
    let p = filled(8);
    for idx in [REGISTERS as u16, REGISTERS as u16 + 1, u16::MAX] {
        for entries in [
            vec![(idx, 1)],
            vec![(3, 2), (idx, 1)],
            vec![(idx, 0), (3, 2)],
        ] {
            let wire = with_block(&p, &sparse_block(&entries));
            assert!(decode_checked(&wire, "index out of range").is_none());
        }
    }
}

#[test]
fn non_canonical_sparse_blocks_decode_as_last_write_wins() {
    let p = filled(8);
    let wire = p.encode();
    let entries: Vec<(u16, u8)> = wire[MODE_AT + 3..wire.len() - 4]
        .chunks_exact(3)
        .map(|e| (u16::from_le_bytes([e[0], e[1]]), e[2]))
        .collect();
    assert_eq!(entries.len(), 8);
    let decode = |entries: &[(u16, u8)], what: &str| {
        decode_checked(&with_block(&p, &sparse_block(entries)), what).expect(what)
    };

    let mut reversed = entries.clone();
    reversed.reverse();
    assert_eq!(decode(&reversed, "unsorted"), p);

    // A duplicate: the later entry wins, even a lower rank.
    let mut duplicated = entries.clone();
    duplicated.insert(0, (entries[3].0, 40));
    assert_eq!(decode(&duplicated, "duplicate, original last"), p);
    duplicated.swap(0, 4);
    let raised = decode(&duplicated, "duplicate, impostor last");
    assert_ne!(raised, p);
    let mut expected = entries.clone();
    expected[3].1 = 40;
    assert_eq!(raised, decode(&expected, "the impostor alone"));

    // Zero ranks occupy nothing; one that overwrites an entry erases it.
    let mut zeroed = entries.clone();
    zeroed.extend([(1000, 0), (0, 0)]);
    assert_eq!(decode(&zeroed, "zero ranks"), p);
    zeroed.push((entries[0].0, 0));
    assert_eq!(
        decode(&zeroed, "erasing zero"),
        decode(&entries[1..], "without it")
    );
}

#[test]
fn a_block_in_the_wrong_form_decodes_to_the_canonical_one() {
    // 342 occupied registers shipped as 342 sparse entries …
    let dense = filled(FIRST_DENSE);
    let wire = dense.encode();
    assert_eq!(wire[MODE_AT], 0, "342 occupied registers ship dense");
    let entries: Vec<(u16, u8)> = (0u16..)
        .zip(&wire[MODE_AT + 1..MODE_AT + 1 + REGISTERS])
        .filter(|&(_, &r)| r != 0)
        .map(|(i, &r)| (i, r))
        .collect();
    assert_eq!(entries.len(), 342);
    let oversized = with_block(&dense, &sparse_block(&entries));
    assert_eq!(
        decode_checked(&oversized, "342 sparse entries"),
        Some(dense)
    );

    // … and 341 shipped as a dense block.
    let sparse = filled(FIRST_DENSE - 1);
    let wire = sparse.encode();
    assert_eq!(
        wire[MODE_AT..MODE_AT + 3],
        [1, 0x55, 0x01],
        "341 sparse entries"
    );
    let mut block = vec![0u8; 1 + REGISTERS];
    for e in wire[MODE_AT + 3..wire.len() - 4].chunks_exact(3) {
        block[1 + usize::from(u16::from_le_bytes([e[0], e[1]]))] = e[2];
    }
    let undersized = with_block(&sparse, &block);
    assert_eq!(
        decode_checked(&undersized, "341 dense registers"),
        Some(sparse)
    );

    // A dense block one byte short or long is refused.
    let short = with_block(&filled(8), &block[..REGISTERS]);
    assert!(decode_checked(&short, "short dense block").is_none());
    block.push(0);
    let long = with_block(&filled(8), &block);
    assert!(decode_checked(&long, "long dense block").is_none());
}

/// `p`'s wire with its scalars replaced, resealed: `count` at 5, `sum`
/// at 13, `sum_sq` at 21, `min` at 37, `max` at 45.
fn with_scalars(p: &AggPartial, count: u64, sum: i64, sum_sq: i128, extremes: [f64; 2]) -> Vec<u8> {
    let mut body = p.encode()[..p.encode().len() - 4].to_vec();
    body[5..13].copy_from_slice(&count.to_le_bytes());
    body[13..21].copy_from_slice(&sum.to_le_bytes());
    body[21..37].copy_from_slice(&sum_sq.to_le_bytes());
    body[37..45].copy_from_slice(&extremes[0].to_bits().to_le_bytes());
    body[45..53].copy_from_slice(&extremes[1].to_bits().to_le_bytes());
    seal(body)
}

#[test]
fn scalars_no_absorb_produces_are_refused() {
    // filled(8): -3 ..= 4, so 400 hundredths and 440 000 squared.
    let p = filled(8);
    assert_eq!(with_scalars(&p, 8, 400, 440_000, [-3.0, 4.0]), p.encode());
    let refused = [
        (0, 400, 0, [0.0, 0.0], "a sum without a count"),
        (0, 0, 440_000, [0.0, 0.0], "squares without a count"),
        (0, 0, 0, [-3.0, 4.0], "extremes without a count"),
        (0, 0, 0, [-0.0, 0.0], "a negative zero without a count"),
        (8, 400, -1, [-3.0, 4.0], "negative squares"),
        (8, 400, 19_999, [-3.0, 4.0], "(Σx)² > n·Σx²"),
        (8, 400, 440_000, [f64::NAN, 4.0], "a NaN min"),
        (8, 400, 440_000, [-3.0, f64::NAN], "a NaN max"),
        (8, 400, 440_000, [f64::NEG_INFINITY, 4.0], "an infinite min"),
        (8, 400, 440_000, [-3.0, f64::INFINITY], "an infinite max"),
        (8, 400, 440_000, [4.0, -3.0], "min > max"),
    ];
    for (count, sum, sum_sq, extremes, what) in refused {
        let wire = with_scalars(&p, count, sum, sum_sq, extremes);
        assert!(AggPartial::decode(&wire).is_err(), "{what}");
        assert!(decode_checked(&wire, what).is_none(), "{what}");
    }
    // The overflowed state an absorb does produce decodes, and answers
    // no sum: saturated squares, and sums past the 2^126 bound.
    for (count, sum, sum_sq) in [(8, 0, i128::MAX), (u64::MAX, 5, 25), (2, -16, 1 << 125)] {
        let wire = with_scalars(&p, count, sum, sum_sq, [-3.0, 4.0]);
        let back = decode_checked(&wire, "overflowed").expect("an overflow decodes");
        assert_eq!(back.moments().sum(), None);
        assert_eq!(back.encode(), wire);
    }
}

#[test]
fn an_overflow_survives_the_wire() {
    let mut p = filled(8);
    p.absorb(1.0e17, 3);
    let back = decode_checked(&p.encode(), "overflowed").expect("decodes");
    assert_eq!(back, p);
    assert_eq!(back.moments().sum(), None);
    assert_eq!(back.moments().variance(), None);
    assert_eq!(back.minmax().extremes(), Some((-3.0, 1.0e17)));
}

#[test]
fn the_integer_free_wire_is_refused_by_its_magic() {
    // `filled(8)` as `AGP1` shipped it, float sums and all.
    let agp1 = unhex(
        "414750310a0108000000000000000000000000001040000000000000464000000000000008c000000000000010400108\
         000401030a02011c0204760201430301670305b20304f2030102edeb7f",
    );
    assert_eq!(agp1.len(), 77);
    assert!(matches!(
        AggPartial::decode(&agp1),
        Err(f2c_aggregate::Error::CorruptPartial {
            reason: "bad magic"
        })
    ));
}

/// Frozen wires of `filled(n)`: the register blocks as the last commit
/// that held registers dense generated them, behind the `AGP2` header
/// (integer sums). Any byte of drift is a wire-format break.
const VECTORS: [(u64, &str); 5] = [
    (0, EMPTY),
    (8, EIGHT),
    (FIRST_DENSE - 1, OCCUPIED_341),
    (FIRST_DENSE, OCCUPIED_342),
    (100_000, SATURATED),
];

#[test]
fn encode_matches_the_frozen_vectors() {
    for (n, expected) in VECTORS {
        let p = filled(n);
        assert_eq!(hex(&p.encode()), expected, "encode KAT, {n} keys");
        assert_eq!(
            AggPartial::decode(&unhex(expected)).unwrap(),
            p,
            "decode KAT, {n} keys"
        );
    }
    assert_eq!(filled(FIRST_DENSE - 1).distinct_estimate(), 415);
    assert_eq!(filled(FIRST_DENSE).distinct_estimate(), 416);
    assert_eq!(filled(100_000).distinct_estimate(), 101_664);
}

const EMPTY: &str = "\
    414750320a00000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
    0000000000010000bf63f93a";

const EIGHT: &str = "\
    414750320a08000000000000009001000000000000c0b6060000000000000000000000000000000000000008c0000000\
    00000010400108000401030a02011c0204760201430301670305b20304f2030136466515";

const OCCUPIED_341: &str = "\
    414750320aa80100000000000010e9010000000000c0acba0500000000000000000000000000000000000008c0000000\
    00000022400155010400030700020900020c00040f00011000021500021b00031c00022600032800012a00012b00022f\
    00023100013200013300023700023800013900033c00014000014400014800044e00014f00055600015700015b00015d\
    00046000026200026400016800026b00016c00036d00027000027100047300027400027e00018000018400028500018d\
    00028f00019100019200029700029800019900029c00019d00059f0001a10002a70002a80001aa0002b00005b60003b7\
    0004c30002c40002c50001c60001c70003c80001c90001d00002d50003d60002d70004db0007dc0001dd0001e10003e3\
    0002e50002e80001ea0001ed0003f10005f30001f40001f70001fa00060301020401030601020701030a010511010212\
    01031601011b01041e01012201012601062a01052c01012f01023001083501013601014101024201034301014901014c\
    01014d01034e01015601025701025f01046001016201046501016a01036b01016c01016e01017101017901017c010185\
    01018601018701048e01019201019301019601019a01029b0107a10102a70101a90102ab0102b10101b40101b50103b6\
    0102b70102be0101c10101c50103cb0101ce0101d10104d30101d80105d90107da0101e00102e30101e50103e70103ec\
    0102ed0101ee0101ef0102f10101f20102f50102f90103fc0101ff01010202010902010a02010c02070d02010f020110\
    02021202031502011602011802031902011a02021b02031c02041e02011f020222020223020325020229020230020233\
    02033502023b02013c02024202034402014502014a02034c02015202015602015a02015d02025f020261020470020171\
    02067202027502017602017702017902017b02017d02087e02058002038602038702048d02048f02029202039d02019e\
    02029f0201a50205a60202a70203a90202aa0201ac0202b20203b30207ba0203c10201c20202c30202c40202c50201ca\
    0205cc0201d50201d90201db0202e10201e30203e60201ea0201ec0204ee0201ef0201f50201f60202f70202f80207f9\
    0203fd0203fe02010003050303020503020603010a03030c03010f03011603011703011903021d030222030123030324\
    03013003033603013b03033c03073e03024103024203044303014403014503074b03015203015803015a03015b03035f\
    03026303016503016703056e03027303017603017903037b03037f03028103028203048603078803018e030591030392\
    03019303029703039a03039b03039c03029d0303a30304a90301aa0301b10304b20304b70303b90303bb0301c10304c2\
    0301c40302ca0301cb0301cf0302d60301d70301da0303db0305df0301e10304e30307e50304e60301e70302e90301ee\
    0301f00301f20301f30301f80302f90305fd0301fe03021838628a";

const OCCUPIED_342: &str = "\
    414750320aa90100000000000004eb010000000000507dbe0500000000000000000000000000000000000008c0000000\
    000000224000000000000300000200020000040000010200000000020000000000030200000000000000000003000100\
    010200000002000101020000000201030000010000000100000001000000040000000000010500000000000001010000\
    000100040000020002000100000002000001030200000204000202000000000000000000010001000000020100000000\
    000000020001000102000000000201020000010500010002000000000002010002000000000005000000000003040000\
    000000000000000000020201010301010000000000000200000000030204000000070101000000030002000200000100\
    010000030000000500010100000100000600000000000000000203000203000005000000000000020300000001000000\
    000400000100000001000000060000000500010000020800000000010100000000000000000000020301000000000001\
    000001030100000000000000020200000000000000040100040000010000000003010100010000010000000000000001\
    000001000000000000000001010400000000000001000000010100000100000002070000000000020000000000010002\
    000200000000000100000103020200000000000001000001000000030000000000010000010000040001000000000507\
    010000000000020000010003000300000000020101020001020000020000000300000100000100000100000000000001\
    010007010001020003000001010003010203040001020000020300020000000200000000000002000003000200000000\
    000102000000000003000101000000000300010000000000010000000100000001000002000200040000000000000000\
    000000000000010602000001010100010001000805000300000000000304000000000004000200000300000000000000\
    000000010201000000000005020300020100020000000000030700000000000003000000000000010202020100000000\
    050001000000000000000001000000010002000000000001000300000100000001000400010100000000000102020703\
    000000030100050000020002010000000300010000010000000000000101000200000002000000000103010000000000\
    000000000000030000000000010000000003070002000002040101070000000000010000000000000100000000000100\
    010300000002000000010001000500000000000002000000000100000100000300030000000200020400000007000100\
    000000000500000301020000000300000303020300000001000400000000000101000000000000040400000000030003\
    000100000000000401000200000000000101000000020000000000000101000003050000000100040007000401020001\
    000000000100010001010000000002050000000102009ae3eb82";

const SATURATED: &str = "\
    414750320aa08601000000000078bcc90100000000203fdc5a05000000000000000000000000000000000008c0000000\
    0000002240000707060a060707060806070508090807060709070807080808090609080a070709070d07070909090608\
    08090a060709080a0808060707070b0b07070b08070d0707090d09090506090a0607060808060c0708080b0707060505\
    08080b070807060b0b0407080808060b09070508080606070e0907080707060809060709070708060705060606060c0d\
    0d0c09090607080a09070b0b080807060806060a06070707080908070a0907090708060e0c0a0508070807090c08060b\
    08090608080609070c07060d070807090a080709080f09070b0a070606080a070709070608070a090b060b0707070606\
    090906080709060806080b0907070608090709070708080a07080805080a070708080b07080c070c0e09100605090808\
    0707070907070608070a070a060a0a070607080707090808060708060708080709060a0a060a080709090d0a0a090807\
    090c07070708070609090607070707060b0909070908060b07060b05050d0808060709060c0807090a0a060910070a08\
    060808070b06090a070806080b060d0806060c0d06070c0908070606070c080906070607090907070f09080607070606\
    070c070709090706080a060c0708080806060a0a0806060b0b0a09060807080808050809070a09090809070c06070709\
    0c0706060809080d07070706070707090708050807060b090706080a0c07070807070809070a07080709090704070707\
    060708080a060706080606050a0606080707090708070b0a0a070707070707090807060a070709070908080907090608\
    0809090807080607070a090d0806080a0806060b0607090707060a090907070a0809070905090f0a0807090d08090807\
    0a0f060607050a090707090807080d0a0508070807080606080a060d0807070807080707080707060506050708070705\
    060707070c0a09070d08090706060a0a07060c070808080c050707060607060709070608080a07050708090908070809\
    0a080c060509070509070b0b090c0607060806080a08070609070808090a060507070708090a09050908070807070907\
    0a08070a0709080509060808090708080b090a090a0807060808060605090b0805070907080507070806080806050a06\
    08060806080907070b0808070c08060806080708080a060906070a0b0509080808050809070b0707070605050a080608\
    050807080707080809080a06090707070b06070608060907070807060909060705050c06060607070909080809070807\
    0807070a08050a07050e080a0507070807060d0a0a070707060a090606090808080908070706070a0808080c08070905\
    090b08080907090a07090908070606090908060608070a09100a0c0a070a071006090606080806060708090708050c07\
    090a090708070a060a0e07090807080a080a07090706f2cfc645";
