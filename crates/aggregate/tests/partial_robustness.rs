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

use f2c_aggregate::sketch::{AggPartial, PARTIAL_HLL_PRECISION};
use reference::{header, seal, sparse_block, RefPartial};

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
    let mut body = header(p.moments(), p.minmax());
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
    let honest = &wire[46..wire.len() - 4];
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
    let entries: Vec<(u16, u8)> = wire[49..wire.len() - 4]
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
    assert_eq!(wire[46], 0, "342 occupied registers ship dense");
    let entries: Vec<(u16, u8)> = (0u16..)
        .zip(&wire[47..47 + REGISTERS])
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
    assert_eq!(wire[46..49], [1, 0x55, 0x01], "341 sparse entries");
    let mut block = vec![0u8; 1 + REGISTERS];
    for e in wire[49..wire.len() - 4].chunks_exact(3) {
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

/// Frozen wires of `filled(n)`, generated at the last commit that held
/// registers dense. Any byte of drift is a wire-format break.
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
    414750310a00000000000000000000000000000000000000000000000000000000000000000000000000000000000100\
    000acca23d";

const EIGHT: &str = "\
    414750310a0108000000000000000000000000001040000000000000464000000000000008c000000000000010400108\
    000401030a02011c0204760201430301670305b20304f2030102edeb7f";

const OCCUPIED_341: &str = "\
    414750310a01a80100000000000000000000009093400000000000c6c24000000000000008c000000000000022400155\
    010400030700020900020c00040f00011000021500021b00031c00022600032800012a00012b00022f00023100013200\
    013300023700023800013900033c00014000014400014800044e00014f00055600015700015b00015d00046000026200\
    026400016800026b00016c00036d00027000027100047300027400027e00018000018400028500018d00028f00019100\
    019200029700029800019900029c00019d00059f0001a10002a70002a80001aa0002b00005b60003b70004c30002c400\
    02c50001c60001c70003c80001c90001d00002d50003d60002d70004db0007dc0001dd0001e10003e30002e50002e800\
    01ea0001ed0003f10005f30001f40001f70001fa00060301020401030601020701030a01051101021201031601011b01\
    041e01012201012601062a01052c01012f01023001083501013601014101024201034301014901014c01014d01034e01\
    015601025701025f01046001016201046501016a01036b01016c01016e01017101017901017c01018501018601018701\
    048e01019201019301019601019a01029b0107a10102a70101a90102ab0102b10101b40101b50103b60102b70102be01\
    01c10101c50103cb0101ce0101d10104d30101d80105d90107da0101e00102e30101e50103e70103ec0102ed0101ee01\
    01ef0102f10101f20102f50102f90103fc0101ff01010202010902010a02010c02070d02010f02011002021202031502\
    011602011802031902011a02021b02031c02041e02011f02022202022302032502022902023002023302033502023b02\
    013c02024202034402014502014a02034c02015202015602015a02015d02025f02026102047002017102067202027502\
    017602017702017902017b02017d02087e02058002038602038702048d02048f02029202039d02019e02029f0201a502\
    05a60202a70203a90202aa0201ac0202b20203b30207ba0203c10201c20202c30202c40202c50201ca0205cc0201d502\
    01d90201db0202e10201e30203e60201ea0201ec0204ee0201ef0201f50201f60202f70202f80207f90203fd0203fe02\
    010003050303020503020603010a03030c03010f03011603011703011903021d03022203012303032403013003033603\
    013b03033c03073e03024103024203044303014403014503074b03015203015803015a03015b03035f03026303016503\
    016703056e03027303017603017903037b03037f03028103028203048603078803018e03059103039203019303029703\
    039a03039b03039c03029d0303a30304a90301aa0301b10304b20304b70303b90303bb0301c10304c20301c40302ca03\
    01cb0301cf0302d60301d70301da0303db0305df0301e10304e30307e50304e60301e70302e90301ee0301f00301f203\
    01f30301f80302f90305fd0301fe0302955a1cb2";

const OCCUPIED_342: &str = "\
    414750310a01a9010000000000000000000000a493400000000080d2c24000000000000008c000000000000022400000\
    000000030000020002000004000001020000000002000000000003020000000000000000000300010001020000000200\
    010102000000020103000001000000010000000100000004000000000001050000000000000101000000010004000002\
    000200010000000200000103020000020400020200000000000000000001000100000002010000000000000002000100\
    010200000000020102000001050001000200000000000201000200000000000500000000000304000000000000000000\
    000002020101030101000000000000020000000003020400000007010100000003000200020000010001000003000000\
    050001010000010000060000000000000000020300020300000500000000000002030000000100000000040000010000\
    000100000006000000050001000002080000000001010000000000000000000002030100000000000100000103010000\
    000000000002020000000000000004010004000001000000000301010001000001000000000000000100000100000000\
    000000000101040000000000000100000001010000010000000207000000000002000000000001000200020000000000\
    010000010302020000000000000100000100000003000000000001000001000004000100000000050701000000000002\
    000001000300030000000002010102000102000002000000030000010000010000010000000000000101000701000102\
    000300000101000301020304000102000002030002000000020000000000000200000300020000000000010200000000\
    000300010100000000030001000000000001000000010000000100000200020004000000000000000000000000000001\
    060200000101010001000100080500030000000000030400000000000400020000030000000000000000000001020100\
    000000000502030002010002000000000003070000000000000300000000000001020202010000000005000100000000\
    000000000100000001000200000000000100030000010000000100040001010000000000010202070300000003010005\
    000002000201000000030001000001000000000000010100020000000200000000010301000000000000000000000003\
    000000000001000000000307000200000204010107000000000001000000000000010000000000010001030000000200\
    000001000100050000000000000200000000010000010000030003000000020002040000000700010000000000050000\
    030102000000030000030302030000000100040000000000010100000000000004040000000003000300010000000000\
    040100020000000000010100000002000000000000010100000305000000010004000700040102000100000000010001\
    000101000000000205000000010200e83bcc3f";

const SATURATED: &str = "\
    414750310a01a08601000000000000000000384f124100000000098c414100000000000008c000000000000022400007\
    07060a060707060806070508090807060709070807080808090609080a070709070d0707090909060808090a06070908\
    0a0808060707070b0b07070b08070d0707090d09090506090a0607060808060c0708080b070706050508080b07080706\
    0b0b0407080808060b09070508080606070e0907080707060809060709070708060705060606060c0d0d0c0909060708\
    0a09070b0b080807060806060a06070707080908070a0907090708060e0c0a0508070807090c08060b08090608080609\
    070c07060d070807090a080709080f09070b0a070606080a070709070608070a090b060b070707060609090608070906\
    0806080b0907070608090709070708080a07080805080a070708080b07080c070c0e0910060509080807070709070706\
    08070a070a060a0a070607080707090808060708060708080709060a0a060a080709090d0a0a090807090c0707070807\
    0609090607070707060b0909070908060b07060b05050d0808060709060c0807090a0a060910070a08060808070b0609\
    0a070806080b060d0806060c0d06070c0908070606070c080906070607090907070f09080607070606070c0707090907\
    06080a060c0708080806060a0a0806060b0b0a09060807080808050809070a09090809070c060707090c070606080908\
    0d07070706070707090708050807060b090706080a0c07070807070809070a07080709090704070707060708080a0607\
    06080606050a0606080707090708070b0a0a070707070707090807060a07070907090808090709060808090908070806\
    07070a090d0806080a0806060b0607090707060a090907070a0809070905090f0a0807090d080908070a0f060607050a\
    090707090807080d0a0508070807080606080a060d0807070807080707080707060506050708070705060707070c0a09\
    070d08090706060a0a07060c070808080c050707060607060709070608080a070507080909080708090a080c06050907\
    0509070b0b090c0607060806080a08070609070808090a060507070708090a090509080708070709070a08070a070908\
    0509060808090708080b090a090a0807060808060605090b0805070907080507070806080806050a0608060806080907\
    070b0808070c08060806080708080a060906070a0b0509080808050809070b0707070605050a08060805080708070708\
    0809080a06090707070b06070608060907070807060909060705050c060606070709090808090708070807070a08050a\
    07050e080a0507070807060d0a0a070707060a090606090808080908070706070a0808080c08070905090b0808090709\
    0a07090908070606090908060608070a09100a0c0a070a071006090606080806060708090708050c07090a090708070a\
    060a0e07090807080a080a07090706c08a3b8f";
