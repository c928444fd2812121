//! Property-based tests: every codec in the crate must be a lossless
//! bijection on arbitrary byte vectors, and decoding must never panic on
//! arbitrary (mostly invalid) input.

use f2c_compress::{compress_with, decompress, lz77, Level};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn deflate_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for level in [Level::Fast, Level::Default, Level::Best] {
            let packed = compress_with(&data, level).unwrap();
            prop_assert_eq!(&decompress(&packed).unwrap(), &data);
        }
    }

    #[test]
    fn deflate_roundtrips_structured_text(
        rows in proptest::collection::vec((0u32..100_000, 0u32..86_400, -50i32..150), 0..300)
    ) {
        // Sentilo-shaped CSV rows, the payload class the experiment uses.
        let mut data = Vec::new();
        for (id, t, v) in rows {
            data.extend_from_slice(format!("sensor-{id},{t},{v}\n").as_bytes());
        }
        let packed = compress_with(&data, Level::Default).unwrap();
        prop_assert_eq!(&decompress(&packed).unwrap(), &data);
    }

    #[test]
    fn lz77_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let tokens = lz77::tokenize(&data, &lz77::SearchParams::DEFAULT);
        prop_assert_eq!(lz77::reconstruct(&tokens).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine except a panic.
        let _ = decompress(&data);
    }

    #[test]
    fn compression_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let a = compress_with(&data, Level::Default).unwrap();
        let b = compress_with(&data, Level::Default).unwrap();
        prop_assert_eq!(a, b);
    }
}
