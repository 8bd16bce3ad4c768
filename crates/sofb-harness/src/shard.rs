//! What the engines of a multi-shard world agree on.
//!
//! A multi-shard scenario runs `S` independent copies of a protocol's
//! ordering group, each in its own engine (see the `parallel` module).
//! Every client walks one global request schedule and deals request
//! `seq` to shard `(seq − 1) % S` (see `Destinations::targets`). This
//! module holds the stable mix the population's member picks draw from
//! and the per-shard seed schedule.

/// SplitMix64: a stable, seed-independent 64-bit mix. The population
/// actor draws its member picks from it (see `ClientPopulation`), so it
/// must not depend on `std`'s randomized hashers — the same input gives
/// the same pick in every run and on every shard replica, which
/// the `hash_router_is_stable` test pins.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The dealer/config and engine seed of shard `s`: shard 0 keeps the
/// base seed, later shards decorrelate by the 64-bit golden ratio.
pub(crate) fn shard_seed(seed: u64, s: usize) -> u64 {
    seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mix is a pure function of its input (no process-random
    /// state), and its values are pinned so that an accidental change,
    /// which would move every population's pick stream, cannot slip by.
    #[test]
    fn hash_router_is_stable() {
        for x in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            assert_eq!(splitmix64(x), splitmix64(x));
        }
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    /// `splitmix64(x) % n` — the population's member pick — spreads
    /// uniform inputs within 10% of perfectly balanced.
    #[test]
    fn routers_balance_uniform_keys_within_10_percent() {
        for n in [2u64, 4, 8] {
            let mut counts = vec![0usize; n as usize];
            let total = 40_000u64;
            for i in 0..total {
                counts[(splitmix64(i) % n) as usize] += 1;
            }
            let ideal = total as f64 / n as f64;
            for (s, c) in counts.iter().enumerate() {
                let dev = (*c as f64 - ideal).abs() / ideal;
                assert!(
                    dev < 0.10,
                    "{n}-way pick unbalanced: {s} got {c} (ideal {ideal}, dev {:.1}%)",
                    dev * 100.0
                );
            }
        }
    }

    /// Per-shard dealing gives every shard the same share of each
    /// client's requests, to within one, even though clients count
    /// sequences from 1.
    #[test]
    fn request_keys_balance_within_10_percent() {
        use crate::client::Destinations;
        for shards in [2usize, 3, 4] {
            let per_client = 5_001u64;
            let counts: Vec<u64> = (0..shards)
                .map(|shard| {
                    let dest = Destinations::Slice {
                        n: 1,
                        shard,
                        shards,
                    };
                    (1..=per_client)
                        .filter(|&seq| dest.targets(seq).is_some())
                        .count() as u64
                })
                .collect();
            assert_eq!(counts.iter().sum::<u64>(), per_client, "{counts:?}");
            let (lo, hi) = (counts.iter().min(), counts.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "counts {counts:?}");
        }
    }
}
