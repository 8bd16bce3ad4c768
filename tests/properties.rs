//! Property-style tests: protocol invariants under randomized parameters,
//! schedules (seeds) and fault plans, plus algebraic laws of the crypto
//! substrate.
//!
//! The container build has no network access, so instead of proptest these
//! sweep deterministic pseudo-random inputs from the workspace RNG — the
//! same shrink-free exploration, fully reproducible run to run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sofbyz::core::config::Fault;
use sofbyz::core::sim::ScProtocol;
use sofbyz::crypto::bignum::BigUint;
use sofbyz::crypto::provider::{CryptoProvider, Dealer};
use sofbyz::crypto::scheme::SchemeId;
use sofbyz::harness::{analysis, ClientSpec, FaultSpec, WorldBuilder};
use sofbyz::proto::codec::{Decode, Encode};
use sofbyz::proto::ids::{ClientId, ProcessId, SeqNo};
use sofbyz::proto::request::Request;
use sofbyz::proto::topology::Variant;
use sofbyz::sim::time::{SimDuration, SimTime};

fn biguint_from_u128(v: u128) -> BigUint {
    BigUint::from_bytes_be(&v.to_be_bytes())
}

// ---------------------------------------------------------------------
// Bignum laws (vs u128 reference model)
// ---------------------------------------------------------------------

#[test]
fn bignum_add_matches_u128() {
    let mut rng = StdRng::seed_from_u64(0xadd);
    for _ in 0..64 {
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        let sum = BigUint::from_u64(a).add(&BigUint::from_u64(b));
        let expect = u128::from(a) + u128::from(b);
        assert_eq!(sum.to_bytes_be(), biguint_from_u128(expect).to_bytes_be());
    }
}

#[test]
fn bignum_mul_matches_u128() {
    let mut rng = StdRng::seed_from_u64(0x3a1);
    for _ in 0..64 {
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        let expect = u128::from(a) * u128::from(b);
        assert_eq!(prod.to_bytes_be(), biguint_from_u128(expect).to_bytes_be());
    }
}

#[test]
fn bignum_div_rem_reconstructs() {
    let mut rng = StdRng::seed_from_u64(0xd17);
    for _ in 0..64 {
        let a: u128 = rng.gen();
        let b: u64 = rng.gen_range(1u64..);
        let dividend = biguint_from_u128(a);
        let divisor = BigUint::from_u64(b);
        let (q, r) = dividend.div_rem(&divisor);
        assert!(r < divisor);
        assert_eq!(q.mul(&divisor).add(&r), dividend);
    }
}

#[test]
fn bignum_bytes_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xb17e5);
    for _ in 0..64 {
        let len = rng.gen_range(0usize..64);
        let mut bytes = vec![0u8; len];
        rng.fill(&mut bytes);
        let v = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&v.to_bytes_be());
        assert_eq!(v, back);
    }
}

#[test]
fn bignum_mod_pow_mul_law() {
    // (a*b) mod m == (a mod m * b mod m) mod m via mod_pow exponent 1.
    let mut rng = StdRng::seed_from_u64(0x90d);
    for _ in 0..64 {
        let a: u64 = rng.gen_range(2u64..1_000);
        let b: u64 = rng.gen_range(2u64..1_000);
        let m: u64 = rng.gen_range(3u64..100_000);
        let m = BigUint::from_u64(m | 1);
        let lhs = BigUint::from_u64(a).mul_mod(&BigUint::from_u64(b), &m);
        let rhs = BigUint::from_u64(a)
            .mod_pow(&BigUint::from_u64(1), &m)
            .mul_mod(&BigUint::from_u64(b).mod_pow(&BigUint::from_u64(1), &m), &m);
        assert_eq!(lhs, rhs);
    }
}

// ---------------------------------------------------------------------
// Codec and signature properties
// ---------------------------------------------------------------------

#[test]
fn request_codec_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xc0dec);
    for _ in 0..32 {
        let client: u32 = rng.gen();
        let seq: u64 = rng.gen();
        let len = rng.gen_range(0usize..512);
        let mut payload = vec![0u8; len];
        rng.fill(&mut payload);
        let r = Request::new(ClientId(client), seq, payload);
        let decoded = Request::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(decoded, r);
    }
}

#[test]
fn sim_signatures_bind_signer_and_content() {
    let mut rng = StdRng::seed_from_u64(0x516);
    for _ in 0..32 {
        let master: u64 = rng.gen();
        let mut msg_a = vec![0u8; rng.gen_range(1usize..128)];
        let mut msg_b = vec![0u8; rng.gen_range(1usize..128)];
        rng.fill(&mut msg_a);
        rng.fill(&mut msg_b);
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 3, master);
        let sig = provs[0].sign(&msg_a);
        assert!(provs[1].verify(0, &msg_a, &sig));
        // Signer binding.
        assert!(!provs[1].verify(1, &msg_a, &sig));
        // Content binding.
        if msg_a != msg_b {
            assert!(!provs[1].verify(0, &msg_b, &sig));
        }
    }
}

#[test]
fn macs_bind_pair_and_content() {
    let mut rng = StdRng::seed_from_u64(0x3ac);
    for _ in 0..32 {
        let master: u64 = rng.gen();
        let mut msg = vec![0u8; rng.gen_range(1usize..128)];
        rng.fill(&mut msg);
        let mut provs = Dealer::sim(SchemeId::Sha1Dsa1024, 4, master);
        let tag = provs[0].mac(1, &msg);
        assert!(provs[1].verify_mac(0, &msg, &tag));
        // A different pair's key fails.
        assert!(!provs[2].verify_mac(3, &msg, &tag));
    }
}

// ---------------------------------------------------------------------
// Protocol invariants under randomized schedules and fault plans
// ---------------------------------------------------------------------

fn random_fault(rng: &mut StdRng) -> (ProcessId, Fault) {
    let s = rng.gen_range(1u64..8);
    match rng.gen_range(0u32..6) {
        // Faulty coordinator replica (rank 1 or 2), value domain.
        0 => (ProcessId(0), Fault::CorruptOrderAt(SeqNo(s))),
        1 => (ProcessId(1), Fault::CorruptOrderAt(SeqNo(s))),
        // Muted coordinator (time domain).
        2 => (ProcessId(0), Fault::MuteCoordinatorAt(SeqNo(s))),
        // Byzantine shadow / silent acker.
        3 => (ProcessId(5), Fault::RubberStamp),
        4 => (ProcessId(3), Fault::DropAcks),
        _ => (ProcessId(4), Fault::None),
    }
}

#[test]
fn sc_total_order_safe_under_any_single_fault_and_schedule() {
    let mut rng = StdRng::seed_from_u64(0x5afe);
    for _ in 0..12 {
        let seed: u64 = rng.gen();
        let (who, fault) = random_fault(&mut rng);
        let interval_ms = rng.gen_range(40u64..200);
        let mut d = WorldBuilder::<ScProtocol>::new(2)
            .batching_interval(SimDuration::from_ms(interval_ms))
            .client(ClientSpec::new(150.0, 100, SimTime::from_secs(2)))
            .fault(who, FaultSpec::Byzantine(fault.clone()))
            .seed(seed)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        // SAFETY is unconditional.
        analysis::check_total_order(&events)
            .unwrap_or_else(|e| panic!("seed {seed} fault {fault:?}@{who}: {e}"));
    }
}

#[test]
fn scr_total_order_safe_under_any_single_fault_and_schedule() {
    let mut rng = StdRng::seed_from_u64(0x5c2);
    for _ in 0..12 {
        let seed: u64 = rng.gen();
        let (who, fault) = random_fault(&mut rng);
        let mut d = WorldBuilder::<ScProtocol>::new(2)
            .variant(Variant::Scr)
            .batching_interval(SimDuration::from_ms(80))
            .client(ClientSpec::new(100.0, 100, SimTime::from_secs(2)))
            .fault(who, FaultSpec::Byzantine(fault.clone()))
            .seed(seed)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        analysis::check_total_order(&events)
            .unwrap_or_else(|e| panic!("seed {seed} fault {fault:?}@{who}: {e}"));
    }
}

#[test]
fn sc_liveness_without_faults() {
    let mut rng = StdRng::seed_from_u64(0x11fe);
    for _ in 0..12 {
        let seed: u64 = rng.gen();
        let mut d = WorldBuilder::<ScProtocol>::new(2)
            .batching_interval(SimDuration::from_ms(100))
            .client(ClientSpec::new(80.0, 100, SimTime::from_secs(2)))
            .seed(seed)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        analysis::check_total_order(&events).unwrap();
        let n = d.n_processes;
        let nodes: Vec<usize> = (0..n).collect();
        let prefix = analysis::common_committed_prefix(&events, &nodes);
        assert!(
            prefix.is_some_and(|p| p >= SeqNo(5)),
            "seed {seed}: committed prefix too short: {prefix:?}"
        );
    }
}
