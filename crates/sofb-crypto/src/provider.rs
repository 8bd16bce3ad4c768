//! The `CryptoProvider` abstraction injected into every protocol process.
//!
//! Protocols never call RSA/DSA directly; they sign, verify and digest
//! through a provider handed out by the [`Dealer`] (the paper's Assumption 2
//! "trusted dealer initializes the system and the nodes with cryptographic
//! keys and hash functions").
//!
//! Two implementations exist:
//!
//! * [`RealProvider`] — genuine RSA/DSA signatures from this crate's
//!   from-scratch implementations. Used in integration tests and examples
//!   (with reduced key sizes so debug builds stay fast).
//! * [`SimProvider`] — authenticated tags (a fast keyed tag oracle) with
//!   *virtual-time cost accounting* from the calibrated
//!   [`crate::timing::SchemeTiming`] table. Used by the
//!   discrete-event simulator that regenerates the paper's figures.
//!
//! Both enforce the paper's "cryptography-constrained Byzantine" model: a
//! faulty process cannot forge another process' signature.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dsa::{DsaKeyPair, DsaParams, DsaPublicKey};
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::scheme::{SchemeId, SigAlg};
use crate::sha256::Sha256;
use crate::timing::SchemeTiming;

/// Signing/verification service for one protocol process.
///
/// Implementations accrue virtual CPU cost for each operation;
/// [`CryptoProvider::take_cost_ns`] drains the accumulator (the simulator
/// calls it after every protocol step to advance that node's CPU clock).
pub trait CryptoProvider: Send {
    /// The digest/signature combination in force.
    fn scheme(&self) -> SchemeId;

    /// The process id this provider signs as.
    fn my_id(&self) -> u32;

    /// Signs `message` with this process' private key.
    fn sign(&mut self, message: &[u8]) -> Vec<u8>;

    /// Signs `message` into `out` (cleared first). Hot-path variant for
    /// callers that recycle signature storage; the default delegates to
    /// [`CryptoProvider::sign`], implementations that can fill a caller
    /// buffer without allocating should override it.
    fn sign_into(&mut self, message: &[u8], out: &mut Vec<u8>) {
        let sig = self.sign(message);
        out.clear();
        out.extend_from_slice(&sig);
    }

    /// Verifies that `sig` is `signer`'s signature over `message`.
    fn verify(&mut self, signer: u32, message: &[u8], sig: &[u8]) -> bool;

    /// Digests `message` under the scheme's digest algorithm.
    fn digest(&mut self, message: &[u8]) -> Vec<u8>;

    /// Computes a pairwise MAC tag over `message` for the channel between
    /// this process and `peer` (Assumption 2's message authentication
    /// codes — used on the fast intra-pair link, where public-key
    /// signatures would be needless overhead).
    fn mac(&mut self, peer: u32, message: &[u8]) -> Vec<u8>;

    /// Computes the [`CryptoProvider::mac`] tag into `out` (cleared
    /// first). Hot-path variant like [`CryptoProvider::sign_into`]: the
    /// default delegates to `mac`, implementations that can fill a caller
    /// buffer without allocating should override it.
    fn mac_into(&mut self, peer: u32, message: &[u8], out: &mut Vec<u8>) {
        let tag = self.mac(peer, message);
        out.clear();
        out.extend_from_slice(&tag);
    }

    /// Verifies a pairwise MAC tag from `peer`.
    fn verify_mac(&mut self, peer: u32, message: &[u8], tag: &[u8]) -> bool;

    /// Drains the virtual CPU nanoseconds accrued since the last call.
    fn take_cost_ns(&mut self) -> u64;
}

/// Derives the symmetric pairwise MAC key for `(a, b)` from a dealer
/// master secret (order-independent).
fn pair_key(master: u64, a: u32, b: u32) -> Vec<u8> {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut h = Sha256::new();
    h.update(b"pair-mac-key");
    h.update(&master.to_le_bytes());
    h.update(&lo.to_le_bytes());
    h.update(&hi.to_le_bytes());
    h.finalize().to_vec()
}

/// Private key material for one process.
#[derive(Clone, Debug)]
enum KeyMaterial {
    Rsa(RsaKeyPair),
    Dsa(DsaKeyPair),
    None,
}

/// Public key material for one process.
#[derive(Clone, Debug)]
enum PublicMaterial {
    Rsa(RsaPublicKey),
    Dsa(DsaPublicKey),
    None,
}

/// A provider backed by genuine RSA/DSA signatures.
pub struct RealProvider {
    scheme: SchemeId,
    id: u32,
    key: KeyMaterial,
    publics: Vec<PublicMaterial>,
    rng: StdRng,
    cost_ns: u64,
    timing: SchemeTiming,
    mac_master: u64,
}

impl std::fmt::Debug for RealProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealProvider")
            .field("scheme", &self.scheme)
            .field("id", &self.id)
            .field("n", &self.publics.len())
            .finish()
    }
}

impl CryptoProvider for RealProvider {
    fn scheme(&self) -> SchemeId {
        self.scheme
    }

    fn my_id(&self) -> u32 {
        self.id
    }

    fn sign(&mut self, message: &[u8]) -> Vec<u8> {
        self.cost_ns += self.timing.sign_cost(message.len());
        let alg = self.scheme.digest_alg();
        match &self.key {
            KeyMaterial::Rsa(kp) => kp.sign(alg, message),
            KeyMaterial::Dsa(kp) => kp.sign(&mut self.rng, alg, message),
            KeyMaterial::None => Vec::new(),
        }
    }

    fn verify(&mut self, signer: u32, message: &[u8], sig: &[u8]) -> bool {
        self.cost_ns += self.timing.verify_cost(message.len());
        let alg = self.scheme.digest_alg();
        match self.publics.get(signer as usize) {
            Some(PublicMaterial::Rsa(pk)) => pk.verify(alg, message, sig),
            Some(PublicMaterial::Dsa(pk)) => pk.verify(alg, message, sig),
            Some(PublicMaterial::None) => sig.is_empty(),
            None => false,
        }
    }

    fn digest(&mut self, message: &[u8]) -> Vec<u8> {
        self.cost_ns += self.timing.digest_cost(message.len());
        self.scheme.digest_alg().digest(message)
    }

    fn mac(&mut self, peer: u32, message: &[u8]) -> Vec<u8> {
        self.cost_ns += 2 * self.timing.digest_cost(message.len()).max(1_000);
        let key = pair_key(self.mac_master, self.id, peer);
        crate::hmac::hmac(crate::digest::DigestAlg::Sha256, &key, message)
    }

    fn verify_mac(&mut self, peer: u32, message: &[u8], tag: &[u8]) -> bool {
        self.cost_ns += 2 * self.timing.digest_cost(message.len()).max(1_000);
        let key = pair_key(self.mac_master, self.id, peer);
        let expected = crate::hmac::hmac(crate::digest::DigestAlg::Sha256, &key, message);
        crate::hmac::verify_tag(&expected, tag)
    }

    fn take_cost_ns(&mut self) -> u64 {
        std::mem::take(&mut self.cost_ns)
    }
}

/// A provider that issues authenticated tags and charges calibrated
/// virtual-time costs. The tag is a keyed digest bound to the signer id, so
/// forgery by other (simulated) processes fails verification, preserving
/// the crypto-constrained Byzantine model inside the simulator.
pub struct SimProvider {
    scheme: SchemeId,
    id: u32,
    master: u64,
    timing: SchemeTiming,
    cost_ns: u64,
}

impl std::fmt::Debug for SimProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimProvider")
            .field("scheme", &self.scheme)
            .field("id", &self.id)
            .finish()
    }
}

impl SimProvider {
    /// Creates a provider for process `id` under a dealer master secret.
    pub fn new(scheme: SchemeId, id: u32, master: u64) -> Self {
        SimProvider {
            scheme,
            id,
            master,
            timing: SchemeTiming::calibrated(scheme),
            cost_ns: 0,
        }
    }

    /// Overrides the timing table (for sensitivity experiments).
    pub fn with_timing(mut self, timing: SchemeTiming) -> Self {
        self.timing = timing;
        self
    }

    fn tag(&self, signer: u32, message: &[u8]) -> Vec<u8> {
        let sig_len = self.scheme.signature_len();
        if sig_len == 0 {
            return Vec::new();
        }
        oracle_tag(
            self.master ^ TAG_DOMAIN,
            u64::from(signer),
            message,
            sig_len,
        )
    }

    /// The order-independent id of the pair `(self, peer)`, which keys
    /// the symmetric per-pair tag behind `mac_into`/`verify_mac`.
    fn pair_id(&self, peer: u32) -> u64 {
        let (lo, hi) = if self.id <= peer {
            (self.id, peer)
        } else {
            (peer, self.id)
        };
        (u64::from(lo) << 32) | u64::from(hi)
    }
}

/// Domain separators keeping signature tags and pairwise MAC tags from
/// colliding under one master secret.
const TAG_DOMAIN: u64 = 0x7369_675f_7461_675f; // "sig_tag_"
const MAC_DOMAIN: u64 = 0x6d61_635f_7461_675f; // "mac_tag_"

/// Simulated MAC tags share the fixed HMAC-SHA-256 output width so wire
/// sizes (and therefore simulated marshalling and link costs) match the
/// real provider byte for byte.
const SIM_MAC_LEN: usize = 32;

/// The keyed tag oracle of the simulated provider: a multiply-xor mix
/// over `(key, message)` expanded to `len` bytes.
///
/// Tags only ever flow back into [`CryptoProvider::verify`]-style
/// equality checks inside the simulation; no actor reads the dealer
/// secret, so unforgeability holds by construction and cryptographic
/// strength would buy nothing. This used to be SHA-256 and was the
/// single largest *host*-CPU cost of a benchmark run — virtual crypto
/// cost is billed separately through [`SchemeTiming`], and a simulated
/// operation should not also cost real compression rounds.
fn oracle_tag(key: u64, signer: u64, message: &[u8], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    oracle_tag_into(key, signer, message, &mut out);
    out
}

/// [`oracle_tag`] writing into a caller-provided buffer — the
/// verification hot path compares against a stack buffer instead of
/// allocating an expected tag per check.
fn oracle_tag_into(key: u64, signer: u64, message: &[u8], out: &mut [u8]) {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = key ^ signer.rotate_left(17).wrapping_mul(M);
    let mut chunks = message.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().unwrap()))
            .rotate_left(23)
            .wrapping_mul(M);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(buf))
            .rotate_left(23)
            .wrapping_mul(M);
    }
    h ^= message.len() as u64;
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let mut x = h ^ (i as u64).wrapping_mul(M);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 29;
        let bytes = x.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

/// Largest simulated signature/tag ([`SchemeId::Sha256Rsa2048`]): lets
/// verification build the expected tag on the stack.
const MAX_SIM_SIG: usize = 256;

impl CryptoProvider for SimProvider {
    fn scheme(&self) -> SchemeId {
        self.scheme
    }

    fn my_id(&self) -> u32 {
        self.id
    }

    fn sign(&mut self, message: &[u8]) -> Vec<u8> {
        self.cost_ns += self.timing.sign_cost(message.len());
        self.tag(self.id, message)
    }

    fn sign_into(&mut self, message: &[u8], out: &mut Vec<u8>) {
        self.cost_ns += self.timing.sign_cost(message.len());
        let sig_len = self.scheme.signature_len();
        out.clear();
        out.resize(sig_len, 0);
        if sig_len > 0 {
            oracle_tag_into(self.master ^ TAG_DOMAIN, u64::from(self.id), message, out);
        }
    }

    fn verify(&mut self, signer: u32, message: &[u8], sig: &[u8]) -> bool {
        self.cost_ns += self.timing.verify_cost(message.len());
        let sig_len = self.scheme.signature_len();
        if sig.len() != sig_len {
            return false;
        }
        if sig_len == 0 {
            return true;
        }
        debug_assert!(sig_len <= MAX_SIM_SIG);
        let mut expected = [0u8; MAX_SIM_SIG];
        oracle_tag_into(
            self.master ^ TAG_DOMAIN,
            u64::from(signer),
            message,
            &mut expected[..sig_len],
        );
        expected[..sig_len] == *sig
    }

    fn digest(&mut self, message: &[u8]) -> Vec<u8> {
        self.cost_ns += self.timing.digest_cost(message.len());
        self.scheme.digest_alg().digest(message)
    }

    fn mac(&mut self, peer: u32, message: &[u8]) -> Vec<u8> {
        let mut tag = Vec::with_capacity(SIM_MAC_LEN);
        self.mac_into(peer, message, &mut tag);
        tag
    }

    fn mac_into(&mut self, peer: u32, message: &[u8], out: &mut Vec<u8>) {
        self.cost_ns += 2 * self.timing.digest_cost(message.len()).max(1_000);
        out.clear();
        out.resize(SIM_MAC_LEN, 0);
        oracle_tag_into(self.master ^ MAC_DOMAIN, self.pair_id(peer), message, out);
    }

    fn verify_mac(&mut self, peer: u32, message: &[u8], tag: &[u8]) -> bool {
        self.cost_ns += 2 * self.timing.digest_cost(message.len()).max(1_000);
        if tag.len() != SIM_MAC_LEN {
            return false;
        }
        let mut expected = [0u8; SIM_MAC_LEN];
        oracle_tag_into(
            self.master ^ MAC_DOMAIN,
            self.pair_id(peer),
            message,
            &mut expected,
        );
        expected[..] == *tag
    }

    fn take_cost_ns(&mut self) -> u64 {
        std::mem::take(&mut self.cost_ns)
    }
}

/// The trusted dealer of Assumption 2: generates and distributes keys.
#[derive(Debug)]
pub struct Dealer;

impl Dealer {
    /// Hands out simulated providers for `n` processes.
    pub fn sim(scheme: SchemeId, n: usize, master: u64) -> Vec<SimProvider> {
        (0..n as u32)
            .map(|i| SimProvider::new(scheme, i, master))
            .collect()
    }

    /// Hands out real-crypto providers for `n` processes.
    ///
    /// `key_bits` overrides the scheme's nominal key size — tests use
    /// small keys (e.g. 512) so that debug builds stay fast. DSA keys share
    /// one set of domain parameters, as a real deployment would.
    pub fn real<R: Rng + ?Sized>(
        rng: &mut R,
        scheme: SchemeId,
        n: usize,
        key_bits: Option<usize>,
    ) -> Vec<RealProvider> {
        let bits = key_bits.unwrap_or_else(|| scheme.key_bits().max(128));
        let mut keys: Vec<KeyMaterial> = Vec::with_capacity(n);
        match scheme.sig_alg() {
            SigAlg::Rsa => {
                for _ in 0..n {
                    keys.push(KeyMaterial::Rsa(RsaKeyPair::generate(rng, bits)));
                }
            }
            SigAlg::Dsa => {
                let q_bits = 160.min(bits - 16);
                let params = DsaParams::generate(rng, bits, q_bits);
                for _ in 0..n {
                    keys.push(KeyMaterial::Dsa(DsaKeyPair::generate(rng, params.clone())));
                }
            }
            SigAlg::None => {
                for _ in 0..n {
                    keys.push(KeyMaterial::None);
                }
            }
        }
        let publics: Vec<PublicMaterial> = keys
            .iter()
            .map(|k| match k {
                KeyMaterial::Rsa(kp) => PublicMaterial::Rsa(kp.public().clone()),
                KeyMaterial::Dsa(kp) => PublicMaterial::Dsa(kp.public().clone()),
                KeyMaterial::None => PublicMaterial::None,
            })
            .collect();
        let timing = SchemeTiming::calibrated(scheme);
        let mac_master: u64 = rng.gen();
        keys.into_iter()
            .enumerate()
            .map(|(i, key)| RealProvider {
                scheme,
                id: i as u32,
                key,
                publics: publics.clone(),
                rng: StdRng::seed_from_u64(0x9e3779b97f4a7c15 ^ i as u64),
                cost_ns: 0,
                timing,
                mac_master,
            })
            .collect()
    }
}

/// Convenience: the digest algorithm's output as a fixed hex string, used
/// in log/debug output across the workspace.
pub fn short_hex(bytes: &[u8]) -> String {
    bytes.iter().take(6).map(|b| format!("{b:02x}")).collect()
}

/// Digests with the scheme's algorithm without a provider (for clients and
/// test assertions that do not participate in cost accounting).
pub fn digest_with(scheme: SchemeId, data: &[u8]) -> Vec<u8> {
    scheme.digest_alg().digest(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_provider_roundtrip() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 3, 42);
        let sig = provs[0].sign(b"hello");
        assert_eq!(sig.len(), SchemeId::Md5Rsa1024.signature_len());
        assert!(provs[1].verify(0, b"hello", &sig));
        assert!(!provs[1].verify(0, b"hellx", &sig));
        // Signer binding: the same message signed "as" process 1 differs.
        assert!(!provs[1].verify(1, b"hello", &sig));
    }

    #[test]
    fn sim_provider_cannot_forge() {
        let mut provs = Dealer::sim(SchemeId::Sha1Dsa1024, 2, 7);
        // Process 1 (Byzantine) signs with its own provider but claims the
        // signature is from process 0: verification fails.
        let forged = provs[1].sign(b"evil");
        assert!(!provs[0].verify(0, b"evil", &forged));
        assert!(provs[0].verify(1, b"evil", &forged));
    }

    #[test]
    fn sim_provider_accrues_cost() {
        let mut p = SimProvider::new(SchemeId::Md5Rsa1024, 0, 1);
        assert_eq!(p.take_cost_ns(), 0);
        let sig = p.sign(b"msg");
        let sign_cost = p.take_cost_ns();
        assert!(sign_cost >= 5_000_000);
        p.verify(0, b"msg", &sig);
        let verify_cost = p.take_cost_ns();
        assert!(verify_cost < sign_cost, "RSA verify should be cheaper");
        assert_eq!(p.take_cost_ns(), 0, "drained");
    }

    #[test]
    fn sim_nocrypto_is_free_and_trivially_valid() {
        let mut p = SimProvider::new(SchemeId::NoCrypto, 0, 1);
        let sig = p.sign(b"anything");
        assert!(sig.is_empty());
        assert!(p.verify(0, b"anything", &sig));
        assert_eq!(p.take_cost_ns(), 0);
    }

    #[test]
    fn real_provider_rsa_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut provs = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, 2, Some(512));
        let sig = provs[0].sign(b"order 7");
        assert!(provs[1].verify(0, b"order 7", &sig));
        assert!(!provs[1].verify(1, b"order 7", &sig));
        assert!(!provs[1].verify(0, b"order 8", &sig));
        assert!(provs[0].take_cost_ns() > 0);
    }

    #[test]
    fn real_provider_dsa_roundtrip() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut provs = Dealer::real(&mut rng, SchemeId::Sha1Dsa1024, 2, Some(256));
        let sig = provs[1].sign(b"order 9");
        assert!(provs[0].verify(1, b"order 9", &sig));
        assert!(!provs[0].verify(0, b"order 9", &sig));
    }

    #[test]
    fn real_provider_unknown_signer() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut provs = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, 1, Some(512));
        let sig = provs[0].sign(b"m");
        assert!(!provs[0].verify(99, b"m", &sig));
    }

    #[test]
    fn sim_mac_into_matches_mac() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 42);
        let tag = provs[0].mac(1, b"heartbeat");
        let mac_cost = provs[0].take_cost_ns();
        // A recycled buffer: stale bytes and a different length.
        let mut out = vec![0xee; 3];
        provs[0].mac_into(1, b"heartbeat", &mut out);
        assert_eq!(out, tag);
        assert_eq!(provs[0].take_cost_ns(), mac_cost);
        // `mac` shares `mac_into`'s code, so pin both against the
        // separately written check and the calibrated charge.
        assert!(provs[1].verify_mac(0, b"heartbeat", &out));
        let timing = SchemeTiming::calibrated(SchemeId::Md5Rsa1024);
        assert_eq!(
            mac_cost,
            2 * timing.digest_cost(b"heartbeat".len()).max(1_000)
        );
    }

    #[test]
    fn default_mac_into_matches_mac() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut provs = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, 2, Some(512));
        let tag = provs[1].mac(0, b"heartbeat");
        let mac_cost = provs[1].take_cost_ns();
        let mut out = vec![0xee; 3];
        provs[1].mac_into(0, b"heartbeat", &mut out);
        assert_eq!(out, tag);
        assert_eq!(provs[1].take_cost_ns(), mac_cost);
        assert!(provs[0].verify_mac(1, b"heartbeat", &out));
    }

    #[test]
    fn digest_matches_scheme() {
        let mut p = SimProvider::new(SchemeId::Sha1Dsa1024, 0, 1);
        assert_eq!(p.digest(b"x").len(), 20);
        let mut p = SimProvider::new(SchemeId::Md5Rsa1024, 0, 1);
        assert_eq!(p.digest(b"x").len(), 16);
        assert_eq!(digest_with(SchemeId::Md5Rsa1024, b"x"), p.digest(b"x"));
    }
}
