//! The secure offload session: encrypt-then-MAC over capsule payloads.
//!
//! Retained pages leave the device "in a compressed and encrypted format"
//! (paper §3). The session keys derive from the device hierarchy inside the
//! controller; the host — and therefore any ransomware, however privileged —
//! never observes plaintext log data or the keys.

use rssd_crypto::{ChaCha20, DeviceKeys, HmacSha256, KeyPurpose};

/// Length of the appended authentication tag.
pub const TAG_LEN: usize = 32;

/// Session failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Message shorter than a tag, or than the prefix asked of it.
    Truncated,
    /// Authentication tag mismatch: tampered or mis-keyed.
    BadTag,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Truncated => write!(f, "sealed message truncated"),
            SessionError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for SessionError {}

/// An encrypt-then-MAC session keyed from a [`DeviceKeys`] hierarchy.
///
/// The session holds its two derived keys and nothing else: not the root,
/// so a store holding a session (the log server does) keeps nothing from
/// which the evidence-chain key derives.
///
/// # Examples
///
/// ```
/// use rssd_crypto::DeviceKeys;
/// use rssd_net::SecureSession;
///
/// let keys = DeviceKeys::for_simulation(7);
/// let sender = SecureSession::new(&keys, 0);
/// let receiver = SecureSession::new(&keys, 0);
/// let sealed = sender.seal(42, b"retained pages");
/// assert_eq!(receiver.open(42, &sealed).unwrap(), b"retained pages");
/// ```
#[derive(Clone)]
pub struct SecureSession {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
}

impl std::fmt::Debug for SecureSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSession")
            .field("keys", &"<sealed>")
            .finish()
    }
}

impl SecureSession {
    /// Derives session keys at `epoch` from the device hierarchy.
    pub fn new(keys: &DeviceKeys, epoch: u32) -> Self {
        SecureSession {
            enc_key: keys.derive(KeyPurpose::OffloadEncryption, epoch),
            mac_key: keys.derive(KeyPurpose::SegmentAuthentication, epoch),
        }
    }

    /// The 96-bit nonce for segment `segment_seq`, unique per (cipher key,
    /// segment): `HMAC(enc_key, label || seq)[..12]`.
    fn nonce(&self, segment_seq: u64) -> [u8; 12] {
        let mut mac = HmacSha256::new(&self.enc_key);
        mac.update(b"rssd/segment-nonce/v1");
        mac.update(&segment_seq.to_le_bytes());
        mac.finalize().as_bytes()[..12]
            .try_into()
            .expect("12 bytes")
    }

    /// Encrypts `plaintext` under the per-segment nonce for `segment_seq`
    /// and appends an HMAC tag over `(segment_seq || ciphertext)`.
    ///
    /// The sealed image is built in a single allocation sized
    /// `plaintext.len() + TAG_LEN` and ciphered in place — no intermediate
    /// ciphertext buffer, no tag-append reallocation.
    pub fn seal(&self, segment_seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(segment_seq, &mut out, 0);
        out
    }

    /// Seals `buf[from..]` in place: the plaintext tail is ciphered where it
    /// sits and the authentication tag is appended to `buf`. This is the
    /// zero-copy spelling of [`seal`](Self::seal) — callers that already
    /// assembled `[header | plaintext]` in one buffer seal the payload
    /// without ever materialising a separate ciphertext allocation.
    ///
    /// # Panics
    ///
    /// Panics if `from > buf.len()`.
    pub fn seal_in_place(&self, segment_seq: u64, buf: &mut Vec<u8>, from: usize) {
        let nonce = self.nonce(segment_seq);
        buf.reserve(TAG_LEN);
        ChaCha20::new(&self.enc_key, &nonce).apply_keystream(&mut buf[from..]);
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&segment_seq.to_le_bytes());
        mac.update(&buf[from..]);
        buf.extend_from_slice(mac.finalize().as_bytes());
    }

    /// Authenticates a sealed message — the tag is checked over *every*
    /// ciphertext byte — and returns a handle that deciphers as much of it
    /// as the caller goes on to read.
    ///
    /// # Errors
    ///
    /// [`SessionError::Truncated`] if shorter than a tag;
    /// [`SessionError::BadTag`] if authentication fails (any bit flipped in
    /// transit, a replayed segment number, or a wrong key).
    pub fn verify<'a>(
        &'a self,
        segment_seq: u64,
        sealed: &'a [u8],
    ) -> Result<Authenticated<'a>, SessionError> {
        let authenticated = self.strip_tag(segment_seq, sealed)?;
        let tag_bytes = &sealed[authenticated.len()..];
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&segment_seq.to_le_bytes());
        mac.update(authenticated.ciphertext);
        if !constant_time_eq(mac.finalize().as_bytes(), tag_bytes) {
            return Err(SessionError::BadTag);
        }
        Ok(authenticated)
    }

    /// The handle [`verify`](Self::verify) returns, without recomputing the
    /// tag: for a message that a holder of these same keys
    /// ([`same_keys`](Self::same_keys)) already verified, byte for byte.
    /// Nothing here checks that claim — the store that vouches makes it.
    ///
    /// # Errors
    ///
    /// [`SessionError::Truncated`] if shorter than a tag.
    pub fn vouched<'a>(
        &'a self,
        segment_seq: u64,
        sealed: &'a [u8],
    ) -> Result<Authenticated<'a>, SessionError> {
        self.strip_tag(segment_seq, sealed)
    }

    /// The deciphering handle over `sealed` less its tag.
    fn strip_tag<'a>(
        &'a self,
        segment_seq: u64,
        sealed: &'a [u8],
    ) -> Result<Authenticated<'a>, SessionError> {
        let end = sealed
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(SessionError::Truncated)?;
        Ok(Authenticated {
            enc_key: &self.enc_key,
            nonce: self.nonce(segment_seq),
            ciphertext: &sealed[..end],
        })
    }

    /// `true` when `other` holds this session's keys (the nonces derive from
    /// the cipher key): what one verifies and deciphers, the other would
    /// alike. Constant time in the keys.
    pub fn same_keys(&self, other: &SecureSession) -> bool {
        constant_time_eq(&self.enc_key, &other.enc_key)
            & constant_time_eq(&self.mac_key, &other.mac_key)
    }

    /// Verifies and decrypts a sealed message.
    ///
    /// # Errors
    ///
    /// As [`verify`](Self::verify).
    pub fn open(&self, segment_seq: u64, sealed: &[u8]) -> Result<Vec<u8>, SessionError> {
        let authenticated = self.verify(segment_seq, sealed)?;
        authenticated.decipher_prefix(authenticated.len())
    }
}

/// Compares two byte strings without branching on where they differ.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let diff = a.iter().zip(b).fold(0u8, |diff, (a, b)| diff | (a ^ b));
    a.len() == b.len() && diff == 0
}

/// A sealed message whose tag [`SecureSession::verify`] has checked over the
/// whole ciphertext — or that a store holding the same keys checked before
/// it stored it ([`SecureSession::vouched`]). Only this handle deciphers, so
/// no plaintext byte is ever produced from an unauthenticated message; a
/// reader that needs the front of the plaintext pays the cipher for the
/// front alone.
#[derive(Clone, Copy)]
pub struct Authenticated<'a> {
    enc_key: &'a [u8; 32],
    nonce: [u8; 12],
    ciphertext: &'a [u8],
}

impl std::fmt::Debug for Authenticated<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Authenticated")
            .field("len", &self.ciphertext.len())
            .finish()
    }
}

impl Authenticated<'_> {
    /// Plaintext length of the message.
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// `true` for a sealed empty message.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// Deciphers the first `len` plaintext bytes (ChaCha20 is a stream
    /// cipher: a prefix of the ciphertext deciphers on its own).
    ///
    /// # Errors
    ///
    /// [`SessionError::Truncated`] if the message is shorter than `len`.
    pub fn decipher_prefix(&self, len: usize) -> Result<Vec<u8>, SessionError> {
        let prefix = self.ciphertext.get(..len).ok_or(SessionError::Truncated)?;
        let mut out = Vec::with_capacity(len);
        ChaCha20::new(self.enc_key, &self.nonce).apply_keystream_into(prefix, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_crypto::DeviceKeys;

    fn session() -> SecureSession {
        SecureSession::new(&DeviceKeys::for_simulation(1), 0)
    }

    #[test]
    fn seal_open_round_trip() {
        let s = session();
        let sealed = s.seal(5, b"hello");
        assert_eq!(s.open(5, &sealed).unwrap(), b"hello");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let s = session();
        let sealed = s.seal(5, b"hello");
        assert_ne!(&sealed[..5], b"hello");
    }

    #[test]
    fn tampering_detected() {
        let s = session();
        let mut sealed = s.seal(5, b"hello");
        sealed[0] ^= 1;
        assert_eq!(s.open(5, &sealed), Err(SessionError::BadTag));
    }

    #[test]
    fn tag_tampering_detected() {
        let s = session();
        let mut sealed = s.seal(5, b"hello");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(s.open(5, &sealed), Err(SessionError::BadTag));
    }

    #[test]
    fn wrong_segment_seq_rejected() {
        let s = session();
        let sealed = s.seal(5, b"hello");
        assert_eq!(s.open(6, &sealed), Err(SessionError::BadTag));
    }

    #[test]
    fn truncated_rejected() {
        let s = session();
        assert_eq!(s.open(0, &[0u8; 10]), Err(SessionError::Truncated));
    }

    #[test]
    fn different_epochs_do_not_interoperate() {
        let keys = DeviceKeys::for_simulation(1);
        let a = SecureSession::new(&keys, 0);
        let b = SecureSession::new(&keys, 1);
        let sealed = a.seal(5, b"hello");
        assert_eq!(b.open(5, &sealed), Err(SessionError::BadTag));
    }

    #[test]
    fn unique_nonces_give_unique_ciphertexts() {
        let s = session();
        let a = s.seal(1, b"same plaintext");
        let b = s.seal(2, b"same plaintext");
        assert_ne!(a[..14], b[..14]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let s = session();
        let sealed = s.seal(9, b"");
        assert_eq!(s.open(9, &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn seal_in_place_matches_seal_and_preserves_prefix() {
        let s = session();
        let mut buf = b"HEADERBYTES".to_vec();
        buf.extend_from_slice(b"retained pages");
        s.seal_in_place(7, &mut buf, 11);
        assert_eq!(&buf[..11], b"HEADERBYTES", "prefix untouched");
        assert_eq!(&buf[11..], &s.seal(7, b"retained pages")[..]);
        assert_eq!(s.open(7, &buf[11..]).unwrap(), b"retained pages");
    }

    #[test]
    fn verified_prefix_matches_the_front_of_a_full_open() {
        let s = session();
        let plaintext: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let sealed = s.seal(3, &plaintext);
        let authenticated = s.verify(3, &sealed).unwrap();
        assert_eq!(authenticated.len(), plaintext.len());
        // Across ChaCha block (64 B) and wide-kernel (512 B) boundaries.
        for len in [0, 1, 4, 63, 64, 65, 511, 512, 513, 1000] {
            assert_eq!(
                authenticated.decipher_prefix(len).unwrap(),
                &plaintext[..len],
                "prefix of {len}"
            );
        }
        assert_eq!(
            authenticated.decipher_prefix(1001),
            Err(SessionError::Truncated)
        );
    }

    #[test]
    fn verify_rejects_a_flip_past_the_prefix_a_reader_wants() {
        let s = session();
        let mut sealed = s.seal(3, &[7u8; 1000]);
        sealed[900] ^= 1;
        assert_eq!(s.verify(3, &sealed).err(), Some(SessionError::BadTag));
    }

    #[test]
    fn a_vouched_handle_deciphers_what_a_verified_one_does_and_checks_no_tag() {
        let s = session();
        let sealed = s.seal(3, &[7u8; 100]);
        let verified = s.verify(3, &sealed).unwrap().decipher_prefix(100);
        assert_eq!(
            s.vouched(3, &sealed).unwrap().decipher_prefix(100),
            verified
        );
        let mut flipped = sealed.clone();
        flipped[99] ^= 1;
        assert!(s.vouched(3, &flipped).is_ok(), "the tag is the voucher's");
        assert_eq!(
            s.vouched(3, &sealed[..TAG_LEN - 1]).err(),
            Some(SessionError::Truncated)
        );
    }

    #[test]
    fn same_keys_holds_for_the_same_hierarchy_and_epoch_only() {
        let keys = DeviceKeys::for_simulation(1);
        let s = SecureSession::new(&keys, 0);
        assert!(s.same_keys(&SecureSession::new(&keys, 0)));
        assert!(!s.same_keys(&SecureSession::new(&keys, 1)));
        let other = DeviceKeys::for_simulation(2);
        assert!(!s.same_keys(&SecureSession::new(&other, 0)));
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        // The wire image of one sealed message: nonce derivation, cipher
        // and tag together. A change here moves every sealed byte.
        let s = SecureSession::new(&DeviceKeys::for_simulation(7), 0);
        let sealed = s.seal(42, b"evidence segment 42");
        let hex: String = sealed.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "f189be47cfd8d6bd7b665618143fc4e52ac59a3ef2e1b367f7cb1063e74df471\
             bc14a28d093e74ec8ac29258465995a157649f"
        );
    }

    #[test]
    fn debug_never_leaks_keys() {
        let s = session();
        let shown = format!("{s:?}");
        assert!(shown.contains("sealed"));
        assert!(!shown.contains(&format!("{:?}", s.enc_key)));
        assert!(!shown.contains(&format!("{:?}", s.mac_key)));
    }
}
