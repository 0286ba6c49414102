//! The secure offload session: encrypt-then-MAC over capsule payloads.
//!
//! Retained pages leave the device "in a compressed and encrypted format"
//! (paper §3). The session keys derive from the device hierarchy inside the
//! controller; the host — and therefore any ransomware, however privileged —
//! never observes plaintext log data or the keys.

use rssd_crypto::{ChaCha20, DeviceKeys, HmacSha256, KeyId, KeyPurpose};

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
    keys: DeviceKeys,
    enc_id: KeyId,
}

impl std::fmt::Debug for SecureSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSession")
            .field("keys", &"<sealed>")
            .field("epoch", &self.enc_id.epoch)
            .finish()
    }
}

impl SecureSession {
    /// Derives session keys at `epoch` from the device hierarchy.
    pub fn new(keys: &DeviceKeys, epoch: u32) -> Self {
        let enc_id = KeyId {
            purpose: KeyPurpose::OffloadEncryption,
            epoch,
        };
        let mac_id = KeyId {
            purpose: KeyPurpose::SegmentAuthentication,
            epoch,
        };
        SecureSession {
            enc_key: keys.derive_id(enc_id),
            mac_key: keys.derive_id(mac_id),
            keys: keys.clone(),
            enc_id,
        }
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
        let nonce = self.keys.segment_nonce(self.enc_id, segment_seq);
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
        if sealed.len() < TAG_LEN {
            return Err(SessionError::Truncated);
        }
        let (ciphertext, tag_bytes) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&segment_seq.to_le_bytes());
        mac.update(ciphertext);
        let expected = mac.finalize();
        let mut diff = 0u8;
        for (a, b) in expected.as_bytes().iter().zip(tag_bytes) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(SessionError::BadTag);
        }
        Ok(Authenticated {
            enc_key: &self.enc_key,
            nonce: self.keys.segment_nonce(self.enc_id, segment_seq),
            ciphertext,
        })
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

/// A sealed message whose tag [`SecureSession::verify`] has checked over the
/// whole ciphertext. Only this handle deciphers, so no plaintext byte is ever
/// produced from an unauthenticated message; a reader that needs the front
/// of the plaintext pays the cipher for the front alone.
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
    fn debug_never_leaks_keys() {
        let s = session();
        assert!(format!("{s:?}").contains("sealed"));
    }
}
