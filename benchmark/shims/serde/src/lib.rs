//! Typecheck-only stand-in for `serde`: marker traits implemented for
//! every type, and derives that emit nothing. Nothing can actually be
//! serialised through it; the `serde_json` shim returns `Err` from every
//! call, so callers see a codec that is present but never succeeds.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub use crate::Deserialize;

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T {}
}

pub mod ser {
    pub use crate::Serialize;
}
