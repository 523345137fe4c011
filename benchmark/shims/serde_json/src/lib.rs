//! Stand-in for `serde_json` whose every call returns `Err` and never
//! panics, so `musa_cache::serde_runtime_works()` is false, persistence
//! paths degrade to compute, and nothing is half-written.

use std::fmt;
use std::io::{Read, Write};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json shim: serialisation is not available in the benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_vec<T: ?Sized + Serialize>(_value: &T) -> Result<Vec<u8>> {
    Err(Error)
}

pub fn to_writer<W: Write, T: ?Sized + Serialize>(_writer: W, _value: &T) -> Result<()> {
    Err(Error)
}

pub fn from_str<'a, T: Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error)
}

pub fn from_slice<'a, T: Deserialize<'a>>(_bytes: &'a [u8]) -> Result<T> {
    Err(Error)
}

pub fn from_reader<R: Read, T: DeserializeOwned>(_reader: R) -> Result<T> {
    Err(Error)
}
