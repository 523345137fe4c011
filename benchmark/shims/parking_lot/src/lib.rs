//! Empty stand-in: the root `.cargo/config.toml` patches `parking_lot`, so the
//! patch must resolve, but nothing the benchmark builds imports it.
