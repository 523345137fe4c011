//! Empty stand-in: the root `.cargo/config.toml` patches `proptest`, so the
//! patch must resolve, but nothing the benchmark builds imports it.
